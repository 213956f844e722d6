"""Bound calculators: the two main sums, cited formulas, and existence data."""

import random

import pytest

from kregular import (COMPLEX, REAL, BoundReport, ComplexProj, Euclid,
                      Product, QuatProj, RealProj, RegularQuery, Sphere,
                      UnsupportedBundleError, bound_cited,
                      bound_disjoint, bound_product_2regular,
                      handel_disjoint_closed_form, lambda_top,
                      main_theorem_1_closed_form, main_theorem_2_closed_form,
                      projective_3regular_upper, projective_table_matches,
                      real_dimension, top_dual_degree, upper_existence,
                      upper_existence_piece)
from kregular.bounds import (BCLZ_2015, DISJOINT_COMPLEX, DISJOINT_REAL,
                             MAIN_THEOREM_1, MAIN_THEOREM_2)


def test_query_validation():
    with pytest.raises(ValueError):
        RegularQuery((), REAL)
    with pytest.raises(ValueError):
        RegularQuery(((Sphere(3), 1),), REAL)
    with pytest.raises(ValueError):
        RegularQuery(((Sphere(3), 2),), "octonionic")


# ---------------------------------------------------------------------------
# Product bound.

def test_product_bound_examples():
    assert bound_product_2regular(Sphere(4)).bound == 6
    assert bound_product_2regular(RealProj(5)).bound == 9
    assert bound_product_2regular(QuatProj(2)).bound == 14
    assert bound_product_2regular(
        Product((Sphere(2), RealProj(3)))).bound == 7


def test_product_bound_is_labeled():
    report = bound_product_2regular(QuatProj(2))
    assert report.theorem == MAIN_THEOREM_1
    (piece,) = report.breakdown
    assert piece.contribution == report.bound
    assert piece.top_degree == 12


def test_product_bound_is_the_one_piece_disjoint_bound():
    # Reference assembled here from the bundle profile and the piece
    # construction, as the product bound was computed on its own.
    rng = random.Random(17)
    families = (Sphere, RealProj, ComplexProj, QuatProj)
    for _ in range(60):
        factors = tuple(families[rng.randrange(4)](rng.randint(2, 12))
                        for _ in range(rng.randint(1, 3)))
        spec = factors[0] if len(factors) == 1 else Product(factors)
        report = bound_product_2regular(spec)
        profile = lambda_top(spec, 2, REAL)
        bound = profile.top_degree + 2
        assert profile.contribution == bound
        upper = upper_existence_piece(spec, 2)
        assert report == BoundReport(bound, MAIN_THEOREM_1, (profile,),
                                     upper)
        assert report.tight == (upper is not None
                                and upper.ambient_dim == bound)
        assert report == bound_disjoint(RegularQuery(((spec, 2),), REAL))
        assert report.bound == main_theorem_1_closed_form(spec)


def test_product_bound_requires_closed():
    with pytest.raises(ValueError):
        bound_product_2regular(Euclid(2))
    with pytest.raises(ValueError):
        bound_product_2regular(Product((Sphere(2), Euclid(1))))


def test_closed_form_matches_bundle_computation():
    rng = random.Random(5)
    families = (Sphere, RealProj, ComplexProj, QuatProj)
    for _ in range(40):
        factors = tuple(families[rng.randrange(4)](rng.randint(2, 10))
                        for _ in range(rng.randint(1, 3)))
        spec = factors[0] if len(factors) == 1 else Product(factors)
        if real_dimension(spec) > 64:
            continue
        assert main_theorem_1_closed_form(spec) == \
            bound_product_2regular(spec).bound


# ---------------------------------------------------------------------------
# Disjoint-union bound, real regime.

def test_disjoint_single_plane():
    report = bound_disjoint(RegularQuery(((Euclid(2), 2),), REAL))
    assert report.bound == 3
    assert report.construction is not None and report.tight


def test_disjoint_single_sphere_is_main_theorem_1():
    report = bound_disjoint(RegularQuery(((Sphere(6), 2),), REAL))
    assert report.bound == 8
    assert report.theorem == MAIN_THEOREM_1


def test_disjoint_mixed_query():
    query = RegularQuery(((Euclid(2), 4), (Sphere(3), 2),
                          (RealProj(5), 2)), REAL)
    report = bound_disjoint(query)
    assert report.bound == 7 + 5 + 9 == 21
    assert report.theorem == MAIN_THEOREM_2
    assert report.bound == main_theorem_2_closed_form(query.pieces)


def test_disjoint_label_outside_theorem_families():
    # A product piece is covered by the general obstruction, not the
    # disjoint-union theorem's closed-form families.
    query = RegularQuery(((Product((Sphere(2), RealProj(3))), 2),
                          (Euclid(2), 2)), REAL)
    report = bound_disjoint(query)
    assert report.theorem == DISJOINT_REAL
    assert report.bound == 7 + 3


def test_disjoint_serves_complex_queries_and_rejects_bad_pieces():
    report = bound_disjoint(RegularQuery(((Sphere(3), 2),), COMPLEX))
    assert report.bound == 1 + 2
    assert report.theorem == "complex two-point lower bound"
    assert report.breakdown == (lambda_top(Sphere(3), 2, COMPLEX),)
    assert report.construction is None
    with pytest.raises(UnsupportedBundleError) as err:
        bound_disjoint(RegularQuery(((Euclid(3), 2),), REAL))
    assert "R^3" in str(err.value)


def test_main_theorem_2_closed_form_rejects_foreign_pieces():
    with pytest.raises(ValueError):
        main_theorem_2_closed_form(((Euclid(2), 3),))
    with pytest.raises(ValueError):
        main_theorem_2_closed_form(((Sphere(3), 3),))


def test_adding_a_piece_strictly_increases_the_bound():
    rng = random.Random(13)
    base_pieces = [(Sphere(4), 2), (Euclid(2), 4)]
    query = RegularQuery(tuple(base_pieces), REAL)
    for _ in range(10):
        extra = (Sphere(rng.randint(2, 6)), 2) if rng.random() < 0.5 \
            else (Euclid(2), 2 ** rng.randint(1, 3))
        bigger = RegularQuery(tuple(base_pieces) + (extra,), REAL)
        assert bound_disjoint(bigger).bound > bound_disjoint(query).bound


def test_handel_closed_form():
    specs = (Sphere(3), RealProj(5))
    total = handel_disjoint_closed_form(specs)
    by_parts = sum(real_dimension(s) + top_dual_degree(s).top_degree
                   for s in specs) + 2 * len(specs)
    assert total == by_parts
    query = RegularQuery(tuple((s, 2) for s in specs), REAL)
    assert bound_disjoint(query).bound == total
    with pytest.raises(ValueError):
        handel_disjoint_closed_form((Euclid(2),))


# ---------------------------------------------------------------------------
# Complex regime.

def test_complex_examples():
    assert bound_disjoint(
        RegularQuery(((Sphere(5), 2),), COMPLEX)).bound == 4
    assert bound_disjoint(
        RegularQuery(((ComplexProj(4), 2),), COMPLEX)).bound == 8
    assert bound_disjoint(
        RegularQuery(((Euclid(3), 3),), COMPLEX)).bound == 5


def test_complex_theorem_labels():
    plane = bound_disjoint(RegularQuery(((Euclid(3), 3),), COMPLEX))
    assert "Blagojevic" in plane.theorem
    single = bound_disjoint(
        RegularQuery(((ComplexProj(4), 2),), COMPLEX))
    assert single.theorem == "complex two-point lower bound"
    multi = bound_disjoint(
        RegularQuery(((Sphere(4), 2), (Euclid(3), 3)), COMPLEX))
    assert multi.theorem == DISJOINT_COMPLEX
    assert multi.bound == (2 + 2) + (4 + 1)


def test_complex_plane_needs_odd_prime():
    for bad in (2, 4, 9):
        with pytest.raises(UnsupportedBundleError) as err:
            bound_disjoint(
                RegularQuery(((Euclid(3), bad),), COMPLEX))
        assert "odd prime" in str(err.value)
    report = bound_disjoint(RegularQuery(((Euclid(3), 5),), COMPLEX))
    assert report.bound == 2 * 4 + 1
    assert report.theorem == BCLZ_2015
    (piece,) = report.breakdown
    assert piece.regime == COMPLEX and piece.is_lower_bound


def test_complex_grid_against_piece_formulas():
    # Per-piece contributions written out here: floor(m/2) + 2 for spheres,
    # (2m - 2) + 2 for CP^m, floor((m+1)/2)(p-1) + 1 for planes.
    rng = random.Random(23)
    for _ in range(200):
        pieces = []
        expected = 0
        for _ in range(rng.randint(1, 3)):
            kind = rng.randrange(3)
            if kind == 0:
                m = rng.randint(2, 24)
                pieces.append((Sphere(m), 2))
                expected += m // 2 + 2
            elif kind == 1:
                m = rng.randint(4, 9)
                pieces.append((ComplexProj(m), 2))
                expected += 2 * m
            else:
                m, p = rng.randint(1, 12), rng.choice((3, 5, 7))
                pieces.append((Euclid(m), p))
                expected += (m + 1) // 2 * (p - 1) + 1
        report = bound_disjoint(RegularQuery(tuple(pieces), COMPLEX))
        assert report.bound == expected
        if len(pieces) > 1:
            assert report.theorem == DISJOINT_COMPLEX
        elif isinstance(pieces[0][0], Euclid):
            assert report.theorem == BCLZ_2015
        else:
            assert report.theorem == "complex two-point lower bound"
        assert report.construction is None


def test_complex_cp_piece_is_marked_lower_bound():
    report = bound_disjoint(
        RegularQuery(((ComplexProj(5), 2),), COMPLEX))
    (piece,) = report.breakdown
    assert piece.is_lower_bound
    assert report.construction is None


# ---------------------------------------------------------------------------
# Cited formulas.

def test_cited_real_euclid():
    report = bound_cited("real-euclid", m=2, k=4)
    assert report.bound == 7
    assert "Blagojevic-Luck-Ziegler" in report.theorem
    # alpha(3) = 2, so 4(3-2) + 2.
    assert bound_cited("real-euclid", m=4, k=3).bound == 6


@pytest.mark.parametrize("m", [0, 3, 6, 12])
def test_cited_real_euclid_needs_a_power_of_two(m):
    # Chisholm's proof covers R^m for m a power of two only.
    with pytest.raises(ValueError):
        bound_cited("real-euclid", m=m, k=4)


def test_cited_complex_euclid():
    assert bound_cited("complex-euclid-odd-prime", m=3, p=3).bound == 5


def test_cited_plane_kinds_share_the_odd_prime_error():
    # Every plane kind reaches lambda_top's rule, so all fail alike.
    kinds = (("complex-euclid-odd-prime", {"m": 3}),
             ("complex-stacked-planes", {"n": 2, "m": 3}),
             ("complex-disjoint-planes", {"ms": (3,)}))
    for kind, params in kinds:
        for p in (2, 9):
            with pytest.raises(UnsupportedBundleError) as err:
                bound_cited(kind, p=p, **params)
            assert str(err.value) == (f"(R^3, {p}): complex plane pieces "
                                      "need an odd prime point count")


def test_cited_prime_power():
    # alpha_3(4) = 2, so 9(4-2) + 2.
    assert bound_cited("complex-prime-power", m=9, k=4, p=3).bound == 20
    with pytest.raises(ValueError):
        bound_cited("complex-prime-power", m=6, k=4, p=3)
    with pytest.raises(ValueError):
        bound_cited("complex-prime-power", m=9, k=4, p=4)


def test_cited_stacked_planes():
    assert bound_cited("complex-stacked-planes", n=2, m=3, p=3).bound == 10


def test_cited_disjoint_planes():
    report = bound_cited("complex-disjoint-planes", ms=(3, 3), p=3)
    assert report.bound == 10
    assert len(report.breakdown) == 2
    with pytest.raises(ValueError):
        bound_cited("complex-disjoint-planes", ms=(), p=3)


@pytest.mark.parametrize("kind, params", [
    ("real-euclid", {"m": 2, "k": 4}),
    ("complex-prime-power", {"m": 9, "k": 4, "p": 3}),
    ("complex-stacked-planes", {"n": 2, "m": 3, "p": 3}),
])
def test_cited_piece_carries_no_top_degree(kind, params):
    # A cited formula quotes the ambient dimension, not a class degree.
    report = bound_cited(kind, **params)
    (piece,) = report.breakdown
    assert piece.top_degree is None
    assert piece.contribution == report.bound


def test_cited_unknown_kind():
    with pytest.raises(ValueError) as err:
        bound_cited("real-sphere")
    assert "real-euclid" in str(err.value)


# ---------------------------------------------------------------------------
# Existence table and tightness.

def test_table_rows_for_rp9():
    # 9 = 8*1+1 and 9 = 2^3+1; overlapping rows resolve by minimum.
    hits = {row.label: ambient for row, ambient in projective_table_matches(9)}
    assert hits["m = 8q+1 (q > 0)"] == 19
    assert hits["m = 2^j + 1 (j >= 2)"] == 17
    assert projective_3regular_upper(9).ambient_dim == 17


def test_table_has_no_row_for_rp2():
    assert projective_table_matches(2) == []
    assert projective_3regular_upper(2) is None
    assert bound_product_2regular(RealProj(2)).construction is None


def test_table_sample_rows():
    assert projective_3regular_upper(5).ambient_dim == 9     # 2^2 + 1
    assert projective_3regular_upper(39).ambient_dim == 72   # 32q + 7
    assert projective_3regular_upper(23).ambient_dim == 41   # 8q + 7, q > 1
    assert projective_3regular_upper(10).ambient_dim == 20   # 2^3 + 2


def test_sphere_bound_is_tight():
    for m in range(2, 17):
        report = bound_product_2regular(Sphere(m))
        assert report.construction is not None
        assert report.tight
        assert report.construction.ambient_dim == m + 2


def test_rp_power_of_two_plus_one_is_tight():
    for i in range(2, 6):
        m = 2 ** i + 1
        report = bound_product_2regular(RealProj(m))
        assert report.bound == 2 * m - 1
        assert report.construction is not None and report.tight


def test_disjoint_tightness_from_direct_sum():
    query = RegularQuery(((Sphere(3), 2), (Sphere(5), 2)), REAL)
    report = bound_disjoint(query)
    assert report.construction is not None
    assert report.construction.ambient_dim == (3 + 2) + (5 + 2)
    assert report.tight


def test_upper_existence_piece_refuses_quietly():
    assert upper_existence_piece(QuatProj(2), 2) is None
    assert upper_existence_piece(Sphere(3), 4) is None
    assert upper_existence(
        RegularQuery(((QuatProj(2), 2),), REAL)) is None
