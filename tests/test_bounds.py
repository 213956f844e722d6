"""Bound calculators: the two main sums, soundness, and existence data."""

import random

import pytest

from kregular import (COMPLEX, REAL, BoundReport, ComplexProj, Euclid,
                      Product, QuatProj, RealProj, RegularQuery, Sphere,
                      UnsupportedBundleError, bound_disjoint,
                      bound_product_2regular, lambda_top,
                      main_theorem_1_closed_form,
                      main_theorem_2_closed_form, projective_3regular_upper,
                      projective_table_matches, real_dimension,
                      top_dual_degree, upper_existence,
                      upper_existence_piece)
from kregular import bundles
from kregular.bundles import (BCLZ_2015, COMPLEX_TWO_POINT, DISJOINT_COMPLEX,
                              DISJOINT_REAL, MAIN_THEOREM_1, MAIN_THEOREM_2,
                              PIECE_RULES, PROJECTIVE_3REGULAR_TABLE,
                              ExistenceRecord, PieceRule)


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


@pytest.mark.parametrize("call", [
    lambda spec: lambda_top(spec),
    lambda spec: lambda_top(spec, 4, COMPLEX),
    lambda spec: main_theorem_2_closed_form(((spec, 2),)),
    lambda spec: main_theorem_1_closed_form(spec),
    lambda spec: sum(map(main_theorem_1_closed_form, (spec,))),
    lambda spec: bound_product_2regular(spec),
    lambda spec: RegularQuery(((spec, 2),)),
    lambda spec: upper_existence_piece(spec, 2),
], ids=["lambda_top", "lambda_top_complex", "main_theorem_2",
        "main_theorem_1", "handel", "product_2regular", "query",
        "upper_existence_piece"])
def test_entry_points_refuse_a_string_spec(call):
    # A spec given as text is refused by name, as RegularQuery refuses it.
    with pytest.raises(ValueError) as err:
        call("S^2")
    assert type(err.value) is ValueError
    assert str(err.value) == "not a manifold spec: 'S^2'"


@pytest.mark.parametrize("points, regime, message", [
    (2.5, REAL, "piece (R^2, 2.5): point count must be an integer >= 2"),
    (1, REAL, "piece (R^2, 1): point count must be an integer >= 2"),
    (-1, REAL, "piece (R^2, -1): point count must be an integer >= 2"),
    (True, REAL, "piece (R^2, True): point count must be an integer >= 2"),
    ("2", REAL, "piece (R^2, '2'): point count must be an integer >= 2"),
    (2, "octonionic", "unknown regime 'octonionic'"),
], ids=["float", "one", "negative", "bool", "text", "regime"])
def test_bound_and_construction_lookups_refuse_alike(points, regime,
                                                     message):
    # One validator checks every entry point, so all refuse with one text.
    for lookup in (lambda_top, upper_existence_piece,
                   lambda spec, points, regime:
                   RegularQuery(((spec, points),), regime)):
        with pytest.raises(ValueError) as err:
            lookup(Euclid(2), points, regime)
        assert type(err.value) is ValueError
        assert str(err.value) == message, lookup


@pytest.mark.parametrize("pieces, regime, message", [
    (((Sphere(3), 2), (Euclid(2), 3), (Sphere(4), 5)), REAL,
     "(R^2, 3): plane rule needs a power-of-two point count"),
    (((Sphere(3), 2), (Euclid(2), 4), (ComplexProj(3), 2)), COMPLEX,
     "(R^2, 4): complex plane pieces need an odd prime point count"),
], ids=["real", "complex"])
def test_union_raises_its_first_refusing_piece(pieces, regime, message):
    # The second and third pieces both refuse; the second is named.
    with pytest.raises(UnsupportedBundleError) as err:
        bound_disjoint(RegularQuery(pieces, regime))
    assert str(err.value) == message


def test_bound_disjoint_refuses_anything_but_a_query():
    with pytest.raises(ValueError):
        bound_disjoint(((Sphere(3), 2),))


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
    total = sum(map(main_theorem_1_closed_form, specs))
    by_parts = sum(real_dimension(s) + top_dual_degree(s).top_degree
                   for s in specs) + 2 * len(specs)
    assert total == by_parts
    query = RegularQuery(tuple((s, 2) for s in specs), REAL)
    assert bound_disjoint(query).bound == total
    with pytest.raises(ValueError):
        main_theorem_1_closed_form(Euclid(2))


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
# Soundness: no construction beats a lower bound.

def _answered_pieces(regime):
    """Every (spec, k) of a small grid that the regime's rules bound."""
    families = (Sphere, RealProj, ComplexProj, QuatProj)
    specs = [Euclid(m) for m in range(1, 5)]
    specs += [family(m) for family in families for m in range(2, 13)]
    specs += [Product((Sphere(2), RealProj(3))),
              Product((ComplexProj(2), QuatProj(2), RealProj(5)))]
    pieces = []
    for spec in specs:
        for points in range(2, 10):
            try:
                lambda_top(spec, points, regime)
            except UnsupportedBundleError:
                continue
            pieces.append((spec, points))
    return pieces


@pytest.mark.parametrize("regime", [REAL, COMPLEX])
def test_no_construction_lies_below_its_bound(regime):
    pool = _answered_pieces(regime)
    rng = random.Random(29)
    queries = [(piece,) for piece in pool]
    queries += [tuple(rng.choice(pool) for _ in range(rng.randint(2, 3)))
                for _ in range(300)]
    for pieces in queries:
        report = bound_disjoint(RegularQuery(pieces, regime))
        if report.construction is not None:
            assert report.construction.ambient_dim >= report.bound, pieces
        for spec, points in pieces:
            upper = upper_existence_piece(spec, points, regime)
            if upper is not None:
                assert upper.ambient_dim >= lambda_top(
                    spec, points, regime).contribution, (spec, points)


def _table_construction(spec, points, regime):
    """Smallest-ambient record of the PIECE_RULES rows that build the
    piece, read row by row.
    """
    records = []
    for rule in PIECE_RULES:
        if (rule.regime == regime and type(spec) in rule.kinds
                and rule.construct is not None
                and (rule.where is None or rule.where(spec))
                and rule.points(points)):
            record = rule.construct(spec, points)
            if record is not None:
                records.append(record)
    return min(records, key=lambda record: record.ambient_dim, default=None)


# Pieces with a construction row but no lower rule.
_CONSTRUCTION_ONLY = (
    [(Euclid(2), k) for k in (3, 5, 6, 7)]
    + [(family(m), 3) for family in (Sphere, RealProj) for m in range(2, 13)])


@pytest.mark.parametrize("regime", [REAL, COMPLEX])
def test_construction_lookup_matches_the_table(regime):
    answered = _answered_pieces(regime)
    for spec, points in answered + _CONSTRUCTION_ONLY:
        assert upper_existence_piece(spec, points, regime) == \
            _table_construction(spec, points, regime), (spec, points)
    for piece in answered:
        assert bound_disjoint(RegularQuery((piece,), regime)).construction \
            == _table_construction(*piece, regime), piece
    rng = random.Random(31)
    for _ in range(200):
        pieces = tuple(rng.choice(answered) for _ in range(rng.randint(2, 3)))
        records = [_table_construction(*piece, regime) for piece in pieces]
        expected = None if None in records else ExistenceRecord(
            sum(record.ambient_dim for record in records),
            "coordinate direct sum of piece constructions")
        assert bound_disjoint(RegularQuery(pieces, regime)).construction \
            == expected, pieces


def test_a_complex_construction_row_is_read_like_a_real_one(monkeypatch):
    # A row appended to the index in the complex regime reaches reports:
    # x -> (1, x) packed into C^(floor(m/2) + 2) meets the sphere bound.
    row = PieceRule(COMPLEX, (Sphere,), lambda k: k == 2,
                    construct=lambda spec, k: ExistenceRecord(
                        spec.m // 2 + 2, "packed sphere"))
    spheres = bundles._BY_KIND[COMPLEX]
    monkeypatch.setitem(spheres, Sphere, spheres[Sphere] + [row])
    report = bound_disjoint(RegularQuery(((Sphere(5), 2),), COMPLEX))
    assert report.construction == ExistenceRecord(4, "packed sphere")
    assert report.tight
    union = bound_disjoint(RegularQuery(((Sphere(5), 2), (Sphere(6), 2)),
                                        COMPLEX))
    assert union.construction.ambient_dim == union.bound == 4 + 5


def _expected_labels(spec, regime):
    """The (theorem, union) labels a piece's profile carries, by family."""
    if regime == REAL:
        if isinstance(spec, Euclid):
            return MAIN_THEOREM_2, MAIN_THEOREM_2
        if isinstance(spec, Product):
            return MAIN_THEOREM_1, None
        return MAIN_THEOREM_1, MAIN_THEOREM_2
    if isinstance(spec, Euclid):
        return BCLZ_2015, None
    assert isinstance(spec, (Sphere, ComplexProj)), spec
    return COMPLEX_TWO_POINT, None


@pytest.mark.parametrize("regime", [REAL, COMPLEX])
def test_profiles_carry_their_theorem_labels(regime):
    disjoint = DISJOINT_REAL if regime == REAL else DISJOINT_COMPLEX
    for spec, points in _answered_pieces(regime):
        profile = lambda_top(spec, points, regime)
        theorem, union = _expected_labels(spec, regime)
        assert (profile.theorem, profile.union) == (theorem, union), (
            spec, points)
        assert bound_disjoint(RegularQuery(((spec, points),),
                                           regime)).theorem == theorem
        twice = bound_disjoint(RegularQuery(((spec, points),) * 2, regime))
        assert twice.theorem == (union or disjoint), (spec, points)


def test_projective_table_rows_respect_main_theorem_1():
    # A 3-regular map is 2-regular, so no row may beat the product bound;
    # the rows meet it exactly at m = 2^j + 1.
    meets = set()
    for m in range(2, 300):
        bound = main_theorem_1_closed_form(RealProj(m))
        for row in PROJECTIVE_3REGULAR_TABLE:
            if row.matches(m):
                assert row.ambient(m) >= bound, (m, row.label)
                if row.ambient(m) == bound:
                    meets.add(m)
    assert meets == {2 ** j + 1 for j in range(2, 9)}


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
    for m in range(2, 300):
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
