"""Configuration-bundle top degrees: supported rules and refusals."""

import random

import pytest

from kregular import (COMPLEX, REAL, ComplexProj, Euclid, Product, QuatProj,
                      RealProj, Sphere, UnsupportedBundleError, lambda_top,
                      main_theorem_1_closed_form, real_dimension,
                      top_dual_degree)
from kregular import bundles
from kregular.bundles import ExistenceRecord, PieceRule, resolve
from rank_oracles import chern_height_by_rank


def test_real_closed_two_point_examples():
    assert lambda_top(RealProj(5), 2, REAL).top_degree == 7
    for m in (2, 4, 9):
        assert lambda_top(Sphere(m), 2, REAL).top_degree == m
    prod = Product((Sphere(2), RealProj(3)))
    assert lambda_top(prod, 2, REAL).top_degree == 5


def test_real_plane_power_of_two_points():
    for i in (1, 2, 3):
        profile = lambda_top(Euclid(2), 2 ** i, REAL)
        assert profile.top_degree == 2 ** i - 1
        assert not profile.is_lower_bound
    assert lambda_top(Euclid(2), 8, REAL).top_degree == 7


def test_complex_sphere_two_points():
    profile = lambda_top(Sphere(5), 2, COMPLEX)
    assert profile.top_degree == 2
    assert not profile.is_lower_bound
    assert lambda_top(Sphere(6), 2, COMPLEX).top_degree == 3


def test_complex_projective_lower_bound():
    profile = lambda_top(ComplexProj(4), 2, COMPLEX)
    assert profile.top_degree == 6
    assert profile.is_lower_bound
    assert "height" in profile.source


def test_complex_plane_odd_prime_points():
    profile = lambda_top(Euclid(3), 3, COMPLEX)
    assert profile.top_degree == 4
    assert profile.contribution == 5
    assert profile.is_lower_bound
    assert "Blagojevic-Cohen-Luck-Ziegler" in profile.source
    for p in (2, 4, 9):
        with pytest.raises(UnsupportedBundleError) as err:
            lambda_top(Euclid(3), p, COMPLEX)
        assert str(err.value) == (f"(R^3, {p}): complex plane pieces need "
                                  "an odd prime point count")


def test_unsupported_combinations_refuse():
    with pytest.raises(UnsupportedBundleError):
        lambda_top(Euclid(3), 2, REAL)
    with pytest.raises(UnsupportedBundleError):
        lambda_top(Euclid(2), 3, REAL)          # not a power of two
    with pytest.raises(UnsupportedBundleError):
        lambda_top(Sphere(4), 3, REAL)          # closed needs k = 2
    with pytest.raises(UnsupportedBundleError):
        lambda_top(ComplexProj(3), 2, COMPLEX)  # complex CP rule needs m >= 4
    with pytest.raises(UnsupportedBundleError):
        lambda_top(RealProj(5), 2, COMPLEX)
    with pytest.raises(ValueError):
        lambda_top(Sphere(4), 1, REAL)
    with pytest.raises(ValueError):
        lambda_top(Sphere(4), 2, "quaternionic")


def test_profile_carries_source_label():
    profile = lambda_top(RealProj(5), 2, REAL)
    assert profile.spec == RealProj(5)
    assert profile.points == 2
    assert profile.regime == REAL
    assert profile.source


@pytest.mark.parametrize("m", [4, 5, 6, 7])
def test_complex_cp_bound_matches_row_reduced_height(m):
    # The rule reads the box size; the rank of c1's powers modulo the
    # relations of G_2(C^(m+1)) over QQ is the independent second method.
    profile = lambda_top(ComplexProj(m), 2, COMPLEX)
    assert profile.top_degree == chern_height_by_rank(2, m) == 2 * m - 2
    assert profile.contribution == 2 * m
    assert profile.is_lower_bound


# m = 2^j - 1, 2^j and 2^j + 1 up to 257, where the top dual degree jumps.
_POWER_EDGES = sorted({2 ** j + d for j in range(1, 9) for d in (-1, 0, 1)}
                      - {1})


def test_closed_profile_agrees_with_both_methods_up_to_m_300():
    # The lower rule sums each factor's dimension and Lucas share in one
    # walk; real_dimension with top_dual_degree, and the closed form, are
    # the two other readings of the same number.
    rng = random.Random(38)
    families = (Sphere, RealProj, ComplexProj, QuatProj)
    for _ in range(600):
        factors = tuple(
            rng.choice(families)(rng.choice(_POWER_EDGES) if rng.random() < 0.5
                                 else rng.randint(2, 300))
            for _ in range(rng.randint(1, 4)))
        spec = factors[0] if len(factors) == 1 else Product(factors)
        assert (lambda_top(spec).top_degree
                == real_dimension(spec) + top_dual_degree(spec).top_degree
                == main_theorem_1_closed_form(spec) - 2), spec


@pytest.mark.parametrize("ambients, chosen", [
    ((None, 9, 5, 5, None), 2),
    ((5, 9, None, 5), 0),
    ((None, None), None),
])
def test_resolve_keeps_the_first_smallest_construction(monkeypatch,
                                                        ambients, chosen):
    # Rows whose constructions return None are skipped, a larger record
    # loses, and of equal smallest records the first in table order wins.
    records = [None if ambient is None
               else ExistenceRecord(ambient, f"row {i}")
               for i, ambient in enumerate(ambients)]
    rows = [PieceRule(REAL, (Sphere,), lambda k: True,
                      construct=lambda spec, k, record=record: record)
            for record in records]
    monkeypatch.setitem(bundles._BY_KIND[REAL], Sphere, rows)
    profile, record = resolve(Sphere(4), 2, REAL)
    assert isinstance(profile, UnsupportedBundleError)
    assert record is (None if chosen is None else records[chosen])
