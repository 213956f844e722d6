"""Configuration-bundle top degrees: supported rules and refusals."""

import pytest

from kregular import (COMPLEX, REAL, ComplexProj, Euclid, Product, RealProj,
                      Sphere, UnsupportedBundleError, lambda_top)
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
