"""Field arithmetic, digit sums, and the binomial-mod-p kernel."""

import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from kregular import GF2, QQ, PrimeField, digit_sum_base_p, is_prime, \
    lucas_binom_mod_p


def test_is_prime_small_values():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29}
    for n in range(-3, 30):
        assert is_prime(n) == (n in primes)


def test_prime_field_rejects_composite_modulus():
    for bad in (0, 1, 4, 9, 15):
        with pytest.raises(ValueError):
            PrimeField(bad)
    with pytest.raises(ValueError):
        PrimeField("5")


def test_prime_field_basics():
    f = PrimeField(5)
    assert f.zero == 0 and f.one == 1
    assert f.from_int(-3) == 2
    assert f.add(3, 4) == 2
    assert f.sub(1, 3) == 3
    assert f.neg(2) == 3
    assert f.mul(3, 4) == 2
    assert f.div(1, 3) == 2  # 3*2 = 6 = 1


def test_prime_field_inverse_of_zero():
    with pytest.raises(ZeroDivisionError):
        GF2.inv(0)
    with pytest.raises(ZeroDivisionError):
        PrimeField(7).inv(14)


def test_field_equality_and_hash():
    assert PrimeField(2) == GF2
    assert PrimeField(2) != PrimeField(3)
    assert hash(PrimeField(5)) == hash(PrimeField(5))
    assert QQ == QQ and QQ != GF2


def test_rational_field_ops():
    a, b = Fraction(2, 3), Fraction(-1, 4)
    assert QQ.add(a, b) == Fraction(5, 12)
    assert QQ.mul(a, b) == Fraction(-1, 6)
    assert QQ.inv(a) == Fraction(3, 2)
    assert QQ.div(a, b) == Fraction(-8, 3)
    with pytest.raises(ZeroDivisionError):
        QQ.inv(Fraction(0))
    with pytest.raises(ZeroDivisionError):
        QQ.div(a, Fraction(0))


@given(st.integers(0, 3), st.integers(1, 400), st.integers(1, 400))
def test_prime_field_axioms(which, a, b):
    p = (2, 3, 5, 7)[which]
    f = PrimeField(p)
    x, y = a % p, b % p
    assert f.add(x, y) == f.add(y, x)
    assert f.mul(x, y) == f.mul(y, x)
    assert f.add(x, f.neg(x)) == 0
    if x:
        assert f.mul(x, f.inv(x)) == 1


def test_digit_sum_examples():
    assert digit_sum_base_p(5, 2) == 2       # 101
    assert digit_sum_base_p(10, 3) == 2      # 101 base 3
    for t in range(12):
        assert digit_sum_base_p(2 ** t, 2) == 1
    assert digit_sum_base_p(0, 2) == 0


def test_digit_sum_validation():
    with pytest.raises(ValueError):
        digit_sum_base_p(5, 4)
    with pytest.raises(ValueError):
        digit_sum_base_p(-1, 2)


def test_lucas_examples():
    assert lucas_binom_mod_p(7, 3, 2) == 1    # C(7,3) = 35
    assert lucas_binom_mod_p(4, 2, 2) == 0    # C(4,2) = 6
    for n in (0, 1, 9, 100):
        assert lucas_binom_mod_p(n, 0, 5) == 1
    assert lucas_binom_mod_p(3, 7, 3) == 0    # k > n


def test_lucas_validation():
    with pytest.raises(ValueError):
        lucas_binom_mod_p(5, 2, 6)
    with pytest.raises(ValueError):
        lucas_binom_mod_p(-1, 0, 2)
    with pytest.raises(ValueError):
        lucas_binom_mod_p(1, -1, 2)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_lucas_matches_math_comb(p):
    # Small direct oracle; the 512-grid Pascal comparison is an acceptance
    # criterion.
    for n in range(0, 60):
        for k in range(0, 60):
            assert lucas_binom_mod_p(n, k, p) == math.comb(n, k) % p


@pytest.mark.parametrize("p", [1009, 2003])
def test_lucas_large_prime_is_fast(p):
    # One binomial per base-p digit pair: no work grows with p^2.
    n, k = 10 ** 6 + 7, 3 * p + 5
    expect = math.comb(n, k) % p
    start = time.perf_counter()
    assert lucas_binom_mod_p(5, 3, p) == 10
    assert lucas_binom_mod_p(n, k, p) == expect
    assert time.perf_counter() - start < 1.0
