"""Primality, digit sums, and the binomial-mod-p kernel."""

import math
import time

import pytest

from kregular import digit_sum_base_p, is_prime, lucas_binom_mod_p


def test_is_prime_small_values():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29}
    for n in range(-3, 30):
        assert is_prime(n) == (n in primes)


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
