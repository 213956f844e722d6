"""Primality, digit sums, and the binomial-mod-p kernel."""

import math
import time

import pytest

from kregular import digit_sum_base_p, is_prime, lucas_binom_mod_p
from kregular.fields import LUCAS_MAX_FACTORS, PRIME_TEST_LIMIT


def test_is_prime_small_values():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29}
    for n in range(-3, 30):
        assert is_prime(n) == (n in primes)


def test_is_prime_matches_trial_division():
    def by_trial_division(n):
        return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))
    for n in range(20_000):
        assert is_prime(n) == by_trial_division(n), n


@pytest.mark.parametrize("n", [
    3215031751,                  # strong pseudoprime to bases 2, 3, 5, 7
    3825123056546413051,         # ... to every prime base up to 31
    318665857834031151167461,    # ... up to 37; only base 41 catches it
])
def test_is_prime_rejects_strong_pseudoprimes(n):
    assert not is_prime(n)


def test_is_prime_large_primes_and_limit():
    start = time.perf_counter()
    for n in (10 ** 16 + 61, 10 ** 18 + 3, 10 ** 18 + 9):
        assert is_prime(n)
    assert not is_prime(10 ** 18 + 1)
    assert time.perf_counter() - start < 1.0
    with pytest.raises(ValueError, match="decided only below"):
        is_prime(PRIME_TEST_LIMIT)
    with pytest.raises(ValueError):
        lucas_binom_mod_p(5, 2, PRIME_TEST_LIMIT + 2)


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


def test_lucas_prime_above_n_is_fast():
    # One digit: C(n, k) itself, by min(k, n - k) modular factors.
    start = time.perf_counter()
    assert lucas_binom_mod_p(10 ** 6, 5 * 10 ** 5, 10 ** 9 + 7) == 996692777
    assert lucas_binom_mod_p(10 ** 6, 10 ** 6 - 3, 10 ** 9 + 7) \
        == math.comb(10 ** 6, 3) % (10 ** 9 + 7)
    assert time.perf_counter() - start < 2.0


def test_lucas_refuses_too_many_factors():
    n = 2 * LUCAS_MAX_FACTORS + 2
    p = 1_000_000_000_000_000_003
    with pytest.raises(ValueError, match="factors"):
        lucas_binom_mod_p(n, n // 2, p)
    # A digit of k above n's answers 0 with no factors at all.
    assert lucas_binom_mod_p(n, n + 1, p) == 0


@pytest.mark.parametrize("p", [1009, 2003])
def test_lucas_large_prime_is_fast(p):
    # One binomial per base-p digit pair: no work grows with p^2.
    n, k = 10 ** 6 + 7, 3 * p + 5
    expect = math.comb(n, k) % p
    start = time.perf_counter()
    assert lucas_binom_mod_p(5, 3, p) == 10
    assert lucas_binom_mod_p(n, k, p) == expect
    assert time.perf_counter() - start < 1.0
