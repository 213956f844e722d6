"""Integer arithmetic mod a prime: primality, base-p digit sums, Lucas.

Series arithmetic is over GF(2) only and needs no field object (see
series.py).  This module holds the integer kernels that the bounds, the
bundle rules and the `lucas` command read; inputs and outputs are plain
ints, and no floats are used.

`is_prime` is the Miller-Rabin test on the thirteen prime bases 2, ..., 41,
which no composite below `PRIME_TEST_LIMIT` (about 3.3 * 10^24) passes
(Sorenson and Webster, "Strong pseudoprimes to twelve prime bases",
Math. Comp. 86, 2017); at or above that limit it raises ValueError.
`lucas_binom_mod_p` multiplies one numerator and one denominator factor
mod p per unit of min(k_i, n_i - k_i) over the base-p digits, and raises
ValueError before any of them when they would number more than
`LUCAS_MAX_FACTORS`.
"""

from __future__ import annotations

_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# The least composite that is a strong pseudoprime to every base in _BASES.
PRIME_TEST_LIMIT = 3_317_044_064_679_887_385_961_981
# A product of 10^7 factors takes about two seconds in pure Python.
LUCAS_MAX_FACTORS = 10 ** 7


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < PRIME_TEST_LIMIT."""
    if n >= PRIME_TEST_LIMIT:
        raise ValueError("primality is decided only below "
                         f"{PRIME_TEST_LIMIT}, got {n}")
    if n < 2:
        return False
    for p in _BASES:
        if n % p == 0:
            return n == p
    if n < 43 * 43:  # a composite this small has a prime factor below 43
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def digit_sum_base_p(k: int, p: int) -> int:
    """Sum of the base-p digits of k (k >= 0, p prime)."""
    if not is_prime(p):
        raise ValueError(f"base {p!r} is not prime")
    if k < 0:
        raise ValueError("digit sum needs a nonnegative argument")
    s = 0
    while k:
        k, r = divmod(k, p)
        s += r
    return s


def lucas_binom_mod_p(n: int, k: int, p: int) -> int:
    """Binomial coefficient C(n, k) mod p by digit-wise products.

    Each base-p digit pair contributes C(n_i, k_i) mod p; any digit of k
    exceeding the matching digit of n kills the product.  C(n_i, k_i) is
    the product of min(k_i, n_i - k_i) factors (n_i - j) / (j + 1), taken
    mod p with one inversion at the end.  Exact for all n, k >= 0 and prime
    p; more than LUCAS_MAX_FACTORS factors raise ValueError.
    """
    if not is_prime(p):
        raise ValueError(f"modulus {p!r} is not prime")
    if n < 0 or k < 0:
        raise ValueError("binomial arguments must be nonnegative")
    digits = []
    factors = 0
    while k:
        n, nd = divmod(n, p)
        k, kd = divmod(k, p)
        if kd > nd:
            return 0
        kd = min(kd, nd - kd)
        if kd:
            digits.append((nd, kd))
            factors += kd
    if factors > LUCAS_MAX_FACTORS:
        raise ValueError(f"C(n, k) mod {p} needs {factors} factors, more "
                         f"than the limit {LUCAS_MAX_FACTORS}")
    num = den = 1
    for nd, kd in digits:
        for j in range(kd):
            num = num * (nd - j) % p
            den = den * (j + 1) % p
    return num * pow(den, -1, p) % p
