"""Integer arithmetic mod a prime: primality, base-p digit sums, Lucas.

Series arithmetic is over GF(2) only and needs no field object (see
series.py).  This module holds the integer kernels that the bounds, the
bundle rules and the `lucas` command read; inputs and outputs are plain
ints, and no floats are used.
"""

from __future__ import annotations

import math


def is_prime(n: int) -> bool:
    """Deterministic trial division; inputs here are small."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
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
    exceeding the matching digit of n kills the product.  Exact for all
    n, k >= 0 and prime p.
    """
    if not is_prime(p):
        raise ValueError(f"modulus {p!r} is not prime")
    if n < 0 or k < 0:
        raise ValueError("binomial arguments must be nonnegative")
    out = 1
    while k or n:
        n, nd = divmod(n, p)
        k, kd = divmod(k, p)
        if kd > nd:
            return 0
        out = out * (math.comb(nd, kd) % p) % p
    return out
