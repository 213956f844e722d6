"""Coefficient fields for graded series arithmetic.

Two fields are supported: the prime field Z/p (elements are plain ints in
[0, p)) and the rationals (elements are fractions.Fraction).  Field objects
carry the arithmetic; values stay primitive so that inner loops avoid
per-element object overhead.  No floats anywhere in this module.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

Coeff = Union[int, Fraction]


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


class PrimeField:
    """Arithmetic of Z/p for a prime p, acting on ints in [0, p)."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not isinstance(p, int) or not is_prime(p):
            raise ValueError(f"modulus {p!r} is not prime")
        self.p = p

    @property
    def zero(self) -> int:
        return 0

    @property
    def one(self) -> int:
        return 1

    def from_int(self, n: int) -> int:
        return n % self.p

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.p

    def neg(self, a: int) -> int:
        return -a % self.p

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.p

    def inv(self, a: int) -> int:
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero in prime field")
        return pow(a, self.p - 2, self.p)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("PrimeField", self.p))

    def __repr__(self) -> str:
        return f"GF({self.p})"


class RationalField:
    """Exact rational arithmetic on fractions.Fraction values."""

    __slots__ = ()

    zero = Fraction(0)
    one = Fraction(1)

    def from_int(self, n: int) -> Fraction:
        return Fraction(n)

    def add(self, a: Fraction, b: Fraction) -> Fraction:
        return a + b

    def sub(self, a: Fraction, b: Fraction) -> Fraction:
        return a - b

    def neg(self, a: Fraction) -> Fraction:
        return -a

    def mul(self, a: Fraction, b: Fraction) -> Fraction:
        return a * b

    def inv(self, a: Fraction) -> Fraction:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / a

    def div(self, a: Fraction, b: Fraction) -> Fraction:
        if b == 0:
            raise ZeroDivisionError("division by zero")
        return a / b

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RationalField)

    def __hash__(self) -> int:
        return hash("RationalField")

    def __repr__(self) -> str:
        return "QQ"


Field = Union[PrimeField, RationalField]

GF2 = PrimeField(2)
QQ = RationalField()


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
