"""Truncated graded polynomial rings over GF(2) with sparse series elements.

A SeriesRing fixes a list of generators with positive integer degrees and
a truncation bound D: terms of weighted degree > D are dropped by every
operation.  Every coefficient is 0 or 1, so an element is the frozenset of
the exponent vectors of its terms: a sum is a symmetric difference, and a
product toggles each term it reaches.  Truncations are part of the ring:
combining elements of different rings raises RingMismatchError instead of
re-truncating silently.
"""

from __future__ import annotations

from typing import Iterator, Mapping, Optional, Sequence

from .record import Record


class RingMismatchError(ValueError):
    """Operands live in structurally different rings."""


class NonInvertibleError(ValueError):
    """Series inversion requires constant term exactly 1."""


class SeriesRing:
    """GF(2)[x_1, ..., x_r] graded by weighted degree, cut at `truncation`."""

    __slots__ = ("names", "degrees", "truncation", "_monomial_cache")

    def __init__(self, generators: Sequence[tuple[str, int]],
                 truncation: int):
        names = tuple(name for name, _ in generators)
        degrees = tuple(deg for _, deg in generators)
        if len(set(names)) != len(names):
            raise ValueError("generator names must be distinct")
        for name, deg in generators:
            if not name or not name.isascii() or not name.isidentifier():
                raise ValueError(f"bad generator name {name!r}")
            if not isinstance(deg, int) or deg <= 0:
                raise ValueError(f"generator {name} needs a positive degree")
        if not isinstance(truncation, int) or truncation < 0:
            raise ValueError("truncation must be a nonnegative integer")
        self.names = names
        self.degrees = degrees
        self.truncation = truncation
        self._monomial_cache: dict[int, list[tuple[int, ...]]] = {}

    def degree_of(self, exponents: Sequence[int]) -> int:
        return sum(e * d for e, d in zip(exponents, self.degrees))

    def zero(self) -> "GradedSeries":
        return GradedSeries(self, frozenset())

    def one(self) -> "GradedSeries":
        return GradedSeries(self, frozenset({(0,) * len(self.names)}))

    def gen(self, name: str) -> "GradedSeries":
        i = self.names.index(name)
        if self.degrees[i] > self.truncation:
            return self.zero()
        exponents = tuple(1 if j == i else 0 for j in range(len(self.names)))
        return GradedSeries(self, frozenset({exponents}))

    def gens(self) -> list["GradedSeries"]:
        return [self.gen(name) for name in self.names]

    def from_terms(self, terms: Mapping[tuple[int, ...], int]
                   ) -> "GradedSeries":
        """Build an element from {exponent vector: int coefficient}.

        Validates each exponent vector and keeps the terms with an odd
        coefficient.
        """
        clean = set()
        for exponents, coeff in terms.items():
            exponents = tuple(exponents)
            if len(exponents) != len(self.names) or any(
                    not isinstance(e, int) or e < 0 for e in exponents):
                raise ValueError(f"bad exponent vector {exponents!r}")
            if self.degree_of(exponents) > self.truncation:
                raise ValueError(
                    f"term {exponents!r} exceeds truncation {self.truncation}")
            if coeff % 2:
                clean.add(exponents)
        return GradedSeries(self, frozenset(clean))

    def monomials_of_degree(self, d: int) -> list[tuple[int, ...]]:
        """All exponent vectors of weighted degree exactly d."""
        got = self._monomial_cache.get(d)
        if got is None:
            got = sorted(self._enumerate(d, 0, [0] * len(self.names)),
                         reverse=True)
            self._monomial_cache[d] = got
        return got

    def _enumerate(self, remaining: int, i: int,
                   prefix: list[int]) -> Iterator[tuple[int, ...]]:
        if remaining == 0 and i >= len(self.names):
            yield tuple(prefix)
            return
        if i >= len(self.names):
            return
        deg = self.degrees[i]
        for e in range(remaining // deg + 1):
            prefix[i] = e
            yield from self._enumerate(remaining - e * deg, i + 1, prefix)
        prefix[i] = 0

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, SeriesRing)
                and other.names == self.names and other.degrees == self.degrees
                and other.truncation == self.truncation)

    def __hash__(self) -> int:
        return hash((self.names, self.degrees, self.truncation))

    def __repr__(self) -> str:
        gens = ", ".join(f"{n}:{d}" for n, d in zip(self.names, self.degrees))
        return f"SeriesRing({gens}; trunc={self.truncation})"

    def require_same(self, other: "SeriesRing") -> None:
        if self != other:
            raise RingMismatchError(
                f"cannot mix elements of {self!r} and {other!r}")


class GradedSeries(Record):
    """Element of a SeriesRing: the frozenset of its terms' exponents."""

    __slots__ = ("ring", "terms")

    def is_zero(self) -> bool:
        return not self.terms

    def constant_coefficient(self) -> int:
        return self.coefficient((0,) * len(self.ring.names))

    def top_degree(self) -> Optional[int]:
        """Largest weighted degree carrying a nonzero term; None if zero."""
        if not self.terms:
            return None
        degree_of = self.ring.degree_of
        return max(degree_of(e) for e in self.terms)

    def homogeneous_part(self, d: int) -> "GradedSeries":
        degree_of = self.ring.degree_of
        return GradedSeries(self.ring, frozenset(
            e for e in self.terms if degree_of(e) == d))

    def coefficient(self, exponents: Sequence[int]) -> int:
        return int(tuple(exponents) in self.terms)

    def __add__(self, other: "GradedSeries") -> "GradedSeries":
        self.ring.require_same(other.ring)
        return GradedSeries(self.ring, self.terms ^ other.terms)

    def __mul__(self, other: "GradedSeries") -> "GradedSeries":
        self.ring.require_same(other.ring)
        ring = self.ring
        degrees = ring.degrees
        trunc = ring.truncation
        out: set[tuple[int, ...]] = set()
        for e1 in self.terms:
            d1 = ring.degree_of(e1)
            for e2 in other.terms:
                d = d1 + sum(x * w for x, w in zip(e2, degrees))
                if d > trunc:
                    continue
                e = tuple(a + b for a, b in zip(e1, e2))
                if e in out:
                    out.remove(e)
                else:
                    out.add(e)
        return GradedSeries(self.ring, frozenset(out))

    def __pow__(self, exponent: int) -> "GradedSeries":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = self.ring.one()
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base if exponent > 1 else base
            exponent >>= 1
        return result

    def inverse(self) -> "GradedSeries":
        """Multiplicative inverse, degree by degree, up to the truncation.

        Requires constant term 1; raises NonInvertibleError otherwise.  With
        s = 1 + n the inverse t satisfies t_0 = 1 and
        t_d = sum_{e=1}^{d} n_e * t_{d-e} for homogeneous components (the
        sign of the recurrence vanishes mod 2).
        """
        ring = self.ring
        if not self.constant_coefficient():
            raise NonInvertibleError(
                "series inversion needs constant term 1, got 0")
        degree_of = ring.degree_of
        buckets: dict[int, set[tuple[int, ...]]] = {}
        for e in self.terms:
            d = degree_of(e)
            if d > 0:
                buckets.setdefault(d, set()).add(e)
        positive = {d: GradedSeries(ring, frozenset(b))
                    for d, b in buckets.items()}
        parts: dict[int, GradedSeries] = {0: ring.one()}
        for d in range(1, ring.truncation + 1):
            acc = ring.zero()
            for e, s_e in positive.items():
                if e <= d and (d - e) in parts:
                    acc = acc + s_e * parts[d - e]
            if not acc.is_zero():
                parts[d] = acc
        # The parts sit in distinct degrees, so their sum is their union.
        return GradedSeries(ring, frozenset().union(
            *(part.terms for part in parts.values())))

    def render(self) -> str:
        """ASCII string like '1 + a^2 + a*b'; zero renders as '0'."""
        if not self.terms:
            return "0"
        ring = self.ring
        degree_of = ring.degree_of
        ordered = sorted(self.terms, key=lambda e: (degree_of(e), e))
        return " + ".join(
            "*".join(name if e == 1 else f"{name}^{e}"
                     for name, e in zip(ring.names, exponents) if e) or "1"
            for exponents in ordered)

    def __repr__(self) -> str:
        return f"<series {self.render()} in {self.ring!r}>"
