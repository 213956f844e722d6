"""Mod-2 cohomology presentations of real Grassmannians.

H*(G_k(R^(n+1)); GF(2)) is presented as a polynomial ring on the
Stiefel-Whitney generators w_1 .. w_k of the tautological k-plane bundle
(|w_i| = i), modulo the ideal generated by the homogeneous parts of the
inverted total class in degrees n-k+2 .. n+1.

Normal forms come from per-degree reduced row echelon data: the ideal's
degree-d slice is spanned by monomial multiples of the homogeneous
generators, columns are monomials in descending lexicographic order within
the degree, and the quotient basis is the non-pivot columns.  A normal form
is a plain GradedSeries of the presentation's ring whose terms all lie on
the quotient basis.  A row is one Python int with bit j for column j, so
its lead is the lowest set bit and a row operation is one XOR.  Pivot rows
are kept fully reduced (back-substituted): a row's bits in the other pivot
columns are zero, so a normal form needs one XOR per pivot bit of the
element (w1^t is a single monomial) instead of a cascade across pivots.

The cohomology vanishes above top = k(n+1-k): in degree d its dimension is
the number of partitions of d that fit in a k x (n+1-k) box (the Schubert
basis), so degrees above the top are zero and are never row-reduced.  The
ring is cut at top + 1, which holds every relation: the last one sits in
degree n+1, and n+1 <= top + 1 is (k-1)(n-k) >= 0.

The height of w1 is answered in closed form, with no ring arithmetic, by
Stong's theorem (R. E. Stong, "Cup products in Grassmannians", Topology
Appl. 13, 1982): with N = n+1, k' = min(k, N-k) and 2^s < N <= 2^(s+1),
the height of w1 is N-1 if k' = 1, 2^(s+1)-2 if k' = 2 or if k' = 3 and
N = 2^s+1, and 2^(s+1)-1 otherwise.  The ring and the relations are built
on first use, so a presentation that only answers the first-class height
builds no ring and does no series arithmetic.  `height(element)`
row-reduces powers of any element and stays the second method for w1.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache
from operator import add
from typing import Union

from .record import Record
from .series import GradedSeries, SeriesRing


def _require_box(k: int, n: int) -> None:
    if isinstance(k, bool) or isinstance(n, bool) or not (
            isinstance(k, int) and isinstance(n, int) and 1 <= k <= n):
        raise ValueError(f"need integers 1 <= k <= n, got k={k}, n={n}")


class GrassmannPresentation:
    """Truncated presentation of H*(G_k(R^(n+1)); GF(2)) with normal forms.

    k and n fix the Grassmannian (1 <= k <= n).  The ring is truncated one
    degree past the top cohomological degree, which holds every relation;
    every degree above the top is zero in the quotient.
    """

    def __init__(self, k: int, n: int):
        _require_box(k, n)
        top = k * (n + 1 - k)
        self.k = k
        self.n = n
        self.top_degree = top
        self._degree_data: dict[int, _DegreeData] = {}

    @cached_property
    def ring(self) -> SeriesRing:
        """GF(2)[w_1, ..., w_k] cut at top + 1, built on first use."""
        return SeriesRing([(f"w{i}", i) for i in range(1, self.k + 1)],
                          self.top_degree + 1)

    @cached_property
    def relations(self) -> tuple[GradedSeries, ...]:
        """The homogeneous generators of the ideal, built on first use."""
        # dual_j, the degree-j part of 1/(1 + w_1 + ... + w_k), from
        # dual_0 = 1 by dual_j = w_1 dual_(j-1) + ... + w_k dual_(j-k)
        # (signs vanish mod 2); the relations are dual_j for
        # j = n-k+2 .. n+1.
        gens = self.ring.gens()
        duals = [self.ring.one()]
        for j in range(1, self.n + 2):
            acc = self.ring.zero()
            for i, gen in enumerate(gens[:j], 1):
                acc = acc + gen * duals[j - i]
            duals.append(acc)
        return tuple(duals[self.n - self.k + 2:])

    def first_class(self) -> GradedSeries:
        """The degree-1 generator w1."""
        return self.ring.gen(self.ring.names[0])

    def first_class_height(self) -> int:
        """Largest t with w1^t nonzero, by Stong's theorem.

        See the module docstring.  Nothing is built or row-reduced.
        """
        size = self.n + 1
        k = min(self.k, size - self.k)
        if k == 1:
            return size - 1
        power = 1 << (size - 1).bit_length()
        if k == 2 or (k == 3 and size == power // 2 + 1):
            return power - 2
        return power - 1

    def quotient_basis(self, degree: int) -> tuple[tuple[int, ...], ...]:
        """Monomial basis of the degree-d piece of the quotient."""
        if degree > self.top_degree:
            return ()
        return self._data(degree).basis

    def total_dimension(self) -> int:
        """Sum of quotient dimensions over all degrees up to the top."""
        return sum(len(self.quotient_basis(d))
                   for d in range(self.top_degree + 1))

    def normal_form(self, element: GradedSeries) -> GradedSeries:
        """Canonical representative of `element` on the quotient basis.

        Linear over GF(2); a zero result is exact ideal membership.  Terms
        above the top degree are zero in the quotient and are dropped
        unreduced.
        """
        self.ring.require_same(element.ring)
        degree_of = self.ring.degree_of
        top = self.top_degree
        by_degree: dict[int, set[tuple[int, ...]]] = {}
        for exponents in element.terms:
            degree = degree_of(exponents)
            if degree <= top:
                by_degree.setdefault(degree, set()).add(exponents)
        reduced: set[tuple[int, ...]] = set()
        for degree, terms in by_degree.items():
            data = self._data(degree)
            monomials = data.monomials
            row = 0
            for j, mono in enumerate(monomials):
                if mono in terms:
                    row |= 1 << j
            row = _xor_pivots(data.pivots, row)
            while row:
                low = row & -row
                reduced.add(monomials[low.bit_length() - 1])
                row ^= low
        return GradedSeries(self.ring, frozenset(reduced))

    def height(self, element: GradedSeries) -> Union[int, float]:
        """Largest t with element^t nonzero in the quotient.

        Units (nonzero constant term) return math.inf.  The first power
        with a zero normal form is zero in the quotient, so the answer is
        the exponent before it.
        """
        self.ring.require_same(element.ring)
        if element.constant_coefficient():
            return math.inf
        power = element
        t = 0
        while not self.normal_form(power).is_zero():
            t += 1
            power = power * element
        return t

    def _data(self, degree: int) -> "_DegreeData":
        got = self._degree_data.get(degree)
        if got is None:
            got = self._degree_data[degree] = self._reduce_degree(degree)
        return got

    def _reduce_degree(self, degree: int) -> "_DegreeData":
        monomials = self.ring.monomials_of_degree(degree)
        index = {mono: i for i, mono in enumerate(monomials)}
        pivots: _BitPivots = {}
        # dual_j for j = n-k+2 .. n+1 in order, none zero (w1^j is a term).
        for rel_degree, relation in enumerate(self.relations,
                                              self.n - self.k + 2):
            if rel_degree > degree:
                break
            # A monomial times a polynomial merges no terms: each bit of
            # the row is a relation term with its exponents shifted.
            for mono in self.ring.monomials_of_degree(degree - rel_degree):
                row = 0
                for exponents in relation.terms:
                    row |= 1 << index[tuple(map(add, mono, exponents))]
                _rref_insert(pivots, row)
        pivot_cols = {lead.bit_length() - 1 for lead in pivots}
        basis = tuple(mono for i, mono in enumerate(monomials)
                      if i not in pivot_cols)
        return _DegreeData(tuple(monomials), pivots, basis)


class _DegreeData(Record):
    __slots__ = ("monomials", "pivots", "basis")


# Pivots map each lead bit (1 << column) to its row of column bits.
_BitPivots = dict[int, int]


def _xor_pivots(pivots: _BitPivots, row: int) -> int:
    """`row` with every pivot column cleared.

    Fully reduced pivots carry no other pivot's bit, so each pivot bit of
    the original row is cleared by exactly its own pivot, and the bits the
    XORs bring in all lie on non-pivot columns.
    """
    scan = row
    while scan:
        low = scan & -scan
        prow = pivots.get(low)
        if prow is not None:
            row ^= prow
        scan ^= low
    return row


def _rref_insert(pivots: _BitPivots, row: int) -> None:
    """Fold one row of column bits into fully reduced echelon state.

    The row is XORed with the pivots whose lead bit it carries, and its own
    lead, the lowest bit left, is then cleared from the earlier pivots.
    """
    row = _xor_pivots(pivots, row)
    if row:
        lead = row & -row
        for bit, prow in pivots.items():
            if prow & lead:
                pivots[bit] = prow ^ row
        pivots[lead] = row


@lru_cache(maxsize=256, typed=True)
def cached_presentation(k: int, n: int, /) -> GrassmannPresentation:
    """One shared presentation per (k, n), for the 256 most recent keys.

    The arguments are positional only, so each key has one spelling in the
    cache, and the cache is typed, so (True, 3) and (1.0, 3) miss the
    (1, 3) entry and reach the constructor's check.  The bound keeps a
    long-running process that answers many keys from holding every
    presentation it ever built.
    """
    return GrassmannPresentation(k, n)


def chern_height_of_first_class(k: int, n: int) -> int:
    """Exact height of c1 in rational H*(G_k(C^(n+1))): the box k(n+1-k).

    By Pieri's rule c1^t is the sum of f^lambda sigma_lambda over the
    partitions lambda of t in the k x (n+1-k) box, where f^lambda, the
    number of standard Young tableaux of shape lambda, is positive, and the
    Schubert cycles sigma_lambda are a basis (Fulton, Young Tableaux, 1997).
    So nothing cancels, and nothing is built.
    """
    _require_box(k, n)
    return k * (n + 1 - k)
