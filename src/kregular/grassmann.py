"""Cohomology presentations of Grassmannians as truncated quotient rings.

H*(G_k(F^(n+1))) is presented as a polynomial ring on the universal classes
of the tautological k-plane bundle, modulo the ideal generated by the
homogeneous parts of the inverted total class in degrees n-k+2 .. n+1.  Two
flavors: Stiefel-Whitney generators over GF(2) (|w_i| = i) and Chern
generators (|c_i| = 2i) over the rationals (the integral cohomology is
torsion-free, so rational row reduction certifies integral (non)vanishing).
Mod 2, c_i reduces to w_i: H*(G_k(C^(n+1)); GF(2)) is the Stiefel-Whitney
presentation of G_k(R^(n+1)) on the same exponent vectors, degrees doubled.

Normal forms come from per-degree reduced row echelon data: the ideal's
degree-d slice is spanned by monomial multiples of the homogeneous
generators, columns are monomials in descending lexicographic order within
the degree, and the quotient basis is the non-pivot columns.  A normal form
is a plain GradedSeries of the presentation's ring whose terms all lie on
the quotient basis.  All reduction is exact (Fraction or GF(2)); nothing is
floated.

Pivot rows are kept fully reduced (back-substituted).  Fully reduced, a
row's entries in the other pivot columns are zero, so a normal form needs
one row operation per nonzero pivot coordinate of the element (c1^t is a
single monomial) instead of a cascade across pivots.  Over GF(2) (the
Stiefel-Whitney presentations) a row is one Python int with bit j for column
j, so its lead is the lowest set bit and a row operation is one XOR.  Over
QQ (the Chern presentations) a row is a dense list of Fractions, which keeps
a degree's rows in one compact block; rows keyed by monomial are faster to
reduce but cost markedly more memory.

The cohomology vanishes above top = scale*k(n+1-k): in degree d its
dimension is the number of partitions of d/scale that fit in a
k x (n+1-k) box (the Schubert basis), so degrees above the top are zero and
are never row-reduced.  The ring is cut at top + scale, which holds every
relation: the last one sits in degree scale*(n+1), and
scale*(n+1) <= top + scale is (k-1)(n-k) >= 0.

The height of the first class is answered in closed form, with no ring
arithmetic.  Over QQ it is the box size k(n+1-k): by Pieri's rule c1^t is
the sum of f^lambda sigma_lambda over the partitions lambda of t in the
k x (n+1-k) box, f^lambda (the number of standard Young tableaux of shape
lambda) is positive, and the Schubert classes are a basis (Fulton, Young
Tableaux, 1997).  Mod 2 it is Stong's theorem (R. E. Stong, "Cup products
in Grassmannians", Topology Appl. 13, 1982): with N = n+1,
k' = min(k, N-k) and 2^s < N <= 2^(s+1), the height of w1 is N-1 if
k' = 1, 2^(s+1)-2 if k' = 2 or if k' = 3 and N = 2^s+1, and 2^(s+1)-1
otherwise.  The relations are built on the first row reduction, so a
presentation that only answers the first-class height does no series
arithmetic.  `height(element)` row-reduces powers of any element and stays
the second method for the first class.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import add
from typing import Sequence, Union

from .fields import GF2, QQ
from .series import GradedSeries, SeriesRing

CHERN = "chern"
STIEFEL_WHITNEY = "sw"


class GrassmannPresentation:
    """Truncated presentation of H*(G_k(F^(n+1))) with normal-form data.

    k and n fix the Grassmannian (1 <= k <= n); `classes` picks Chern
    generators over QQ or Stiefel-Whitney generators over GF(2).  The ring
    is truncated one generator degree past the top cohomological degree,
    which holds every relation; every degree above the top is zero in the
    quotient.
    """

    def __init__(self, k: int, n: int, classes: str = CHERN):
        if not (isinstance(k, int) and isinstance(n, int) and 1 <= k <= n):
            raise ValueError(f"need integers 1 <= k <= n, got k={k}, n={n}")
        if classes == CHERN:
            scale, prefix, field = 2, "c", QQ
        elif classes == STIEFEL_WHITNEY:
            scale, prefix, field = 1, "w", GF2
        else:
            raise ValueError(f"unknown class family {classes!r}")
        top = scale * k * (n + 1 - k)
        self.k = k
        self.n = n
        self.classes = classes
        self.scale = scale
        self.top_degree = top
        self.ring = SeriesRing(
            field, [(f"{prefix}{i}", scale * i) for i in range(1, k + 1)],
            top + scale)
        self._degree_data: dict[int, _DegreeData] = {}

    @cached_property
    def relations(self) -> tuple[GradedSeries, ...]:
        """The homogeneous generators of the ideal, built on first use."""
        # dual_j, the degree-scale*j part of 1/(1 + x_1 + ... + x_k), from
        # dual_0 = 1 by dual_j = -(x_1 dual_(j-1) + ... + x_k dual_(j-k));
        # the relations are dual_j for j = n-k+2 .. n+1.
        gens = self.ring.gens()
        duals = [self.ring.one()]
        for j in range(1, self.n + 2):
            acc = self.ring.zero()
            for i, gen in enumerate(gens[:j], 1):
                acc = acc + gen * duals[j - i]
            duals.append(-acc)
        return tuple(duals[self.n - self.k + 2:])

    def first_class(self) -> GradedSeries:
        """The degree-`scale` generator (c1 or w1)."""
        return self.ring.gen(self.ring.names[0])

    def first_class_height(self) -> int:
        """Largest t with (c1 or w1)^t nonzero, in closed form.

        Chern: k(n+1-k), the box size.  Stiefel-Whitney: Stong's theorem
        (see the module docstring).  Nothing is built or row-reduced.
        """
        if self.classes == CHERN:
            return self.k * (self.n + 1 - self.k)
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

        Linear over the coefficient field; a zero result is exact ideal
        membership.  Terms above the top degree are zero in the quotient and
        are dropped unreduced.
        """
        self.ring.require_same(element.ring)
        degree_of = self.ring.degree_of
        top = self.top_degree
        by_degree: dict[int, dict[tuple[int, ...], object]] = {}
        for exponents, coeff in element.terms.items():
            degree = degree_of(exponents)
            if degree <= top:
                by_degree.setdefault(degree, {})[exponents] = coeff
        bits = self.classes == STIEFEL_WHITNEY
        reduced: dict[tuple[int, ...], object] = {}
        for degree, terms in by_degree.items():
            data = self._data(degree)
            monomials = data.monomials
            if bits:
                row = 0
                for j, mono in enumerate(monomials):
                    if mono in terms:
                        row |= 1 << j
                row = _xor_pivots(data.pivots, row)
                while row:
                    low = row & -row
                    reduced[monomials[low.bit_length() - 1]] = 1
                    row ^= low
                continue
            vec = [terms.get(mono, _ZERO) for mono in monomials]
            _eliminate(data.pivots, vec)
            for j in data.basis_columns:
                if vec[j]:
                    reduced[monomials[j]] = vec[j]
        return GradedSeries(self.ring, reduced)

    def height(self, element: GradedSeries) -> Union[int, float]:
        """Largest t with element^t nonzero in the quotient.

        Units (nonzero constant term) return math.inf.  The first power
        with a zero normal form is zero in the quotient, so the answer is
        the exponent before it.
        """
        self.ring.require_same(element.ring)
        if element.constant_coefficient() != self.ring.field.zero:
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
        bits = self.classes == STIEFEL_WHITNEY
        monomials = self.ring.monomials_of_degree(degree)
        index = {mono: i for i, mono in enumerate(monomials)}
        pivots: Union[_BitPivots, _ListPivots] = {} if bits else []
        for relation in self.relations:
            rel_degree = relation.top_degree()
            if rel_degree is None or rel_degree > degree:
                continue
            # A monomial times a polynomial merges no terms: each term of
            # the row is a relation term with its exponents shifted.
            for mono in self.ring.monomials_of_degree(degree - rel_degree):
                if bits:
                    row = 0
                    for exponents in relation.terms:
                        row |= 1 << index[tuple(map(add, mono, exponents))]
                else:
                    row = [_ZERO] * len(monomials)
                    for exponents, coeff in relation.terms.items():
                        row[index[tuple(map(add, mono, exponents))]] = coeff
                _rref_insert(pivots, row)
        if bits:
            pivot_cols = {lead.bit_length() - 1 for lead in pivots}
        else:
            pivot_cols = {col for col, _ in pivots}
            pivots = tuple(pivots)
        basis_columns = tuple(i for i in range(len(monomials))
                              if i not in pivot_cols)
        basis = tuple(monomials[i] for i in basis_columns)
        return _DegreeData(tuple(monomials), pivots, basis_columns, basis)


class _DegreeData:
    __slots__ = ("monomials", "pivots", "basis_columns", "basis")

    def __init__(self, monomials, pivots, basis_columns, basis):
        self.monomials = monomials
        self.pivots = pivots
        self.basis_columns = basis_columns
        self.basis = basis


# GF(2) pivots map each lead bit (1 << column) to its row of column bits;
# QQ pivots are (lead column, dense row of Fractions) pairs.
_BitPivots = dict[int, int]
_ListPivots = list[tuple[int, list[Fraction]]]
_ZERO = Fraction(0)


def _xor_pivots(pivots: _BitPivots, row: int) -> int:
    """`row` with every pivot column cleared (GF(2) bit rows).

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


def _eliminate(pivots: Sequence[tuple[int, list[Fraction]]],
               row: list[Fraction]) -> None:
    """Clear every pivot column of a QQ `row` in place (pivots normalized)."""
    for col, prow in pivots:
        c = row[col]
        if c:
            for j in range(col, len(row)):
                row[j] = row[j] - c * prow[j]


def _rref_insert(pivots: Union[_BitPivots, _ListPivots],
                 row: Union[int, list[Fraction]]) -> None:
    """Fold one row into reduced echelon state (pivots normalized to 1).

    An int row is a GF(2) row of column bits: it is XORed with the pivots
    whose lead bit it carries, and its own lead, the lowest bit left, is
    then cleared from the earlier pivots.  A list row is a QQ row.
    """
    if isinstance(row, int):
        row = _xor_pivots(pivots, row)
        if row:
            lead = row & -row
            for bit, prow in pivots.items():
                if prow & lead:
                    pivots[bit] = prow ^ row
            pivots[lead] = row
        return
    _eliminate(pivots, row)
    lead = next((j for j, v in enumerate(row) if v), None)
    if lead is None:
        return
    inv = 1 / row[lead]
    if inv != 1:
        for j in range(lead, len(row)):
            row[j] = inv * row[j]
    for col, prow in pivots:
        c = prow[lead]
        if c:
            for j in range(lead, len(row)):
                prow[j] = prow[j] - c * row[j]
    pivots.append((lead, row))


@lru_cache(maxsize=None)
def cached_presentation(k: int, n: int, classes: str,
                        /) -> GrassmannPresentation:
    """One shared presentation per (k, n, class family).

    The arguments are positional only, so each key has one spelling in the
    cache.
    """
    return GrassmannPresentation(k, n, classes)


def chern_height_of_first_class(k: int, n: int) -> int:
    """Exact height of c1 in H*(G_k(C^(n+1)); QQ): the box size k(n+1-k).

    `first_class_height`: by Pieri's rule every f^lambda is positive, so
    nothing cancels.
    """
    return cached_presentation(k, n, CHERN).first_class_height()

