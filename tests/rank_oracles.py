"""Reference ranks that the tests compare the package's answers against.

Nothing in the package calls these: each is an independent way to the rank
or the regularity of a point tuple, or to a Chern height, kept beside the
tests that use it.
"""

from fractions import Fraction
from math import lcm
from operator import add
from typing import Sequence

from kregular.sampler import (Gaussian, VandermondeMap, as_gaussian,
                              integer_rank_bareiss)


def gauss_rank_oracle(rows):
    # Plain fraction Gaussian elimination, independent of the Bareiss path.
    mat = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    for col in range(len(mat[0]) if mat else 0):
        pivot = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        lead = mat[rank][col]
        for i in range(len(mat)):
            if i != rank and mat[i][col]:
                factor = mat[i][col] / lead
                mat[i] = [a - factor * b for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def _gm_mul(a: Gaussian, b: Gaussian) -> Gaussian:
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _gm_sub(a: Gaussian, b: Gaussian) -> Gaussian:
    return (a[0] - b[0], a[1] - b[1])


def rational_rank(rows: Sequence[Sequence[Fraction]]) -> int:
    """Rank over QQ: clear denominators row by row, then Bareiss."""
    cleared = []
    for row in rows:
        denom = lcm(*(f.denominator for f in row)) if row else 1
        cleared.append([int(f * denom) for f in row])
    return integer_rank_bareiss(cleared)


def chern_relations(k: int, n: int) -> tuple[dict, ...]:
    """Relations of H*(G_k(C^(n+1)); QQ) on c_1 .. c_k (|c_i| = 2i).

    Each relation is an {exponents: int} dict.  The degree-2j part dual_j
    of the inverse of 1 + c_1 + ... + c_k has dual_0 = 1 and
    dual_j = -(c_1 dual_(j-1) + ... + c_k dual_(j-k)), and the relations
    are dual_j for j = n-k+2 .. n+1.
    """
    duals = [{(0,) * k: 1}]
    for j in range(1, n + 2):
        acc: dict = {}
        for i in range(1, min(j, k) + 1):
            for exponents, coeff in duals[j - i].items():
                shifted = exponents[:i - 1] + (exponents[i - 1] + 1,) \
                    + exponents[i:]
                acc[shifted] = acc.get(shifted, 0) - coeff
        duals.append({e: c for e, c in acc.items() if c})
    return tuple(duals[n - k + 2:])


def _chern_monomials(k: int, weight: int, first: int = 1) -> list:
    """Exponent vectors on c_first .. c_k whose sum of i * e_i is weight."""
    if first > k:
        return [()] if weight == 0 else []
    return [(e,) + rest for e in range(weight // first + 1)
            for rest in _chern_monomials(k, weight - e * first, first + 1)]


def chern_height_by_rank(k: int, n: int) -> int:
    """Largest t with c1^t nonzero in H*(G_k(C^(n+1)); QQ), by rank.

    c1^t is one monomial of degree 2t, and it is zero in the quotient
    exactly when its row lies in the span of the rows of the relations'
    monomial multiples in that degree, so its rank adds nothing to theirs.
    Degrees are counted in halves here: c_i and the relation dual_j weigh
    i and j.
    """
    relations = chern_relations(k, n)
    t = 0
    while True:
        columns = {mono: i for i, mono in enumerate(_chern_monomials(k, t))}
        rows = []
        for j, rel in enumerate(relations, n - k + 2):
            if j > t:
                break
            for mono in _chern_monomials(k, t - j):
                row = [0] * len(columns)
                for exponents, coeff in rel.items():
                    row[columns[tuple(map(add, mono, exponents))]] = coeff
                rows.append(row)
        power = [0] * len(columns)
        power[columns[(t,) + (0,) * (k - 1)]] = 1
        if integer_rank_bareiss(rows + [power]) == integer_rank_bareiss(rows):
            return t - 1
        t += 1


def vandermonde_columns(points: Sequence, k: int) -> list[list[Fraction]]:
    """Unscaled realified evaluation matrix, (2k-1) rows by len(points).

    Ranked independently, it is a reference for the integer columns.
    """
    pts = [as_gaussian(p) for p in points]
    rows: list[list[Fraction]] = [[Fraction(1)] * len(pts)]
    powers = [(Fraction(1), Fraction(0))] * len(pts)
    for _ in range(1, k):
        powers = [_gm_mul(p, z) for p, z in zip(powers, pts)]
        rows.append([p[0] for p in powers])
        rows.append([p[1] for p in powers])
    return rows


def vandermonde_rank_exact(points: Sequence, k: int) -> int:
    """Exact rank of the realified monomial matrix at the given points.

    For t <= k pairwise distinct points the rank is t: extending to k
    distinct points gives a square complex Vandermonde matrix with nonzero
    determinant, and complex independence implies real independence.
    """
    part = VandermondeMap(k)
    pts = [as_gaussian(p) for p in points]
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if pts[i] == pts[j]:
                raise ValueError(f"points {i} and {j} coincide")
    return integer_rank_bareiss([part.point_column(z) for z in pts])


def vandermonde_determinant(points: Sequence) -> Gaussian:
    """Product of pairwise differences; nonzero iff points are distinct."""
    pts = [as_gaussian(p) for p in points]
    det: Gaussian = (Fraction(1), Fraction(0))
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            det = _gm_mul(det, _gm_sub(pts[j], pts[i]))
    return det
