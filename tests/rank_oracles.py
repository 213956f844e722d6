"""Reference ranks that the tests compare the package's answers against.

Nothing in the package calls these: each is an independent way to the rank
or the regularity of a point tuple, or to a Chern height, kept beside the
tests that use it.  The map columns here are the tests' own, built from
exact points as Fractions; the sampler builds its integer columns without
them.
"""

from fractions import Fraction
from math import lcm
from operator import add
from typing import Sequence

from kregular.sampler import VandermondeMap, integer_rank_bareiss, map_parts

Gaussian = tuple[Fraction, Fraction]


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


def _is_exact(value) -> bool:
    return isinstance(value, (int, Fraction))


def as_gaussian(value) -> Gaussian:
    """Coerce an int, Fraction, or (re, im) pair to a Gaussian rational."""
    if isinstance(value, tuple) and len(value) == 2 \
            and all(_is_exact(c) for c in value):
        return (Fraction(value[0]), Fraction(value[1]))
    if _is_exact(value):
        return (Fraction(value), Fraction(0))
    raise ValueError(f"not an exact plane point: {value!r}")


def plane_column(point, k: int) -> list[Fraction]:
    """(1, z, ..., z^(k-1)) realified, unscaled, for a plane point z."""
    z = as_gaussian(point)
    power = (Fraction(1), Fraction(0))
    column = [power[0]]
    for _ in range(1, k):
        power = _gm_mul(power, z)
        column += power
    return column


def sphere_column(point) -> list[Fraction]:
    """(1, x) for an exact point x of a sphere."""
    if not all(_is_exact(c) for c in point) \
            or sum(Fraction(c) ** 2 for c in point) != 1:
        raise ValueError(f"not an exact point of a sphere: {point!r}")
    return [Fraction(1)] + [Fraction(c) for c in point]


def part_columns(part, points: Sequence) -> list[list[Fraction]]:
    """The Fraction columns of one map part at the given points."""
    if isinstance(part, VandermondeMap):
        return [plane_column(z, part.k) for z in points]
    return [sphere_column(x) for x in points]


def witness_rank(example, points_per_part: Sequence) -> tuple[int, int]:
    """(rank, requested rank) of explicit point tuples, one per map part.

    Each part's Fraction columns are ranked by plain Gaussian elimination,
    so a reported witness is re-checked without the sampler's columns or
    its Bareiss rank.
    """
    parts = map_parts(example)
    if len(points_per_part) != len(parts):
        raise ValueError(f"need point tuples for {len(parts)} parts")
    rank = sum(gauss_rank_oracle(part_columns(part, points))
               for part, points in zip(parts, points_per_part))
    return rank, sum(len(points) for points in points_per_part)


def vandermonde_columns(points: Sequence, k: int) -> list[list[Fraction]]:
    """Unscaled realified evaluation matrix, (2k-1) rows by len(points).

    Ranked independently, it is a reference for the integer columns.
    """
    return [list(row) for row in zip(*(plane_column(z, k) for z in points))]


def vandermonde_rank_exact(points: Sequence, k: int) -> int:
    """Exact rank of the realified monomial matrix at the given points.

    For t <= k pairwise distinct points the rank is t: extending to k
    distinct points gives a square complex Vandermonde matrix with nonzero
    determinant, and complex independence implies real independence.
    """
    if k < 2:
        raise ValueError(f"need k >= 2, got {k!r}")
    pts = [as_gaussian(p) for p in points]
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if pts[i] == pts[j]:
                raise ValueError(f"points {i} and {j} coincide")
    return rational_rank([plane_column(z, k) for z in pts])


def vandermonde_determinant(points: Sequence) -> Gaussian:
    """Product of pairwise differences; nonzero iff points are distinct."""
    pts = [as_gaussian(p) for p in points]
    det: Gaussian = (Fraction(1), Fraction(0))
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            det = _gm_mul(det, _gm_sub(pts[j], pts[i]))
    return det
