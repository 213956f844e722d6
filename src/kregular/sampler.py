"""Randomized full-rank checks for explicit regular maps.

Two example maps and their direct sums: the monomial curve z -> (1, z, ...,
z^(k-1)) on the plane, realified to 2k-1 coordinates, and the sphere embedding
x -> (1, x).  Every rank is exact.  Each point gives one integer column, its
map value times a positive integer, which leaves the rank unchanged; columns
are ranked by fraction-free Bareiss elimination, and a direct sum's rank is
the sum of its block ranks.

- Plane points are Gaussian rationals z = w/D, with D the lcm of the two
  denominators and w a Gaussian integer.  Scaled by D^(k-1), the column
  (1, z, ..., z^(k-1)) becomes (D^(k-1), D^(k-2) w, ..., w^(k-1)).
- Sphere points are rational points of S^m: the inverse stereographic images
  of t = a/d, with a in Z^m and d >= 1, projected from the north pole, which
  is therefore never drawn.  The column (1, x) times the lcm of the
  denominators of x (a divisor of |a|^2 + d^2) is an integer column
  proportional to (|a|^2 + d^2, 2ad, |a|^2 - d^2).

Sampling is reproducible: trial i draws from random.Random(seed * 1000003
+ i), so verdicts and witnesses are independent of trial order and identical
across runs.  The points of a part are pairwise distinct, compared exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence, Union

_SEED_STRIDE = 1_000_003
_MAX_WITNESSES = 3

Gaussian = tuple[Fraction, Fraction]


@dataclass(frozen=True)
class VandermondeMap:
    """z -> (1, z, ..., z^(k-1)) on the plane, realified; k-regular."""

    k: int

    def __post_init__(self):
        if not isinstance(self.k, int) or self.k < 2:
            raise ValueError(f"need an integer k >= 2, got {self.k!r}")


@dataclass(frozen=True)
class SphereOneI:
    """x -> (1, x) on S^m; 3-regular (a line meets a sphere twice)."""

    m: int

    def __post_init__(self):
        if not isinstance(self.m, int) or self.m < 2:
            raise ValueError(f"need an integer m >= 2, got {self.m!r}")


@dataclass(frozen=True)
class DirectSum:
    """Block direct sum of maps on the disjoint union of their domains."""

    parts: tuple

    def __post_init__(self):
        parts = tuple(self.parts)
        if not parts:
            raise ValueError("empty direct sum")
        for part in parts:
            if not isinstance(part, (VandermondeMap, SphereOneI)):
                raise ValueError(f"not a summable map: {part!r}")
        object.__setattr__(self, "parts", parts)


ExampleMap = Union[VandermondeMap, SphereOneI, DirectSum]


def map_parts(example: ExampleMap) -> tuple:
    return example.parts if isinstance(example, DirectSum) else (example,)


def _part_dim(part: Union[VandermondeMap, SphereOneI]) -> int:
    return 2 * part.k - 1 if isinstance(part, VandermondeMap) else part.m + 2


def ambient_dim(example: ExampleMap) -> int:
    return sum(_part_dim(part) for part in map_parts(example))


def claimed_regularity(example: ExampleMap) -> tuple[int, ...]:
    """Per-part point counts the map is asserted to handle."""
    return tuple(part.k if isinstance(part, VandermondeMap) else 3
                 for part in map_parts(example))


def render_map(example: ExampleMap) -> str:
    return "+".join(
        f"vandermonde:{part.k}" if isinstance(part, VandermondeMap)
        else f"sphere:{part.m}" for part in map_parts(example))


def parse_map(text: str) -> ExampleMap:
    """Inverse of render_map: 'vandermonde:3+sphere:4' and the like."""
    parts: list[Union[VandermondeMap, SphereOneI]] = []
    for chunk in text.split("+"):
        chunk = chunk.strip()
        family, sep, number = chunk.partition(":")
        if not sep or not number.isdigit():
            raise ValueError(f"bad map piece {chunk!r}; want vandermonde:K "
                             "or sphere:M")
        if family == "vandermonde":
            parts.append(VandermondeMap(int(number)))
        elif family == "sphere":
            parts.append(SphereOneI(int(number)))
        else:
            raise ValueError(f"unknown map family {family!r}")
    return parts[0] if len(parts) == 1 else DirectSum(tuple(parts))


# ---------------------------------------------------------------------------
# Exact points, integer columns and rank.

def _gm_mul(a: Gaussian, b: Gaussian) -> Gaussian:
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _gm_sub(a: Gaussian, b: Gaussian) -> Gaussian:
    return (a[0] - b[0], a[1] - b[1])


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


def as_sphere_point(value, m: int) -> tuple[Fraction, ...]:
    """Coerce m+1 ints or Fractions of squared norm exactly 1 to a point."""
    if not (isinstance(value, (tuple, list)) and len(value) == m + 1
            and all(_is_exact(c) for c in value)):
        raise ValueError(f"not an exact point of S^{m}: {value!r}")
    point = tuple(Fraction(c) for c in value)
    if sum(c * c for c in point) != 1:
        raise ValueError(f"{value!r} is not on S^{m}")
    return point


def integer_rank_bareiss(rows: list[list[int]]) -> int:
    """Rank of an integer matrix by fraction-free elimination.

    Every row below the pivot gets the full Sylvester update (including the
    multiply-through when its pivot-column entry is zero); the exact
    divisions by the previous pivot rely on that.
    """
    mat = [row[:] for row in rows]
    if not mat:
        return 0
    ncols = len(mat[0])
    rank = 0
    prev = 1
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        row_r = mat[rank]
        lead = row_r[col]
        for i in range(rank + 1, len(mat)):
            row_i = mat[i]
            entry = row_i[col]
            for j in range(col + 1, ncols):
                row_i[j] = (row_i[j] * lead - entry * row_r[j]) // prev
            row_i[col] = 0
        prev = lead
        rank += 1
    return rank


def rational_rank(rows: Sequence[Sequence[Fraction]]) -> int:
    """Rank over QQ: clear denominators row by row, then Bareiss."""
    cleared = []
    for row in rows:
        denom = lcm(*(f.denominator for f in row)) if row else 1
        cleared.append([int(f * denom) for f in row])
    return integer_rank_bareiss(cleared)


def vandermonde_columns(points: Sequence, k: int) -> list[list[Fraction]]:
    """Unscaled realified evaluation matrix, (2k-1) rows by len(points).

    The tests rank it independently as a reference for the integer columns.
    """
    pts = [as_gaussian(p) for p in points]
    rows: list[list[Fraction]] = [[Fraction(1)] * len(pts)]
    powers = [(Fraction(1), Fraction(0))] * len(pts)
    for _ in range(1, k):
        powers = [_gm_mul(p, z) for p, z in zip(powers, pts)]
        rows.append([p[0] for p in powers])
        rows.append([p[1] for p in powers])
    return rows


def vandermonde_integer_column(z: Gaussian, k: int) -> list[int]:
    """(1, z, ..., z^(k-1)) realified, times D^(k-1) for z = w/D."""
    re, im = z
    d = lcm(re.denominator, im.denominator)
    wr = re.numerator * (d // re.denominator)
    wi = im.numerator * (d // im.denominator)
    column = [d ** (k - 1)]
    power_re, power_im = 1, 0
    for j in range(k - 2, -1, -1):
        power_re, power_im = (power_re * wr - power_im * wi,
                              power_re * wi + power_im * wr)
        scale = d ** j
        column += (power_re * scale, power_im * scale)
    return column


def sphere_integer_column(x: Sequence[Fraction]) -> list[int]:
    """(1, x) times the lcm of the denominators of x."""
    d = lcm(*(c.denominator for c in x))
    return [d] + [c.numerator * (d // c.denominator) for c in x]


def _direct_sum_rank(parts, points_per_part) -> int:
    """Rank of the block-diagonal evaluation matrix: sum of block ranks."""
    total = 0
    for part, pts in zip(parts, points_per_part):
        if isinstance(part, VandermondeMap):
            columns = [vandermonde_integer_column(z, part.k) for z in pts]
        else:
            columns = [sphere_integer_column(x) for x in pts]
        total += integer_rank_bareiss(columns)
    return total


def vandermonde_rank_exact(points: Sequence, k: int) -> int:
    """Exact rank of the realified monomial matrix at the given points.

    For t <= k pairwise distinct points the rank is t: extending to k
    distinct points gives a square complex Vandermonde matrix with nonzero
    determinant, and complex independence implies real independence.
    """
    if not isinstance(k, int) or k < 2:
        raise ValueError(f"need an integer k >= 2, got {k!r}")
    pts = [as_gaussian(p) for p in points]
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if pts[i] == pts[j]:
                raise ValueError(f"points {i} and {j} coincide")
    return integer_rank_bareiss([vandermonde_integer_column(z, k)
                                 for z in pts])


def vandermonde_determinant(points: Sequence) -> Gaussian:
    """Product of pairwise differences; nonzero iff points are distinct."""
    pts = [as_gaussian(p) for p in points]
    det: Gaussian = (Fraction(1), Fraction(0))
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            det = _gm_mul(det, _gm_sub(pts[j], pts[i]))
    return det


# ---------------------------------------------------------------------------
# Sampling.

def _sample_plane_points(rng: random.Random, count: int) -> list[Gaussian]:
    points: list[Gaussian] = []
    while len(points) < count:
        z = (Fraction(rng.randint(-64, 64), rng.randint(1, 8)),
             Fraction(rng.randint(-64, 64), rng.randint(1, 8)))
        if z not in points:
            points.append(z)
    return points


def _sample_sphere_points(rng: random.Random, m: int,
                          count: int) -> list[tuple[Fraction, ...]]:
    # Inverse stereographic images of t = a/d (see the module docstring).
    points: list[tuple[Fraction, ...]] = []
    while len(points) < count:
        d = rng.randint(1, 8)
        a = [rng.randint(-8, 8) for _ in range(m)]
        norm = sum(v * v for v in a)
        scale = norm + d * d
        x = tuple(Fraction(2 * v * d, scale) for v in a) \
            + (Fraction(norm - d * d, scale),)
        if x not in points:
            points.append(x)
    return points


@dataclass(frozen=True)
class Witness:
    """A failing trial: its index and the sampled points per part."""

    trial: int
    points: tuple


@dataclass(frozen=True)
class RegularityReport:
    example: ExampleMap
    tuple_sizes: tuple[int, ...]
    trials: int
    seed: int
    violations: int
    witnesses: tuple
    verdict: str
    expected_violation: bool


def evaluate_rank(example: ExampleMap, points_per_part: Sequence
                  ) -> tuple[int, int]:
    """(rank, requested rank) for explicit point tuples; re-checks witnesses.

    Plane points are ints, Fractions or (re, im) pairs of them; a point of
    S^m is m+1 ints or Fractions with squared norm exactly 1.  Anything else,
    floats included, raises ValueError.
    """
    parts = map_parts(example)
    if len(points_per_part) != len(parts):
        raise ValueError(f"need point tuples for {len(parts)} parts")
    exact = [[as_gaussian(p) if isinstance(part, VandermondeMap)
              else as_sphere_point(p, part.m) for p in pts]
             for part, pts in zip(parts, points_per_part)]
    return _direct_sum_rank(parts, exact), sum(len(pts) for pts in exact)


def sample_check_regular(example: ExampleMap,
                         tuple_sizes: Union[int, Sequence[int], None] = None,
                         trials: int = 1000,
                         seed: int = 0) -> RegularityReport:
    """Seeded random full-rank verification; never hides a failure.

    tuple_sizes defaults to the claimed regularity (one entry per part).
    A rank below the requested total is counted as a violation and up to
    three witnesses are kept, re-checkable with evaluate_rank.  Sizes above
    the claimed regularity are allowed.  expected_violation is set only when
    some part's tuple size exceeds that part's ambient dimension (2k-1 for
    vandermonde:k, m+2 for sphere:m): its columns are then dependent, so
    every trial must violate.  Between the claim and the dimension a
    violation is possible but not certain.
    """
    parts = map_parts(example)
    if tuple_sizes is None:
        sizes = claimed_regularity(example)
    elif isinstance(tuple_sizes, int):
        if len(parts) != 1:
            raise ValueError("per-part tuple sizes required for direct sums")
        sizes = (tuple_sizes,)
    else:
        sizes = tuple(tuple_sizes)
    if len(sizes) != len(parts):
        raise ValueError(f"need {len(parts)} tuple sizes, got {len(sizes)}")
    for size in sizes:
        if not isinstance(size, int) or size < 1:
            raise ValueError(f"tuple sizes must be positive, got {size!r}")
    if not isinstance(trials, int) or trials < 1:
        raise ValueError("trials must be a positive integer")

    wanted = sum(sizes)
    violations = 0
    witnesses: list[Witness] = []
    for trial in range(trials):
        rng = random.Random(seed * _SEED_STRIDE + trial)
        points_per_part = tuple(
            tuple(_sample_plane_points(rng, size))
            if isinstance(part, VandermondeMap)
            else tuple(_sample_sphere_points(rng, part.m, size))
            for part, size in zip(parts, sizes))
        if _direct_sum_rank(parts, points_per_part) < wanted:
            violations += 1
            if len(witnesses) < _MAX_WITNESSES:
                witnesses.append(Witness(trial, points_per_part))
    return RegularityReport(
        example=example,
        tuple_sizes=sizes,
        trials=trials,
        seed=seed,
        violations=violations,
        witnesses=tuple(witnesses),
        verdict="counterexample" if violations else "no-violation-found",
        expected_violation=any(size > _part_dim(part)
                               for part, size in zip(parts, sizes)),
    )
