"""Randomized full-rank checks for explicit regular maps.

Two example maps and their direct sums: the monomial curve z -> (1, z, ...,
z^(k-1)) on the plane, realified to 2k-1 coordinates, and the sphere embedding
x -> (1, x).  Every rank is exact.  Each point gives one integer column, its
map value times a positive integer, which leaves the rank unchanged; columns
are ranked by fraction-free Bareiss elimination, and a direct sum's rank is
the sum of its block ranks.

- Plane points are Gaussian rationals z = a/b + i c/e with a, c in [-64, 64]
  and b, e in [1, 8].  With D the lcm of the two denominators in lowest terms
  and z = w/D, the column (1, z, ..., z^(k-1)) scaled by D^(k-1) becomes
  (D^(k-1), D^(k-2) w, ..., w^(k-1)).
- Sphere points are rational points of S^m: the inverse stereographic images
  of t = a/d, with a in [-8, 8]^m and d in [1, 8], projected from the north
  pole, which is therefore never drawn.  A drawn point's column is
  (|a|^2 + d^2, 2ad, |a|^2 - d^2), that is (1, x) times |a|^2 + d^2.  A
  point given as Fractions, as `evaluate_rank` takes them, gets (1, x) times
  the lcm of its denominators instead.

Sampling is reproducible: trial i draws from random.Random(seed * 1000003
+ i), so verdicts and witnesses are independent of trial order and identical
across runs.  Numerators and denominators are drawn as ints, off exactly the
bits that random.randint would consume, and columns are built from those
ints; only the points of a kept witness become Fractions.  The points of a
part are pairwise distinct, compared on an exact integer key.  Every
denominator divides 840, so the key (a * 840 // b, c * 840 // e) of a plane
point, and a * 840 // d of a sphere point (stereographic projection is
injective), are equal exactly when the points are.  The draws of a part
range over a finite grid: 663^2 = 439,569 plane points, 1929 points of S^2,
36,111 of S^3, and so on.  A tuple size above its part's grid raises
ValueError.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence, Union

_SEED_STRIDE = 1_000_003
_MAX_WITNESSES = 3
# Drawn numerators lie in [-bound, bound] and denominators in [1, _MAX_DEN].
_PLANE_BOUND = 64
_SPHERE_BOUND = 8
_MAX_DEN = 8
# lcm(1, ..., _MAX_DEN), so a * _KEY_SCALE // b is exact for every drawn b.
_KEY_SCALE = 840
# The Moebius function mu(e) for 0 < e <= _MAX_DEN.
_MOBIUS = (0, 1, -1, -1, 0, -1, 1, -1, 0)

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


def _plane_column(a: int, b: int, c: int, e: int, k: int) -> list[int]:
    """(1, z, ..., z^(k-1)) realified for z = a/b + i c/e, times D^(k-1).

    D is the lcm of the two denominators in lowest terms.
    """
    g = gcd(a, b)
    a, b = a // g, b // g
    g = gcd(c, e)
    c, e = c // g, e // g
    d = lcm(b, e)
    wr, wi = a * (d // b), c * (d // e)
    column = [d ** (k - 1)]
    power_re, power_im = 1, 0
    for j in range(k - 2, -1, -1):
        power_re, power_im = (power_re * wr - power_im * wi,
                              power_re * wi + power_im * wr)
        scale = d ** j
        column += (power_re * scale, power_im * scale)
    return column


def vandermonde_integer_column(z: Gaussian, k: int) -> list[int]:
    """The plane column of z = (re, im), two Fractions."""
    re, im = z
    return _plane_column(re.numerator, re.denominator,
                         im.numerator, im.denominator, k)


def _sphere_column(a: Sequence[int], d: int) -> list[int]:
    """(1, x) times |a|^2 + d^2, x the inverse stereographic image of a/d."""
    norm = sum(v * v for v in a)
    return [norm + d * d, *(2 * v * d for v in a), norm - d * d]


def sphere_integer_column(x: Sequence[Fraction]) -> list[int]:
    """(1, x) times the lcm of the denominators of x."""
    d = lcm(*(c.denominator for c in x))
    return [d] + [c.numerator * (d // c.denominator) for c in x]


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

def _uniform(bits, low: int, high: int) -> int:
    """rng.randint(low, high) off the same bits: getrandbits with rejection."""
    n = high - low + 1
    width = n.bit_length()
    r = bits(width)
    while r >= n:
        r = bits(width)
    return low + r


def _grid_size(bound: int, m: int) -> int:
    """Number of distinct points a/d of Q^m, |a_i| <= bound, d <= _MAX_DEN.

    Each point is counted once, at its least common denominator d: Moebius
    inversion over the common divisors e of a and d keeps the a with
    gcd(a, d) = 1.
    """
    return sum(_MOBIUS[e] * (2 * (bound // e) + 1) ** m
               for d in range(1, _MAX_DEN + 1)
               for e in range(1, d + 1) if d % e == 0)


def _part_grid(part: Union[VandermondeMap, SphereOneI]) -> int:
    if isinstance(part, VandermondeMap):
        return _grid_size(_PLANE_BOUND, 1) ** 2
    return _grid_size(_SPHERE_BOUND, part.m)


def _plane_key(a: int, b: int, c: int, e: int) -> tuple[int, int]:
    """Equal for two draws exactly when a/b + i c/e is the same point."""
    return (a * _KEY_SCALE // b, c * _KEY_SCALE // e)


def _sphere_key(a: Sequence[int], d: int) -> tuple[int, ...]:
    """Equal for two draws exactly when a/d, and so the point, is the same."""
    return tuple([v * _KEY_SCALE // d for v in a])


def _draw_plane(bits, count: int) -> list[tuple[int, int, int, int]]:
    """count distinct plane points (a, b, c, e), z = a/b + i c/e."""
    draws: list[tuple[int, int, int, int]] = []
    seen = set()
    while len(draws) < count:
        a = _uniform(bits, -_PLANE_BOUND, _PLANE_BOUND)
        b = _uniform(bits, 1, _MAX_DEN)
        c = _uniform(bits, -_PLANE_BOUND, _PLANE_BOUND)
        e = _uniform(bits, 1, _MAX_DEN)
        key = _plane_key(a, b, c, e)
        if key not in seen:
            seen.add(key)
            draws.append((a, b, c, e))
    return draws


def _draw_sphere(bits, m: int,
                 count: int) -> list[tuple[tuple[int, ...], int]]:
    """count distinct points of S^m, each as (a, d) with t = a/d."""
    draws: list[tuple[tuple[int, ...], int]] = []
    seen = set()
    while len(draws) < count:
        d = _uniform(bits, 1, _MAX_DEN)
        a = tuple([_uniform(bits, -_SPHERE_BOUND, _SPHERE_BOUND)
                   for _ in range(m)])
        key = _sphere_key(a, d)
        if key not in seen:
            seen.add(key)
            draws.append((a, d))
    return draws


def _draw(bits, part: Union[VandermondeMap, SphereOneI], count: int) -> list:
    if isinstance(part, VandermondeMap):
        return _draw_plane(bits, count)
    return _draw_sphere(bits, part.m, count)


def _draw_columns(part: Union[VandermondeMap, SphereOneI],
                  draws: list) -> list[list[int]]:
    if isinstance(part, VandermondeMap):
        return [_plane_column(a, b, c, e, part.k) for a, b, c, e in draws]
    return [_sphere_column(a, d) for a, d in draws]


def _draw_points(part: Union[VandermondeMap, SphereOneI],
                 draws: list) -> tuple:
    """The drawn points as Fractions: (re, im) pairs, or points of S^m."""
    if isinstance(part, VandermondeMap):
        return tuple((Fraction(a, b), Fraction(c, e))
                     for a, b, c, e in draws)
    points = []
    for a, d in draws:
        norm = sum(v * v for v in a)
        scale = norm + d * d
        points.append(tuple(Fraction(2 * v * d, scale) for v in a)
                      + (Fraction(norm - d * d, scale),))
    return tuple(points)


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
    rank = 0
    for part, pts in zip(parts, points_per_part):
        if isinstance(part, VandermondeMap):
            columns = [vandermonde_integer_column(as_gaussian(p), part.k)
                       for p in pts]
        else:
            columns = [sphere_integer_column(as_sphere_point(p, part.m))
                       for p in pts]
        rank += integer_rank_bareiss(columns)
    return rank, sum(len(pts) for pts in points_per_part)


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
    violation is possible but not certain.  A size above the number of
    distinct points its part can draw raises ValueError.
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
    for part, size in zip(parts, sizes):
        if not isinstance(size, int) or size < 1:
            raise ValueError(f"tuple sizes must be positive, got {size!r}")
        grid = _part_grid(part)
        if size > grid:
            raise ValueError(f"tuple size {size} exceeds the {grid} distinct "
                             f"sample points of {render_map(part)}")
    if not isinstance(trials, int) or trials < 1:
        raise ValueError("trials must be a positive integer")

    wanted = sum(sizes)
    violations = 0
    witnesses: list[Witness] = []
    for trial in range(trials):
        bits = random.Random(seed * _SEED_STRIDE + trial).getrandbits
        draws = [_draw(bits, part, size) for part, size in zip(parts, sizes)]
        rank = sum(integer_rank_bareiss(_draw_columns(part, part_draws))
                   for part, part_draws in zip(parts, draws))
        if rank < wanted:
            violations += 1
            if len(witnesses) < _MAX_WITNESSES:
                witnesses.append(Witness(trial, tuple(
                    _draw_points(part, part_draws)
                    for part, part_draws in zip(parts, draws))))
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
