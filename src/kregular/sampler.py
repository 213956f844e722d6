"""Randomized full-rank checks for explicit regular maps.

Two map families and their direct sums: `VandermondeMap`, the monomial curve
on the plane, and `SphereOneI`, the sphere embedding x -> (1, x).  A family
class holds all that differs by family: its ambient dimension, claimed point
count, name and grid of sample points; how one point is drawn and keyed; the
integer column of a drawn or a given point; and how a witness point reads as
text.  The rest of this module reads those, and `parse_map` finds a family by
name in `_FAMILIES`.  Every rank is exact.  Each point gives one integer
column, its map value times a positive integer, which leaves the rank
unchanged, and a direct sum's rank is the sum of its block ranks.  A block's
t columns are ranked as a t-row integer matrix, one row per point, by
fraction-free Bareiss elimination taken one coordinate at a time; it stops
as soon as every point's row holds a pivot, so a full-rank trial never
touches the coordinates past its last pivot (t = k points against 2k-1
coordinates for `vandermonde:k`, 3 against m+2 for `sphere:m`).

Sampling is reproducible: trial i draws from random.Random(seed * 1000003
+ i), so verdicts and witnesses are independent of trial order and identical
across runs.  Numerators and denominators are drawn as ints, off exactly the
bits that random.randint would consume, and columns are built from those
ints; only the points of a kept witness become Fractions.  The points of a
part are pairwise distinct, compared on an exact integer key: every
denominator divides 840, so a * 840 // b is equal for two draws exactly when
a/b is.  The draws of a part range over a finite grid, and a tuple size above
its part's grid raises ValueError.
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
    """z -> (1, z, ..., z^(k-1)) on the plane, realified; k-regular.

    Points are Gaussian rationals z = a/b + i c/e with a, c in [-64, 64] and
    b, e in [1, 8], drawn as (a, b, c, e): 663^2 = 439,569 distinct points,
    keyed by (a * 840 // b, c * 840 // e).  With D the lcm of the two
    denominators in lowest terms and z = w/D, the column (1, z, ...,
    z^(k-1)) scaled by D^(k-1) becomes (D^(k-1), D^(k-2) w, ..., w^(k-1)).
    """

    k: int
    name = "vandermonde"

    def __post_init__(self):
        if not isinstance(self.k, int) or self.k < 2:
            raise ValueError(f"need an integer k >= 2, got {self.k!r}")

    def __str__(self) -> str:
        return f"{self.name}:{self.k}"

    @property
    def dim(self) -> int:
        return 2 * self.k - 1

    @property
    def claimed(self) -> int:
        return self.k

    @property
    def grid_size(self) -> int:
        return _grid_size(_PLANE_BOUND, 1) ** 2

    @staticmethod
    def draw(bits) -> tuple[int, int, int, int]:
        return (_uniform(bits, -_PLANE_BOUND, _PLANE_BOUND),
                _uniform(bits, 1, _MAX_DEN),
                _uniform(bits, -_PLANE_BOUND, _PLANE_BOUND),
                _uniform(bits, 1, _MAX_DEN))

    @staticmethod
    def key(draw: tuple[int, int, int, int]) -> tuple[int, int]:
        a, b, c, e = draw
        return (a * _KEY_SCALE // b, c * _KEY_SCALE // e)

    def column(self, draw: tuple[int, int, int, int]) -> list[int]:
        a, b, c, e = draw
        g = gcd(a, b)
        a, b = a // g, b // g
        g = gcd(c, e)
        c, e = c // g, e // g
        d = lcm(b, e)
        wr, wi = a * (d // b), c * (d // e)
        column = [d ** (self.k - 1)]
        power_re, power_im = 1, 0
        for j in range(self.k - 2, -1, -1):
            power_re, power_im = (power_re * wr - power_im * wi,
                                  power_re * wi + power_im * wr)
            scale = d ** j
            column += (power_re * scale, power_im * scale)
        return column

    @staticmethod
    def point(draw: tuple[int, int, int, int]) -> Gaussian:
        a, b, c, e = draw
        return (Fraction(a, b), Fraction(c, e))

    def point_column(self, value) -> list[int]:
        """The column of an int, Fraction or (re, im) pair of them."""
        re, im = as_gaussian(value)
        return self.column((re.numerator, re.denominator,
                            im.numerator, im.denominator))

    @staticmethod
    def render_point(point: Sequence[str]) -> str:
        return f"({point[0]}) + ({point[1]})*i"


@dataclass(frozen=True)
class SphereOneI:
    """x -> (1, x) on S^m; 3-regular (a line meets a sphere twice).

    Points are rational points of S^m: the inverse stereographic images of
    t = a/d, with a in [-8, 8]^m and d in [1, 8], projected from the north
    pole, which is therefore never drawn.  A draw (a, d) is keyed by
    a * 840 // d (stereographic projection is injective): 1929 distinct
    points of S^2, 36,111 of S^3, and so on.  Its column is (|a|^2 + d^2,
    2ad, |a|^2 - d^2), that is (1, x) times |a|^2 + d^2.  A point given as
    Fractions, as `evaluate_rank` takes them, gets (1, x) times the lcm of
    its denominators instead.
    """

    m: int
    name = "sphere"
    claimed = 3

    def __post_init__(self):
        if not isinstance(self.m, int) or self.m < 2:
            raise ValueError(f"need an integer m >= 2, got {self.m!r}")

    def __str__(self) -> str:
        return f"{self.name}:{self.m}"

    @property
    def dim(self) -> int:
        return self.m + 2

    @property
    def grid_size(self) -> int:
        return _grid_size(_SPHERE_BOUND, self.m)

    def draw(self, bits) -> tuple[tuple[int, ...], int]:
        d = _uniform(bits, 1, _MAX_DEN)
        return (tuple([_uniform(bits, -_SPHERE_BOUND, _SPHERE_BOUND)
                       for _ in range(self.m)]), d)

    @staticmethod
    def key(draw: tuple[tuple[int, ...], int]) -> tuple[int, ...]:
        a, d = draw
        return tuple([v * _KEY_SCALE // d for v in a])

    @staticmethod
    def column(draw: tuple[tuple[int, ...], int]) -> list[int]:
        a, d = draw
        norm = sum(v * v for v in a)
        return [norm + d * d, *(2 * v * d for v in a), norm - d * d]

    def point(self, draw: tuple[tuple[int, ...], int]
              ) -> tuple[Fraction, ...]:
        scale, *coordinates = self.column(draw)
        return tuple(Fraction(c, scale) for c in coordinates)

    def point_column(self, value) -> list[int]:
        """The column of m+1 ints or Fractions of squared norm exactly 1."""
        m = self.m
        if not (isinstance(value, (tuple, list)) and len(value) == m + 1
                and all(_is_exact(c) for c in value)):
            raise ValueError(f"not an exact point of S^{m}: {value!r}")
        x = tuple(Fraction(c) for c in value)
        if sum(c * c for c in x) != 1:
            raise ValueError(f"{value!r} is not on S^{m}")
        d = lcm(*(c.denominator for c in x))
        return [d] + [c.numerator * (d // c.denominator) for c in x]

    @staticmethod
    def render_point(point: Sequence[str]) -> str:
        return "(" + ", ".join(point) + ")"


_FAMILIES = {family.name: family for family in (VandermondeMap, SphereOneI)}


@dataclass(frozen=True)
class DirectSum:
    """Block direct sum of maps on the disjoint union of their domains."""

    parts: tuple

    def __post_init__(self):
        parts = tuple(self.parts)
        if not parts:
            raise ValueError("empty direct sum")
        for part in parts:
            if not isinstance(part, tuple(_FAMILIES.values())):
                raise ValueError(f"not a summable map: {part!r}")
        object.__setattr__(self, "parts", parts)


ExampleMap = Union[VandermondeMap, SphereOneI, DirectSum]


def map_parts(example: ExampleMap) -> tuple:
    return example.parts if isinstance(example, DirectSum) else (example,)


def ambient_dim(example: ExampleMap) -> int:
    return sum(part.dim for part in map_parts(example))


def claimed_regularity(example: ExampleMap) -> tuple[int, ...]:
    """Per-part point counts the map is asserted to handle."""
    return tuple(part.claimed for part in map_parts(example))


def render_map(example: ExampleMap) -> str:
    return "+".join(map(str, map_parts(example)))


def parse_map(text: str) -> ExampleMap:
    """Inverse of render_map: 'vandermonde:3+sphere:4' and the like."""
    parts = []
    for chunk in text.split("+"):
        chunk = chunk.strip()
        family, sep, number = chunk.partition(":")
        # ASCII only: isdigit() also takes superscripts and other scripts.
        if not sep or not (number.isascii() and number.isdigit()):
            raise ValueError(f"bad map piece {chunk!r}; want vandermonde:K "
                             "or sphere:M")
        if family not in _FAMILIES:
            raise ValueError(f"unknown map family {family!r}")
        parts.append(_FAMILIES[family](int(number)))
    return parts[0] if len(parts) == 1 else DirectSum(tuple(parts))


# ---------------------------------------------------------------------------
# Exact points and rank.

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


def integer_rank_bareiss(rows: Sequence[Sequence[int]]) -> int:
    """Rank of an integer matrix by fraction-free elimination, by columns.

    Left-looking Bareiss: each column in turn is brought up to date by
    replaying the recorded pivot steps (the row swap, then x -> (x * lead -
    entry * top) // prev on every row below the pivot, with entry the pivot
    column's value in that row and top this column's value in the pivot
    row), and then searched for a pivot.  Every row below gets the full
    Sylvester update, also when its pivot-column entry is zero, so each
    division by the previous pivot is exact and every entry equals the one
    right-looking elimination computes.  Elimination stops once every row
    holds a pivot: later columns are never read.  The rows are not changed.
    """
    height = len(rows)
    # Per pivot: the row swapped into its place, its lead, and its column.
    steps: list[tuple[int, int, list[int]]] = []
    for column in zip(*rows):
        col = list(column)
        prev = 1
        rank = 0
        for swap, lead, entries in steps:
            col[rank], col[swap] = col[swap], col[rank]
            top = col[rank]
            rank += 1
            for i in range(rank, height):
                col[i] = (col[i] * lead - entries[i] * top) // prev
            prev = lead
        for pivot in range(rank, height):
            if col[pivot]:
                break
        else:
            continue
        col[rank], col[pivot] = col[pivot], col[rank]
        steps.append((pivot, col[rank], col))
        if rank + 1 == height:
            break
    return len(steps)


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


def _draw(bits, part, count: int) -> list:
    """count draws of part whose points are pairwise distinct."""
    draws = []
    seen = set()
    while len(draws) < count:
        drawn = part.draw(bits)
        key = part.key(drawn)
        if key not in seen:
            seen.add(key)
            draws.append(drawn)
    return draws


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
    rank = sum(integer_rank_bareiss([part.point_column(p) for p in pts])
               for part, pts in zip(parts, points_per_part))
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
    some part's tuple size exceeds that part's ambient dimension, its `dim`:
    its columns are then dependent, so every trial must violate.  Between
    the claim and the dimension a violation is possible but not certain.  A
    size above the number of distinct points its part can draw raises
    ValueError.
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
        if size > part.grid_size:
            raise ValueError(f"tuple size {size} exceeds the "
                             f"{part.grid_size} distinct sample points of "
                             f"{part}")
    if not isinstance(trials, int) or trials < 1:
        raise ValueError("trials must be a positive integer")

    wanted = sum(sizes)
    violations = 0
    witnesses: list[Witness] = []
    for trial in range(trials):
        bits = random.Random(seed * _SEED_STRIDE + trial).getrandbits
        draws = [_draw(bits, part, size) for part, size in zip(parts, sizes)]
        rank = sum(integer_rank_bareiss([part.column(d) for d in part_draws])
                   for part, part_draws in zip(parts, draws))
        if rank < wanted:
            violations += 1
            if len(witnesses) < _MAX_WITNESSES:
                witnesses.append(Witness(trial, tuple(
                    tuple(part.point(d) for d in part_draws)
                    for part, part_draws in zip(parts, draws))))
    return RegularityReport(
        example=example,
        tuple_sizes=sizes,
        trials=trials,
        seed=seed,
        violations=violations,
        witnesses=tuple(witnesses),
        verdict="counterexample" if violations else "no-violation-found",
        expected_violation=any(size > part.dim
                               for part, size in zip(parts, sizes)),
    )
