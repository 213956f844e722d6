"""Randomized full-rank checks for explicit regular maps.

Two map families and their direct sums: `VandermondeMap`, the monomial curve
on the plane, and `SphereOneI`, the sphere embedding x -> (1, x).  A family
class holds all that differs by family: its ambient dimension, claimed point
count, name and grid of sample points; `sample`, which draws a part's points
and returns their integer columns; and which entries of a column hold its
point's coordinates, over the column's first entry.  The rest of this module
reads those, and `parse_map` finds a family by name in `_FAMILIES`.  Every
verdict is exact, and a trial does only the work its verdict needs.  A
direct sum's columns are independent exactly when each part's are, so the
parts are checked one at a time and the first deficient part decides.  A
part whose tuple size exceeds its `dim` has dependent columns in every
trial, so the count decides: every trial violates, only the first three
trials are drawn, for the witnesses, and nothing is ranked.

Each point gives one integer column, its map value (or a prefix of it)
times a positive integer, which leaves the rank unchanged.  A part's t
columns are ranked as a t-row integer matrix, one row per point, by
fraction-free Bareiss elimination taken one coordinate at a time.  A sphere
column is the whole (1, x).  A plane column is a rescaled prefix, (1, z,
..., z^j) realified and scaled by D^j, with j >= 1 the fewest powers that
give at least t coordinates (at most k-1, the whole column).  A prefix has
rank no greater than the whole rows, so a full-rank prefix certifies the
trial; a deficient prefix shorter than `dim` is ranked again on the whole
columns of its points, which `whole_column` reads off the prefixes.  The
prefix holds the smallest powers, so its entries are about half as long as
the whole column's.

Sampling is reproducible: trial i draws from a generator seeded with seed *
1000003 + i, so verdicts and witnesses are independent of trial order and
identical across runs.  One random.Random, built with trial 0's seed (an
unseeded one would read OS entropy first), is reseeded for each later trial,
which gives the same stream as a new generator per trial.  The parts of a
trial draw one after another, each in one loop of its family's `sample`.
For every point the loop draws the numerators and denominators as ints, off
exactly the bits that random.randint would consume (getrandbits of the
range's bit length, drawn again while the value is out of range); it keys
the point, skips it if the part already holds that key, and builds the
column of a kept point from those ints.  The key is exact: every denominator
divides 840, so a * 840 // b is equal for two draws exactly when a/b is, and
the points of a part are pairwise distinct.  A kept witness holds the
integer columns its trial ranked: `point` reads one back as exact Fractions,
and `point_text` prints its coordinates as those Fractions print, from the
integers alone, so a run builds no Fraction.
The draws of a part range over a finite grid, and a tuple size above its
part's grid raises ValueError.
"""

from __future__ import annotations

import random
from math import gcd
from typing import Sequence, Union

from .record import Record

_SEED_STRIDE = 1_000_003
_MAX_WITNESSES = 3
# Drawn numerators lie in [-bound, bound] and denominators in [1, _MAX_DEN].
_PLANE_BOUND = 64
_SPHERE_BOUND = 8
_MAX_DEN = 8
# The least common multiple of 1.._MAX_DEN: a * _KEY_SCALE // b is exact.
_KEY_SCALE = 840
# The Moebius function mu(e) for 0 < e <= _MAX_DEN.
_MOBIUS = (0, 1, -1, -1, 0, -1, 1, -1, 0)


class _Family(Record):
    """A map family's reading of its columns.  A point's coordinates are
    the entries `_coordinates` of its column over the column's first entry,
    which is positive."""

    __slots__ = ()

    @classmethod
    def point(cls, column: Sequence[int]) -> tuple:
        """The exact point whose column this is, as Fractions."""
        from fractions import Fraction
        scale = column[0]
        return tuple([Fraction(c, scale) for c in column[cls._coordinates]])

    @classmethod
    def point_text(cls, column: Sequence[int]) -> tuple[str, ...]:
        """The coordinates of `point(column)` as str() prints them."""
        scale = column[0]
        return tuple([_ratio_text(c, scale)
                      for c in column[cls._coordinates]])


class VandermondeMap(_Family):
    """z -> (1, z, ..., z^(k-1)) on the plane, realified; k-regular.

    Points are Gaussian rationals z = a/b + i c/e with a, c in [-64, 64] and
    b, e in [1, 8], drawn in the order a, b, c, e: 663^2 = 439,569 distinct
    points, keyed by (a * 840 // b, c * 840 // e).  With D the least common
    denominator of the two coordinates and z = w/D, the column (1, z, ...,
    z^(k-1)) scaled by D^(k-1) becomes (D^(k-1), D^(k-2) w, ..., w^(k-1)),
    and z is its second and third entries over its first.
    """

    __slots__ = ("k",)
    name = "vandermonde"

    def _check(self, k: int) -> tuple:
        if not isinstance(k, int) or k < 2:
            raise ValueError(f"need an integer k >= 2, got {k!r}")
        return (k,)

    def __str__(self) -> str:
        return f"{self.name}:{self.k}"

    @property
    def dim(self) -> int:
        return 2 * self.k - 1

    @property
    def claimed(self) -> int:
        return self.k

    # Sizes of at most this many bits fit in the grid without counting it:
    # its integer points alone number (2 * _PLANE_BOUND + 1)^2.
    grid_floor_bits = 2 * ((2 * _PLANE_BOUND + 1).bit_length() - 1)

    @property
    def grid_size(self) -> int:
        return _grid_size(_PLANE_BOUND, 1) ** 2

    def sample(self, bits, count: int) -> list[list[int]]:
        """The rescaled column prefixes of count pairwise distinct points.

        The key (x, y) is 840 z, so with G = gcd(x, y, 840) the point is
        z = w/D for the least common denominator D = 840 // G and
        w = x // G + i y // G.  Each column is (1, z, ..., z^j) realified
        and scaled by D^j, for the fewest powers j >= 1 that give at least
        count coordinates (j = k-1 gives the whole column).
        """
        span = 2 * _PLANE_BOUND + 1
        width, den_width = span.bit_length(), _MAX_DEN.bit_length()
        top = max(1, min(self.k - 1, count // 2))
        columns: list[list[int]] = []
        seen = set()
        while len(columns) < count:
            a = bits(width)
            while a >= span:
                a = bits(width)
            b = bits(den_width)
            while b >= _MAX_DEN:
                b = bits(den_width)
            c = bits(width)
            while c >= span:
                c = bits(width)
            e = bits(den_width)
            while e >= _MAX_DEN:
                e = bits(den_width)
            x = (a - _PLANE_BOUND) * _KEY_SCALE // (b + 1)
            y = (c - _PLANE_BOUND) * _KEY_SCALE // (e + 1)
            key = (x, y)
            if key in seen:
                continue
            seen.add(key)
            g = gcd(x, y, _KEY_SCALE)
            columns.append(_plane_column(top, _KEY_SCALE // g, x // g,
                                         y // g))
        return columns

    _coordinates = slice(1, 3)

    def whole_column(self, column: Sequence[int]) -> list[int]:
        """The whole column of the point whose sampled column this is.

        A column prefix starts D^j, D^(j-1) wr, D^(j-1) wi, and
        gcd(D, wr, wi) = 1, so the gcd of those three entries is D^(j-1).
        """
        g = gcd(column[0], column[1], column[2])
        return _plane_column(self.k - 1, column[0] // g, column[1] // g,
                             column[2] // g)

    @staticmethod
    def render_point(point: Sequence[str]) -> str:
        return f"({point[0]}) + ({point[1]})*i"


class SphereOneI(_Family):
    """x -> (1, x) on S^m; 3-regular (a line meets a sphere twice).

    Points are rational points of S^m: the inverse stereographic images of
    t = a/d, with a in [-8, 8]^m and d in [1, 8], projected from the north
    pole, which is therefore never drawn.  A draw, d first and then a, is
    keyed by a * 840 // d (stereographic projection is injective): 1929
    distinct points of S^2, 36,111 of S^3, and so on.  Its column is
    (|a|^2 + d^2, 2ad, |a|^2 - d^2), that is (1, x) times |a|^2 + d^2, and
    x is its other entries over its first.
    """

    __slots__ = ("m",)
    name = "sphere"
    claimed = 3

    def _check(self, m: int) -> tuple:
        if not isinstance(m, int) or m < 2:
            raise ValueError(f"need an integer m >= 2, got {m!r}")
        return (m,)

    def __str__(self) -> str:
        return f"{self.name}:{self.m}"

    @property
    def dim(self) -> int:
        return self.m + 2

    @property
    def grid_floor_bits(self) -> int:
        """Sizes of at most this many bits fit in the grid without counting
        it: its integer points alone number (2 * _SPHERE_BOUND + 1)^m."""
        return self.m * ((2 * _SPHERE_BOUND + 1).bit_length() - 1)

    @property
    def grid_size(self) -> int:
        return _grid_size(_SPHERE_BOUND, self.m)

    def sample(self, bits, count: int) -> list[list[int]]:
        """The columns of count pairwise distinct drawn points."""
        span = 2 * _SPHERE_BOUND + 1
        width, den_width = span.bit_length(), _MAX_DEN.bit_length()
        coordinates = range(self.m)
        columns: list[list[int]] = []
        seen = set()
        while len(columns) < count:
            d = bits(den_width)
            while d >= _MAX_DEN:
                d = bits(den_width)
            d += 1
            scale, twice = _KEY_SCALE // d, 2 * d
            scaled = []
            norm = 0
            column = [0]
            for _ in coordinates:
                v = bits(width)
                while v >= span:
                    v = bits(width)
                v -= _SPHERE_BOUND
                scaled.append(v * scale)
                norm += v * v
                column.append(twice * v)
            key = tuple(scaled)
            if key in seen:
                continue
            seen.add(key)
            column[0] = norm + d * d
            column.append(norm - d * d)
            columns.append(column)
        return columns

    _coordinates = slice(1, None)

    @staticmethod
    def render_point(point: Sequence[str]) -> str:
        return "(" + ", ".join(point) + ")"


_FAMILIES = {family.name: family for family in (VandermondeMap, SphereOneI)}


class DirectSum(Record):
    """Block direct sum of maps on the disjoint union of their domains."""

    __slots__ = ("parts",)

    def _check(self, parts: tuple) -> tuple:
        parts = tuple(parts)
        if not parts:
            raise ValueError("empty direct sum")
        for part in parts:
            if not isinstance(part, tuple(_FAMILIES.values())):
                raise ValueError(f"not a summable map: {part!r}")
        return (parts,)


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
        try:
            size = int(number)
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            raise ValueError(f"map piece {family}: integer too long "
                             f"({len(number)} digits)") from None
        parts.append(_FAMILIES[family](size))
    return parts[0] if len(parts) == 1 else DirectSum(tuple(parts))


# ---------------------------------------------------------------------------
# Exact points and rank.

def _plane_column(top: int, d: int, wr: int, wi: int) -> list[int]:
    """(1, z, ..., z^top) realified and scaled by d^top, for z = w/d: entry
    j, w^j d^(top-j), is entry j-1 divided by d (exactly) and times w."""
    re, im = d ** top, 0
    column = [re]
    for _ in range(top):
        re, im = re // d, im // d
        re, im = re * wr - im * wi, re * wi + im * wr
        column += (re, im)
    return column


def _ratio_text(numerator: int, denominator: int) -> str:
    """str(Fraction(numerator, denominator)) for a positive denominator:
    the reduced numerator, then "/" and the reduced denominator unless it
    is 1."""
    g = gcd(numerator, denominator)
    if g == denominator:
        return str(numerator // g)
    return f"{numerator // g}/{denominator // g}"


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
    holds a pivot: later columns are never read, so a full-rank sample
    reads about as many coordinates as it has points (3 points against the
    m+2 coordinates of `sphere:m`; the sampler cuts plane columns to about
    t coordinates itself).  The rows are not changed.
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

def _grid_size(bound: int, m: int) -> int:
    """Number of distinct points a/d of Q^m, |a_i| <= bound, d <= _MAX_DEN.

    Each point is counted once, at its least common denominator d: Moebius
    inversion over the common divisors e of a and d keeps the a with
    gcd(a, d) = 1.
    """
    return sum(_MOBIUS[e] * (2 * (bound // e) + 1) ** m
               for d in range(1, _MAX_DEN + 1)
               for e in range(1, d + 1) if d % e == 0)


def _full_rank(part, columns: Sequence[Sequence[int]]) -> bool:
    """Whether one trial's points of one part have independent columns.

    columns are the part's sampled columns, each a positive multiple of a
    prefix of its point's column.  A prefix of full rank certifies the full
    columns; a deficient prefix shorter than `dim` is ranked again on the
    full columns of its points.
    """
    count = len(columns)
    if integer_rank_bareiss(columns) == count:
        return True
    if len(columns[0]) == part.dim:
        return False
    return integer_rank_bareiss([part.whole_column(column)
                                 for column in columns]) == count


class Witness(Record):
    """A failing trial: its index and, per part, its points' integer columns.

    Each column is a tuple of ints, the one the trial ranked: a sphere
    point's whole column, a plane point's rescaled prefix.  `part.point`
    reads a column's point exactly, and `part.point_text` as text.
    """

    __slots__ = ("trial", "points")


class RegularityReport(Record):
    __slots__ = ("example", "tuple_sizes", "trials", "seed", "violations",
                 "witnesses", "verdict", "expected_violation")


def sample_check_regular(example: ExampleMap,
                         tuple_sizes: Union[int, Sequence[int], None] = None,
                         trials: int = 1000,
                         seed: int = 0) -> RegularityReport:
    """Seeded random full-rank verification; never hides a failure.

    tuple_sizes defaults to the claimed regularity (one entry per part).
    A rank below the requested total is counted as a violation and up to
    three witnesses are kept, each part's points as the integer columns the
    trial ranked (see `Witness`).  Sizes above the claimed regularity are
    allowed.  expected_violation is set only when some part's tuple size
    exceeds that part's ambient dimension, its `dim`: its columns are then
    dependent, so every trial violates, and only the witnesses' trials are
    drawn.  Between the claim and the dimension a violation is possible but
    not certain.  A size above the number of distinct points its part can
    draw raises ValueError.
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
        if isinstance(size, bool) or not isinstance(size, int) or size < 1:
            raise ValueError(
                f"tuple sizes must be positive integers, got {size!r}")
        # Counting the grid of sphere:m sums numbers of about 1.23 m digits.
        if size.bit_length() > part.grid_floor_bits:
            grid_size = part.grid_size
            if size > grid_size:
                raise ValueError(f"tuple size {size} exceeds the {grid_size} "
                                 f"distinct sample points of {part}")
    if isinstance(trials, bool) or not isinstance(trials, int) or trials < 1:
        raise ValueError("trials must be a positive integer")
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ValueError(f"seed must be an integer, got {seed!r}")

    expected_violation = any(size > part.dim
                             for part, size in zip(parts, sizes))
    # An over-full part's columns are dependent in every trial, so every
    # trial violates: only the witnesses' trials are drawn, and none ranked.
    drawn = min(trials, _MAX_WITNESSES) if expected_violation else trials
    violations = 0
    witnesses: list[Witness] = []
    rng = random.Random(seed * _SEED_STRIDE)
    bits = rng.getrandbits
    for trial in range(drawn):
        if trial:
            rng.seed(seed * _SEED_STRIDE + trial)
        columns = [part.sample(bits, size) for part, size in zip(parts, sizes)]
        if expected_violation or not all(map(_full_rank, parts, columns)):
            violations += 1
            if len(witnesses) < _MAX_WITNESSES:
                witnesses.append(Witness(trial, tuple(
                    tuple(map(tuple, part_columns))
                    for part_columns in columns)))
    if expected_violation:
        violations = trials
    return RegularityReport(
        example=example,
        tuple_sizes=sizes,
        trials=trials,
        seed=seed,
        violations=violations,
        witnesses=tuple(witnesses),
        verdict="counterexample" if violations else "no-violation-found",
        expected_violation=expected_violation,
    )
