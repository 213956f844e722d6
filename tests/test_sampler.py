"""Exact and randomized rank checks for the explicit example maps."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from kregular import (DirectSum, SphereOneI, VandermondeMap, ambient_dim,
                      claimed_regularity, integer_rank_bareiss, parse_map,
                      render_map, sample_check_regular)
from kregular import sampler
from rank_oracles import (gauss_rank_oracle, part_columns, plane_column,
                          rational_rank, sphere_column, vandermonde_columns,
                          vandermonde_determinant, vandermonde_rank_exact,
                          witness_rank)


def test_map_validation():
    with pytest.raises(ValueError):
        VandermondeMap(1)
    with pytest.raises(ValueError):
        SphereOneI(1)
    with pytest.raises(ValueError):
        DirectSum(())
    with pytest.raises(ValueError):
        DirectSum((VandermondeMap(2), "sphere"))


def test_map_geometry():
    v, s = VandermondeMap(4), SphereOneI(3)
    assert ambient_dim(v) == 7
    assert ambient_dim(s) == 5
    assert ambient_dim(DirectSum((v, s))) == 12
    assert claimed_regularity(v) == (4,)
    assert claimed_regularity(s) == (3,)
    assert claimed_regularity(DirectSum((v, s))) == (4, 3)


def test_render_parse_roundtrip():
    for text in ("vandermonde:3", "sphere:4", "vandermonde:2+sphere:3"):
        assert render_map(parse_map(text)) == text
    with pytest.raises(ValueError):
        parse_map("moment:3")
    with pytest.raises(ValueError):
        parse_map("vandermonde")
    with pytest.raises(ValueError):
        parse_map("sphere:x")
    # ASCII digits only: not a superscript, an Arabic-Indic three or a
    # fullwidth twelve.
    for text in ("sphere:\xb2", "sphere:٣", "vandermonde:１２"):
        with pytest.raises(ValueError, match="bad map piece"):
            parse_map(text)


# ---------------------------------------------------------------------------
# Integer and rational rank.

def test_bareiss_basics():
    assert integer_rank_bareiss([]) == 0
    assert integer_rank_bareiss([[]]) == 0
    assert integer_rank_bareiss([[], []]) == 0
    assert integer_rank_bareiss([[0], [-3], [0]]) == 1
    assert integer_rank_bareiss([[0, 0], [0, 0]]) == 0
    assert integer_rank_bareiss([[1, 0], [0, 1]]) == 2
    assert integer_rank_bareiss([[1, 2], [2, 4]]) == 1
    assert integer_rank_bareiss([[0, 1, 2], [3, 4, 5], [6, 7, 9]]) == 3
    # Rows proportional after the first step.
    assert integer_rank_bareiss([[1, 1, 1], [1, 2, 3], [1, 3, 5]]) == 2


def test_bareiss_zero_pivot_column_entries():
    # Rows whose pivot-column entry vanishes must still be rescaled, or the
    # later exact divisions go wrong.
    rows = [[2, 0, 1],
            [0, 3, 1],
            [4, 3, 3]]
    assert integer_rank_bareiss(rows) == gauss_rank_oracle(rows) == 2


def test_bareiss_matches_gauss_oracle_randomized():
    rng = random.Random(99)
    for _ in range(200):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        rows = [[rng.randint(-4, 4) for _ in range(ncols)]
                for _ in range(nrows)]
        assert integer_rank_bareiss(rows) == gauss_rank_oracle(rows)


@st.composite
def integer_matrices(draw):
    # Tall, wide and square; zero rows and columns; rows that are integer
    # combinations of other rows, so rank deficiency is common.
    ncols = draw(st.integers(0, 7))
    entry = st.just(0) | st.integers(-40, 40)
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                         max_size=7))
    combos = draw(st.lists(st.lists(st.integers(-3, 3), min_size=len(rows),
                                    max_size=len(rows)), max_size=3))
    rows += [[sum(c * row[j] for c, row in zip(combo, rows))
              for j in range(ncols)] for combo in combos]
    if ncols and draw(st.booleans()):
        zero = draw(st.integers(0, ncols - 1))
        for row in rows:
            row[zero] = 0
    return draw(st.permutations(rows)) if rows else rows


@settings(max_examples=250, deadline=None)
@given(integer_matrices())
def test_bareiss_matches_gauss_oracle_property(rows):
    before = [row[:] for row in rows]
    assert integer_rank_bareiss(rows) == gauss_rank_oracle(rows)
    assert rows == before


class Untouchable:
    """An entry that fails on any arithmetic, comparison or truth test."""

    def _refuse(self, *args):
        raise AssertionError("an entry past the pivot columns was read")

    __add__ = __radd__ = __sub__ = __rsub__ = _refuse
    __mul__ = __rmul__ = __floordiv__ = __rfloordiv__ = _refuse
    __neg__ = __bool__ = __eq__ = __ne__ = __index__ = _refuse


def test_bareiss_stops_at_full_row_rank():
    x = Untouchable()
    # Pivots in the first columns.
    assert integer_rank_bareiss([[1, 0, x, x],
                                 [0, 1, x, x]]) == 2
    # A zero column and a swap before the last pivot.
    assert integer_rank_bareiss([[0, 0, 2, 5, x, x],
                                 [0, 1, 2, 3, x, x],
                                 [0, 2, 4, 7, x, x]]) == 3
    # A full-rank plane tuple: its first t coordinates already have rank t.
    columns = [[int(c) for c in plane_column(z, 6)]
               for z in (0, 1, (0, 1), (2, 1))]
    assert gauss_rank_oracle([col[:4] for col in columns]) == 4
    assert integer_rank_bareiss([col[:4] + [x] * (len(col) - 4)
                                 for col in columns]) == 4


def test_bareiss_leaves_the_rows_alone():
    rows = [[0, 2, 4, 1], [0, 1, 3, -2], [5, 0, 1, 7], [5, 2, 5, 8]]
    before = [row[:] for row in rows]
    inner = [id(row) for row in rows]
    assert integer_rank_bareiss(rows) == gauss_rank_oracle(rows) == 3
    assert rows == before
    assert [id(row) for row in rows] == inner
    assert integer_rank_bareiss(tuple(map(tuple, rows))) == 3


def test_rational_rank_clears_denominators():
    rows = [[Fraction(1, 2), Fraction(1, 3)],
            [Fraction(3, 2), Fraction(2, 1)]]
    assert rational_rank(rows) == 2
    assert rational_rank([[Fraction(1, 2), Fraction(1, 4)],
                          [Fraction(2), Fraction(1)]]) == 1


# ---------------------------------------------------------------------------
# Vandermonde exactness.

def test_vandermonde_rank_examples():
    assert vandermonde_rank_exact([0, 1], 2) == 2
    assert vandermonde_rank_exact([0, 1, (0, 1), (1, 1)], 4) == 4
    assert vandermonde_rank_exact([2, 3, 5], 3) == 3
    assert vandermonde_rank_exact([0, 1, (0, 1)], 3) == 3


def test_vandermonde_rank_validation():
    with pytest.raises(ValueError):
        vandermonde_rank_exact([0, 0], 2)
    with pytest.raises(ValueError):
        vandermonde_rank_exact([0, 1], 1)
    with pytest.raises(ValueError):
        vandermonde_rank_exact([0.5, 1], 2)


def test_vandermonde_columns_shape():
    cols = vandermonde_columns([0, 1, (0, 1)], 4)
    assert len(cols) == 7 and all(len(row) == 3 for row in cols)


def test_determinant_detects_coincidence():
    assert vandermonde_determinant([0, 1, (0, 1)]) != (Fraction(0),
                                                       Fraction(0))
    pts = [(Fraction(1, 2), Fraction(1, 3)), 2, (Fraction(1, 2),
                                                 Fraction(1, 3))]
    assert vandermonde_determinant(pts) == (Fraction(0), Fraction(0))


def test_determinant_agrees_with_rank():
    rng = random.Random(17)
    zero = (Fraction(0), Fraction(0))
    for _ in range(50):
        k = rng.randint(2, 5)
        pts = [(Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
                Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
               for _ in range(k)]
        distinct = len(set(pts)) == len(pts)
        assert (vandermonde_determinant(pts) != zero) == distinct
        if distinct:
            assert vandermonde_rank_exact(pts, k) == k


def scaled_plane_column(top, point):
    """The sampler's column of a plane point given as Fractions: (1, z, ...,
    z^top) realified and scaled by D^top, D the least common denominator."""
    re, im = point
    d = math.lcm(re.denominator, im.denominator)
    return sampler._plane_column(top, d, re.numerator * (d // re.denominator),
                                 im.numerator * (d // im.denominator))


def test_integer_vandermonde_rank_matches_fraction_oracle():
    # Small ranges make coincident points, and so rank drops, common.
    rng = random.Random(23)
    for _ in range(300):
        k = rng.randint(2, 6)
        pts = [(Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
                Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
               for _ in range(rng.randint(1, 2 * k + 1))]
        columns = [scaled_plane_column(k - 1, z) for z in pts]
        assert all(isinstance(c, int) for col in columns for c in col)
        expect = gauss_rank_oracle(vandermonde_columns(pts, k))
        assert integer_rank_bareiss(columns) == expect


def test_plane_column_entries_are_scaled_powers():
    # Entry j of the column is d^(top-j) w^j, realified; here w^j is
    # expanded by the binomial theorem, with i^k = 1, i, -1, -i.
    rng = random.Random(4242)
    for _ in range(400):
        top, d = rng.randint(0, 12), rng.randint(1, 40)
        wr, wi = rng.randint(-60, 60), rng.randint(-60, 60)
        expected = [d ** top]
        for j in range(1, top + 1):
            terms = [math.comb(j, k) * wr ** (j - k) * wi ** k
                     * (1, 1, -1, -1)[k % 4] for k in range(j + 1)]
            expected += (d ** (top - j) * sum(terms[0::2]),
                         d ** (top - j) * sum(terms[1::2]))
        assert sampler._plane_column(top, d, wr, wi) == expected, \
            (top, d, wr, wi)


def test_integer_sphere_columns_lie_on_the_sphere():
    for m in range(2, 7):
        part = SphereOneI(m)
        columns = part.sample(random.Random(29 + m).getrandbits, 40)
        pts = tuple(part.point(column) for column in columns)
        # The points come from the Fraction drawer below, seeded alike, so
        # the drawn columns are checked against points built independently.
        oracle = fraction_sphere_points(random.Random(29 + m), m, 40)
        assert list(pts) == oracle
        assert len(set(pts)) == len(pts)
        # A drawn point's column is a positive multiple of (1, x).
        for column, x in zip(columns, pts):
            assert len(column) == m + 2 and column[0] > 0
            assert column[0] ** 2 == sum(c * c for c in column[1:])
            assert [Fraction(c, column[0]) for c in column[1:]] == list(x)
        triple = pts[:3]
        assert (integer_rank_bareiss(columns[:3])
                == rational_rank([sphere_column(x) for x in triple])
                == gauss_rank_oracle([[1, *x] for x in triple]) == 3)


# ---------------------------------------------------------------------------
# Integer draws against the Fraction drawer they replace.

def fraction_plane_points(rng, count):
    # The earlier drawer: randint, Fraction points, list membership.
    points = []
    while len(points) < count:
        z = (Fraction(rng.randint(-64, 64), rng.randint(1, 8)),
             Fraction(rng.randint(-64, 64), rng.randint(1, 8)))
        if z not in points:
            points.append(z)
    return points


def fraction_sphere_points(rng, m, count):
    points = []
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


def fraction_points(rng, part, count):
    if isinstance(part, VandermondeMap):
        return fraction_plane_points(rng, count)
    return fraction_sphere_points(rng, part.m, count)


def test_integer_draws_match_the_fraction_drawer():
    # Same points in the same order, and the same bits consumed: the two
    # generators end in the same state.
    parts = ([(VandermondeMap(k), 2 * k - 1) for k in range(2, 9)]
             + [(SphereOneI(m), m + 3) for m in range(2, 7)])
    for part, top in parts:
        for size in range(1, top + 1):
            for seed in range(12):
                oracle = random.Random(seed)
                rng = random.Random(seed)
                columns = part.sample(rng.getrandbits, size)
                points = tuple(part.point(column) for column in columns)
                assert points == tuple(fraction_points(oracle, part, size))
                assert rng.getstate() == oracle.getstate()
                # Every entry of a drawn column, not only those the point
                # is read from, is a positive multiple of the same prefix
                # of the exact point's column.  A plane column is
                # (1, z, ..., z^j) realified and scaled by D^j, the fewest
                # powers j >= 1 that give size coordinates.
                for column, point, exact in zip(
                        columns, points, part_columns(part, points)):
                    assert column[0] > 0
                    assert ([column[0] * c for c in exact[:len(column)]]
                            == [exact[0] * c for c in column])
                    if isinstance(part, VandermondeMap):
                        j = max(1, min(part.k - 1, size // 2))
                        assert column == scaled_plane_column(j, point)
                        assert len(column) >= min(size, part.dim)
                    else:
                        assert len(column) == part.dim


def test_sum_trial_matches_the_fraction_drawer():
    # One trial of a direct sum: its parts draw one after another from one
    # generator, which ends where the Fraction drawer's does.
    for k, m in ((2, 2), (3, 4), (5, 3), (8, 6)):
        example = parse_map(f"vandermonde:{k}+sphere:{m}")
        for sizes in ((k, 3), (2 * k, m + 3), (1, 1)):
            for seed in range(8):
                oracle = random.Random(seed)
                rng = random.Random(seed)
                columns = [part.sample(rng.getrandbits, size)
                           for part, size in zip(example.parts, sizes)]
                assert ([[part.point(c) for c in part_columns]
                         for part, part_columns in zip(example.parts,
                                                       columns)]
                        == [fraction_points(oracle, part, size)
                            for part, size in zip(example.parts, sizes)])
                assert rng.getstate() == oracle.getstate()


def witness_points(example, witness):
    """A witness's exact points per part, read off its integer columns."""
    return tuple(tuple(map(part.point, columns))
                 for part, columns in zip(sampler.map_parts(example),
                                          witness.points))


def test_witnesses_match_the_fraction_drawer():
    # Parts of a direct sum draw one after another from one generator.
    example = parse_map("vandermonde:4+sphere:2")
    seed = 4
    report = sample_check_regular(example, (9, 5), trials=10, seed=seed)
    assert len(report.witnesses) == 3
    # Witness columns are tuples of ints, so reports hash and compare.
    assert all(type(column) is tuple and all(type(c) is int for c in column)
               for witness in report.witnesses
               for columns in witness.points for column in columns)
    assert hash(report) == hash(sample_check_regular(example, (9, 5),
                                                     trials=10, seed=seed))
    for witness in report.witnesses:
        rng = random.Random(seed * 1_000_003 + witness.trial)
        assert witness_points(example, witness) == tuple(
            tuple(fraction_points(rng, part, size))
            for part, size in zip(example.parts, (9, 5)))


def grid_bits(values):
    """A getrandbits stand-in that hands out (width, value) pairs in order.

    It checks each requested width and raises StopIteration once the
    values run out, so a sampler that needs more draws than the grid has
    fails instead of looping.
    """
    values = iter(values)

    def bits(width):
        want, value = next(values)
        assert width == want
        return value
    return bits


def test_draw_keys_match_fraction_equality():
    # Exhaustive over the grids: every draw of a grid, fed in order, yields
    # each exact point exactly once.  A key that merged two points would run
    # out of draws; one that split a point would keep it twice.
    coordinates = [(a, b) for a in range(-64, 65) for b in range(1, 9)]
    fixed = ((8, 64), (4, 0))  # the raw draws of 0 = 0/1
    for place in (0, 1):
        raw = [((8, a + 64), (4, b - 1)) for a, b in coordinates]
        draws = [pair + fixed if place == 0 else fixed + pair
                 for pair in raw]
        columns = VandermondeMap(2).sample(
            grid_bits(v for draw in draws for v in draw), 663)
        points = {VandermondeMap.point(c)[place] for c in columns}
        assert len(points) == len(columns) == 663
        assert points == {Fraction(a, b) for a, b in coordinates}
    assert VandermondeMap(2).grid_size == 663 ** 2
    assert 2 ** VandermondeMap(2).grid_floor_bits <= 663 ** 2
    for m, size in ((2, 1929), (3, 36_111)):
        draws = [(d, a) for d in range(1, 9)
                 for a in itertools.product(range(-8, 9), repeat=m)]
        sphere = SphereOneI(m)
        columns = sphere.sample(grid_bits(
            pair for d, a in draws
            for pair in ((4, d - 1), *((5, v + 8) for v in a))), size)
        points = {sphere.point(column) for column in columns}
        assert len(points) == len(columns) == size
        assert sphere.grid_size == size
        assert 2 ** sphere.grid_floor_bits <= size


def test_plane_prefix_falls_back_to_the_full_column():
    # Real points have Im z^j = 0, so the prefix (1, z, z^2) of four of them
    # on vandermonde:4 has rank 3, while their full columns have rank 4.
    part = VandermondeMap(4)
    zero = ((8, 64), (4, 0))
    for count in (4, 5):
        reals = [((8, a + 64), (4, 0)) + zero for a in range(count)]
        columns = part.sample(
            grid_bits(v for draw in reals for v in draw), count)
        assert [part.point(c) for c in columns] == [
            (Fraction(a), Fraction(0)) for a in range(count)]
        assert all(len(column) == 5 for column in columns)
        assert integer_rank_bareiss(columns) == 3
        full = [part.whole_column(c) for c in columns]
        assert integer_rank_bareiss(full) == gauss_rank_oracle(full) == 4
        # Four points: independent.  Five: a violation on the full column
        # too, whose four nonzero coordinates hold at most rank 4.
        assert sampler._full_rank(part, columns) == (count == 4)


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 11), st.data())
def test_whole_column_is_a_multiple_of_the_fraction_column(k, data):
    # Read off any sampled prefix, the whole column is the point's own
    # (1, z, ..., z^(k-1)), realified, times D^(k-1), D its least common
    # denominator.
    part = VandermondeMap(k)
    size = data.draw(st.integers(1, part.dim), label="size")
    seed = data.draw(st.integers(0, 2 ** 32), label="seed")
    for column in part.sample(random.Random(seed).getrandbits, size):
        whole = part.whole_column(column)
        re, im = point = part.point(column)
        scale = math.lcm(re.denominator, im.denominator) ** (k - 1)
        assert whole == [scale * c for c in plane_column(point, k)]
        assert ([whole[0] * c for c in column]
                == [column[0] * c for c in whole[:len(column)]])


def test_sphere_columns_are_never_ranked_twice(monkeypatch):
    # Sphere columns are full length, so a deficient rank is final.
    ranked = []

    def counting_rank(rows):
        ranked.append(len(rows))
        return integer_rank_bareiss(rows)

    monkeypatch.setattr(sampler, "integer_rank_bareiss", counting_rank)
    part = SphereOneI(2)
    columns = part.sample(random.Random(3).getrandbits, 5)
    assert not sampler._full_rank(part, columns)
    assert sampler._full_rank(part, columns[:3])
    assert ranked == [5, 3]


def oracle_report(example, sizes, trials, seed):
    """sample_check_regular's report, the long way: a fresh generator per
    trial, every trial drawn by the Fraction drawer, and every part ranked
    on the tests' own full Fraction columns of its points."""
    parts = sampler.map_parts(example)
    violations = 0
    witnesses = []
    for trial in range(trials):
        rng = random.Random(seed * 1_000_003 + trial)
        points = tuple(tuple(fraction_points(rng, part, size))
                       for part, size in zip(parts, sizes))
        rank = sum(rational_rank(part_columns(part, pts))
                   for part, pts in zip(parts, points))
        if rank < sum(sizes):
            violations += 1
            if len(witnesses) < 3:
                witnesses.append(sampler.Witness(trial, points))
    return (violations, tuple(witnesses),
            "counterexample" if violations else "no-violation-found",
            any(size > part.dim for part, size in zip(parts, sizes)))


def report_fields(report):
    """The report's verdict fields, with its witnesses' points read off
    their integer columns as the oracle's exact points."""
    witnesses = tuple(sampler.Witness(w.trial,
                                      witness_points(report.example, w))
                      for w in report.witnesses)
    return (report.violations, witnesses, report.verdict,
            report.expected_violation)


def test_report_matches_the_full_column_oracle():
    # Tuple sizes run from 1 to dim+2: below, at and above the claim, up to
    # and past the ambient dimension.
    examples = ([VandermondeMap(k) for k in range(2, 9)]
                + [SphereOneI(m) for m in range(2, 7)])
    for part in examples:
        for size in range(1, part.dim + 3):
            for seed in (0, 5, 11):
                report = sample_check_regular(part, size, trials=4,
                                              seed=seed)
                assert (report_fields(report)
                        == oracle_report(part, (size,), 4, seed)), \
                    (part, size, seed)


def test_sum_report_matches_the_full_column_oracle():
    for text in ("vandermonde:2+sphere:2", "sphere:3+vandermonde:3",
                 "vandermonde:2+vandermonde:3"):
        example = parse_map(text)
        first, second = example.parts
        for sizes in itertools.product(range(1, first.dim + 3),
                                       range(1, second.dim + 3)):
            for seed in (1, 8):
                report = sample_check_regular(example, sizes, trials=3,
                                              seed=seed)
                assert (report_fields(report)
                        == oracle_report(example, sizes, 3, seed)), \
                    (text, sizes, seed)


def test_tuple_larger_than_the_grid_is_refused():
    with pytest.raises(ValueError) as info:
        sample_check_regular(SphereOneI(2), tuple_sizes=1930, trials=1)
    assert str(info.value) == ("tuple size 1930 exceeds the 1929 distinct "
                               "sample points of sphere:2")
    with pytest.raises(ValueError, match="439569"):
        sample_check_regular(parse_map("sphere:3+vandermonde:2"),
                             (3, 663 ** 2 + 1), trials=1)
    # The whole grid is reachable.
    report = sample_check_regular(SphereOneI(2), tuple_sizes=1929, trials=1)
    assert report.violations == 1


def test_tuple_that_surely_fits_skips_the_grid_count(monkeypatch):
    # Counting the grid of sphere:m sums numbers of about 1.23 m digits; a
    # size below 2^(4 m) <= 17^m fits in its integer points alone.
    def uncounted(bound, m):
        raise AssertionError(f"counted the grid of bound {bound}, m = {m}")

    monkeypatch.setattr(sampler, "_grid_size", uncounted)
    report = sample_check_regular(SphereOneI(50), tuple_sizes=3, trials=1)
    assert report.verdict == "no-violation-found"
    with pytest.raises(AssertionError, match="m = 2"):
        sample_check_regular(SphereOneI(2), tuple_sizes=1930, trials=1)


def test_clean_run_builds_no_fraction(monkeypatch):
    made = []
    new = Fraction.__new__

    def counting_new(cls, *args):
        made.append(args)
        return new(cls, *args)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    for text in ("vandermonde:5", "sphere:4", "vandermonde:3+sphere:2"):
        report = sample_check_regular(parse_map(text), trials=50, seed=6)
        assert report.violations == 0
    # Witnessed runs keep their points as integer columns, too.
    for text, sizes in (("sphere:2", 5), ("vandermonde:4+sphere:2", (9, 3)),
                        ("sphere:3", 8)):
        report = sample_check_regular(parse_map(text), sizes, trials=5,
                                      seed=3)
        assert len(report.witnesses) == 3
    assert made == []
    # Only reading a witness point back builds Fractions: one per
    # coordinate.
    report.example.point(report.witnesses[0].points[0][0])
    assert len(made) == 4


def test_point_text_prints_the_exact_point():
    # point_text(c) == str() of each coordinate of point(c), for sampled
    # columns (plane prefixes too) at every size, and for edge entries.
    rng = random.Random(77)
    parts = ([VandermondeMap(k) for k in range(2, 9)]
             + [SphereOneI(m) for m in range(2, 7)])
    for part in parts:
        for size in range(1, part.dim + 3):
            for column in part.sample(rng.getrandbits, size):
                assert (part.point_text(column)
                        == tuple(map(str, part.point(column)))), column
    big = 10 ** 999
    edges = [(1, 0, 1), (1, -1, 1), (1, 1, -1), (5, 0, -1), (7, 14, -21),
             (6, -4, 9), (3 * big, 7 * big + 1, -(10 * big)),
             (big + 1, big, -big - 1), (2 * big, big, -6 * big)]
    for column in edges:
        for part in (VandermondeMap, SphereOneI):
            assert (part.point_text(column)
                    == tuple(map(str, part.point(column)))), column


# ---------------------------------------------------------------------------
# Sampling.

def test_sample_vandermonde_no_violations():
    report = sample_check_regular(VandermondeMap(3), trials=200, seed=1)
    assert report.violations == 0
    assert report.verdict == "no-violation-found"
    assert not report.expected_violation


def test_sample_sphere_no_violations_at_claim():
    report = sample_check_regular(SphereOneI(3), trials=200, seed=1)
    assert report.tuple_sizes == (3,)
    assert report.violations == 0


def test_oversized_tuples_always_violate():
    m = 3
    report = sample_check_regular(SphereOneI(m), tuple_sizes=m + 3,
                                  trials=20, seed=5)
    assert report.expected_violation
    assert report.violations == 20
    assert report.verdict == "counterexample"
    assert len(report.witnesses) == 3


def test_witnesses_reproduce_rank_deficiency():
    report = sample_check_regular(SphereOneI(2), tuple_sizes=5, trials=5,
                                  seed=3)
    assert report.witnesses
    for witness in report.witnesses:
        rank, wanted = witness_rank(report.example,
                                    witness_points(report.example, witness))
        assert rank < wanted


def test_direct_sum_block_check():
    example = DirectSum((VandermondeMap(2), SphereOneI(3)))
    report = sample_check_regular(example, trials=100, seed=2)
    assert report.tuple_sizes == (2, 3)
    assert report.violations == 0


def test_direct_sum_exact_when_all_vandermonde():
    example = DirectSum((VandermondeMap(2), VandermondeMap(3)))
    report = sample_check_regular(example, trials=100, seed=2)
    assert report.violations == 0


@pytest.mark.parametrize("text", ["vandermonde:8+sphere:2",
                                  "vandermonde:5+sphere:3"])
def test_mixed_direct_sum_has_no_violation(text):
    # Vandermonde entries dwarf the sphere block; only exact block ranks
    # keep the sphere block's rank.
    report = sample_check_regular(parse_map(text), trials=300, seed=0)
    assert report.violations == 0
    assert report.verdict == "no-violation-found"


def test_mixed_direct_sum_witnesses_recheck_exactly():
    example = parse_map("vandermonde:4+sphere:2")
    report = sample_check_regular(example, (9, 5), trials=10, seed=4)
    assert report.violations == 10
    for witness in report.witnesses:
        rank, wanted = witness_rank(example,
                                    witness_points(example, witness))
        assert wanted == 14 and rank < wanted


def test_reports_are_reproducible():
    a = sample_check_regular(SphereOneI(2), tuple_sizes=5, trials=30, seed=9)
    b = sample_check_regular(SphereOneI(2), tuple_sizes=5, trials=30, seed=9)
    assert a == b
    c = sample_check_regular(SphereOneI(2), tuple_sizes=5, trials=30, seed=10)
    assert a.witnesses and c.witnesses
    assert ([w.points for w in c.witnesses]
            != [w.points for w in a.witnesses])


def test_sampling_validation():
    with pytest.raises(ValueError):
        sample_check_regular(VandermondeMap(2), trials=0)
    with pytest.raises(ValueError):
        sample_check_regular(VandermondeMap(2), tuple_sizes=0)
    direct = DirectSum((VandermondeMap(2), SphereOneI(2)))
    with pytest.raises(ValueError):
        sample_check_regular(direct, tuple_sizes=3)
    with pytest.raises(ValueError):
        sample_check_regular(direct, tuple_sizes=(2, 2, 2))


@pytest.mark.parametrize("named, message", [
    ({"tuple_sizes": True}, "tuple sizes must be positive integers, got True"),
    ({"tuple_sizes": (2.0,)},
     "tuple sizes must be positive integers, got 2.0"),
    ({"trials": True}, "trials must be a positive integer"),
    ({"trials": 2.0}, "trials must be a positive integer"),
    ({"seed": True}, "seed must be an integer, got True"),
    ({"seed": "x"}, "seed must be an integer, got 'x'"),
    ({"seed": 1.5}, "seed must be an integer, got 1.5"),
], ids=["bool-size", "float-size", "bool-trials", "float-trials",
        "bool-seed", "str-seed", "float-seed"])
def test_sampling_refuses_bools_and_non_int_seeds(named, message):
    with pytest.raises(ValueError) as info:
        sample_check_regular(VandermondeMap(2), **named)
    assert str(info.value) == message


def test_negative_seeds_stay_valid():
    report = sample_check_regular(VandermondeMap(3), trials=4, seed=-5)
    assert (report.seed, report.trials, report.violations) == (-5, 4, 0)
    assert report == sample_check_regular(VandermondeMap(3), trials=4,
                                          seed=-5)
