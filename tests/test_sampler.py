"""Exact and randomized rank checks for the explicit example maps."""

import random
from fractions import Fraction

import pytest

from kregular import (DirectSum, SphereOneI, VandermondeMap, ambient_dim,
                      claimed_regularity, evaluate_rank,
                      integer_rank_bareiss, parse_map, rational_rank,
                      render_map, sample_check_regular,
                      vandermonde_determinant, vandermonde_rank_exact)
from kregular.sampler import (_sample_sphere_points, sphere_integer_column,
                              vandermonde_columns, vandermonde_integer_column)


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


# ---------------------------------------------------------------------------
# Integer and rational rank.

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


def test_bareiss_basics():
    assert integer_rank_bareiss([]) == 0
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


def test_integer_vandermonde_rank_matches_fraction_oracle():
    # Small ranges make coincident points, and so rank drops, common.
    rng = random.Random(23)
    for _ in range(300):
        k = rng.randint(2, 6)
        pts = [(Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
                Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
               for _ in range(rng.randint(1, 2 * k + 1))]
        columns = [vandermonde_integer_column(z, k) for z in pts]
        assert all(isinstance(c, int) for col in columns for c in col)
        expect = gauss_rank_oracle(vandermonde_columns(pts, k))
        assert integer_rank_bareiss(columns) == expect
        assert evaluate_rank(VandermondeMap(k), (pts,)) == (expect, len(pts))


def test_integer_sphere_columns_lie_on_the_sphere():
    rng = random.Random(29)
    for m in range(2, 7):
        pts = _sample_sphere_points(rng, m, 40)
        assert len(set(pts)) == len(pts)
        for x in pts:
            column = sphere_integer_column(x)
            assert len(column) == m + 2 and column[0] > 0
            assert column[0] ** 2 == sum(c * c for c in column[1:])
            assert [Fraction(c, column[0]) for c in column[1:]] == list(x)
        triple = pts[:3]
        assert (integer_rank_bareiss([sphere_integer_column(x)
                                      for x in triple])
                == gauss_rank_oracle([[1, *x] for x in triple]) == 3)


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
        rank, wanted = evaluate_rank(report.example, witness.points)
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
        rank, wanted = evaluate_rank(example, witness.points)
        assert wanted == 14 and rank < wanted


def test_evaluate_rank_rejects_inexact_points():
    sphere = SphereOneI(2)
    on_sphere = (Fraction(3, 5), Fraction(4, 5), 0)
    assert evaluate_rank(sphere, ((on_sphere, (0, 0, 1)),)) == (2, 2)
    with pytest.raises(ValueError):
        evaluate_rank(sphere, (((0.6, 0.8, 0.0),),))
    with pytest.raises(ValueError):
        evaluate_rank(sphere, (((1, 1, 0),),))
    with pytest.raises(ValueError):
        evaluate_rank(sphere, (((1, 0),),))
    with pytest.raises(ValueError):
        evaluate_rank(VandermondeMap(2), ((0.5, 1),))
    with pytest.raises(ValueError):
        evaluate_rank(VandermondeMap(2), (((0.5, 0), 1),))


def test_reports_are_reproducible():
    a = sample_check_regular(SphereOneI(2), tuple_sizes=5, trials=30, seed=9)
    b = sample_check_regular(SphereOneI(2), tuple_sizes=5, trials=30, seed=9)
    assert a == b
    c = sample_check_regular(SphereOneI(2), tuple_sizes=5, trials=30, seed=10)
    assert c.seed != a.seed


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
    with pytest.raises(ValueError):
        evaluate_rank(direct, ((0, 1),))
