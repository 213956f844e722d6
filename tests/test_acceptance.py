"""Acceptance criteria, one test per criterion.

Each test prints a single `criterion N: PASS` line on success (visible with
-s or in captured output); the pytest -v report line is the pass/fail
record.  Budgets are asserted with a wall clock, measured cold: this file
sorts first in the suite, so no other test has warmed the caches.
"""

import contextlib
import io
import random
import subprocess
import sys
import time

from kregular import (ComplexProj, Euclid, GrassmannPresentation, Product,
                      QuatProj, RealProj, RegularQuery, Sphere, SphereOneI,
                      VandermondeMap, bound_disjoint, bound_product_2regular,
                      chern_height_of_first_class, floor_log2,
                      lucas_binom_mod_p, main_theorem_1_closed_form,
                      main_theorem_2_closed_form, real_dimension,
                      sample_check_regular, top_dual_degree,
                      top_dual_degree_closed_form)
from kregular.cli import main
from rank_oracles import chern_height_by_rank
from test_cli import _fresh_process_env
from test_grassmann import pieri_sw_height


def timed(budget_seconds):
    def wrap(fn):
        def run():
            t0 = time.monotonic()
            fn()
            elapsed = time.monotonic() - t0
            assert elapsed < budget_seconds, \
                f"budget {budget_seconds}s exceeded: {elapsed:.2f}s"
            print(f"criterion {fn.__name__.split('_')[2]}: PASS "
                  f"({elapsed:.2f}s)")
        run.__name__ = fn.__name__
        return run
    return wrap


def _cli_lines(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0
    return out.getvalue().splitlines()


@timed(1.0)
def test_criterion_1_real_projective_top_dual_degree():
    for m in range(2, 65):
        j = floor_log2(m)
        brute = top_dual_degree(RealProj(m)).top_degree
        assert brute == 2 ** (j + 1) - m - 1, m


@timed(1.0)
def test_criterion_2_complex_and_quaternionic_top_dual_degree():
    for m in range(2, 65):
        j = floor_log2(m)
        assert top_dual_degree(ComplexProj(m)).top_degree == \
            2 ** (j + 2) - 2 * m - 2, m
        assert top_dual_degree(QuatProj(m)).top_degree == \
            2 ** (j + 3) - 4 * m - 4, m


@timed(30.0)
def test_criterion_3_grassmannian_heights():
    for n in range(1, 7):
        for k in range(1, n + 1):
            assert chern_height_of_first_class(k, n) == k * (n + 1 - k), \
                (k, n)
            assert chern_height_by_rank(k, n) == k * (n + 1 - k), (k, n)
    for n in range(2, 9):
        assert chern_height_of_first_class(2, n) == 2 * n - 2, n
        assert chern_height_by_rank(2, n) == 2 * n - 2, n


@timed(60.0)
def test_criterion_4_corollary_bounds():
    # Each family's value is checked three ways: the bundle bound, the
    # product closed form and the one-piece disjoint-union closed form.
    for m in range(2, 65):
        i = floor_log2(m)
        for family, expect in ((Sphere, m + 2), (RealProj, 2 ** (i + 1) + 1),
                               (ComplexProj, 2 ** (i + 2)),
                               (QuatProj, 2 ** (i + 3) - 2)):
            spec = family(m)
            assert bound_product_2regular(spec).bound == \
                main_theorem_1_closed_form(spec) == \
                main_theorem_2_closed_form(((spec, 2),)) == expect, spec
    for i in range(1, 6):
        m = 2 ** i + 1
        assert bound_product_2regular(RealProj(m)).bound == 2 * m - 1


@timed(60.0)
def test_criterion_5_disjoint_union_closed_form():
    rng = random.Random(20240819)
    families = (Sphere, RealProj, ComplexProj, QuatProj)
    for case in range(200):
        pieces = []
        for _ in range(rng.randint(1, 4)):
            if rng.random() < 0.3:
                pieces.append((Euclid(2), 2 ** rng.randint(1, 4)))
            else:
                family = families[rng.randrange(4)]
                pieces.append((family(rng.randint(2, 16)), 2))
        query = RegularQuery(tuple(pieces), "real")
        assert bound_disjoint(query).bound == \
            main_theorem_2_closed_form(pieces), (case, pieces)


@timed(60.0)
def test_criterion_6_handel_recovery():
    rng = random.Random(618)
    families = (Sphere, RealProj, ComplexProj, QuatProj)
    for case in range(100):
        specs = [families[rng.randrange(4)](rng.randint(2, 12))
                 for _ in range(rng.randint(1, 4))]
        query = RegularQuery(tuple((s, 2) for s in specs), "real")
        expect = 2 * len(specs) + sum(
            real_dimension(s) + top_dual_degree(s).top_degree
            for s in specs)
        assert bound_disjoint(query).bound == expect, (case, specs)


@timed(60.0)
def test_criterion_7_complex_cp_two_point_bound():
    # The CP^m rule against the rank of c1's powers modulo the relations
    # of G_2(C^(m+1)) over QQ.
    for m in range(4, 9):
        height = chern_height_by_rank(2, m)
        assert height == 2 * m - 2, m
        report = bound_disjoint(
            RegularQuery(((ComplexProj(m), 2),), "complex"))
        (piece,) = report.breakdown
        assert piece.top_degree == height, m
        assert piece.is_lower_bound, m
        assert report.bound == height + 2, m


@timed(60.0)
def test_criterion_8_regularity_sampling():
    for k in range(2, 9):
        report = sample_check_regular(VandermondeMap(k), trials=10_000,
                                      seed=2024)
        assert report.violations == 0, k
    for m in range(2, 7):
        report = sample_check_regular(SphereOneI(m), tuple_sizes=3,
                                      trials=10_000, seed=2024)
        assert report.violations == 0, m
    for m in range(2, 7):
        oversized = sample_check_regular(SphereOneI(m), tuple_sizes=m + 3,
                                         trials=100, seed=2024)
        assert oversized.violations == oversized.trials, m
    # Determinism under a fixed seed.
    first = sample_check_regular(SphereOneI(4), tuple_sizes=3, trials=200,
                                 seed=2024)
    again = sample_check_regular(SphereOneI(4), tuple_sizes=3, trials=200,
                                 seed=2024)
    assert again == first


@timed(5.0)
def test_criterion_9_lucas_against_pascal():
    size = 512
    for p in (2, 3, 5):
        row = [1] + [0] * size
        for n in range(size + 1):
            for k in range(size + 1):
                expect = row[k] if k <= n else 0
                assert lucas_binom_mod_p(n, k, p) == expect, (n, k, p)
            row = [1] + [(row[k - 1] + row[k]) % p
                         for k in range(1, size + 1)]


@timed(5.0)
def test_criterion_10_large_products_factor_by_factor():
    # A joint-ring inversion of these total classes takes minutes.
    spec = Product((RealProj(256), ComplexProj(128), QuatProj(64)))
    assert top_dual_degree_closed_form(spec).top_degree == 761
    assert top_dual_degree(spec).top_degree == 761
    spec = Product((RealProj(64), ComplexProj(32), QuatProj(16)))
    assert _cli_lines("bound", "RP^64 x CP^32 x HP^16")[0] == \
        f"N >= {main_theorem_1_closed_form(spec)} (Main Theorem I)"


@timed(5.0)
def test_criterion_11_sw_height_bit_rows():
    # A fresh G_5(R^19): every degree up to w1^32 is row-reduced over GF(2).
    pres = GrassmannPresentation(5, 18)
    height = pres.height(pres.first_class())
    assert height == 31
    assert height == pieri_sw_height(5, 18)


@timed(2.0)
def test_criterion_12_complex_cp_bound_without_row_reduction():
    # Row reduction of c1's powers in G_2(C^161) over QQ takes minutes;
    # the bound needs only their height, the box size.
    lines = _cli_lines("bound", "(CP^160, 2)", "--regime", "complex")
    assert lines[0].startswith("N >= 320 ")


@timed(2.0)
def test_criterion_13_sw_height_without_row_reduction():
    # Row reduction of w1's powers in G_10(R^31) takes hours.
    assert _cli_lines("height", "--k", "10", "--n", "30",
                      "--regime", "real") == ["31"]


def _cli_subprocess_lines(*argv):
    proc = subprocess.run([sys.executable, "-m", "kregular.cli", *argv],
                          capture_output=True, text=True,
                          env=_fresh_process_env())
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


@timed(2.0)
def test_criterion_14_large_chern_height_builds_no_relations():
    # Building the relations of G_30(C^91) alone takes seconds; the height
    # is the box size.
    assert _cli_subprocess_lines("height", "--k", "30", "--n", "90",
                                 "--regime", "complex") == ["1830"]


@timed(2.0)
def test_criterion_14_large_sw_height_builds_no_relations():
    # The relations of G_30(R^91) take seconds and the mod-2 Young lattice
    # walk half a minute; Stong's closed form takes neither.
    assert _cli_subprocess_lines("height", "--k", "30", "--n", "90",
                                 "--regime", "real") == ["127"]


@timed(0.5)
def test_criterion_15_dual_degree_by_bit_inversion():
    # Series inversion of these total classes takes seconds in all; Lucas's
    # theorem reads each factor's top degree off m's binary digits.
    for family in (RealProj, ComplexProj, QuatProj):
        for m in range(2, 257):
            assert top_dual_degree(family(m)).top_degree == \
                top_dual_degree_closed_form(family(m)).top_degree, \
                (family.__name__, m)
