"""Tiny-size smoke test of the benchmark itself.

    python3 -m pytest -q kbench/test_smoke.py

Runs every workload at --seconds 1 (one second's worth of queries),
untraced and traced, and checks that every metric named in BENCHMARK.json
prints with its unit and that every answer passes its check (the known
float-tolerance violations of Vandermonde+sphere sums aside).  Also checks
that the operation counts repeat exactly and that the benchmark refuses to
run without the program.
"""

import itertools
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from run import child_env  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "kbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def result_of(done) -> dict:
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], done.stderr
    assert result["attempted"] >= 1
    return result


@pytest.mark.parametrize("trace, section",
                         [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", NAMES)
def test_metrics_print_with_units(workload, trace, section):
    done = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace))
    metrics = result_of(done)["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == \
        {m["name"]: m["unit"] for m in SPEC[section]}
    for name, metric in metrics.items():
        assert isinstance(metric["value"], (int, float)), name
        assert name in done.stdout.split("\n{", 1)[0]


@pytest.mark.parametrize("workload, queries",
                         [("bounds", 40), ("heights", 40), ("verify", 10)])
def test_counts_repeat_exactly(workload, queries):
    counted = []
    for _ in range(2):
        done = subprocess.run(
            [sys.executable, "kbench/client.py", "--workload", workload,
             "--seed", "5", "--mode", "counts", "--queries", str(queries)],
            cwd=ROOT, capture_output=True, text=True, timeout=300,
            env=child_env())
        assert done.returncode == 0, done.stderr
        passed = json.loads(done.stdout)
        assert passed["unexplained_failed"] == 0, passed
        counted.append((passed["layers"], passed["work_counts"]))
    assert counted[0] == counted[1]


def test_tracer_reaches_every_importing_namespace():
    script = (
        "import tracing\n"
        "tracing.Tracer().install()\n"
        "from kregular import bounds, bundles, cli, grassmann, series\n"
        "for fn in (bounds.lambda_top, bundles.top_dual_degree,\n"
        "           bundles.chern_height_of_first_class,\n"
        "           cli.parse_expression, cli.cached_presentation,\n"
        "           series.GradedSeries.inverse,\n"
        "           grassmann.GrassmannPresentation.height):\n"
        "    assert hasattr(fn, '__wrapped__'), fn\n")
    done = subprocess.run(
        [sys.executable, "-c", script], cwd=HERE, capture_output=True,
        text=True, timeout=60, env=child_env())
    assert done.returncode == 0, done.stderr


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "kbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", NAMES[0], "--seed", "1", "--seconds", "1",
                 cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_checks_reject_wrong_answers():
    frozen = workloads.load_frozen()
    for name in NAMES:
        for query in itertools.islice(workloads.WORKLOADS[name](7, frozen),
                                      20):
            assert query.check(1, "") is not None, query.argv
    bound = next(q for q in workloads.bounds_queries(7, frozen)
                 if q.argv[0] == "bound")
    assert bound.check(0, "N >= 0 (Main Theorem I)\n") is not None
    height = next(workloads.heights_queries(7, frozen))
    assert height.check(0, "0\n") is not None
    verify = next(workloads.verify_queries(7, frozen))
    wrong = json.dumps({"trials": workloads.VERIFY_TRIALS, "violations": 1})
    assert verify.check(0, wrong) is not None


def test_closed_forms_match_the_program():
    from kregular import (main_theorem_1_closed_form, parse_manifold,
                          top_dual_degree_closed_form)
    rng = random.Random(11)
    for _ in range(300):
        atoms = workloads._closed_atoms(rng, rng.randint(1, 3))
        spec = parse_manifold(workloads._render(atoms))
        assert workloads.product_bound(atoms) == \
            main_theorem_1_closed_form(spec)
        assert workloads.dual_top_degree(atoms) == \
            top_dual_degree_closed_form(spec).top_degree
