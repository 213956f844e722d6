"""kregular benchmark: three closed-loop CLI workloads, end to end or traced.

    python3 kbench/run.py --workload bounds --seed 1 --seconds 24 --trace 0

Run from the root of a source checkout; the program is imported from
`src/`, nothing needs building.  Every pass runs in a fresh interpreter
(`client.py`), so the program's caches start cold.

--seconds sets the work of a pass, not a deadline: a pass runs the first
QUERY_RATE * --seconds queries of the seeded stream.  At the commit that
added this benchmark, a whole --seconds 24 run (set-up, speed probes and
pass) took 23-40 s of wall time on a 2-vCPU machine.  Fixed work keeps
the mix of every run the same: in a fixed time window the heights
workload's cold presentations (about 10 s of it) would leave a share of
warm queries that swings with machine speed.

--trace 0 measures set-up (interpreter start plus `import kregular.cli`, the
median of SETUP_RUNS fresh interpreters) and one plain pass, and reports the
end-to-end metrics.  Every time among them is scaled to a fixed reference
speed (see reference.py): the host's speed is probed around and inside every
query, and each time is reported as it would read on a host that runs the
probe in probe.REFERENCE_S.  The human-readable lines give the wall times
too.  queries_per_s is queries over the sum of their scaled times.

--trace 1 runs TRACE_SHARE of those queries three times: plain, under layer
spans, and under field-operation counters.  It reports the per-layer
metrics and the tracing overhead (spans pass wall minus plain pass wall),
and checks that the work counts of the two instrumented passes agree
exactly.

Human-readable lines come first; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.  `correct` is
false when any answer is wrong other than the known float-tolerance
violations of Vandermonde+sphere direct sums; those still count in
`failed` and in ok_ratio.  Exit code 0 means the benchmark ran, whatever it
found; anything else means it could not run and no result line is printed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_build" / "kbench"

# Fresh interpreters per run, half before the timed pass and half after,
# so the median spans the host's speed over the whole run.
SETUP_RUNS = 12
SETUP_PROBES = 3
# time.perf_counter reads CLOCK_MONOTONIC, which every process shares.
# `probe` imports only built-in modules, so loading it first takes none of
# the work of `import kregular.cli`.
SETUP_CODE = f"""\
import time
began = time.perf_counter()
import sys
sys.path.append({str(HERE)!r})
from probe import probe
probes = [probe() for _ in range({SETUP_PROBES})]
probed = time.perf_counter()
import kregular.cli
imported = time.perf_counter()
probes += [probe() for _ in range({SETUP_PROBES})]
print(began, probed, imported, *probes)
"""
# Queries per --seconds.  heights keeps its about 100 cold keys near 3% of
# the queries, so they are about a third of its p90 tail.
QUERY_RATE = {"bounds": 180, "heights": 100, "verify": 44}
TRACE_SHARE = 0.3
TAIL_PERCENTILE = 90.0
RUN_BUDGET_S = 170.0


class BenchError(RuntimeError):
    """The benchmark itself could not run."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(SRC), env.get("PYTHONPATH"))))
    env["PYTHONHASHSEED"] = "0"
    # Bytecode caches live under .bench_build whatever the caller's settings,
    # so every pass starts with warm caches, as an installed CLI does, and
    # nothing is written outside the checkout.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(OUT_DIR.parent / "pycache")
    return env


def remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("run budget exhausted")
    return left


def start_program(env: dict, deadline: float) -> tuple:
    """(wall, scaled) seconds of a fresh interpreter importing kregular.cli.

    The child reads the shared monotonic clock when it starts running code
    and once the import is done, so the time covers interpreter start and
    import but not exit.  Between the two it times SETUP_PROBES speed probes
    before the import (their time is left out) and SETUP_PROBES after it;
    the median of those scales the set-up time as `reference` scales
    queries.  Probes in this process, not the child, scaled it worse than
    no scaling at all.
    """
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env,
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=remaining(deadline))
    if done.returncode != 0:
        raise BenchError(f"import kregular.cli failed:\n{done.stderr}")
    began, probed, imported, *probes = map(float, done.stdout.split())
    wall = (began - start) + (imported - probed)
    return wall, wall * reference.REFERENCE_S / statistics.median(probes)


def run_client(env: dict, deadline: float, workload: str, seed: int,
               *mode_args: str) -> dict:
    command = [sys.executable, str(HERE / "client.py"),
               "--workload", workload, "--seed", str(seed), *mode_args]
    done = subprocess.run(command, env=env, cwd=ROOT, capture_output=True,
                          text=True, timeout=remaining(deadline))
    if done.returncode != 0:
        raise BenchError(f"client {mode_args} exited {done.returncode}:\n"
                         f"{done.stderr}")
    try:
        return json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError) as exc:
        raise BenchError(f"client printed no result: {exc}\n"
                         f"{done.stdout}\n{done.stderr}") from None


def tail_latency(latencies: list) -> float:
    """Geometric mean of the slowest (100 - TAIL_PERCENTILE)% of latencies.

    A summary of the whole slow tail rather than the one order statistic at
    a percentile.  The slowest queries fall off steeply (heights' first-time
    keys above all), so a single value there moved by a third between seeds
    whose tails held the same queries, and an arithmetic mean followed the
    few slowest queries; both spread past the bound on this workload mix.
    """
    ordered = sorted(latencies)
    rank = math.ceil(TAIL_PERCENTILE / 100 * len(ordered))
    return statistics.geometric_mean(ordered[rank - 1:])


def highest_percentile(latencies: list) -> tuple:
    """(percentile, seconds) at the highest of 99.9, 99 and 90 that leaves
    at least ten samples beyond it; printed beside the tail metric."""
    ordered = sorted(latencies)
    for pct in (99.9, 99.0, 90.0):
        rank = math.ceil(pct / 100 * len(ordered))
        if len(ordered) - rank >= 10:
            return pct, ordered[rank - 1]
    return 100.0, ordered[-1]


def end_to_end(passed: dict, setup: list) -> tuple:
    wall = passed["latencies_s"]
    latencies = passed["scaled_s"]
    tail = tail_latency(latencies)
    pct, at_pct = highest_percentile(latencies)
    attempted = passed["attempted"]
    metrics = {
        "setup_s": (statistics.median(s for _, s in setup), "s"),
        "queries_per_s": (attempted / math.fsum(latencies), "1/s"),
        "query_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "query_tail_ms": (tail * 1e3, "ms"),
        "ok_ratio": ((attempted - passed["failed"]) / attempted, "ratio"),
        "peak_rss_mb": (passed["peak_rss_kb"] / 1024, "MB"),
    }
    notes = {
        "setup_s": f"median of {len(setup)} fresh interpreters; wall "
                   f"{statistics.median(w for w, _ in setup):.4f} s",
        "queries_per_s": f"{attempted} queries; wall "
                         f"{attempted / math.fsum(wall):.2f} 1/s",
        "query_p50_ms": f"of {len(latencies)} samples; wall "
                        f"{statistics.median(wall) * 1e3:.3f} ms",
        "query_tail_ms": f"geometric mean of p{TAIL_PERCENTILE:g} and up; "
                         f"wall {tail_latency(wall) * 1e3:.3f} ms; "
                         f"p{pct:g} {at_pct * 1e3:.3f} ms",
        "ok_ratio": f"{passed['failed']} failed",
        "peak_rss_mb": "client process",
    }
    return metrics, notes


def per_layer(plain: dict, spans: dict, counts: dict) -> tuple:
    metrics = {}
    for name, value in {**spans["layers"], **counts["layers"]}.items():
        unit = ("1/s" if name.endswith("_per_s")
                else "s" if name.endswith("_s") else "count")
        metrics[name] = (value, unit)
    metrics["trace.overhead_s"] = (spans["elapsed_s"] - plain["elapsed_s"],
                                   "s")
    notes = {"trace.overhead_s":
             f"spans pass {spans['elapsed_s']:.2f} s, plain pass "
             f"{plain['elapsed_s']:.2f} s, {spans['spans']} spans"}
    return metrics, notes


def git_commit() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run(args) -> int:
    if not (SRC / "kregular" / "cli.py").is_file():
        raise BenchError(f"no program under {SRC}; run from a source "
                         "checkout")
    deadline = time.monotonic() + RUN_BUDGET_S
    env = child_env()
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    problems = []
    queries = QUERY_RATE[args.workload] * args.seconds
    start_program(env, deadline)  # writes the bytecode caches
    if args.trace == 0:
        setup = [start_program(env, deadline)
                 for _ in range(SETUP_RUNS // 2)]
        passed = run_client(env, deadline, args.workload, args.seed,
                            "--mode", "plain", "--probe",
                            "--queries", str(queries))
        setup += [start_program(env, deadline)
                  for _ in range(SETUP_RUNS - len(setup))]
        metrics, notes = end_to_end(passed, setup)
        passes = [passed]
    else:
        count = str(max(1, round(TRACE_SHARE * queries)))
        spans_file = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.tsv"
        plain, spans, counts = (
            run_client(env, deadline, args.workload, args.seed, "--mode",
                       mode, "--queries", count, *extra)
            for mode, extra in (("plain", ()),
                                ("spans", ("--spans-out", str(spans_file))),
                                ("counts", ())))
        metrics, notes = per_layer(plain, spans, counts)
        passes = [plain, spans, counts]
        if spans["work_counts"] != counts["work_counts"]:
            problems.append(f"work counts differ between passes: spans "
                            f"{spans['work_counts']}, counts "
                            f"{counts['work_counts']}")
        passed = plain
    for each in passes:
        problems += each["unexplained_reasons"]
        if each["unexplained_failed"] > len(each["unexplained_reasons"]):
            problems.append(f"... {each['unexplained_failed']} unexplained "
                            "failures in one pass")
    env_record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "python": passed["python"], "nproc": os.cpu_count(),
        "numpy": passed["numpy"], "commit": git_commit(),
        "queries": passed["attempted"],
        "repeated_share": passed["repeated"] / passed["attempted"],
        "known_defect_failed": passed["known_defect_failed"],
    }
    print("env " + json.dumps(env_record))
    for name, (value, unit) in metrics.items():
        note = notes.get(name, "")
        print(f"  {name:32s} {value:>14.6g} {unit:6s} {note}")
    for problem in problems:
        print(f"WRONG: {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": passed["attempted"],
        "failed": passed["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=QUERY_RATE)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # On SIGTERM, unwind: subprocess.run then kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        return run(args)
    except (BenchError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
