"""One benchmark pass: feed a workload's queries to `kregular.cli.main`.

`run.py` starts this script in a fresh interpreter for every pass, so the
program's caches (`cached_presentation` above all) start cold, as they do
for a command-line user.  The client is a single closed loop: it sends the
next query when the previous one has returned, captures stdout, and checks
the answer.  A wrong answer, an unexpected exit code or an exception counts
as a failed query; the loop goes on.

Every mode runs the first --queries queries of the seeded stream:
  plain   the program alone; reports every latency.  With --probe it also
          times host speed probes between queries and, from a timer, inside
          them, leaves the inner probes out of the latencies and reports
          them scaled to the reference speed too (reference.py)
  spans   under tracing.Tracer (layer self times, probes)
  counts  under tracing.Counter (field operation counts)

The pass prints one JSON object on stdout.  The source tree must be on
PYTHONPATH:

    PYTHONPATH=src python3 kbench/client.py --workload bounds --seed 1 \\
        --mode plain --queries 500
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import platform
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

EXIT_COUNTEREXAMPLE = workloads.EXIT_COUNTEREXAMPLE
MAX_REASONS = 5


class Tally:
    """Attempted and failed queries, with the reasons for the unexplained."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.known_defect = 0
        self.reasons: list = []
        self.keys: set = set()
        self.repeated = 0

    def record(self, query: workloads.Query, code, reason) -> None:
        self.attempted += 1
        if query.key in self.keys:
            self.repeated += 1
        self.keys.add(query.key)
        if reason is None:
            return
        self.failed += 1
        if query.known_defect and code == EXIT_COUNTEREXAMPLE:
            self.known_defect += 1
        elif len(self.reasons) < MAX_REASONS:
            self.reasons.append(f"{' '.join(query.argv)}: {reason}")

    def as_dict(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "known_defect_failed": self.known_defect,
                "unexplained_failed": self.failed - self.known_defect,
                "unexplained_reasons": self.reasons,
                "repeated": self.repeated}


def run_query(cli, query: workloads.Query) -> tuple:
    """(start, seconds, exit code, failure reason or None) for one query."""
    out = io.StringIO()
    code = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(list(query.argv))
    except Exception as exc:  # a crash is a failed query, not a dead run
        elapsed = time.perf_counter() - start
        return start, elapsed, code, f"raised {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    try:
        reason = query.check(code, out.getvalue())
    except (ValueError, KeyError, TypeError) as exc:
        reason = f"unreadable output {out.getvalue()!r}: {exc!r}"
    return start, elapsed, code, reason


def run_pass(cli, queries, count: int, tracer=None,
             probes=None) -> dict:
    """Run the first `count` queries; with `probes`, probe around each."""
    tally = Tally()
    latencies = []
    starts = []
    start = time.perf_counter()
    if tracer is not None:
        tracer.start()
    if probes is not None:
        probes.take()
    for index, query in enumerate(itertools.islice(queries, count)):
        if tracer is not None:
            tracer.query = index
        began, elapsed, code, reason = run_query(cli, query)
        starts.append(began)
        latencies.append(elapsed)
        tally.record(query, code, reason)
        if probes is not None:
            probes.take()
    if tracer is not None:
        tracer.stop()
    return {"elapsed_s": time.perf_counter() - start, "starts_s": starts,
            "latencies_s": latencies, **tally.as_dict()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True,
                        choices=("plain", "spans", "counts"))
    parser.add_argument("--queries", type=int, required=True)
    parser.add_argument("--probe", action="store_true",
                        help="probe the host speed around every query "
                             "(plain mode) and report scaled latencies")
    parser.add_argument("--spans-out", default=None,
                        help="file for the span table (spans mode)")
    args = parser.parse_args()

    import kregular.cli as cli

    queries = workloads.WORKLOADS[args.workload](args.seed,
                                                 workloads.load_frozen())
    if args.mode == "plain":
        if args.probe:
            probes = reference.Probes()
            with probes.sampling():
                result = run_pass(cli, queries, args.queries, probes=probes)
            result["latencies_s"], result["scaled_s"] = probes.scaled(
                result["starts_s"], result["latencies_s"])
            result["probes"] = len(probes.seconds)
        else:
            result = run_pass(cli, queries, args.queries)
    elif args.mode == "spans":
        tracer = tracing.Tracer()
        tracer.install()
        result = run_pass(cli, queries, args.queries, tracer)
        result["layers"] = tracer.metrics()
        result["work_counts"] = tracer.counts.as_dict()
        result["spans"] = len(tracer.span_start)
        if args.spans_out:
            tracer.write_spans(args.spans_out)
    else:
        counter = tracing.Counter()
        counter.install()
        result = run_pass(cli, queries, args.queries)
        result["layers"] = counter.metrics()
        result["work_counts"] = counter.counts.as_dict()
    numpy = sys.modules.get("numpy")
    result.update(
        peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        python=platform.python_version(),
        numpy=getattr(numpy, "__version__", None))
    del result["starts_s"]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
