"""Command line interface.

Subcommands: bound (lower bounds for expressions), dual-sw (dual class of a
manifold), height (first-class height in a Grassmannian quotient), lucas
(binomial mod p), verify (randomized regularity checks), table (3-regular
projective constructions).  All output is ASCII; --json emits one
deterministic JSON object per invocation.

Exit codes: 0 success, 1 usage/parse/semantic errors, 3 a randomized check
found a counterexample; 2 is unused.  `height` needs no truncation choice:
the Grassmann ring is cut one generator degree past the top cohomological
degree, which holds every relation, and the cohomology is zero above the top
degree, so every height is exact.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Optional, Sequence

from .bounds import (BoundReport, RegularQuery, bound_disjoint,
                     bound_product_2regular, projective_table_matches)
from .bundles import REAL
from .expr import parse_expression, parse_manifold, render_query
from .fields import lucas_binom_mod_p
from .grassmann import CHERN, STIEFEL_WHITNEY, cached_presentation
from .manifolds import (ManifoldSpec, RealProj, dual_sw, render,
                        top_dual_degree, top_dual_degree_closed_form)
from .sampler import (VandermondeMap, map_parts, parse_map, render_map,
                      sample_check_regular)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_COUNTEREXAMPLE = 3


class _UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    # Raise instead of sys.exit so main() can map usage problems to code 1.
    def error(self, message):
        raise _UsageError(message)


def _emit_json(payload: dict) -> None:
    print(json.dumps(payload))


def _cmd_bound(args) -> int:
    parsed = parse_expression(args.expression, args.regime)
    if isinstance(parsed, RegularQuery):
        query = parsed
        report = bound_disjoint(query)
    else:
        query = RegularQuery(((parsed, 2),), args.regime)
        report = (bound_product_2regular(parsed) if args.regime == REAL
                  else bound_disjoint(query))
    if args.json:
        _emit_json(_bound_payload(query, report))
        return EXIT_OK
    print(f"N >= {report.bound} ({report.theorem})")
    for piece in report.breakdown:
        qualifier = ">=" if piece.is_lower_bound else "="
        print(f"  {render(piece.spec)}, k={piece.points}: top degree "
              f"{qualifier} {piece.top_degree}, contributes "
              f"{piece.contribution} [{piece.source}]")
    if report.tightness is not None:
        upper = report.tightness.upper
        if report.tightness.tight:
            print(f"tight: construction in R^{upper.ambient_dim} "
                  f"[{upper.source}]")
        else:
            print(f"best known construction: R^{upper.ambient_dim} "
                  f"[{upper.source}]")
    return EXIT_OK


def _bound_payload(query: RegularQuery, report: BoundReport) -> dict:
    breakdown = [{
        "piece": render(piece.spec),
        "points": piece.points,
        "top_degree": piece.top_degree,
        "contribution": piece.contribution,
        "lower_bound_only": piece.is_lower_bound,
        "source": piece.source,
    } for piece in report.breakdown]
    tightness = None
    if report.tightness is not None:
        tightness = {
            "ambient_dim": report.tightness.upper.ambient_dim,
            "source": report.tightness.upper.source,
            "tight": report.tightness.tight,
        }
    return {
        "schema": "1",
        "query": render_query(query),
        "regime": query.regime,
        "bound": report.bound,
        "theorem": report.theorem,
        "breakdown": breakdown,
        "tightness": tightness,
    }


def _cmd_dual_sw(args) -> int:
    spec = parse_manifold(args.expression)
    dual = dual_sw(spec)
    series_top = top_dual_degree(spec).top_degree
    closed_top = top_dual_degree_closed_form(spec).top_degree
    if args.json:
        _emit_json({
            "schema": "1",
            "manifold": render(spec),
            "dual_class": dual.render(),
            "top_degree_series": series_top,
            "top_degree_closed_form": closed_top,
        })
        return EXIT_OK
    print(f"manifold: {render(spec)}")
    print(f"dual class: {dual.render()}")
    print(f"top degree (series inversion): {series_top}")
    print(f"top degree (closed form): {closed_top}")
    return EXIT_OK


def _cmd_height(args) -> int:
    classes = CHERN if args.regime == "complex" else STIEFEL_WHITNEY
    pres = cached_presentation(args.k, args.n, classes)
    height = pres.height(pres.first_class())
    if args.json:
        _emit_json({
            "schema": "1",
            "k": args.k,
            "n": args.n,
            "regime": args.regime,
            "element": pres.ring.names[0],
            "height": height,
            "truncation": pres.ring.truncation,
        })
        return EXIT_OK
    print(height)
    return EXIT_OK


def _cmd_lucas(args) -> int:
    value = lucas_binom_mod_p(args.n, args.k, args.p)
    if args.json:
        _emit_json({
            "schema": "1",
            "n": args.n,
            "k": args.k,
            "p": args.p,
            "binomial_mod_p": value,
        })
        return EXIT_OK
    print(value)
    return EXIT_OK


def _point_payload(point) -> list:
    return [str(c) for c in point]


def _cmd_verify(args) -> int:
    example = parse_map(args.map)
    sizes: Optional[tuple[int, ...]] = None
    if args.tuple is not None:
        try:
            sizes = tuple(int(chunk) for chunk in args.tuple.split(","))
        except ValueError:
            raise _UsageError(f"bad tuple sizes {args.tuple!r}; want a "
                              "comma-separated list of integers") from None
    report = sample_check_regular(example, sizes, trials=args.trials,
                                  seed=args.seed)
    if args.json:
        _emit_json({
            "schema": "2",
            "map": render_map(example),
            "tuple_sizes": list(report.tuple_sizes),
            "trials": report.trials,
            "seed": report.seed,
            "violations": report.violations,
            "verdict": report.verdict,
            "expected_violation": report.expected_violation,
            "witnesses": [{
                "trial": witness.trial,
                "points": [[_point_payload(point) for point in part_points]
                           for part_points in witness.points],
            } for witness in report.witnesses],
        })
    else:
        print(f"map: {render_map(example)}")
        print(f"tuple sizes: {','.join(str(s) for s in report.tuple_sizes)}")
        print(f"trials: {report.trials} (seed {report.seed})")
        print(f"violations: {report.violations}")
        if report.expected_violation:
            print("note: a tuple size exceeds its part's ambient "
                  "dimension; violations are expected")
        for witness in report.witnesses:
            chunks = []
            for part, part_points in zip(map_parts(example), witness.points):
                rendered = ", ".join(_render_point(part, p)
                                     for p in part_points)
                chunks.append(f"[{rendered}]")
            print(f"witness (trial {witness.trial}): {'; '.join(chunks)}")
        print(f"verdict: {report.verdict}")
    return EXIT_COUNTEREXAMPLE if report.violations else EXIT_OK


def _render_point(part, point) -> str:
    if isinstance(part, VandermondeMap):
        return f"({point[0]}) + ({point[1]})*i"
    return "(" + ", ".join(str(c) for c in point) + ")"


def _cmd_table(args) -> int:
    text = args.manifold.strip()
    if text.isdigit():
        spec = RealProj(int(text))
    else:
        parsed = parse_manifold(text)
        if not isinstance(parsed, RealProj):
            raise _UsageError("the table covers RP^m only")
        spec = parsed
    hits = projective_table_matches(spec.m)
    best = min(hits, key=lambda pair: pair[1], default=None)
    if args.json:
        _emit_json({
            "schema": "1",
            "manifold": render(spec),
            "rows": [{"condition": row.label, "ambient_dim": ambient}
                     for row, ambient in hits],
            "best": None if best is None else {"condition": best[0].label,
                                               "ambient_dim": best[1]},
        })
        return EXIT_OK
    if not hits:
        print(f"no tabulated 3-regular construction for {render(spec)}")
        return EXIT_OK
    print(f"3-regular constructions for {render(spec)}:")
    for row, ambient in hits:
        print(f"  {row.label}: R^{ambient}")
    row, ambient = best
    print(f"best: R^{ambient} [{row.label}]")
    return EXIT_OK


@functools.cache
def build_parser() -> _ArgumentParser:
    """The argparse tree, built on first use and shared by every call."""
    parser = _ArgumentParser(
        prog="kregular",
        description="Bounds and checks for k-regular maps.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_bound = sub.add_parser("bound", help="lower bound for an expression")
    p_bound.add_argument("expression",
                         help="manifold like 'S^3 x RP^5' or query like "
                              "'(S^3, 2) + (R^2, 4)'")
    p_bound.add_argument("--regime", choices=("real", "complex"),
                         default="real")
    p_bound.add_argument("--json", action="store_true")
    p_bound.set_defaults(handler=_cmd_bound)

    p_dual = sub.add_parser("dual-sw", help="dual class of a manifold")
    p_dual.add_argument("expression")
    p_dual.add_argument("--json", action="store_true")
    p_dual.set_defaults(handler=_cmd_dual_sw)

    p_height = sub.add_parser("height",
                              help="height of the first class in "
                                   "H*(G_k(F^(n+1)))")
    p_height.add_argument("--k", type=int, required=True)
    p_height.add_argument("--n", type=int, required=True)
    p_height.add_argument("--regime", choices=("complex", "real"),
                          default="complex")
    p_height.add_argument("--json", action="store_true")
    p_height.set_defaults(handler=_cmd_height)

    p_lucas = sub.add_parser("lucas", help="binomial coefficient mod p")
    p_lucas.add_argument("n", type=int)
    p_lucas.add_argument("k", type=int)
    p_lucas.add_argument("--p", type=int, required=True)
    p_lucas.add_argument("--json", action="store_true")
    p_lucas.set_defaults(handler=_cmd_lucas)

    p_verify = sub.add_parser("verify",
                              help="randomized regularity check of an "
                                   "example map")
    p_verify.add_argument("map",
                          help="e.g. vandermonde:3, sphere:4, or "
                               "vandermonde:2+sphere:3")
    p_verify.add_argument("--tuple", default=None,
                          help="comma-separated tuple sizes, one per part "
                               "(default: the claimed regularity)")
    p_verify.add_argument("--trials", type=int, default=1000)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--json", action="store_true")
    p_verify.set_defaults(handler=_cmd_verify)

    p_table = sub.add_parser("table",
                             help="3-regular constructions for RP^m")
    p_table.add_argument("manifold", help="RP^m or the bare integer m")
    p_table.add_argument("--json", action="store_true")
    p_table.set_defaults(handler=_cmd_table)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except (_UsageError, ValueError) as exc:
        # ParseError and UnsupportedBundleError are ValueErrors.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
