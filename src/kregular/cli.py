"""Command line interface.

Subcommands: bound (lower bounds for expressions), dual-sw (dual class of a
manifold), height (first-class height in a Grassmannian quotient), lucas
(binomial mod p), verify (randomized regularity checks), table (3-regular
projective constructions).  All output is ASCII.

Each subcommand's handler returns one payload dict, and `main` alone writes
it: --json prints it as one deterministic JSON object, and otherwise the
subcommand's text renderer turns the same payload into lines.  The text
therefore shows nothing the JSON lacks.

Exit codes: 0 success, 1 usage/parse/semantic errors, 3 a randomized check
found a counterexample (the payload's verdict); 2 is unused.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Optional, Sequence

from .bounds import RegularQuery, bound_disjoint, projective_table_matches
from .expr import parse_expression, parse_manifold, render_query
from .fields import lucas_binom_mod_p
from .grassmann import CHERN, STIEFEL_WHITNEY, cached_presentation
from .manifolds import (RealProj, dual_sw, render,
                        top_dual_degree_closed_form)
from .sampler import map_parts, parse_map, render_map, sample_check_regular

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_COUNTEREXAMPLE = 3


class _UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    # Raise instead of sys.exit so main() can map usage problems to code 1.
    def error(self, message):
        raise _UsageError(message)


def _cmd_bound(args) -> dict:
    parsed = parse_expression(args.expression, args.regime)
    # A bare product X is the query (X, 2) in either regime.
    query = (parsed if isinstance(parsed, RegularQuery)
             else RegularQuery(((parsed, 2),), args.regime))
    report = bound_disjoint(query)
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
        "breakdown": [{
            "piece": render(piece.spec),
            "points": piece.points,
            "top_degree": piece.top_degree,
            "contribution": piece.contribution,
            "lower_bound_only": piece.is_lower_bound,
            "source": piece.source,
        } for piece in report.breakdown],
        "tightness": tightness,
    }


def _text_bound(payload: dict) -> list:
    lines = [f"N >= {payload['bound']} ({payload['theorem']})"]
    for piece in payload["breakdown"]:
        qualifier = ">=" if piece["lower_bound_only"] else "="
        lines.append(f"  {piece['piece']}, k={piece['points']}: top degree "
                     f"{qualifier} {piece['top_degree']}, contributes "
                     f"{piece['contribution']} [{piece['source']}]")
    tightness = payload["tightness"]
    if tightness is not None:
        lead = ("tight: construction in" if tightness["tight"]
                else "best known construction:")
        lines.append(f"{lead} R^{tightness['ambient_dim']} "
                     f"[{tightness['source']}]")
    return lines


def _cmd_dual_sw(args) -> dict:
    spec = parse_manifold(args.expression)
    dual = dual_sw(spec)
    return {
        "schema": "1",
        "manifold": render(spec),
        "dual_class": dual.render(),
        "top_degree_series": dual.top_degree(),
        "top_degree_closed_form":
            top_dual_degree_closed_form(spec).top_degree,
    }


def _text_dual_sw(payload: dict) -> list:
    return [f"manifold: {payload['manifold']}",
            f"dual class: {payload['dual_class']}",
            f"top degree (series inversion): {payload['top_degree_series']}",
            f"top degree (closed form): {payload['top_degree_closed_form']}"]


def _cmd_height(args) -> dict:
    classes = CHERN if args.regime == "complex" else STIEFEL_WHITNEY
    pres = cached_presentation(args.k, args.n, classes)
    return {
        "schema": "1",
        "k": args.k,
        "n": args.n,
        "regime": args.regime,
        "element": pres.ring.names[0],
        "height": pres.first_class_height(),
        "truncation": pres.ring.truncation,
    }


def _cmd_lucas(args) -> dict:
    return {
        "schema": "1",
        "n": args.n,
        "k": args.k,
        "p": args.p,
        "binomial_mod_p": lucas_binom_mod_p(args.n, args.k, args.p),
    }


def _cmd_verify(args) -> dict:
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
    return {
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
            "points": [[[str(c) for c in point] for point in part_points]
                       for part_points in witness.points],
        } for witness in report.witnesses],
    }


def _text_verify(payload: dict) -> list:
    sizes = ",".join(str(s) for s in payload["tuple_sizes"])
    lines = [f"map: {payload['map']}",
             f"tuple sizes: {sizes}",
             f"trials: {payload['trials']} (seed {payload['seed']})",
             f"violations: {payload['violations']}"]
    if payload["expected_violation"]:
        lines.append("note: a tuple size exceeds its part's ambient "
                     "dimension; violations are expected")
    parts = map_parts(parse_map(payload["map"]))
    for witness in payload["witnesses"]:
        chunks = []
        for part, part_points in zip(parts, witness["points"]):
            rendered = ", ".join(map(part.render_point, part_points))
            chunks.append(f"[{rendered}]")
        lines.append(f"witness (trial {witness['trial']}): "
                     f"{'; '.join(chunks)}")
    lines.append(f"verdict: {payload['verdict']}")
    return lines


def _cmd_table(args) -> dict:
    text = args.manifold.strip()
    # ASCII only, as in expr: isdigit() also takes superscripts like '\xb2'.
    if text.isascii() and text.isdigit():
        spec = RealProj(int(text))
    else:
        parsed = parse_manifold(text)
        if not isinstance(parsed, RealProj):
            raise _UsageError("the table covers RP^m only")
        spec = parsed
    hits = projective_table_matches(spec.m)
    best = min(hits, key=lambda pair: pair[1], default=None)
    return {
        "schema": "1",
        "manifold": render(spec),
        "rows": [{"condition": row.label, "ambient_dim": ambient}
                 for row, ambient in hits],
        "best": None if best is None else {"condition": best[0].label,
                                           "ambient_dim": best[1]},
    }


def _text_table(payload: dict) -> list:
    if not payload["rows"]:
        return [f"no tabulated 3-regular construction for "
                f"{payload['manifold']}"]
    return [f"3-regular constructions for {payload['manifold']}:",
            *(f"  {row['condition']}: R^{row['ambient_dim']}"
              for row in payload["rows"]),
            f"best: R^{payload['best']['ambient_dim']} "
            f"[{payload['best']['condition']}]"]


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
    p_bound.set_defaults(handler=_cmd_bound, text=_text_bound)

    p_dual = sub.add_parser("dual-sw", help="dual class of a manifold")
    p_dual.add_argument("expression")
    p_dual.set_defaults(handler=_cmd_dual_sw, text=_text_dual_sw)

    p_height = sub.add_parser("height",
                              help="height of the first class in "
                                   "H*(G_k(F^(n+1)))")
    p_height.add_argument("--k", type=int, required=True)
    p_height.add_argument("--n", type=int, required=True)
    p_height.add_argument("--regime", choices=("complex", "real"),
                          default="complex")
    p_height.set_defaults(handler=_cmd_height,
                          text=lambda payload: [payload["height"]])

    p_lucas = sub.add_parser("lucas", help="binomial coefficient mod p")
    p_lucas.add_argument("n", type=int)
    p_lucas.add_argument("k", type=int)
    p_lucas.add_argument("--p", type=int, required=True)
    p_lucas.set_defaults(handler=_cmd_lucas,
                         text=lambda payload: [payload["binomial_mod_p"]])

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
    p_verify.set_defaults(handler=_cmd_verify, text=_text_verify)

    p_table = sub.add_parser("table",
                             help="3-regular constructions for RP^m")
    p_table.add_argument("manifold", help="RP^m or the bare integer m")
    p_table.set_defaults(handler=_cmd_table, text=_text_table)

    # Added last so every -h lists it after the command's own options.
    for command in sub.choices.values():
        command.add_argument("--json", action="store_true")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        payload = args.handler(args)
    except (_UsageError, ValueError) as exc:
        # ParseError and UnsupportedBundleError are ValueErrors.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.json:
        print(json.dumps(payload))
    else:
        for line in args.text(payload):
            print(line)
    if payload.get("verdict") == "counterexample":
        return EXIT_COUNTEREXAMPLE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
