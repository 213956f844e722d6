"""Command line interface.

Subcommands: bound (lower bounds for expressions), dual-sw (dual class of a
manifold), height (first-class height in a Grassmannian quotient), lucas
(binomial mod p), verify (randomized regularity checks), table (3-regular
projective constructions).  All output is ASCII.

One table, `COMMANDS`, describes the grammar: for each subcommand its
handler, its text renderer, its positionals and its options, each with its
type (int or text) or choices, its default and whether it is required.
`EVERY_COMMAND` lists the options all subcommands take (--json).  Building
the table chooses each argument's reader once: `_int`, a choice check, or
the text itself (a flag has none).  `main` reads argv against the table in
one pass and generates -h/--help from it.  Options take exact names, as
`--name value` or `--name=value`, anywhere after the subcommand; the last
of a repeated option wins.  The usual `--name value` costs one lookup in
the subcommand's `flags` and one reader call; only the rarer tokens
(`--name=value`, `--`, -h/--help, unknown options) are split at '='.

Each subcommand's handler returns one payload dict, and `main` alone writes
it: --json prints it as one deterministic JSON object, and otherwise the
subcommand's text renderer turns the same payload into lines (strings).
The text therefore shows nothing the JSON lacks.  The lines go out in one
write.

Exit codes: 0 success, 1 usage/parse/semantic errors, 3 a randomized check
found a counterexample (the payload's verdict); 2 is unused.
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace
from typing import Callable, Optional, Sequence

from .bounds import RegularQuery, bound_disjoint
from .bundles import projective_table_matches
from .expr import parse_expression, parse_manifold
from .fields import lucas_binom_mod_p
from .grassmann import cached_presentation, chern_height_of_first_class
from .manifolds import (RealProj, dual_sw, render, top_dual_degree,
                        top_dual_degree_closed_form)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_COUNTEREXAMPLE = 3


class _UsageError(Exception):
    pass


def _cmd_bound(args) -> dict:
    parsed = parse_expression(args.expression, args.regime)
    # A bare product X is the query (X, 2) in either regime.
    query = (parsed if isinstance(parsed, RegularQuery)
             else RegularQuery(((parsed, 2),), args.regime))
    report = bound_disjoint(query)
    tightness = None
    if report.construction is not None:
        tightness = {
            "ambient_dim": report.construction.ambient_dim,
            "source": report.construction.source,
            "tight": report.tight,
        }
    rows, shown = [], []
    for piece in report.breakdown:
        text = render(piece.spec)
        rows.append({
            "piece": text,
            "points": piece.points,
            "top_degree": piece.top_degree,
            "contribution": piece.contribution,
            "lower_bound_only": piece.is_lower_bound,
            "source": piece.source,
        })
        shown.append(f"({text}, {piece.points})")
    return {
        "schema": "1",
        "query": " + ".join(shown),
        "regime": query.regime,
        "bound": report.bound,
        "theorem": report.theorem,
        "breakdown": rows,
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
    # The per-factor degree keeps its schema "1" key and text label ("series
    # inversion"), though it is read off Lucas's theorem.
    spec = parse_manifold(args.expression)
    return {
        "schema": "1",
        "manifold": render(spec),
        "dual_class": dual_sw(spec).render(),
        "top_degree_series": top_dual_degree(spec).top_degree,
        "top_degree_closed_form":
            top_dual_degree_closed_form(spec).top_degree,
    }


def _text_dual_sw(payload: dict) -> list:
    return [f"manifold: {payload['manifold']}",
            f"dual class: {payload['dual_class']}",
            f"top degree (series inversion): {payload['top_degree_series']}",
            f"top degree (closed form): {payload['top_degree_closed_form']}"]


def _cmd_height(args) -> dict:
    k, n = args.k, args.n
    # Chern classes sit in even degrees (|c1| = 2), Stiefel-Whitney classes
    # in every degree; the truncation is one first-class degree past the
    # top degree scale*k(n+1-k).
    if args.regime == "complex":
        element, scale = "c1", 2
        height = chern_height_of_first_class(k, n)
    else:
        element, scale = "w1", 1
        height = cached_presentation(k, n).first_class_height()
    return {
        "schema": "1",
        "k": k,
        "n": n,
        "regime": args.regime,
        "element": element,
        "height": height,
        "truncation": scale * (k * (n + 1 - k) + 1),
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
    # The sampler (and random) load here, not with the module: no other
    # subcommand needs them.  Witness points print from their integer
    # columns, so no Fraction is built.
    from .sampler import (map_parts, parse_map, render_map,
                          sample_check_regular)
    example = parse_map(args.map)
    sizes: Optional[tuple[int, ...]] = None
    if args.tuple is not None:
        chunks = args.tuple.split(",")
        if not all(map(_is_int, chunks)):
            raise _UsageError(f"bad tuple sizes {args.tuple!r}; want a "
                              "comma-separated list of integers")
        sizes = tuple(_int("--tuple", chunk) for chunk in chunks)
    report = sample_check_regular(example, sizes, trials=args.trials,
                                  seed=args.seed)
    parts = map_parts(example)
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
            "points": [list(map(part.point_text, columns))
                       for part, columns in zip(parts, witness.points)],
        } for witness in report.witnesses],
    }


def _text_verify(payload: dict) -> list:
    from .sampler import map_parts, parse_map
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
    # A signed integer goes to RealProj too, which rejects -3 as it does 0.
    if _is_int(text):
        spec = RealProj(_int("manifold", text))
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


def _arg(name: str, convert: Optional[Callable] = str, choices: tuple = (),
         default: object = None, required: bool = False,
         help: str = "") -> SimpleNamespace:
    """One positional, or one option spelled `--name` on the command line.

    `convert` is the argument's type (`int` or `str`); an option whose
    `convert` is None is a flag, which takes no value and reads True when
    given.  A text argument with non-empty `choices` refuses any other
    value.  `read(label, text)`, chosen here once, turns the argument's
    text into its value (None for a flag).
    """
    if convert is None:
        read = None
    elif choices:
        read = _choice(choices)
    else:
        read = _int if convert is int else _text
    return SimpleNamespace(name=name, convert=convert, choices=choices,
                           default=default, required=required, help=help,
                           read=read)


def _command(help: str, handler: Callable, text: Callable,
             positionals: tuple = (), options: tuple = ()) -> SimpleNamespace:
    """One subcommand and what parsing derives from its options once.

    `flags` is the `--flag` lookup over its options and EVERY_COMMAND's,
    `defaults` holds the optional ones' defaults and `required` the
    (flag, name) pairs of the required ones.  `arity` counts every name a
    complete argv sets, so a shorter result means something is missing.
    """
    flags = {f"--{option.name}": option
             for option in options + EVERY_COMMAND}
    names = [arg.name for arg in positionals + options + EVERY_COMMAND]
    if len(set(names)) != len(names):
        raise ValueError(f"argument names repeat: {names}")
    return SimpleNamespace(
        help=help, handler=handler, text=text, positionals=positionals,
        options=options, flags=flags, arity=len(names),
        defaults={option.name: option.default
                  for option in flags.values() if not option.required},
        required=[(flag, option.name) for flag, option in flags.items()
                  if option.required])


def _is_int(text: str) -> bool:
    """Whether an argument is an integer: ASCII digits after at most one sign.

    Every integer argument meets this rule before int(), which also reads
    other scripts' digits, '_' and surrounding spaces; isdigit() alone also
    takes superscript digits.
    """
    digits = text[1:] if text[:1] in "+-" else text
    return digits.isdigit() and digits.isascii()


def _int(label: str, text: str) -> int:
    """The integer an argument spells, or a usage error naming `label`."""
    # _is_int, written out: this runs for every integer argument.
    digits = text[1:] if text[:1] in "+-" else text
    if not (digits.isdigit() and digits.isascii()):
        raise _UsageError(f"{label}: invalid int value {text!r}")
    try:
        return int(text)
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        raise _UsageError(f"{label}: integer too long "
                          f"({len(text.lstrip('+-'))} digits)") from None


def _text(label: str, text: str) -> str:
    return text


def _choice(choices: tuple) -> Callable:
    """The reader of a text argument that must be one of `choices`."""
    def read(label: str, text: str) -> str:
        if text not in choices:
            raise _UsageError(f"{label}: invalid choice {text!r} (choose "
                              f"from {', '.join(choices)})")
        return text
    return read


# The command table: every subcommand's handler, text renderer and
# arguments, and the options that every subcommand accepts.  Parsing and
# -h/--help both read it.
EVERY_COMMAND = (
    _arg("json", None, default=False,
         help="print the payload as one JSON object"),
)

COMMANDS = {
    "bound": _command(
        "lower bound for an expression", _cmd_bound, _text_bound,
        (_arg("expression", help="manifold like 'S^3 x RP^5' or query "
                                 "like '(S^3, 2) + (R^2, 4)'"),),
        (_arg("regime", choices=("real", "complex"), default="real"),)),
    "dual-sw": _command(
        "dual class of a manifold", _cmd_dual_sw, _text_dual_sw,
        (_arg("expression", help="manifold like 'S^2 x RP^3'"),)),
    "height": _command(
        "height of the first class in H*(G_k(F^(n+1)))", _cmd_height,
        lambda payload: [str(payload["height"])], (),
        (_arg("k", int, required=True),
         _arg("n", int, required=True),
         _arg("regime", choices=("complex", "real"), default="complex"))),
    "lucas": _command(
        "binomial coefficient mod p", _cmd_lucas,
        lambda payload: [str(payload["binomial_mod_p"])],
        (_arg("n", int), _arg("k", int)),
        (_arg("p", int, required=True),)),
    "verify": _command(
        "randomized regularity check of an example map", _cmd_verify,
        _text_verify,
        (_arg("map", help="e.g. vandermonde:3, sphere:4, or "
                          "vandermonde:2+sphere:3"),),
        (_arg("tuple", help="comma-separated tuple sizes, one per part "
                            "(default: the claimed regularity)"),
         _arg("trials", int, default=1000),
         _arg("seed", int, default=0))),
    "table": _command(
        "3-regular constructions for RP^m", _cmd_table, _text_table,
        (_arg("manifold", help="RP^m or the bare integer m"),)),
}

_HELP = ("-h", "--help")


def _names_option(token: str) -> bool:
    """Whether a token is an option name rather than a value.

    A token that starts with '-' names an option unless it is '-' alone,
    holds a space, as an expression may, or has a digit after the '-', in
    any script.  So `lucas -5 2` and `--seed -5` pass numbers, and a
    malformed number, in another script's digits say, reaches its reader,
    which names it.
    """
    return (token[:1] == "-" and token != "-" and " " not in token
            and not token[1:2].isdigit())


def _parse(argv: Sequence[str]) -> tuple:
    """(command name, arguments) for argv, read in one pass over the table.

    The arguments are None when argv asks for help, and the name too when
    it asks for the top-level help.  Options may come anywhere after the
    subcommand as `--name value` or `--name=value`, the last one given
    wins, and every token after `--` is a positional.

    A token that spells an option takes one `flags` lookup, and its value
    goes straight to the option's reader; a value is checked against
    `_names_option` only when it starts with '-'.  Only `--name=value`,
    `--`, -h/--help and unknown options are split at '='.
    """
    if not argv:
        raise _UsageError(f"a command is required (choose from "
                          f"{', '.join(COMMANDS)})")
    name = argv[0]
    if name in _HELP:
        return None, None
    command = COMMANDS.get(name)
    if command is None:
        raise _UsageError(f"invalid command {name!r} (choose from "
                          f"{', '.join(COMMANDS)})")
    flags = command.flags
    values = dict(command.defaults)
    slots = iter(command.positionals)
    tokens = iter(argv[1:])
    for token in tokens:
        option = flags.get(token)
        if option is None:
            if token[:1] == "-" and _names_option(token):
                if token == "--":
                    break
                if token in _HELP:
                    return name, None
                # Not a flag itself, so a known flag here has an '='.
                flag, _, text = token.partition("=")
                option = flags.get(flag)
                if option is None:
                    raise _UsageError(f"unknown option {flag!r} for {name}")
                if option.read is None:
                    raise _UsageError(f"{flag} takes no value, got {text!r}")
                values[option.name] = option.read(flag, text)
            else:
                _read_positional(name, slots, values, token)
        elif option.read is None:
            values[option.name] = True
        else:
            text = next(tokens, None)
            if text is None or text[:1] == "-" and _names_option(text):
                raise _UsageError(f"{token} expects a value")
            values[option.name] = option.read(token, text)
    for token in tokens:  # every token after '--'
        _read_positional(name, slots, values, token)
    if len(values) < command.arity:
        missing = [arg.name for arg in slots]
        missing += [flag for flag, key in command.required
                    if key not in values]
        raise _UsageError(f"{name} requires {', '.join(missing)}")
    return name, SimpleNamespace(**values)


def _read_positional(name: str, slots, values: dict, token: str) -> None:
    """Fill the next open positional of command `name` from `token`."""
    arg = next(slots, None)
    if arg is None:
        raise _UsageError(f"unexpected argument {token!r} for {name}")
    values[arg.name] = arg.read(arg.name, token)


def _metavar(arg: SimpleNamespace) -> str:
    if arg.choices:
        return "{" + ",".join(arg.choices) + "}"
    return "INT" if arg.convert is int else "TEXT"


def _help(name: Optional[str]) -> str:
    """-h/--help text: the subcommands, or one subcommand's arguments."""
    if name is None:
        width = max(map(len, COMMANDS))
        return "\n".join([
            "usage: kregular <command> [arguments]", "",
            "Bounds and checks for k-regular maps.", "", "commands:",
            *(f"  {each:<{width}}  {command.help}"
              for each, command in COMMANDS.items()),
            "", "Run 'kregular <command> -h' for a command's arguments."])
    command = COMMANDS[name]
    usage = [f"usage: kregular {name}"]
    rows = []
    for arg in command.positionals:
        usage.append(arg.name)
        rows.append((arg.name, arg.help or _metavar(arg)))
    for flag, option in command.flags.items():
        shown = (flag if option.convert is None
                 else f"{flag} {_metavar(option)}")
        usage.append(shown if option.required else f"[{shown}]")
        notes = [option.help] if option.help else []
        if option.required:
            notes.append("(required)")
        elif option.convert is not None and option.default is not None:
            notes.append(f"(default: {option.default})")
        rows.append((shown, " ".join(notes)))
    width = max(len(label) for label, _ in rows)
    return "\n".join([
        " ".join(usage), "", command.help, "", "arguments:",
        *(f"  {label:<{width}}  {note}".rstrip() for label, note in rows)])


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        name, args = _parse(sys.argv[1:] if argv is None else argv)
        if args is not None:
            command = COMMANDS[name]
            payload = command.handler(args)
    except (_UsageError, ValueError) as exc:
        # ParseError and UnsupportedBundleError are ValueErrors.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args is None:
        lines, code = [_help(name)], EXIT_OK
    else:
        if args.json:
            import json
            lines = [json.dumps(payload)]
        else:
            lines = command.text(payload)
        code = (EXIT_COUNTEREXAMPLE
                if payload.get("verdict") == "counterexample" else EXIT_OK)
    try:
        # One write for the whole output; the empty tail ends the last line.
        sys.stdout.write("\n".join([*lines, ""]))
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout, as `| head` does, and wants no more.
        # Point stdout at devnull so the interpreter's exit flush is quiet.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


if __name__ == "__main__":
    sys.exit(main())
