"""CLI surface: pinned text output, JSON determinism, exit codes."""

import ast
import json
import os
import random
import shlex
import string
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import kregular
from kregular import cached_presentation, dual_sw, parse_manifold, parse_map
from kregular.cli import (COMMANDS, EVERY_COMMAND, EXIT_COUNTEREXAMPLE,
                          EXIT_OK, EXIT_USAGE, main)
from rank_oracles import witness_rank


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# bound

def test_bound_hp2_text(capsys):
    code, out, _ = run_cli(capsys, "bound", "HP^2")
    assert code == EXIT_OK
    assert out.splitlines()[0] == "N >= 14 (Main Theorem I)"


def test_bound_rp5_reports_tightness(capsys):
    code, out, _ = run_cli(capsys, "bound", "RP^5")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "N >= 9 (Main Theorem I)"
    assert any(line.startswith("tight: construction in R^9")
               for line in lines)


def test_bound_query_text(capsys):
    code, out, _ = run_cli(capsys, "bound", "(S^3, 2) + (R^2, 4)")
    assert code == EXIT_OK
    assert out.splitlines()[0] == "N >= 12 (Main Theorem II)"


def test_bound_complex(capsys):
    code, out, _ = run_cli(capsys, "bound", "(CP^4, 2)",
                           "--regime", "complex")
    assert code == EXIT_OK
    assert out.splitlines()[0] == "N >= 8 (complex two-point lower bound)"
    assert ">=" in out.splitlines()[1]  # CP^m is only bounded below


def test_bound_json_schema_and_determinism(capsys):
    code, out1, _ = run_cli(capsys, "bound", "HP^2", "--json")
    assert code == EXIT_OK
    _, out2, _ = run_cli(capsys, "bound", "HP^2", "--json")
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["schema"] == "1"
    assert payload["bound"] == 14
    assert payload["theorem"] == "Main Theorem I"
    assert payload["query"] == "(HP^2, 2)"
    assert payload["breakdown"][0]["contribution"] == 14
    assert payload["tightness"] is None


def test_bound_rejects_bad_expressions(capsys):
    code, _, err = run_cli(capsys, "bound", "RP^1")
    assert code == EXIT_USAGE
    assert "error" in err
    code, _, _ = run_cli(capsys, "bound", "not a manifold")
    assert code == EXIT_USAGE
    code, _, _ = run_cli(capsys, "bound", "(R^3, 2)")
    assert code == EXIT_USAGE


def test_bound_bare_product_is_the_two_point_query(capsys):
    # A bare product X is the query (X, 2) in both regimes, open X too.
    for regime in ("real", "complex"):
        for text in ("R^2", "S^3", "S^2 x RP^3"):
            for extra in ((), ("--json",)):
                bare = run_cli(capsys, "bound", text, "--regime", regime,
                               *extra)
                query = run_cli(capsys, "bound", f"({text}, 2)",
                                "--regime", regime, *extra)
                assert bare == query, (regime, text, extra)
    code, out, _ = run_cli(capsys, "bound", "R^2")
    assert code == EXIT_OK
    assert out.splitlines()[0] == "N >= 3 (Main Theorem II)"
    for text in ("R^3", "R^2 x S^3"):
        code, out, err = run_cli(capsys, "bound", text)
        assert code == EXIT_USAGE and out == ""
        assert err == (f"error: ({text}, 2) has no real-regime rule "
                       "(closed specs need exactly two points)\n")


def test_bound_accepts_glued_product_separator(capsys):
    spaced = run_cli(capsys, "bound", "S^2 x RP^3")
    assert spaced[0] == EXIT_OK
    for text in ("S^2xRP^3", "S^2 xRP^3"):
        assert run_cli(capsys, "bound", text) == spaced, text


# ---------------------------------------------------------------------------
# README examples

README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_blocks(language: str) -> list:
    """Bodies of the README's fenced blocks opened with this language tag."""
    blocks, body = [], None
    for line in README.read_text(encoding="utf-8").splitlines():
        if body is None:
            if line == "```" + language:
                body = []
        elif line == "```":
            blocks.append(body)
            body = None
        else:
            body.append(line)
    return blocks


def _readme_cli_examples() -> list:
    """(argv, expected stdout) for every '$ kregular ...' line."""
    examples = []
    for block in _readme_blocks(""):
        output = None
        for line in block:
            if line.startswith("$ "):
                assert line.startswith("$ kregular "), line
                output = []
                examples.append((shlex.split(line)[2:], output))
            elif output is not None:
                output.append(line)
    return [(argv, "\n".join(lines).rstrip("\n") + "\n")
            for argv, lines in examples]


def test_readme_cli_examples(capsys):
    examples = _readme_cli_examples()
    assert len(examples) == 8
    for argv, expected in examples:
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (EXIT_OK, expected, ""), argv


def test_readme_library_block():
    # Statements run in order; an expression line ending in '# value'
    # must evaluate to something whose repr is that value.
    (block,) = _readme_blocks("python")
    source = "\n".join(block)
    namespace: dict = {}
    checked = 0
    for node in ast.parse(source).body:
        code = ast.get_source_segment(source, node)
        if not isinstance(node, ast.Expr):
            exec(code, namespace)
            continue
        line = block[node.end_lineno - 1]
        _, _, comment = line.partition("#")
        assert comment, f"README library line {line!r} has no value"
        assert repr(eval(code, namespace)) == comment.strip(), line
        checked += 1
    assert checked == 4


# ---------------------------------------------------------------------------
# dual-sw

def test_dual_sw_text(capsys):
    code, out, _ = run_cli(capsys, "dual-sw", "RP^5")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert "dual class: 1 + a^2" in lines
    assert "top degree (series inversion): 2" in lines
    assert "top degree (closed form): 2" in lines


def test_dual_sw_json(capsys):
    code, out, _ = run_cli(capsys, "dual-sw", "S^2 x RP^3", "--json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["manifold"] == "S^2 x RP^3"
    assert payload["dual_class"] == "1"
    assert payload["top_degree_series"] == 0


def test_dual_sw_series_degree_is_the_joint_class_degree(capsys):
    # The payload's per-factor degree (labelled "series" since schema "1")
    # equals the top degree of the whole dual class in the tests' ring.
    from test_manifolds import as_series
    rng = random.Random(2025)
    for _ in range(60):
        text = " x ".join(
            f"{rng.choice(('S', 'RP', 'RP', 'CP', 'HP', 'R'))}^"
            f"{rng.randint(2, 12)}" for _ in range(rng.randint(1, 3)))
        code, out, _ = run_cli(capsys, "dual-sw", text, "--json")
        assert code == EXIT_OK, text
        spec = parse_manifold(text)
        assert (json.loads(out)["top_degree_series"]
                == as_series(dual_sw(spec), spec).top_degree()), text


def _cli_subprocess(*argv):
    # A subprocess with a timeout: a regression to work quadratic in m then
    # fails the test instead of hanging the suite.
    return subprocess.run([sys.executable, "-m", "kregular.cli", *argv],
                          capture_output=True, text=True, timeout=20,
                          env=_fresh_process_env())


def test_bound_answers_a_large_projective_factor():
    proc = _cli_subprocess("bound", "RP^2000000")
    assert proc.returncode == EXIT_OK, proc.stderr
    assert proc.stdout.splitlines()[0] == "N >= 2097153 (Main Theorem I)"


def test_dual_sw_lists_a_large_projective_factor():
    # 2^27 - 10^8 - 1 = 34217727 leaves 15 binary digits set: 2^15 terms.
    proc = _cli_subprocess("dual-sw", "RP^100000000", "--json")
    assert proc.returncode == EXIT_OK, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["top_degree_series"] == 34217727
    assert payload["top_degree_closed_form"] == 34217727
    assert len(payload["dual_class"].split(" + ")) == 32768
    assert payload["dual_class"].endswith(" + a^34217727")


def test_verify_counts_an_over_full_part():
    # Nine points of S^6 in R^8 are dependent in every trial: the count is
    # the verdict, and only the witnesses' trials are drawn.
    argv = ("verify", "sphere:6", "--tuple", "9", "--json")
    many = _cli_subprocess(*argv, "--trials", "200000")
    assert many.returncode == EXIT_COUNTEREXAMPLE, many.stderr
    payload = json.loads(many.stdout)
    assert payload["violations"] == 200000
    assert payload["expected_violation"]
    few = _cli_subprocess(*argv, "--trials", "3")
    assert few.returncode == EXIT_COUNTEREXAMPLE, few.stderr
    assert payload["witnesses"] == json.loads(few.stdout)["witnesses"]
    assert len(payload["witnesses"]) == 3


# ---------------------------------------------------------------------------
# height

def test_height_text(capsys):
    code, out, err = run_cli(capsys, "height", "--k", "2", "--n", "5")
    assert code == EXIT_OK
    assert out == "8\n"
    assert err == ""


def test_height_json(capsys):
    code, out, _ = run_cli(capsys, "height", "--k", "1", "--n", "4",
                           "--regime", "real", "--json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["height"] == 4
    assert payload["element"] == "w1"
    # The complex payload comes from the box size alone: no presentation
    # is built.
    cached = cached_presentation.cache_info().currsize
    code, out, _ = run_cli(capsys, "height", "--k", "2", "--n", "5", "--json")
    assert code == EXIT_OK
    assert json.loads(out) == {"schema": "1", "k": 2, "n": 5,
                               "regime": "complex", "element": "c1",
                               "height": 8, "truncation": 18}
    assert cached_presentation.cache_info().currsize == cached


def test_height_trunc_option_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "height", "--k", "2", "--n", "5",
                             "--trunc", "14")
    assert code == EXIT_USAGE
    assert out == ""
    assert "--trunc" in err


def test_height_impossible_truncation_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, "height", "--k", "2", "--n", "5",
                         "--trunc", "4")
    assert code == EXIT_USAGE


# ---------------------------------------------------------------------------
# lucas

def test_lucas_text(capsys):
    code, out, _ = run_cli(capsys, "lucas", "7", "3", "--p", "2")
    assert code == EXIT_OK
    assert out == "1\n"
    # An integer may carry one sign.
    assert run_cli(capsys, "lucas", "+7", "3", "--p=+2") == (code, out, "")


def test_lucas_json(capsys):
    code, out, _ = run_cli(capsys, "lucas", "100", "50", "--p", "3", "--json")
    assert code == EXIT_OK
    assert json.loads(out)["binomial_mod_p"] == 0


def test_lucas_composite_modulus(capsys):
    code, _, err = run_cli(capsys, "lucas", "7", "3", "--p", "6")
    assert code == EXIT_USAGE
    assert "prime" in err


# ---------------------------------------------------------------------------
# verify

def test_verify_vandermonde_ok(capsys):
    code, out, _ = run_cli(capsys, "verify", "vandermonde:3",
                           "--trials", "25")
    assert code == EXIT_OK
    assert "verdict: no-violation-found" in out


def test_verify_oversize_tuple_counterexample(capsys):
    code, out, _ = run_cli(capsys, "verify", "sphere:2", "--tuple", "5",
                           "--trials", "5")
    assert code == EXIT_COUNTEREXAMPLE
    assert "violations are expected" in out
    assert "witness (trial 0):" in out


def test_verify_json_deterministic(capsys):
    args = ("verify", "sphere:3", "--trials", "20", "--seed", "7", "--json")
    code, out1, _ = run_cli(capsys, *args)
    assert code == EXIT_OK
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["verdict"] == "no-violation-found"


def test_verify_json_schema_2(capsys):
    code, out, _ = run_cli(capsys, "verify", "vandermonde:2",
                           "--trials", "10", "--json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["schema"] == "2"
    assert "min_singular_ratio" not in payload


def test_verify_mixed_direct_sum_exits_ok(capsys):
    code, out, _ = run_cli(capsys, "verify", "vandermonde:8+sphere:2",
                           "--trials", "300")
    assert code == EXIT_OK
    assert "violations: 0" in out.splitlines()


def test_verify_expects_violations_only_above_part_dimension(capsys):
    # 9 plane points may span R^15, so nothing is expected of them.
    argv = ("verify", "vandermonde:8+sphere:2", "--tuple", "9,3",
            "--trials", "3")
    code, out, _ = run_cli(capsys, *argv)
    assert code == EXIT_OK
    assert "note:" not in out
    code, out, _ = run_cli(capsys, *argv, "--json")
    assert code == EXIT_OK
    assert json.loads(out)["expected_violation"] is False


def test_verify_mixed_witnesses_recheck_exactly(capsys):
    text = "vandermonde:4+sphere:2"
    code, out, _ = run_cli(capsys, "verify", text, "--tuple", "9,3",
                           "--trials", "5", "--json")
    assert code == EXIT_COUNTEREXAMPLE
    witnesses = json.loads(out)["witnesses"]
    assert len(witnesses) == 3
    for witness in witnesses:
        points = [[tuple(Fraction(c) for c in point) for point in part]
                  for part in witness["points"]]
        rank, wanted = witness_rank(parse_map(text), points)
        assert wanted == 12 and rank < wanted
    code, out, _ = run_cli(capsys, "verify", text, "--tuple", "9,3",
                           "--trials", "1")
    sphere_chunk = out.splitlines()[-2].split("; ")[1]
    assert sphere_chunk.startswith("[(") and "." not in sphere_chunk


def test_verify_witness_text_pins_both_families(capsys):
    code, out, _ = run_cli(capsys, "verify", "vandermonde:4+sphere:2",
                           "--tuple", "9,3", "--trials", "1")
    assert code == EXIT_COUNTEREXAMPLE
    plane = ("(34/7) + (-54/5)*i, (60/7) + (13/8)*i, (27/4) + (-29/5)*i, "
             "(-29/2) + (0)*i, (15/2) + (-23/3)*i, (28) + (26/7)*i, "
             "(4) + (29/4)*i, (2) + (-61/2)*i, (38) + (31/3)*i")
    sphere = "(2/7, -6/7, 3/7), (-4/9, -4/9, -7/9), (4/9, -4/9, 7/9)"
    assert out.splitlines() == [
        "map: vandermonde:4+sphere:2",
        "tuple sizes: 9,3",
        "trials: 1 (seed 0)",
        "violations: 1",
        "note: a tuple size exceeds its part's ambient dimension; "
        "violations are expected",
        f"witness (trial 0): [{plane}]; [{sphere}]",
        "verdict: counterexample",
    ]


def test_verify_sphere_oversized_output_is_pinned(capsys):
    # Literal goldens: the sampled points, the witnesses and the ranks that
    # judge them must not move when the exact rank routine changes.
    code, out, _ = run_cli(capsys, "verify", "sphere:3", "--tuple", "6",
                           "--trials", "5", "--seed", "1")
    assert code == EXIT_COUNTEREXAMPLE
    assert out == (
        "map: sphere:3\n"
        "tuple sizes: 6\n"
        "trials: 5 (seed 1)\n"
        "violations: 5\n"
        "note: a tuple size exceeds its part's ambient dimension; "
        "violations are expected\n"
        "witness (trial 0): [(96/173, -36/173, 96/173, 101/173), "
        "(18/43, -12/43, 15/43, 34/43), (-2/3, 4/21, -2/21, 5/7), "
        "(-128/241, 112/241, -128/241, 113/241), (24/49, 12/49, 0, 41/49), "
        "(-1/11, 2/11, 4/11, 10/11)]\n"
        "witness (trial 1): [(-24/49, -32/49, 24/49, -15/49), "
        "(-16/21, 0, 4/21, 13/21), (32/69, -16/69, 0, -59/69), "
        "(40/93, -20/31, -40/93, 43/93), (8/45, -32/45, 8/15, -19/45), "
        "(-70/111, 14/111, 28/37, 13/111)]\n"
        "witness (trial 2): [(-35/73, -30/73, 30/73, 48/73), "
        "(15/53, -30/53, 30/53, 28/53), (-28/65, -4/65, -32/65, 49/65), "
        "(2/35, -8/35, 2/5, 31/35), (-7/13, -2/13, 4/13, 10/13), "
        "(2/7, -6/35, 0, 33/35)]\n"
        "verdict: counterexample\n")


def test_verify_mixed_sum_json_is_pinned(capsys):
    code, out, _ = run_cli(capsys, "verify", "vandermonde:2+sphere:2",
                           "--tuple", "3,4", "--trials", "4", "--seed", "9",
                           "--json")
    assert code == EXIT_OK
    assert out == (
        '{"schema": "2", "map": "vandermonde:2+sphere:2", '
        '"tuple_sizes": [3, 4], "trials": 4, "seed": 9, "violations": 0, '
        '"verdict": "no-violation-found", "expected_violation": false, '
        '"witnesses": []}\n')


def test_verify_vandermonde_json_is_pinned(capsys):
    code, out, _ = run_cli(capsys, "verify", "vandermonde:8", "--trials",
                           "50", "--seed", "3", "--json")
    assert code == EXIT_OK
    assert out == (
        '{"schema": "2", "map": "vandermonde:8", "tuple_sizes": [8], '
        '"trials": 50, "seed": 3, "violations": 0, '
        '"verdict": "no-violation-found", "expected_violation": false, '
        '"witnesses": []}\n')


def test_verify_bad_tuple_list(capsys):
    code, _, err = run_cli(capsys, "verify", "vandermonde:2",
                           "--tuple", "2,x")
    assert code == EXIT_USAGE
    assert "tuple" in err


def test_verify_tuple_beyond_the_grid_exits_at_once(capsys):
    # sphere:2 draws from 1929 distinct points; a larger tuple once retried
    # forever.
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "verify", "sphere:2", "--tuple", "1930")
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_USAGE and out == ""
    assert "1929" in err


def test_verify_unknown_family(capsys):
    code, _, _ = run_cli(capsys, "verify", "torus:3")
    assert code == EXIT_USAGE


def test_verify_non_ascii_digits_are_bad_pieces(capsys):
    # str.isdigit() also takes superscripts and other scripts' digits.
    for text in ("sphere:\xb2", "sphere:٣", "vandermonde:１２"):
        code, out, err = run_cli(capsys, "verify", text, "--trials", "1")
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error: bad map piece")


# ---------------------------------------------------------------------------
# table

def test_table_text(capsys):
    code, out, _ = run_cli(capsys, "table", "RP^9")
    assert code == EXIT_OK
    assert "best: R^17" in out
    code2, out2, _ = run_cli(capsys, "table", "9")
    assert code2 == EXIT_OK
    assert out2 == out


def test_table_no_rows(capsys):
    code, out, _ = run_cli(capsys, "table", "RP^2")
    assert code == EXIT_OK
    assert "no tabulated" in out


def test_table_json(capsys):
    code, out, _ = run_cli(capsys, "table", "RP^9", "--json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["best"]["ambient_dim"] == 17
    assert len(payload["rows"]) == 2


def test_table_rejects_non_projective(capsys):
    code, _, _ = run_cli(capsys, "table", "S^3")
    assert code == EXIT_USAGE


def test_table_bare_integer_is_ascii_only(capsys):
    # Other Unicode digits go to the manifold parser, which rejects them.
    for text in ("\u0663", "\u00b2"):
        code, out, err = run_cli(capsys, "table", text)
        assert (code, out) == (EXIT_USAGE, "")
        assert err == f"error: expected a name, got {text!r} (at position 0)\n"


def test_table_signed_integer_reaches_the_dimension_check(capsys):
    # -3 is refused for its dimension, as 0 is, not as an unreadable name.
    for text in ("-3", "0"):
        code, out, err = run_cli(capsys, "table", text)
        assert (code, out) == (EXIT_USAGE, "")
        assert err == ("error: RP^m needs an integer dimension >= 2, "
                       f"got {int(text)}\n")
    assert run_cli(capsys, "table", "+9") == run_cli(capsys, "table", "9")


# ---------------------------------------------------------------------------
# Text and --json render one payload.

PARITY_ARGVS = [
    ("bound", "S^2 x RP^3"),
    ("bound", "(S^3, 2) + (R^2, 4)"),
    ("bound", "(CP^4, 2)", "--regime", "complex"),
    ("dual-sw", "RP^5"),
    ("height", "--k", "2", "--n", "5"),
    ("height", "--k", "1", "--n", "4", "--regime", "real"),
    ("lucas", "100", "50", "--p", "3"),
    ("verify", "vandermonde:3", "--trials", "20"),
    ("verify", "sphere:4", "--tuple", "7", "--trials", "4"),
    ("verify", "vandermonde:2+sphere:3", "--trials", "20"),
    ("table", "RP^9"),
    ("table", "RP^2"),
]


def _payload_lines(command: str, payload: dict) -> list:
    """Lines the text output must hold, each built from a payload value."""
    if command == "bound":
        return [f"N >= {payload['bound']} ({payload['theorem']})"]
    if command == "dual-sw":
        return [f"dual class: {payload['dual_class']}",
                f"top degree (series inversion): "
                f"{payload['top_degree_series']}",
                f"top degree (closed form): "
                f"{payload['top_degree_closed_form']}"]
    if command == "height":
        return [str(payload["height"])]
    if command == "lucas":
        return [str(payload["binomial_mod_p"])]
    if command == "verify":
        return [f"violations: {payload['violations']}",
                f"verdict: {payload['verdict']}"]
    best = payload["best"]
    if best is None:
        return [f"no tabulated 3-regular construction for "
                f"{payload['manifold']}"]
    return [f"best: R^{best['ambient_dim']} [{best['condition']}]"]


def test_text_and_json_render_one_payload(capsys):
    witnessed = 0
    for argv in PARITY_ARGVS:
        code, out, err = run_cli(capsys, *argv)
        json_code, json_out, json_err = run_cli(capsys, *argv, "--json")
        assert code == json_code and err == json_err == "", argv
        payload = json.loads(json_out)
        lines = out.splitlines()
        for line in _payload_lines(argv[0], payload):
            assert line in lines, (argv, line)
        if argv[0] == "verify":
            witness_lines = [line.partition(":")[0] for line in lines
                             if line.startswith("witness ")]
            assert witness_lines == [f"witness (trial {w['trial']})"
                                     for w in payload["witnesses"]], argv
            witnessed += len(witness_lines)
    assert witnessed > 0


# ---------------------------------------------------------------------------
# Parser robustness and process-level behaviour.

def test_missing_subcommand_is_usage_error(capsys):
    assert run_cli(capsys)[0] == EXIT_USAGE


def test_main_back_to_back_matches_separate_runs(capsys):
    # A call, a usage error included, must leave nothing behind for the
    # next one.
    argvs = [["bound", "HP^2"],
             ["height", "--k", "2", "--n", "5", "--json"],
             ["height", "--k", "2"],
             ["lucas", "7", "3", "--p", "2"],
             ["no-such-command"],
             ["verify", "vandermonde:2", "--trials", "5", "--json"],
             ["verify", "sphere:4", "--tuple", "7", "--trials", "3"],
             ["height", "--k", "1", "--n", "4", "--regime", "real"],
             ["table", "RP^9"],
             ["table", "RP^2", "--json"]]
    alone = [run_cli(capsys, *argv) for argv in argvs]
    together = [run_cli(capsys, *argv) for argv in argvs]
    assert together == alone
    assert [code for code, _, _ in together].count(EXIT_USAGE) == 2


def test_help_lists_every_command(capsys):
    for flag in ("-h", "--help"):
        code, out, err = run_cli(capsys, flag)
        assert (code, err) == (EXIT_OK, "")
        for name, command in COMMANDS.items():
            assert f"  {name}" in out and command.help in out


def test_command_help_lists_every_argument(capsys):
    for name, command in COMMANDS.items():
        code, out, err = run_cli(capsys, name, "-h")
        assert (code, err) == (EXIT_OK, ""), name
        assert out.startswith(f"usage: kregular {name} "), name
        rows = {row.split()[0]: row
                for row in out.split("arguments:\n", 1)[1].splitlines()}
        assert all(arg.name in rows for arg in command.positionals), name
        for option in command.options + EVERY_COMMAND:
            row = rows[f"--{option.name}"]
            assert all(choice in row for choice in option.choices), row
            if option.required:
                assert "(required)" in row, row
            elif option.convert is not None and option.default is not None:
                assert f"(default: {option.default})" in row, row
        assert run_cli(capsys, name, "--json", "--help") == (code, out, err)


# For every option of every command: the other arguments a valid argv
# needs, and a valid value.
VALID_OPTION_VALUES = {
    ("bound", "regime"): (("S^4",), "complex"),
    ("height", "k"): (("--n", "5"), "2"),
    ("height", "n"): (("--k", "2"), "5"),
    ("height", "regime"): (("--k", "2", "--n", "5"), "real"),
    ("lucas", "p"): (("7", "3"), "3"),
    ("verify", "tuple"): (("vandermonde:3", "--trials", "5"), "3"),
    ("verify", "trials"): (("sphere:2",), "5"),
    ("verify", "seed"): (("vandermonde:2", "--trials", "5"), "-3"),
}


@pytest.mark.parametrize("name, option", [
    (name, option.name) for name, command in COMMANDS.items()
    for option in command.options])
def test_option_value_spellings_agree(capsys, name, option):
    # A new option needs its entry above.
    others, value = VALID_OPTION_VALUES[name, option]
    spaced = run_cli(capsys, name, *others, f"--{option}", value)
    joined = run_cli(capsys, name, *others, f"--{option}={value}")
    assert spaced == joined
    assert spaced[0] == EXIT_OK, spaced


def test_tokens_after_double_dash_are_positionals(capsys):
    assert run_cli(capsys, "bound", "--", "--json") == (
        EXIT_USAGE, "", "error: expected a name, got '--json' (at position "
                        "0)\n")
    assert run_cli(capsys, "lucas", "--", "7", "3", "--p", "2") == (
        EXIT_USAGE, "", "error: unexpected argument '--p' for lucas\n")


def test_missing_arguments_name_positionals_then_options(capsys):
    assert run_cli(capsys, "lucas", "5") == (
        EXIT_USAGE, "", "error: lucas requires k, --p\n")
    assert run_cli(capsys, "height", "--n", "5") == (
        EXIT_USAGE, "", "error: height requires --k\n")


def test_last_repeated_option_wins_in_both_spellings(capsys):
    # C(7, 3) = 35 is 2 mod 3 and 1 mod 2.
    assert run_cli(capsys, "lucas", "7", "3", "--p=2", "--p", "3") == (
        EXIT_OK, "2\n", "")
    assert run_cli(capsys, "lucas", "7", "3", "--p", "3", "--p=2") == (
        EXIT_OK, "1\n", "")


# (argv, the malformed integer stderr must name)
MALFORMED_INTEGERS = [
    (("height", "--k", "\u0662", "--n", "5"), "\u0662"),
    (("height", "--k", "2", "--n=\u0665"), "\u0665"),
    (("lucas", "1_0", "3", "--p", "7"), "1_0"),
    (("lucas", " 10", "3", "--p", "7"), " 10"),
    (("lucas", "10", "3", "--p", "7 "), "7 "),
    (("lucas", "+-5", "3", "--p", "7"), "+-5"),
    (("lucas", "-\u0665", "3", "--p", "7"), "-\u0665"),
    (("verify", "sphere:2", "--tuple", "\u0663", "--trials", "2"), "\u0663"),
    (("verify", "sphere:2", "--tuple", " 3"), " 3"),
    (("verify", "sphere:2", "--trials", "\xb2"), "\xb2"),
    (("verify", "sphere:2", "--seed=-\u0665"), "-\u0665"),
    (("verify", "sphere:2", "--seed", "-\u0665"), "-\u0665"),
    (("lucas", "5", "2", "--p", "-\u0663"), "-\u0663"),
    (("height", "--k", "-\u0662", "--n", "5"), "-\u0662"),
]


@pytest.mark.parametrize(
    "argv, token", MALFORMED_INTEGERS,
    ids=[" ".join(argv) for argv, _ in MALFORMED_INTEGERS])
def test_integer_arguments_are_ascii_digits(capsys, argv, token):
    # int() alone also reads other scripts' digits, '_' and spaces.
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith("error: ") and repr(token) in err


def test_closed_stdout_ends_quietly_with_the_command_exit_code():
    # The reader takes 100 bytes and closes the pipe, as `| head -c 100`
    # does; the rest of the witness line meets a closed pipe.
    with subprocess.Popen(
            [sys.executable, "-m", "kregular.cli", "verify", "vandermonde:2",
             "--tuple", "5000", "--trials", "1"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=_fresh_process_env()) as proc:
        proc.stdout.read(100)
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert (code, err) == (EXIT_COUNTEREXAMPLE, b"")


def test_cli_fuzz_never_crashes(capsys):
    rng = random.Random(31)
    alphabet = string.printable
    for _ in range(200):
        expr = "".join(rng.choice(alphabet)
                       for _ in range(rng.randint(0, 16)))
        code = main(["bound", expr])
        capsys.readouterr()
        assert code in (EXIT_OK, EXIT_USAGE)


def _fresh_process_env() -> dict:
    # A fresh process finds the package the way this one did.
    src = os.path.dirname(os.path.dirname(kregular.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))


def test_module_entry_point():
    # `python -m kregular.cli` runs the same main() as the console script.
    env = _fresh_process_env()
    command = [sys.executable, "-m", "kregular.cli", "bound"]
    proc = subprocess.run(command + ["HP^2"], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "N >= 14 (Main Theorem I)"
    bad = subprocess.run(command + ["RP^1"], capture_output=True, text=True,
                         env=env)
    assert bad.returncode == 1


def test_cli_import_does_not_load_numpy():
    code = ("import kregular.cli, sys; "
            "assert 'numpy' not in sys.modules, 'numpy'; "
            "assert 'argparse' not in sys.modules, 'argparse'")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=_fresh_process_env())
    assert proc.returncode == 0, proc.stderr


def test_cli_import_loads_neither_sampler_nor_json():
    # Only verify needs the sampler (with random), only --json
    # needs json, and the records need no dataclasses.  `site` may preload
    # some of these, so the check is against what the import adds.
    code = "\n".join([
        "import sys",
        "before = set(sys.modules)",
        "import kregular",
        "assert not [m for m in sys.modules if m.startswith('kregular.')]",
        "import kregular.cli",
        "added = set(sys.modules) - before",
        "unwanted = {'dataclasses', 'inspect', 'fractions', 'decimal',",
        "            'json', 'random', 'kregular.sampler'}",
        "assert not added & unwanted, sorted(added & unwanted)",
        "sys.exit(kregular.cli.main(['verify', 'vandermonde:3',",
        "                            '--trials', '2', '--json']))"])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=_fresh_process_env())
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert (payload["map"], payload["trials"], payload["violations"]) == \
        ("vandermonde:3", 2, 0)


def test_verify_never_loads_fractions():
    # Witness points print from their integer columns: no run of verify,
    # witnessed or clean, text or --json, loads fractions (or the decimal
    # and numbers modules it imports).
    code = "\n".join([
        "import sys",
        "before = set(sys.modules)",
        "import kregular.cli",
        "for argv in (['sphere:2', '--tuple', '5', '--trials', '2'],",
        "             ['vandermonde:4+sphere:2', '--tuple', '9,3',",
        "              '--trials', '3'],",
        "             ['vandermonde:3', '--trials', '2']):",
        "    for extra in ([], ['--json']):",
        "        kregular.cli.main(['verify', *argv, *extra])",
        "added = set(sys.modules) - before",
        "unwanted = {'fractions', 'decimal', 'numbers'}",
        "assert not added & unwanted, sorted(added & unwanted)"])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=_fresh_process_env())
    assert proc.returncode == 0, proc.stderr
    # The witnessed runs printed their witnesses, in text and in JSON.
    assert proc.stdout.count("witness (trial ") == 2 + 3
    payloads = [json.loads(line) for line in proc.stdout.splitlines()
                if line.startswith("{")]
    assert [len(p["witnesses"]) for p in payloads] == [2, 3, 0]
