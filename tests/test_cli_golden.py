"""Golden CLI corpus: literal stdout and exit codes of fixed argvs.

Recorded from the argparse-based parser that the command table replaced;
the table must read every argv the same way.  The Vandermonde and mixed-sum
verify witnesses were recorded from the sampler that drew, keyed and built
columns in separate calls per point; the fused per-family loop must draw the
same points.  The complex CP^5 + S^4 case was recorded before the unused
two-point module models left `grassmann.py`.  Usage errors print nothing on
stdout, exit 1 and name the offending token (or missing argument) on
stderr.
"""

import pytest

from kregular.cli import EXIT_USAGE, main

# (argv, exit code, stdout)
GOLDEN = [
    (('bound', 'S^2 x RP^3'), 0,
     'N >= 7 (Main Theorem I)\n'
     '  S^2 x RP^3, k=2: top degree = 5, contributes 7 [two-point bundle '
     'over a closed manifold: dimension plus top dual class degree]\n'),
    (('bound', '(CP^4, 2)', '--regime', 'complex'), 0,
     'N >= 8 (complex two-point lower bound)\n'
     '  CP^4, k=2: top degree >= 6, contributes 8 [complex two-point bundle '
     'over CP^m: top degree >= 2m-2 (ring height of the first class)]\n'),
    (('bound', '--regime', 'complex', '(CP^4, 2)'), 0,
     'N >= 8 (complex two-point lower bound)\n'
     '  CP^4, k=2: top degree >= 6, contributes 8 [complex two-point bundle '
     'over CP^m: top degree >= 2m-2 (ring height of the first class)]\n'),
    (('bound', '(S^3, 2) + (R^2, 4)', '--json'), 0,
     '{"schema": "1", "query": "(S^3, 2) + (R^2, 4)", "regime": "real", '
     '"bound": 12, "theorem": "Main Theorem II", "breakdown": [{"piece": '
     '"S^3", "points": 2, "top_degree": 3, "contribution": 5, '
     '"lower_bound_only": false, "source": "two-point bundle over a closed '
     'manifold: dimension plus top dual class degree"}, {"piece": "R^2", '
     '"points": 4, "top_degree": 3, "contribution": 7, "lower_bound_only": '
     'false, "source": "plane bundle with power-of-two points (Cohen-Handel '
     '1978): top class in degree k-1"}], "tightness": {"ambient_dim": 12, '
     '"source": "coordinate direct sum of piece constructions", "tight": '
     'true}}\n'),
    (('bound', 'R^2', '--regime=real'), 0,
     'N >= 3 (Main Theorem II)\n'
     '  R^2, k=2: top degree = 1, contributes 3 [plane bundle with '
     'power-of-two points (Cohen-Handel 1978): top class in degree k-1]\n'
     'tight: construction in R^3 [monomial curve in the plane (Cohen-Handel '
     '1978)]\n'),
    (('bound', 'RP^1'), 1,
     ''),
    (('dual-sw', 'RP^5'), 0,
     'manifold: RP^5\n'
     'dual class: 1 + a^2\n'
     'top degree (series inversion): 2\n'
     'top degree (closed form): 2\n'),
    (('dual-sw', '--json', 'S^2 x RP^3'), 0,
     '{"schema": "1", "manifold": "S^2 x RP^3", "dual_class": "1", '
     '"top_degree_series": 0, "top_degree_closed_form": 0}\n'),
    (('height', '--k', '2', '--n', '5'), 0,
     '8\n'),
    (('height', '--n', '5', '--k', '2', '--regime', 'real'), 0,
     '6\n'),
    (('height', '--k=3', '--n=10', '--regime=real'), 0,
     '15\n'),
    (('height', '--k', '1', '--k', '2', '--n', '5'), 0,
     '8\n'),
    (('height', '--k', '1', '--n', '4', '--regime', 'real', '--json'), 0,
     '{"schema": "1", "k": 1, "n": 4, "regime": "real", "element": "w1", '
     '"height": 4, "truncation": 5}\n'),
    (('lucas', '7', '3', '--p', '2'), 0,
     '1\n'),
    (('lucas', '--p', '3', '100', '50'), 0,
     '0\n'),
    (('lucas', '7', '--p', '2', '3'), 0,
     '1\n'),
    (('lucas', '-5', '2', '--p', '3'), 1,
     ''),
    (('lucas', '100', '50', '--p', '3', '--json'), 0,
     '{"schema": "1", "n": 100, "k": 50, "p": 3, "binomial_mod_p": 0}\n'),
    (('verify', 'sphere:3', '--trials', '2', '--seed', '-5'), 0,
     'map: sphere:3\n'
     'tuple sizes: 3\n'
     'trials: 2 (seed -5)\n'
     'violations: 0\n'
     'verdict: no-violation-found\n'),
    (('verify', 'vandermonde:2', '--trials', '5', '--json'), 0,
     '{"schema": "2", "map": "vandermonde:2", "tuple_sizes": [2], "trials": '
     '5, "seed": 0, "violations": 0, "verdict": "no-violation-found", '
     '"expected_violation": false, "witnesses": []}\n'),
    (('verify', '--trials', '3', '--seed', '1', 'vandermonde:2+sphere:3'), 0,
     'map: vandermonde:2+sphere:3\n'
     'tuple sizes: 2,3\n'
     'trials: 3 (seed 1)\n'
     'violations: 0\n'
     'verdict: no-violation-found\n'),
    (('verify', 'sphere:4', '--tuple', '7', '--trials', '1'), 3,
     'map: sphere:4\n'
     'tuple sizes: 7\n'
     'trials: 1 (seed 0)\n'
     'violations: 1\n'
     "note: a tuple size exceeds its part's ambient dimension; violations "
     'are expected\n'
     'witness (trial 0): [(70/187, -98/187, 0, 112/187, 89/187), (64/139, '
     '16/139, 112/139, 48/139, 11/139), (64/113, -32/113, 8/113, -32/113, '
     '81/113), (0, -8/23, 2/23, -10/23, 19/23), (8/91, 4/13, -20/91, 12/91, '
     '83/91), (14/71, -14/71, 49/71, 42/71, 22/71), (-7/19, -8/19, -6/19, '
     '4/19, 14/19)]\n'
     'verdict: counterexample\n'),
    (('table', 'RP^9'), 0,
     '3-regular constructions for RP^9:\n'
     '  m = 8q+1 (q > 0): R^19\n'
     '  m = 2^j + 1 (j >= 2): R^17\n'
     'best: R^17 [m = 2^j + 1 (j >= 2)]\n'),
    (('table', '2', '--json'), 0,
     '{"schema": "1", "manifold": "RP^2", "rows": [], "best": null}\n'),
    (('table', '-3'), 1,
     ''),
    (('verify', 'vandermonde:3', '--tuple', '6', '--trials', '2'), 3,
     'map: vandermonde:3\n'
     'tuple sizes: 6\n'
     'trials: 2 (seed 0)\n'
     'violations: 2\n'
     "note: a tuple size exceeds its part's ambient dimension; violations "
     'are expected\n'
     'witness (trial 0): [(34/7) + (-54/5)*i, (60/7) + (13/8)*i, (27/4) + '
     '(-29/5)*i, (-29/2) + (0)*i, (15/2) + (-23/3)*i, (28) + (26/7)*i]\n'
     'witness (trial 1): [(-15) + (1/2)*i, (31/4) + (8)*i, (-11/2) + (60)*i, '
     '(5) + (-8)*i, (1) + (-19/3)*i, (-57) + (-58)*i]\n'
     'verdict: counterexample\n'),
    (('verify', 'vandermonde:2+sphere:3', '--tuple', '4,5', '--trials', '2',
      '--seed', '9', '--json'), 3,
     '{"schema": "2", "map": "vandermonde:2+sphere:3", "tuple_sizes": [4, '
     '5], "trials": 2, "seed": 9, "violations": 2, "verdict": '
     '"counterexample", "expected_violation": true, "witnesses": [{"trial": '
     '0, "points": [[["8", "-20/3"], ["-11", "29/3"], ["11/2", "-12"], '
     '["-51", "-7"]], [["8/35", "2/5", "-2/35", "31/35"], ["-8/97", '
     '"16/97", "-8/97", "95/97"], ["-4/13", "8/13", "8/13", "5/13"], '
     '["70/187", "-80/187", "70/187", "137/187"], ["-1/19", "-6/19", "0", '
     '"18/19"]]]}, {"trial": 1, "points": [[["20", "59/4"], ["-13/3", '
     '"15"], ["7/2", "3"], ["7", "-7"]], [["6/19", "-6/19", "0", "17/19"], '
     '["50/51", "0", "-10/51", "1/51"], ["-18/19", "6/19", "0", "1/19"], '
     '["-42/67", "-49/67", "0", "18/67"], ["18/79", "-21/79", "24/79", '
     '"70/79"]]]}]}\n'),
    (('bound', '(CP^5, 2) + (S^4, 2)', '--regime', 'complex', '--json'), 0,
     '{"schema": "1", "query": "(CP^5, 2) + (S^4, 2)", "regime": "complex", '
     '"bound": 14, "theorem": "disjoint union lower bound (complex)", '
     '"breakdown": [{"piece": "CP^5", "points": 2, "top_degree": 8, '
     '"contribution": 10, "lower_bound_only": true, "source": "complex '
     'two-point bundle over CP^m: top degree >= 2m-2 (ring height of the '
     'first class)"}, {"piece": "S^4", "points": 2, "top_degree": 2, '
     '"contribution": 4, "lower_bound_only": false, "source": "complex '
     'two-point bundle over a sphere: top degree floor(m/2)"}], '
     '"tightness": null}\n'),
    (('bound', '(S^2 x RP^3, 2) + (R^2, 2)'), 0,
     'N >= 10 (disjoint union lower bound (real))\n'
     '  S^2 x RP^3, k=2: top degree = 5, contributes 7 [two-point bundle '
     'over a closed manifold: dimension plus top dual class degree]\n'
     '  R^2, k=2: top degree = 1, contributes 3 [plane bundle with '
     'power-of-two points (Cohen-Handel 1978): top class in degree k-1]\n'),
    (('bound', '(RP^9, 2) + (R^2, 8)'), 0,
     'N >= 32 (Main Theorem II)\n'
     '  RP^9, k=2: top degree = 15, contributes 17 [two-point bundle over a '
     'closed manifold: dimension plus top dual class degree]\n'
     '  R^2, k=8: top degree = 7, contributes 15 [plane bundle with '
     'power-of-two points (Cohen-Handel 1978): top class in degree k-1]\n'
     'tight: construction in R^32 [coordinate direct sum of piece '
     'constructions]\n'),
    (('bound', '(RP^9, 2) + (R^2, 8)', '--json'), 0,
     '{"schema": "1", "query": "(RP^9, 2) + (R^2, 8)", "regime": "real", '
     '"bound": 32, "theorem": "Main Theorem II", "breakdown": [{"piece": '
     '"RP^9", "points": 2, "top_degree": 15, "contribution": 17, '
     '"lower_bound_only": false, "source": "two-point bundle over a closed '
     'manifold: dimension plus top dual class degree"}, {"piece": "R^2", '
     '"points": 8, "top_degree": 7, "contribution": 15, "lower_bound_only": '
     'false, "source": "plane bundle with power-of-two points (Cohen-Handel '
     '1978): top class in degree k-1"}], "tightness": {"ambient_dim": 32, '
     '"source": "coordinate direct sum of piece constructions", "tight": '
     'true}}\n'),
    (('bound', 'RP^9'), 0,
     'N >= 17 (Main Theorem I)\n'
     '  RP^9, k=2: top degree = 15, contributes 17 [two-point bundle over a '
     'closed manifold: dimension plus top dual class degree]\n'
     'tight: construction in R^17 [3-regular projective construction, '
     'm = 2^j + 1 (j >= 2) (restricted to 2-regular)]\n'),
    (('bound', '(R^3, 5)', '--regime', 'complex'), 0,
     'N >= 9 (Blagojevic-Cohen-Luck-Ziegler (2015))\n'
     '  R^3, k=5: top degree >= 8, contributes 9 [complex p-point classes '
     'over R^m survive to degree floor((m+1)/2)*(p-1) '
     '(Blagojevic-Cohen-Luck-Ziegler 2015)]\n'),
    (('bound', '(R^3, 3) + (S^6, 2)', '--regime', 'complex'), 0,
     'N >= 10 (disjoint union lower bound (complex))\n'
     '  R^3, k=3: top degree >= 4, contributes 5 [complex p-point classes '
     'over R^m survive to degree floor((m+1)/2)*(p-1) '
     '(Blagojevic-Cohen-Luck-Ziegler 2015)]\n'
     '  S^6, k=2: top degree = 3, contributes 5 [complex two-point bundle '
     'over a sphere: top degree floor(m/2)]\n'),
]

# More digits than int() converts (sys.get_int_max_str_digits(), 4300 by
# default).
HUGE = "9" * 5000

# (argv, a token stderr must name)
USAGE_ERRORS = [
    ((), 'command'),  # no subcommand
    (('frobnicate',), 'frobnicate'),  # unknown subcommand
    (('--json', 'bound', 'RP^5'), '--json'),  # option before the subcommand
    (('height', '--k', '2', '--n', '5', '--trunc', '14'),
     '--trunc'),  # unknown option
    (('height', '--n', '5', '--k'), '--k'),  # missing option value
    (('verify', 'sphere:3', '--seed', '--json'), '--seed'),  # ditto
    (('height', '--k', '2'), '--n'),  # missing required option
    (('height', '--k', 'two', '--n', '5'), 'two'),  # bad int
    (('height', '--k', '2', '--n', '5', '--regime', 'quaternionic'),
     'quaternionic'),  # bad choice
    (('lucas', '7', '--p', '2'), 'k'),  # missing positional
    (('dual-sw',), 'expression'),  # ditto
    (('table', 'RP^9', 'RP^10'), 'RP^10'),  # extra positional
    (('bound', '--json=1', 'RP^5'), '--json'),  # value for a flag
    (('bound', '-5x'), "'-5x'"),  # syntax error names the text
    (('table', '-5x'), "'-5x'"),  # ditto
    (('bound', 'RP^5 y'), "'y'"),  # trailing input names the text
    (('bound', 'RP^' + HUGE), 'position 3'),  # integer too long
    (('bound', '(S^2, ' + HUGE + ')'), 'position 6'),  # ditto
    (('height', '--k', '2', '--n', HUGE), '--n'),  # ditto
    (('verify', 'vandermonde:' + HUGE), 'map'),  # ditto
    (('lucas', HUGE, '2', '--p', '3'), 'n:'),  # ditto
    (('table', HUGE), 'manifold'),  # ditto
    (('verify', 'sphere:2', '--tuple', '2,' + HUGE), '--tuple'),  # ditto
    # Refusals of the piece rules: the whole message is the token.
    (('bound', '(S^4, 3)'), 'error: (S^4, 3) has no real-regime rule '
     '(closed specs need exactly two points)\n'),
    (('bound', '(R^2, 3)'), 'error: (R^2, 3): plane rule needs a '
     'power-of-two point count\n'),
    (('bound', 'R^3'), 'error: (R^3, 2) has no real-regime rule (closed '
     'specs need exactly two points)\n'),
    (('bound', '(R^3, 4)', '--regime', 'complex'),
     'error: (R^3, 4): complex plane pieces need an odd prime point '
     'count\n'),
    (('bound', '(CP^3, 2)', '--regime', 'complex'),
     'error: (CP^3, 2) has no complex-regime rule\n'),
    (('bound', '(RP^5, 2)', '--regime', 'complex'),
     'error: (RP^5, 2) has no complex-regime rule\n'),
]


def _ids(cases, positional):
    # The first `positional` cases keep the ids pytest gave them by position
    # (argvN-...) when they were recorded; later ones take ids from their
    # argv, so appending a case renames no other.  Add new cases at the end.
    # A token longer than 40 characters shows its head and its length.
    return [None if i < positional else " ".join(
        token if len(token) <= 40 else f"{token[:16]}...({len(token)})"
        for token in case[0]) for i, case in enumerate(cases)]


@pytest.mark.parametrize("argv, code, stdout", GOLDEN, ids=_ids(GOLDEN, 28))
def test_golden_stdout_and_exit_code(capsys, argv, code, stdout):
    assert main(list(argv)) == code
    assert capsys.readouterr().out == stdout


@pytest.mark.parametrize("argv, token", USAGE_ERRORS,
                         ids=_ids(USAGE_ERRORS, 13))
def test_usage_error_names_the_token(capsys, argv, token):
    assert main(list(argv)) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and token in captured.err
    # Python's own int() message names no argument.
    assert "set_int_max_str_digits" not in captured.err
