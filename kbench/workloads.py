"""Seeded query streams for the benchmark workloads, each query with its check.

A workload is an endless stream of `kregular` CLI argv vectors drawn from
`random.Random(seed)`; the same seed gives the same stream.  Every query
carries a check that judges the command's exit code and stdout against an
answer the benchmark knows independently of the code path the command
takes: closed forms written out here, `math.comb`, or values frozen in
`frozen.json` (see `freeze.py`).

Categories are drawn in shuffled blocks with fixed counts, so every run sees
the same mix and the run-to-run spread comes from the inputs inside each
category, not from the mix.
"""

from __future__ import annotations

import bisect
import itertools
import json
import math
import random
from pathlib import Path
from typing import Callable, Iterator, NamedTuple, Optional

FROZEN_PATH = Path(__file__).resolve().parent / "frozen.json"

# (prefix, largest m): each factor has at most 48 real dimensions.
_CLOSED_FAMILIES = (("S", 48), ("RP", 48), ("CP", 24), ("HP", 12))
# Dual classes of a product are inverted in one joint ring with
# prod(m + 1) monomials over its projective factors.  The cost grows faster
# than that size, up to tens of seconds for RP^48 x RP^48 x RP^48, so one
# such draw would decide a whole run; sizes above the cap are redrawn.
JOINT_RING_CAP = 3_000
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)

EXIT_OK = 0
EXIT_COUNTEREXAMPLE = 3

Check = Callable[[int, str], Optional[str]]


class Query(NamedTuple):
    """One CLI invocation and how to judge its answer.

    `check(exit_code, stdout)` returns None when the answer is right and a
    one-line reason otherwise.  `key` identifies repeated work (a repeated
    key means the program may answer from its caches).  `known_defect`
    marks queries exposed to the documented float-tolerance bug of the
    sampler: a direct sum of a Vandermonde and a sphere map.  Their wrong
    answers still count as failures.
    """

    argv: tuple
    check: Check
    key: object
    known_defect: bool = False


def load_frozen() -> dict:
    with open(FROZEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# Checks.

def _expect_int_line(prefix: str, expected: int) -> Check:
    def check(code: int, out: str) -> Optional[str]:
        if code != EXIT_OK:
            return f"exit {code}, want {EXIT_OK}"
        first = out.split("\n", 1)[0]
        if not first.startswith(prefix):
            return f"unexpected output {first!r}"
        token = first[len(prefix):].split(" ", 1)[0]
        if token != str(expected):
            return f"answer {token!r}, want {expected}"
        return None
    return check


def _expect_text(expected: str) -> Check:
    def check(code: int, out: str) -> Optional[str]:
        if code != EXIT_OK:
            return f"exit {code}, want {EXIT_OK}"
        if out != expected:
            return f"output {out!r} differs from the frozen {expected!r}"
        return None
    return check


def _expect_dual(rendered: str, expected: int) -> Check:
    def check(code: int, out: str) -> Optional[str]:
        if code != EXIT_OK:
            return f"exit {code}, want {EXIT_OK}"
        payload = json.loads(out)
        got = (payload["manifold"], payload["top_degree_series"],
               payload["top_degree_closed_form"])
        if got != (rendered, expected, expected):
            return f"got {got}, want {(rendered, expected, expected)}"
        return None
    return check


def _expect_verify(trials: int, oversampled: bool) -> Check:
    want_code = EXIT_COUNTEREXAMPLE if oversampled else EXIT_OK
    want_violations = trials if oversampled else 0

    def check(code: int, out: str) -> Optional[str]:
        if code not in (EXIT_OK, EXIT_COUNTEREXAMPLE):
            return f"exit {code}, want {want_code}"
        payload = json.loads(out)
        got = (code, payload["trials"], payload["violations"])
        if got != (want_code, trials, want_violations):
            return (f"(exit, trials, violations) = {got}, want "
                    f"{(want_code, trials, want_violations)}")
        return None
    return check


# ---------------------------------------------------------------------------
# Closed forms, written out here so the checks share no code with the CLI.

def _floor_log2(m: int) -> int:
    return m.bit_length() - 1


def _mt1_atom(prefix: str, m: int) -> int:
    """Share of one factor in the 2-regular product bound (Main Theorem I)."""
    j = _floor_log2(m)
    return {"S": m, "RP": 2 ** (j + 1) - 1, "CP": 2 ** (j + 2) - 2,
            "HP": 2 ** (j + 3) - 4}[prefix]


def _dual_top_atom(prefix: str, m: int) -> int:
    """Top degree of the dual Stiefel-Whitney class of one factor."""
    if prefix == "S":
        return 0
    scale = {"RP": 1, "CP": 2, "HP": 4}[prefix]
    return scale * (2 ** (_floor_log2(m) + 1) - m - 1)


def product_bound(atoms) -> int:
    return 2 + sum(_mt1_atom(prefix, m) for prefix, m in atoms)


def dual_top_degree(atoms) -> int:
    return sum(_dual_top_atom(prefix, m) for prefix, m in atoms)


def chern_height(k: int, n: int) -> int:
    """Height of c1 in H*(G_k(C^(n+1)); Q): the k x (n+1-k) box size."""
    return k * (n + 1 - k)


def _render(atoms) -> str:
    return " x ".join(f"{prefix}^{m}" for prefix, m in atoms)


def joint_ring_size(atoms) -> int:
    return math.prod(m + 1 for prefix, m in atoms if prefix != "S")


def _closed_atoms(rng: random.Random, count: int) -> list:
    while True:
        atoms = []
        for _ in range(count):
            prefix, top = rng.choice(_CLOSED_FAMILIES)
            atoms.append((prefix, rng.randint(2, top)))
        if joint_ring_size(atoms) <= JOINT_RING_CAP:
            return atoms


class _Deck:
    """Draws from `values` in shuffled rounds that hold each value once.

    Every run then sees each value equally often (to within one round), so
    the share of heavy inputs, which sets the tail, does not vary by seed.
    """

    def __init__(self, rng: random.Random, values):
        self._rng = rng
        self._values = list(values)
        self._round: list = []

    def draw(self):
        if not self._round:
            self._round = list(self._values)
            self._rng.shuffle(self._round)
        return self._round.pop()


# ---------------------------------------------------------------------------
# bounds: the bound, dual-sw, lucas and table subcommands.

_BOUNDS_BLOCK = (("product", 9), ("disjoint", 5), ("complex", 2),
                 ("dual", 2), ("lucas", 1), ("table", 1))


# Natural quantiles (50%, 80%, 95%) of the joint ring size of 2- and 3-factor
# `_closed_atoms` draws, and how many of every 20 draws fall between them.
_RING_EDGES = {2: (45, 231, 637), 3: (198, 880, 2142)}
_RING_CLASS_SHARES = (10, 6, 3, 1)


class _BoundsRandom(random.Random):
    """The bounds stream's generator, with stratified product draws.

    `product_atoms()` keeps the distribution of `_closed_atoms` with 1-3
    factors, but draws the factor count and, for 2 and 3 factors, the
    joint-ring-size class from decks, then redraws atoms until they fall in
    that class.  The ring size sets a product's cost, so every run holds
    the same number of heavy products and the tail does not vary by seed.
    """

    def __init__(self, seed: int):
        super().__init__(seed)
        self._counts = _Deck(self, (1, 2, 3))
        classes = [index for index, share in enumerate(_RING_CLASS_SHARES)
                   for _ in range(share)]
        self._classes = {count: _Deck(self, classes) for count in _RING_EDGES}

    def product_atoms(self) -> list:
        count = self._counts.draw()
        if count not in _RING_EDGES:
            return _closed_atoms(self, count)
        wanted = self._classes[count].draw()
        while True:
            atoms = _closed_atoms(self, count)
            size = joint_ring_size(atoms)
            if bisect.bisect_left(_RING_EDGES[count], size) == wanted:
                return atoms


def _bound_product(rng: _BoundsRandom, frozen: dict) -> Query:
    atoms = rng.product_atoms()
    text = _render(atoms)
    return Query(("bound", text), _expect_int_line("N >= ",
                                                   product_bound(atoms)),
                 ("bound", text))


def _bound_disjoint(rng: random.Random, frozen: dict) -> Query:
    pieces = []
    expected = 0
    for _ in range(rng.randint(1, 4)):
        if rng.random() < 0.3:
            points = 2 ** rng.randint(1, 5)
            pieces.append(f"(R^2, {points})")
            expected += 2 * points - 1
        else:
            atoms = _closed_atoms(rng, rng.randint(1, 2))
            pieces.append(f"({_render(atoms)}, 2)")
            expected += product_bound(atoms)
    text = " + ".join(pieces)
    return Query(("bound", text), _expect_int_line("N >= ", expected),
                 ("bound", text))


def _bound_complex(rng: random.Random, frozen: dict) -> Query:
    pieces = []
    expected = 0
    for _ in range(rng.randint(1, 3)):
        kind = rng.randrange(3)
        if kind == 0:
            m = rng.randint(2, 24)
            pieces.append(f"(S^{m}, 2)")
            expected += m // 2 + 2
        elif kind == 1:
            m = rng.randint(4, 9)
            pieces.append(f"(CP^{m}, 2)")
            expected += 2 * m
        else:
            m = rng.randint(1, 12)
            p = rng.choice((3, 5, 7))
            pieces.append(f"(R^{m}, {p})")
            expected += (m + 1) // 2 * (p - 1) + 1
    text = " + ".join(pieces)
    return Query(("bound", text, "--regime", "complex"),
                 _expect_int_line("N >= ", expected),
                 ("bound-complex", text))


def _dual_sw(rng: _BoundsRandom, frozen: dict) -> Query:
    atoms = rng.product_atoms()
    text = _render(atoms)
    return Query(("dual-sw", text, "--json"),
                 _expect_dual(text, dual_top_degree(atoms)), ("dual", text))


def _lucas(rng: random.Random, frozen: dict) -> Query:
    n = rng.randint(0, 5000)
    k = rng.randint(0, n)
    p = rng.choice(_SMALL_PRIMES)
    return Query(("lucas", str(n), str(k), "--p", str(p)),
                 _expect_int_line("", math.comb(n, k) % p),
                 ("lucas", n, k, p))


def _table(rng: random.Random, frozen: dict) -> Query:
    m = rng.randint(2, frozen["table_max_m"])
    return Query(("table", f"RP^{m}"), _expect_text(frozen["table"][str(m)]),
                 ("table", m))


_BOUNDS_MAKERS = {"product": _bound_product, "disjoint": _bound_disjoint,
                  "complex": _bound_complex, "dual": _dual_sw,
                  "lucas": _lucas, "table": _table}


def bounds_queries(seed: int, frozen: dict) -> Iterator[Query]:
    rng = _BoundsRandom(seed)
    block = [kind for kind, count in _BOUNDS_BLOCK for _ in range(count)]
    while True:
        rng.shuffle(block)
        for kind in block:
            yield _BOUNDS_MAKERS[kind](rng, frozen)


# ---------------------------------------------------------------------------
# heights: first-class heights in Grassmannian presentations.

def height_keys() -> list:
    """(regime, k, n) keys whose cold cost stays near 2 s or below.

    Chern/QQ: k <= 3, n <= 10, plus (4, 7); SW/GF(2): k <= 5, n <= 15,
    plus k = 3..4 with n = 16..19.  Chern (4, 8) and SW (5, 16) cost
    several times more cold, so they are left out.
    """
    keys = [("complex", k, n) for n in range(1, 11)
            for k in range(1, min(3, n) + 1)]
    keys.append(("complex", 4, 7))
    keys += [("real", k, n) for n in range(1, 16)
             for k in range(1, min(5, n) + 1)]
    keys += [("real", k, n) for k in (3, 4) for n in range(16, 20)]
    return keys


def height_answer(regime: str, k: int, n: int, frozen: dict) -> int:
    if regime == "complex":
        return chern_height(k, n)
    return frozen["sw_heights"][f"{k},{n}"]


def heights_queries(seed: int, frozen: dict) -> Iterator[Query]:
    rng = random.Random(seed)
    keys = height_keys()
    while True:
        regime, k, n = rng.choice(keys)
        yield Query(("height", "--k", str(k), "--n", str(n),
                     "--regime", regime),
                    _expect_int_line("", height_answer(regime, k, n, frozen)),
                    (regime, k, n))


# ---------------------------------------------------------------------------
# verify: randomized regularity checks of the example maps.

VERIFY_TRIALS = 40
_VERIFY_BLOCK = (("vandermonde", 6), ("sphere", 5), ("oversampled", 3),
                 ("sum", 6))


def verify_queries(seed: int, frozen: dict) -> Iterator[Query]:
    rng = random.Random(seed)
    block = [kind for kind, count in _VERIFY_BLOCK for _ in range(count)]
    sizes = {"vandermonde": _Deck(rng, range(2, 9)),
             "sphere": _Deck(rng, range(2, 7))}
    oversampled = _Deck(rng, range(2, 7))
    # Each part of a sum is a Vandermonde or a sphere map with even odds;
    # half of the sums mix the two and so meet the known defect.
    sum_parts = _Deck(rng, list(itertools.product(sizes, repeat=2)))

    def part(family: str) -> str:
        return f"{family}:{sizes[family].draw()}"

    while True:
        rng.shuffle(block)
        for kind in block:
            tuple_args: tuple = ()
            if kind in sizes:
                text = part(kind)
            elif kind == "oversampled":
                m = oversampled.draw()
                text = f"sphere:{m}"
                tuple_args = ("--tuple", str(m + 3))
            else:
                text = "+".join(map(part, sum_parts.draw()))
            families = {name.split(":")[0] for name in text.split("+")}
            argv = ("verify", text) + tuple_args + (
                "--trials", str(VERIFY_TRIALS),
                "--seed", str(rng.randrange(1_000_000)), "--json")
            yield Query(argv, _expect_verify(VERIFY_TRIALS, bool(tuple_args)),
                        argv, known_defect=len(families) == 2)


WORKLOADS: dict[str, Callable[[int, dict], Iterator[Query]]] = {
    "bounds": bounds_queries,
    "heights": heights_queries,
    "verify": verify_queries,
}
