"""Lower and upper bounds on ambient dimensions for k-regular maps.

Lower bounds come from nonvanishing dual or Chern class degrees of the
relevant configuration bundles: a class surviving in degree d over a
k-point configuration space forces every k-regular map into R^N (or C^N)
to have N at least d plus the point count, or d plus one for complex plane
pieces (see lambda_top).  A disjoint union forces the sum of its pieces'
contributions.  Every report names the rule that produced each number;
closed-form power-of-two evaluations are kept separate from the bundle
computations so the two can be compared in tests.

Upper bounds are genuine constructions: the monomial curve in the plane,
the (1, x) sphere embedding, a table of 3-regular maps of real projective
spaces, and coordinate direct sums of those for disjoint pieces.  When both
sides meet, the report marks the bound tight.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from .bundles import COMPLEX, REAL, BundleProfile, lambda_top
from .fields import digit_sum_base_p, is_prime
from .manifolds import (Atom, Euclid, ManifoldSpec, RealProj, Sphere,
                        is_closed, real_dimension, render,
                        top_dual_degree_closed_form)
from .record import Record

MAIN_THEOREM_1 = "Main Theorem I"
MAIN_THEOREM_2 = "Main Theorem II"
DISJOINT_REAL = "disjoint union lower bound (real)"
DISJOINT_COMPLEX = "disjoint union lower bound (complex)"
BCLZ_2015 = "Blagojevic-Cohen-Luck-Ziegler (2015)"

class RegularQuery(Record):
    """Pieces (spec, point count) asked about together, with a regime."""

    __slots__ = ("pieces", "regime")

    def __init__(self, pieces: tuple, regime: str = REAL):
        if regime not in (REAL, COMPLEX):
            raise ValueError(f"unknown regime {regime!r}")
        pieces = tuple((spec, points) for spec, points in pieces)
        if not pieces:
            raise ValueError("a query needs at least one piece")
        for spec, points in pieces:
            if not isinstance(points, int) or points < 2:
                raise ValueError(
                    f"piece ({render(spec)}, {points!r}): point count must "
                    "be an integer >= 2")
        object.__setattr__(self, "pieces", pieces)
        object.__setattr__(self, "regime", regime)


class ExistenceRecord(Record):
    """A construction: a k-regular map into R^(ambient_dim) exists."""

    __slots__ = ("ambient_dim", "source")

    def __init__(self, ambient_dim: int, source: str):
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "source", source)


class BoundReport(Record):
    """A lower bound, the rule behind it and its per-piece breakdown.

    `construction` is the best known construction for the query (what
    upper_existence returned), or None when none is known; the bound is
    `tight` when that construction's ambient dimension meets it.
    """

    __slots__ = ("bound", "theorem", "breakdown", "construction")

    def __init__(self, bound: int, theorem: str, breakdown: tuple,
                 construction: Optional[ExistenceRecord] = None):
        object.__setattr__(self, "bound", bound)
        object.__setattr__(self, "theorem", theorem)
        object.__setattr__(self, "breakdown", breakdown)
        object.__setattr__(self, "construction", construction)

    @property
    def tight(self) -> bool:
        return (self.construction is not None
                and self.construction.ambient_dim == self.bound)


def _require_closed_product(spec: ManifoldSpec, context: str) -> None:
    if not is_closed(spec):
        raise ValueError(f"{context} needs closed factors, got "
                         f"{render(spec)}")


def bound_product_2regular(spec: ManifoldSpec) -> BoundReport:
    """Least ambient dimension forced on 2-regular maps of a closed product.

    The bound is the two-point bundle's top degree plus two, the one-piece
    case of bound_disjoint.  Factors must come from the sphere and
    projective families.
    """
    _require_closed_product(spec, "the product bound")
    return bound_disjoint(RegularQuery(((spec, 2),)))


def main_theorem_1_closed_form(spec: ManifoldSpec) -> int:
    """Dimension + closed-form top dual degree + 2; no bundle algebra."""
    _require_closed_product(spec, "the product bound")
    return (real_dimension(spec)
            + top_dual_degree_closed_form(spec).top_degree + 2)


def _is_mt2_piece(spec: ManifoldSpec, points: int) -> bool:
    if isinstance(spec, Euclid):
        return spec.m == 2 and points >= 2 and points & (points - 1) == 0
    return isinstance(spec, Atom) and spec.closed and points == 2


def _theorem(query: RegularQuery) -> str:
    """The theorem whose families contain the query."""
    pieces = query.pieces
    if query.regime == COMPLEX:
        if len(pieces) > 1:
            return DISJOINT_COMPLEX
        if isinstance(pieces[0][0], Euclid):
            return BCLZ_2015
        return "complex two-point lower bound"
    if len(pieces) == 1 and pieces[0][1] == 2 and is_closed(pieces[0][0]):
        return MAIN_THEOREM_1
    if all(_is_mt2_piece(spec, points) for spec, points in pieces):
        return MAIN_THEOREM_2
    return DISJOINT_REAL


def bound_disjoint(query: RegularQuery) -> BoundReport:
    """Sum of the pieces' contributions, in either regime.

    Each piece's profile comes from lambda_top; an unsupported piece raises
    with the piece named.  Tightness needs a construction for every piece,
    and none are known in the complex regime.
    """
    breakdown = tuple(lambda_top(spec, points, query.regime)
                      for spec, points in query.pieces)
    bound = sum(piece.contribution for piece in breakdown)
    return BoundReport(bound, _theorem(query), breakdown,
                       upper_existence(query))


def main_theorem_2_closed_form(
        pieces: Sequence[tuple[ManifoldSpec, int]]) -> int:
    """Power-of-two evaluation of the disjoint-union bound.

    Pieces must be planes with power-of-two point counts or single closed
    sphere/projective factors with two points.
    """
    total = 0
    for spec, points in pieces:
        if not _is_mt2_piece(spec, points):
            raise ValueError(
                f"({render(spec)}, {points}) is outside the disjoint-union "
                "theorem's families")
        total += (2 * points - 1 if isinstance(spec, Euclid)
                  else main_theorem_1_closed_form(spec))
    return total


def handel_disjoint_closed_form(specs: Sequence[ManifoldSpec]) -> int:
    """Two points per closed piece: the pieces' product bounds, summed."""
    return sum(map(main_theorem_1_closed_form, specs))


# ---------------------------------------------------------------------------
# Cited closed-form bounds.

def _power_of(m: int, p: int) -> bool:
    if m < 1:
        return False
    while m % p == 0:
        m //= p
    return m == 1


def bound_cited(kind: str, **params) -> BoundReport:
    """Five closed-form bounds quoted from the literature, by keyword.

    Kinds: 'real-euclid' (m, k), 'complex-euclid-odd-prime' (m, p),
    'complex-prime-power' (m, k, p), 'complex-stacked-planes' (n, m, p),
    'complex-disjoint-planes' (ms, p).  The pieces of 'real-euclid',
    'complex-prime-power' and 'complex-stacked-planes' quote only the
    ambient dimension: their contribution is the bound and their top_degree
    is None.
    """
    maker = _CITED.get(kind)
    if maker is None:
        raise ValueError(f"unknown cited bound {kind!r}; known kinds: "
                         + ", ".join(sorted(_CITED)))
    return maker(**params)


def _digit_sum_bound(m: int, k: int, p: int) -> tuple[int, int]:
    """(m(k - alpha_p(k)) + alpha_p(k), alpha_p(k)) for m a power of p."""
    if not (isinstance(m, int) and _power_of(m, p)):
        raise ValueError(f"m = {m!r} must be a power of {p}")
    if not (isinstance(k, int) and k >= 2):
        raise ValueError("need k >= 2")
    alpha = digit_sum_base_p(k, p)
    return m * (k - alpha) + alpha, alpha


def _cited_real_euclid(m: int, k: int) -> BoundReport:
    # Chisholm proved the bound for m a power of two only.
    bound, alpha = _digit_sum_bound(m, k, 2)
    piece = BundleProfile(Euclid(m), k, REAL, None, bound, True,
                          f"k-regular maps of R^m (m a power of 2): N >= "
                          f"m(k - alpha(k)) + alpha(k) with alpha({k}) = "
                          f"{alpha}")
    return BoundReport(bound, "Blagojevic-Luck-Ziegler (2016)", (piece,))


def _cited_complex_euclid(m: int, p: int) -> BoundReport:
    # Euclid checks m, and lambda_top checks that p is an odd prime.
    return bound_disjoint(RegularQuery(((Euclid(m), p),), COMPLEX))


def _cited_complex_prime_power(m: int, k: int, p: int) -> BoundReport:
    if not is_prime(p):
        raise ValueError(f"{p!r} is not prime")
    bound, alpha = _digit_sum_bound(m, k, p)
    piece = BundleProfile(Euclid(2 * m), k, COMPLEX, None, bound, True,
                          f"complex k-regular maps of C^m (m a power of "
                          f"{p}): N >= m(k - alpha_p(k)) + alpha_p(k) with "
                          f"alpha_{p}({k}) = {alpha}")
    return BoundReport(bound, BCLZ_2015, (piece,))


def _cited_stacked_planes(n: int, m: int, p: int) -> BoundReport:
    if not (isinstance(n, int) and n >= 1):
        raise ValueError("need n >= 1")
    base = _cited_complex_euclid(m, p)
    bound = n * base.bound
    piece = BundleProfile(Euclid(m), n * p, COMPLEX, None, bound, True,
                          f"complex np-regular maps: n = {n} copies of the "
                          "p-regular plane bound")
    return BoundReport(bound, BCLZ_2015, (piece,))


def _cited_disjoint_planes(ms: Sequence[int], p: int) -> BoundReport:
    if not ms:
        raise ValueError("need at least one plane piece")
    query = RegularQuery(tuple((Euclid(m), p) for m in ms), COMPLEX)
    report = bound_disjoint(query)
    return BoundReport(report.bound, BCLZ_2015, report.breakdown)


_CITED: dict[str, Callable[..., BoundReport]] = {
    "real-euclid": _cited_real_euclid,
    "complex-euclid-odd-prime": _cited_complex_euclid,
    "complex-prime-power": _cited_complex_prime_power,
    "complex-stacked-planes": _cited_stacked_planes,
    "complex-disjoint-planes": _cited_disjoint_planes,
}


# ---------------------------------------------------------------------------
# Existence table and upper bounds.

class TableRow(Record):
    __slots__ = ("label", "matches", "ambient")

    def __init__(self, label: str, matches: Callable[[int], bool],
                 ambient: Callable[[int], int]):
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "matches", matches)
        object.__setattr__(self, "ambient", ambient)


PROJECTIVE_3REGULAR_TABLE: tuple[TableRow, ...] = (
    TableRow("m = 8q+3 or 8q+5 (q > 0)",
             lambda m: m % 8 in (3, 5) and m // 8 > 0,
             lambda m: 2 * m - min(5, digit_sum_base_p(m // 8, 2))),
    TableRow("m = 8q+1 (q > 0)",
             lambda m: m % 8 == 1 and m // 8 > 0,
             lambda m: 2 * m - min(7, digit_sum_base_p(m // 8, 2)) + 2),
    TableRow("m = 32q+7 (q > 0)",
             lambda m: m % 32 == 7 and m // 32 > 0,
             lambda m: 2 * m - 6),
    TableRow("m = 8q+7 (q > 1)",
             lambda m: m % 8 == 7 and m // 8 > 1,
             lambda m: 2 * m - 5),
    TableRow("m = 3 mod 8, m >= 19",
             lambda m: m % 8 == 3 and m >= 19,
             lambda m: 2 * m - 4),
    TableRow("m = 1 mod 4, m != 2^i + 1",
             lambda m: m % 4 == 1 and not _power_of(m - 1, 2),
             lambda m: 2 * m - 2),
    TableRow("m = 4q or 4q+2, q > 0 and not a power of two",
             lambda m: m % 4 in (0, 2) and m // 4 > 0
             and not _power_of(m // 4, 2),
             lambda m: 2 * m - 1),
    TableRow("m = 2^j + 1 (j >= 2)",
             lambda m: m - 1 >= 4 and _power_of(m - 1, 2),
             lambda m: 2 * m - 1),
    TableRow("m = 2^j + 2 (j >= 3)",
             lambda m: m - 2 >= 8 and _power_of(m - 2, 2),
             lambda m: 2 * m),
)


def projective_table_matches(m: int) -> list[tuple[TableRow, int]]:
    """All table rows covering RP^m, with their ambient dimensions."""
    return [(row, row.ambient(m)) for row in PROJECTIVE_3REGULAR_TABLE
            if row.matches(m)]


def projective_3regular_upper(m: int) -> Optional[ExistenceRecord]:
    """Smallest tabled ambient dimension for a 3-regular map of RP^m."""
    hits = projective_table_matches(m)
    if not hits:
        return None
    row, ambient = min(hits, key=lambda pair: pair[1])
    return ExistenceRecord(ambient,
                           f"3-regular projective construction, {row.label}")


def upper_existence_piece(spec: ManifoldSpec,
                          points: int) -> Optional[ExistenceRecord]:
    """Known construction for one piece, or None; never guesses."""
    if isinstance(spec, Sphere) and points in (2, 3):
        return ExistenceRecord(spec.m + 2,
                               "sphere (1, x) embedding (3-regular)")
    if isinstance(spec, RealProj) and points in (2, 3):
        record = projective_3regular_upper(spec.m)
        if record is None or points == 3:
            return record
        return ExistenceRecord(record.ambient_dim,
                               record.source + " (restricted to 2-regular)")
    if isinstance(spec, Euclid) and spec.m == 2 and points >= 2:
        return ExistenceRecord(2 * points - 1,
                               "monomial curve in the plane "
                               "(Cohen-Handel 1978)")
    return None


def upper_existence(query: RegularQuery) -> Optional[ExistenceRecord]:
    """Direct sum of per-piece constructions when every piece has one."""
    if query.regime != REAL:
        return None
    records = [upper_existence_piece(spec, points)
               for spec, points in query.pieces]
    if any(record is None for record in records):
        return None
    if len(records) == 1:
        return records[0]
    total = sum(record.ambient_dim for record in records)
    return ExistenceRecord(total, "coordinate direct sum of piece "
                                  "constructions")
