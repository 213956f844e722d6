"""Lower and upper bounds on ambient dimensions for k-regular maps.

Each piece's lower bound and construction come from its rows of
bundles.PIECE_RULES.  A disjoint union forces the sum of its pieces'
contributions and has the coordinate direct sum of their constructions;
the report's theorem label is read off the pieces' profiles.  The
closed-form power-of-two evaluations of the main theorems do their own
arithmetic, so tests can compare them with the bundle computations.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .bundles import (COMPLEX, DISJOINT_COMPLEX, DISJOINT_REAL,
                      MAIN_THEOREM_2, REAL, ExistenceRecord, lambda_top,
                      require_piece, resolve)
from .manifolds import (ManifoldSpec, is_closed, real_dimension, render,
                        require_spec, top_dual_degree_closed_form)
from .record import Record


class RegularQuery(Record):
    """Pieces (spec, point count) asked about together, with a regime."""

    __slots__ = ("pieces", "regime")
    _defaults = {"regime": REAL}

    def _check(self, pieces: tuple, regime: str) -> tuple:
        pieces = tuple([(spec, points) for spec, points in pieces])
        if not pieces:
            raise ValueError("a query needs at least one piece")
        for spec, points in pieces:
            require_piece(spec, points, regime)
        return pieces, regime


class BoundReport(Record):
    """A lower bound, the rule behind it and its per-piece breakdown.

    `construction` is the best known construction for the query (what
    upper_existence returned), or None when none is known; the bound is
    `tight` when that construction's ambient dimension meets it.
    """

    __slots__ = ("bound", "theorem", "breakdown", "construction")
    _defaults = {"construction": None}

    @property
    def tight(self) -> bool:
        return (self.construction is not None
                and self.construction.ambient_dim == self.bound)


def _require_closed_product(spec: ManifoldSpec, context: str) -> None:
    require_spec(spec)
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


def bound_disjoint(query: RegularQuery) -> BoundReport:
    """Sum of the pieces' contributions, in either regime.

    Each piece is resolved once; the first unsupported one raises with the
    piece named.  A lone piece takes its profile's theorem, a union the
    union label all its profiles carry, else the regime's general bound.
    The report is tight when the pieces' direct sum meets the bound.
    """
    if not isinstance(query, RegularQuery):
        raise ValueError(f"not a regular query: {query!r}")
    regime = query.regime
    breakdown, records, bound = [], [], 0
    for spec, points in query.pieces:
        profile, record = resolve(spec, points, regime)
        if isinstance(profile, ValueError):
            raise profile
        breakdown.append(profile)
        records.append(record)
        bound += profile.contribution
    if len(breakdown) == 1:
        theorem = breakdown[0].theorem
    else:
        unions = {piece.union for piece in breakdown}
        if len(unions) == 1 and None not in unions:
            theorem = unions.pop()
        else:
            theorem = DISJOINT_COMPLEX if regime == COMPLEX else DISJOINT_REAL
    return BoundReport(bound, theorem, tuple(breakdown), _direct_sum(records))


def main_theorem_2_closed_form(
        pieces: Sequence[tuple[ManifoldSpec, int]]) -> int:
    """Power-of-two evaluation of the disjoint-union bound.

    Every piece must match a rule of Main Theorem II: a plane with a
    power-of-two point count or a single closed sphere/projective factor
    with two points.
    """
    total = 0
    for spec, points in pieces:
        require_spec(spec)
        try:
            union = lambda_top(spec, points, REAL).union
        except ValueError:  # no rule, or a point count below two
            union = None
        if union != MAIN_THEOREM_2:
            raise ValueError(
                f"({render(spec)}, {points}) is outside the disjoint-union "
                "theorem's families")
        total += (main_theorem_1_closed_form(spec) if is_closed(spec)
                  else 2 * points - 1)
    return total


def upper_existence_piece(spec: ManifoldSpec, points: int,
                          regime: str = REAL) -> Optional[ExistenceRecord]:
    """Smallest construction of the piece's rules in `regime`, or None."""
    require_piece(spec, points, regime)
    return resolve(spec, points, regime)[1]


def upper_existence(query: RegularQuery) -> Optional[ExistenceRecord]:
    """Direct sum of per-piece constructions when every piece has one."""
    return _direct_sum([resolve(spec, points, query.regime)[1]
                        for spec, points in query.pieces])


def _direct_sum(records: list) -> Optional[ExistenceRecord]:
    """The pieces' coordinate direct sum, or None if one has none."""
    if len(records) == 1:
        return records[0]
    if None in records:
        return None
    total = sum(record.ambient_dim for record in records)
    return ExistenceRecord(total, "coordinate direct sum of piece "
                                  "constructions")
