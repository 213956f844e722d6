"""The piece rules: one table of what bounds and builds each kind of piece.

A piece is a manifold spec with a point count.  Each row of `PIECE_RULES`
states one fact about a family of pieces in one regime: its lower bound (the
top degree of the configuration bundle's class and the ambient dimension
that forces), its construction (an ExistenceRecord), the refusal for a near
miss, and its theorem.  `require_piece` checks a piece, and `resolve` walks
its rows once: it returns the lower row's BundleProfile (the bound and the
theorem labels) or the UnsupportedBundleError refusing the piece, with the
smallest construction.  A new bound or construction is one more row.  The
RP^m table of 3-regular maps is here too.
"""

from __future__ import annotations

from typing import Optional

from .fields import is_prime
from .grassmann import chern_height_of_first_class
from .manifolds import (Atom, ComplexProj, Euclid, ManifoldSpec, Product,
                        RealProj, Sphere, _free, atoms, is_closed, render,
                        require_spec)
# Unused here, but kbench/test_smoke.py asserts that the tracer wraps
# bundles.top_dual_degree; ROADMAP item 4 moves that pin.
from .manifolds import top_dual_degree  # noqa: F401
from .record import Record

REAL = "real"
COMPLEX = "complex"

MAIN_THEOREM_1 = "Main Theorem I"
MAIN_THEOREM_2 = "Main Theorem II"
DISJOINT_REAL = "disjoint union lower bound (real)"
DISJOINT_COMPLEX = "disjoint union lower bound (complex)"
BCLZ_2015 = "Blagojevic-Cohen-Luck-Ziegler (2015)"
COMPLEX_TWO_POINT = "complex two-point lower bound"


class UnsupportedBundleError(ValueError):
    """No implemented rule determines the requested bundle degree."""


class BundleProfile(Record):
    """Top degree data for the k-point bundle over `spec`, and its theorem.

    `top_degree` is exact unless `is_lower_bound` is set, in which case the
    true top degree is only known to be >= it.  `contribution` is the
    ambient dimension the piece forces.  `source` names the rule.
    `theorem` labels the piece alone; `union`, if set, labels a union whose
    pieces all carry it.
    """

    __slots__ = ("spec", "points", "regime", "top_degree", "contribution",
                 "is_lower_bound", "source", "theorem", "union")


class ExistenceRecord(Record):
    """A construction: a k-regular map into R^(ambient_dim) exists."""

    __slots__ = ("ambient_dim", "source")


def _is_power_of_two(n: int) -> bool:
    return n > 0 and n & (n - 1) == 0


# ---------------------------------------------------------------------------
# 3-regular maps of real projective spaces.

class TableRow(Record):
    __slots__ = ("label", "matches", "ambient")


PROJECTIVE_3REGULAR_TABLE: tuple[TableRow, ...] = (
    TableRow("m = 8q+3 or 8q+5 (q > 0)",
             lambda m: m % 8 in (3, 5) and m // 8 > 0,
             lambda m: 2 * m - min(5, (m // 8).bit_count())),
    TableRow("m = 8q+1 (q > 0)",
             lambda m: m % 8 == 1 and m // 8 > 0,
             lambda m: 2 * m - min(7, (m // 8).bit_count()) + 2),
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
             lambda m: m % 4 == 1 and not _is_power_of_two(m - 1),
             lambda m: 2 * m - 2),
    TableRow("m = 4q or 4q+2, q > 0 and not a power of two",
             lambda m: m % 4 in (0, 2) and m // 4 > 0
             and not _is_power_of_two(m // 4),
             lambda m: 2 * m - 1),
    TableRow("m = 2^j + 1 (j >= 2)",
             lambda m: m - 1 >= 4 and _is_power_of_two(m - 1),
             lambda m: 2 * m - 1),
    TableRow("m = 2^j + 2 (j >= 3)",
             lambda m: m - 2 >= 8 and _is_power_of_two(m - 2),
             lambda m: 2 * m),
)


def projective_table_matches(m: int) -> list[tuple[TableRow, int]]:
    """All table rows covering RP^m, with their ambient dimensions."""
    return [(row, row.ambient(m)) for row in PROJECTIVE_3REGULAR_TABLE
            if row.matches(m)]


def projective_3regular_upper(m: int,
                              suffix: str = "") -> Optional[ExistenceRecord]:
    """Smallest tabled ambient dimension for a 3-regular map of RP^m.

    The record's source names the table row, followed by `suffix`.
    """
    hits = projective_table_matches(m)
    if not hits:
        return None
    row, ambient = min(hits, key=lambda pair: pair[1])
    return ExistenceRecord(
        ambient, f"3-regular projective construction, {row.label}{suffix}")


# ---------------------------------------------------------------------------
# The rules.

class PieceRule(Record):
    """One family of pieces in one regime: its bound, construction, theorem.

    (spec, k) is of the family when type(spec) is in `kinds` and spec
    passes `where` (if set), and matches when `points(k)` holds too.  A
    family member that does not match raises `refusal` if the rule has one.
    `lower` maps (spec, k) to (top_degree, contribution, is_lower_bound,
    source), which lambda_top completes to a BundleProfile with the rule's
    `theorem` and `union`; `construct` maps (spec, k) to an ExistenceRecord
    or None.
    """

    __slots__ = ("regime", "kinds", "points", "where", "refusal", "lower",
                 "construct", "theorem", "union")
    _defaults = dict.fromkeys(("where", "refusal", "lower", "construct",
                               "theorem", "union"))


def _plane_profile(spec, k):
    return (k - 1, 2 * k - 1, False,
            "plane bundle with power-of-two points (Cohen-Handel 1978): top "
            "class in degree k-1")


def _closed_profile(spec, k):
    # Dimension plus top dual degree, in one walk: each factor's share of
    # the top dual degree is dim_per_m * _free(atom) (Lucas's theorem).
    degree = 0
    for atom in atoms(spec):
        degree += atom.dim_per_m * (atom.m + _free(atom))
    return (degree, degree + 2, False,
            "two-point bundle over a closed manifold: dimension plus top "
            "dual class degree")


def _complex_plane_profile(spec, p):
    degree = (spec.m + 1) // 2 * (p - 1)
    return (degree, degree + 1, True,
            "complex p-point classes over R^m survive to degree "
            "floor((m+1)/2)*(p-1) (Blagojevic-Cohen-Luck-Ziegler 2015)")


def _complex_sphere_profile(spec, k):
    degree = spec.m // 2
    return (degree, degree + 2, False,
            "complex two-point bundle over a sphere: top degree floor(m/2)")


def _complex_cp_profile(spec, k):
    # The height of c1 in H*(G_2(C^(m+1)); QQ), the box size 2(m-1).
    height = chern_height_of_first_class(2, spec.m)
    return (height, height + 2, True,
            "complex two-point bundle over CP^m: top degree >= 2m-2 (ring "
            "height of the first class)")


def _projective_construction(spec, k):
    return projective_3regular_upper(
        spec.m, "" if k == 3 else " (restricted to 2-regular)")


def _is_plane(spec):
    return spec.m == 2


# Closedness is class data of each atom family.
_CLOSED_FAMILIES = tuple(kind for kind in Atom.__subclasses__()
                         if kind.closed)

PIECE_RULES: tuple[PieceRule, ...] = (
    # Real lower rules.  Main Theorem II's planes need 2^j points; Main
    # Theorem I covers a closed spec at two points, and a single sphere or
    # projective factor there is a Main Theorem II piece too.
    PieceRule(REAL, (Euclid,), _is_power_of_two, where=_is_plane,
              refusal="plane rule needs a power-of-two point count",
              lower=_plane_profile, theorem=MAIN_THEOREM_2,
              union=MAIN_THEOREM_2),
    PieceRule(REAL, _CLOSED_FAMILIES, lambda k: k == 2,
              lower=_closed_profile, theorem=MAIN_THEOREM_1,
              union=MAIN_THEOREM_2),
    PieceRule(REAL, (Product,), lambda k: k == 2, where=is_closed,
              lower=_closed_profile, theorem=MAIN_THEOREM_1),
    # Real constructions.
    PieceRule(REAL, (Euclid,), lambda k: k >= 2, where=_is_plane,
              construct=lambda spec, k: ExistenceRecord(
                  2 * k - 1, "monomial curve in the plane (Cohen-Handel "
                             "1978)")),
    PieceRule(REAL, (Sphere,), lambda k: k in (2, 3),
              construct=lambda spec, k: ExistenceRecord(
                  spec.m + 2, "sphere (1, x) embedding (3-regular)")),
    PieceRule(REAL, (RealProj,), lambda k: k in (2, 3),
              construct=_projective_construction),
    # Complex lower rules.
    PieceRule(COMPLEX, (Euclid,), lambda p: p % 2 == 1 and is_prime(p),
              refusal="complex plane pieces need an odd prime point count",
              lower=_complex_plane_profile, theorem=BCLZ_2015),
    PieceRule(COMPLEX, (Sphere,), lambda k: k == 2,
              lower=_complex_sphere_profile, theorem=COMPLEX_TWO_POINT),
    PieceRule(COMPLEX, (ComplexProj,), lambda k: k == 2,
              where=lambda spec: spec.m >= 4, lower=_complex_cp_profile,
              theorem=COMPLEX_TWO_POINT),
)


# regime -> spec class -> its rules, in table order.
_BY_KIND: dict = {REAL: {}, COMPLEX: {}}
for _rule in PIECE_RULES:
    for _kind in _rule.kinds:
        _BY_KIND[_rule.regime].setdefault(_kind, []).append(_rule)
# The message for a piece no lower rule of the regime covers.
_NO_RULE = {REAL: "has no real-regime rule (closed specs need exactly two "
                  "points)",
            COMPLEX: "has no complex-regime rule"}


def require_piece(spec: ManifoldSpec, points: int, regime: str) -> None:
    """Refuses an unknown regime, a non-spec, a bad point count, in order."""
    if regime not in _BY_KIND:
        raise ValueError(f"unknown regime {regime!r}")
    require_spec(spec)
    if not isinstance(points, int) or points < 2:
        raise ValueError(f"piece ({render(spec)}, {points!r}): "
                         "point count must be an integer >= 2")


def resolve(spec: ManifoldSpec, points: int, regime: str) -> tuple:
    """(profile, construction) of a piece `require_piece` passed, from one
    walk of its rows in table order.  The profile is a BundleProfile or the
    UnsupportedBundleError that refuses the piece; the construction is the
    smallest ExistenceRecord of its matching rows (the first of equals in
    table order), or None."""
    profile, best = None, None
    for rule in _BY_KIND[regime].get(type(spec), ()):
        if rule.where is not None and not rule.where(spec):
            continue
        if rule.lower is not None and profile is None:
            if rule.points(points):
                profile = BundleProfile(spec, points, regime,
                                        *rule.lower(spec, points),
                                        rule.theorem, rule.union)
            elif rule.refusal is not None:
                profile = UnsupportedBundleError(
                    f"({render(spec)}, {points}): {rule.refusal}")
        if rule.construct is not None and rule.points(points):
            record = rule.construct(spec, points)
            if record is not None and (best is None or record.ambient_dim
                                       < best.ambient_dim):
                best = record
    if profile is None:
        profile = UnsupportedBundleError(
            f"({render(spec)}, {points}) {_NO_RULE[regime]}")
    return profile, best


def lambda_top(spec: ManifoldSpec, points: int = 2,
               regime: str = REAL) -> BundleProfile:
    """BundleProfile from the lower rule covering the piece, else a refusal."""
    require_piece(spec, points, regime)
    profile = resolve(spec, points, regime)[0]
    if isinstance(profile, ValueError):
        raise profile
    return profile
