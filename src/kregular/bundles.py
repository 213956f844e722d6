"""Top nonvanishing degrees for configuration-space bundles.

A BundleProfile records, for a base manifold and a point count, the largest
degree in which the relevant characteristic class of the associated
configuration bundle survives, the ambient dimension that forces on a piece
of a k-regular map, and the rule that produced both.  Only rules backed by a
computation or a cited identity are implemented; anything else raises
UnsupportedBundleError rather than guessing.
"""

from __future__ import annotations

from typing import Optional

from .fields import is_prime
from .grassmann import chern_height_of_first_class
from .manifolds import (ComplexProj, Euclid, ManifoldSpec, Sphere, is_closed,
                        real_dimension, render, top_dual_degree)
from .record import Record

REAL = "real"
COMPLEX = "complex"


class UnsupportedBundleError(ValueError):
    """No implemented rule determines the requested bundle degree."""


class BundleProfile(Record):
    """Top degree data for the k-point bundle over `spec`.

    `top_degree` is exact unless `is_lower_bound` is set, in which case the
    true top degree is only known to be >= it.  It is None for a piece of a
    cited closed-form bound, which quotes the ambient dimension but no class
    degree.  `contribution` is the ambient dimension the piece forces.
    `source` names the rule.
    """

    __slots__ = ("spec", "points", "regime", "top_degree", "contribution",
                 "is_lower_bound", "source")

    def __init__(self, spec: ManifoldSpec, points: int, regime: str,
                 top_degree: Optional[int], contribution: int,
                 is_lower_bound: bool, source: str):
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "regime", regime)
        object.__setattr__(self, "top_degree", top_degree)
        object.__setattr__(self, "contribution", contribution)
        object.__setattr__(self, "is_lower_bound", is_lower_bound)
        object.__setattr__(self, "source", source)


def lambda_top(spec: ManifoldSpec, points: int = 2,
               regime: str = REAL) -> BundleProfile:
    """Top degree d of the k-point bundle class, or a certified lower bound.

    The rules, each with the contribution its piece makes to a bound:

    - real (R^2, k), k a power of two: d = k-1, contributes d + k;
    - real (M, 2), M closed: d = dim M + top dual class degree, contributes
      d + 2;
    - complex (S^m, 2): d = floor(m/2), contributes d + 2;
    - complex (CP^m, 2), m >= 4: d >= 2m-2, the height of c1 in
      H*(G_2(C^(m+1)); QQ) (the box size 2(m-1)), contributes d + 2;
    - complex (R^m, p), p an odd prime: d >= floor((m+1)/2)*(p-1),
      contributes d + 1.

    Everything else raises.
    """
    if not isinstance(points, int) or points < 2:
        raise ValueError(f"point count must be an integer >= 2, got {points!r}")
    if regime == REAL:
        if isinstance(spec, Euclid) and spec.m == 2:
            if points & (points - 1) == 0:
                return BundleProfile(
                    spec, points, regime, points - 1, 2 * points - 1, False,
                    "plane bundle with power-of-two points (Cohen-Handel "
                    "1978): top class in degree k-1")
            raise UnsupportedBundleError(
                f"({render(spec)}, {points}): plane rule needs a "
                "power-of-two point count")
        if points == 2 and is_closed(spec):
            degree = real_dimension(spec) + top_dual_degree(spec).top_degree
            return BundleProfile(
                spec, points, regime, degree, degree + 2, False,
                "two-point bundle over a closed manifold: dimension plus "
                "top dual class degree")
        raise UnsupportedBundleError(
            f"({render(spec)}, {points}) has no real-regime rule "
            "(closed specs need exactly two points)")
    if regime == COMPLEX:
        if isinstance(spec, Euclid):
            if not (points % 2 == 1 and is_prime(points)):
                raise UnsupportedBundleError(
                    f"({render(spec)}, {points}): complex plane pieces "
                    "need an odd prime point count")
            degree = (spec.m + 1) // 2 * (points - 1)
            return BundleProfile(
                spec, points, regime, degree, degree + 1, True,
                "complex p-point classes over R^m survive to degree "
                "floor((m+1)/2)*(p-1) (Blagojevic-Cohen-Luck-Ziegler 2015)")
        if isinstance(spec, Sphere) and points == 2:
            degree = spec.m // 2
            return BundleProfile(
                spec, points, regime, degree, degree + 2, False,
                "complex two-point bundle over a sphere: top degree "
                "floor(m/2)")
        if isinstance(spec, ComplexProj) and points == 2 and spec.m >= 4:
            height = chern_height_of_first_class(2, spec.m)
            return BundleProfile(
                spec, points, regime, height, height + 2, True,
                "complex two-point bundle over CP^m: top degree >= 2m-2 "
                "(ring height of the first class)")
        raise UnsupportedBundleError(
            f"({render(spec)}, {points}) has no complex-regime rule")
    raise ValueError(f"unknown regime {regime!r}")
