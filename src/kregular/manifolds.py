"""Manifold specifications and their mod-2 dual class data.

Specs cover spheres, the three projective families, Euclidean space, and
finite products of those.  The total Stiefel-Whitney class of a projective
space is (1 + g)^(m+1) in the truncated one-generator ring GF(2)[g]/(g^(m+1))
with |g| = 1, 2, 4 for RP, CP, HP; spheres and Euclidean space have total
class 1.  Total classes are multiplicative (Whitney product formula), so the
dual class of a product is the product of the factors' dual classes, each
inverted in its factor's own one-generator ring.  The joint ring, with one
generator per projective factor (factors with trivial class contribute none)
truncated at the total real dimension, is built only to hold that product
when the whole dual class is asked for; nothing is inverted there.

The headline quantity is the top degree of the dual class.  Over GF(2) the
product of the factors' nonzero top terms is nonzero, so it is the sum of the
factor top degrees, computed two ways that must agree: per-factor series
inversion, and the closed-form power-of-two expressions.  Floor of log2 is
taken with int.bit_length, never floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .fields import GF2
from .series import GradedSeries, SeriesRing


def _require_dim(m: int, least: int, family: str) -> None:
    if not isinstance(m, int) or m < least:
        raise ValueError(f"{family} needs an integer dimension >= {least}, "
                         f"got {m!r}")


@dataclass(frozen=True)
class Sphere:
    m: int

    def __post_init__(self):
        _require_dim(self.m, 2, "S^m")


@dataclass(frozen=True)
class RealProj:
    m: int

    def __post_init__(self):
        _require_dim(self.m, 2, "RP^m")


@dataclass(frozen=True)
class ComplexProj:
    m: int

    def __post_init__(self):
        _require_dim(self.m, 2, "CP^m")


@dataclass(frozen=True)
class QuatProj:
    m: int

    def __post_init__(self):
        _require_dim(self.m, 2, "HP^m")


@dataclass(frozen=True)
class Euclid:
    m: int

    def __post_init__(self):
        _require_dim(self.m, 1, "R^m")


@dataclass(frozen=True)
class Product:
    factors: tuple

    def __post_init__(self):
        flat: list[ManifoldSpec] = []
        for factor in self.factors:
            if isinstance(factor, Product):
                flat.extend(factor.factors)
            elif isinstance(factor, (Sphere, RealProj, ComplexProj, QuatProj,
                                     Euclid)):
                flat.append(factor)
            else:
                raise ValueError(f"not a manifold spec: {factor!r}")
        if not flat:
            raise ValueError("empty product")
        object.__setattr__(self, "factors", tuple(flat))


ManifoldSpec = Union[Sphere, RealProj, ComplexProj, QuatProj, Euclid, Product]

_ATOM_PREFIX = {Sphere: "S", RealProj: "RP", ComplexProj: "CP",
                QuatProj: "HP", Euclid: "R"}
_GENERATOR_LETTER = {RealProj: "a", ComplexProj: "b", QuatProj: "d"}
_GENERATOR_DEGREE = {RealProj: 1, ComplexProj: 2, QuatProj: 4}


def atoms(spec: ManifoldSpec) -> tuple:
    """Flat factor list; a non-product spec is its own single atom."""
    return spec.factors if isinstance(spec, Product) else (spec,)


def real_dimension(spec: ManifoldSpec) -> int:
    total = 0
    for atom in atoms(spec):
        scale = _GENERATOR_DEGREE.get(type(atom), 1)
        total += scale * atom.m
    return total


def is_closed(spec: ManifoldSpec) -> bool:
    return all(not isinstance(atom, Euclid) for atom in atoms(spec))


def render(spec: ManifoldSpec) -> str:
    """ASCII form like 'S^3 x RP^5'; inverse of the expression parser."""
    return " x ".join(f"{_ATOM_PREFIX[type(atom)]}^{atom.m}"
                      for atom in atoms(spec))


def cohomology_ring(spec: ManifoldSpec) -> SeriesRing:
    """Joint GF(2) ring holding the total and dual classes of `spec`.

    One generator per projective factor, capped at exponent m (g^(m+1) = 0);
    sphere and Euclidean factors carry total class 1 and contribute no
    generator.  Truncation is the total real dimension.
    """
    factors = atoms(spec)
    generators: list[tuple[str, int]] = []
    caps: list[int] = []
    projective = [a for a in factors if type(a) in _GENERATOR_LETTER]
    for i, atom in enumerate(projective):
        letter = _GENERATOR_LETTER[type(atom)]
        name = letter if len(factors) == 1 else f"{letter}{i + 1}"
        generators.append((name, _GENERATOR_DEGREE[type(atom)]))
        caps.append(atom.m)
    return SeriesRing(GF2, generators, real_dimension(spec), caps or None)


def total_sw(spec: ManifoldSpec) -> GradedSeries:
    """Total Stiefel-Whitney class of the tangent bundle, mod 2."""
    ring = cohomology_ring(spec)
    total = ring.one()
    gen_index = 0
    for atom in atoms(spec):
        if type(atom) not in _GENERATOR_LETTER:
            continue
        g = ring.gen(ring.names[gen_index])
        gen_index += 1
        total = total * (ring.one() + g) ** (atom.m + 1)
    return total


def dual_sw(spec: ManifoldSpec) -> GradedSeries:
    """Inverse of the total class, as the product of the factor duals.

    Each projective factor's total class is inverted in its own
    one-generator ring, and the result moves onto that factor's generator
    of the joint ring; nothing is inverted in the joint ring.
    """
    ring = cohomology_ring(spec)
    projective = [a for a in atoms(spec) if type(a) in _GENERATOR_LETTER]
    dual = ring.one()
    for i, atom in enumerate(projective):
        after = (0,) * (len(projective) - i - 1)
        dual = dual * ring.from_terms(
            {(0,) * i + e + after: c
             for e, c in total_sw(atom).inverse().terms.items()})
    return dual


@dataclass(frozen=True)
class DualClassProfile:
    """Top nonvanishing degree of the dual class, with the method used."""

    spec: ManifoldSpec
    top_degree: int
    method: str


def top_dual_degree(spec: ManifoldSpec) -> DualClassProfile:
    """Brute force: sum the top degrees of the factors' dual classes.

    Each factor's total class is inverted in its own one-generator ring;
    every factor dual contains 1, so each has a top degree.
    """
    top = sum(total_sw(atom).inverse().top_degree() for atom in atoms(spec))
    return DualClassProfile(spec, top, "series-inversion")


def floor_log2(m: int) -> int:
    if m < 1:
        raise ValueError("floor_log2 needs a positive integer")
    return m.bit_length() - 1


def _atom_top_dual_degree(atom) -> int:
    if isinstance(atom, (Sphere, Euclid)):
        return 0
    j = floor_log2(atom.m)
    scale = _GENERATOR_DEGREE[type(atom)]
    return scale * (2 ** (j + 1) - atom.m - 1)


def top_dual_degree_closed_form(spec: ManifoldSpec) -> DualClassProfile:
    """Closed form: power-of-two expressions per factor, summed."""
    top = sum(_atom_top_dual_degree(atom) for atom in atoms(spec))
    return DualClassProfile(spec, top, "closed-form")
