"""Manifold specifications and their mod-2 dual class data.

Specs cover spheres, the three projective families, Euclidean space, and
finite products of those.  Each family is one subclass of Atom, and the
facts that differ by family (prefix, closedness, dimension scale, generator
letter) live there as class data and nowhere else; every other module reads
them from the atom.  Only rules that depend on family, point count and
regime together (bundles.lambda_top and bounds.upper_existence_piece) test
the family explicitly; the closed-form references in bounds are built from
top_dual_degree_closed_form and test no family.

The total Stiefel-Whitney class of a projective space is (1 + g)^(m+1) in
the truncated one-generator ring GF(2)[g]/(g^(m+1)) with |g| = 1, 2, 4 for
RP, CP, HP; spheres and Euclidean space have total class 1.  A class in
that ring is held as one Python int whose bit i is the coefficient of g^i,
and the factor's dual class is inverted on those bits, degree by degree.
Total classes are multiplicative (Whitney product formula), so the dual
class of a product is the product of the factors' dual classes.  The joint
ring, with one generator per projective factor (factors with trivial class
contribute none) cut at the total real dimension, holds that product when
the whole dual class is asked for.  Its generators are distinct, so the
product's terms are the combinations of the factors' exponents, each at
most its factor's m, and no series arithmetic is needed.  The tests build
total classes as series, invert them in the joint ring and reduce modulo
every g^(m+1) to check the bit inversion.

The headline quantity is the top degree of the dual class.  Over GF(2) the
product of the factors' nonzero top terms is nonzero, so it is the sum of the
factor top degrees, computed two ways that must agree: per-factor bit
inversion, and the closed-form power-of-two expressions.  Floor of log2 is
taken with int.bit_length, never floating point.
"""

from __future__ import annotations

from itertools import product
from typing import ClassVar, Optional, Union

from .record import Record
from .series import GradedSeries, SeriesRing


class Atom(Record):
    """One factor: a family's m-dimensional member.

    Subclasses are the families and set only class data: the expression
    prefix, whether members are closed (closed families start at m = 2,
    Euclidean space at m = 1), the real dimension per unit of m, and the
    Stiefel-Whitney generator letter, None when the total class is 1.
    A class that sets no prefix, such as Atom itself, cannot be built.
    """

    __slots__ = ("m",)

    prefix: ClassVar[str]
    closed: ClassVar[bool] = True
    dim_per_m: ClassVar[int] = 1
    letter: ClassVar[Optional[str]] = None

    def __init__(self, m: int):
        if not hasattr(self, "prefix"):
            raise TypeError(f"{type(self).__name__} sets no prefix; build a "
                            "family such as Sphere or RealProj")
        least = 2 if self.closed else 1
        if not isinstance(m, int) or isinstance(m, bool) or m < least:
            raise ValueError(f"{self.prefix}^m needs an integer dimension "
                             f">= {least}, got {m!r}")
        object.__setattr__(self, "m", m)


class Sphere(Atom):
    __slots__ = ()
    prefix = "S"


class RealProj(Atom):
    __slots__ = ()
    prefix = "RP"
    letter = "a"


class ComplexProj(Atom):
    __slots__ = ()
    prefix = "CP"
    dim_per_m = 2
    letter = "b"


class QuatProj(Atom):
    __slots__ = ()
    prefix = "HP"
    dim_per_m = 4
    letter = "d"


class Euclid(Atom):
    __slots__ = ()
    prefix = "R"
    closed = False


class Product(Record):
    __slots__ = ("factors",)

    def __init__(self, factors: tuple):
        flat: list[Atom] = []
        for factor in factors:
            if isinstance(factor, Product):
                flat.extend(factor.factors)
            elif isinstance(factor, Atom):
                flat.append(factor)
            else:
                raise ValueError(f"not a manifold spec: {factor!r}")
        if not flat:
            raise ValueError("empty product")
        object.__setattr__(self, "factors", tuple(flat))


ManifoldSpec = Union[Atom, Product]


def atoms(spec: ManifoldSpec) -> tuple:
    """Flat factor list; a non-product spec is its own single atom."""
    return spec.factors if isinstance(spec, Product) else (spec,)


def _projective(spec: ManifoldSpec) -> list:
    """Factors with a Stiefel-Whitney generator, in order."""
    return [atom for atom in atoms(spec) if atom.letter]


def real_dimension(spec: ManifoldSpec) -> int:
    return sum(atom.dim_per_m * atom.m for atom in atoms(spec))


def is_closed(spec: ManifoldSpec) -> bool:
    return all(atom.closed for atom in atoms(spec))


def render(spec: ManifoldSpec) -> str:
    """ASCII form like 'S^3 x RP^5'; inverse of the expression parser."""
    return " x ".join(f"{atom.prefix}^{atom.m}" for atom in atoms(spec))


def cohomology_ring(spec: ManifoldSpec) -> SeriesRing:
    """Joint GF(2) ring holding the dual class of `spec`.

    One generator per projective factor; sphere and Euclidean factors carry
    total class 1 and contribute no generator.  The ring is cut by degree
    only, at the total real dimension: it does not impose g^(m+1) = 0, so
    two specs with the same generators and dimension share one ring.
    """
    single = len(atoms(spec)) == 1
    generators = [(atom.letter if single else f"{atom.letter}{i + 1}",
                   atom.dim_per_m)
                  for i, atom in enumerate(_projective(spec))]
    return SeriesRing(generators, real_dimension(spec))


def _dual_bits(atom: Atom) -> int:
    """Dual class of one factor in GF(2)[g]/(g^(m+1)); bit i is g^i.

    Builds the total class (1 + g)^(m+1) by m+1 multiplications by 1 + g,
    then inverts it degree by degree: `check` is total * dual so far, and
    its lowest set bit above degree 0 is the next term the dual needs.
    """
    if atom.letter is None:
        return 1
    mask = (1 << (atom.m + 1)) - 1
    total = 1
    for _ in range(atom.m + 1):
        total = (total ^ (total << 1)) & mask
    dual, check = 1, total
    for d in range(1, atom.m + 1):
        if check >> d & 1:
            dual |= 1 << d
            check ^= total << d
    return dual


def dual_sw(spec: ManifoldSpec) -> GradedSeries:
    """Inverse of the total class, as the product of the factor duals.

    Each projective factor's dual class is inverted on bits in its own
    one-generator ring.  The joint ring's generators are distinct, so the
    product's terms are the combinations of one exponent per factor, each
    with coefficient 1.
    """
    exponents = [[i for i in range(bits.bit_length()) if bits >> i & 1]
                 for bits in map(_dual_bits, _projective(spec))]
    return GradedSeries(cohomology_ring(spec),
                        frozenset(product(*exponents)))


class DualClassProfile(Record):
    """Top nonvanishing degree of the dual class, with the method used."""

    __slots__ = ("spec", "top_degree", "method")

    def __init__(self, spec: ManifoldSpec, top_degree: int, method: str):
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "top_degree", top_degree)
        object.__setattr__(self, "method", method)


def top_dual_degree(spec: ManifoldSpec) -> DualClassProfile:
    """Brute force: sum the top degrees of the factors' dual classes.

    Each factor's total class is inverted on bits in its own one-generator
    ring; every factor dual contains 1, so each has a top degree.
    """
    top = sum(atom.dim_per_m * (_dual_bits(atom).bit_length() - 1)
              for atom in atoms(spec))
    return DualClassProfile(spec, top, "series-inversion")


def floor_log2(m: int) -> int:
    if m < 1:
        raise ValueError("floor_log2 needs a positive integer")
    return m.bit_length() - 1


def _atom_top_dual_degree(atom: Atom) -> int:
    if atom.letter is None:
        return 0
    j = floor_log2(atom.m)
    return atom.dim_per_m * (2 ** (j + 1) - atom.m - 1)


def top_dual_degree_closed_form(spec: ManifoldSpec) -> DualClassProfile:
    """Closed form: power-of-two expressions per factor, summed."""
    top = sum(_atom_top_dual_degree(atom) for atom in atoms(spec))
    return DualClassProfile(spec, top, "closed-form")
