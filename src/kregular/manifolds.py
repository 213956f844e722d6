"""Manifold specifications and their mod-2 dual class data.

Specs cover spheres, the three projective families, Euclidean space, and
finite products of those.  Each family is one subclass of Atom, and the
facts that differ by family (prefix, closedness, dimension scale, generator
letter) live there as class data and nowhere else; every other module reads
them from the atom.  Only the piece rules, which depend on family, point
count and regime together (bundles.PIECE_RULES), test the family
explicitly; the closed-form references in bounds are built from
top_dual_degree_closed_form and test no family.

The total Stiefel-Whitney class of a projective space is (1 + g)^(m+1) in
GF(2)[g]/(g^(m+1)) with |g| = 1, 2, 4 for RP, CP, HP; spheres and
Euclidean space have total class 1.  Mod 2 the coefficient of g^i in the
dual class (1 + g)^-(m+1) is C(m+i, i), odd exactly when i & m == 0
(Lucas), so the dual class is read off m's binary digits, not inverted.
Total classes are multiplicative (Whitney product formula), and the
factors' generators are distinct, so the terms of a product's dual class
are the combinations of one exponent per factor, each with coefficient 1.

The headline quantity is the top degree of the dual class.  Over GF(2) the
product of the factors' nonzero top terms is nonzero, so it is the sum of the
factor top degrees, computed two ways that must agree: Lucas's theorem, and
the closed-form power-of-two expressions.  Floor of log2 is taken with
int.bit_length, never floating point.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import product
from typing import ClassVar, Optional, Union

from .record import Record


class Atom(Record):
    """One factor: a family's m-dimensional member.

    Subclasses are the families and set only class data: the expression
    prefix, whether members are closed (closed families start at m = 2,
    Euclidean space at m = 1), the real dimension per unit of m, and the
    Stiefel-Whitney generator letter, None when the total class is 1.
    A class that sets no prefix, such as Atom itself, cannot be built.
    """

    __slots__ = ("m",)

    prefix: ClassVar[Optional[str]] = None
    closed: ClassVar[bool] = True
    dim_per_m: ClassVar[int] = 1
    letter: ClassVar[Optional[str]] = None

    def _check(self, m: int) -> tuple:
        if self.prefix is None:
            raise TypeError(f"{type(self).__name__} sets no prefix; build a "
                            "family such as Sphere or RealProj")
        least = 2 if self.closed else 1
        if not isinstance(m, int) or isinstance(m, bool) or m < least:
            raise ValueError(f"{self.prefix}^m needs an integer dimension "
                             f">= {least}, got {m!r}")
        return (m,)


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

    def _check(self, factors: tuple) -> tuple:
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
        # A lone factor is spelled only as its atom, so a spec has one form.
        if len(flat) == 1:
            raise ValueError(f"a product needs at least two factors, got "
                             f"{render(flat[0])} alone")
        return (tuple(flat),)


ManifoldSpec = Union[Atom, Product]


def require_spec(spec) -> None:
    if not isinstance(spec, (Atom, Product)):
        raise ValueError(f"not a manifold spec: {spec!r}")


def atoms(spec: ManifoldSpec) -> tuple:
    """Flat factor list; a non-product spec is its own single atom."""
    return spec.factors if isinstance(spec, Product) else (spec,)


def real_dimension(spec: ManifoldSpec) -> int:
    dimension = 0
    for atom in atoms(spec):
        dimension += atom.dim_per_m * atom.m
    return dimension


def is_closed(spec: ManifoldSpec) -> bool:
    for atom in atoms(spec):
        if not atom.closed:
            return False
    return True


def render(spec: ManifoldSpec) -> str:
    """ASCII form like 'S^3 x RP^5'; inverse of the expression parser."""
    return " x ".join([f"{atom.prefix}^{atom.m}" for atom in atoms(spec)])


def _free(atom: Atom) -> int:
    """Bits below m's top bit that m leaves clear; 0 for a trivial class."""
    if atom.letter is None:
        return 0
    return ~atom.m & ((1 << (atom.m.bit_length() - 1)) - 1)


def dual_exponents(atom: Atom) -> list:
    """Exponents i of one factor's dual class, ascending: the i <= m with
    i & m == 0, which are the submasks of `_free(atom)`.
    """
    free, sub = _free(atom), 0
    exponents = [sub]
    while sub != free:
        sub = (sub - free) & free
        exponents.append(sub)
    return exponents


class DualClass(Record):
    """Generator names, and the exponent tuples of the terms in render
    order: by degree, then by tuple.
    """

    __slots__ = ("names", "terms")

    def render(self) -> str:
        """ASCII string like '1 + a1^2 + a1*b2'.

        Each generator's powers are spelled once, in a table per factor,
        and a term joins its factors' entries; exponent 0 spells as '' and
        is left out.  This keeps string formatting out of the per-term
        work, which is most of the time for a class of millions of terms.
        """
        get = dict.__getitem__
        powers = [_Powers(name) for name in self.names]
        return " + ".join(["*".join(filter(None, map(get, powers, term)))
                           or "1" for term in self.terms])


class _Powers(dict):
    """One generator's exponent -> text table, filled as exponents occur."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __missing__(self, e: int) -> str:
        name = self.name
        text = self[e] = "" if e == 0 else name if e == 1 else f"{name}^{e}"
        return text


def dual_sw(spec: ManifoldSpec) -> DualClass:
    """The product of the factors' dual classes, one generator per projective
    factor.  `product` yields terms in lexicographic order, so each degree's
    bucket fills in render order.
    """
    factors = [atom for atom in atoms(spec) if atom.letter]
    single = len(atoms(spec)) == 1
    names = tuple(atom.letter if single else f"{atom.letter}{i + 1}"
                  for i, atom in enumerate(factors))
    exponents = [dual_exponents(atom) for atom in factors]
    degrees = map(sum, product(*[[atom.dim_per_m * e for e in column]
                                 for atom, column in zip(factors, exponents)]))
    buckets = defaultdict(list)
    for term, degree in zip(product(*exponents), degrees):
        buckets[degree].append(term)
    return DualClass(names, tuple(
        term for degree in sorted(buckets) for term in buckets[degree]))


class DualClassProfile(Record):
    """Top nonvanishing degree of the dual class, with the method used."""

    __slots__ = ("spec", "top_degree", "method")


def top_dual_degree(spec: ManifoldSpec) -> DualClassProfile:
    """Sum of the factors' largest Lucas exponents, `_free(atom)`."""
    top = sum(atom.dim_per_m * _free(atom) for atom in atoms(spec))
    return DualClassProfile(spec, top, "lucas")


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
