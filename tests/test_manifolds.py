"""Manifold specs and their mod-2 total and dual class computations."""

import functools
import random
import subprocess
import sys

import pytest

from kregular import (ComplexProj, Euclid, Product, QuatProj, RealProj,
                      Sphere, atoms, dual_sw, floor_log2, is_closed,
                      real_dimension, render, top_dual_degree,
                      top_dual_degree_closed_form)
from kregular.manifolds import Atom, dual_exponents
from kregular.series import GradedSeries, SeriesRing
from test_cli import _fresh_process_env


def cohomology_ring(spec):
    """Joint GF(2) ring holding the dual class of `spec`.

    One generator per projective factor, named as `dual_sw` names them;
    sphere and Euclidean factors carry total class 1 and contribute no
    generator.  The ring is cut by degree only, at the total real
    dimension: it does not impose g^(m+1) = 0, so two specs with the same
    generators and dimension share one ring.
    """
    single = len(atoms(spec)) == 1
    projective = [atom for atom in atoms(spec) if atom.letter]
    generators = [(atom.letter if single else f"{atom.letter}{i + 1}",
                   atom.dim_per_m)
                  for i, atom in enumerate(projective)]
    return SeriesRing(generators, real_dimension(spec))


def _dual_bits(atom):
    """Dual class of one factor in GF(2)[g]/(g^(m+1)); bit i is g^i.

    The recurrence oracle for Lucas's theorem; spheres and Euclidean space
    have dual class 1.
    """
    return 1 if atom.letter is None else _inverted_total(atom.m)


@functools.lru_cache(maxsize=None)
def _inverted_total(m):
    """(1 + g)^-(m+1) mod g^(m+1) as bits, by a recurrence with no binomials.

    Builds the total class (1 + g)^(m+1) by m+1 multiplications by 1 + g,
    then inverts it degree by degree: `check` is total * dual so far, and
    its lowest set bit above degree 0 is the next term the dual needs.  The
    family only scales degrees, so the result is shared by RP, CP and HP.
    """
    mask = (1 << (m + 1)) - 1
    total = 1
    for _ in range(m + 1):
        total = (total ^ (total << 1)) & mask
    dual, check = 1, total
    for d in range(1, m + 1):
        if check >> d & 1:
            dual |= 1 << d
            check ^= total << d
    return dual


def as_series(dual, spec):
    """`dual_sw(spec)` as an element of the tests' joint ring."""
    ring = cohomology_ring(spec)
    assert dual.names == ring.names
    return GradedSeries(ring, frozenset(dual.terms))


def total_sw(spec):
    """Total Stiefel-Whitney class of the tangent bundle, mod 2, as a series.

    The oracle the dual class is checked against: each projective factor
    contributes (1 + g)^(m+1) in the joint ring.
    """
    ring = cohomology_ring(spec)
    total = ring.one()
    projective = [atom for atom in atoms(spec) if atom.letter]
    for name, atom in zip(ring.names, projective):
        total = total * (ring.one() + ring.gen(name)) ** (atom.m + 1)
    return total


def in_cohomology(series, spec):
    """`series` reduced modulo every g^(m+1): the terms with each exponent
    at most its factor's m.

    The joint ring is cut by degree only.  Reducing modulo the monomial
    ideal (g_i^(m_i+1)) is a ring map, so it commutes with products and
    inverses there, and a class computed in the joint ring and then reduced
    is the class in the cohomology ring.
    """
    caps = [atom.m for atom in atoms(spec) if atom.letter]
    return GradedSeries(series.ring, frozenset(
        e for e in series.terms
        if all(x <= cap for x, cap in zip(e, caps))))


def test_dimension_validation():
    for family in (Sphere, RealProj, ComplexProj, QuatProj):
        with pytest.raises(ValueError):
            family(1)
        with pytest.raises(ValueError):
            family(-2)
    with pytest.raises(ValueError):
        Euclid(0)
    assert Euclid(1).m == 1
    for family, bad, message in (
            (Sphere, 1, "S^m needs an integer dimension >= 2, got 1"),
            (RealProj, 1, "RP^m needs an integer dimension >= 2, got 1"),
            (ComplexProj, 0, "CP^m needs an integer dimension >= 2, got 0"),
            (QuatProj, -2, "HP^m needs an integer dimension >= 2, got -2"),
            (Euclid, 0, "R^m needs an integer dimension >= 1, got 0"),
            (Sphere, "3", "S^m needs an integer dimension >= 2, got '3'"),
            (Euclid, 2.0, "R^m needs an integer dimension >= 1, got 2.0"),
            # bool is an int subclass, but True is not a dimension.
            (Euclid, True, "R^m needs an integer dimension >= 1, got True")):
        with pytest.raises(ValueError) as info:
            family(bad)
        assert str(info.value) == message
    assert repr(RealProj(5)) == "RealProj(m=5)"
    assert Sphere(3) != RealProj(3)
    assert Sphere(3) == Sphere(3) and hash(Sphere(3)) == hash(Sphere(3))


def test_bare_atom_is_rejected():
    # The base, like any family that sets no prefix, could not be rendered
    # or parsed back.
    class Bare(Atom):
        __slots__ = ()

    for cls in (Atom, Bare):
        for m in (2, 3):
            with pytest.raises(TypeError) as info:
                cls(m)
            assert str(info.value) == (f"{cls.__name__} sets no prefix; "
                                       "build a family such as Sphere or "
                                       "RealProj")


def test_product_flattening_and_validation():
    inner = Product((Sphere(2), RealProj(3)))
    outer = Product((inner, ComplexProj(2)))
    assert outer.factors == (Sphere(2), RealProj(3), ComplexProj(2))
    with pytest.raises(ValueError):
        Product(())
    with pytest.raises(ValueError):
        Product((Sphere(2), "RP^3"))


def test_atoms_and_render():
    spec = Product((Sphere(3), RealProj(5)))
    assert atoms(spec) == (Sphere(3), RealProj(5))
    assert atoms(Sphere(4)) == (Sphere(4),)
    assert render(spec) == "S^3 x RP^5"
    assert render(QuatProj(2)) == "HP^2"


def test_real_dimension_and_closedness():
    assert real_dimension(Sphere(3)) == 3
    assert real_dimension(ComplexProj(2)) == 4
    assert real_dimension(QuatProj(2)) == 8
    assert real_dimension(Product((Euclid(2), ComplexProj(3)))) == 8
    assert is_closed(Product((Sphere(2), RealProj(3))))
    assert not is_closed(Product((Sphere(2), Euclid(1))))


def test_floor_log2():
    assert [floor_log2(m) for m in (1, 2, 3, 4, 7, 8)] == [0, 1, 1, 2, 2, 3]
    with pytest.raises(ValueError):
        floor_log2(0)


# ---------------------------------------------------------------------------
# Total classes.

def test_total_sw_sphere_is_one():
    for m in (2, 5, 9):
        assert total_sw(Sphere(m)).render() == "1"


def test_total_sw_rp5():
    assert total_sw(RealProj(5)).render() == "1 + a^2 + a^4"


def test_total_sw_cp2():
    assert total_sw(ComplexProj(2)).render() == "1 + b + b^2"


def test_total_sw_rp4():
    # (1+a)^5 with a^5 = 0: the binomial coefficients 5, 10, 10, 5 leave
    # only the linear and quartic terms.
    assert total_sw(RealProj(4)).render() == "1 + a + a^4"


# ---------------------------------------------------------------------------
# Dual classes.

def test_dual_sw_examples():
    assert dual_sw(RealProj(5)).render() == "1 + a^2"
    assert dual_sw(Sphere(6)).render() == "1"
    assert dual_sw(RealProj(4)).render() == "1 + a + a^2 + a^3"


def test_dual_sw_product_with_sphere_factor():
    spec = Product((Sphere(2), RealProj(3)))
    assert as_series(dual_sw(spec), spec) == cohomology_ring(spec).one()


def test_product_ring_generator_names():
    ring = cohomology_ring(Product((RealProj(3), ComplexProj(2))))
    assert ring.names == ("a1", "b2")
    assert ring.degrees == (1, 2)
    single = cohomology_ring(RealProj(5))
    assert single.names == ("a",)
    # Spheres carry no generator, so numbering counts projective factors.
    mixed_spec = Product((RealProj(3), Sphere(2), QuatProj(2),
                          ComplexProj(2)))
    mixed = cohomology_ring(mixed_spec)
    assert mixed.names == ("a1", "d2", "b3")
    assert dual_sw(mixed_spec).names == mixed.names
    assert mixed.degrees == (1, 4, 2)
    assert mixed.truncation == 3 + 2 + 8 + 4
    quaternionic = cohomology_ring(QuatProj(3))
    assert quaternionic.names == ("d",)
    assert quaternionic.degrees == (4,)
    assert cohomology_ring(Sphere(4)).names == ()
    # The ring is cut by degree only, so the same generators and dimension
    # give one ring; the dual classes still differ by their terms.
    first = Product((RealProj(2), RealProj(4)))
    second = Product((RealProj(3), RealProj(3)))
    assert cohomology_ring(first) == cohomology_ring(second)
    assert dual_sw(first) != dual_sw(second)


def test_total_times_dual_is_one():
    specs = [RealProj(7), ComplexProj(5), QuatProj(3), Sphere(4),
             Product((RealProj(6), ComplexProj(4))),
             Product((Sphere(3), RealProj(5), QuatProj(2)))]
    for spec in specs:
        assert real_dimension(spec) <= 64
        ring = cohomology_ring(spec)
        assert in_cohomology(total_sw(spec) * as_series(dual_sw(spec), spec),
                             spec) == ring.one()


def test_top_dual_degree_examples():
    assert top_dual_degree(RealProj(5)).top_degree == 2
    assert top_dual_degree(ComplexProj(4)).top_degree == 6
    assert top_dual_degree(QuatProj(2)).top_degree == 4
    assert top_dual_degree(Sphere(7)).top_degree == 0
    assert top_dual_degree(RealProj(5)).method == "lucas"


def test_closed_form_examples():
    assert top_dual_degree_closed_form(RealProj(4)).top_degree == 3
    assert top_dual_degree_closed_form(
        Product((RealProj(3), ComplexProj(2)))).top_degree == 2
    assert top_dual_degree_closed_form(Sphere(7)).top_degree == 0
    assert top_dual_degree_closed_form(Euclid(3)).top_degree == 0
    assert top_dual_degree_closed_form(RealProj(4)).method == "closed-form"


@pytest.mark.parametrize("family", [RealProj, ComplexProj, QuatProj])
def test_brute_force_matches_closed_form_small(family):
    # Full m in [2, 64] sweep is an acceptance criterion.
    for m in range(2, 17):
        brute = top_dual_degree(family(m)).top_degree
        closed = top_dual_degree_closed_form(family(m)).top_degree
        assert brute == closed, (family.__name__, m)


@pytest.mark.parametrize("family", [RealProj, ComplexProj, QuatProj])
def test_dual_sw_matches_series_inverse(family):
    # Lucas's exponents against the generic series inversion of the total
    # class, in the factor's own ring.
    for m in range(2, 65):
        spec = family(m)
        assert as_series(dual_sw(spec), spec) == total_sw(spec).inverse(), m


@pytest.mark.parametrize("family", [RealProj, ComplexProj, QuatProj])
def test_dual_bits_by_lucas(family):
    # Lucas's exponents against the tests' bit recurrence, which inverts the
    # total class with no binomial coefficients: the same terms, ascending.
    for m in range(2, 3000):
        bits = bin(_dual_bits(family(m)))[:1:-1]
        assert dual_exponents(family(m)) == [
            i for i, bit in enumerate(bits) if bit == "1"], m
    for trivial in (Sphere(5), Euclid(3)):
        assert _dual_bits(trivial) == 1
        assert dual_exponents(trivial) == [0]


def test_dual_class_makes_no_series_arithmetic():
    # Factor duals are read off Lucas's theorem and the product is assembled
    # from exponent combinations, so the module never loads series code.
    code = "\n".join([
        "import sys",
        "from kregular.manifolds import (ComplexProj, Product, QuatProj,",
        "                                RealProj, dual_sw, top_dual_degree)",
        "spec = Product((RealProj(6), ComplexProj(5), QuatProj(2)))",
        "assert top_dual_degree(spec).top_degree == 1 + 4 + 4",
        "assert dual_sw(spec).terms[-1] == (1, 2, 1)",
        "assert 'kregular.series' not in sys.modules"])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=_fresh_process_env())
    assert proc.returncode == 0, proc.stderr


def test_top_dual_degree_obeys_massey():
    # Massey (1960): the dual class of a closed n-manifold vanishes above
    # n - alpha(n), alpha the binary digit sum.  A check that uses neither
    # Lucas's theorem nor the closed form.
    def massey(spec):
        n = real_dimension(spec)
        return n - bin(n).count("1")

    for family in (RealProj, ComplexProj, QuatProj):
        for m in range(2, 1025):
            spec = family(m)
            assert top_dual_degree(spec).top_degree <= massey(spec), spec
    rng = random.Random(1960)
    families = (Sphere, RealProj, ComplexProj, QuatProj)
    for _ in range(500):
        factors = tuple(rng.choice(families)(rng.randint(2, 300))
                        for _ in range(rng.randint(1, 3)))
        spec = factors[0] if len(factors) == 1 else Product(factors)
        assert top_dual_degree(spec).top_degree <= massey(spec), spec


def test_large_dual_class_renders_term_by_term():
    # Of the 65 * 33 * 17 exponent tuples, the 64 * 32 * 16 with an odd
    # coefficient (Lucas) are the terms.
    dual = dual_sw(Product((RealProj(64), ComplexProj(32), QuatProj(16))))
    assert dual.names == ("a1", "b2", "d3") and len(dual.terms) == 32768
    naive = []
    for term in dual.terms:
        factors = [name if e == 1 else f"{name}^{e}"
                   for name, e in zip(dual.names, term) if e]
        naive.append("*".join(factors) or "1")
    assert dual.render() == " + ".join(naive)


def test_top_coefficient_is_one():
    for spec in (RealProj(6), ComplexProj(5), QuatProj(3)):
        dual = as_series(dual_sw(spec), spec)
        top = dual.top_degree()
        part = dual.homogeneous_part(top)
        assert len(part.terms) == 1


def test_product_multiplicativity_random_pairs():
    # Reference: one inversion of the whole total class in the joint ring,
    # which the factor-by-factor code never does, reduced modulo every
    # g^(m+1).
    rng = random.Random(2024)
    families = (Sphere, RealProj, ComplexProj, QuatProj)
    checked = 0
    for case in range(60):
        factors = [families[case % 4](rng.randint(2, 8))]
        factors += [families[rng.randrange(4)](rng.randint(2, 8))
                    for _ in range(rng.randint(1, 2))]
        spec = Product(tuple(factors))
        if real_dimension(spec) > 32:
            continue
        reference = in_cohomology(total_sw(spec).inverse(), spec)
        dual = as_series(dual_sw(spec), spec)
        assert dual == reference, render(spec)
        # GradedSeries.render orders its own terms: an independent renderer.
        assert dual_sw(spec).render() == reference.render(), render(spec)
        assert top_dual_degree(spec).top_degree == reference.top_degree()
        assert (in_cohomology(total_sw(spec) * dual, spec)
                == cohomology_ring(spec).one())
        checked += 1
    assert checked >= 30
