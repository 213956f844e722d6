"""Truncated graded series: arithmetic, inversion, rendering."""

import pytest
from hypothesis import given, settings, strategies as st

from kregular import NonInvertibleError, RingMismatchError, SeriesRing


def gf2_ring(trunc, names=("a",)):
    return SeriesRing([(n, 1) for n in names], trunc)


def one_plus(ring, name="a"):
    return ring.one() + ring.gen(name)


# ---------------------------------------------------------------------------
# Construction.

def test_ring_validation():
    with pytest.raises(ValueError):
        SeriesRing([("a", 1), ("a", 2)], 4)
    with pytest.raises(ValueError):
        SeriesRing([("a", 0)], 4)
    with pytest.raises(ValueError):
        SeriesRing([("a b", 1)], 4)
    with pytest.raises(ValueError):
        SeriesRing([("a", 1)], -1)
    with pytest.raises(TypeError):
        SeriesRing([("a", 1)], 4, caps=[2])


def test_from_terms_validation():
    ring = gf2_ring(3)
    with pytest.raises(ValueError):
        ring.from_terms({(1, 2): 1})
    with pytest.raises(ValueError):
        ring.from_terms({(-1,): 1})
    with pytest.raises(ValueError):
        ring.from_terms({(4,): 1})
    assert ring.from_terms({(2,): 2}).is_zero()  # 2 = 0 in GF(2)
    assert ring.from_terms({(1,): -3}) == ring.gen("a")  # odd reads as 1


def test_generator_beyond_truncation_is_zero():
    ring = SeriesRing([("a", 1), ("b", 5)], 3)
    assert ring.gen("b").is_zero()
    assert not ring.gen("a").is_zero()


def test_monomial_enumeration_descending_lex():
    ring = SeriesRing([("a", 1), ("b", 1)], 4)
    assert ring.monomials_of_degree(2) == [(2, 0), (1, 1), (0, 2)]
    weighted = SeriesRing([("a", 1), ("b", 2)], 6)
    assert weighted.monomials_of_degree(4) == [(4, 0), (2, 1), (0, 2)]


# ---------------------------------------------------------------------------
# Arithmetic.

def test_char2_squaring():
    ring = gf2_ring(5)
    s = one_plus(ring)
    assert (s * s) == ring.from_terms({(0,): 1, (2,): 1})


def test_multiplicative_identity():
    ring = SeriesRing([("a", 1), ("b", 2)], 7)
    s = ring.from_terms({(0, 0): 1, (1, 1): 1, (3, 2): 1})
    assert ring.one() * s == s
    assert s * ring.one() == s


def test_truncation_drops_high_terms():
    ring = gf2_ring(2)
    s = ring.from_terms({(0,): 1, (1,): 1, (2,): 1})
    t = one_plus(ring)
    # (1 + a + a^2)(1 + a) = 1 + a^3 in GF(2); the cubic falls away and the
    # operands are inverse to each other at this truncation.
    assert s * t == ring.one()
    assert t.inverse() == s


def test_ring_mismatch_raises():
    r1, r2 = gf2_ring(4), gf2_ring(5)
    with pytest.raises(RingMismatchError):
        r1.one() + r2.one()
    with pytest.raises(RingMismatchError):
        r1.one() * r2.one()


def test_pow_matches_repeated_product():
    ring = SeriesRing([("a", 1), ("b", 2)], 8)
    s = ring.one() + ring.gen("a") + ring.gen("b")
    by_mul = ring.one()
    for _ in range(5):
        by_mul = by_mul * s
    assert s ** 5 == by_mul
    assert s ** 0 == ring.one()
    with pytest.raises(ValueError):
        s ** -1


def test_degree_queries():
    ring = SeriesRing([("a", 1), ("b", 2)], 9)
    s = ring.from_terms({(0, 0): 1, (1, 2): 1, (3, 0): 1})
    assert s.top_degree() == 5
    assert s.homogeneous_part(3) == ring.from_terms({(3, 0): 1})
    assert s.homogeneous_part(4).is_zero()
    assert ring.zero().top_degree() is None
    assert s.constant_coefficient() == 1


# ---------------------------------------------------------------------------
# Inversion.

def test_invert_geometric_series():
    ring = gf2_ring(4)
    inv = one_plus(ring).inverse()
    assert inv == ring.from_terms({(i,): 1 for i in range(5)})


def test_invert_sixth_power():
    ring = gf2_ring(5)
    s = one_plus(ring) ** 6
    assert s == ring.from_terms({(0,): 1, (2,): 1, (4,): 1})
    assert s.inverse() == ring.from_terms({(0,): 1, (2,): 1})


def test_invert_one():
    ring = gf2_ring(7)
    assert ring.one().inverse() == ring.one()


def test_invert_requires_unit_constant():
    ring = gf2_ring(4)
    with pytest.raises(NonInvertibleError):
        ring.gen("a").inverse()


def random_unit(ring, draw_coeffs):
    terms = {(0,) * len(ring.names): 1}
    for d in range(1, ring.truncation + 1):
        for mono in ring.monomials_of_degree(d):
            c = draw_coeffs()
            if c:
                terms[mono] = c
    return ring.from_terms(terms)


@given(st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_invert_roundtrip_gf2_trunc32(rng):
    ring = gf2_ring(32)
    s = random_unit(ring, lambda: rng.randint(0, 1))
    assert s * s.inverse() == ring.one()


@given(st.randoms(use_true_random=False))
@settings(max_examples=25, deadline=None)
def test_invert_roundtrip_two_generators(rng):
    ring = SeriesRing([("a", 1), ("b", 2)], 12)
    s = random_unit(ring, lambda: rng.randint(0, 1))
    assert s * s.inverse() == ring.one()


@given(st.randoms(use_true_random=False))
@settings(max_examples=30, deadline=None)
def test_mul_commutative_associative(rng):
    ring = SeriesRing([("a", 1), ("b", 2)], 10)

    def draw():
        terms = {}
        for _ in range(6):
            e = (rng.randint(0, 4), rng.randint(0, 2))
            if ring.degree_of(e) <= ring.truncation:
                terms[e] = rng.randint(0, 1)
        return ring.from_terms(terms)

    s, t, u = draw(), draw(), draw()
    assert s * t == t * s
    assert (s * t) * u == s * (t * u)
    assert s * (t + u) == s * t + s * u


@given(st.randoms(use_true_random=False))
@settings(max_examples=30, deadline=None)
def test_char2_frobenius_square(rng):
    # In characteristic 2 squaring doubles every exponent vector.
    ring = SeriesRing([("a", 1), ("b", 1)], 16)
    s = random_unit(ring, lambda: rng.randint(0, 1))
    for exponents in (s * s).terms:
        assert all(e % 2 == 0 for e in exponents)


# ---------------------------------------------------------------------------
# Rendering.

def test_render_ascii():
    ring = SeriesRing([("a", 1), ("b", 2)], 6)
    assert ring.zero().render() == "0"
    assert ring.one().render() == "1"
    s = ring.from_terms({(0, 0): 1, (2, 0): 1, (1, 1): 1})
    assert s.render() == "1 + a^2 + a*b"

