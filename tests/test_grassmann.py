"""Grassmannian quotient presentations and heights."""

import importlib
import math
import pathlib
import random
from functools import reduce
from operator import or_

import pytest

from kregular import (GradedSeries, GrassmannPresentation,
                      cached_presentation, chern_height_of_first_class)
from rank_oracles import chern_height_by_rank, chern_relations


def test_constructor_validation():
    with pytest.raises(ValueError):
        GrassmannPresentation(0, 3)
    with pytest.raises(ValueError):
        GrassmannPresentation(4, 3)
    # The Chern height checks the same box, with the same message.
    with pytest.raises(ValueError, match=r"1 <= k <= n, got k=4, n=3"):
        chern_height_of_first_class(4, 3)
    # A bool is not a dimension, though it is an int.
    with pytest.raises(ValueError, match=r"got k=True, n=3"):
        GrassmannPresentation(True, 3)
    with pytest.raises(ValueError, match=r"got k=1, n=True"):
        GrassmannPresentation(1, True)
    with pytest.raises(ValueError, match=r"got k=True, n=2"):
        chern_height_of_first_class(True, 2)


# ---------------------------------------------------------------------------
# Relation extraction.

def test_projective_line_relation():
    pres = GrassmannPresentation(1, 1)
    (rel,) = pres.relations
    assert rel == pres.ring.from_terms({(2,): 1})


@pytest.mark.parametrize("m", [2, 3, 5, 8])
def test_real_projective_relations(m):
    # k=1: the single relation is the generator to the (m+1)st power,
    # recovering the truncated polynomial ring on one generator.
    pres = GrassmannPresentation(1, m)
    (rel,) = pres.relations
    assert rel == pres.ring.from_terms({(m + 1,): 1})


def test_chern_relations_g2c3():
    # The Chern height oracle's relations for G_2(C^3), pinned by hand:
    # 1/(1 + c1 + c2) has degree-4 part c1^2 - c2 and degree-6 part
    # -c1^3 + 2 c1 c2.
    rel2, rel3 = chern_relations(2, 2)
    assert rel2 == {(2, 0): 1, (0, 1): -1}
    assert rel3 == {(3, 0): -1, (1, 1): 2}


@pytest.mark.parametrize("n", [1, 2, 5, 8])
def test_chern_relations_of_projective_space(n):
    # k=1: 1/(1 + c1) = sum (-c1)^j, and the one relation is its top part.
    assert chern_relations(1, n) == ({(n + 1,): (-1) ** (n + 1)},)


def test_chern_relations_reduce_to_sw_relations():
    # Two builders that share no code invert 1 + x1 + ... + xk: the tests'
    # integer recurrence and the presentation's GF(2) series.  Mod 2 they
    # must agree relation by relation.
    for n in range(1, 9):
        for k in range(1, n + 1):
            pres = GrassmannPresentation(k, n)
            reduced = tuple(frozenset(e for e, c in rel.items() if c % 2)
                            for rel in chern_relations(k, n))
            assert reduced == tuple(rel.terms for rel in pres.relations), \
                (k, n)


def test_relations_by_lucas():
    # A third builder, with no series arithmetic: mod 2 the coefficient of
    # w^a in 1/(1 + w_1 + ... + w_k) is the multinomial coefficient
    # (a_1 + ... + a_k)! / (a_1! ... a_k!), which by Lucas's theorem is odd
    # exactly when the a_i have pairwise disjoint binary digits.
    for n in range(1, 11):
        for k in range(1, n + 1):
            pres = GrassmannPresentation(k, n)
            for j, rel in zip(range(n - k + 2, n + 2), pres.relations):
                odd = frozenset(a for a in pres.ring.monomials_of_degree(j)
                                if sum(a) == reduce(or_, a))
                assert rel.terms == odd, (k, n, j)


def test_relations_invert_the_total_class():
    # Oracle: 1 + (lower dual parts) + relations multiplies the total class
    # back to 1 within the truncation.
    pres = GrassmannPresentation(2, 3)
    total = pres.ring.one()
    for g in pres.ring.gens():
        total = total + g
    dual = total.inverse()
    for j, rel in zip(range(pres.n - pres.k + 2, pres.n + 2),
                      pres.relations):
        assert dual.homogeneous_part(j) == rel
    assert (total * dual) == pres.ring.one()


# ---------------------------------------------------------------------------
# Quotient bases and normal forms.

def test_quotient_basis_g2r3():
    # w1^2 + w2 is the degree-2 relation; its lead w1^2 is a pivot.
    pres = GrassmannPresentation(2, 2)
    assert pres.quotient_basis(0) == ((0, 0),)
    assert pres.quotient_basis(1) == ((1, 0),)
    assert pres.quotient_basis(2) == ((0, 1),)
    assert pres.quotient_basis(3) == ()


def _box_shapes(size, rows, width):
    # Partitions of `size` into at most `rows` parts, each at most `width`.
    if size == 0:
        yield ()
        return
    if rows == 0:
        return
    for first in range(min(width, size), 0, -1):
        for rest in _box_shapes(size - first, rows - 1, first):
            yield (first,) + rest


def test_degree_dimensions_match_box_partitions():
    # Oracle independent of the relations: the Schubert basis gives
    # dim H^d(G_k(R^(n+1)); GF(2)) = #partitions of d in a k x (n+1-k) box.
    # Degrees above the top, which heights never reduce, are row-reduced
    # here up to the ring truncation.
    for n in range(1, 7):
        for k in range(1, n + 1):
            pres = GrassmannPresentation(k, n)
            assert pres.ring.truncation == pres.top_degree + 1
            for d in range(pres.top_degree + 2):
                expect = len(list(_box_shapes(d, k, n + 1 - k)))
                got = len(pres._reduce_degree(d).basis)
                assert got == expect, (k, n, d)


def test_total_dimension_is_binomial():
    for n in range(1, 7):
        for k in range(1, n + 1):
            assert cached_presentation(k, n).total_dimension() == \
                math.comb(n + 1, k)


def test_normal_form_reduces_w1_squared():
    pres = GrassmannPresentation(2, 2)
    w1 = pres.first_class()
    nf = pres.normal_form(w1 * w1)
    # w1^2 = w2 holds in the quotient; w2 is the surviving basis monomial.
    assert nf.terms == {(0, 1)}
    assert pres.normal_form(w1 * w1) == pres.normal_form(
        pres.ring.gen("w2"))


def test_normal_form_kills_relations():
    pres = GrassmannPresentation(2, 4)
    for rel in pres.relations:
        assert pres.normal_form(rel).is_zero()
    rp5 = GrassmannPresentation(1, 5)
    assert rp5.normal_form(rp5.ring.from_terms({(6,): 1})).is_zero()


def test_normal_form_is_linear():
    pres = cached_presentation(2, 4)
    ring = pres.ring
    rng = random.Random(7)
    monos = [m for d in range(ring.truncation + 1)
             for m in ring.monomials_of_degree(d)]
    for _ in range(25):
        e = ring.from_terms({m: rng.randint(-4, 4)
                             for m in rng.sample(monos, 5)})
        f = ring.from_terms({m: rng.randint(-4, 4)
                             for m in rng.sample(monos, 5)})
        assert pres.normal_form(e + f) == \
            pres.normal_form(e) + pres.normal_form(f)


def test_quotient_element_plumbing():
    # Normal forms are plain series of the presentation's ring.
    pres = GrassmannPresentation(2, 2)
    nf = pres.normal_form(pres.first_class())
    assert isinstance(nf, GradedSeries)
    assert nf.ring is pres.ring
    assert nf.coefficient((1, 0)) == 1
    assert nf.coefficient((0, 1)) == 0
    assert nf == pres.first_class()
    assert nf.render() == pres.first_class().render() == "w1"
    assert hash(nf) == hash(pres.normal_form(pres.first_class()))
    assert hash(nf) == hash(pres.first_class())


def _xor_rank(rows):
    # Rank over GF(2) of rows packed as ints; pivots kept by falling top bit.
    pivots = []
    for row in rows:
        for pivot in pivots:
            row = min(row, row ^ pivot)
        if row:
            pivots.append(row)
            pivots.sort(reverse=True)
    return len(pivots)


def _in_span(rows, vector):
    # Does `vector` lie in the span of `rows` (lists over GF(2))?
    packed = [sum(1 << j for j, v in enumerate(row) if v) for row in rows]
    target = sum(1 << j for j, v in enumerate(vector) if v)
    return _xor_rank(packed + [target]) == _xor_rank(packed)


def test_normal_form_against_relation_span():
    # Independent oracle: in each degree d, e + normal_form(e) (which is
    # e - normal_form(e) mod 2) must lie in the span of the
    # relation-times-monomial rows, built here from series
    # products and ranked without grassmann.py (an XOR bit rank);
    # normal_form(e) must sit on quotient_basis(d).
    rng = random.Random(11)
    for n in range(1, 6):
        for k in range(1, n + 1):
            pres = cached_presentation(k, n)
            ring = pres.ring
            degrees = range(ring.truncation + 1)
            monos = [m for d in degrees for m in ring.monomials_of_degree(d)]
            for _ in range(3):
                e = ring.from_terms(
                    {m: rng.randint(-3, 3)
                     for m in rng.sample(monos, min(6, len(monos)))})
                nf = pres.normal_form(e)
                assert nf.ring is ring
                diff = e + nf
                for d in degrees:
                    basis = set(pres.quotient_basis(d))
                    assert set(nf.homogeneous_part(d).terms) <= basis
                    columns = ring.monomials_of_degree(d)
                    rows = []
                    for rel in pres.relations:
                        rel_degree = rel.top_degree()
                        if rel_degree > d:
                            continue
                        for mono in ring.monomials_of_degree(d - rel_degree):
                            shifted = ring.from_terms({mono: 1}) * rel
                            rows.append([shifted.coefficient(c)
                                         for c in columns])
                    vector = [diff.coefficient(c) for c in columns]
                    if any(vector):
                        assert _in_span(rows, vector), (k, n, d)


# ---------------------------------------------------------------------------
# Heights.

def test_height_examples():
    assert chern_height_of_first_class(2, 5) == 8
    assert chern_height_of_first_class(2, 2) == 2
    # In G_2(C^3), c1^2 survives and c1^3 is in the relations' span.
    assert chern_height_by_rank(2, 2) == 2


def _standard_tableaux(shape):
    # f^shape by the hook-length formula.
    hooks = 1
    for i, row in enumerate(shape):
        for j in range(row):
            below = sum(1 for r in shape[i + 1:] if r > j)
            hooks *= row - j + below
    return math.factorial(sum(shape)) // hooks


def pieri_sw_height(k, n):
    """Height of w1 in H*(G_k(R^(n+1)); GF(2)) without any row reduction.

    Pieri's rule gives w1^t = sum f^lambda sigma_lambda over the partitions
    lambda of t in the k x (n+1-k) box, f^lambda counting standard Young
    tableaux, and the Schubert classes sigma_lambda are a basis.  Powers of
    w1 vanish from some t on, so the height is the largest t with an odd
    f^lambda.
    """
    width = n + 1 - k
    for t in range(k * width, -1, -1):
        if any(_standard_tableaux(shape) % 2
               for shape in _box_shapes(t, k, width)):
            return t


def test_pieri_oracle_small_cases():
    # RP^n: w1^n is the top class.  G_2(R^4): w1^3 = 0, w1^2 != 0.
    assert pieri_sw_height(1, 6) == 6
    assert pieri_sw_height(2, 3) == 2
    assert _standard_tableaux((2, 1)) == 2
    assert _standard_tableaux((3, 2)) == 5


def odd_path_height(k, n):
    """Height of w1 in H*(G_k(R^(n+1)); GF(2)) by a mod-2 Young lattice walk.

    f^mu mod 2 is the sum of f^lambda mod 2 over the shapes lambda one box
    below mu, so layer t of the walk keeps the shapes of t boxes in the
    k x (n+1-k) box reached by an odd number of paths, and w1^t is nonzero
    exactly while that layer is not empty.  A shape is the int whose k set
    bits mark the vertical steps of its boundary among n+1 steps: the empty
    shape is the low bits, and adding a box moves a set bit up one place
    into a clear one.
    """
    inside = (1 << n) - 1
    layer = {(1 << k) - 1}
    t = 0
    while True:
        odd = set()
        for shape in layer:
            moves = shape & ~(shape >> 1) & inside
            while moves:
                low = moves & -moves
                odd ^= {shape ^ (low * 3)}
                moves ^= low
        if not odd:
            return t
        layer = odd
        t += 1


def test_sw_heights_match_pieri_counting():
    # Four methods for SW heights: the closed form of first_class_height,
    # row reduction of w1's powers, the hook-length parity count above and
    # the odd-path walk.
    for n in range(1, 13):
        for k in range(1, n + 1):
            pres = GrassmannPresentation(k, n)
            closed = pres.first_class_height()
            assert pres._degree_data == {}, (k, n)
            assert closed == pres.height(pres.first_class()) == \
                pieri_sw_height(k, n) == odd_path_height(k, n), (k, n)


def test_sw_closed_form_matches_odd_path_walk():
    # Every pair with N = n+1 <= 33, and k <= 4 up to N = 65: together they
    # cross the N = 2^s + 1 boundary of the k' = 3 case at s = 5 and 6.
    pairs = {(k, size - 1) for size in range(2, 34) for k in range(1, size)}
    pairs |= {(k, size - 1) for size in range(2, 66)
              for k in range(1, min(4, size - 1) + 1)}
    for k, n in sorted(pairs):
        pres = GrassmannPresentation(k, n)
        assert pres.first_class_height() == odd_path_height(k, n), (k, n)


def test_chern_first_class_heights_match_row_reduction():
    # The Pieri answer (the box size) against the rank of c1's powers
    # modulo the relations over QQ.
    for n in range(1, 8):
        for k in range(1, n + 1):
            assert chern_height_of_first_class(k, n) == \
                chern_height_by_rank(k, n) == k * (n + 1 - k), (k, n)


def test_first_class_height_builds_nothing():
    pres = GrassmannPresentation(3, 12)
    assert pres.first_class_height() == 15
    assert pres._degree_data == {}
    assert "relations" not in vars(pres)
    assert "ring" not in vars(pres)
    before = cached_presentation.cache_info()
    assert chern_height_of_first_class(3, 12) == 30
    assert cached_presentation.cache_info() == before


@pytest.mark.parametrize("m", [2, 3, 6])
def test_height_of_line_bundle_generator(m):
    pres = cached_presentation(1, m)
    assert pres.height(pres.first_class()) == m


def test_height_grid_small():
    # The full 1 <= k <= n <= 6 grid is an acceptance criterion.
    for n in range(1, 5):
        for k in range(1, n + 1):
            assert chern_height_of_first_class(k, n) == k * (n + 1 - k)


def test_height_of_units_and_zero():
    pres = cached_presentation(2, 3)
    assert pres.height(pres.ring.one()) == math.inf
    assert pres.height(pres.ring.zero()) == 0
    assert pres.height(pres.relations[0]) == 0


def test_height_reduces_no_degree_above_top():
    # w1^6 of RP^5 lies in degree 6 > top 5: it is zero without being
    # row-reduced, and the height is exact.
    pres = GrassmannPresentation(1, 5)
    assert pres.height(pres.first_class()) == 5
    assert max(pres._degree_data) == pres.top_degree == 5


def test_quotient_basis_is_empty_above_top():
    pres = GrassmannPresentation(1, 2)
    assert pres.quotient_basis(pres.top_degree) == ((2,),)
    for degree in (pres.top_degree + 1, pres.ring.truncation + 5):
        assert pres.quotient_basis(degree) == ()
    assert max(pres._degree_data) == pres.top_degree


def test_cached_presentation_is_shared():
    a = cached_presentation(2, 3)
    b = cached_presentation(2, 3)
    assert a is b


def test_cached_presentation_has_one_spelling():
    # The cache keys on how a call is spelled, so only the positional
    # two-argument spelling is accepted.
    with pytest.raises(TypeError):
        cached_presentation(2, n=3)
    with pytest.raises(TypeError):
        cached_presentation(2)
    # The cache is typed: a cached (1, 3) does not answer a bool or a
    # float key, which the box check refuses.
    cached_presentation(1, 3)
    for k in (True, 1.0):
        with pytest.raises(ValueError, match=rf"got k={k}, n=3"):
            cached_presentation(k, 3)
    first = cached_presentation(2, 4)
    before = cached_presentation.cache_info()
    assert cached_presentation(2, 4) is first
    after = cached_presentation.cache_info()
    assert after.hits == before.hits + 1
    assert after.misses == before.misses


def test_cached_presentation_is_bounded():
    # A process that answers many keys keeps at most 256 presentations.
    for n in range(1, 301):
        assert cached_presentation(1, n).n == n
    info = cached_presentation.cache_info()
    assert info.maxsize == 256
    assert info.currsize <= 256


def test_benchmark_probe_names_resolve(monkeypatch):
    # kbench's tracer skips a missing probe and its counter then reads 0,
    # so every private name it wraps must still exist here.
    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).parents[1]
                                    / "kbench"))
    tracing = importlib.import_module("tracing")
    for layer, owner_name, name in tracing.PRIVATE_PROBES:
        owner = importlib.import_module(f"kregular.{layer}")
        if owner_name is not None:
            owner = getattr(owner, owner_name)
        assert callable(getattr(owner, name)), (layer, owner_name, name)
    assert callable(cached_presentation.cache_info)
    data = GrassmannPresentation(2, 3)._reduce_degree(2)
    assert len(data.monomials) == 2
