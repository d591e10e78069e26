"""Property-based checks over randomly generated posets and small sums."""

import itertools

from hypothesis import given, settings, strategies as st

from totlat.algebra import FormalSum, ZZ, embed, idempotent_direct
from totlat.lattices import generate
from totlat.morphisms import compose, enumerate_join_endomorphisms
from totlat.posets import Poset

LATTICE_SPECS = [
    "chain:2", "boolean:2", "diamond:3", "pentagon", "divisor:12",
]


@st.composite
def posets(draw, max_size=6):
    """Random poset: edges only from lower to higher index, then closed."""
    n = draw(st.integers(min_value=1, max_value=max_size))
    leq = [[i == j for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                leq[i][j] = True
    for k, i, j in itertools.product(range(n), repeat=3):
        if leq[i][k] and leq[k][j]:
            leq[i][j] = True
    return Poset([f"e{i}" for i in range(n)], leq)


@given(posets())
@settings(max_examples=60, deadline=None)
def test_mobius_agrees_with_chain_count(p):
    for x in p.elements():
        for y in p.elements():
            if p.leq(x, y):
                assert p.mobius(x, y) == p.mobius_hall(x, y)


@given(posets())
@settings(max_examples=60, deadline=None)
def test_mobius_delta_property(p):
    for x in p.elements():
        for y in p.elements():
            if p.leq(x, y):
                total = sum(
                    p.mobius(x, z)
                    for z in p.elements()
                    if p.leq(x, z) and p.leq(z, y)
                )
                assert total == (1 if x == y else 0)


@given(posets())
@settings(max_examples=40, deadline=None)
def test_chain_enumeration_is_deterministic(p):
    assert [tuple(c) for c in p.chains()] == [tuple(c) for c in p.chains()]


@given(posets())
@settings(max_examples=40, deadline=None)
def test_dual_involution(p):
    assert p.dual().dual() == p


@given(st.sampled_from(LATTICE_SPECS), st.data())
@settings(max_examples=40, deadline=None)
def test_compose_associative_on_random_triples(spec, data):
    L = generate(spec)
    endos = list(enumerate_join_endomorphisms(L))
    pick = st.sampled_from(endos)
    f, g, h = data.draw(pick), data.draw(pick), data.draw(pick)
    assert compose(compose(f, g), h) == compose(f, compose(g, h))


@given(st.sampled_from(LATTICE_SPECS), st.data())
@settings(max_examples=30, deadline=None)
def test_sum_mul_bilinear_on_random_sums(spec, data):
    L = generate(spec)
    endos = list(enumerate_join_endomorphisms(L))
    coeffs = st.integers(min_value=-3, max_value=3)

    def random_sum():
        k = data.draw(st.integers(min_value=1, max_value=3))
        total = FormalSum(ZZ, L, L)
        for _ in range(k):
            total = total + embed(data.draw(st.sampled_from(endos))).scale(
                data.draw(coeffs)
            )
        return total

    a, b, f = random_sum(), random_sum(), random_sum()
    assert (a + b) * f == a * f + b * f
    assert f * (a + b) == f * a + f * b


@given(st.sampled_from(LATTICE_SPECS), st.data())
@settings(max_examples=30, deadline=None)
def test_idempotent_absorbs_random_chain_image_endos(spec, data):
    L = generate(spec)
    e = idempotent_direct(L)
    tots = list(enumerate_join_endomorphisms(L, tot_only=True))
    psi = embed(data.draw(st.sampled_from(tots)))
    assert e * psi == psi
    assert psi * e == psi
