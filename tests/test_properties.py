"""Property-based checks over randomly generated posets and small sums."""

import itertools

from hypothesis import assume, given, settings, strategies as st

from totlat.algebra import FormalSum, ZZ, embed, idempotent_direct
from totlat.checks import DEFAULT_CORPUS
from totlat.lattices import chain_lattice, generate
from totlat.morphisms import compose, enumerate_join_endomorphisms, pi_of_chain
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
    return Poset([f"e{i}" for i in range(n)], masks(leq))


def masks(table):
    """The up-set masks of a boolean table: bit j of row i iff table[i][j]."""
    return [sum(1 << j for j, v in enumerate(row) if v) for row in table]


@given(posets())
@settings(max_examples=60, deadline=None)
def test_mobius_agrees_with_chain_count(p):
    for x in range(p.n):
        for y in range(p.n):
            if p.leq(x, y):
                assert p.mobius(x, y) == p.mobius_hall(x, y)


@given(posets())
@settings(max_examples=60, deadline=None)
def test_mobius_delta_property(p):
    for x in range(p.n):
        for y in range(p.n):
            if p.leq(x, y):
                total = sum(
                    p.mobius(x, z)
                    for z in range(p.n)
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


# -- right composition by an index surjection is injective -----------------
# (the fact check_f_family rests on)


def test_index_surjections_are_surjective():
    for spec in DEFAULT_CORPUS:
        L = generate(spec)
        for B in L.chain_family("B"):
            assert pi_of_chain(L, B).is_surjective(), (spec, B.labels())


@given(st.sampled_from(DEFAULT_CORPUS), st.data())
@settings(max_examples=60, deadline=None)
def test_right_composition_by_index_surjection_keeps_every_term(spec, data):
    L = generate(spec)
    B = data.draw(st.sampled_from(L.chain_family("B")))
    P = chain_lattice(len(B) - 1)
    element = st.integers(min_value=0, max_value=L.n - 1)
    coeff = st.integers(min_value=-3, max_value=3).filter(bool)

    def chain_map():
        # the running joins of random picks: a join-map from the index chain
        values = [L.bottom]
        for _ in range(P.n - 1):
            values.append(L.join(values[-1], data.draw(element)))
        return tuple(values)

    k = data.draw(st.integers(min_value=1, max_value=4))
    X = FormalSum(ZZ, P, L, [(chain_map(), data.draw(coeff)) for _ in range(k)])
    assume(not X.is_zero())
    Y = X * embed(pi_of_chain(L, B))
    assert not Y.is_zero()
    assert len(Y.terms) == len(X.terms)
    assert sorted(Y.terms.values()) == sorted(X.terms.values())
