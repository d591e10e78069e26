"""The reference computations against closed forms and algebraic laws."""

import itertools
import math
import random

import pytest

import reference
from workloads import REFERENCE_LATTICES


@pytest.mark.parametrize("desc", [f"chain:{k}" for k in range(5)]
                         + [f"boolean:{k}" for k in range(1, 4)])
def test_endomorphism_count_closed_forms(desc):
    L = reference.lattice(desc)
    endos = L.join_endomorphisms()
    assert len(endos) == reference.endomorphism_count(desc)
    assert len(set(endos)) == len(endos)


def test_chain_image_endomorphisms_of_a_chain_are_all_of_them():
    L = reference.lattice("chain:4")
    endos = L.join_endomorphisms()
    assert all(L.is_chain(set(f)) for f in endos)


def test_endomorphisms_preserve_joins_by_subset_check():
    L = reference.lattice("pentagon")
    for f in L.join_endomorphisms():
        assert f[L.bottom] == L.bottom
        for x, y in itertools.product(range(L.n), repeat=2):
            assert f[L.join[x][y]] == L.join[f[x]][f[y]]
    # every other order-preserving map fixing bottom fails some join
    count = sum(
        1 for f in itertools.product(range(L.n), repeat=L.n)
        if f[L.bottom] == L.bottom and all(
            f[L.join[x][y]] == L.join[f[x]][f[y]] for x in range(L.n) for y in range(L.n))
    )
    assert count == len(L.join_endomorphisms())


@pytest.mark.parametrize("desc", REFERENCE_LATTICES)
def test_element_count_closed_forms(desc):
    assert reference.lattice(desc).n == reference.element_count(desc)


def test_bell_and_stirling():
    assert [reference.bell(n) for n in range(7)] == [1, 1, 2, 5, 15, 52, 203]
    assert reference.stirling2(5, 2) == 15


@pytest.mark.parametrize("big_n", range(1, 7))
def test_boolean_chain_count_closed_forms(big_n):
    L = reference.lattice(f"boolean:{big_n}")
    assert L.chain_counts() == reference.boolean_chain_counts(big_n)
    z = reference.boolean_chain_counts(big_n)[2]
    assert sum(z) == len(L.chains_between(L.bottom, L.top))


def test_ordered_set_partitions_of_six():
    assert sum(reference.boolean_chain_counts(6)[2]) == 4683


def test_boolean_idempotent_signs():
    L = reference.lattice("boolean:3")
    e = L.idempotent()
    assert len(e) == 13
    for table, c in e.items():
        assert c == (-1) ** (len(set(table)) - 1 + 3)


def test_compose_is_associative_with_identity():
    rng = random.Random(7)
    n = 6
    ident = tuple(range(n))
    tables = [tuple(rng.randrange(n) for _ in range(n)) for _ in range(5)]
    for f, g, h in itertools.product(tables, repeat=3):
        assert reference.compose(h, reference.compose(g, f)) == \
            reference.compose(reference.compose(h, g), f)
    for f in tables:
        assert reference.compose(ident, f) == f == reference.compose(f, ident)


@pytest.mark.parametrize("desc", ["boolean:3", "pentagon", "diamond:3", "divisor:12"])
def test_idempotent_fixes_every_retraction(desc):
    L = reference.lattice(desc)
    e = L.idempotent()
    for chain in L.chains_between(L.bottom, L.top):
        alpha = L.retraction(chain)
        assert reference.compose(alpha, alpha) == alpha
        assert reference.act(e, alpha, "left") == {alpha: 1}
        assert reference.act(e, alpha, "right") == {alpha: 1}


def test_mobius_of_boolean_and_chain():
    B = reference.lattice("boolean:3")
    for x, y in itertools.product(range(B.n), repeat=2):
        if B.leq[x][y]:
            size = lambda v: 0 if B.labels[v] == "0" else len(B.labels[v])
            assert B.mobius(x, y) == (-1) ** (size(y) - size(x))
    C = reference.lattice("chain:3")
    assert [C.mobius(0, y) for y in range(4)] == [1, -1, 0, 0]


def test_partition_lattice_is_complemented_and_diamond_counts():
    P = reference.lattice("partition:4")
    assert P.is_complemented(P.bottom, P.top)
    assert math.comb(4, 2) == len(P.join_irreducibles())
    D = reference.lattice("diamond:5")
    assert len(D.join_endomorphisms()) == 1582
