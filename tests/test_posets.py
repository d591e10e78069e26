import pytest

from totlat.errors import (
    CycleDetected,
    DuplicateLabel,
    NotAChain,
    NotComparable,
    TotlatError,
    UnknownLabel,
)
from totlat.checks import DEFAULT_CORPUS
from totlat.lattices import generate
from totlat.posets import Chain, Poset, bit_indices

DIAMOND = (["0", "a", "b", "1"], [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")])
M3 = (
    ["0", "x", "y", "z", "1"],
    [("0", "x"), ("0", "y"), ("0", "z"), ("x", "1"), ("y", "1"), ("z", "1")],
)


def diamond():
    return Poset.from_covers(*DIAMOND)


def test_singleton():
    p = Poset.from_covers(["x"], [])
    assert p.n == 1
    assert p.leq(0, 0)
    assert p.covers == ()


def test_diamond_closure():
    p = diamond()
    assert p.leq(p.index_of("0"), p.index_of("1"))
    a, b = p.index_of("a"), p.index_of("b")
    assert not p.leq(a, b) and not p.leq(b, a)


def test_cycle_detected():
    with pytest.raises(CycleDetected):
        Poset.from_covers(["0", "1"], [("0", "1"), ("1", "0")])


def test_unknown_label():
    with pytest.raises(UnknownLabel):
        Poset.from_covers(["0", "1"], [("0", "2")])


def test_duplicate_label_names_the_first_repeat():
    # the labels are checked before the masks, so even bad masks name it
    for build in (lambda: Poset.from_covers(["x", "y", "y", "x"], []),
                  lambda: Poset(["x", "y", "y", "x"], [1 << i for i in range(4)]),
                  lambda: Poset(["x", "y", "y", "x"], [-1])):
        with pytest.raises(DuplicateLabel, match="duplicate label 'y'") as info:
            build()
        assert isinstance(info.value, TotlatError) and isinstance(info.value, ValueError)


def test_redundant_covers_tolerated():
    # the non-cover pair (0,1) must be absorbed by the closure
    p = Poset.from_covers(*DIAMOND)
    q = Poset.from_covers(DIAMOND[0], DIAMOND[1] + [("0", "1")])
    assert p == q


def test_cover_roundtrip():
    for names, covers in (DIAMOND, M3):
        p = Poset.from_covers(names, covers)
        assert p == Poset.from_covers(names, p.cover_labels())


def test_mobius_reflexive():
    p = diamond()
    for x in range(p.n):
        assert p.mobius(x, x) == 1
        assert p.mobius_hall(x, x) == 1


def test_mobius_cover_is_minus_one():
    p = diamond()
    for x, y in p.covers:
        assert p.mobius(x, y) == -1
        assert p.mobius_hall(x, y) == -1


def test_mobius_diamond_top():
    p = diamond()
    assert p.mobius(p.index_of("0"), p.index_of("1")) == 1
    assert p.mobius_hall(p.index_of("0"), p.index_of("1")) == 1


def test_mobius_m3_top():
    p = Poset.from_covers(*M3)
    assert p.mobius(p.index_of("0"), p.index_of("1")) == 2
    assert p.mobius_hall(p.index_of("0"), p.index_of("1")) == 2


def test_mobius_not_comparable():
    p = diamond()
    with pytest.raises(NotComparable):
        p.mobius(p.index_of("a"), p.index_of("b"))
    with pytest.raises(NotComparable):
        p.mobius_hall(p.index_of("a"), p.index_of("b"))


def test_mobius_delta_sum():
    # sum over x<=z<=y of mu(x,z) is 1 iff x==y, else 0
    for names, covers in (DIAMOND, M3):
        p = Poset.from_covers(names, covers)
        for x in range(p.n):
            for y in range(p.n):
                if p.leq(x, y):
                    s = sum(p.mobius(x, z) for z in range(p.n)
                            if p.leq(x, z) and p.leq(z, y))
                    assert s == (1 if x == y else 0)


@pytest.mark.parametrize("spec", list(DEFAULT_CORPUS) + [
    "divisor:60", "diamond:5", "partition:4", "boolean:4", "chain:40"])
@pytest.mark.parametrize("opposite", [False, True])
def test_mobius_rows_match_hall_on_every_comparable_pair(spec, opposite):
    # the opposite keeps the element numbers and reverses the order, so
    # there the rows cannot be filled in index order
    L = generate(spec)
    if opposite:
        L = L.opposite()
    for x in range(L.n):
        values, support = L.mobius_row(x)
        assert support == sum(1 << y for y in values)
        for y in bit_indices(L.up[x]):
            assert L.mobius(x, y) == L.mobius_hall(x, y), (spec, x, y)
            assert (y in values) == (L.mobius(x, y) != 0)


def test_chains_two_element():
    p = Poset.from_covers(["0", "1"], [("0", "1")])
    assert [c.members for c in p.chains()] == [(), (0,), (0, 1), (1,)]


def test_chains_diamond_size3():
    p = diamond()
    zero, one = p.index_of("0"), p.index_of("1")
    got = [c.labels() for c in p.chains() if len(c) == 3 and {zero, one} <= set(c)]
    assert got == [("0", "a", "1"), ("0", "b", "1")]


def test_chains_longer_than_poset():
    p = Poset.from_covers(["0", "1", "2", "3"],
                          [("0", "1"), ("1", "2"), ("2", "3")])
    assert max(map(len, p.chains())) == 4


def test_chains_deterministic():
    p = diamond()
    first = [tuple(c) for c in p.chains()]
    second = [tuple(c) for c in p.chains()]
    assert first == second


def test_empty_chain_included():
    p = diamond()
    assert [len(c) for c in p.chains()].count(0) == 1
    assert p.chains()[0].labels() == ()


def test_dual_involution():
    p = diamond()
    assert p.dual().dual() == p


def test_chain_validates_members():
    p = diamond()
    with pytest.raises(ValueError):
        Chain((p.index_of("a"), p.index_of("b")), p)
    with pytest.raises(NotAChain, match=r"^members not strictly increasing at \(a, a\)$"):
        Chain((p.index_of("a"), p.index_of("a")), p)
    with pytest.raises(NotAChain, match=r"at \(1, 0\)$"):
        Chain((p.index_of("1"), p.index_of("0")), p)


def test_chain_equality_and_hash_read_the_members_only():
    p, q = diamond(), Poset.from_covers(*M3)
    a = Chain((0, 1, 3), p)
    assert a == Chain((0, 1, 3), p) and hash(a) == hash((0, 1, 3))
    # the ambient poset is not compared
    assert Chain((0, 1), p) == Chain((0, 1), q)
    assert Chain((0, 1), p) != Chain((0, 2), p)
    assert a != (0, 1, 3) and a.__eq__((0, 1, 3)) is NotImplemented
    assert len({a, Chain((0, 1, 3), p), Chain((0, 2, 3), p)}) == 2
    assert repr(a) == "Chain(0,a,1)" and len(a) == 3 and list(a) == [0, 1, 3]
