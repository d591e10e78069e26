import hashlib
import itertools
import math
import time

import pytest

from totlat.checks import DEFAULT_CORPUS
from totlat.errors import EmptyLattice, NotALattice, TotlatError, UnsupportedSpec
from totlat.lattices import (
    MAX_ELEMENTS,
    Lattice,
    boolean_lattice,
    chain_lattice,
    diamond_lattice,
    divisor_lattice,
    generate,
    partition_lattice,
    pentagon_lattice,
)
from totlat.posets import Poset
from totlat.serialize import load_lattice

CORPUS = [
    "chain:0", "chain:3", "boolean:2", "boolean:3", "diamond:3",
    "pentagon", "divisor:12", "partition:3", "product:boolean:2,chain:1",
]


@pytest.fixture(params=CORPUS)
def lattice(request):
    return generate(request.param)


def test_diamond_structure():
    L = boolean_lattice(2)
    a, b = L.index_of("a"), L.index_of("b")
    assert L.join(a, b) == L.top
    assert L.meet(a, b) == L.bottom
    assert L.names[L.bottom] == "0"


def test_antichain_is_not_a_lattice():
    p = Poset.from_covers(["a", "b"], [])
    with pytest.raises(NotALattice):
        Lattice(p.names, p.up)


def test_empty_poset_is_not_a_lattice():
    with pytest.raises(EmptyLattice):
        Lattice([], [])
    assert issubclass(EmptyLattice, TotlatError)


def test_total_order_join_is_max():
    L = chain_lattice(3)
    for x, y in itertools.product(range(4), repeat=2):
        assert L.join(x, y) == max(x, y)
        assert L.meet(x, y) == min(x, y)


def test_join_all_empty_is_bottom(lattice):
    assert lattice.join_all([]) == lattice.bottom


def test_join_all_singleton(lattice):
    for x in range(lattice.n):
        assert lattice.join_all([x]) == x


def test_join_all_diamond_atoms():
    L = boolean_lattice(2)
    assert L.join_all([L.index_of("a"), L.index_of("b")]) == L.top


def test_opposite_involution(lattice):
    assert lattice.opposite().opposite() == lattice


def test_opposite_swaps_ends():
    L = chain_lattice(2)
    op = L.opposite()
    assert op.bottom == L.top and op.top == L.bottom
    for x, y in itertools.product(range(3), repeat=2):
        assert op.join(x, y) == L.meet(x, y)


def test_opposite_pentagon():
    op = pentagon_lattice().opposite()
    # still a pentagon: 5 elements, one 2-step side and one 1-step side
    assert op.n == 5 and op.max_chain_length == 3


def test_chain_family_diamond_z():
    L = boolean_lattice(2)
    got = [c.labels() for c in L.chain_family("Z")]
    # lexicographic on member indices: 0<a<b<ab is the element order
    assert got == [("0", "a", "ab"), ("0", "b", "ab"), ("0", "ab")]


def test_chain_family_diamond_b1():
    L = boolean_lattice(2)
    got = {c.labels() for c in L.chain_family("B") if len(c) == 2}
    assert got == {("0", "ab"), ("a", "ab"), ("b", "ab")}


def test_chain_family_one_element():
    L = chain_lattice(0)
    z = L.chain_family("Z")
    assert len(z) == 1 and len(z[0]) == 1


def test_chain_family_intersection(lattice):
    a, b, z = ({c.members for c in lattice.chain_family(kind)} for kind in "ABZ")
    assert z == a & b


def test_chain_family_counts_match(lattice):
    a, b = (sorted(map(len, lattice.chain_family(kind))) for kind in "AB")
    assert a == b


def test_two_element_interval_complemented(lattice):
    for x, y in lattice.covers:
        assert lattice.is_complemented_interval(x, y)


def test_pentagon_is_complemented():
    L = pentagon_lattice()
    assert L.is_complemented_interval(L.bottom, L.top)


def test_three_chain_not_complemented():
    L = chain_lattice(2)
    assert not L.is_complemented_interval(L.bottom, L.top)


def test_generate_chain():
    assert generate("chain:2").n == 3


def test_generate_boolean_2_is_diamond():
    L = generate("boolean:2")
    assert L.n == 4 and L.max_chain_length == 2


def test_generate_divisor_12():
    L = generate("divisor:12")
    assert sorted(int(x) for x in L.names) == [1, 2, 3, 4, 6, 12]
    assert L.leq(L.index_of("2"), L.index_of("6"))
    assert not L.leq(L.index_of("4"), L.index_of("6"))


def test_generate_partition_sizes():
    assert partition_lattice(3).n == 5
    assert partition_lattice(4).n == 15


def test_partition_bottom_is_discrete():
    L = partition_lattice(3)
    assert L.names[L.bottom] == "1|2|3"
    assert L.names[L.top] == "123"


def test_partition_cap():
    assert partition_lattice(5).n == 52
    for n in (-1, 0, 7):
        with pytest.raises(UnsupportedSpec, match=r"^partition lattice needs 1 <= n <= 6$"):
            partition_lattice(n)


@pytest.mark.parametrize("n", range(1, 7))
def test_partition_order_is_block_refinement(n):
    L = partition_lattice(n)
    # labels are blocks of digits joined by "|"
    blocks = [[set(b) for b in name.split("|")] for name in L.names]
    assert len(set(L.names)) == L.n == [1, 2, 5, 15, 52, 203][n - 1]
    assert all(sorted(set().union(*p)) == [str(i) for i in range(1, n + 1)] for p in blocks)

    def refines(p, q):  # every block of p inside a block of q
        return all(any(bp <= bq for bq in q) for bp in p)

    assert list(L.up) == [
        sum(1 << j for j, q in enumerate(blocks) if refines(p, q)) for p in blocks
    ]


def test_generate_unknown():
    with pytest.raises(UnsupportedSpec):
        generate("octahedron:3")
    with pytest.raises(UnsupportedSpec):
        generate("chain")
    with pytest.raises(UnsupportedSpec):
        generate("chain:x")
    # int() would read these as chain:10, chain:3 and boolean:3
    for spec in ("chain:1_0", "chain:\u0663", "boolean:+3"):
        with pytest.raises(UnsupportedSpec):
            generate(spec)


def test_generate_product():
    L = generate("product:boolean:2,chain:1")
    assert L.n == 8
    assert "0×0" in L.names


def test_diamond_mk():
    L = diamond_lattice(3)
    assert L.n == 5
    mids = [x for x in range(L.n) if x not in (L.bottom, L.top)]
    for x, y in itertools.combinations(mids, 2):
        assert not L.comparable(x, y)


def test_absorption(lattice):
    for x, y in itertools.product(range(lattice.n), repeat=2):
        assert lattice.join(x, lattice.meet(x, y)) == x
        assert lattice.meet(x, lattice.join(x, y)) == x


def test_meet_determined_by_join(lattice):
    # meet is the join of the common lower bounds
    for x, y in itertools.product(range(lattice.n), repeat=2):
        lower = [a for a in range(lattice.n)
                 if lattice.leq(a, x) and lattice.leq(a, y)]
        assert lattice.meet(x, y) == lattice.join_all(lower)


def test_join_irreducibles():
    assert len(boolean_lattice(3).join_irreducibles()) == 3
    assert len(chain_lattice(3).join_irreducibles()) == 3
    assert len(divisor_lattice(12).join_irreducibles()) == 3  # 2, 3, 4


def test_max_chain_length():
    assert chain_lattice(4).max_chain_length == 4
    assert boolean_lattice(3).max_chain_length == 3
    assert chain_lattice(0).max_chain_length == 0


# -- cached structure against the Poset.chains() oracle --------------------

ORACLE_SPECS = list(DEFAULT_CORPUS) + ["divisor:60", "diamond:5", "partition:4"]


@pytest.mark.parametrize("spec", ORACLE_SPECS)
def test_chain_families_match_poset_chains(spec):
    L = generate(spec)
    chains = [c for c in L.chains() if len(c)]
    keep = {
        "A": lambda c: c.members[0] == L.bottom,
        "B": lambda c: c.members[-1] == L.top,
        "Z": lambda c: c.members[0] == L.bottom and c.members[-1] == L.top,
    }
    for kind, ends in keep.items():
        assert L.chain_family(kind) == [c for c in chains if ends(c)], kind
        assert L.chain_counts(kind) == [
            sum(ends(c) and len(c) == n + 1 for c in chains)
            for n in range(L.max_chain_length + 1)
        ], kind


@pytest.mark.parametrize("spec", ORACLE_SPECS)
def test_interval_elements_match_leq_scan(spec):
    L = generate(spec)
    for x, y in itertools.product(range(L.n), repeat=2):
        assert L.interval_elements(x, y) == [
            z for z in range(L.n) if L.leq(x, z) and L.leq(z, y)
        ]


def test_chain_counts_of_lattices_too_large_to_enumerate():
    # 10**8 = 2**8 * 5**8 orders its divisors as a 9 x 9 grid, whose
    # maximal chains are the C(16, 8) lattice paths; a bottom-to-top chain
    # of chain:200 with n steps picks n - 1 of its 199 inner elements
    start = time.process_time()
    L = divisor_lattice(10**8)
    assert L.chain_counts("Z")[-1] == math.comb(16, 8) and len(L.chain_counts("A")) == 17
    assert chain_lattice(200).chain_counts("Z") == [0] + [
        math.comb(199, n - 1) for n in range(1, 201)
    ]
    assert time.process_time() - start < 5


def test_chain_counts_unknown_kind():
    with pytest.raises(ValueError):
        boolean_lattice(2).chain_counts("X")


@pytest.mark.parametrize("spec", ORACLE_SPECS)
def test_max_chain_length_matches_poset_chains(spec):
    L = generate(spec)
    assert L.max_chain_length == max(len(c) for c in L.chains()) - 1
    assert L.max_chain_length == len(L.chain_counts("A")) - 1


@pytest.mark.parametrize("spec", ORACLE_SPECS)
def test_lattice_is_a_poset_whose_dual_is_its_opposite(spec):
    L = generate(spec)
    assert isinstance(L, Poset)
    assert type(L.dual()) is Lattice
    assert L.dual() == L.opposite()


def test_opposite_built_once(lattice):
    op = lattice.opposite()
    assert lattice.opposite() is op
    assert op.opposite() is lattice
    assert op == Lattice(lattice.names, lattice.down)


def test_chain_family_returns_fresh_list():
    L = boolean_lattice(2)
    expected = [c.members for c in L.chain_family("B")]
    L.chain_family("B").clear()
    L.chain_family("B").append(None)
    assert [c.members for c in L.chain_family("B")] == expected


@pytest.mark.parametrize("spec", [
    "chain:-1", "boolean:-1", "boolean:11", "chain:1024", "diamond:1023",
    "divisor:0", "divisor:1000000000001", "divisor:963761198400",
    "partition:0", "partition:-1",
])
def test_generate_rejects_out_of_range_sizes(spec):
    cached = chain_lattice.cache_info().currsize
    with pytest.raises(UnsupportedSpec):
        generate(spec)
    assert chain_lattice.cache_info().currsize == cached


def test_lattices_at_the_element_cap_build():
    assert chain_lattice(MAX_ELEMENTS - 1).n == MAX_ELEMENTS
    assert boolean_lattice(10).n == MAX_ELEMENTS
    assert generate("diamond:1022").n == MAX_ELEMENTS
    assert generate("product:boolean:5,chain:31").n == MAX_ELEMENTS


def test_divisor_lattice_by_trial_division():
    # 10**8 has 81 divisors; trial division finds them without scanning 1..M
    start = time.process_time()
    L = divisor_lattice(10**8)
    assert time.process_time() - start < 1
    assert L.n == 81 and L.names[L.bottom] == "1" and L.names[L.top] == "100000000"
    assert divisor_lattice(10**12).n == 169
    for m in (1, 12, 36, 60, 97):
        divs = [d for d in range(1, m + 1) if m % d == 0]
        L = divisor_lattice(m)
        assert L.names == tuple(map(str, divs))
        assert sorted(L.cover_labels()) == sorted(
            (str(a), str(b)) for a in divs for b in divs
            if a < b and b % a == 0
            and not any(a < c < b and c % a == 0 and b % c == 0 for c in divs)
        )


def fingerprint_oracle(L):
    text = ";".join(L.names) + "|" + ";".join(
        f"{a}<{b}" for a, b in sorted(L.cover_labels())
    )
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize(
    "spec", DEFAULT_CORPUS + ("divisor:60", "partition:5", "boolean:6")
)
def test_fingerprint_is_hashlib_sha256_of_the_cover_text(spec):
    L = generate(spec)
    assert L.fingerprint() == fingerprint_oracle(L)
    assert L.opposite().fingerprint() == fingerprint_oracle(L.opposite())


def test_fingerprint_of_a_file_with_non_ascii_labels(tmp_path):
    path = tmp_path / "labels.lat"
    path.write_text(
        "elements: 0 \u00e9 \u03b1 \u00d72 1\ncovers:\n0 \u00e9\n0 \u03b1\n"
        "\u00e9 \u00d72\n\u03b1 \u00d72\n\u00d72 1\n",
        encoding="utf-8",
    )
    L = load_lattice(str(path))
    assert L.fingerprint() == fingerprint_oracle(L)
    assert L.opposite().fingerprint() == fingerprint_oracle(L.opposite())


def test_fingerprint_values_are_pinned():
    # the same on every Python: the digest does not depend on which module computes it
    assert generate("pentagon").fingerprint() == "5389e7279f3e2b2c"
    assert generate("pentagon").opposite().fingerprint() == "8c51559ea567f428"
    assert generate("partition:5").fingerprint() == "5e116ab34a67e5e0"
    assert generate("product:boolean:2,chain:1").fingerprint() == "ea6ab1a4078c3dd6"
