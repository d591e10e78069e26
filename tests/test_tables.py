"""Value tables are `bytes` into a target of at most 256 elements, tuples above.

Every constructor of a map or a formal sum is checked for the type of the
tables it makes, on lattices whose tables are all bytes, and across the
boundary on boolean:9 (512 elements), where maps into L are tuples and
maps into an index chain are bytes.  The kit of `composition`, and the
products of sums it makes, are checked on each of the four pairs of table
types a signature can have.  The digit codec of `Lattice` is checked
against a per-element reference on lattices of both digit widths.
"""

import itertools
import json
import random

import pytest

from totlat.algebra import (
    FormalSum,
    Ring,
    embed,
    f_of_chain,
    idempotent_direct,
    idempotent_original,
    j_upper,
)
from totlat.checks import DEFAULT_CORPUS
from totlat.lattices import chain_lattice, generate
from totlat.morphisms import (
    JoinMap,
    alpha_of_chain,
    compose,
    compose_tables,
    composition,
    enumerate_join_endomorphisms,
    identity_map,
    make_join_map,
    opposite_morphism,
    pi_of_chain,
    sample_join_endomorphisms,
)
from totlat.serialize import formal_sum_to_document, formal_sum_to_json

SPECS = list(DEFAULT_CORPUS) + ["divisor:60", "partition:4", "boolean:4"]


def expected_type(target):
    return bytes if target.n <= 256 else tuple


def assert_map(phi):
    assert type(phi.values) is expected_type(phi.target), phi


def assert_sum(s):
    assert s.terms, "a sum with no terms shows no table type"
    assert {type(t) for t in s.terms} == {expected_type(s.target)}


@pytest.mark.parametrize("spec", SPECS)
def test_maps_hold_their_targets_table_type(spec):
    L = generate(spec)
    tables = list(itertools.islice(enumerate_join_endomorphisms(L), 200))
    tables += itertools.islice(enumerate_join_endomorphisms(L, tot_only=True), 200)
    tables += sample_join_endomorphisms(L, 5, random.Random(0))
    assert {type(t) for t in tables} == {expected_type(L)}
    maps = [JoinMap(L, L, t) for t in tables]
    maps.append(identity_map(L))
    maps += [compose(g, f) for g, f in itertools.product(maps[:8], repeat=2)]
    maps += [opposite_morphism(phi) for phi in maps[:20]]
    maps += [make_join_map(L, L, list(phi.values)) for phi in maps[:20]]
    maps += [pi_of_chain(L, B) for B in L.chain_family("B")]
    maps += [alpha_of_chain(L, B) for B in L.chain_family("Z")]
    for phi in maps:
        assert_map(phi)


@pytest.mark.parametrize("spec", SPECS)
def test_sums_hold_their_targets_table_type(spec):
    L = generate(spec)
    e = idempotent_direct(L)
    sums = [e, idempotent_original(L), FormalSum(L, L, Ring("mod", 3).reduce(e.terms)),
            e * e, e.scale(2), e + e, FormalSum.total(L, L, [e, e]),
            embed(identity_map(L)) * e]
    # the writers read tables of either type
    for ring in (Ring("int"), Ring("rat"), Ring("mod", 3)):
        assert json.loads(formal_sum_to_json(e, ring)) == formal_sum_to_document(e, ring)
    for B in L.chain_family("B"):
        j, pi = j_upper(L, B), embed(pi_of_chain(L, B))
        sums += [j, pi, f_of_chain(L, B), j * pi, pi * j]
    for s in sums:
        assert_sum(s)


@pytest.mark.parametrize("spec", SPECS)
def test_byte_tables_sort_as_their_tuples_and_key_the_same_sum(spec):
    L = generate(spec)
    e = idempotent_direct(L)
    tuples = {tuple(t): c for t, c in e.terms.items()}
    assert [tuple(t) for t in sorted(e.terms)] == sorted(tuples)
    assert FormalSum(L, L, tuples) == e == FormalSum(L, L, e.terms)
    assert FormalSum(L, L, list(tuples.items())).terms == e.terms


def test_tables_across_the_256_boundary():
    # boolean:9 has 512 elements, so maps into it are tuples; a chain of it
    # has at most 10 members, so maps into its index chain are bytes
    L = generate("boolean:9")
    members = tuple(L.index_of(s) for s in ("0", "i", "bi", "bgi", "abcdefghi"))
    pi, alpha = pi_of_chain(L, members), alpha_of_chain(L, members)
    assert type(pi.values) is bytes and len(pi.values) == 512
    assert pi.target == chain_lattice(4)
    assert type(alpha.values) is tuple and len(alpha.values) == 512
    assert type(identity_map(L).values) is tuple
    # into the index chain through L, and into L through the index chain
    assert compose(pi, alpha) == pi and type(compose(pi, alpha).values) is bytes
    j = j_upper(L, members)
    assert_sum(j)
    assert_sum(f_of_chain(L, members))
    assert f_of_chain(L, members) == j * embed(pi)
    # pi o j reads byte tables through tuples; each composite by hand
    back = embed(pi) * j
    assert_sum(back)
    assert back == FormalSum(j.source, pi.target, [
        (bytes([pi.values[v] for v in t]), c) for t, c in j.terms.items()])
    for table in itertools.islice(j.terms, 5):
        assert_map(make_join_map(j.source, L, table))


def assert_kit(source, target, gs, ps, inner_source):
    """The kit for maps g: source -> target makes each g o p, for p:
    inner_source -> source, as `compose_tables` and a list comprehension
    do, as a table of the target's type; and the product of sums of the
    g and the p holds the per-pair composites with the products of
    their coefficients."""
    prepare, read = composition(source, target)
    prepared = [prepare(g) for g in gs]
    for p in ps:
        after = read(p)
        for g, ready in zip(gs, prepared):
            composite = after(ready)
            assert composite == compose_tables(g, p, target)
            assert list(composite) == [g[v] for v in p]
            assert type(composite) is target.table_type
    x = FormalSum(source, target, [(g, k) for k, g in enumerate(gs, 1)])
    y = FormalSum(inner_source, source, [(p, -k) for k, p in enumerate(ps, 2)])
    expected = {}
    for g, cg in x.terms.items():
        for p, cp in y.terms.items():
            composite = target.table_type([g[v] for v in p])
            expected[composite] = expected.get(composite, 0) + cg * cp
    assert (x * y).terms == {t: c for t, c in expected.items() if c}


def test_kit_between_byte_tables():
    L = generate("divisor:60")
    tables = list(itertools.islice(enumerate_join_endomorphisms(L), 40))
    tables += idempotent_direct(L).terms
    assert L.table_type is bytes
    assert_kit(L, L, tables, tables, L)


def test_kit_between_tuple_tables():
    L = generate("diamond:300")
    tables = list(idempotent_direct(L).terms)
    assert L.table_type is tuple and len(tables) > 256
    assert_kit(L, L, tables, tables[:20], L)


def test_kits_between_byte_and_tuple_tables():
    # on diamond:300 the index chains have byte tables and L tuple ones:
    # j^B o pi^B reads tuples through bytes, pi^B o j^B bytes through tuples
    L = generate("diamond:300")
    for B in L.chain_family("B"):
        j, pi = j_upper(L, B), pi_of_chain(L, B)
        assert (j.source.table_type, L.table_type) == (bytes, tuple)
        assert_kit(j.source, L, list(j.terms), [pi.values], L)
        assert_kit(L, pi.target, [pi.values], list(j.terms), j.source)


def test_kit_on_every_pair_of_table_types_of_boolean_9():
    # boolean:9 has 512 elements, so maps into it are tuples, and maps
    # into the index chain I of a chain B are bytes
    L = generate("boolean:9")
    members = tuple(L.index_of(s) for s in ("0", "i", "bi", "bgi", "abcdefghi"))
    j, pi = j_upper(L, members), pi_of_chain(L, members)
    index = j.source
    sections, back = list(j.terms), list((embed(pi) * j).terms)
    assert (index.table_type, L.table_type) == (bytes, tuple)
    # I -> I after I -> I: bytes through bytes
    assert_kit(index, index, back, back, index)
    # I -> L after L -> I: tuples through bytes
    assert_kit(index, L, sections, [pi.values], L)
    # L -> I after I -> L: bytes through tuples
    assert_kit(L, index, [pi.values], sections, index)
    # L -> L after L -> L: tuples through tuples
    chains = [members, (0, L.top), tuple(L.index_of(s) for s in ("0", "a", "abcdefghi"))]
    retractions = [alpha_of_chain(L, B).values for B in chains]
    assert_kit(L, L, retractions, retractions, L)
    assert_kit(L, L, list(f_of_chain(L, members).terms), retractions[1:], L)


# -- the digit codec of `Lattice` -----------------------------------------
#
# Each test checks the codec against a per-element reference on lattices
# of both digit widths: boolean:3 (8 elements, 1-byte digits), diamond:255
# (257 elements) and boolean:9 (512), both with 2-byte digits.  The codec
# writes digits in the host's byte order, so only that order is exercised.

CODEC_SPECS = ["boolean:3", "diamond:255", "boolean:9"]


def codec_masks(L):
    """The empty and full masks, each down- and up-set, and 20 random masks."""
    rng = random.Random(L.n)
    full = (1 << L.n) - 1
    return [0, full, *L.down, *L.up, *(rng.getrandbits(L.n) for _ in range(20))]


def top_ended_chains(L):
    """Every top-ended chain on boolean:3; 40 random ones above it, each
    climbing from a random element by random strict steps to the top."""
    if L.n <= 8:
        return [B.members for B in L.chain_family("B")]
    rng = random.Random(L.n)
    chains = []
    for _ in range(40):
        members = [rng.randrange(L.n)]
        while members[-1] != L.top:
            x = members[-1]
            members.append(rng.choice([y for y in range(L.n) if y != x and L.leq(x, y)]))
        chains.append(tuple(members))
    return chains


@pytest.mark.parametrize("spec", CODEC_SPECS)
def test_indicator_holds_each_bit_of_the_mask(spec):
    L = generate(spec)
    for mask in codec_masks(L):
        assert L.indicator(mask) == bytes(mask >> t & 1 for t in range(L.n))


@pytest.mark.parametrize("spec", CODEC_SPECS)
def test_digits_of_a_mask_decode_to_its_zero_one_table(spec):
    L = generate(spec)
    for mask in codec_masks(L):
        table = L.digit_table(L.digits(mask))
        assert type(table) is expected_type(L)
        assert list(table) == [mask >> t & 1 for t in range(L.n)]


@pytest.mark.parametrize("spec", CODEC_SPECS)
def test_summed_outside_digits_decode_to_chain_indices(spec):
    # at t, the index in B of the least member of B above t
    L = generate(spec)
    digits = L.outside_digits()
    for members in top_ended_chains(L):
        table = L.digit_table(sum(digits[b] for b in members))
        assert type(table) is expected_type(L)
        expected = [next(p for p, b in enumerate(members) if L.leq(t, b))
                    for t in range(L.n)]
        assert list(table) == expected, members
