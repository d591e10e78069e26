"""Value tables are `bytes` into a target of at most 256 elements, tuples above.

Every constructor of a map or a formal sum is checked for the type of the
tables it makes, on lattices whose tables are all bytes, and across the
boundary on boolean:9 (512 elements), where maps into L are tuples and
maps into an index chain are bytes.  The kit of `composition` is checked
on each of the four pairs of table types a signature can have.
"""

import itertools
import json
import random

import pytest

from totlat.algebra import (
    FormalSum,
    Ring,
    ZZ,
    embed,
    f_of_chain,
    idempotent_direct,
    idempotent_original,
    j_upper,
)
from totlat.checks import DEFAULT_CORPUS
from totlat.lattices import chain_lattice, generate
from totlat.morphisms import (
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
from totlat.serialize import formal_sum_from_document, formal_sum_to_document

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
    maps = list(itertools.islice(enumerate_join_endomorphisms(L), 200))
    maps += itertools.islice(enumerate_join_endomorphisms(L, tot_only=True), 200)
    maps += sample_join_endomorphisms(L, 5, random.Random(0))
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
    sums = [e, idempotent_original(L), idempotent_direct(L).map_ring(Ring("rat")),
            idempotent_original(L).map_ring(Ring("mod", 3)), e * e, e.scale(2), e + e,
            FormalSum.total(ZZ, L, L, [e, e]), embed(identity_map(L)) * e]
    doc = json.loads(json.dumps(formal_sum_to_document(e)))
    sums.append(formal_sum_from_document(doc, L, L))
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
    assert FormalSum(ZZ, L, L, tuples) == e == FormalSum(ZZ, L, L, e.terms)
    assert FormalSum(ZZ, L, L, list(tuples.items())).terms == e.terms


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
    assert back == FormalSum(ZZ, j.source, pi.target, [
        (bytes([pi.values[v] for v in t]), c) for t, c in j.terms.items()])
    for table in itertools.islice(j.terms, 5):
        assert_map(make_join_map(j.source, L, table))


def assert_kit(source, target, gs, ps):
    """The kit for maps g: source -> target makes each g o p as
    `compose_tables` and a list comprehension do, as a table of the
    target's type."""
    outer, _, at = composition(source, target)
    prepared = [outer(g) for g in gs]
    for p in ps:
        after = at(p)[0]
        for g, ready in zip(gs, prepared):
            composite = after(ready)
            assert composite == compose_tables(g, p, target)
            assert list(composite) == [g[v] for v in p]
            assert type(composite) is target.table_type


def assert_endomorphism_kit(L, tables):
    """For endomorphisms, map(apply, inners, args) gives each p o f."""
    _, inner, at = composition(L, L)
    inners = list(map(inner, tables))
    for p in tables:
        _, apply, args = at(p)
        composites = list(map(apply, inners, args))
        assert composites == [compose_tables(p, f, L) for f in tables]
        assert [list(t) for t in composites] == [[p[v] for v in f] for f in tables]
        assert {type(t) for t in composites} == {L.table_type}


def test_kit_between_byte_tables():
    L = generate("divisor:60")
    tables = [phi.values for phi in itertools.islice(enumerate_join_endomorphisms(L), 40)]
    tables += idempotent_direct(L).terms
    assert L.table_type is bytes
    assert_kit(L, L, tables, tables)
    assert_endomorphism_kit(L, tables)


def test_kit_between_tuple_tables():
    L = generate("diamond:300")
    tables = list(idempotent_direct(L).terms)
    assert L.table_type is tuple and len(tables) > 256
    assert_kit(L, L, tables, tables[:20])
    assert_endomorphism_kit(L, tables[:20])


def test_kits_between_byte_and_tuple_tables():
    # on diamond:300 the index chains have byte tables and L tuple ones:
    # j^B o pi^B reads tuples through bytes, pi^B o j^B bytes through tuples
    L = generate("diamond:300")
    for B in L.chain_family("B"):
        j, pi = j_upper(L, B), pi_of_chain(L, B)
        assert (j.source.table_type, L.table_type) == (bytes, tuple)
        assert_kit(j.source, L, list(j.terms), [pi.values])
        assert_kit(L, pi.target, [pi.values], list(j.terms))
