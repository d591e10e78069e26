"""Value tables are `bytes` into a target of at most 256 elements, tuples above.

Every constructor of a map or a formal sum is checked for the type of the
tables it makes, on lattices whose tables are all bytes, and across the
boundary on boolean:9 (512 elements), where maps into L are tuples and
maps into an index chain are bytes.
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
    sums = [e, idempotent_original(L), idempotent_direct(L, Ring("rat")),
            idempotent_original(L, Ring("mod", 3)), e * e, e.scale(2), e + e,
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
