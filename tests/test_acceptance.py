"""Acceptance suite: one test per exit criterion, all exact.

Run with `pytest tests/test_acceptance.py -s` to see one line per criterion.
"""

import json
import time
from collections import Counter

import pytest

from totlat.algebra import (
    FormalSum,
    Ring,
    embed,
    idempotent_direct,
    idempotent_original,
    mu_chain_infinity,
    mu_chain_infinity_oracle,
)
from totlat.checks import (
    DEFAULT_CORPUS,
    Workspace,
    check_crapo_restriction,
    check_dimension,
    check_f_family,
)
from totlat.cli import main
from totlat.lattices import chain_lattice, generate
from totlat.morphisms import (
    JoinMap,
    enumerate_join_endomorphisms,
    identity_map,
    opposite_morphism,
    pi_of_chain,
    sample_join_endomorphisms,
)

RINGS = [Ring("int"), Ring("mod", 2), Ring("mod", 3), Ring("mod", 5)]


@pytest.fixture(scope="module")
def corpus():
    return {spec: generate(spec) for spec in DEFAULT_CORPUS}


def report(n, text):
    print(f"\nACCEPTANCE PASS: criterion {n} — {text}")


def test_criterion_1_idempotency(corpus):
    for spec, L in corpus.items():
        t0 = time.perf_counter()
        for ring in RINGS:
            # e's image in the ring, and its square multiplied out there
            e = FormalSum(L, L, ring.reduce(idempotent_direct(L).terms))
            assert ring.reduce((e * e).terms) == e.terms, (spec, str(ring))
        assert time.perf_counter() - t0 < 5.0, spec
    report(1, "e*e == e on every corpus lattice over Z, Z/2, Z/3, Z/5")


def test_criterion_2_centrality(corpus):
    t0 = time.perf_counter()
    for spec, L in corpus.items():
        if L.n > 8:
            continue
        e = idempotent_direct(L)
        for phi in enumerate_join_endomorphisms(L):
            s = embed(JoinMap(L, L, phi))
            assert e * s == s * e, (spec, phi)
    import random

    big = generate("partition:4")
    e = idempotent_direct(big)
    for phi in sample_join_endomorphisms(big, 500, random.Random(1)):
        s = embed(JoinMap(big, big, phi))
        assert e * s == s * e, phi
    assert time.perf_counter() - t0 < 60.0
    report(2, "centrality: exhaustive on <=8-element corpus lattices, "
              "500 seeded samples on partition:4")


def test_criterion_3_identity_on_ideal(corpus):
    t0 = time.perf_counter()
    for spec, L in corpus.items():
        e = idempotent_direct(L)
        for psi in enumerate_join_endomorphisms(L, tot_only=True):
            s = embed(JoinMap(L, L, psi))
            assert e * s == s, (spec, psi)
            assert s * e == s, (spec, psi)
    assert time.perf_counter() - t0 < 60.0
    report(3, "e is a two-sided identity on every chain-image endomorphism")


def test_criterion_4_formula_equivalence(corpus):
    t0 = time.perf_counter()
    for spec, L in corpus.items():
        assert idempotent_original(L) == idempotent_direct(L), spec
    assert time.perf_counter() - t0 < 120.0
    report(4, "family construction equals the direct formula term-by-term")


def test_criterion_5_f_family(corpus):
    for spec, L in corpus.items():
        r = check_f_family(Workspace(L, descriptor=spec))
        assert r.status == "pass", (spec, r.counterexample)
    report(5, "each f_B idempotent, all pairs orthogonal, sum equals e")


def test_criterion_6_mobius_lemmas(corpus):
    for spec, L in corpus.items():
        if L.n > 8:
            continue
        for A in L.chain_family("A"):
            assert mu_chain_infinity(L, A) == mu_chain_infinity_oracle(L, A), (
                spec, A.labels(),
            )
    report(6, "product formula with vanishing shortcut matches the "
              "chain-poset oracle on every bottom-rooted chain")


def test_criterion_7_crapo(corpus):
    for spec, L in corpus.items():
        assert check_crapo_restriction(Workspace(L, descriptor=spec)).status == "pass", spec
        for B in L.chain_family("Z"):
            if any(
                not L.is_complemented_interval(lo, hi)
                for lo, hi in zip(B.members, B.members[1:])
            ):
                assert mu_chain_infinity(L, B) == 0, (spec, B.labels())
    report(7, "the crapo check passes and chains through a non-complemented interval "
              "have mu 0")


def test_criterion_8_dimension_evidence(corpus):
    r = check_dimension(Workspace(generate("boolean:2"), descriptor="boolean:2"))
    c = r.counts
    assert (c["tot_endomorphisms"], c["sum_z_squared"], c["sum_b_squared"],
            c["sum_a_squared"]) == (14, 5, 14, 14)
    r = check_dimension(Workspace(chain_lattice(1), descriptor="chain:1"))
    c = r.counts
    assert (c["tot_endomorphisms"], c["sum_z_squared"], c["sum_b_squared"],
            c["sum_a_squared"]) == (2, 1, 2, 2)
    for spec, L in corpus.items():
        r = check_dimension(Workspace(L, descriptor=spec))
        if r.status == "skipped":
            continue
        assert r.status == "pass", (spec, r.counterexample)
        tot = sum(1 for _ in enumerate_join_endomorphisms(L, tot_only=True))
        a, b = (Counter(len(c) - 1 for c in L.chain_family(kind)) for kind in "AB")
        per_n = {n: (a[n], b[n]) for n in range(L.max_chain_length + 1)}
        assert tot == sum(b * b for _, b in per_n.values()), spec
        assert all(a == b for a, b in per_n.values()), spec
    report(8, "dimension evidence: boolean:2 gives (14, 5, 14, 14), chain:1 "
              "gives (2, 1, 2, 2); squared top-ended counts match everywhere")


def test_criterion_9_total_orders():
    for n in range(7):
        L = chain_lattice(n)
        assert idempotent_direct(L) == embed(identity_map(L)), n
    report(9, "on total orders of length 0..6 the idempotent collapses to Id")


def test_criterion_10_opposite_involution(corpus):
    for spec, L in corpus.items():
        if L.n <= 6:
            for table in enumerate_join_endomorphisms(L):
                phi = JoinMap(L, L, table)
                assert opposite_morphism(opposite_morphism(phi)) == phi, (spec, phi)
        for B in L.chain_family("B"):
            pi = pi_of_chain(L, B)
            op = opposite_morphism(pi)
            for p in range(len(B)):
                fiber = [t for t in range(L.n) if pi.values[t] == p]
                assert op.values[p] == L.join_all(fiber) == B.members[p], (
                    spec, B.labels(), p,
                )
    report(10, "double opposite is the identity; the sup formula holds on "
               "every index surjection")


def test_criterion_11_ring_functoriality(corpus):
    for spec, L in corpus.items():
        over_z = idempotent_direct(L)
        for m in (2, 3, 5):
            ring = Ring("mod", m)
            assert ring.reduce(over_z.terms) == ring.reduce(idempotent_direct(L).terms), (spec, m)
    report(11, "mod-m reduction of the integer result equals that of a second "
               "build for m in {2, 3, 5}")


def test_criterion_12_verify_determinism(capsys):
    args = ["verify", "--seed", "1", "--format", "json"]
    code1 = main(list(args))
    first = capsys.readouterr().out
    code2 = main(list(args))
    second = capsys.readouterr().out
    assert code1 == code2 == 0
    assert first == second
    for line in first.splitlines():
        json.loads(line)
    report(12, "two verify runs with identical inputs and seed emit "
               "byte-identical JSON reports")
