import itertools

import pytest

import totlat.checks as checks
from totlat.checks import (
    CheckReport,
    Workspace,
    check_central,
    check_decomposition,
    check_dimension,
    check_f_family,
    check_formula_equivalence,
    check_idempotent,
    check_ideal_closure,
    check_identity_on_tot,
    check_mobius_lemmas,
    check_opposite_involution,
    check_crapo_restriction,
    run_suite,
)
from totlat.algebra import ZZ, FormalSum, Ring, embed, idempotent_direct, identity_sum
from totlat.errors import UnknownCheck
from totlat.lattices import boolean_lattice, chain_lattice, generate
from totlat.morphisms import JoinMap, compose, enumerate_join_endomorphisms, pi_of_chain
from totlat.posets import Poset


def test_all_checks_pass_on_diamond():
    L = boolean_lattice(2)
    reports = run_suite(corpus=["boolean:2"])
    assert all(r.status == "pass" for r in reports), [
        (r.name, r.status) for r in reports
    ]


def test_run_suite_empty_corpus():
    assert run_suite(corpus=[]) == []


def test_run_suite_unknown_check():
    with pytest.raises(ValueError):
        run_suite(corpus=["chain:1"], checks=["no_such_check"])


def test_run_suite_names_unknown_checks_before_loading():
    with pytest.raises(UnknownCheck, match="^unknown checks: x, y\navailable: central, "):
        run_suite(corpus=["no_such_lattice"], checks=["x", "idempotent", "y"])


def test_run_suite_builds_e_once_per_lattice(monkeypatch):
    calls = []
    real = checks.idempotent_direct

    def counted(L, ring=ZZ, crapo_filter=False):
        calls.append((str(ring), crapo_filter))
        return real(L, ring, crapo_filter)

    monkeypatch.setattr(checks, "idempotent_direct", counted)
    run_suite(corpus=["boolean:2"])
    # the shared e, crapo's filtered sum, and ring_functoriality's four sums
    assert sorted(calls) == sorted([
        ("int", False), ("int", True),
        ("int", False), ("mod:2", False), ("mod:3", False), ("mod:5", False),
    ])


def test_run_suite_order_deterministic():
    a = [r.to_dict() for r in run_suite(corpus=["chain:2", "boolean:2"])]
    b = [r.to_dict() for r in run_suite(corpus=["chain:2", "boolean:2"])]
    assert a == b


def test_dimension_diamond():
    r = check_dimension(Workspace(boolean_lattice(2), descriptor="boolean:2"))
    assert r.status == "pass"
    c = r.counts
    assert (
        c["tot_endomorphisms"],
        c["sum_z_squared"],
        c["sum_b_squared"],
        c["sum_a_squared"],
    ) == (14, 5, 14, 14)
    assert r.note is not None  # the Z-count mismatch is reported, not asserted


def test_dimension_two_point_chain():
    r = check_dimension(Workspace(chain_lattice(1), descriptor="chain:1"))
    c = r.counts
    assert (
        c["tot_endomorphisms"],
        c["sum_z_squared"],
        c["sum_b_squared"],
        c["sum_a_squared"],
    ) == (2, 1, 2, 2)


def test_dimension_one_element():
    r = check_dimension(Workspace(chain_lattice(0), descriptor="chain:0"))
    c = r.counts
    assert (
        c["tot_endomorphisms"],
        c["sum_z_squared"],
        c["sum_b_squared"],
        c["sum_a_squared"],
    ) == (1, 1, 1, 1)
    assert r.note is None


def test_identity_on_tot_counts_diamond():
    r = check_identity_on_tot(Workspace(boolean_lattice(2), descriptor="boolean:2"))
    assert r.status == "pass"
    assert r.counts["tot_endomorphisms"] == 14


def test_central_exhaustive_diamond():
    r = check_central(Workspace(boolean_lattice(2), descriptor="boolean:2"))
    assert r.status == "pass"
    assert r.counts == {"endomorphisms": 16, "mode": "exhaustive"}
    assert r.seed is None


def test_central_sampled_on_large_lattice():
    L = generate("partition:4")
    r = check_central(Workspace(L, descriptor="partition:4", seed=1, sample_count=50))
    assert r.status == "pass"
    assert r.counts["mode"] == "sampled"
    assert r.seed == 1


def test_feasibility_gate_reports_skipped(monkeypatch):
    monkeypatch.setattr(checks, "MAX_ASSIGNMENTS", 0)
    r = check_identity_on_tot(Workspace(boolean_lattice(2), descriptor="boolean:2"))
    assert r.status == "skipped"
    r = check_dimension(Workspace(boolean_lattice(2), descriptor="boolean:2"))
    assert r.status == "skipped"
    r = check_central(Workspace(boolean_lattice(2), descriptor="boolean:2", seed=3,
                                sample_count=10))
    assert r.status == "pass" and r.counts["mode"] == "sampled"


def test_fault_injection_mobius(monkeypatch):
    # corrupt the recursive Moebius computation; the chain-count oracle
    # must disagree and the check must surface a witness
    L = boolean_lattice(2)
    real = Poset.mobius

    def corrupted(self, x, y):
        value = real(self, x, y)
        if x != y and not any(c == (x, y) for c in self.covers):
            return value + 1
        return value

    monkeypatch.setattr(Poset, "mobius", corrupted)
    r = check_mobius_lemmas(Workspace(L, descriptor="boolean:2"))
    assert r.status == "fail"
    assert r.counterexample is not None
    witness_chain = r.counterexample["chain"]
    # the witness re-checks independently once the corruption is lifted
    monkeypatch.setattr(Poset, "mobius", real)
    from totlat.algebra import mu_chain_infinity, mu_chain_infinity_oracle
    from totlat.posets import Chain

    members = tuple(L.index_of(s) for s in witness_chain)
    A = Chain(members, L)
    assert mu_chain_infinity(L, A) == mu_chain_infinity_oracle(L, A)


def test_report_to_dict_shapes():
    r = CheckReport(name="x", lattice="chain:1", status="pass", elapsed=1.25)
    d = r.to_dict()
    assert d == {"check": "x", "lattice": "chain:1", "status": "pass"}
    assert r.to_dict(include_elapsed=True)["elapsed"] == 1.25


@pytest.mark.parametrize("spec", ["chain:2", "pentagon", "divisor:12"])
def test_individual_checks_pass(spec):
    L = generate(spec)
    for fn in (
        check_idempotent,
        check_identity_on_tot,
        check_formula_equivalence,
        check_f_family,
        check_crapo_restriction,
        check_decomposition,
        check_opposite_involution,
    ):
        r = fn(Workspace(L, descriptor=spec))
        assert r.status == "pass", (spec, r.name, r.counterexample)


# -- f_family against multiplying every pair f_B, f_C out on L ----------------


def family_member(L, B, ring):
    """f_B = j^B * pi^B on L, from the j^B and pi^B the check reads."""
    return checks.j_upper(L, B, ring) * embed(checks.pi_of_chain(L, B), ring)


def f_family_oracle(ws):
    """check_f_family's report, from the L-level products of the f_B.

    Each f_B = j^B * pi^B is built on L and every product f_B * f_C is
    multiplied out in full.  j^B and pi^B come from `checks.j_upper` and
    `checks.pi_of_chain`, so a test that corrupts the sections or the
    surjections the check uses corrupts the oracle's too.
    """
    L, ring = ws.L, ws.ring
    fs = [(B, family_member(L, B, ring)) for B in sorted(L.chain_family("B"), key=len)]
    for B, f in fs:
        if f * f != f:
            return ws.report("f_family", "fail",
                             counterexample={"chain": B.labels(), "kind": "not idempotent"})
    for i, (B, f) in enumerate(fs):
        for C, g in fs[i + 1:]:
            if not (f * g).is_zero() or not (g * f).is_zero():
                return ws.report(
                    "f_family", "fail",
                    counterexample={"chains": [B.labels(), C.labels()],
                                    "kind": "not orthogonal"},
                )
    total = FormalSum.total(ring, L, L, (f for _, f in fs))
    if total != ws.e:
        return ws.report("f_family", "fail",
                         counterexample={"kind": "sum differs from direct idempotent",
                                         "sum": checks._sum_as_witness(total)})
    return ws.report("f_family", "pass", counts={"chains": len(fs)})


F_FAMILY_SPECS = list(checks.DEFAULT_CORPUS) + [
    "divisor:60", "diamond:5", "partition:4", "boolean:4"]


@pytest.mark.parametrize("ring", ["int", "mod:2", "rat"])
@pytest.mark.parametrize("spec", F_FAMILY_SPECS)
def test_f_family_matches_l_level_oracle(spec, ring):
    ws = Workspace(generate(spec), Ring.parse(ring), descriptor=spec)
    report = check_f_family(ws).to_dict()
    assert report == f_family_oracle(ws).to_dict()
    assert report["status"] == "pass"


def doubled_first_term(s):
    terms = dict(s.terms)
    first = min(terms)
    terms[first] *= 2
    return FormalSum(s.ring, s.source, s.target, terms)


def dropped_first_term(s):
    terms = dict(s.terms)
    del terms[min(terms)]
    return FormalSum(s.ring, s.source, s.target, terms)


@pytest.mark.parametrize("mutate", [doubled_first_term, dropped_first_term])
@pytest.mark.parametrize("spec", ["chain:2", "pentagon", "divisor:12", "boolean:3"])
def test_f_family_mutated_section_fails_like_the_oracle(monkeypatch, spec, mutate):
    # corrupt j^B for one chain at a time; the check and the oracle must
    # both fail, with the same counterexample
    L = generate(spec)
    real = checks.j_upper
    for ring in (ZZ, Ring("rat")):
        kinds = set()
        for chosen in L.chain_family("B"):

            def corrupted(L, B, ring=ZZ):
                s = real(L, B, ring)
                return mutate(s) if tuple(B) == tuple(chosen) else s

            monkeypatch.setattr(checks, "j_upper", corrupted)
            ws = Workspace(L, ring, descriptor=spec)
            report = check_f_family(ws).to_dict()
            assert report["status"] == "fail"
            assert report == f_family_oracle(ws).to_dict()
            kinds.add(report["counterexample"]["kind"])
        assert "not idempotent" in kinds


@pytest.mark.parametrize("mutated_first", [True, False])
@pytest.mark.parametrize("spec", ["pentagon", "divisor:12"])
def test_f_family_one_sided_product_fails_like_the_oracle(monkeypatch, spec, mutated_first):
    # For orthogonal idempotents p, q and any y, q' = q + p y q is again
    # idempotent, and p q' = p y q while q' p = 0.  Replacing j^C by
    # j^C + f_B y j^C turns f_C into such a q', so only one of the two
    # products of the pair is nonzero; the check must test both orders.
    L = generate(spec)
    real = checks.j_upper
    chains = sorted(L.chain_family("B"), key=len)
    # C is the chain whose sections are corrupted, B the other of the pair
    pairs = [(B, C) for i, B in enumerate(chains) for C in chains[i + 1:]]
    if mutated_first:
        pairs = [(C, B) for B, C in pairs]
    for ring in (ZZ, Ring("rat")):
        f = {tuple(B): real(L, B, ring) * embed(pi_of_chain(L, B), ring) for B in chains}
        endos = [embed(y, ring) for y in enumerate_join_endomorphisms(L)]
        B, C, y = next((B, C, y) for B, C in pairs for y in endos
                       if not (f[tuple(B)] * y * f[tuple(C)]).is_zero())

        def corrupted(L, D, ring=ZZ):
            s = real(L, D, ring)
            return s + f[tuple(B)] * y * s if tuple(D) == tuple(C) else s

        monkeypatch.setattr(checks, "j_upper", corrupted)
        ws = Workspace(L, ring, descriptor=spec)
        report = check_f_family(ws).to_dict()
        first, second = (C, B) if mutated_first else (B, C)
        assert report["counterexample"] == {"chains": [first.labels(), second.labels()],
                                            "kind": "not orthogonal"}
        assert report == f_family_oracle(ws).to_dict()


# The check passes over Z and Q without testing a pair when its
# certificate holds: every f_B idempotent, sum f_B == e and e * e == e.
# Each test below breaks one premise and compares with the oracle.


@pytest.mark.parametrize("ring", ["int", "mod:2", "rat"])
@pytest.mark.parametrize("spec", ["pentagon", "divisor:12", "boolean:3"])
def test_f_family_with_an_idempotent_e_other_than_the_sum_fails_like_the_oracle(spec, ring):
    # e * e == e holds, sum f_B == e does not
    L, ring = generate(spec), Ring.parse(ring)
    first = min(L.chain_family("B"), key=len)
    e = idempotent_direct(L, ring)
    for other in (FormalSum(ring, L, L), identity_sum(L, ring),
                  e - family_member(L, first, ring)):
        ws = Workspace(L, ring, descriptor=spec)
        ws.e = other
        assert ws.e_squared == ws.e
        report = check_f_family(ws).to_dict()
        assert report["counterexample"]["kind"] == "sum differs from direct idempotent"
        assert report == f_family_oracle(ws).to_dict()


@pytest.mark.parametrize("spec", ["pentagon", "divisor:12"])
def test_f_family_summing_to_a_non_idempotent_e_fails_like_the_oracle(monkeypatch, spec):
    # f_C becomes f_C + z, z = f_B y f_C, as in the one-sided test, and e
    # becomes their new sum e + z: every f_B is idempotent and they sum
    # to e, but e * e = e + 2z, so the certificate does not apply
    L = generate(spec)
    real_j, real_e = checks.j_upper, checks.idempotent_direct
    chains = sorted(L.chain_family("B"), key=len)
    for ring in (ZZ, Ring("rat"), Ring("mod", 3)):
        f = {tuple(B): family_member(L, B, ring) for B in chains}
        endos = [embed(y, ring) for y in enumerate_join_endomorphisms(L)]
        B, C, y = next((B, C, y) for B in chains for C in chains if B != C for y in endos
                       if not (f[tuple(B)] * y * f[tuple(C)]).is_zero())
        z = f[tuple(B)] * y * f[tuple(C)]

        def corrupted_j(L, D, ring=ZZ):
            s = real_j(L, D, ring)
            return s + f[tuple(B)] * y * s if tuple(D) == tuple(C) else s

        monkeypatch.setattr(checks, "j_upper", corrupted_j)
        monkeypatch.setattr(checks, "idempotent_direct",
                            lambda L, ring=ZZ, crapo_filter=False: real_e(L, ring) + z)
        ws = Workspace(L, ring, descriptor=spec)
        assert FormalSum.total(ring, L, L, (family_member(L, D, ring) for D in chains)) == ws.e
        assert ws.e_squared != ws.e
        report = check_f_family(ws).to_dict()
        assert report["counterexample"]["kind"] == "not orthogonal"
        assert report == f_family_oracle(ws).to_dict()
        monkeypatch.undo()


@pytest.mark.parametrize("ring", ["int", "mod:2", "mod:3", "rat"])
@pytest.mark.parametrize("spec", ["pentagon", "divisor:12", "boolean:3"])
def test_f_family_with_a_repeated_member_fails_like_the_oracle(monkeypatch, spec, ring):
    # C takes B's sections and surjection, so f_C = f_B and f_B * f_C =
    # f_B; e is replaced by the new sum, r + 2 f_B with r = e - f_B - f_C.
    # Modulo 2 that is the idempotent r, so there every premise but
    # characteristic 0 holds: only testing the pairs finds the witness.
    L, ring = generate(spec), Ring.parse(ring)
    chains = sorted(L.chain_family("B"), key=len)
    B, C = chains[0], chains[1]
    real_j, real_pi = checks.j_upper, checks.pi_of_chain
    e = idempotent_direct(L, ring)
    e = e - family_member(L, C, ring) + family_member(L, B, ring)
    monkeypatch.setattr(checks, "j_upper", lambda L, D, ring=ZZ:
                        real_j(L, B if tuple(D) == tuple(C) else D, ring))
    monkeypatch.setattr(checks, "pi_of_chain", lambda L, D:
                        real_pi(L, B if tuple(D) == tuple(C) else D))
    ws = Workspace(L, ring, descriptor=spec)
    ws.e = e
    assert FormalSum.total(ring, L, L, (family_member(L, D, ring) for D in chains)) == e
    assert (ws.e_squared == e) == (ring.modulus == 2)
    report = check_f_family(ws).to_dict()
    assert report["counterexample"] == {"chains": [B.labels(), C.labels()],
                                        "kind": "not orthogonal"}
    assert report == f_family_oracle(ws).to_dict()


def test_f_family_tests_pairs_only_modulo_m(monkeypatch):
    # on the passing corpus the certificate holds over Z and Q, so no
    # pi^B * j^C is tested; modulo 2 every pair is
    real = checks.vanishing_products
    calls = []

    def counted(s):
        vanishes = real(s)

        def counted_vanishes(p):
            calls.append(p)
            return vanishes(p)

        return counted_vanishes

    monkeypatch.setattr(checks, "vanishing_products", counted)
    for ring in ("int", "rat", "mod:2"):
        calls.clear()
        reports = run_suite(ring=Ring.parse(ring), checks=["f_family"])
        assert {r.status for r in reports} == {"pass"}
        assert bool(calls) == (ring == "mod:2"), ring


# -- central and identity_on_tot against embedded products ---------------


def central_oracle(ws):
    """check_central's exhaustive report, from `embed` and `FormalSum.__mul__`."""
    e = ws.e
    count = 0
    for phi in enumerate_join_endomorphisms(ws.L):
        count += 1
        s = embed(phi, ws.ring)
        if e * s != s * e:
            return ws.report("central", "fail", counterexample={"phi": phi.table_labels()},
                             counts={"examined": count, "mode": "exhaustive"})
    return ws.report("central", "pass", counts={"endomorphisms": count, "mode": "exhaustive"})


def identity_on_tot_oracle(ws):
    """check_identity_on_tot's report, from `embed` and `FormalSum.__mul__`."""
    e = ws.e
    count = 0
    for psi in enumerate_join_endomorphisms(ws.L, tot_only=True):
        count += 1
        s = embed(psi, ws.ring)
        if e * s != s or s * e != s:
            return ws.report("identity_on_tot", "fail",
                             counterexample={"psi": psi.table_labels()},
                             counts={"examined": count})
    return ws.report("identity_on_tot", "pass", counts={"tot_endomorphisms": count})


def flipped_term(s, table):
    terms = dict(s.terms)
    terms[table] = -terms[table]
    return FormalSum(s.ring, s.source, s.target, terms)


def dropped_term(s, table):
    terms = dict(s.terms)
    del terms[table]
    return FormalSum(s.ring, s.source, s.target, terms)


def doubled_term(s, table):
    terms = dict(s.terms)
    terms[table] *= 2
    return FormalSum(s.ring, s.source, s.target, terms)


MULTI_TERM_SPECS = [spec for spec in checks.DEFAULT_CORPUS
                    if len(idempotent_direct(generate(spec)).terms) > 1] + ["diamond:5"]


@pytest.mark.parametrize("mutate", [flipped_term, dropped_term, doubled_term])
@pytest.mark.parametrize("ring", ["int", "mod:2", "mod:3", "rat"])
@pytest.mark.parametrize("spec", MULTI_TERM_SPECS)
def test_central_and_identity_on_tot_on_a_mutated_e_match_the_oracles(spec, ring, mutate):
    # one term of e at a time is corrupted; both checks must report what
    # the embedded products report, pass or fail.  Modulo 2 a flipped
    # sign changes nothing and a doubled term drops out.
    L, ring = generate(spec), Ring.parse(ring)
    e = idempotent_direct(L, ring)
    statuses = []
    for table in sorted(e.terms):
        ws = Workspace(L, ring, descriptor=spec)
        ws.e = mutate(e, table)
        if ws.e == e:
            continue
        for check, oracle in ((check_central, central_oracle),
                              (check_identity_on_tot, identity_on_tot_oracle)):
            report = check(ws).to_dict()
            assert report == oracle(ws).to_dict()
            statuses.append(report["status"])
    if mutate is flipped_term and ring.modulus == 2:
        assert statuses == []
    else:
        assert "fail" in statuses


# -- idempotent and decomposition against their full products -------------


def idempotent_oracle(ws):
    """check_idempotent's report, with e * e multiplied out afresh."""
    e = ws.e
    square = e * e
    if square == e:
        return ws.report("idempotent", "pass", counts={"terms": len(e.terms)})
    return ws.report(
        "idempotent", "fail",
        counterexample={"e": checks._sum_as_witness(e),
                        "e_squared": checks._sum_as_witness(square)},
    )


def decomposition_oracle(ws):
    """check_decomposition's report, from the four products it asserts."""
    e = ws.e
    one = identity_sum(ws.L, ws.ring)
    rest = one - e
    if (rest * rest == rest and (e * rest).is_zero() and (rest * e).is_zero()
            and e + rest == one):
        return ws.report("decomposition", "pass")
    return ws.report("decomposition", "fail",
                     counterexample={"e": checks._sum_as_witness(e)})


@pytest.mark.parametrize("mutate", [flipped_term, dropped_term, doubled_term])
@pytest.mark.parametrize("ring", ["int", "mod:2", "mod:3", "rat"])
def test_decomposition_and_idempotent_on_a_mutated_e_match_the_oracles(ring, mutate):
    # one term of e at a time is corrupted, each in a fresh workspace.
    # Modulo 2 a flipped term changes nothing, and e without any one of
    # its terms is still idempotent on every lattice here.
    ring = Ring.parse(ring)
    statuses = []
    for spec in MULTI_TERM_SPECS:
        L = generate(spec)
        e = idempotent_direct(L, ring)
        for table in sorted(e.terms):
            ws = Workspace(L, ring, descriptor=spec)
            ws.e = mutate(e, table)
            if ws.e == e:
                continue
            for check, oracle in ((check_decomposition, decomposition_oracle),
                                  (check_idempotent, idempotent_oracle)):
                report = check(ws).to_dict()
                assert report == oracle(ws).to_dict()
                statuses.append(report["status"])
    assert ("fail" in statuses) == (ring.modulus != 2)


# -- ideal_closure against composing JoinMaps pairwise ----------------------


def _pairwise_chain(phi):
    T = phi.target
    return all(T.comparable(a, b) for a, b in itertools.combinations(set(phi.values), 2))


def ideal_closure_oracle(ws):
    """check_ideal_closure's report, from `compose` and a pairwise chain scan.

    The maps come from `checks.enumerate_join_endomorphisms`, so a test
    that corrupts the maps the check sees corrupts the oracle's too.
    """
    L = ws.L
    if not ws.enumerable or L.n > 6:
        return ws.report("ideal_closure", "skipped",
                         note="restricted to exhaustively enumerable lattices with <= 6 elements")
    alls = list(checks.enumerate_join_endomorphisms(L))
    tots = [phi for phi in alls if _pairwise_chain(phi)]
    for alpha in tots:
        for phi in alls:
            for prod in (compose(alpha, phi), compose(phi, alpha)):
                if not _pairwise_chain(prod):
                    return ws.report(
                        "ideal_closure", "fail",
                        counterexample={"alpha": alpha.table_labels(),
                                        "phi": phi.table_labels()},
                    )
    return ws.report("ideal_closure", "pass", counts={"tot": len(tots), "all": len(alls)})


@pytest.mark.parametrize("spec", list(checks.DEFAULT_CORPUS) + ["diamond:4"])
def test_ideal_closure_matches_compose_oracle(spec):
    ws = Workspace(generate(spec), descriptor=spec)
    report = check_ideal_closure(ws).to_dict()
    assert report == ideal_closure_oracle(ws).to_dict()
    assert report["status"] == ("skipped" if ws.L.n > 6 else "pass")


def broken_at(L, w):
    """A table, not a join-map, that breaks every chain image through w.

    It sends w and every other element to two incomparable elements, so
    it maps a chain image holding w and the bottom onto a non-chain.
    """
    x, y = next((x, y) for x, y in itertools.combinations(range(L.n), 2)
                if not L.comparable(x, y))
    table = [x] * L.n
    table[w] = y
    return JoinMap(L, L, tuple(table))


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("spec", ["boolean:2", "diamond:3", "pentagon", "divisor:12",
                                  "partition:3"])
def test_ideal_closure_mutated_maps_fail_like_the_oracle(monkeypatch, spec, reverse):
    # The first chain image above the bottom, alpha, is broken only by a
    # table appended last; a table put first breaks later chain images
    # only.  Pairs taken alpha first report (alpha, last table); pairs
    # taken map first would report the first table.  The maps come in
    # the enumeration's order or reversed, and alpha is first in either.
    L = generate(spec)
    maps = list(enumerate_join_endomorphisms(L))[::-1 if reverse else 1]
    alpha = next(phi for phi in maps if _pairwise_chain(phi) and len(set(phi.values)) > 1)
    image = set(alpha.values)
    inside = max(image - {L.bottom})
    outside = next(w for w in range(L.n) if w not in image)
    maps = [broken_at(L, outside)] + maps + [broken_at(L, inside)]
    monkeypatch.setattr(checks, "enumerate_join_endomorphisms", lambda L: iter(maps))
    ws = Workspace(L, descriptor=spec)
    report = check_ideal_closure(ws).to_dict()
    assert report["counterexample"] == {"alpha": alpha.table_labels(),
                                        "phi": maps[-1].table_labels()}
    assert report == ideal_closure_oracle(ws).to_dict()


@pytest.mark.parametrize("spec", ["boolean:2", "diamond:3", "pentagon", "partition:3"])
def test_ideal_closure_reads_the_maps_through_every_chain_image(monkeypatch, spec):
    # A chain image T is broken alone by a table that sends two members
    # of T, which no other chain image holds both of, to incomparable
    # elements and everything else to the bottom; one such table is
    # appended at a time, so each of these images must be read.  Of the
    # maps with image T only one is kept, moved to the end, so that T is
    # read from the last chain-image map.  (On divisor:12 every such pair
    # lies in two chain images.)
    L = generate(spec)
    maps = list(enumerate_join_endomorphisms(L))
    images = {frozenset(phi.values) for phi in maps if _pairwise_chain(phi)}
    x, y = next((x, y) for x, y in itertools.combinations(range(L.n), 2)
                if not L.comparable(x, y))
    broken = 0
    for image in images:
        alone = [(u, v) for u, v in itertools.combinations(sorted(image), 2)
                 if not any({u, v} <= other for other in images - {image})]
        if not alone:
            continue
        table = [L.bottom] * L.n
        (u, v), = alone[:1]
        table[u], table[v] = x, y
        holders = [phi for phi in maps if frozenset(phi.values) == image]
        injected = ([phi for phi in maps if frozenset(phi.values) != image]
                    + holders[:1] + [JoinMap(L, L, tuple(table))])
        monkeypatch.setattr(checks, "enumerate_join_endomorphisms",
                            lambda L: iter(injected))
        ws = Workspace(L, descriptor=spec)
        report = check_ideal_closure(ws).to_dict()
        assert report["status"] == "fail"
        assert report == ideal_closure_oracle(ws).to_dict()
        broken += 1
    assert broken
