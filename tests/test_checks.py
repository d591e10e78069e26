import itertools
import json

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
from totlat.lattices import Lattice, boolean_lattice, chain_lattice, generate
from totlat.morphisms import JoinMap, compose, enumerate_join_endomorphisms
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


@pytest.mark.parametrize("ring", ["int", "rat", "mod:2", "mod:7"])
def test_run_suite_builds_e_once_per_lattice(monkeypatch, ring):
    # the shared e and ring_functoriality's one rebuild, both over Z, per
    # lattice under every ring; crapo builds no sum
    calls = []
    real = checks.idempotent_direct

    def counted(L):
        calls.append(L.n)
        return real(L)

    monkeypatch.setattr(checks, "idempotent_direct", counted)
    reports = run_suite(corpus=["boolean:2", "pentagon"], ring=Ring.parse(ring))
    assert {r.status for r in reports} == {"pass"}
    assert calls == [4, 4, 5, 5]


def test_run_suite_builds_the_family_sum_once_per_lattice(monkeypatch):
    # formula_equivalence builds it; f_family adds its own j^B * pi^B
    calls = []
    real = checks.idempotent_original

    def counted(L):
        calls.append(L.n)
        return real(L)

    monkeypatch.setattr(checks, "idempotent_original", counted)
    reports = run_suite(corpus=["boolean:2", "pentagon"],
                        checks=["formula_equivalence", "f_family"])
    assert {r.status for r in reports} == {"pass"}
    assert calls == [4, 5]


def test_ring_functoriality_also_checks_the_run_ring(monkeypatch):
    # a second build that adds 30 * identity agrees with e modulo 2, 3
    # and 5, so only the run ring, when it is none of these nor Z, sees it
    passing = {"check": "ring_functoriality", "lattice": "pentagon", "status": "pass",
               "counts": {"moduli": [2, 3, 5]}}
    real = checks.idempotent_direct
    builds = []

    def second_build_off(L):
        builds.append(L.n)
        e = real(L)
        return e + identity_sum(L).scale(30) if len(builds) == 2 else e

    monkeypatch.setattr(checks, "idempotent_direct", second_build_off)
    for ring in ("int", "rat", "mod:2", "mod:3", "mod:5", "mod:7"):
        builds.clear()
        *rest, last = run_suite(corpus=["pentagon"], ring=Ring.parse(ring))
        assert builds == [5, 5]
        assert {r.status for r in rest} == {"pass"}
        if ring in ("rat", "mod:7"):
            assert last.to_dict() == {"check": "ring_functoriality", "lattice": "pentagon",
                                      "status": "fail", "counterexample": {"ring": ring}}
        else:
            assert last.to_dict() == passing


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


def test_reports_do_not_share_counts():
    a = CheckReport(name="x", lattice="chain:1", status="pass")
    b = CheckReport("y", "chain:2", "fail")
    a.counts["maps"] = 3
    assert b.counts == {} and a.counts is not b.counts
    assert (a.counterexample, a.note, a.seed, a.elapsed) == (None, None, None, 0.0)
    assert a.to_dict() == {"check": "x", "lattice": "chain:1", "status": "pass",
                           "counts": {"maps": 3}}
    full = CheckReport("z", "pentagon", "fail", counterexample={"pair": [1, 2]},
                       counts={"k": 1}, note="n", seed=7, elapsed=2.0)
    assert json.dumps(full.to_dict()) == (
        '{"check": "z", "lattice": "pentagon", "status": "fail", '
        '"counterexample": {"pair": [1, 2]}, "counts": {"k": 1}, "note": "n", "seed": 7}'
    )


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


def test_crapo_names_a_noncomplemented_chain_with_nonzero_mu(monkeypatch):
    # [bottom, top] of boolean:2 has mu = 1; called non-complemented, the
    # chain {bottom, top} breaks Crapo's theorem, and crapo says so
    # from its own loop, building no sum
    L = generate("boolean:2")
    real = Lattice.is_complemented_interval

    def top_interval_off(self, x, y):
        return (x, y) != (self.bottom, self.top) and real(self, x, y)

    def no_build(L):
        raise AssertionError("crapo built a sum")

    monkeypatch.setattr(Lattice, "is_complemented_interval", top_interval_off)
    monkeypatch.setattr(checks, "idempotent_direct", no_build)
    report = check_crapo_restriction(Workspace(L, descriptor="boolean:2")).to_dict()
    assert report == {"check": "crapo", "lattice": "boolean:2", "status": "fail",
                      "counterexample": {"chain": (L.names[L.bottom], L.names[L.top]),
                                         "mu": 1}}


# -- reports under every ring -----------------------------------------------

RINGS = ["int", "rat", "mod:2", "mod:3"]


def workspace(L, spec, e=None, ring="int"):
    """A workspace on L under `ring`, e replaced by the sum e over Z when
    given; the oracles below read it under int."""
    ws = Workspace(L, Ring.parse(ring), descriptor=spec)
    if e is not None:
        ws.e = e
    return ws


def report_under(check, L, spec, ring, e=None):
    """check's report under `ring` as a dict, on `workspace(L, spec, e, ring)`.

    Every check decides over Z, so a failing report is byte-identical
    under every ring: this is asserted against the report under int, or
    under rat when `ring` is int.
    """
    report = check(workspace(L, spec, e, ring)).to_dict()
    if report["status"] == "fail":
        other = check(workspace(L, spec, e, "rat" if ring == "int" else "int")).to_dict()
        assert json.dumps(other) == json.dumps(report)
    return report


# -- f_family against multiplying every pair f_B, f_C out on L ----------------


def family_member(L, B):
    """f_B = j^B * pi^B on L over Z, from the j^B and pi^B the check reads."""
    return checks.j_upper(L, B) * embed(checks.pi_of_chain(L, B))


def f_family_oracle(ws):
    """check_f_family's report, from the L-level products of the f_B over Z.

    Each f_B = j^B * pi^B is built on L and every product f_B * f_C is
    multiplied out in full.  j^B and pi^B come from `checks.j_upper` and
    `checks.pi_of_chain`, so a test that corrupts the sections or the
    surjections the check uses corrupts the oracle's too.
    """
    L = ws.L
    fs = [(B, family_member(L, B)) for B in sorted(L.chain_family("B"), key=len)]
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
    total = FormalSum.total(ZZ, L, L, (f for _, f in fs))
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
    L = generate(spec)
    report = report_under(check_f_family, L, spec, ring)
    assert report == f_family_oracle(workspace(L, spec)).to_dict()
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
    # corrupt j^B over Z for one chain at a time; the check, under every
    # ring, and the oracle must both fail, with the same counterexample
    L = generate(spec)
    real = checks.j_upper
    kinds = set()
    for chosen in L.chain_family("B"):

        def corrupted(L, B):
            s = real(L, B)
            return mutate(s) if tuple(B) == tuple(chosen) else s

        monkeypatch.setattr(checks, "j_upper", corrupted)
        expected = f_family_oracle(workspace(L, spec)).to_dict()
        for ring in RINGS:
            report = report_under(check_f_family, L, spec, ring)
            assert report["status"] == "fail"
            assert report == expected
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
    f = {tuple(B): family_member(L, B) for B in chains}
    endos = [embed(y) for y in enumerate_join_endomorphisms(L)]
    B, C, y = next((B, C, y) for B, C in pairs for y in endos
                   if not (f[tuple(B)] * y * f[tuple(C)]).is_zero())

    def corrupted(L, D):
        s = real(L, D)
        return s + f[tuple(B)] * y * s if tuple(D) == tuple(C) else s

    monkeypatch.setattr(checks, "j_upper", corrupted)
    first, second = (C, B) if mutated_first else (B, C)
    expected = f_family_oracle(workspace(L, spec)).to_dict()
    assert expected["counterexample"] == {"chains": [first.labels(), second.labels()],
                                          "kind": "not orthogonal"}
    for ring in RINGS:
        assert report_under(check_f_family, L, spec, ring) == expected


# The check passes without testing a pair when its certificate holds:
# every f_B idempotent, sum f_B == e and e * e == e.  Each test below
# breaks one premise and compares with the oracle.


@pytest.mark.parametrize("ring", ["int", "mod:2", "rat"])
@pytest.mark.parametrize("spec", ["pentagon", "divisor:12", "boolean:3"])
def test_f_family_with_an_idempotent_e_other_than_the_sum_fails_like_the_oracle(spec, ring):
    # e * e == e holds, sum f_B == e does not
    L = generate(spec)
    first = min(L.chain_family("B"), key=len)
    e = idempotent_direct(L)
    for other in (FormalSum(ZZ, L, L), identity_sum(L), e - family_member(L, first)):
        ws = workspace(L, spec, other)
        assert ws.e_squared == ws.e
        report = report_under(check_f_family, L, spec, ring, other)
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
    f = {tuple(B): family_member(L, B) for B in chains}
    endos = [embed(y) for y in enumerate_join_endomorphisms(L)]
    B, C, y = next((B, C, y) for B in chains for C in chains if B != C for y in endos
                   if not (f[tuple(B)] * y * f[tuple(C)]).is_zero())
    z = f[tuple(B)] * y * f[tuple(C)]

    def corrupted_j(L, D):
        s = real_j(L, D)
        return s + f[tuple(B)] * y * s if tuple(D) == tuple(C) else s

    monkeypatch.setattr(checks, "j_upper", corrupted_j)
    monkeypatch.setattr(checks, "idempotent_direct",
                        lambda L: real_e(L) + z)
    ws = workspace(L, spec)
    assert FormalSum.total(ZZ, L, L, (family_member(L, D) for D in chains)) == ws.e
    assert ws.e_squared != ws.e
    expected = f_family_oracle(ws).to_dict()
    assert expected["counterexample"]["kind"] == "not orthogonal"
    for ring in RINGS:
        assert report_under(check_f_family, L, spec, ring) == expected


@pytest.mark.parametrize("ring", ["int", "mod:2", "mod:3", "rat"])
@pytest.mark.parametrize("spec", ["pentagon", "divisor:12", "boolean:3"])
def test_f_family_with_a_repeated_member_fails_like_the_oracle(monkeypatch, spec, ring):
    # C takes B's sections and surjection, so f_C = f_B and f_B * f_C =
    # f_B; e is replaced by the new sum, r + 2 f_B with r = e - f_B - f_C.
    # Modulo 2 that is the idempotent r, but over Z its square is
    # r + 4 f_B, so under every ring the pairs are tested for the witness.
    L = generate(spec)
    chains = sorted(L.chain_family("B"), key=len)
    B, C = chains[0], chains[1]
    real_j, real_pi = checks.j_upper, checks.pi_of_chain
    e = idempotent_direct(L) - family_member(L, C) + family_member(L, B)
    monkeypatch.setattr(checks, "j_upper", lambda L, D:
                        real_j(L, B if tuple(D) == tuple(C) else D))
    monkeypatch.setattr(checks, "pi_of_chain", lambda L, D:
                        real_pi(L, B if tuple(D) == tuple(C) else D))
    ws = workspace(L, spec, e)
    assert FormalSum.total(ZZ, L, L, (family_member(L, D) for D in chains)) == e
    assert ws.e_squared != e
    assert ws.e_squared.map_ring(Ring("mod", 2)) == e.map_ring(Ring("mod", 2))
    report = report_under(check_f_family, L, spec, ring, e)
    assert report["counterexample"] == {"chains": [B.labels(), C.labels()],
                                        "kind": "not orthogonal"}
    assert report == f_family_oracle(ws).to_dict()


@pytest.mark.parametrize("mutate", [doubled_first_term, dropped_first_term])
@pytest.mark.parametrize("spec", ["pentagon", "divisor:12", "boolean:3"])
def test_a_corrupted_family_sum_fails_formula_equivalence(monkeypatch, spec, mutate):
    L = generate(spec)
    real = checks.idempotent_original
    monkeypatch.setattr(checks, "idempotent_original",
                        lambda L: mutate(real(L)))
    wrong = checks._sum_as_witness(mutate(real(L)))
    for ring in RINGS:
        report = report_under(check_formula_equivalence, L, spec, ring)
        assert report["status"] == "fail"
        assert report["counterexample"]["original"] == wrong


@pytest.mark.parametrize("spec", F_FAMILY_SPECS)
def test_pair_loop_finds_no_nonorthogonal_pair_on_a_passing_family(spec):
    # the certificate lets check_f_family pass without the pair loop, so
    # the loop is run here in full on each lattice whose family passes
    L = generate(spec)
    sides = [(B, checks.j_upper(L, B), embed(checks.pi_of_chain(L, B)))
             for B in sorted(L.chain_family("B"), key=len)]
    assert checks._nonorthogonal_pair(sides) is None


def test_f_family_tests_pairs_only_when_the_certificate_fails(monkeypatch):
    # on the passing corpus the certificate holds under every ring, so no
    # pair is tested; with a repeated member (as above) pairs are
    real = checks._nonorthogonal_pair
    calls = []

    def counted(sides):
        calls.append(len(sides))
        return real(sides)

    monkeypatch.setattr(checks, "_nonorthogonal_pair", counted)
    for ring in RINGS:
        reports = run_suite(ring=Ring.parse(ring), checks=["f_family"])
        assert {r.status for r in reports} == {"pass"}
        assert not calls, ring
    L = generate("pentagon")
    B, C = sorted(L.chain_family("B"), key=len)[:2]
    e = idempotent_direct(L) - family_member(L, C) + family_member(L, B)
    real_j, real_pi = checks.j_upper, checks.pi_of_chain
    monkeypatch.setattr(checks, "j_upper", lambda L, D:
                        real_j(L, B if tuple(D) == tuple(C) else D))
    monkeypatch.setattr(checks, "pi_of_chain", lambda L, D:
                        real_pi(L, B if tuple(D) == tuple(C) else D))
    for ring in RINGS:
        calls.clear()
        assert report_under(check_f_family, L, "pentagon", ring, e)["status"] == "fail"
        assert calls, ring


# -- central and identity_on_tot against embedded products ---------------


def central_oracle(ws):
    """check_central's exhaustive report, from `embed` and `FormalSum.__mul__`."""
    e = ws.e
    count = 0
    for phi in enumerate_join_endomorphisms(ws.L):
        count += 1
        s = embed(phi)
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
        s = embed(psi)
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
    # one term of e over Z at a time is corrupted; both checks must
    # report what the embedded products over Z report, pass or fail,
    # under every ring: modulo 2 a flipped sign still fails
    L = generate(spec)
    e = idempotent_direct(L)
    statuses = []
    for table in sorted(e.terms):
        mutant = mutate(e, table)
        for check, oracle in ((check_central, central_oracle),
                              (check_identity_on_tot, identity_on_tot_oracle)):
            report = report_under(check, L, spec, ring, mutant)
            assert report == oracle(workspace(L, spec, mutant)).to_dict()
            statuses.append(report["status"])
    assert "fail" in statuses


# -- idempotent and decomposition against their full products -------------


def idempotent_oracle(ws):
    """check_idempotent's report over Z, with e * e multiplied out afresh."""
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
    one = identity_sum(ws.L)
    rest = one - e
    if (rest * rest == rest and (e * rest).is_zero() and (rest * e).is_zero()
            and e + rest == one):
        return ws.report("decomposition", "pass")
    return ws.report("decomposition", "fail",
                     counterexample={"e": checks._sum_as_witness(e)})


@pytest.mark.parametrize("mutate", [flipped_term, dropped_term, doubled_term])
@pytest.mark.parametrize("ring", ["int", "mod:2", "mod:3", "rat"])
def test_decomposition_and_idempotent_on_a_mutated_e_match_the_oracles(ring, mutate):
    # one term of e over Z at a time is corrupted, each in a fresh
    # workspace; a passing idempotent report counts the terms the mutant
    # keeps in the ring
    statuses = []
    for spec in MULTI_TERM_SPECS:
        L = generate(spec)
        e = idempotent_direct(L)
        for table in sorted(e.terms):
            mutant = mutate(e, table)
            for check, oracle in ((check_decomposition, decomposition_oracle),
                                  (check_idempotent, idempotent_oracle)):
                report = report_under(check, L, spec, ring, mutant)
                expected = oracle(workspace(L, spec, mutant)).to_dict()
                if report["status"] == "pass" and "counts" in report:
                    expected["counts"]["terms"] = len(mutant.map_ring(Ring.parse(ring)).terms)
                assert report == expected
                statuses.append(report["status"])
    assert "fail" in statuses


@pytest.mark.parametrize("spec", ["partition:3", "diamond:5"])
def test_a_mutant_that_vanishes_mod_2_fails_over_mod_2_as_over_int(spec):
    # doubling a term of even coefficient leaves e modulo 2 unchanged, so
    # a decision modulo 2 would pass; decided over Z, every check that
    # reads e reports under mod:2 exactly what it reports under int
    L = generate(spec)
    e = idempotent_direct(L)
    table = next(t for t, c in sorted(e.terms.items()) if c % 2 == 0)
    mutant = doubled_term(e, table)
    assert mutant.map_ring(Ring("mod", 2)) == e.map_ring(Ring("mod", 2))
    statuses = set()
    for check in (check_idempotent, check_central, check_identity_on_tot,
                  check_f_family, check_decomposition):
        report = report_under(check, L, spec, "mod:2", mutant)
        assert report == report_under(check, L, spec, "int", mutant)
        statuses.add(report["status"])
    assert "fail" in statuses


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
