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
    check_identity_on_tot,
    check_mobius_lemmas,
    check_opposite_involution,
    check_crapo_restriction,
    run_suite,
)
from totlat.algebra import ZZ
from totlat.errors import UnknownCheck
from totlat.lattices import boolean_lattice, chain_lattice, generate
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

    members = tuple(L.poset.index_of(s) for s in witness_chain)
    A = Chain(members, L.poset)
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
