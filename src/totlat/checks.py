"""Executable exact checks for every algebraic property the library claims.

Each check runs over one lattice and returns a CheckReport.  All equalities
are exact; a failing report carries a structured counterexample that can be
re-verified independently of the check that produced it.

Feasibility gates keep the default suite fast: exhaustive endomorphism
sweeps require at most MAX_ASSIGNMENTS candidate assignments, n ** k for
n elements and k join-irreducibles; beyond that, centrality degrades to
seeded sampling and other enumeration-based checks are skipped.  The
chain-poset oracle of the Moebius check is capped by CHAIN_POSET_LIMIT.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass, field

from .algebra import (
    CHAIN_POSET_LIMIT,
    FormalSum,
    Ring,
    ZZ,
    embed,
    idempotent_direct,
    idempotent_original,
    identity_sum,
    mu_chain_infinity,
    mu_chain_infinity_oracle,
)
from .errors import FeasibilityLimit
from .lattices import Lattice
from .morphisms import (
    enumerate_join_endomorphisms,
    image_chain,
    opposite_morphism,
    pi_of_chain,
    sample_join_endomorphisms,
)
from .serialize import load_lattice

MAX_ASSIGNMENTS = int(os.environ.get("TOTLAT_MAX_ASSIGNMENTS", 10**7))

DEFAULT_CORPUS = (
    "chain:0",
    "chain:1",
    "chain:2",
    "chain:3",
    "chain:4",
    "boolean:1",
    "boolean:2",
    "boolean:3",
    "diamond:3",
    "pentagon",
    "divisor:12",
    "partition:3",
    "product:boolean:2,chain:1",
)


@dataclass
class CheckReport:
    name: str
    lattice: str
    status: str  # "pass" | "fail" | "skipped"
    counterexample: dict | None = None
    counts: dict = field(default_factory=dict)
    note: str | None = None
    seed: int | None = None
    elapsed: float = 0.0

    @property
    def passed(self):
        return self.status == "pass"

    def to_dict(self, include_elapsed=False):
        # elapsed is excluded by default so reports are byte-reproducible
        out = {
            "check": self.name,
            "lattice": self.lattice,
            "status": self.status,
        }
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        if self.counts:
            out["counts"] = self.counts
        if self.note is not None:
            out["note"] = self.note
        if self.seed is not None:
            out["seed"] = self.seed
        if include_elapsed:
            out["elapsed"] = self.elapsed
        return out


def _report(name, descriptor, started, **kw):
    return CheckReport(
        name=name, lattice=descriptor, elapsed=time.perf_counter() - started, **kw
    )


def _endo_enumeration_feasible(L: Lattice):
    return L.n ** len(L.join_irreducibles()) <= MAX_ASSIGNMENTS


def _sum_as_witness(s: FormalSum):
    return [
        {"coeff": str(c), "table": jm.table_labels()} for jm, c in s.sorted_terms()
    ]


# -- individual checks ----------------------------------------------------


def check_idempotent(L: Lattice, ring: Ring = ZZ, descriptor="?"):
    t0 = time.perf_counter()
    e = idempotent_direct(L, ring)
    square = e * e
    if square == e:
        return _report("idempotent", descriptor, t0, status="pass",
                       counts={"terms": len(e.terms)})
    return _report(
        "idempotent", descriptor, t0, status="fail",
        counterexample={"e": _sum_as_witness(e), "e_squared": _sum_as_witness(square)},
    )


def check_identity_on_tot(L: Lattice, ring: Ring = ZZ, descriptor="?"):
    """e acts as two-sided identity on every endomorphism with chain image."""
    t0 = time.perf_counter()
    if not _endo_enumeration_feasible(L):
        return _report("identity_on_tot", descriptor, t0, status="skipped",
                       note="endomorphism enumeration above the feasibility gate")
    e = idempotent_direct(L, ring)
    count = 0
    for psi in enumerate_join_endomorphisms(L, tot_only=True):
        count += 1
        s = embed(psi, ring)
        if e * s != s or s * e != s:
            return _report(
                "identity_on_tot", descriptor, t0, status="fail",
                counterexample={"psi": psi.table_labels()},
                counts={"examined": count},
            )
    return _report("identity_on_tot", descriptor, t0, status="pass",
                   counts={"tot_endomorphisms": count})


def check_central(L: Lattice, ring: Ring = ZZ, descriptor="?", seed=None,
                  sample_count=500):
    t0 = time.perf_counter()
    e = idempotent_direct(L, ring)
    note = None
    used_seed = None
    if _endo_enumeration_feasible(L):
        endos = enumerate_join_endomorphisms(L)
        mode = "exhaustive"
    else:
        used_seed = 0 if seed is None else seed
        rng = random.Random(used_seed)
        endos = sample_join_endomorphisms(L, sample_count, rng)
        mode = "sampled"
        note = f"sampled {sample_count} endomorphisms"
    count = 0
    for phi in endos:
        count += 1
        s = embed(phi, ring)
        if e * s != s * e:
            return _report(
                "central", descriptor, t0, status="fail",
                counterexample={"phi": phi.table_labels()},
                counts={"examined": count, "mode": mode}, seed=used_seed,
            )
    return _report("central", descriptor, t0, status="pass",
                   counts={"endomorphisms": count, "mode": mode},
                   note=note, seed=used_seed)


def check_formula_equivalence(L: Lattice, ring: Ring = ZZ, descriptor="?"):
    t0 = time.perf_counter()
    direct = idempotent_direct(L, ring)
    original = idempotent_original(L, ring)
    if direct == original:
        return _report("formula_equivalence", descriptor, t0, status="pass",
                       counts={"terms": len(direct.terms)})
    return _report(
        "formula_equivalence", descriptor, t0, status="fail",
        counterexample={
            "direct": _sum_as_witness(direct),
            "original": _sum_as_witness(original),
        },
    )


def check_f_family(L: Lattice, ring: Ring = ZZ, descriptor="?"):
    """Each f_B idempotent, all pairs orthogonal, and their sum is e."""
    from .algebra import f_of_chain

    t0 = time.perf_counter()
    chains = []
    for n in range(L.max_chain_length + 1):
        chains.extend(L.chain_family("B", n))
    fs = [(B, f_of_chain(L, B, ring)) for B in chains]
    for B, f in fs:
        if f * f != f:
            return _report("f_family", descriptor, t0, status="fail",
                           counterexample={"chain": B.labels(), "kind": "not idempotent"})
    for i, (B, f) in enumerate(fs):
        for C, g in fs[i + 1:]:
            if not (f * g).is_zero() or not (g * f).is_zero():
                return _report(
                    "f_family", descriptor, t0, status="fail",
                    counterexample={"chains": [B.labels(), C.labels()],
                                    "kind": "not orthogonal"},
                )
    total = FormalSum.total(ring, L, L, (f for _, f in fs))
    if total != idempotent_direct(L, ring):
        return _report("f_family", descriptor, t0, status="fail",
                       counterexample={"kind": "sum differs from direct idempotent",
                                       "sum": _sum_as_witness(total)})
    return _report("f_family", descriptor, t0, status="pass",
                   counts={"chains": len(fs)})


def check_mobius_lemmas(L: Lattice, descriptor="?"):
    """Product formula (with its vanishing shortcut) vs the chain-poset oracle."""
    t0 = time.perf_counter()
    count = 0
    limited = False
    for A in L.chain_family("A"):
        fast = mu_chain_infinity(L, A)
        try:
            slow = mu_chain_infinity_oracle(L, A, limit=CHAIN_POSET_LIMIT)
        except FeasibilityLimit:
            limited = True
            continue
        count += 1
        if fast != slow:
            return _report(
                "mobius_lemmas", descriptor, t0, status="fail",
                counterexample={"chain": A.labels(), "product": fast, "oracle": slow},
                counts={"examined": count},
            )
    note = "some chains skipped by the chain-poset size limit" if limited else None
    return _report("mobius_lemmas", descriptor, t0, status="pass",
                   counts={"chains": count}, note=note)


def check_crapo_restriction(L: Lattice, ring: Ring = ZZ, descriptor="?"):
    t0 = time.perf_counter()
    filtered = idempotent_direct(L, ring, crapo_filter=True)
    unfiltered = idempotent_direct(L, ring, crapo_filter=False)
    if filtered != unfiltered:
        return _report("crapo", descriptor, t0, status="fail",
                       counterexample={"filtered": _sum_as_witness(filtered),
                                       "unfiltered": _sum_as_witness(unfiltered)})
    skipped = 0
    for B in L.chain_family("Z"):
        if any(
            not L.is_complemented_interval(lo, hi)
            for lo, hi in zip(B.members, B.members[1:])
        ):
            skipped += 1
            if mu_chain_infinity(L, B) != 0:
                return _report(
                    "crapo", descriptor, t0, status="fail",
                    counterexample={"chain": B.labels(),
                                    "mu": mu_chain_infinity(L, B)},
                )
    return _report("crapo", descriptor, t0, status="pass",
                   counts={"skipped_chains": skipped})


def check_dimension(L: Lattice, descriptor="?"):
    """Counts supporting the matrix-algebra dimension identity.

    Reports (#chain-image endomorphisms, sum of squared Z-counts, squared
    B-counts, squared A-counts).  Asserts the B-version and the per-length
    equality of A- and B-counts; the Z-version is reported, not asserted.
    """
    t0 = time.perf_counter()
    if not _endo_enumeration_feasible(L):
        return _report("dimension", descriptor, t0, status="skipped",
                       note="endomorphism enumeration above the feasibility gate")
    tot_count = sum(1 for _ in enumerate_join_endomorphisms(L, tot_only=True))
    per_n = {}
    for n in range(L.max_chain_length + 1):
        per_n[n] = (
            len(L.chain_family("A", n)),
            len(L.chain_family("B", n)),
            len(L.chain_family("Z", n)),
        )
    sum_a = sum(a * a for a, _, _ in per_n.values())
    sum_b = sum(b * b for _, b, _ in per_n.values())
    sum_z = sum(z * z for _, _, z in per_n.values())
    counts = {
        "tot_endomorphisms": tot_count,
        "sum_z_squared": sum_z,
        "sum_b_squared": sum_b,
        "sum_a_squared": sum_a,
        "per_length": {str(n): list(v) for n, v in per_n.items()},
    }
    if any(a != b for a, b, _ in per_n.values()):
        return _report("dimension", descriptor, t0, status="fail",
                       counterexample={"per_length": counts["per_length"],
                                       "kind": "A-count differs from B-count"},
                       counts=counts)
    if tot_count != sum_b:
        return _report("dimension", descriptor, t0, status="fail",
                       counterexample={"kind": "count differs from sum of squared B-counts"},
                       counts=counts)
    note = None
    if sum_z != tot_count:
        note = "sum of squared Z-counts differs from the endomorphism count (reported, not asserted)"
    return _report("dimension", descriptor, t0, status="pass", counts=counts,
                   note=note)


def check_opposite_involution(L: Lattice, descriptor="?"):
    """Double opposite is the identity; the sup formula holds for surjections."""
    t0 = time.perf_counter()
    if not _endo_enumeration_feasible(L):
        return _report("opposite_involution", descriptor, t0, status="skipped",
                       note="endomorphism enumeration above the feasibility gate")
    count = 0
    for phi in enumerate_join_endomorphisms(L):
        count += 1
        if opposite_morphism(opposite_morphism(phi)) != phi:
            return _report("opposite_involution", descriptor, t0, status="fail",
                           counterexample={"phi": phi.table_labels()})
        if phi.is_surjective():
            op = opposite_morphism(phi)
            for tp in range(L.n):
                fiber = [t for t in range(L.n) if phi.values[t] == tp]
                if op.values[tp] != L.join_all(fiber):
                    return _report(
                        "opposite_involution", descriptor, t0, status="fail",
                        counterexample={"phi": phi.table_labels(),
                                        "at": L.names[tp]},
                    )
    # the index surjections are the surjective maps both constructions use
    pis = 0
    for n in range(L.max_chain_length + 1):
        for B in L.chain_family("B", n):
            pi = pi_of_chain(L, B)
            op = opposite_morphism(pi)
            if tuple(op.values) != tuple(B.members):
                return _report("opposite_involution", descriptor, t0, status="fail",
                               counterexample={"chain": B.labels(),
                                               "kind": "index surjection adjoint mismatch"})
            pis += 1
    return _report("opposite_involution", descriptor, t0, status="pass",
                   counts={"endomorphisms": count, "index_surjections": pis})


def check_decomposition(L: Lattice, ring: Ring = ZZ, descriptor="?"):
    """Id splits as e + (Id - e) with both parts idempotent and orthogonal."""
    t0 = time.perf_counter()
    e = idempotent_direct(L, ring)
    one = identity_sum(L, ring)
    rest = one - e
    ok = (
        rest * rest == rest
        and (e * rest).is_zero()
        and (rest * e).is_zero()
        and e + rest == one
    )
    if ok:
        return _report("decomposition", descriptor, t0, status="pass")
    return _report("decomposition", descriptor, t0, status="fail",
                   counterexample={"e": _sum_as_witness(e)})


def check_ideal_closure(L: Lattice, descriptor="?"):
    """Composites of a chain-image endomorphism with anything stay chain-image."""
    from .morphisms import compose

    t0 = time.perf_counter()
    if not _endo_enumeration_feasible(L) or L.n > 6:
        return _report("ideal_closure", descriptor, t0, status="skipped",
                       note="restricted to exhaustively enumerable lattices with <= 6 elements")
    tots = list(enumerate_join_endomorphisms(L, tot_only=True))
    alls = list(enumerate_join_endomorphisms(L))
    for alpha in tots:
        for phi in alls:
            for prod in (compose(alpha, phi), compose(phi, alpha)):
                if image_chain(prod) is None:
                    return _report(
                        "ideal_closure", descriptor, t0, status="fail",
                        counterexample={"alpha": alpha.table_labels(),
                                        "phi": phi.table_labels()},
                    )
    return _report("ideal_closure", descriptor, t0, status="pass",
                   counts={"tot": len(tots), "all": len(alls)})


def check_ring_functoriality(L: Lattice, descriptor="?", moduli=(2, 3, 5)):
    """Reducing the integer result mod m equals computing mod m directly."""
    t0 = time.perf_counter()
    over_z = idempotent_direct(L, ZZ)
    for m in moduli:
        ring = Ring("mod", m)
        if over_z.map_ring(ring) != idempotent_direct(L, ring):
            return _report("ring_functoriality", descriptor, t0, status="fail",
                           counterexample={"modulus": m})
    return _report("ring_functoriality", descriptor, t0, status="pass",
                   counts={"moduli": list(moduli)})


CHECKS = {
    "idempotent": lambda L, ring, desc, opts: check_idempotent(L, ring, desc),
    "identity_on_tot": lambda L, ring, desc, opts: check_identity_on_tot(L, ring, desc),
    "central": lambda L, ring, desc, opts: check_central(
        L, ring, desc, seed=opts.get("seed"), sample_count=opts.get("sample_count", 500)
    ),
    "formula_equivalence": lambda L, ring, desc, opts: check_formula_equivalence(L, ring, desc),
    "f_family": lambda L, ring, desc, opts: check_f_family(L, ring, desc),
    "mobius_lemmas": lambda L, ring, desc, opts: check_mobius_lemmas(L, desc),
    "crapo": lambda L, ring, desc, opts: check_crapo_restriction(L, ring, desc),
    "dimension": lambda L, ring, desc, opts: check_dimension(L, desc),
    "opposite_involution": lambda L, ring, desc, opts: check_opposite_involution(L, desc),
    "decomposition": lambda L, ring, desc, opts: check_decomposition(L, ring, desc),
    "ideal_closure": lambda L, ring, desc, opts: check_ideal_closure(L, desc),
    "ring_functoriality": lambda L, ring, desc, opts: check_ring_functoriality(L, desc),
}


def run_suite(corpus=DEFAULT_CORPUS, ring: Ring = ZZ, checks=None, **options):
    """Run the selected checks over each corpus entry, in order.

    An entry is a lattice file or a generator descriptor, as `load_lattice`
    takes it; each report names the lattice by the entry as given.

    Returns the list of CheckReports; callers decide what a failure means
    (the CLI maps any non-pass to a nonzero exit status).
    """
    selected = list(checks) if checks else list(CHECKS)
    unknown = [c for c in selected if c not in CHECKS]
    if unknown:
        raise ValueError(f"unknown checks: {unknown}")
    reports = []
    for descriptor in corpus:
        L = load_lattice(descriptor)
        for name in selected:
            reports.append(CHECKS[name](L, ring, descriptor, options))
    return reports
