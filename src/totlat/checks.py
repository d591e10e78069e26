"""Executable exact checks for every algebraic property the library claims.

Each check takes one Workspace and returns a CheckReport.  All equalities
are exact; a failing report carries a structured counterexample that can be
re-verified independently of the check that produced it.  A CheckReport is
a plain class with `__slots__`, not a dataclass (see `posets`), and each
report gets a `counts` dict of its own.

Every identity is decided once, over Z: every sum is over Z (see
`algebra`), e over a ring R is the image of e over Z under Z -> R, and a
ring map preserves identities.  The run's ring is an output spec:
`Ring.reduce` gives the term counts `idempotent` and
`formula_equivalence` report, and `ring_functoriality` compares in it
too.  Witnesses are the sums over Z: over int and rat each report is
what a decision in R gives, since Z[M] -> Q[M] is injective and an
integral rational prints as its integer; modulo m a check fails where
the identity over Z fails, even if its image modulo m holds.

A Workspace holds one lattice under verification with the output ring,
the name its reports carry and the sampling options.  It computes the
direct idempotent `e` over Z once, on first use, for every check that
needs it; `formula_equivalence` builds the family construction and
`ring_functoriality` a second direct sum independently.  `crapo` builds
no sum: it walks the bottom-to-top chains and decides each from its
Moebius value.  A swept join-endomorphism is its value table, of L's
`table_type`, as the enumerator and the sampler yield it; only
`opposite_involution` wraps each in a JoinMap, to take its opposite, and
a failing report wraps its witness, for the labels.  The tables are not
kept: each check streams them from the enumerator.  Held in the
Workspace as JoinMaps, they raised the peak RSS of the `sweep` benchmark
by 11.7 % when tried; the enumeration that each check repeats instead is
a small part of the sweep.

`central` compares e o phi with phi o e for every map phi, and
`identity_on_tot` compares both with psi for every chain-image map psi.
Neither builds a formal sum per map: `algebra.map_products` returns the
two predicates, which take each map's table as the enumerator made it
(`bytes` on at most 256 elements) and compare the interned normal forms
of e's products with the map, each computed once per image and once per
ranking of the map's values; the tests keep the embedded products as the
oracle.  The maps come from L's compiled enumerator, and the chain-image
maps from its pruned search, which never builds a map whose image is not
a chain.

The f_family check certifies the orthogonality of the f_B instead of
testing each pair.  Lemma: idempotents p_1 ... p_k of a finite-dimensional
algebra over a field of characteristic 0 whose sum is idempotent are
pairwise orthogonal.  In the left-regular representation the trace of
an idempotent is its rank, so rank(sum p_i) = sum rank(p_i); the images
of the p_i then form a direct sum equal to the image of their sum, and
p_i p_j = 0 for i != j.  The algebra of maps on L over Q contains the
one over Z, so the check passes, after testing each f_B for idempotence,
as soon as sum f_B == e and e * e == e.  Only when the certificate
fails are the pairs tested, to name the first non-orthogonal pair; the
pairwise L-level loop is kept in the tests as the oracle.

e * e is multiplied out once per Workspace; `idempotent`, `f_family` and
`decomposition` read it.  `decomposition` needs nothing else: in any
ring (1 - e)^2 = 1 - 2e + e^2 and e(1 - e) = (1 - e)e = e - e^2.
`ideal_closure` reads each map through each distinct chain image once: a
composite with a chain-image map a fails only as p o a, whose image is
p(image of a).

Feasibility gates keep the default suite fast: exhaustive endomorphism
sweeps require at most MAX_ASSIGNMENTS candidate assignments, n ** k for
n elements and k join-irreducibles; beyond that, centrality degrades to
seeded sampling and other enumeration-based checks are skipped.  The
Moebius check skips the chain-poset oracle on each chain whose chain
poset has more than `algebra.CHAIN_POSET_LIMIT` elements.
"""

from __future__ import annotations

import itertools
import random
import time
from functools import cached_property

from .algebra import (
    FormalSum,
    Ring,
    embed,
    idempotent_direct,
    idempotent_original,
    j_upper,
    map_products,
    mu_chain_infinity,
    mu_chain_infinity_oracle,
)
from .errors import FeasibilityLimit, UnknownCheck
from .lattices import Lattice
from .morphisms import (
    JoinMap,
    enumerate_join_endomorphisms,
    has_chain_image,
    opposite_morphism,
    pi_of_chain,
    sample_join_endomorphisms,
)
from .serialize import load_lattice

# the exhaustive-sweep gate on candidate assignments
MAX_ASSIGNMENTS = 10**7

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

SKIPPED_ABOVE_GATE = "endomorphism enumeration above the feasibility gate"


class CheckReport:
    """The outcome of one check on one lattice; `to_dict` is what is printed."""

    __slots__ = ("name", "lattice", "status", "counterexample", "counts",
                 "note", "seed", "elapsed")

    def __init__(self, name, lattice, status, counterexample=None, counts=None,
                 note=None, seed=None, elapsed=0.0):
        self.name = name
        self.lattice = lattice
        self.status = status  # "pass" | "fail" | "skipped"
        self.counterexample = counterexample
        # a fresh dict per report: checks fill their counts in place
        self.counts = {} if counts is None else counts
        self.note = note
        self.seed = seed
        self.elapsed = elapsed

    def to_dict(self):
        # elapsed is left out so that reports are byte-reproducible
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
        return out


class Workspace:
    """One lattice under verification and what its checks share; `e` and
    `e_squared` are over Z, where every check decides."""

    def __init__(self, L: Lattice, ring: Ring = Ring("int"), descriptor="?", seed=None,
                 sample_count=500):
        self.L = L
        self.ring = ring
        self.descriptor = descriptor
        self.seed = seed
        self.sample_count = sample_count

    @cached_property
    def e(self) -> FormalSum:
        """The direct idempotent over Z."""
        return idempotent_direct(self.L)

    @cached_property
    def e_squared(self) -> FormalSum:
        """e * e, multiplied out once and shared by the checks that need it."""
        return self.e * self.e

    @cached_property
    def enumerable(self):
        """True iff an exhaustive endomorphism sweep is within the gate."""
        L = self.L
        return L.n ** len(L.join_irreducibles()) <= MAX_ASSIGNMENTS

    def ring_terms(self, s: FormalSum):
        """The number of terms of the sum s over Z left in the workspace ring."""
        return len(self.ring.reduce(s.terms))

    def report(self, name, status, **kw):
        return CheckReport(name=name, lattice=self.descriptor, status=status, **kw)


def _sum_as_witness(s: FormalSum):
    return [
        {"coeff": str(c), "table": jm.table_labels()} for jm, c in s.sorted_terms()
    ]


# -- individual checks ----------------------------------------------------


def check_idempotent(ws: Workspace):
    e, square = ws.e, ws.e_squared
    if square == e:
        return ws.report("idempotent", "pass", counts={"terms": ws.ring_terms(e)})
    return ws.report(
        "idempotent", "fail",
        counterexample={"e": _sum_as_witness(e), "e_squared": _sum_as_witness(square)},
    )


def check_identity_on_tot(ws: Workspace):
    """e acts as two-sided identity on every endomorphism with chain image."""
    if not ws.enumerable:
        return ws.report("identity_on_tot", "skipped", note=SKIPPED_ABOVE_GATE)
    _, fixes = map_products(ws.e)
    count = 0
    for psi in enumerate_join_endomorphisms(ws.L, tot_only=True):
        count += 1
        if not fixes(psi):
            return ws.report(
                "identity_on_tot", "fail",
                counterexample={"psi": JoinMap(ws.L, ws.L, psi).table_labels()},
                counts={"examined": count},
            )
    return ws.report("identity_on_tot", "pass", counts={"tot_endomorphisms": count})


def check_central(ws: Workspace):
    commutes, _ = map_products(ws.e)
    note = None
    used_seed = None
    if ws.enumerable:
        endos = enumerate_join_endomorphisms(ws.L)
        mode = "exhaustive"
    else:
        used_seed = 0 if ws.seed is None else ws.seed
        rng = random.Random(used_seed)
        endos = sample_join_endomorphisms(ws.L, ws.sample_count, rng)
        mode = "sampled"
        note = f"sampled {ws.sample_count} endomorphisms"
    count = 0
    for phi in endos:
        count += 1
        if not commutes(phi):
            return ws.report(
                "central", "fail",
                counterexample={"phi": JoinMap(ws.L, ws.L, phi).table_labels()},
                counts={"examined": count, "mode": mode}, seed=used_seed,
            )
    return ws.report("central", "pass", counts={"endomorphisms": count, "mode": mode},
                     note=note, seed=used_seed)


def check_formula_equivalence(ws: Workspace):
    direct = ws.e
    original = idempotent_original(ws.L)
    if direct == original:
        return ws.report("formula_equivalence", "pass",
                         counts={"terms": ws.ring_terms(direct)})
    return ws.report(
        "formula_equivalence", "fail",
        counterexample={
            "direct": _sum_as_witness(direct),
            "original": _sum_as_witness(original),
        },
    )


def check_f_family(ws: Workspace):
    """Each f_B idempotent, all pairs orthogonal, and their sum is e.

    After the per-chain idempotence test the f_B are summed.  A sum equal
    to e with e * e == e certifies every pair orthogonal (see the module
    docstring); otherwise the pairs are tested as follows, then the sum.

    f_B = j^B * pi^B, and no two f_B are multiplied out on L.  pi^C is
    surjective, so g -> g o pi^C is injective on value tables, and X * pi^C
    has the terms of X, moved to distinct tables, with the same
    coefficients: right composition by pi^C is injective on formal sums.
    Hence f_B * f_C = (j^B * (pi^B * j^C)) * pi^C is zero iff
    j^B * (pi^B * j^C) is, and f_B * f_B = f_B iff
    j^B * (pi^B * j^B) = j^B; both products act on index-chain tables.
    Chains are tested in the order, and with the witnesses, of
    multiplying the f_B out pairwise on L, which the tests keep as the
    oracle, so the reports are the same.
    """
    L = ws.L
    sides = [(B, j_upper(L, B), embed(pi_of_chain(L, B)))
             for B in sorted(L.chain_family("B"), key=len)]
    for B, j, pi in sides:
        if j * (pi * j) != j:
            return ws.report("f_family", "fail",
                             counterexample={"chain": B.labels(), "kind": "not idempotent"})
    total = FormalSum.total(L, L, (j * pi for _, j, pi in sides))
    if total != ws.e or ws.e_squared != ws.e:
        pair = _nonorthogonal_pair(sides)
        if pair is not None:
            return ws.report("f_family", "fail",
                             counterexample={"chains": pair, "kind": "not orthogonal"})
        if total != ws.e:
            return ws.report("f_family", "fail",
                             counterexample={"kind": "sum differs from direct idempotent",
                                             "sum": _sum_as_witness(total)})
    return ws.report("f_family", "pass", counts={"chains": len(sides)})


def _nonorthogonal_pair(sides):
    """The labels of the first chains B before C with f_B * f_C or
    f_C * f_B nonzero, or None; `sides` as `check_f_family` builds them.

    f_B * f_C is zero iff j^B * (pi^B * j^C) is, a product of
    index-chain tables, multiplied out for each pair in turn.  Reached
    only when the certificate fails, to name the witness.
    """
    for (B, j, pi), (C, k, rho) in itertools.combinations(sides, 2):
        if not (j * (pi * k)).is_zero() or not (k * (rho * j)).is_zero():
            return [B.labels(), C.labels()]
    return None


def check_mobius_lemmas(ws: Workspace):
    """Product formula (with its vanishing shortcut) vs the chain-poset oracle."""
    L = ws.L
    count = 0
    limited = False
    for A in L.chain_family("A"):
        fast = mu_chain_infinity(L, A)
        try:
            slow = mu_chain_infinity_oracle(L, A)
        except FeasibilityLimit:
            limited = True
            continue
        count += 1
        if fast != slow:
            return ws.report(
                "mobius_lemmas", "fail",
                counterexample={"chain": A.labels(), "product": fast, "oracle": slow},
                counts={"examined": count},
            )
    note = "some chains skipped by the chain-poset size limit" if limited else None
    return ws.report("mobius_lemmas", "pass", counts={"chains": count}, note=note)


def check_crapo_restriction(ws: Workspace):
    """mu(B, infinity) = 0 on each bottom-to-top chain B with a step that
    is not a complemented interval (Crapo).  The direct walk takes no step
    with mu = 0, so pruning such steps would change e iff a chain flagged
    here had mu(B, infinity) = +-prod mu != 0."""
    L = ws.L
    skipped = 0
    for B in L.chain_family("Z"):
        if not all(map(L.is_complemented_interval, B.members, B.members[1:])):
            skipped += 1
            mu = mu_chain_infinity(L, B)
            if mu != 0:
                return ws.report("crapo", "fail",
                                 counterexample={"chain": B.labels(), "mu": mu})
    return ws.report("crapo", "pass", counts={"skipped_chains": skipped})


def check_dimension(ws: Workspace):
    """Counts supporting the matrix-algebra dimension identity.

    Reports (#chain-image endomorphisms, sum of squared Z-counts, squared
    B-counts, squared A-counts).  Asserts the B-version and the per-length
    equality of A- and B-counts; the Z-version is reported, not asserted.
    """
    if not ws.enumerable:
        return ws.report("dimension", "skipped", note=SKIPPED_ABOVE_GATE)
    L = ws.L
    tot_count = sum(1 for _ in enumerate_join_endomorphisms(L, tot_only=True))
    per_n = [list(c) for c in zip(*(L.chain_counts(kind) for kind in "ABZ"))]
    sum_a = sum(a * a for a, _, _ in per_n)
    sum_b = sum(b * b for _, b, _ in per_n)
    sum_z = sum(z * z for _, _, z in per_n)
    counts = {
        "tot_endomorphisms": tot_count,
        "sum_z_squared": sum_z,
        "sum_b_squared": sum_b,
        "sum_a_squared": sum_a,
        "per_length": {str(n): v for n, v in enumerate(per_n)},
    }
    if any(a != b for a, b, _ in per_n):
        return ws.report("dimension", "fail",
                         counterexample={"per_length": counts["per_length"],
                                         "kind": "A-count differs from B-count"},
                         counts=counts)
    if tot_count != sum_b:
        return ws.report("dimension", "fail",
                         counterexample={"kind": "count differs from sum of squared B-counts"},
                         counts=counts)
    note = None
    if sum_z != tot_count:
        note = "sum of squared Z-counts differs from the endomorphism count (reported, not asserted)"
    return ws.report("dimension", "pass", counts=counts, note=note)


def check_opposite_involution(ws: Workspace):
    """Double opposite is the identity; the sup formula holds for surjections."""
    if not ws.enumerable:
        return ws.report("opposite_involution", "skipped", note=SKIPPED_ABOVE_GATE)
    L = ws.L
    join = L._join
    count = 0
    for table in enumerate_join_endomorphisms(L):
        count += 1
        phi = JoinMap(L, L, table)
        op = opposite_morphism(phi)
        if opposite_morphism(op) != phi:
            return ws.report("opposite_involution", "fail",
                             counterexample={"phi": phi.table_labels()})
        if phi.is_surjective():
            # the join of each fibre, folded in one pass over the table
            sup = [L.bottom] * L.n
            for t, tp in enumerate(table):
                sup[tp] = join[sup[tp]][t]
            for tp in range(L.n):
                if op.values[tp] != sup[tp]:
                    return ws.report(
                        "opposite_involution", "fail",
                        counterexample={"phi": phi.table_labels(),
                                        "at": L.names[tp]},
                    )
    # the index surjections are the surjective maps both constructions use
    pis = 0
    for B in sorted(L.chain_family("B"), key=len):
        op = opposite_morphism(pi_of_chain(L, B))
        if tuple(op.values) != tuple(B.members):
            return ws.report("opposite_involution", "fail",
                             counterexample={"chain": B.labels(),
                                             "kind": "index surjection adjoint mismatch"})
        pis += 1
    return ws.report("opposite_involution", "pass",
                     counts={"endomorphisms": count, "index_surjections": pis})


def check_decomposition(ws: Workspace):
    """Id splits as e + (Id - e) with both parts idempotent and orthogonal.

    In any ring (Id - e)^2 = Id - 2e + e^2 and e(Id - e) = (Id - e)e =
    e - e^2, and e + (Id - e) = Id always holds, so all four equalities
    hold iff e^2 == e: the check reads the workspace's shared e^2.
    """
    if ws.e_squared == ws.e:
        return ws.report("decomposition", "pass")
    return ws.report("decomposition", "fail", counterexample={"e": _sum_as_witness(ws.e)})


def check_ideal_closure(ws: Workspace):
    """Composites of a chain-image endomorphism with anything stay chain-image.

    Each composite is the raw value table `[a[v] for v in p]` or
    `[p[v] for v in a]`, tested with `has_chain_image`.  The image of
    a o p lies inside the image of a, a chain, so only p o a can fail,
    and its image p(image of a) depends on a only through that image.
    The pairs are walked in the order of the enumeration, chain-image map
    first, and a map whose image an earlier one passed with is skipped,
    so each distinct chain image is read through every map once and the
    first failing pair is the witness.
    """
    L = ws.L
    if not ws.enumerable or L.n > 6:
        return ws.report("ideal_closure", "skipped",
                         note="restricted to exhaustively enumerable lattices with <= 6 elements")
    alls = list(enumerate_join_endomorphisms(L))
    tots = [alpha for alpha in alls if has_chain_image(L, alpha)]
    passed = set()
    for alpha in tots:
        image = frozenset(alpha)
        if image in passed:
            continue
        for p in alls:
            if not has_chain_image(L, [p[v] for v in image]):
                return ws.report(
                    "ideal_closure", "fail",
                    counterexample={"alpha": JoinMap(L, L, alpha).table_labels(),
                                    "phi": JoinMap(L, L, p).table_labels()},
                )
        passed.add(image)
    return ws.report("ideal_closure", "pass", counts={"tot": len(tots), "all": len(alls)})


def check_ring_functoriality(ws: Workspace):
    """The shared e and a second direct build, each reduced by
    `Ring.reduce`, agree in Z/m for m = 2, 3, 5 and in the workspace ring
    if it is none of these nor Z.  This catches a rebuild on the same
    lattice, its Moebius rows and outside digits already memoized, that
    disagrees with the first modulo some ring."""
    moduli = (2, 3, 5)
    rings = [(Ring("mod", m), {"modulus": m}) for m in moduli]
    if ws.ring.kind != "int" and ws.ring.modulus not in moduli:
        rings.append((ws.ring, {"ring": str(ws.ring)}))
    rebuilt = idempotent_direct(ws.L)
    for ring, witness in rings:
        if ring.reduce(ws.e.terms) != ring.reduce(rebuilt.terms):
            return ws.report("ring_functoriality", "fail", counterexample=witness)
    return ws.report("ring_functoriality", "pass", counts={"moduli": list(moduli)})


CHECKS = {
    "idempotent": check_idempotent,
    "identity_on_tot": check_identity_on_tot,
    "central": check_central,
    "formula_equivalence": check_formula_equivalence,
    "f_family": check_f_family,
    "mobius_lemmas": check_mobius_lemmas,
    "crapo": check_crapo_restriction,
    "dimension": check_dimension,
    "opposite_involution": check_opposite_involution,
    "decomposition": check_decomposition,
    "ideal_closure": check_ideal_closure,
    "ring_functoriality": check_ring_functoriality,
}


def run_suite(corpus=DEFAULT_CORPUS, ring: Ring = Ring("int"), checks=None, seed=None,
              sample_count=500):
    """Run the selected checks over each corpus entry, in order.

    An entry is a lattice file or a generator descriptor, as `load_lattice`
    takes it; each report names the lattice by the entry as given.  Each
    entry gets one Workspace, shared by its checks; a check's elapsed time
    includes whatever shared value it computes first.

    Returns the list of CheckReports; callers decide what a failure means
    (the CLI maps any non-pass to a nonzero exit status).  Raises
    UnknownCheck, before loading any lattice, if a name is not in CHECKS;
    an empty name is shown as ''.
    """
    selected = list(checks) if checks else list(CHECKS)
    unknown = [c for c in selected if c not in CHECKS]
    if unknown:
        raise UnknownCheck(
            f"unknown checks: {', '.join(c or repr(c) for c in unknown)}\n"
            f"available: {', '.join(sorted(CHECKS))}"
        )
    reports = []
    for descriptor in corpus:
        ws = Workspace(load_lattice(descriptor), ring, descriptor, seed, sample_count)
        for name in selected:
            t0 = time.perf_counter()
            report = CHECKS[name](ws)
            report.elapsed = time.perf_counter() - t0
            reports.append(report)
    return reports
