"""The benchmark's workloads: the totlat CLI calls each one makes.

Each call is what a user would type after `totlat`.  `check` names the
output check in outputs.py that the call's standard output must pass, and
`params` carries what that check needs to know about the call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# The verification checks in the order `totlat verify` runs them.
ALL_CHECKS = (
    "idempotent", "identity_on_tot", "central", "formula_equivalence",
    "f_family", "mobius_lemmas", "crapo", "dimension", "opposite_involution",
    "decomposition", "ideal_closure", "ring_functoriality",
)

# totlat's default corpus, the lattices `totlat verify` checks with no input.
DEFAULT_CORPUS = (
    "chain:0", "chain:1", "chain:2", "chain:3", "chain:4",
    "boolean:1", "boolean:2", "boolean:3", "diamond:3", "pentagon",
    "divisor:12", "partition:3", "product:boolean:2,chain:1",
)

# opposite_involution is left out of sweep: on divisor:60 it alone spends
# ~37 s rebuilding Lattice.opposite(), a cost corpus already measures.
SWEEP_CHECKS = tuple(c for c in ALL_CHECKS if c != "opposite_involution")
SWEEP_LATTICES = ("divisor:60", "diamond:5", "partition:4")
CONSTRUCT_IDEMPOTENT = ("boolean:6", "partition:5", "product:boolean:3,chain:3")
CONSTRUCT_INFO = ("boolean:5", "partition:5")
FAMILY_LATTICES = ("divisor:240", "product:boolean:3,chain:2")

# Centrality on lattices over the feasibility gate samples this many maps
# (the CLI's default --sample-count).
SAMPLE_COUNT = 500

REFERENCE_LATTICES = DEFAULT_CORPUS + SWEEP_LATTICES + CONSTRUCT_IDEMPOTENT + (
    "boolean:5",) + FAMILY_LATTICES

WORKLOADS = ("corpus", "sweep", "construct", "family")


@dataclass(frozen=True)
class Call:
    argv: tuple
    check: str  # "verify" | "idempotent" | "info"
    params: dict = field(default_factory=dict, compare=False)

    @property
    def label(self):
        return "totlat " + " ".join(self.argv)


def calls(workload, seed):
    """The CLI calls of one round of a workload, for a benchmark seed."""
    if workload == "corpus":
        return [Call(("verify", "--format", "json"), "verify",
                     {"lattices": DEFAULT_CORPUS, "checks": ALL_CHECKS, "seed": None})]
    if workload == "sweep":
        return [
            Call(("verify", desc, "--checks", ",".join(SWEEP_CHECKS),
                  "--format", "json", "--seed", str(seed)), "verify",
                 {"lattices": (desc,), "checks": SWEEP_CHECKS, "seed": seed})
            for desc in SWEEP_LATTICES
        ]
    if workload == "construct":
        return [
            Call(("idempotent", desc, "--format", "json"), "idempotent",
                 {"lattice": desc, "ring": "int", "seed": seed})
            for desc in CONSTRUCT_IDEMPOTENT
        ] + [Call(("info", desc), "info", {"lattice": desc}) for desc in CONSTRUCT_INFO]
    if workload == "family":
        return [
            Call(("idempotent", desc, "--method", "original", "--ring", "rat",
                  "--format", "json"), "idempotent",
                 {"lattice": desc, "ring": "rat", "seed": seed})
            for desc in FAMILY_LATTICES
        ]
    raise ValueError(f"unknown workload {workload!r}")
