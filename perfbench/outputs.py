"""Checks of totlat's outputs against the reference computations.

Each check takes the standard output of one CLI call and raises OutputError
on the first disagreement with what reference.py computes for the same
lattice.  References are cached per lattice in a `References` object, so a
lattice that several calls use is computed once.
"""

from __future__ import annotations

import json
import random
import re
from functools import cached_property

import reference
from workloads import SAMPLE_COUNT

# totlat's documented feasibility gates: exhaustive endomorphism sweeps need
# at most 7 join-irreducibles and at most 1e7 candidate assignments, and
# ideal_closure runs only up to 6 elements.
MAX_IRREDUCIBLES = 7
MAX_ASSIGNMENTS = 10**7
IDEAL_CLOSURE_MAX_ELEMENTS = 6
ENUMERATING_CHECKS = ("identity_on_tot", "dimension", "opposite_involution",
                      "ideal_closure")

# retractions sampled per lattice for the identity e∘α = α = α∘e
IDENTITY_SAMPLES = 3


class OutputError(Exception):
    """An output disagrees with the reference computation."""


def _require(cond, message):
    if not cond:
        raise OutputError(message)


class References:
    """Reference figures of each lattice, computed once on first use."""

    def __init__(self):
        self._cache = {}

    def get(self, desc):
        if desc not in self._cache:
            self._cache[desc] = _LatticeRef(desc)
        return self._cache[desc]


class _LatticeRef:
    def __init__(self, desc):
        self.L = reference.lattice(desc)

    @cached_property
    def chain_counts(self):
        return self.L.chain_counts()

    @cached_property
    def idempotent(self):
        return self.L.idempotent()

    @cached_property
    def z_chains(self):
        return self.L.chains_between(self.L.bottom, self.L.top)

    @cached_property
    def feasible(self):
        irr = len(self.L.join_irreducibles())
        return irr <= MAX_IRREDUCIBLES and self.L.n ** irr <= MAX_ASSIGNMENTS

    @cached_property
    def endomorphisms(self):
        """(all join-endomorphisms, those with chain image), as counts."""
        endos = self.L.join_endomorphisms()
        return len(endos), sum(1 for f in endos if self.L.is_chain(set(f)))

    @cached_property
    def non_complemented_chains(self):
        L = self.L
        return sum(1 for B in self.z_chains
                   if any(not L.is_complemented(lo, hi) for lo, hi in zip(B, B[1:])))


# -- totlat verify --format json -------------------------------------------------


def _expected_status(ref, check):
    if check in ENUMERATING_CHECKS and not ref.feasible:
        return "skipped"
    if check == "ideal_closure" and ref.L.n > IDEAL_CLOSURE_MAX_ELEMENTS:
        return "skipped"
    return "pass"


def _expected_counts(ref, check):
    """The counts a passing report carries, from the reference figures."""
    a, b, z = ref.chain_counts
    if check in ("idempotent", "formula_equivalence"):
        return {"terms": len(ref.idempotent)}
    if check == "identity_on_tot":
        return {"tot_endomorphisms": ref.endomorphisms[1]}
    if check == "central":
        if ref.feasible:
            return {"endomorphisms": ref.endomorphisms[0], "mode": "exhaustive"}
        return {"endomorphisms": SAMPLE_COUNT, "mode": "sampled"}
    if check == "f_family":
        return {"chains": sum(b)}
    if check == "mobius_lemmas":
        return {"chains": sum(a)}
    if check == "crapo":
        return {"skipped_chains": ref.non_complemented_chains}
    if check == "dimension":
        return {
            "tot_endomorphisms": ref.endomorphisms[1],
            "sum_z_squared": sum(v * v for v in z),
            "sum_b_squared": sum(v * v for v in b),
            "sum_a_squared": sum(v * v for v in a),
            "per_length": {str(n): [a[n], b[n], z[n]] for n in range(len(z))},
        }
    if check == "opposite_involution":
        return {"endomorphisms": ref.endomorphisms[0], "index_surjections": sum(b)}
    if check == "ideal_closure":
        return {"tot": ref.endomorphisms[1], "all": ref.endomorphisms[0]}
    if check == "ring_functoriality":
        return {"moduli": [2, 3, 5]}
    return None  # decomposition reports no counts


def check_verify(text, params, refs):
    """One report per (lattice, check), in order, each passing or skipped as
    the feasibility gates predict, with counts equal to the reference."""
    lines = text.splitlines()
    expected = [(d, c) for d in params["lattices"] for c in params["checks"]]
    _require(len(lines) == len(expected),
             f"{len(lines)} reports, expected {len(expected)}")
    for line, (desc, check) in zip(lines, expected):
        report = json.loads(line)
        where = f"{check} on {desc}"
        _require(line == json.dumps(report, sort_keys=True, ensure_ascii=False),
                 f"{where}: report is not canonical JSON")
        _require((report.get("lattice"), report.get("check")) == (desc, check),
                 f"expected {where}, got {report.get('check')} on {report.get('lattice')}")
        ref = refs.get(desc)
        status = _expected_status(ref, check)
        _require(report["status"] == status,
                 f"{where}: status {report['status']}, expected {status}")
        _require("counterexample" not in report, f"{where}: carries a counterexample")
        if status == "skipped":
            _require("note" in report and "counts" not in report,
                     f"{where}: a skip must carry a note and no counts")
            continue
        counts = _expected_counts(ref, check)
        _require(report.get("counts") == counts,
                 f"{where}: counts {report.get('counts')}, expected {counts}")
        sampled = check == "central" and not ref.feasible
        if sampled:
            used_seed = 0 if params["seed"] is None else params["seed"]
            _require(report.get("seed") == used_seed,
                     f"{where}: seed {report.get('seed')}, expected {used_seed}")
        else:
            _require("seed" not in report, f"{where}: unexpected seed")
        if check == "dimension":
            has_note = counts["sum_z_squared"] != counts["tot_endomorphisms"]
        else:
            has_note = sampled
        _require(("note" in report) == has_note,
                 f"{where}: note {'missing' if has_note else 'unexpected'}")


# -- totlat idempotent --format json ----------------------------------------------


_FINGERPRINT = re.compile(r"[0-9a-f]{16}")


def _coefficient(value, ring):
    if ring == "int":
        _require(isinstance(value, int) and not isinstance(value, bool),
                 f"coefficient {value!r} is not an integer")
        return value
    _require(isinstance(value, str) and re.fullmatch(r"-?[0-9]+", value),
             f"rational coefficient {value!r} is not an integer")
    return int(value)


def parse_idempotent(text, ref, ring):
    """The JSON document as {retraction table: coefficient}, after checking
    its signature; raises OutputError on a malformed document."""
    doc = json.loads(text)
    _require(doc.get("ring") == ring, f"ring {doc.get('ring')!r}, expected {ring!r}")
    _require(_FINGERPRINT.fullmatch(str(doc.get("source"))) is not None,
             "source fingerprint malformed")
    _require(doc.get("target") == doc["source"], "source and target differ")
    terms = {}
    for term in doc["terms"]:
        try:
            table = ref.L.table_from_labels(term["table"])
        except (KeyError, ValueError) as exc:
            raise OutputError(f"term table is not a map of the lattice: {exc}") from None
        _require(table not in terms, "a table occurs twice")
        terms[table] = _coefficient(term["coeff"], ring)
    return doc, terms


def check_idempotent(text, params, refs):
    """Every term is the retraction onto a distinct bottom-to-top chain, the
    terms and coefficients equal the direct construction computed by the
    reference, and e∘α = α = α∘e on a seeded sample of retractions."""
    desc = params["lattice"]
    ref = refs.get(desc)
    L = ref.L
    doc, terms = parse_idempotent(text, ref, params["ring"])
    for table in terms:
        image = sorted(set(table), key=lambda x: len(L.below[x]))
        _require(L.is_chain(image) and image[0] == L.bottom and image[-1] == L.top
                 and L.retraction(image) == table,
                 f"a term of {desc} is not the retraction onto a bottom-to-top chain")
    if desc.startswith("boolean:"):
        # closed form: one term per ordered set partition, sign (-1)^(steps+N)
        big_n = int(desc.split(":")[1])
        _require(len(terms) == sum(reference.boolean_chain_counts(big_n)[2]),
                 f"{desc}: {len(terms)} terms, expected one per ordered set partition")
        for table, c in terms.items():
            steps = len(set(table)) - 1
            _require(c == (-1) ** (steps + big_n),
                     f"{desc}: coefficient {c} on a chain of {steps} steps")
    expected = ref.idempotent
    _require(len(terms) == len(expected), f"{desc}: {len(terms)} terms, expected {len(expected)}")
    for table, c in expected.items():
        _require(terms.get(table) == c,
                 f"{desc}: coefficient {terms.get(table)} where the direct construction has {c}")
    rng = random.Random(f"{params['seed']}:{desc}")
    for chain in rng.sample(ref.z_chains, min(IDENTITY_SAMPLES, len(ref.z_chains))):
        alpha = L.retraction(chain)
        for side in ("left", "right"):
            _require(reference.act(terms, alpha, side) == {alpha: 1},
                     f"{desc}: e does not fix a retraction on the {side}")
    return doc["source"]


# -- totlat info ---------------------------------------------------------------------


def _info_fields(text):
    fields = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        _require(sep, f"info line {line!r} is not 'key: value'")
        fields[key] = value
    return fields


def check_info(text, params, refs):
    """Element count and chain counts against their closed forms (boolean),
    or the reference walk of the order relation (others)."""
    desc = params["lattice"]
    ref = refs.get(desc)
    L = ref.L
    f = _info_fields(text)
    head, _, rest = desc.partition(":")
    if head == "boolean":
        counts = reference.boolean_chain_counts(int(rest))
    else:
        counts = ref.chain_counts
    expected = {
        "elements": str(reference.element_count(desc)),
        "bottom": L.labels[L.bottom],
        "top": L.labels[L.top],
        "max chain length": str(len(counts[2]) - 1),
        "bottom-rooted chain counts by length": str(counts[0]),
        "top-ended chain counts by length": str(counts[1]),
        "bottom-to-top chain counts by length": str(counts[2]),
        "complemented": str(L.is_complemented(L.bottom, L.top)),
    }
    for key, value in expected.items():
        _require(f.get(key) == value, f"{desc} {key}: {f.get(key)!r}, expected {value!r}")
    _require(_FINGERPRINT.fullmatch(f.get("fingerprint", "")) is not None,
             f"{desc}: fingerprint malformed")
    _require(set(f) == set(expected) | {"fingerprint"}, f"{desc}: unexpected info fields")
    return f["fingerprint"]


CHECKERS = {"verify": check_verify, "idempotent": check_idempotent, "info": check_info}


def check_round(calls, texts, refs):
    """Check one round's outputs; returns a list of (call, error or None).

    Besides each output's own check, a lattice that appears in several calls
    of the round must carry the same fingerprint in each.
    """
    results = []
    fingerprints = {}
    for call, text in zip(calls, texts):
        try:
            fp = CHECKERS[call.check](text, call.params, refs)
            if fp is not None:
                desc = call.params["lattice"]
                _require(fingerprints.setdefault(desc, fp) == fp,
                         f"{desc}: fingerprint differs between calls")
            results.append((call, None))
        except (OutputError, ValueError, KeyError, TypeError, AttributeError, IndexError) as exc:
            results.append((call, f"{type(exc).__name__}: {exc}"))
    return results
