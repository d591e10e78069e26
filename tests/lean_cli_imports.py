"""A command-line call loads neither OpenSSL nor inspect nor array, nor
fractions over the integers.

    PYTHONPATH=src python tests/lean_cli_imports.py

Runs four `totlat.cli.main` calls over the integers in this fresh
interpreter and exits 1 if any of `hashlib`, `_hashlib` (OpenSSL),
`inspect`, `dataclasses`, `array`, `fractions` or `decimal` was imported
on the way; then one call over the rationals, after which only the first
five may not have been imported.  Only after that does it load hashlib,
to check that `Lattice.fingerprint()` is the first 16 hex digits of
hashlib's SHA-256 of the canonical cover text on a few lattices and their
opposites.  Needs nothing outside the standard library, so it runs on
every supported Python whether or not pytest is installed.
"""

import contextlib
import io
import sys

from totlat.cli import main

INT_CALLS = (
    ["info", "pentagon"],
    ["idempotent", "pentagon", "--format", "json"],
    ["verify", "pentagon", "--format", "json"],
    ["mobius", "boolean:2", "--chain", "0,a"],
)
RAT_CALLS = (
    ["idempotent", "divisor:12", "--method", "original", "--ring", "rat", "--format", "json"],
)
HEAVY = ("hashlib", "_hashlib", "inspect", "dataclasses", "array")
RATIONAL = ("fractions", "decimal")
FINGERPRINTED = ("pentagon", "divisor:60", "partition:5", "boolean:6",
                 "product:boolean:2,chain:1")


def run_calls(calls, unloaded):
    for argv in calls:
        with contextlib.redirect_stdout(io.StringIO()):
            status = main(argv)
        if status != 0:
            sys.exit(f"{' '.join(argv)}: exit status {status}")
    loaded = [name for name in unloaded if name in sys.modules]
    if loaded:
        sys.exit(f"a command-line call loaded {', '.join(loaded)}")


def check_fingerprints():
    import hashlib

    from totlat.lattices import generate

    for spec in FINGERPRINTED:
        for L in (generate(spec), generate(spec).opposite()):
            text = ";".join(L.names) + "|" + ";".join(
                f"{a}<{b}" for a, b in sorted(L.cover_labels()))
            expected = hashlib.sha256(text.encode()).hexdigest()[:16]
            if L.fingerprint() != expected:
                sys.exit(f"{spec}: fingerprint {L.fingerprint()}, hashlib gives {expected}")


if __name__ == "__main__":
    run_calls(INT_CALLS, HEAVY + RATIONAL)
    run_calls(RAT_CALLS, HEAVY)
    check_fingerprints()
    print(f"{len(INT_CALLS)} calls over int loaded none of {', '.join(HEAVY + RATIONAL)}, "
          f"{len(RAT_CALLS)} over rat none of {', '.join(HEAVY)}; "
          f"fingerprints match hashlib on {len(FINGERPRINTED)} lattices and their opposites")
