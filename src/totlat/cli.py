"""Command-line front end.

Subcommands:

  info        structural summary of a lattice (size, ends, chain counts)
  idempotent  compute the total-order idempotent by either construction
  mobius      Moebius values of element pairs or bottom-rooted chains
  verify      run the exact verification suite over one lattice, or over the
              default corpus when no INPUT is given

Every INPUT, that of `verify` included, is either a path to a lattice text
file or a generator descriptor ("boolean:3", "divisor:12",
"product:boolean:2,chain:1", ...).

A lattice has at most 1,024 elements; `divisor:M` takes M <= 10^12.

Two constants bound the exhaustive work: `checks.MAX_ASSIGNMENTS` (10^7
candidate assignments) gates the endomorphism sweeps of `verify`, and
`algebra.CHAIN_POSET_LIMIT` (2000 chains) the chain-poset Moebius oracle,
in `verify` and in `mobius --chain`.

Lattice files are read, and all output is written, in UTF-8 whatever the
locale's encoding.

Exit status: 0 success, 1 verification failure, 2 usage or parse error,
141 when the reader closes standard output before all output is written
(128 + SIGPIPE, the status a shell gives a program stopped by that
signal); no traceback or message is printed then.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .algebra import (
    Ring,
    idempotent_direct,
    idempotent_original,
    mu_chain_infinity,
    mu_chain_infinity_oracle,
)
from .checks import DEFAULT_CORPUS, run_suite
from .errors import FeasibilityLimit, TotlatError
from .posets import Chain
from .serialize import formal_sum_json_chunks, formal_sum_to_text, load_lattice


def cmd_info(args):
    L = load_lattice(args.input)
    print(f"elements: {L.n}")
    print(f"bottom: {L.names[L.bottom]}")
    print(f"top: {L.names[L.top]}")
    print(f"max chain length: {L.max_chain_length}")
    for kind, title in (("A", "bottom-rooted"), ("B", "top-ended"), ("Z", "bottom-to-top")):
        print(f"{title} chain counts by length: {L.chain_counts(kind)}")
    print(f"complemented: {L.is_complemented_interval(L.bottom, L.top)}")
    print(f"fingerprint: {L.fingerprint()}")
    return 0


def cmd_idempotent(args):
    L = load_lattice(args.input)
    ring = Ring.parse(args.ring)
    build = idempotent_direct if args.method == "direct" else idempotent_original
    e = build(L).map_ring(ring)
    if args.format == "json":
        # written term by term, so the document is never held whole
        sys.stdout.writelines(formal_sum_json_chunks(e))
        sys.stdout.write("\n")
    else:
        print(formal_sum_to_text(e))
    return 0


def cmd_mobius(args):
    if args.chain is not None and (args.x is not None or args.y is not None):
        raise TotlatError("mobius takes either x y or --chain, not both")
    L = load_lattice(args.input)
    if args.chain is not None:
        labels = [s.strip() for s in args.chain.split(",")]
        members = tuple(L.index_of(s) for s in labels)
        A = Chain(members, L)
        value = mu_chain_infinity(L, A)
        print(f"mu(chain, infinity) = {value}")
        try:
            oracle = mu_chain_infinity_oracle(L, A)
            print(f"oracle = {oracle}")
        except FeasibilityLimit:
            print("oracle = (skipped: chain poset above the size limit)")
        return 0
    if args.x is None or args.y is None:
        raise TotlatError("mobius needs either x y or --chain")
    x = L.index_of(args.x)
    y = L.index_of(args.y)
    print(L.mobius(x, y))
    return 0


def cmd_verify(args):
    # an empty INPUT or --checks is refused below, not read as omitted
    corpus = [args.input] if args.input is not None else list(DEFAULT_CORPUS)
    ring = Ring.parse(args.ring)
    checks = args.checks.split(",") if args.checks is not None else None
    reports = run_suite(
        corpus=corpus, ring=ring, checks=checks,
        seed=args.seed, sample_count=args.sample_count,
    )
    failed = False
    for r in reports:
        if r.status == "fail":
            failed = True
        if args.format == "json":
            print(json.dumps(r.to_dict(), sort_keys=True, ensure_ascii=False))
        else:
            extra = f" ({r.note})" if r.note else ""
            print(f"[{r.status:7s}] {r.name:22s} {r.lattice}{extra}  [{r.elapsed:.2f}s]")
    return 1 if failed else 0


def integer(text):
    """An integer written in ASCII digits with an optional leading '-'.

    int() would also take "1_0", "+5", " 3" and non-ASCII digits.
    """
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise argparse.ArgumentTypeError(f"must be an integer, not {text!r}")
    return int(text)


def positive_int(text):
    value = integer(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {value}")
    return value


def build_parser():
    parser = argparse.ArgumentParser(
        prog="totlat",
        description="Exact lattice endomorphism-algebra idempotent toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser("info", help="structural summary of a lattice")
    p_info.add_argument("input", help="lattice file or generator descriptor")
    p_info.set_defaults(func=cmd_info)

    p_idem = sub.add_parser("idempotent", help="compute the total-order idempotent")
    p_idem.add_argument("input")
    p_idem.add_argument("--method", choices=("direct", "original"), default="direct")
    p_idem.add_argument("--ring", default="int", help="int | mod:m | rat")
    p_idem.add_argument("--format", choices=("text", "json"), default="text")
    p_idem.set_defaults(func=cmd_idempotent)

    p_mob = sub.add_parser("mobius", help="Moebius values")
    p_mob.add_argument("input")
    p_mob.add_argument("x", nargs="?")
    p_mob.add_argument("y", nargs="?")
    p_mob.add_argument("--chain", help="comma-separated labels of a bottom-rooted chain")
    p_mob.set_defaults(func=cmd_mobius)

    p_ver = sub.add_parser("verify", help="run the verification suite")
    p_ver.add_argument("input", nargs="?",
                       help="lattice file or generator descriptor; "
                            "omit to run the default corpus")
    p_ver.add_argument("--checks", help="comma-separated check names")
    p_ver.add_argument("--ring", default="int",
                       help="int | mod:m | rat; identities are decided over the integers, which "
                            "implies the ring; it sets the term counts and ring_functoriality's "
                            "extra ring")
    p_ver.add_argument("--seed", type=integer, default=None)
    p_ver.add_argument("--sample-count", type=positive_int, default=500)
    p_ver.add_argument("--format", choices=("text", "json"), default="text")
    p_ver.set_defaults(func=cmd_verify)

    return parser


def main(argv=None):
    # lattice files are read as UTF-8, so their labels are written back in
    # UTF-8 whatever the locale's encoding
    for stream in (sys.stdout, sys.stderr):
        if hasattr(stream, "reconfigure"):
            stream.reconfigure(encoding="utf-8")
    parser = build_parser()
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit:
            # --help and usage errors exit from inside argparse; flush their
            # text here so that a closed pipe is handled below
            sys.stdout.flush()
            raise
        status = args.func(args)
        sys.stdout.flush()
        return status
    except TotlatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader went away; point stdout at devnull so that the flush
        # at interpreter exit does not raise a second time
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141


if __name__ == "__main__":
    sys.exit(main())
