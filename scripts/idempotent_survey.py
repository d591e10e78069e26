#!/usr/bin/env python3
"""Survey the idempotent across the corpus: term counts, chain counts, and
the size of the family-construction sum before cancellation."""

import math

from totlat.algebra import idempotent_direct
from totlat.checks import DEFAULT_CORPUS
from totlat.lattices import generate


def main():
    header = f"{'lattice':>28s} {'|T|':>4s} {'N':>3s} {'Z-chains':>9s} {'terms':>6s} {'raw family terms':>17s}"
    print(header)
    print("-" * len(header))
    for spec in DEFAULT_CORPUS:
        L = generate(spec)
        e = idempotent_direct(L)
        z_count = len(L.chain_family("Z"))
        # one raw term per pick tuple: the product of the step-interval sizes
        raw = sum(
            math.prod(
                len(L.interval_elements(lo, hi))
                for lo, hi in zip(B.members, B.members[1:])
            )
            for B in L.chain_family("B")
        )
        print(
            f"{spec:>28s} {L.n:>4d} {L.max_chain_length:>3d} "
            f"{z_count:>9d} {len(e.terms):>6d} {raw:>17d}"
        )


if __name__ == "__main__":
    main()
