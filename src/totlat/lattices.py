"""Finite lattices: a join table, chain families, generators.

A Lattice is a Poset, and reads its order off the same up-set masks `up`
and their transpose `down`.  The join of x and y is the element whose up-set
is `up[x] & up[y]`, kept in a table; the meet is the element whose
down-set is `down[x] & down[y]`, looked up when asked for in the dict from
down-set mask to element, which names the largest element of any
principal down-set given as a mask.  The elements of an interval [x, y]
are the bits of `up[x] & down[y]` (`interval_elements`).  The lattice
keeps each element's comparability mask `up[x] | down[x]`, against which
a set of elements is tested for being a chain.  The join table and the
lattice test cost n^2 lookups, so every generator and lattice file is
capped at MAX_ELEMENTS elements, the size of boolean:10.  Chain families:

  kind "A": chains whose least member is the bottom element,
  kind "B": chains whose greatest member is the top element,
  kind "Z": chains containing both ends.

A chain of n+1 members has length n.
`chain_counts(kind)` counts each family by length without building a
chain, by a dynamic program down the strict order.

A map into a lattice is stored as a value table, one target index per
source element, of the type the lattice's `table_type` names: `bytes` on
at most 256 elements, where every index fits in a byte, and a tuple of
ints above.

The digit codec writes such a table as one int, with a digit per
element: digit t is the bytes at `width * t` of the int's
`to_bytes(width * n, sys.byteorder)`, with width 1 where tables are
`bytes` and 2 above.  Ints of this form add digit by digit as long as no
digit outgrows its width, and `digit_table` reads the digits back as a
table, by `to_bytes` on at most 256 elements and `memoryview.cast("H")`
above, with no step per element in Python.  `indicator` gives the 0/1
table of a mask and `digits` its int.  These three methods are the only
code that knows the layout.

Each Lattice computes its derived structure once: the join table, the
comparability masks and the strict upper sets on construction, each chain
family, the chain counts (and with them `max_chain_length`), the outside
digits off which `morphisms` reads chain retractions, the opposite
lattice, and the compiled assignment kernels and down-set indicators of
`morphisms` on first use.
`Poset.chains()` does not share this code; it stays the slow oracle that
the chain families and their counts are tested against.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys

from .errors import EmptyLattice, NotALattice, NotComparable, UnsupportedSpec
from .posets import Chain, Poset, bit_indices

PARTITION_HARD_CAP = 6
# the most elements a generated or loaded lattice may have: boolean:10
MAX_ELEMENTS = 1024
# the characters "0" and "1" to the bytes 0 and 1
_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")
# the largest M that divisor:M accepts; trial division runs up to sqrt(M)
DIVISOR_HARD_CAP = 10**12


class Lattice(Poset):
    """A poset in which every pair has a unique join and meet.

    Built as a Poset is, from labels and up-set masks, or by
    `Lattice.from_covers`.  Instances are immutable and cache per
    instance: the join table, the comparability mask and the strict upper
    set of each element, the element of each principal down-set mask,
    every chain family (one depth-first enumeration per kind), the chain
    counts, the outside digits of each element, the opposite lattice,
    whose own opposite is this instance, the enumerator and tester that
    `morphisms` compiles for it, and the down-set indicators off which
    `morphisms` reads adjoints.
    """

    def __init__(self, names, up):
        super().__init__(names, up)
        n = self.n
        if n == 0:
            raise EmptyLattice("a lattice needs at least one element")
        up, down = self.up, self.down
        # the join of x and y is the element whose up-set is up[x] & up[y],
        # the meet the element whose down-set is down[x] & down[y]
        by_up = {m: z for z, m in enumerate(up)}
        by_down = {m: z for z, m in enumerate(down)}
        self._join = []
        for x in range(n):
            joins = [by_up.get(up[x] & m) for m in up]
            meets = [down[x] & m in by_down for m in down]
            if None in joins or not all(meets):
                # rows before x are complete, so the first gap has y >= x
                y = next(y for y in range(n) if joins[y] is None or not meets[y])
                raise NotALattice(self.names[x], self.names[y],
                                  "join" if joins[y] is None else "meet")
            self._join.append(joins)
        full = (1 << n) - 1
        self.bottom = by_up[full]
        self.top = by_down[full]
        self._above = tuple(
            tuple(bit_indices(up[x] & ~(1 << x))) for x in range(n)
        )
        # bit y of _comparable[x] is set iff x <= y or y <= x; a set of
        # elements is a chain iff its mask lies inside each member's
        self._comparable = tuple(u | d for u, d in zip(up, down))
        self._by_down = by_down
        self.table_type = bytes if n <= 256 else tuple
        self._families = {}
        self._counts = None
        self._outside = None
        self._opposite = None
        self._kernels = {}
        self._indicators = None

    # -- basic structure --------------------------------------------------

    def join(self, x, y):
        return self._join[x][y]

    def meet(self, x, y):
        return self._by_down[self.down[x] & self.down[y]]

    def join_all(self, subset):
        """Join of an arbitrary subset; the empty join is the bottom element."""
        acc = self.bottom
        for x in subset:
            acc = self._join[acc][x]
        return acc

    def opposite(self):
        """The order-reversed lattice; join and meet swap, so do the ends.

        Built once, as `dual()`; `L.opposite().opposite() is L`.
        """
        if self._opposite is None:
            op = self.dual()
            op._opposite = self
            self._opposite = op
        return self._opposite

    def join_irreducibles(self):
        """Elements that are not the join of their strict lower set."""
        return [
            x
            for x in range(self.n)
            if self.join_all(bit_indices(self.down[x] & ~(1 << x))) != x
        ]

    # -- chains -----------------------------------------------------------

    def chain_family(self, kind):
        """Nonempty chains filtered by which ends they must contain.

        Lexicographic on the member indices, as `Poset.chains()` orders
        them.  Returns a fresh list.
        """
        if kind not in ("A", "B", "Z"):
            raise ValueError(f"unknown chain family kind {kind!r}")
        family = self._families.get(kind)
        if family is None:
            family = self._families[kind] = self._enumerate_family(kind)
        return list(family)

    def _enumerate_family(self, kind):
        """Pre-order walk up the strict order, smaller indices first."""
        roots = range(self.n) if kind == "B" else (self.bottom,)
        to_top = kind != "A"
        out = []
        stack = [(r,) for r in reversed(roots)]
        while stack:
            members = stack.pop()
            last = members[-1]
            if not to_top or last == self.top:
                out.append(Chain(members, self))
            stack.extend(members + (y,) for y in reversed(self._above[last]))
        return tuple(out)

    @property
    def max_chain_length(self):
        """The length of the longest chain: A's counts run over 0..it."""
        return len(self.chain_counts("A")) - 1

    def chain_counts(self, kind):
        """The number of chains of a family, by length 0..max_chain_length.

        The chains of `chain_family(kind)` counted by length, but no chain
        is built: `from_x[x][k]` counts the chains x < ... of k steps
        and `to_top[x][k]` those that end at the top, each the sum of the
        same rows of the elements above x, shifted one step.  A's counts
        are the bottom's `from_x`, Z's its `to_top`, B's the column sums of
        every `to_top`.  The work is the number of strict pairs times the
        chain length, so on a long chain it grows as the cube.
        """
        if kind not in ("A", "B", "Z"):
            raise ValueError(f"unknown chain family kind {kind!r}")
        if self._counts is None:
            above = self._above
            from_x, to_top = [None] * self.n, [None] * self.n
            # an element's strict upper set is strictly smaller than that of
            # anything below it, so sorting by its size reads a linear
            # extension from the top down: the elements above x come first
            for x in sorted(range(self.n), key=lambda v: len(above[v])):
                steps = max((len(from_x[y]) for y in above[x]), default=0)
                f, t = [1] + [0] * steps, [int(x == self.top)] + [0] * steps
                for y in above[x]:
                    for k, c in enumerate(from_x[y], 1):
                        f[k] += c
                    for k, c in enumerate(to_top[y], 1):
                        t[k] += c
                from_x[x], to_top[x] = f, t
            self._counts = {
                "A": from_x[self.bottom],
                "B": [sum(col) for col in itertools.zip_longest(*to_top, fillvalue=0)],
                "Z": to_top[self.bottom],
            }
        return list(self._counts[kind])

    # -- the digit codec ---------------------------------------------------

    def indicator(self, mask):
        """The 0/1 table of a mask as bytes: byte t is bit t of `mask`."""
        # bit t of the mask is character t of the reversed binary text
        return format(mask, f"0{self.n}b")[::-1].encode().translate(_BIT_BYTES)

    def digits(self, mask):
        """The digit int of a mask: digit t is bit t of `mask`."""
        width = 1 if self.table_type is bytes else 2
        # the byte of a digit that holds the values below 256
        low = 0 if sys.byteorder == "little" else width - 1
        slots = bytearray(width * self.n)
        slots[low::width] = self.indicator(mask)
        return int.from_bytes(slots, sys.byteorder)

    def digit_table(self, total):
        """The value table, of `table_type`, whose entry t is digit t of `total`."""
        if self.table_type is bytes:
            return total.to_bytes(self.n, sys.byteorder)
        return tuple(memoryview(total.to_bytes(2 * self.n, sys.byteorder)).cast("H"))

    def outside_digits(self):
        """Per element b, the digit int of the elements not <= b.

        Over the members of a chain that ends at the top, the sum of these
        ints holds at t the number of members whose down-set misses t,
        which is the index of the least member above t.  No digit carries:
        the top misses no t, so the count is below the number of members,
        which is at most n <= MAX_ELEMENTS < 2**16.
        """
        if self._outside is None:
            full = (1 << self.n) - 1
            self._outside = tuple(self.digits(full & ~d) for d in self.down)
        return self._outside

    def interval_elements(self, x, y):
        """The elements z with x <= z <= y, ascending; empty unless x <= y."""
        return list(bit_indices(self.up[x] & self.down[y]))

    def is_complemented_interval(self, x, y):
        """True iff every z in [x, y] has a complement w: z v w = y, z ^ w = x."""
        if not self.leq(x, y):
            raise NotComparable(f"{self.names[x]} is not <= {self.names[y]}")
        carrier = self.interval_elements(x, y)
        return all(
            any(self.join(z, w) == y and self.meet(z, w) == x for w in carrier)
            for z in carrier
        )

    def fingerprint(self):
        """Stable hash of the canonical cover list, for serialized documents.

        The first 16 hex digits of the SHA-256 of the canonical cover text:
        the labels joined by ";", a "|", then the sorted cover pairs as
        "a<b" joined by ";", in UTF-8.  The digest comes from the
        interpreter's built-in SHA-256 module, so that no call loads
        OpenSSL.
        """
        text = ";".join(self.names) + "|" + ";".join(
            f"{a}<{b}" for a, b in sorted(self.cover_labels())
        )
        return _sha256(text.encode()).hexdigest()[:16]

    def __repr__(self):
        return f"Lattice({self.n} elements, bottom={self.names[self.bottom]}, top={self.names[self.top]})"


def _sha256(data):
    """The SHA-256 hash object of `data`, from the lean built-in module.

    hashlib loads OpenSSL's _hashlib on import, for one digest of a short
    text: 3.3 ms CPU and 3.6 MiB of peak RSS, against 0.16 ms and 0.03 MiB
    for `_sha256` (Python 3.11.7, 2-vCPU Xeon VM).  Like CPython's
    random.py, try the lean internal module first: `_sha2` from Python
    3.12, `_sha256` before; hashlib only where neither is built.
    """
    try:
        from _sha2 import sha256
    except ImportError:
        try:
            from _sha256 import sha256
        except ImportError:
            from hashlib import sha256
    return sha256(data)


# -- generators -----------------------------------------------------------


@functools.lru_cache(maxsize=None)
def chain_lattice(n):
    """Total order with n+1 elements labeled 0..n.  Cached: these serve as
    the index orders for every chain-indexed construction."""
    if n < 0:
        raise UnsupportedSpec("chain lattice needs n >= 0")
    _check_size(f"chain:{n}", n + 1)
    names = [str(i) for i in range(n + 1)]
    return Lattice.from_covers(names, list(zip(names, names[1:])))


BOOLEAN_ATOMS = "abcdefghij"


def boolean_lattice(n):
    """Subsets of an n-set ordered by inclusion; labels concatenate atoms."""
    if not (0 <= n <= len(BOOLEAN_ATOMS)):
        raise UnsupportedSpec(
            f"boolean lattice needs 0 <= n <= {len(BOOLEAN_ATOMS)} atoms"
        )
    atoms = BOOLEAN_ATOMS[:n]
    subsets = []
    for k in range(n + 1):
        subsets.extend(itertools.combinations(atoms, k))
    label = lambda s: "".join(s) if s else "0"
    covers = [
        (label(s), label(sorted(s + (a,)))) for s in subsets for a in atoms if a not in s
    ]
    return Lattice.from_covers([label(s) for s in subsets], covers)


def divisor_lattice(m):
    """Divisors of m ordered by divisibility."""
    if not 1 <= m <= DIVISOR_HARD_CAP:
        raise UnsupportedSpec(f"divisor lattice needs 1 <= m <= {DIVISOR_HARD_CAP}")
    small = [d for d in range(1, math.isqrt(m) + 1) if m % d == 0]
    divs = sorted(set(small + [m // d for d in small]))
    _check_size(f"divisor:{m}", len(divs))
    # every divisibility pair, not only the covers; the closure absorbs them
    pairs = [(str(a), str(b)) for i, a in enumerate(divs) for b in divs[i + 1:] if b % a == 0]
    return Lattice.from_covers([str(d) for d in divs], pairs)


def _set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]
        yield [[first]] + part


def partition_lattice(n):
    """Set partitions of {1..n} by refinement; bottom is the discrete partition."""
    if not (1 <= n <= PARTITION_HARD_CAP):
        raise UnsupportedSpec(f"partition lattice needs 1 <= n <= {PARTITION_HARD_CAP}")
    parts = [
        tuple(sorted(tuple(sorted(b)) for b in p))
        for p in _set_partitions(list(range(1, n + 1)))
    ]
    parts = sorted(set(parts), key=lambda p: (len(p), p), reverse=True)

    # bit k of together[p] is set iff the k-th pair i < j shares a block of
    # p; p refines q iff every pair that p puts together q does too
    bit = {pair: 1 << k for k, pair in enumerate(itertools.combinations(range(1, n + 1), 2))}
    together = [
        sum(bit[pair] for b in p for pair in itertools.combinations(b, 2)) for p in parts
    ]
    label = lambda p: "|".join("".join(map(str, b)) for b in p)
    names = [label(p) for p in parts]
    up = [sum(1 << j for j, t in enumerate(together) if not s & ~t) for s in together]
    return Lattice(names, up)


def diamond_lattice(k):
    """M_k: bottom, k pairwise incomparable middles, top."""
    if k < 1:
        raise UnsupportedSpec("diamond needs k >= 1")
    _check_size(f"diamond:{k}", k + 2)
    mids = [f"m{i}" for i in range(1, k + 1)]
    covers = [("0", m) for m in mids] + [(m, "1") for m in mids]
    return Lattice.from_covers(["0"] + mids + ["1"], covers)


def pentagon_lattice():
    """N_5: a 3-chain side and a single element side between the same ends."""
    covers = [("0", "a"), ("a", "c"), ("c", "1"), ("0", "b"), ("b", "1")]
    return Lattice.from_covers(["0", "a", "b", "c", "1"], covers)


def product_lattice(left: Lattice, right: Lattice):
    """Component-wise order on pairs; labels are 'x×y'."""
    _check_size("the product", left.n * right.n)
    m = right.n
    pairs = list(itertools.product(range(left.n), range(m)))
    names = [f"{left.names[a]}×{right.names[b]}" for a, b in pairs]
    # (c, d) has index c*m + d, so above (a, b) lies a copy of right.up[b]
    # in the block of each c >= a; the blocks are disjoint, so sum is OR
    up = [sum(right.up[b] << c * m for c in bit_indices(left.up[a])) for a, b in pairs]
    return Lattice(names, up)


def _check_size(what, count):
    if count > MAX_ELEMENTS:
        raise UnsupportedSpec(
            f"{what} has {count} elements, above the cap of {MAX_ELEMENTS}"
        )


_SIZED_GENERATORS = {
    "chain": chain_lattice,
    "boolean": boolean_lattice,
    "divisor": divisor_lattice,
    "partition": partition_lattice,
    "diamond": diamond_lattice,
}


def generate(spec):
    """Build a lattice from a generator descriptor string.

    Descriptors: chain:N, boolean:N, divisor:M, partition:N, diamond:K,
    pentagon, product:SPEC,SPEC (two comma-separated sub-descriptors).
    """
    spec = spec.strip()
    if spec == "pentagon":
        return pentagon_lattice()
    head, sep, rest = spec.partition(":")
    if not sep:
        raise UnsupportedSpec(f"unknown generator {spec!r}")
    if head in _SIZED_GENERATORS:
        # ASCII digits after an optional '-', which keeps a negative size's
        # range message; int() would also take "1_0", "+3" and non-ASCII digits
        digits = rest.removeprefix("-")
        if not (digits.isascii() and digits.isdigit()):
            raise UnsupportedSpec(f"bad generator argument in {spec!r}")
        try:
            return _SIZED_GENERATORS[head](int(rest))
        except ValueError as exc:  # more digits than int() converts
            raise UnsupportedSpec(f"bad generator argument in {spec!r}: {exc}") from None
    if head == "product":
        parts = rest.split(",")
        if len(parts) != 2:
            raise UnsupportedSpec(
                f"product takes exactly two comma-separated factors: {spec!r}"
            )
        return product_lattice(generate(parts[0]), generate(parts[1]))
    raise UnsupportedSpec(f"unknown generator {spec!r}")
