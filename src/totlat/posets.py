"""Finite posets: construction from covers, chains, and Moebius functions.

Elements are dense integer indices 0..n-1; labels are display-only.
`Poset(names, up)` takes the up-set masks; `Poset.from_covers(names,
covers)` closes a list of cover pairs into them.
Two independent Moebius computations are provided: the defining recursion
(`mobius`, one row mu(x, .) at a time over its nonzero support) and Philip
Hall's alternating chain count (`mobius_hall`), which serves as the oracle
for everything downstream.

`Chain`, `morphisms.JoinMap`, `algebra.Ring` and `checks.CheckReport` are
plain classes with `__slots__`, the first three with their own `__eq__`
and `__hash__`, not dataclasses: importing `dataclasses` loads `inspect`,
which cost every command-line call 7.3 ms CPU and 1 MiB of peak RSS
before it started (Python 3.11.7, 2-vCPU Xeon VM).
"""

from __future__ import annotations

from .errors import CycleDetected, DuplicateLabel, NotAChain, NotComparable, UnknownLabel


class Chain:
    """A totally ordered subset, stored strictly increasing in the ambient order.

    A chain with k members has "length" k-1 in the usual indexing of
    chain families.  Construction raises NotAChain unless each member is
    strictly below the next.  Two chains are equal, and hash alike, when
    their members are; the ambient poset is not compared.  Not to be
    mutated: `members` is the hash key.
    """

    __slots__ = ("members", "ambient")

    def __init__(self, members, ambient):
        for a, b in zip(members, members[1:]):
            if not (a != b and ambient.leq(a, b)):
                raise NotAChain(
                    f"members not strictly increasing at "
                    f"({ambient.names[a]}, {ambient.names[b]})"
                )
        self.members = members
        self.ambient = ambient

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.members == other.members

    def __hash__(self):
        return hash(self.members)

    def __len__(self):
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def labels(self):
        return tuple(self.ambient.names[m] for m in self.members)

    def __repr__(self):
        return "Chain(" + ",".join(self.labels()) + ")"


class Poset:
    """Immutable finite poset, its order held as bitmasks.

    Bit j of `up[i]` is set iff i <= j; `down`, computed once, is the
    transpose: bit i of `down[j]` is set iff i <= j.  Every query, the
    covers, the Moebius recursion and the dual read these masks; no other
    form of the order is kept.  The Moebius values are filled lazily, one
    whole row mu(x, .) at a time, and memoized by x.
    """

    def __init__(self, names, up):
        self.names = _distinct_labels(names)
        self.n = n = len(self.names)
        self.up = up = tuple(up)
        if len(up) != n or any(m < 0 or m >> n for m in up):
            raise ValueError("up-set masks have wrong shape")
        self._check_order_axioms()
        down = [0] * n
        for x, row in enumerate(up):
            for y in bit_indices(row):
                down[y] |= 1 << x
        self.down = tuple(down)
        self._index = {name: i for i, name in enumerate(self.names)}
        self._covers = None
        self._mobius_rows = {}

    def _check_order_axioms(self):
        up = self.up
        for i, row in enumerate(up):
            if not row >> i & 1:
                raise ValueError("leq not reflexive")
            for j in bit_indices(row & ~(1 << i)):
                if up[j] >> i & 1:
                    raise CycleDetected(f"cycle through {self.names[i]} and {self.names[j]}")
                if up[j] & ~row:
                    raise ValueError("leq not transitive")

    @classmethod
    def from_covers(cls, names, covers):
        """Build an instance of this class from labels and cover pairs.

        The order is the reflexive-transitive closure of the pairs; redundant
        (non-cover) input pairs are tolerated, the stored covers are re-derived
        as the transitive reduction.  A cycle among the pairs raises
        CycleDetected from the Poset's own antisymmetry check.
        """
        names = _distinct_labels(names)
        index = {name: i for i, name in enumerate(names)}
        n = len(names)
        rows = [1 << i for i in range(n)]
        for a, b in covers:
            a, b = str(a), str(b)
            if a not in index:
                raise UnknownLabel(f"no element labeled {a!r}")
            if b not in index:
                raise UnknownLabel(f"no element labeled {b!r}")
            rows[index[a]] |= 1 << index[b]
        # Warshall closure: every row that reaches k takes in k's row
        for k in range(n):
            rows = [r | rows[k] if r >> k & 1 else r for r in rows]
        return cls(names, rows)

    # -- basic queries ----------------------------------------------------

    def __eq__(self, other):
        return self is other or (
            isinstance(other, Poset)
            and self.names == other.names
            and self.up == other.up
        )

    def __hash__(self):
        return hash((self.names, self.up))

    def index_of(self, label):
        try:
            return self._index[str(label)]
        except KeyError:
            raise UnknownLabel(f"no element labeled {label!r}") from None

    def leq(self, x, y):
        return bool(self.up[x] >> y & 1)

    def lt(self, x, y):
        return x != y and bool(self.up[x] >> y & 1)

    def comparable(self, x, y):
        return bool((self.up[x] | self.down[x]) >> y & 1)

    @property
    def covers(self):
        """Cover pairs (x, y) with x covered by y: the transitive reduction."""
        if self._covers is None:
            out = []
            for x, row in enumerate(self.up):
                strict = row & ~(1 << x)
                higher = 0  # strictly above some strict upper bound of x
                for z in bit_indices(strict):
                    higher |= self.up[z] & ~(1 << z)
                out.extend((x, y) for y in bit_indices(strict & ~higher))
            self._covers = tuple(out)
        return self._covers

    def cover_labels(self):
        return [(self.names[x], self.names[y]) for x, y in self.covers]

    # -- Moebius functions ------------------------------------------------

    def mobius(self, x, y):
        """Moebius value mu(x, y) by the defining recursion, read off row x."""
        if not self.leq(x, y):
            raise NotComparable(f"{self.names[x]} is not <= {self.names[y]}")
        return self.mobius_row(x)[0].get(y, 0)

    def mobius_row(self, x):
        """(values, support): the nonzero mu(x, y), keyed by y, and the mask
        of those y.

        The row is filled on first use by the defining recursion, each y
        above x visited in a linear extension (by the size of its down-set,
        which grows strictly along the order):
        mu(x, y) = -sum of mu(x, z) over the z in [x, y) found nonzero so
        far, that is over the bits of `support & down[y]`.  A vanishing
        value adds nothing to any later sum, so only the support is read,
        and a long chain costs two terms per entry, not its whole interval.
        The pair returned is the memo itself, for callers to read only.
        """
        row = self._mobius_rows.get(x)
        if row is None:
            down = self.down
            values, support = {x: 1}, 1 << x
            above = bit_indices(self.up[x] & ~(1 << x))
            for y in sorted(above, key=lambda v: down[v].bit_count()):
                mu = -sum(values[z] for z in bit_indices(support & down[y]))
                if mu:
                    values[y] = mu
                    support |= 1 << y
            row = self._mobius_rows[x] = (values, support)
        return row

    def mobius_hall(self, x, y):
        """mu(x, y) as the alternating count of chains x = z_0 < ... < z_i = y.

        Independent of `mobius`: counts chains of each cardinality by dynamic
        programming over the strict order, then takes sum_i (-1)^i c_i.  The
        steps up from v are the bits of up[v] & down[y] other than v.
        """
        if not self.leq(x, y):
            raise NotComparable(f"{self.names[x]} is not <= {self.names[y]}")
        # counts[v] maps step-count k to the number of strict chains v < ... = y
        counts: dict[int, dict[int, int]] = {y: {0: 1}}

        def chains_from(v):
            if v not in counts:
                acc: dict[int, int] = {}
                for w in bit_indices(self.up[v] & self.down[y] & ~(1 << v)):
                    for k, c in chains_from(w).items():
                        acc[k + 1] = acc.get(k + 1, 0) + c
                counts[v] = acc
            return counts[v]

        return sum((-1) ** k * c for k, c in chains_from(x).items())

    # -- chains -----------------------------------------------------------

    def chains(self):
        """All chains, the empty one first, as Chain objects, in
        deterministic lexicographic order."""
        results = []

        def extend(current):
            results.append(tuple(current))
            last = current[-1] if current else None
            for x in range(self.n):
                if x in current:
                    continue
                if not all(self.comparable(x, m) for m in current):
                    continue
                # canonical representative only: keep members sorted by order
                if last is not None and not self.lt(last, x):
                    continue
                current.append(x)
                extend(current)
                current.pop()

        extend([])
        return [Chain(members, self) for members in sorted(set(results))]

    def dual(self):
        """The order-reversed poset over the same elements, of the same class."""
        return type(self)(self.names, self.down)

    def __repr__(self):
        return f"Poset({self.n} elements, covers={self.cover_labels()})"


def _distinct_labels(names):
    """The labels as a tuple of strings; DuplicateLabel names the first repeat."""
    labels = tuple(str(x) for x in names)
    seen = set()
    for label in labels:
        if label in seen:
            raise DuplicateLabel(f"duplicate label {label!r}")
        seen.add(label)
    return labels


def bit_indices(mask):
    """The indices of the set bits of a nonnegative int, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low
