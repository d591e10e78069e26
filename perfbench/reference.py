"""Reference computations for the benchmark's output checks.

Every value here is computed from the order relation of a lattice, which is
built from its mathematical definition (inclusion of subsets, divisibility,
refinement of partitions, ...).  No code is shared with totlat: joins are
least upper bounds found in the order relation, join-endomorphisms are found
by backtracking over a linear extension with every pair checked, and chains
are walked along the strict order.  The element labels follow totlat's
documented label conventions, because the checks read the program's output
by label.

Run as a script to print the reference figures of every benchmark lattice:

    python3 perfbench/reference.py
"""

from __future__ import annotations

import itertools
import math


class RefLattice:
    """A finite lattice given by labels and its order relation."""

    def __init__(self, labels, leq):
        self.labels = list(labels)
        self.n = len(self.labels)
        self.index = {label: i for i, label in enumerate(self.labels)}
        self.leq = leq  # leq[x][y] is True iff x <= y
        n = self.n
        self.bottom = next(x for x in range(n) if all(leq[x][y] for y in range(n)))
        self.top = next(x for x in range(n) if all(leq[y][x] for y in range(n)))
        self.below = [[y for y in range(n) if y != x and leq[y][x]] for x in range(n)]
        self.above = [[y for y in range(n) if y != x and leq[x][y]] for x in range(n)]
        # a linear extension: fewer elements below comes first
        self.order = sorted(range(n), key=lambda x: len(self.below[x]))
        self._join = None
        self._meet = None
        self._mobius = {}

    # -- lattice operations -------------------------------------------------

    def _bound(self, x, y, upper):
        leq, n = self.leq, self.n
        if upper:
            cands = [z for z in range(n) if leq[x][z] and leq[y][z]]
            best = max(cands, key=lambda z: len(self.above[z]))
            ok = all(leq[best][w] for w in cands)
        else:
            cands = [z for z in range(n) if leq[z][x] and leq[z][y]]
            best = max(cands, key=lambda z: len(self.below[z]))
            ok = all(leq[w][best] for w in cands)
        if not ok:
            raise ValueError(f"{self.labels[x]}, {self.labels[y]} have no least bound")
        return best

    @property
    def join(self):
        if self._join is None:
            self._join = [[self._bound(x, y, True) for y in range(self.n)]
                          for x in range(self.n)]
        return self._join

    @property
    def meet(self):
        if self._meet is None:
            self._meet = [[self._bound(x, y, False) for y in range(self.n)]
                          for x in range(self.n)]
        return self._meet

    def join_irreducibles(self):
        """Elements with exactly one lower cover."""
        irr = []
        for x in range(self.n):
            covers = [y for y in self.below[x]
                      if not any(self.leq[y][z] for z in self.below[x] if z != y)]
            if len(covers) == 1:
                irr.append(x)
        return irr

    def is_chain(self, elements):
        return all(self.leq[a][b] or self.leq[b][a]
                   for a, b in itertools.combinations(elements, 2))

    def is_complemented(self, lo, hi):
        carrier = [z for z in range(self.n) if self.leq[lo][z] and self.leq[z][hi]]
        return all(
            any(self.join[z][w] == hi and self.meet[z][w] == lo for w in carrier)
            for z in carrier
        )

    # -- Moebius values -----------------------------------------------------

    def mobius(self, x, y):
        """mu(x, y) by the defining recursion over the order relation."""
        if x not in self._mobius:
            mu = {x: 1}
            for z in self.order:
                if z != x and self.leq[x][z]:
                    mu[z] = -sum(m for w, m in mu.items() if self.leq[w][z])
            self._mobius[x] = mu
        return self._mobius[x][y]

    # -- chains -------------------------------------------------------------

    def chains_between(self, lo, hi):
        """Every chain lo = b_0 < ... < b_n = hi, as tuples of elements."""
        out = []

        def walk(path):
            last = path[-1]
            if last == hi:
                out.append(tuple(path))
                return
            for y in self.above[last]:
                if self.leq[y][hi]:
                    path.append(y)
                    walk(path)
                    path.pop()

        walk([lo])
        return out

    def chain_counts(self):
        """Counts of bottom-rooted (A), top-ended (B) and bottom-to-top (Z)
        chains by length (number of steps), as lists over 0..height."""
        down = {x: {} for x in range(self.n)}  # chains bottom .. x by steps
        down[self.bottom] = {0: 1}
        for x in self.order:
            for z in self.below[x]:
                for k, c in down[z].items():
                    down[x][k + 1] = down[x].get(k + 1, 0) + c
        up = {x: {} for x in range(self.n)}  # chains x .. top by steps
        up[self.top] = {0: 1}
        for x in reversed(self.order):
            for z in self.above[x]:
                for k, c in up[z].items():
                    up[x][k + 1] = up[x].get(k + 1, 0) + c
        height = max(down[self.top])
        a = [sum(down[x].get(k, 0) for x in range(self.n)) for k in range(height + 1)]
        b = [sum(up[x].get(k, 0) for x in range(self.n)) for k in range(height + 1)]
        z = [down[self.top].get(k, 0) for k in range(height + 1)]
        return a, b, z

    # -- maps ---------------------------------------------------------------

    def retraction(self, chain):
        """t -> the least member of the chain above t."""
        return tuple(next(b for b in chain if self.leq[t][b]) for t in range(self.n))

    def idempotent(self):
        """The direct construction: table of each retraction -> coefficient.

        The coefficient of the retraction onto b_0 < ... < b_n is
        (-1)^n times the product of mu(b_{i-1}, b_i); zeros are dropped.
        """
        out = {}
        for chain in self.chains_between(self.bottom, self.top):
            coeff = (-1) ** (len(chain) - 1)
            for lo, hi in zip(chain, chain[1:]):
                coeff *= self.mobius(lo, hi)
            if coeff:
                out[self.retraction(chain)] = coeff
        return out

    def join_endomorphisms(self):
        """Every map preserving bottom and all binary joins, by backtracking.

        Elements are assigned in a linear extension.  An element that is the
        join of two elements strictly below it has its value forced by them;
        any other element may take any value above the values below it.
        """
        join, leq, n = self.join, self.leq, self.n
        pairs = [
            [(x, y) for x, y in itertools.combinations(self.below[z], 2)
             if join[x][y] == z]
            for z in range(n)
        ]
        f = [None] * n
        out = []

        def assign(i):
            if i == n:
                out.append(tuple(f))
                return
            z = self.order[i]
            if z == self.bottom:
                cands = [self.bottom]
            elif pairs[z]:
                (x, y), rest = pairs[z][0], pairs[z][1:]
                v = join[f[x]][f[y]]
                if any(join[f[a]][f[b]] != v for a, b in rest):
                    return
                cands = [v]
            else:
                cands = range(n)
            for v in cands:
                if all(leq[f[x]][v] for x in self.below[z]):
                    f[z] = v
                    assign(i + 1)
            f[z] = None

        assign(0)
        return out

    def table_from_labels(self, table):
        """A {label: label} value table as a tuple of element indices."""
        if sorted(table) != sorted(self.labels):
            raise ValueError("value table is not total on the lattice")
        return tuple(self.index[table[label]] for label in self.labels)


def compose(g, f):
    """The value table of g after f."""
    return tuple(g[v] for v in f)


def act(terms, alpha, side):
    """e∘alpha (side "left") or alpha∘e (side "right") for e given as
    {table: coefficient}; zero coefficients are dropped."""
    out = {}
    for t, c in terms.items():
        key = compose(t, alpha) if side == "left" else compose(alpha, t)
        out[key] = out.get(key, 0) + c
    return {k: c for k, c in out.items() if c}


# -- lattices from their definitions -----------------------------------------


def _from_relation(labels, rel):
    return RefLattice(labels, [[rel(a, b) for b in labels] for a in labels])


def _set_partitions(n):
    """Set partitions of {1..n} from restricted growth strings."""
    def grow(prefix, top):
        if len(prefix) == n:
            blocks = {}
            for item, b in enumerate(prefix, start=1):
                blocks.setdefault(b, []).append(item)
            yield tuple(sorted(tuple(b) for b in blocks.values()))
            return
        for b in range(top + 2):
            yield from grow(prefix + [b], max(top, b))
    yield from grow([0], 0) if n else iter([()])


def lattice(desc):
    """The reference lattice of a totlat generator descriptor."""
    if desc == "pentagon":
        above = {"0": "0abc1", "a": "ac1", "b": "b1", "c": "c1", "1": "1"}
        return _from_relation(list("0abc1"), lambda x, y: y in above[x])
    head, _, rest = desc.partition(":")
    if head == "product":
        left_desc, right_desc = rest.split(",")
        left, right = lattice(left_desc), lattice(right_desc)
        pairs = list(itertools.product(range(left.n), range(right.n)))
        labels = [f"{left.labels[a]}×{right.labels[b]}" for a, b in pairs]
        leq = [[left.leq[a][c] and right.leq[b][d] for c, d in pairs] for a, b in pairs]
        return RefLattice(labels, leq)
    k = int(rest)
    if head == "chain":
        return _from_relation([str(i) for i in range(k + 1)], lambda x, y: int(x) <= int(y))
    if head == "boolean":
        atoms = "abcdefghij"[:k]
        labels = ["".join(s) or "0" for r in range(k + 1)
                  for s in itertools.combinations(atoms, r)]
        as_set = lambda label: set() if label == "0" else set(label)
        return _from_relation(labels, lambda x, y: as_set(x) <= as_set(y))
    if head == "divisor":
        labels = [str(d) for d in range(1, k + 1) if k % d == 0]
        return _from_relation(labels, lambda x, y: int(y) % int(x) == 0)
    if head == "diamond":
        labels = ["0"] + [f"m{i}" for i in range(1, k + 1)] + ["1"]
        return _from_relation(labels, lambda x, y: x == y or x == "0" or y == "1")
    if head == "partition":
        parts = list(_set_partitions(k))
        labels = ["|".join("".join(map(str, b)) for b in p) for p in parts]
        blocks = {label: [set(b) for b in p] for label, p in zip(labels, parts)}
        return _from_relation(labels, lambda x, y: all(
            any(bx <= by for by in blocks[y]) for bx in blocks[x]))
    raise ValueError(f"no reference lattice for {desc!r}")


# -- closed forms --------------------------------------------------------------


def stirling2(n, k):
    """Stirling numbers of the second kind, by the standard recurrence."""
    row = [1] + [0] * k  # S(0, j)
    for m in range(1, n + 1):
        row = [0] + [j * row[j] + row[j - 1] for j in range(1, k + 1)]
    return row[k]


def bell(n):
    return sum(stirling2(n, k) for k in range(n + 1))


def element_count(desc):
    """Closed form for the number of elements of a generated lattice."""
    if desc == "pentagon":
        return 5
    head, _, rest = desc.partition(":")
    if head == "product":
        left, right = rest.split(",")
        return element_count(left) * element_count(right)
    k = int(rest)
    if head == "divisor":
        return sum(1 for d in range(1, k + 1) if k % d == 0)
    return {"chain": k + 1, "boolean": 2 ** k, "diamond": k + 2,
            "partition": bell(k)}[head]


def boolean_chain_counts(big_n):
    """Chains of the boolean lattice on an N-set, by length n: n!·S(N, n)
    bottom-to-top chains (ordered set partitions into n blocks), and
    n!·S(N+1, n+1) bottom-rooted and top-ended ones."""
    z = [math.factorial(n) * stirling2(big_n, n) for n in range(big_n + 1)]
    ab = [math.factorial(n) * stirling2(big_n + 1, n + 1) for n in range(big_n + 1)]
    return ab, ab, z


def endomorphism_count(desc):
    """Closed forms: C(2k, k) for chain:k (monotone maps of a k-chain into a
    (k+1)-chain) and 2^(k·k) for boolean:k (atoms go anywhere)."""
    head, _, rest = desc.partition(":")
    k = int(rest)
    if head == "chain":
        return math.comb(2 * k, k)
    if head == "boolean":
        return 2 ** (k * k)
    raise ValueError(f"no closed form for {desc!r}")


if __name__ == "__main__":
    from outputs import References
    from workloads import DEFAULT_CORPUS, REFERENCE_LATTICES, SWEEP_LATTICES

    refs = References()
    for desc in REFERENCE_LATTICES:
        ref = refs.get(desc)
        a, b, z = ref.chain_counts
        line = (f"{desc:26s} elements={ref.L.n:3d} chains A/B/Z={sum(a)}/{sum(b)}/{sum(z)}"
                f" e-terms={len(ref.idempotent)}")
        if desc in DEFAULT_CORPUS + SWEEP_LATTICES and ref.feasible:
            line += " endomorphisms={} chain-image={}".format(*ref.endomorphisms)
        print(line)
