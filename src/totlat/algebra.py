"""Formal linear combinations of join-morphisms and the two idempotent
constructions.

A formal sum holds its source and target lattices once and keys each
term by the map's value table, so a product composes tables directly.
A table is of its target's `table_type`: `bytes` on at most 256 elements
and a tuple above.  Tables are composed only by `morphisms`, and
products by its `composition` kit `(prepare, read)`: each outer table is
prepared once, each inner table gives one reader of the prepared tables,
and between byte tables each composite is one `bytes.translate` call.
`map_products` tests the products of one sum over Z with many single
maps, each given as its value table, as the enumerator yields it.  It
factors each map p through its image, s * [p] and [p] * s through normal
forms that depend only on p's image and only on p's ranks there, and
decides each map by comparing two interned ints; the normal forms are
computed once per image and once per ranking.

Every coefficient is an int and every sum is over Z: each coefficient
that occurs is a Moebius value, so both constructions take only the
lattice.  A coefficient that is not an int is refused, so no float or
fraction ever enters a sum.  Z -> R is the unique ring map into any
commutative ring R, and it commutes with the sums and products that
build e, so e over R is the image of e over Z.  Hence a ring is only an
output spec: `Ring.reduce` gives the terms of a sum's image, where it is
written or counted.

The headline objects:

  idempotent_direct    -- minus the sum, over bottom-to-top chains B, of
                          mu(B, infinity) times the retraction onto B;
  idempotent_original  -- the sum over all top-ended chains B of the
                          idempotents f_B built from interval-pick families.

Both produce the same element; the equivalence is the main cross-check.
The family sum lists no chain.  It is built over Z, one partial sum S(b)
per element b, by the recursion

  S(b) = [bottom on down(b)]
         - sum over b' < b and a in [b', b] of
           mu(b', a) * ([a on down(b) - down(b')] joined to S(b')),

where S(b) holds the terms of the f_B over the chains that end at b,
restricted to the down-set of b: each such term is one unrolled path of
the recursion, and since joining a fixed block is injective and linear,
the terms of S(b') cancel before they are extended.  S(top) is the sum
of the f_B.
"""

from __future__ import annotations

import itertools
import math

from .errors import (
    ChainNotInA,
    ChainNotInB,
    FeasibilityLimit,
    SignatureMismatch,
    SourceTargetMismatch,
    UnsupportedRing,
)
from .lattices import Lattice, chain_lattice
from .morphisms import (
    JoinMap,
    as_table,
    compose_tables,
    composition,
    pi_of_chain,
    retraction_table,
)
from .posets import Poset, bit_indices

# the largest chain poset the brute-force Moebius oracle builds; building
# its order tests size**2 pairs, so time grows as the square
CHAIN_POSET_LIMIT = 2000

# the most value-table bytes either construction of e may hold: its terms
# times the bytes of one table, n for `bytes` and 8n for a tuple
MAX_TABLE_BYTES = 2**28


class Ring:
    """How the coefficients of a sum over Z are written and counted:
    as integers, as integers mod m, or as rationals.

    Over int and rat the terms are those over Z (an integer is an exact
    rational); modulo m each coefficient is reduced and the terms that
    vanish are dropped.  Not to be mutated.
    """

    __slots__ = ("kind", "modulus")

    def __init__(self, kind, modulus=None):
        if kind not in ("int", "mod", "rat"):
            raise UnsupportedRing(f"unknown ring kind {kind!r}")
        if kind == "mod" and type(modulus) is not int:
            # a float or a string would give coefficients of its own type
            raise UnsupportedRing(f"modulus must be an int, not {modulus!r}")
        if kind == "mod" and modulus < 2:
            raise UnsupportedRing("modulus must be >= 2")
        if kind != "mod" and modulus is not None:
            raise UnsupportedRing("modulus only makes sense for kind 'mod'")
        self.kind = kind  # "int" | "mod" | "rat"
        self.modulus = modulus

    @classmethod
    def parse(cls, text):
        text = text.strip()
        if text == "int":
            return cls("int")
        if text == "rat":
            return cls("rat")
        if text.startswith("mod:"):
            # ASCII digits only: int() would also take "1_1", "+5", " 3"
            # and non-ASCII digits
            digits = text[4:]
            if not (digits.isascii() and digits.isdigit()):
                raise UnsupportedRing(f"bad modulus in {text!r}")
            return cls("mod", int(digits))
        raise UnsupportedRing(f"unknown ring {text!r}")

    def reduce(self, terms):
        """The terms (value table -> int) of a sum over Z, as they are in
        this ring: modulo m each coefficient reduced and the vanishing
        ones dropped, otherwise `terms` itself."""
        m = self.modulus
        if m is None:
            return terms
        return {table: r for table, c in terms.items() if (r := c % m)}

    def __str__(self):
        return f"mod:{self.modulus}" if self.kind == "mod" else self.kind


def _integer(c):
    """c if it is an int; a bool, a float or a Fraction is refused, even
    when its value is integral."""
    if type(c) is not int:
        raise UnsupportedRing(f"coefficient {c!r} is not an int")
    return c


def _accumulate(acc, terms):
    """Add (value table, coeff) pairs into the dict `acc` in place.

    A key is deleted as soon as its coefficient becomes zero, so `acc`
    always holds a normalised sum.
    """
    for table, c in terms:
        old = acc.get(table)
        if old is not None:
            c += old
        if c:
            acc[table] = c
        elif old is not None:
            del acc[table]


class FormalSum:
    """Finite linear combination, over Z, of join-morphisms with a shared
    signature.

    The sum holds its source and target once; each term is keyed by its
    value table, one target index per source element, of the target's
    `table_type`, which also gives the canonical serialization order.
    Normalized: zero coefficients are dropped on construction, so
    equality is plain term-by-term comparison.  The constructor stores
    the tables it is given through `as_table` and refuses a coefficient
    that is not an int; sums built from sums are not checked again.
    """

    __slots__ = ("source", "target", "terms")

    def __init__(self, source: Lattice, target: Lattice, terms=()):
        self.source = source
        self.target = target
        self.terms: dict[bytes | tuple[int, ...], int] = {}
        pairs = terms.items() if isinstance(terms, dict) else terms
        _accumulate(self.terms, ((as_table(target, table), _integer(c)) for table, c in pairs))

    @classmethod
    def _of(cls, source, target, terms):
        """The sum whose terms are the normalised dict `terms`, taken as is."""
        s = cls.__new__(cls)
        s.source, s.target, s.terms = source, target, terms
        return s

    @classmethod
    def total(cls, source, target, sums):
        """The sum of an iterable of formal sums, added up in one pass.

        Each summand is consumed as it comes and folded into one running
        dict, so neither the partial sums nor the raw terms are kept.
        """
        acc: dict[bytes | tuple[int, ...], int] = {}
        for s in sums:
            if s.source != source or s.target != target:
                raise SignatureMismatch("formal sums have different signatures")
            _accumulate(acc, s.terms.items())
        # a copy: the running dict keeps room for every key it ever held,
        # and most cancel in f_family's sum of the f_B
        return cls._of(source, target, dict(acc))

    def __add__(self, other):
        if self.source != other.source or self.target != other.target:
            raise SignatureMismatch("formal sums have different signatures")
        acc = dict(self.terms)
        _accumulate(acc, other.terms.items())
        return FormalSum._of(self.source, self.target, acc)

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        c = _integer(c)
        acc = {}
        _accumulate(acc, ((table, c * v) for table, v in self.terms.items()))
        return FormalSum._of(self.source, self.target, acc)

    def __mul__(self, other):
        """Composition product: (self * other) means self after other.

        Each composite g o f is made as `compose_tables` makes it, by the
        kit `composition` gives for the signature of g: each outer table
        g is prepared once, and each inner table f gives one reader of
        the prepared g.
        """
        if not isinstance(other, FormalSum):
            return NotImplemented
        if other.target != self.source:
            raise SourceTargetMismatch("inner target differs from outer source")
        prepare, read = composition(self.source, self.target)
        readers = [(read(f), cf) for f, cf in other.terms.items()]
        prepared = ((prepare(g), cg) for g, cg in self.terms.items())
        pairs = ((after(g), cg * cf) for g, cg in prepared for after, cf in readers)
        acc = {}
        _accumulate(acc, pairs)
        return FormalSum._of(other.source, self.target, acc)

    def __eq__(self, other):
        return (
            isinstance(other, FormalSum)
            and self.source == other.source
            and self.target == other.target
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def is_zero(self):
        return not self.terms

    def sorted_terms(self):
        """(JoinMap, coeff) pairs in canonical order: ascending on the value table."""
        return [
            (JoinMap(self.source, self.target, table), c)
            for table, c in sorted(self.terms.items())
        ]

    def __repr__(self):
        bits = " + ".join(f"{c}*{jm!r}" for jm, c in self.sorted_terms())
        return f"FormalSum({bits or '0'})"


def map_products(s: FormalSum):
    """(commutes, fixes) for an endomorphism sum s over Z and maps p,
    given as value tables of the type `as_table` gives them: commutes(p)
    tells whether s * [p] == [p] * s, and fixes(p) whether
    s * [p] == [p] == [p] * s.

    [p] is the endomorphism p as a sum with coefficient 1, so s * [p]
    has the coefficients c_t of s on the tables t o p and [p] * s on the
    tables p o t.  Let p have image S = {v_0 < ... < v_{m-1}} (ordered by
    index), rank the map v_i -> i on S, unrank its inverse and r =
    rank o p, so that p = unrank o r.  r is onto {0..m-1}, so composing
    on the right with it is injective on formal sums, and unrank is
    injective, so composing on the left with it is too.  Hence

        s * [p] = Y_S o r,   Y_S = sum c_t [t o unrank],
        [p] * s = unrank o H_r,   H_r = sum c_t [r o t],

    with Y_S depending only on S and H_r only on r, and the two agree iff
    every table of Y_S lies in S and rank o Y_S equals X_r, where
    H_r = X_r o r term by term (each table of H_r constant on the fibres
    of r).  Likewise s * [p] == [p] iff rank o Y_S is the identity of
    {0..m-1} with coefficient 1, and [p] * s == [p] iff X_r is.  Both
    normal forms are computed once per image and once per r, and
    interned as ints (a sentinel of its own for each side that fails to
    factor), so each map costs its image, one composite and two dict
    lookups.  The terms of s are prepared once for the kit of
    `composition`: Y_S reads them all through the image, and H_r applies
    each term's reader to r, prepared once.  Every table is composed by
    `morphisms`' helpers and is of L's `table_type`, those into
    {0..m-1} too.
    """
    L = s.source
    prepare, read = composition(L, L)
    coeffs = list(s.terms.values())
    prepared, readers = list(map(prepare, s.terms)), list(map(read, s.terms))
    interned = {}

    def intern(terms):
        return interned.setdefault(frozenset(terms.items()), len(interned))

    def by_image(image):
        # (the id of rank o Y_S, the table of rank, the id of the identity)
        m = len(image)
        rank = [0] * L.n
        for i, v in enumerate(image):
            rank[v] = i
        rank = as_table(L, rank)
        unit = intern({as_table(L, range(m)): 1})
        ys = {}
        _accumulate(ys, zip(map(read(image), prepared), coeffs))
        ranked = {}
        for y, c in ys.items():
            x = compose_tables(rank, y, L)
            if compose_tables(image, x, L) != y:
                return -1, rank, unit
            ranked[x] = c
        return intern(ranked), rank, unit

    def by_rank(r):
        # the id of X_r, or -2 if some table of H_r is not constant on
        # the fibres of r
        ready = prepare(r)
        hs = {}
        _accumulate(hs, zip([after(ready) for after in readers], coeffs))
        section = as_table(L, [r.index(i) for i in range(max(r) + 1)])
        xs = {}
        for h, c in hs.items():
            x = compose_tables(h, section, L)
            if compose_tables(x, r, L) != h:
                return -2
            xs[x] = c
        return intern(xs)

    images, ranks = {}, {}

    def ids(p):
        # (the id of rank o Y_S, the id of X_r, the id of the identity)
        image = as_table(L, sorted(set(p)))
        entry = images.get(image)
        if entry is None:
            entry = images[image] = by_image(image)
        y, rank, unit = entry
        r = compose_tables(rank, p, L)
        x = ranks.get(r)
        if x is None:
            x = ranks[r] = by_rank(r)
        return y, x, unit

    def commutes(p):
        y, x, _ = ids(p)
        return y == x

    def fixes(p):
        y, x, unit = ids(p)
        return y == x == unit

    return commutes, fixes


def embed(jm: JoinMap) -> FormalSum:
    return FormalSum(jm.source, jm.target, [(jm.values, 1)])


# -- Moebius values of chains ---------------------------------------------


def mu_chain_infinity(L: Lattice, A) -> int:
    """mu(A, infinity) in the poset of bottom-rooted chains with a top adjoined.

    Vanishes outright when A misses the top element; otherwise equals
    (-1)^(n+1) times the product of the interval Moebius values along A.
    """
    members = tuple(A)
    if not members or members[0] != L.bottom:
        raise ChainNotInA("chain must contain the bottom element")
    if members[-1] != L.top:
        return 0
    n = len(members) - 1
    product = 1
    for lo, hi in zip(members, members[1:]):
        product *= L.mobius(lo, hi)
    return (-1) ** (n + 1) * product


def mu_chain_infinity_oracle(L: Lattice, A) -> int:
    """Same value by brute force: build the poset of chains strictly
    containing A, adjoin a top, and count chains Hall-style.

    Never takes the product shortcut, so it is independent of
    `mu_chain_infinity`.  Raises FeasibilityLimit above CHAIN_POSET_LIMIT
    chains; the chains are counted before any is built.
    """
    members = tuple(A)
    if not members or members[0] != L.bottom:
        raise ChainNotInA("chain must contain the bottom element")
    count = _chains_through(L, members) - 1
    if count > CHAIN_POSET_LIMIT:
        raise FeasibilityLimit(
            f"chain poset has {count} elements, above the limit {CHAIN_POSET_LIMIT}"
        )
    # a chain is the mask of its members; the adjoined top has every bit
    # of L and one more, so it lies above every chain and below none
    carrier = _superset_masks(L, members) + [(2 << L.n) - 1]
    up = [sum(1 << j for j, b in enumerate(carrier) if a & ~b == 0) for a in carrier]
    poset = Poset([str(i) for i in range(len(carrier))], up)
    return poset.mobius_hall(0, len(carrier) - 1)


def _superset_masks(L: Lattice, members):
    """The masks of the chains that contain every member, A itself first.

    Such a chain is A together with one chain strictly inside each gap
    between consecutive members and one chain strictly above the last,
    any of them empty; there are `_chains_through(L, members)` of them.
    """
    up = L.up
    spans = [up[lo] & L.down[hi] & ~(1 << lo | 1 << hi)
             for lo, hi in zip(members, members[1:])]
    spans.append(up[members[-1]] & ~(1 << members[-1]))
    masks = [sum(1 << m for m in members)]
    for span in spans:
        masks = [m | c for m in masks for c in _chain_masks(up, span)]
    return masks


def _chain_masks(up, span):
    """The masks of the chains inside `span`, the empty chain first."""
    out = [0]
    stack = [(z, 1 << z) for z in bit_indices(span)]
    while stack:
        last, mask = stack.pop()
        out.append(mask)
        room = span & up[last] & ~(1 << last)
        stack.extend((z, mask | 1 << z) for z in bit_indices(room))
    return out


def _chains_through(L: Lattice, members):
    """The number of chains that start at members[0] and contain every member.

    The product of the chains between consecutive members and the chains
    up from the last one, each counted on its interval along `L._above`;
    an element's strict upper set is smaller than that of anything below
    it, so sorting by its size visits the elements above z before z.
    """
    above = L._above
    count = 1
    for lo, hi in zip(members, members[1:] + (None,)):
        span = L.up[lo] if hi is None else L.up[lo] & L.down[hi]
        ways = {}
        for z in sorted(bit_indices(span), key=lambda v: len(above[v])):
            ways[z] = (hi is None or z == hi) + sum(ways.get(w, 0) for w in above[z])
        count *= ways.get(lo, 0)
    return count


# -- the direct construction ----------------------------------------------


def direct_term_count(L: Lattice) -> int:
    """The number of terms of e: the bottom-to-top chains whose every step
    x < y has mu(x, y) != 0, the chains `idempotent_direct` walks.

    Counted by a dynamic program along a linear extension: the paths to
    each element, pushed along the support of its `L.mobius_row`, which
    is filled only for the elements some such path reaches.
    """
    down, paths = L.down, [0] * L.n
    paths[L.bottom] = 1
    for x in sorted(range(L.n), key=lambda v: down[v].bit_count()):
        if paths[x]:
            for y in bit_indices(L.mobius_row(x)[1] & ~(1 << x)):
                paths[y] += paths[x]
    return paths[L.top]


def _check_table_bytes(L: Lattice):
    """Raise FeasibilityLimit before a construction of e builds a term, if
    its value tables would take more than MAX_TABLE_BYTES."""
    count = direct_term_count(L)
    size = count * (L.n if L.table_type is bytes else 8 * L.n)
    if size > MAX_TABLE_BYTES:
        raise FeasibilityLimit(
            f"e has {count} terms, {size} bytes of value tables, above the limit {MAX_TABLE_BYTES}"
        )


def idempotent_direct(L: Lattice) -> FormalSum:
    """Minus the sum over bottom-to-top chains B of mu(B, infinity) * alpha_B.

    Built in one depth-first walk up the strict order from the bottom.
    -mu(B, infinity) is the product of -mu(x, y) over the steps x < y of B,
    so each stack entry carries a chain, the sum of its members'
    `L.outside_digits()` and that product so far; reaching the top, it
    gives alpha_B's table (`retraction_table`) and its coefficient.  A
    step with mu(x, y) = 0 is never taken, which cuts every chain through
    it; each element's steps are found once per call.  The chains come in
    the order of `L.chain_family("Z")`, less those with a zero step.
    Distinct chains have distinct retractions, and every coefficient is a
    nonzero integer, so the terms are kept as they come, over Z.
    """
    _check_table_bytes(L)
    digits, top = L.outside_digits(), L.top
    steps = [None] * L.n
    terms = {}
    stack = [((L.bottom,), digits[L.bottom], 1)]
    while stack:
        members, total, c = stack.pop()
        x = members[-1]
        if x == top:
            terms[retraction_table(L, members, total)] = c
            continue
        if steps[x] is None:
            # reversed, so the stack pops the smallest y first
            steps[x] = [(y, -mu, digits[y]) for y in L._above[x]
                        if (mu := L.mobius(x, y))][::-1]
        stack.extend((members + (y,), total + d, c * m) for y, m, d in steps[x])
    return FormalSum._of(L, L, terms)


# -- the family construction ----------------------------------------------


def _sections(L: Lattice, members):
    """The (section table, coefficient) pairs of j^B, B = members, over Z.

    Raises ChainNotInB before any pair is made if B misses the top.  The
    tables are distinct, one per pick tuple, and no coefficient is zero.
    """
    if not members or members[-1] != L.top:
        raise ChainNotInB("chain must contain the top element")
    mobius = L.mobius
    # weights[p-1] maps each pick a in [b_{p-1}, b_p] to mu(b_{p-1}, a) != 0
    weights = [
        {a: mu for a in L.interval_elements(lo, hi) if (mu := mobius(lo, a))}
        for lo, hi in zip(members, members[1:])
    ]
    sign = (-1) ** (len(members) - 1)
    head = (L.bottom,)
    return zip(
        (as_table(L, head + picks) for picks in itertools.product(*weights)),
        (sign * math.prod(mus)
         for mus in itertools.product(*(step.values() for step in weights))),
    )


def j_upper(L: Lattice, B) -> FormalSum:
    """The section sum over a top-ended chain B = {b_0 < ... < b_n}, over Z.

    (-1)^n times the sum, over picks a_p in [b_{p-1}, b_p] for p = 1..n, of
    prod_p mu(b_{p-1}, a_p) times the section 0 -> bottom, p -> a_p of the
    index order.  Picks with mu zero are left out, as their terms vanish.
    Every section is a join-morphism as built: its source is a chain, and
    it increases because a_p <= b_p <= b_{q-1} <= a_q for p < q.  The
    sections are distinct and their coefficients nonzero integers, so the
    terms are taken as they come.
    """
    members = tuple(B)
    return FormalSum._of(chain_lattice(len(members) - 1), L, dict(_sections(L, members)))


def f_of_chain(L: Lattice, B) -> FormalSum:
    """The idempotent f_B = j^B o pi^B attached to a top-ended chain B, over Z.

    Each section table of j^B is read through pi^B's table, and the terms
    are kept as they come: pi^B is surjective, so distinct sections stay
    distinct after it, and no coefficient is zero.
    """
    members = tuple(B)
    sections = _sections(L, members)
    pi = pi_of_chain(L, members).values
    return FormalSum._of(L, L, {compose_tables(table, pi, L): c for table, c in sections})


def idempotent_original(L: Lattice) -> FormalSum:
    """The sum of f_B over all top-ended chains B, by a recursion over the
    elements, over Z.

    A term of f_B, B = {b_0 < ... < b_n = top}, sends x to a_{pi^B(x)}:
    the bottom on the down-set of b_0, and the pick a_p on that of b_p
    less that of b_{p-1}, with coefficient (-1)^n prod_p mu(b_{p-1}, a_p).
    Let S(b) be the sum of these terms, restricted to the down-set of b,
    over the chains that end at b and their picks.  The chain {b} gives
    the constant bottom, and a longer one is a chain that ends at some
    b' < b followed by a pick a in [b', b], so

        S(b) = [bottom on down(b)]
               - sum over b' < b and a in [b', b] of
                 mu(b', a) * ([a on down(b) - down(b')] joined to S(b')),

    and the sum of the f_B is S(top).  Joining a fixed block is linear and
    injective, so the terms of S(b') cancel before it is extended; S(b)
    is the family idempotent of the interval [bottom, b].  No chain is
    listed.  A table is keyed by its digit int (`Lattice.digit_table`),
    and `inside[b]` is the digit int of down(b), so joining the block
    adds a * (inside[b] - inside[b']).  The elements are visited by the
    size of their down-sets, a linear extension; the picks are read off
    the support of `L.mobius_row(b')`; and only the keys of S(top) are
    decoded into tables.
    """
    _check_table_bytes(L)
    n, down = L.n, L.down
    inside = list(map(L.digits, down))
    sums = [None] * n
    for b in sorted(range(n), key=lambda v: down[v].bit_count()):
        acc = {L.bottom * inside[b]: 1}
        for lo in bit_indices(down[b] & ~(1 << b)):
            values, support = L.mobius_row(lo)
            block = inside[b] - inside[lo]
            picks = [(a * block, -values[a]) for a in bit_indices(support & down[b])]
            _accumulate(acc, ((key + shift, c * m)
                              for key, c in sums[lo].items() for shift, m in picks))
        sums[b] = acc
    tables = map(L.digit_table, sums[L.top])
    return FormalSum._of(L, L, dict(zip(tables, sums[L.top].values())))
