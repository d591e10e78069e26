"""Formal linear combinations of join-morphisms and the two idempotent
constructions.

A formal sum holds its ring, source and target lattices once and keys
each term by the map's value table, so a product composes tables directly.
A table is of its target's `table_type`: `bytes` on at most 256 elements
and a tuple above.  Tables are composed only by `morphisms`: products
prepare them by its `composition`, which makes each composite between
byte tables one `bytes.translate` call.
`map_products` tests the products of one sum over Z with many single
maps, with the tables of the sum prepared once.  An equality of two such
products is decided by sorting the composites, each repeated |c|
times on the side of its sign, and comparing two lists; with
coefficients too large to repeat, the composites are folded term by term.
Coefficients live in an exact commutative ring (integers, integers mod m,
or rationals); no floating point anywhere.  Every coefficient that occurs
is a Moebius value, so both constructions take only the lattice and build
over Z.  Z -> R is the unique ring map, and it commutes with the sums and
products that build e, so `FormalSum.map_ring` is the one way into R.

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
import sys
from array import array
from fractions import Fraction

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
    identity_map,
    pi_of_chain,
    retraction_table,
)
from .posets import Poset, bit_indices

# the largest chain poset the brute-force Moebius oracle builds; building
# its order tests size**2 pairs, so time grows as the square
CHAIN_POSET_LIMIT = 2000


class Ring:
    """Exact coefficient ring: integers, integers mod m, or rationals.

    Equal, and hashed, on (kind, modulus).  Not to be mutated.
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

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.kind == other.kind and self.modulus == other.modulus

    def __hash__(self):
        return hash((self.kind, self.modulus))

    def __repr__(self):
        return f"Ring(kind={self.kind!r}, modulus={self.modulus!r})"

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

    def coerce(self, c):
        if self.kind == "int":
            if type(c) is int:
                return c
            return _exact_integer(c)
        if self.kind == "mod":
            if type(c) is int:
                return c % self.modulus
            return _exact_integer(c) % self.modulus
        if type(c) is Fraction:
            return c
        return Fraction(c)

    def __str__(self):
        return f"mod:{self.modulus}" if self.kind == "mod" else self.kind


ZZ = Ring("int")


def _exact_integer(c):
    """c as an int; a value with a fractional part is refused, not truncated."""
    try:
        q = Fraction(c)
    except (TypeError, ValueError, OverflowError):
        raise UnsupportedRing(f"{c!r} is not an exact number") from None
    if q.denominator != 1:
        raise UnsupportedRing(f"{c} is not an integer")
    return q.numerator


def _accumulate(modulus, acc, terms, coerce=None):
    """Add (value table, coeff) pairs into the dict `acc` in place.

    `coerce` is given where the coefficients come from outside the ring;
    sums and products of ring elements are not coerced again.  Modulo m
    every inserted coefficient is reduced.  A key is deleted as soon as
    its coefficient becomes zero, so `acc` always holds a normalised sum.
    """
    for table, c in terms:
        if coerce is not None:
            c = coerce(c)
        old = acc.get(table)
        if old is not None:
            c += old
        if modulus is not None:
            c %= modulus
        if c:
            acc[table] = c
        elif old is not None:
            del acc[table]


class FormalSum:
    """Finite linear combination of join-morphisms with a shared signature.

    The sum holds its ring, source and target once; each term is keyed by
    its value table, one target index per source element, of the target's
    `table_type`, which also gives the canonical serialization order.
    Normalized: zero coefficients are dropped on construction, so
    equality is plain term-by-term comparison.  The constructor stores
    the tables it is given through `as_table` and coerces the
    coefficients into the ring; sums built from sums are neither
    converted nor coerced again.
    """

    __slots__ = ("ring", "source", "target", "terms")

    def __init__(self, ring: Ring, source: Lattice, target: Lattice, terms=()):
        self.ring = ring
        self.source = source
        self.target = target
        self.terms: dict[bytes | tuple[int, ...], object] = {}
        pairs = terms.items() if isinstance(terms, dict) else terms
        _accumulate(ring.modulus, self.terms,
                    ((as_table(target, table), c) for table, c in pairs), ring.coerce)

    @classmethod
    def _of(cls, ring, source, target, terms):
        """The sum whose terms are the normalised dict `terms`, taken as is."""
        s = cls.__new__(cls)
        s.ring, s.source, s.target, s.terms = ring, source, target, terms
        return s

    @classmethod
    def total(cls, ring, source, target, sums):
        """The sum of an iterable of formal sums, added up in one pass.

        Each summand is consumed as it comes and folded into one running
        dict, so neither the partial sums nor the raw terms are kept.
        """
        acc: dict[bytes | tuple[int, ...], object] = {}
        for s in sums:
            if s.ring != ring or s.source != source or s.target != target:
                raise SignatureMismatch("formal sums have different signatures")
            _accumulate(ring.modulus, acc, s.terms.items())
        # a copy: the running dict keeps room for every key it ever held,
        # and most cancel in f_family's sum of the f_B
        return cls._of(ring, source, target, dict(acc))

    def _require_same_signature(self, other):
        if (
            self.ring != other.ring
            or self.source != other.source
            or self.target != other.target
        ):
            raise SignatureMismatch("formal sums have different signatures")

    def __add__(self, other):
        self._require_same_signature(other)
        acc = dict(self.terms)
        _accumulate(self.ring.modulus, acc, other.terms.items())
        return FormalSum._of(self.ring, self.source, self.target, acc)

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        c = self.ring.coerce(c)
        acc = {}
        _accumulate(self.ring.modulus, acc, ((table, c * v) for table, v in self.terms.items()))
        return FormalSum._of(self.ring, self.source, self.target, acc)

    def __mul__(self, other):
        """Composition product: (self * other) means self after other.

        Each composite g o f is made as `compose_tables` makes it, by the
        kit `composition` gives for the signature of g: each outer table
        g is prepared once, and each inner table f gives one reader of
        the prepared g.
        """
        if not isinstance(other, FormalSum):
            return NotImplemented
        if self.ring != other.ring:
            raise SignatureMismatch("formal sums over different rings")
        if other.target != self.source:
            raise SourceTargetMismatch("inner target differs from outer source")
        outer, _, at = composition(self.source, self.target)
        inner = [(at(f)[0], cf) for f, cf in other.terms.items()]
        prepared = ((outer(g), cg) for g, cg in self.terms.items())
        pairs = ((read(g), cg * cf) for g, cg in prepared for read, cf in inner)
        acc = {}
        _accumulate(self.ring.modulus, acc, pairs)
        return FormalSum._of(self.ring, other.source, self.target, acc)

    def __eq__(self, other):
        return (
            isinstance(other, FormalSum)
            and self.ring == other.ring
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

    def map_ring(self, ring: Ring):
        """Reinterpret the coefficients in another ring (e.g. reduce mod m).
        Sums are not mutated, so in its own ring the sum itself is returned."""
        if ring == self.ring:
            return self
        acc = {}
        _accumulate(ring.modulus, acc, self.terms.items(), ring.coerce)
        return FormalSum._of(ring, self.source, self.target, acc)

    def __repr__(self):
        bits = " + ".join(f"{c}*{jm!r}" for jm, c in self.sorted_terms())
        return f"FormalSum({bits or '0'})"


# the most composites per term, on average, that the multiset comparison
# of `_signed_tables` makes; past it the exact fold is faster.  Timed per
# map: at 1 repeat per term the multiset wins by 1.3-1.6x, at 2 the fold
# by 1.2-2x (diamond:254, diamond:255, divisor:360, partition:5 with e
# scaled); on e itself the multiset wins on diamond:5 (1.50) and
# partition:4 (1.47), ties on partition:5 (1.65) and loses 1.8x on
# partition:6 (1.81)
MAX_REPEATS_PER_TERM = 1.75


def _signed_tables(s: FormalSum):
    """(positive, negative): each table of the sum s over Z repeated c
    times if its coefficient c is positive, and -c times if negative.

    None when the |c| add up to more than MAX_REPEATS_PER_TERM times the
    number of terms: each repeat costs one composite per map and a longer
    sort, and the exact fold of `_accumulate` then costs less.  Over Z,
    sum c_i [l_i] = sum c_i [r_i] holds exactly when the multiset of the
    l_i of positive terms and the r_i of negative ones, each repeated
    |c_i| times, equals the multiset of the r_i of positive terms and the
    l_i of negative ones: both say that every table has the same total
    coefficient on the two sides.
    """
    if sum(map(abs, s.terms.values())) > MAX_REPEATS_PER_TERM * len(s.terms):
        return None
    positive, negative = [], []
    for table, c in s.terms.items():
        (positive if c > 0 else negative).extend([table] * abs(c))
    return positive, negative


def _cancels(*terms):
    """Whether the (value table, integer coefficient) pairs of the
    iterables `terms` add up to zero, folded exactly by `_accumulate`."""
    acc = {}
    _accumulate(None, acc, itertools.chain(*terms))
    return not acc


def map_products(s: FormalSum):
    """(commutes, fixes) for an endomorphism sum s over Z and maps p,
    given as value tables of the type `as_table` gives them: commutes(p)
    tells whether s * [p] == [p] * s, and fixes(p) whether
    s * [p] == [p] == [p] * s.

    [p] is the endomorphism p as a sum with coefficient 1, so s * [p]
    has the coefficients of s on the tables g o p and [p] * s on the
    tables p o f.  The tables of s are prepared once by the kit of
    `morphisms.composition`, so a sweep over many maps pays for each only
    its composites.  With coefficients of moderate size each equality is
    decided by `_signed_tables`' multisets: each table of s is prepared
    on its sign's side, repeated |c| times, and the two sides are sorted
    and compared, with no per-term step in Python.  Otherwise the difference
    of the two sides is folded exactly by `_cancels`.  Raises
    SignatureMismatch if s is not over Z.
    """
    if s.ring != ZZ:
        raise SignatureMismatch(f"products with maps are decided over int, not {s.ring}")
    outer, inner, at = composition(s.source, s.target)
    signed = _signed_tables(s)
    if signed is None:
        coeffs = list(s.terms.values())
        negated = [-c for c in coeffs]
        outers, inners = list(map(outer, s.terms)), list(map(inner, s.terms))

        def commutes(p):
            after, apply, args = at(p)
            return _cancels(zip(map(after, outers), coeffs),
                            zip(map(apply, inners, args), negated))

        def fixes(p):
            after, apply, args = at(p)
            minus_p = ((p, -1),)
            return (_cancels(zip(map(after, outers), coeffs), minus_p)
                    and _cancels(zip(map(apply, inners, args), coeffs), minus_p))

        return commutes, fixes

    positive, negative = signed
    pos_out, neg_out = list(map(outer, positive)), list(map(outer, negative))
    pos_in, neg_in = list(map(inner, positive)), list(map(inner, negative))

    def commutes(p):
        after, apply, args = at(p)
        return (sorted(itertools.chain(map(after, pos_out), map(apply, neg_in, args)))
                == sorted(itertools.chain(map(after, neg_out), map(apply, pos_in, args))))

    def fixes(p):
        after, apply, args = at(p)
        return (sorted(map(after, pos_out)) == sorted([p, *map(after, neg_out)])
                and sorted(map(apply, pos_in, args))
                == sorted([p, *map(apply, neg_in, args)]))

    return commutes, fixes


def identity_sum(L: Lattice, ring: Ring = ZZ) -> FormalSum:
    return embed(identity_map(L), ring)


def embed(jm: JoinMap, ring: Ring = ZZ) -> FormalSum:
    return FormalSum(ring, jm.source, jm.target, [(jm.values, 1)])


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
    return FormalSum._of(ZZ, L, L, terms)


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
    terms are taken as they come; `map_ring` gives j^B over another ring.
    """
    members = tuple(B)
    return FormalSum._of(ZZ, chain_lattice(len(members) - 1), L, dict(_sections(L, members)))


def f_of_chain(L: Lattice, B) -> FormalSum:
    """The idempotent f_B = j^B o pi^B attached to a top-ended chain B, over Z.

    Each section table of j^B is read through pi^B's table, and the terms
    are kept as they come: pi^B is surjective, so distinct sections stay
    distinct after it, and no coefficient is zero.
    """
    members = tuple(B)
    sections = _sections(L, members)
    pi = pi_of_chain(L, members).values
    return FormalSum._of(ZZ, L, L, {compose_tables(table, pi, L): c for table, c in sections})


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
    listed.  A table is keyed by an int whose bytes, in the machine's
    byte order, are the table as an array of values, one digit per
    element, of one byte on at most 256 elements and of two bytes above;
    `inside[b]` has digit 1 at each t <= b and is built the same way, so
    joining the block adds a * (inside[b] - inside[b']).  The elements
    are visited by the size of their down-sets, a linear extension; the
    picks are read off the support of `L.mobius_row(b')`; and only the
    keys of S(top) are decoded into tables.  With 1-byte digits the bytes
    of a key are its table.
    """
    n, down = L.n, L.down
    digits = "B" if L.table_type is bytes else "H"
    inside = [int.from_bytes(array(digits, [d >> t & 1 for t in range(n)]), sys.byteorder)
              for d in down]
    sums = [None] * n
    for b in sorted(range(n), key=lambda v: down[v].bit_count()):
        acc = {L.bottom * inside[b]: 1}
        for lo in bit_indices(down[b] & ~(1 << b)):
            values, support = L.mobius_row(lo)
            block = inside[b] - inside[lo]
            picks = [(a * block, -values[a]) for a in bit_indices(support & down[b])]
            _accumulate(None, acc, ((key + shift, c * m)
                                    for key, c in sums[lo].items() for shift, m in picks))
        sums[b] = acc
    if L.table_type is bytes:
        tables = (key.to_bytes(n, sys.byteorder) for key in sums[L.top])
    else:
        tables = (tuple(memoryview(key.to_bytes(2 * n, sys.byteorder)).cast("H"))
                  for key in sums[L.top])
    return FormalSum._of(ZZ, L, L, dict(zip(tables, sums[L.top].values())))
