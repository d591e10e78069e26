"""Join-morphisms between finite lattices.

A join-morphism preserves all joins including the empty one (bottom goes
to bottom).  For finite lattices, checking the empty join plus all binary
joins suffices, by induction on finite joins; `make_join_map` checks
exactly that, and tests cross-validate against full subset checking on
tiny lattices.  A `JoinMap` is built without validation; `compose` and
the retractions build theirs that way.  It is a plain class with
`__slots__`, not a frozen dataclass, so that building one costs three
attribute stores.  The enumerator and the sampler build none: a swept map
is its value table.

A value table lists, per source element, the index of its image in the
target.  Its type is the target's `table_type` (`as_table`): `bytes` when
the target has at most 256 elements, so that every value fits in a byte,
and a tuple of ints above that.  Byte tables of equal length sort as the
tuples of their values do, a composite of two of them is one
`bytes.translate` call, and a `bytes` object keeps its hash once
computed.  Tables are composed only here: one at a time by
`compose_tables`, and many, for the products of `algebra`, by the
`(prepare, read)` kit of `composition`, which prepares each outer table
once and makes one reader per inner table.

The per-map tests of the exhaustive sweeps read masks and whole tables:
a table has a chain image iff the mask of its values lies inside the
comparability mask of each value (`has_chain_image`), and the opposite
of a map reads the map's table through the 0/1 table of each down-set
of its target, one composite per element, and looks each composite up
among the down-set indicators of its source (`opposite_morphism`).  The
pairwise scan, the `join_all` form and the union of fibre masks they
replace are kept in the tests as their oracles.

Also provided: the surjection onto a chain's index total order and the
retraction onto the chain, both read off one sum of the members'
`Lattice.outside_digits()`, whose digit at t is t's index in the chain
(`_first_cover_marks`): on at most 256 elements the sum's bytes are the
surjection's table, and the retraction's is that table translated
through the members.  `algebra.idempotent_direct` carries that sum up
each chain it walks and reads the retraction's table off it the same
way.  The module also enumerates the join-endomorphism monoid
exhaustively via join-irreducibles.  The sections of the index order
that the family construction picks from a chain's step intervals are
built, with their weights, in `algebra.j_upper`; they increase by
construction and are not validated.

The enumerator and the sampler test assignments of values to the
join-irreducibles against one schedule of tests, built by `_kernel`.  Per
irreducible position it holds the elements whose extension that position
completes, each with the shallower positions below it; the irreducibles
whose extension must equal their own value; and the incomparable pairs
whose join the extension must preserve.  Each test sits at the deepest
position it reads, and costs only join-table lookups.  It is the same
test that `make_join_map` makes, which stays apart from the schedule as
the validator of outside tables and the oracle of the tests.

The schedule is compiled into Python once per lattice and kept on it
(`_compiled`): the enumerator is one nested `for` per position, and the
sampler's tester one straight-line function.  The generated source makes
one join-table lookup per statement and holds only integer literals and
fixed names, never a label.  The enumerator searches the assignments
depth first, one position per loop, so a failing prefix is cut with all
its extensions: the search costs in proportion to the prefixes that
pass, not to all n ** k assignments.  Asked for the maps with a chain
image only, it also skips every value not comparable with those already
assigned; the full enumeration runs the same function with masks that
skip nothing.  The tester returns at the first position that fails.
`_extend_assignment` walks the schedule itself, uncompiled, as the
tester's oracle.
"""

from __future__ import annotations

import sys
from operator import attrgetter, itemgetter

from .errors import (
    ChainNotInB,
    ChainNotInZ,
    FeasibilityLimit,
    NotJoinMorphism,
    SourceTargetMismatch,
)
from .lattices import _BIT_BYTES, Lattice, chain_lattice
from .posets import Chain


class JoinMap:
    """A join-morphism stored as a total value table (source index -> target index).

    The table is stored as `as_table(target, values)`, so any sequence of
    target indices may be given.  Equal when the values, source and
    target are; hashed on the values.  Not to be mutated: `values` is the
    hash key.
    """

    __slots__ = ("source", "target", "values")

    def __init__(self, source: Lattice, target: Lattice, values):
        self.source = source
        self.target = target
        self.values = as_table(target, values)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        # the values first: a value table is the cheapest to compare
        return (
            self.values == other.values
            and self.source == other.source
            and self.target == other.target
        )

    def __hash__(self):
        return hash(self.values)

    def is_surjective(self):
        return len(set(self.values)) == self.target.n

    def table_labels(self):
        return {
            self.source.names[x]: self.target.names[v]
            for x, v in enumerate(self.values)
        }

    def __repr__(self):
        pairs = ",".join(f"{s}:{t}" for s, t in self.table_labels().items())
        return f"JoinMap({pairs})"


def make_join_map(source: Lattice, target: Lattice, table) -> JoinMap:
    """Validate a value table as a join-morphism.

    `table` is a sequence of target indices, one per source element.
    Raises ValueError if it is not total on the source or holds a value
    that indexes no target element, and NotJoinMorphism with the first
    violating pair (bottom violations are reported as the pair (bottom,
    bottom)).
    """
    values = list(table)
    if len(values) != source.n:
        raise ValueError("table is not total on the source lattice")
    for x, v in enumerate(values):
        if not 0 <= v < target.n:
            raise ValueError(
                f"table value {v!r} at {source.names[x]} is not an element of the target"
            )
    if values[source.bottom] != target.bottom:
        raise NotJoinMorphism(source.names[source.bottom], source.names[source.bottom])
    for x in range(source.n):
        for y in range(x, source.n):
            if values[source.join(x, y)] != target.join(values[x], values[y]):
                raise NotJoinMorphism(source.names[x], source.names[y])
    return JoinMap(source, target, values)


def as_table(target: Lattice, values):
    """The value table of a map into `target` with these values.

    Of the target's `table_type`: `bytes` if the target has at most 256
    elements, else a tuple; a table already of that type is returned as
    it is.
    """
    table = target.table_type
    return values if values.__class__ is table else table(values)


def compose_tables(g, f, target: Lattice):
    """The table of g o f, for a table f and a table g into `target`.

    If both are `bytes`, each value of f indexes g, which then has at
    most 256 entries, so the composite is f translated through g padded
    to 256 bytes.  Otherwise g is read at each value of f
    (`table_getter`) and the result stored as `as_table` stores it.
    """
    if f.__class__ is bytes and g.__class__ is bytes:
        return f.translate(translation(g))
    return as_table(target, table_getter(f)(g))


def translation(table):
    """A byte table of at most 256 entries as the 256 bytes `bytes.translate` reads."""
    return table.ljust(256, b"\0")


def composition(source: Lattice, target: Lattice):
    """(prepare, read) for the value tables of maps g: source -> target.

    prepare(g) is called once per table g, and read(p), for a table p
    into `source`, takes a prepared g to the table of g o p, as
    `compose_tables(g, p, target)` makes it.  Between byte tables,
    prepare is `translation` and read(p) is `p.translate`, so read builds
    nothing and each composite is one `bytes.translate` call.  Otherwise
    prepare is the target's `table_type`, and read(p) reads g through
    `table_getter(p)` and stores the result as that type: `pi * j` above
    256 elements reads a byte table through tuples.
    """
    if source.table_type is bytes and target.table_type is bytes:
        return translation, attrgetter("translate")
    table = target.table_type

    def read(p):
        get = table_getter(p)
        return lambda g: table(get(g))

    return table, read


def identity_map(L: Lattice) -> JoinMap:
    return JoinMap(L, L, range(L.n))


def compose(g: JoinMap, f: JoinMap) -> JoinMap:
    """g after f.  Composites of join-morphisms need no re-validation."""
    if f.target != g.source:
        raise SourceTargetMismatch("f.target differs from g.source")
    return JoinMap(f.source, g.target, compose_tables(g.values, f.values, g.target))


def opposite_morphism(phi: JoinMap) -> JoinMap:
    """The adjoint companion: t' -> join of all t with phi(t) <= t'.

    A join-morphism from the opposite of the target to the opposite of the
    source; applying it twice returns the original map.  The t with
    phi(t) <= t' are those at which phi's table, read through the 0/1
    table of t''s down-set, reads 1.  phi preserves joins, so they form
    the principal down-set of their join, which the source's dict from
    down-set indicator to element names.  For a table that is not a
    join-map they may form no principal down-set; the lookup then raises
    KeyError.
    """
    S, T = phi.source, phi.target
    downs, _, read = _down_indicators(T)
    element_of = _down_indicators(S)[1]
    values = map(element_of.__getitem__, map(read(phi.values), downs))
    return JoinMap(T.opposite(), S.opposite(), values)


def _down_indicators(L: Lattice):
    """(downs, element_of, read) for L, built on first use and kept on L.

    The 0/1 table of each element's down-set is a map from L into the
    two-element chain.  `downs` holds them prepared by the `composition`
    kit of such maps, whose `read` reads them through a table into L;
    `element_of` holds each element under its own table.
    """
    if L._indicators is None:
        indicators = [
            format(d, f"0{L.n}b")[::-1].encode().translate(_BIT_BYTES) for d in L.down
        ]
        prepare, read = composition(L, chain_lattice(1))
        L._indicators = (
            tuple(map(prepare, indicators)),
            {table: t for t, table in enumerate(indicators)},
            read,
        )
    return L._indicators


def has_chain_image(L: Lattice, values) -> bool:
    """True iff the elements of L in `values` are pairwise comparable.

    The values are ORed into one mask; they form a chain iff the mask lies
    inside the comparability mask of each of them.
    """
    image = set(values)
    mask = 0
    for v in image:
        mask |= 1 << v
    comparable = L._comparable
    for v in image:
        if mask & ~comparable[v]:
            return False
    return True


def image_chain(phi: JoinMap):
    """The image as a Chain of the target if totally ordered, else None.

    Each member is ranked by how many members lie below it, counted on
    the image mask.
    """
    T = phi.target
    image = set(phi.values)
    if not has_chain_image(T, image):
        return None
    mask = sum(1 << v for v in image)
    down = T.down
    ordered = sorted(image, key=lambda v: (down[v] & mask).bit_count())
    return Chain(tuple(ordered), T)


def alpha_of_chain(L: Lattice, B) -> JoinMap:
    """Retraction onto a bottom-to-top chain B: t -> min{b in B : b >= t}.

    Idempotent, pointwise >= identity, image exactly B.  The least member
    above t is the member at t's index under `pi_of_chain`, read off the
    same sum of outside digits.
    """
    members = tuple(B)
    if not members or members[0] != L.bottom or members[-1] != L.top:
        raise ChainNotInZ("chain must contain both bottom and top")
    return JoinMap(L, L, retraction_table(L, members, _digit_sum(L, members)))


def pi_of_chain(L: Lattice, B) -> JoinMap:
    """Surjection onto the index total order determined by a top-ended chain B.

    With B = {b_0 < ... < b_n = top}, sends t to the least p with t <= b_p.
    """
    members = tuple(B)
    if not members or members[-1] != L.top:
        raise ChainNotInB("chain must contain the top element")
    marks = _first_cover_marks(L, _digit_sum(L, members))
    return JoinMap(L, chain_lattice(len(members) - 1), marks)


def retraction_table(L: Lattice, members, total):
    """The table of alpha_B for B = members, a bottom-to-top chain.

    `total` is the sum of the members' `L.outside_digits()`, which the
    walk of `algebra.idempotent_direct` carries up the chain as it goes.
    The table is the members, as a table of the index chain into L, read
    at each element's mark.
    """
    return compose_tables(L.table_type(members), _first_cover_marks(L, total), L)


def _digit_sum(L: Lattice, members):
    return sum(map(L.outside_digits().__getitem__, members))


def _first_cover_marks(L: Lattice, total):
    """Each element's index in a chain B that ends at the top, from `total`.

    `total` is the sum of B's members' `L.outside_digits()`, so its digit
    at t counts the members whose down-set misses t: the index of the
    least member above t.  On at most 256 elements the digits are bytes,
    and the int's bytes are the marks; above that they are read back as
    an array of 2-byte integers.  Neither takes a step per element in
    Python.
    """
    if L.table_type is bytes:
        return total.to_bytes(L.n, sys.byteorder)
    return tuple(memoryview(total.to_bytes(2 * L.n, sys.byteorder)).cast("H"))


def table_getter(f):
    """The function g -> g o f on value tables, as one C-level call.

    On a one-element source `itemgetter` returns the entry, not a tuple,
    so there the entry is wrapped.
    """
    get = itemgetter(*f)
    if len(f) == 1:
        return lambda g: (get(g),)
    return get


def enumerate_join_endomorphisms(L: Lattice, tot_only=False):
    """The value tables of all join-endomorphisms, each exactly once, by
    join-irreducible assignment: a generator of tables of `L.table_type`.

    A join-endomorphism is determined by its values on join-irreducibles;
    each assignment extends by t -> join of the assigned values below t,
    and is kept iff its extension agrees with it on every irreducible and
    passes the join-morphism check.  The assignments are searched depth
    first by L's compiled enumerator (`_compiled`), one nested loop per
    irreducible position, trying values in ascending order, so the maps
    come in lexicographic order over assignments, the order of
    `itertools.product`.  Every test reads only positions up to the loop
    in which `_kernel`'s schedule holds it, so a prefix that fails one
    fails every assignment that extends it, and its subtree is cut.

    With `tot_only`, only the maps whose image is a chain are yielded.
    The image is the irreducibles' values, their joins and bottom, so it
    is a chain iff those values are pairwise comparable.  Each loop
    carries the AND of the comparability masks of the values assigned so
    far and skips every value outside it, so no other map is built; the
    maps come in the same order as the full enumeration's.  The full
    enumeration runs the same loops with every mask all ones.
    """
    # the values a later position may take given a value here: those
    # comparable with it for chain images, any value otherwise
    narrow = L._comparable if tot_only else ((1 << L.n) - 1,) * L.n
    return _compiled(L, nested=True)(narrow)


def _compiled(L: Lattice, nested):
    """L's schedule compiled into Python: the enumerator if `nested`, else
    the tester; built on first use and kept on L.

    Both are made by `make(J, T, R)` from L's join table, its
    `table_type` and `range(L.n)`.  The enumerator takes the per-value
    masks of `enumerate_join_endomorphisms` and yields the tables; the
    tester takes one value per irreducible position and returns the table
    or None, as `_extend_assignment` does.  A lattice with more
    irreducibles than CPython nests loops (about 20) has no enumerator,
    and FeasibilityLimit says so; the sweeps' gate keeps k <= 7.
    """
    kernel = L._kernels.get(nested)
    if kernel is None:
        try:
            code = compile(_kernel_source(L, nested), "<totlat kernel>", "exec")
        except SyntaxError:
            raise FeasibilityLimit(
                f"{len(L.join_irreducibles())} join-irreducibles nest more loops "
                f"than Python compiles"
            ) from None
        namespace = {}
        exec(code, namespace)
        kernel = L._kernels[nested] = namespace["make"](L._join, L.table_type, range(L.n))
    return kernel


def _kernel_source(L: Lattice, nested):
    """The source of `_compiled`'s `make`, from `_kernel`'s schedule.

    Position d's value is `v{d}` and element t's extension `e{t}`; each
    statement makes one join-table lookup.  The join of an element's
    shallower positions is built a position at a time, each prefix once
    and as soon as its last position has a value, and held with its
    join-table row, so that the element's position finishes it by one
    lookup.  Nested, position d is a `for` over R that skips the values
    outside the mask `a{d}` and `continue`s at a failing test; straight,
    the positions follow one another and a failing test returns None.
    The source holds integer literals and these names only, never a
    label.
    """
    schedule = _kernel(L)
    k = len(schedule)
    hoisted = [[] for _ in range(k)]
    joins, rows = {}, {}

    def row_of(positions):
        # the name of the row of J at the join of v_p, p in `positions`,
        # each prefix joined at the body of its last position
        name = f"v{positions[0]}"
        for i in range(2, len(positions) + 1):
            prefix = positions[:i]
            known = joins.get(prefix)
            if known is None:
                known = joins[prefix] = f"s{len(joins)}"
                hoisted[prefix[-1]].append(f"{known} = J[{name}][v{prefix[-1]}]")
            name = known
        row = rows.get(positions)
        if row is None:
            row = rows[positions] = f"r{len(rows)}"
            hoisted[positions[-1]].append(f"{row} = J[{name}]")
        return row

    fail = "continue" if nested else "return None"
    bodies, extended = [], {}
    for d, (extend, fixed, pairs) in enumerate(schedule):
        body = []
        for t, shallower in extend:
            # with no shallower position, the extension is the value itself
            extended[t] = f"e{t}" if shallower else f"v{d}"
            if shallower:
                body.append(f"e{t} = {row_of(shallower)}[v{d}]")
        body += [f"if {extended[j]} != v{p}: {fail}" for j, p in fixed
                 if extended[j] != f"v{p}"]
        body += [f"if {extended[xy]} != J[{extended[x]}][{extended[y]}]: {fail}"
                 for x, y, xy in pairs]
        bodies.append(body)
    values = ", ".join(extended.get(t, str(L.bottom)) for t in range(L.n))
    table = f"T(({values},))"

    if nested:
        lines = ["def make(J, T, R):", "    def kernel(N):"]
        for d, body in enumerate(bodies):
            pad = "    " * (d + 2)
            lines.append(f"{pad}for v{d} in R:")
            inner = pad + "    "
            if d:
                lines.append(f"{inner}if not a{d} >> v{d} & 1: continue")
            lines += [inner + line for line in body]
            if d + 1 < k:
                narrowed = f"N[v{d}]" if d == 0 else f"a{d} & N[v{d}]"
                lines.append(f"{inner}a{d + 1} = {narrowed}")
            lines += [inner + line for line in hoisted[d]]
        lines.append("    " * (k + 2) + f"yield {table}")
    else:
        params = ", ".join(f"v{d}" for d in range(k))
        lines = ["def make(J, T, R):", f"    def kernel({params}):"]
        for d, body in enumerate(bodies):
            lines += ["        " + line for line in body + hoisted[d]]
        lines.append(f"        return {table}")
    lines.append("    return kernel")
    return "\n".join(lines) + "\n"


def _kernel(L: Lattice):
    """L's tests of irreducible assignments, scheduled by the positions they read.

    One entry per position of `L.join_irreducibles()`, each holding the
    tests whose deepest position read is it: the elements to extend, each
    with its shallower positions; the irreducibles with their positions;
    and the incomparable pairs (x, y, x v y).  An element's extension reads
    the positions below it; the test at an irreducible j reads those and
    j's own position, which is one of them; a pair test reads ext at x, y
    and x v y, and the positions below x and y lie below x v y.  So each
    test is held at the depth of the deepest position below the element it
    tests, whatever order the irreducibles come in.  Only bottom has no
    position below it; it extends to bottom and is no test's x v y.
    """
    irr = L.join_irreducibles()
    below = [
        tuple(p for p, j in enumerate(irr) if L.down[t] >> j & 1) for t in range(L.n)
    ]
    join = L._join
    pairs = [
        (x, y, join[x][y])
        for x in range(L.n)
        for y in range(x + 1, L.n)
        if not L.comparable(x, y)
    ]
    deepest = [max(positions, default=-1) for positions in below]
    return tuple(
        (
            tuple((t, below[t][:-1]) for t in range(L.n) if deepest[t] == d),
            tuple((j, p) for p, j in enumerate(irr) if deepest[j] == d),
            tuple(pair for pair in pairs if deepest[pair[2]] == d),
        )
        for d in range(len(irr))
    )


def _extend_assignment(L: Lattice, schedule, assignment):
    """The value table an irreducible assignment determines, or None.

    The oracle of the compiled tester (`_compiled`) in the tests.  The
    assignment is walked along the schedule, one position at a time, and
    None comes at the first position where the extension disagrees with
    the assignment on an irreducible or fails the join-morphism check.  The extension sends bottom to bottom and is
    monotone, so only incomparable pairs can break
    `ext(x v y) = ext(x) v ext(y)`; the check is `make_join_map`'s, read
    off the tables.
    """
    join, bottom = L._join, L.bottom
    ext = [bottom] * L.n
    for v, (extend, fixed, pairs) in zip(assignment, schedule):
        for t, shallower in extend:
            acc = bottom
            for p in shallower:
                acc = join[acc][assignment[p]]
            ext[t] = join[acc][v]
        for j, p in fixed:
            if ext[j] != assignment[p]:
                return None
        for x, y, xy in pairs:
            if ext[xy] != join[ext[x]][ext[y]]:
                return None
    return as_table(L, ext)


def sample_join_endomorphisms(L: Lattice, count, rng):
    """The value tables of `count` join-endomorphisms, drawn by uniform
    irreducible assignment.

    Rejection sampling; deterministic for a fixed rng state.  Each attempt
    draws its whole assignment before any test, and L's compiled tester
    (`_compiled`) takes it.  A value is drawn as `rng.randrange(L.n)`
    draws it, by rejecting `getrandbits` values of n's bit length that
    reach n, so the stream is the same without the method's per-call
    overhead.
    """
    test = _compiled(L, nested=False)
    positions = range(len(L.join_irreducibles()))
    n = L.n
    bits = n.bit_length()
    getrandbits = rng.getrandbits
    out = []
    while len(out) < count:
        assignment = []
        for _ in positions:
            v = getrandbits(bits)
            while v >= n:
                v = getrandbits(bits)
            assignment.append(v)
        values = test(*assignment)
        if values is not None:
            out.append(values)
    return out
