"""The up-set bitmask kernel against brute-force order computations.

`Poset` validates its up-set masks, `Poset.from_covers` closes cover
lists and `Lattice` reads joins, meets and ends off the masks.  Each is
compared here with the direct definition: a triple-loop axiom scan of a
boolean table, a triple-loop Warshall closure, and a candidate search for
least upper and greatest lower bounds.  Tables are handed to `Poset` as
masks through `masks`.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from totlat.checks import DEFAULT_CORPUS
from totlat.errors import CycleDetected, NotALattice
from totlat.lattices import Lattice, generate
from totlat.posets import Poset

ORACLE_SPECS = list(DEFAULT_CORPUS) + ["divisor:60", "partition:4", "diamond:5"]


# -- brute-force definitions ----------------------------------------------


def masks(table):
    """The up-set masks of a boolean table: bit j of row i iff table[i][j]."""
    return [sum(1 << j for j, v in enumerate(row) if v) for row in table]


def first_fault(names, leq):
    """The first axiom a table breaks, as (exception type, message), or None.

    Reflexivity of row i, then for each j in order: antisymmetry of (i, j)
    and transitivity through j.
    """
    n = len(names)
    for i in range(n):
        if not leq[i][i]:
            return ValueError, "leq not reflexive"
        for j in range(n):
            if i != j and leq[i][j] and leq[j][i]:
                return CycleDetected, f"cycle through {names[i]} and {names[j]}"
            for k in range(n):
                if leq[i][j] and leq[j][k] and not leq[i][k]:
                    return ValueError, "leq not transitive"
    return None


def closure(n, pairs):
    """Reflexive-transitive closure of index pairs, by Warshall's triple loop."""
    leq = [[i == j for j in range(n)] for i in range(n)]
    for a, b in pairs:
        leq[a][b] = True
    for k, i, j in itertools.product(range(n), repeat=3):
        if leq[i][k] and leq[k][j]:
            leq[i][j] = True
    return leq


def bound(p, x, y, upper):
    """The least common upper (or greatest common lower) bound, or None."""
    if upper:
        cands = [z for z in range(p.n) if p.leq(x, z) and p.leq(y, z)]
        best = [z for z in cands if all(p.leq(z, w) for w in cands)]
    else:
        cands = [z for z in range(p.n) if p.leq(z, x) and p.leq(z, y)]
        best = [z for z in cands if all(p.leq(w, z) for w in cands)]
    return best[0] if len(best) == 1 else None


def first_missing_bound(p):
    """(x, y, which) for the first pair without a join or meet, or None."""
    for x in range(p.n):
        for y in range(x, p.n):
            for which, upper in (("join", True), ("meet", False)):
                if bound(p, x, y, upper) is None:
                    return p.names[x], p.names[y], which
    return None


def assert_matches_brute_force(L):
    p, n = L, L.n
    for x, y in itertools.product(range(n), repeat=2):
        assert L.join(x, y) == bound(p, x, y, True), (x, y)
        assert L.meet(x, y) == bound(p, x, y, False), (x, y)
    assert L.bottom == next(x for x in range(n) if all(p.leq(x, y) for y in range(n)))
    assert L.top == next(x for x in range(n) if all(p.leq(y, x) for y in range(n)))


# -- lattices -------------------------------------------------------------


@pytest.mark.parametrize("spec", ORACLE_SPECS)
def test_tables_and_ends_match_brute_force(spec):
    L = generate(spec)
    assert_matches_brute_force(L)
    assert_matches_brute_force(L.opposite())
    # down is the transpose of up, and it is the order of the opposite
    p, n = L, L.n
    assert p.down == tuple(
        sum(1 << x for x in range(n) if p.up[x] >> y & 1) for y in range(n)
    )
    assert L.opposite().up == L.down


@st.composite
def dag_posets(draw, max_size=7):
    """Random poset with edges from lower to higher index, closed; with
    probability one half a bottom and a top are forced, so that lattices
    turn up often."""
    n = draw(st.integers(min_value=1, max_value=max_size))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if draw(st.booleans())]
    if draw(st.booleans()):
        pairs += [(0, j) for j in range(n)] + [(i, n - 1) for i in range(n)]
    return Poset([f"e{i}" for i in range(n)], masks(closure(n, pairs)))


@given(dag_posets())
@settings(max_examples=150, deadline=None)
def test_lattice_matches_brute_force_or_names_first_missing_bound(p):
    missing = first_missing_bound(p)
    if missing is None:
        assert_matches_brute_force(Lattice(p.names, p.up))
    else:
        with pytest.raises(NotALattice) as info:
            Lattice(p.names, p.up)
        assert (info.value.x, info.value.y, info.value.which) == missing


# -- closure of cover lists -----------------------------------------------


@st.composite
def cover_lists(draw, max_size=6):
    """Random pairs over n labels: covers, redundant pairs and cycles alike."""
    n = draw(st.integers(min_value=1, max_value=max_size))
    index = st.integers(min_value=0, max_value=n - 1)
    return n, draw(st.lists(st.tuples(index, index), max_size=2 * n))


@given(cover_lists())
@settings(max_examples=150, deadline=None)
def test_from_covers_matches_brute_force_closure(case):
    n, pairs = case
    names = [f"v{i}" for i in range(n)]
    leq = closure(n, pairs)
    fault = first_fault(names, leq)
    covers = [(names[a], names[b]) for a, b in pairs]
    if fault is None:
        p = Poset.from_covers(names, covers)
        assert [[p.leq(i, j) for j in range(n)] for i in range(n)] == leq
    else:
        with pytest.raises(CycleDetected) as info:
            Poset.from_covers(names, covers)
        assert (CycleDetected, str(info.value)) == fault


# -- validation of hand-made tables ---------------------------------------

T, F = True, False
REFLEXIVE = (ValueError, "leq not reflexive")
TRANSITIVE = (ValueError, "leq not transitive")
BAD_TABLES = [
    ([[F, T], [F, T]], REFLEXIVE),
    ([[T, T], [T, T]], (CycleDetected, "cycle through x0 and x1")),
    # 0 <= 1 <= 2 without 0 <= 2
    ([[T, T, F], [F, T, T], [F, F, T]], TRANSITIVE),
    # two faults: the cycle (0, 1) comes before the missing 0 <= 2
    ([[T, T, F], [T, T, T], [F, F, T]], (CycleDetected, "cycle through x0 and x1")),
    # two faults: the missing 0 <= 2 comes before the cycle (1, 2)
    ([[T, T, F], [F, T, T], [F, T, T]], TRANSITIVE),
    # two faults: row 0 is intransitive before row 1 is irreflexive
    ([[T, T, F], [F, F, T], [F, F, T]], TRANSITIVE),
    # two faults: row 0 is irreflexive before the cycle (1, 2)
    ([[F, F, F], [F, T, T], [F, T, T]], REFLEXIVE),
    # a closed 3-cycle names its first pair
    ([[T, T, T], [T, T, T], [T, T, T]], (CycleDetected, "cycle through x0 and x1")),
    # a 3-cycle left open: 0 <= 1 and 1 <= 2 without 0 <= 2
    ([[T, T, F], [F, T, T], [T, F, T]], TRANSITIVE),
]
# shape faults no table has, as up-set masks over the labels x0, x1
SHAPE = (ValueError, "up-set masks have wrong shape")
BAD_MASKS = [
    ((0b01,), SHAPE),  # one mask for two labels
    ((0b01, -1), SHAPE),  # a negative mask
    ((0b01, 0b110), SHAPE),  # bit 2, beyond the two elements
]


@pytest.mark.parametrize("table, fault", BAD_TABLES + BAD_MASKS)
def test_bad_tables_raise_the_first_fault(table, fault):
    if isinstance(table, tuple):
        names, up = ["x0", "x1"], table
    else:
        names = [f"x{i}" for i in range(len(table))]
        assert first_fault(names, table) == fault
        up = masks(table)
    with pytest.raises(fault[0]) as info:
        Poset(names, up)
    assert type(info.value) is fault[0] and str(info.value) == fault[1]


@st.composite
def tables(draw, max_size=4):
    """Random boolean tables; half of them reflexive, so that the other
    faults are reached."""
    n = draw(st.integers(min_value=0, max_value=max_size))
    reflexive = draw(st.booleans())
    return [
        [(reflexive and i == j) or draw(st.booleans()) for j in range(n)]
        for i in range(n)
    ]


@given(tables())
@settings(max_examples=300, deadline=None)
def test_random_tables_raise_the_first_fault(table):
    names = [f"x{i}" for i in range(len(table))]
    fault = first_fault(names, table)
    if fault is None:
        p = Poset(names, masks(table))
        assert [[p.leq(i, j) for j in range(p.n)] for i in range(p.n)] == table
    else:
        with pytest.raises(fault[0]) as info:
            Poset(names, masks(table))
        assert type(info.value) is fault[0] and str(info.value) == fault[1]
