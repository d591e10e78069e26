import itertools
import random

import pytest

from totlat.algebra import j_upper
from totlat.checks import DEFAULT_CORPUS
from totlat.errors import (
    ChainNotInB,
    ChainNotInZ,
    FeasibilityLimit,
    NotJoinMorphism,
    SourceTargetMismatch,
)
from totlat.lattices import (
    Lattice,
    boolean_lattice,
    chain_lattice,
    generate,
    pentagon_lattice,
)
from totlat.morphisms import (
    JoinMap,
    alpha_of_chain,
    compose,
    enumerate_join_endomorphisms,
    has_chain_image,
    identity_map,
    image_chain,
    make_join_map,
    opposite_morphism,
    pi_of_chain,
    sample_join_endomorphisms,
)
from totlat.morphisms import _compiled, _extend_assignment, _kernel, _kernel_source
from totlat.posets import Chain, bit_indices
from totlat.serialize import parse_lattice_file


def z_chain(L, *labels):
    return tuple(L.index_of(s) for s in labels)


def test_identity_is_valid():
    L = boolean_lattice(2)
    assert make_join_map(L, L, range(L.n)) == identity_map(L)


def test_constant_bottom_is_valid():
    L = boolean_lattice(2)
    jm = make_join_map(L, L, [L.bottom] * L.n)
    assert jm == constant_bottom(L)


def test_collapsing_top_fails():
    L = boolean_lattice(2)
    a = L.index_of("a")
    table = list(range(L.n))
    table[L.top] = a  # fixes 0, a, b but sends top to a
    with pytest.raises(NotJoinMorphism):
        make_join_map(L, L, table)


@pytest.mark.parametrize("n, bad", [(2, 5), (2, -1), (2, 300), (300, 301), (300, -1)])
def test_values_outside_the_target_are_refused(n, bad):
    # above the top, below index 0 (which Python would read from the end)
    # and past one byte, on byte tables (chain:2) and on tuple tables
    # (chain:300, 301 elements); the last element gets the bad value
    L = chain_lattice(n)
    table = [*range(n), bad]
    with pytest.raises(ValueError, match=f"^table value {bad} at {n} is not an element"):
        make_join_map(L, L, table)


def test_compose_identity():
    L = boolean_lattice(2)
    for phi in enumerate_join_endomorphisms(L):
        assert compose(identity_map(L), phi) == phi
        assert compose(phi, identity_map(L)) == phi


def test_compose_constant():
    L = boolean_lattice(2)
    for phi in enumerate_join_endomorphisms(L):
        assert compose(constant_bottom(L), phi) == constant_bottom(L)


def test_compose_alphas_collapse():
    L = boolean_lattice(2)
    a1 = alpha_of_chain(L, z_chain(L, "0", "a", "ab"))
    a2 = alpha_of_chain(L, z_chain(L, "0", "b", "ab"))
    a3 = alpha_of_chain(L, z_chain(L, "0", "ab"))
    assert compose(a1, a2) == a3


def test_compose_mismatch():
    with pytest.raises(SourceTargetMismatch):
        compose(identity_map(chain_lattice(1)), identity_map(chain_lattice(2)))


def test_compose_associative():
    L = pentagon_lattice()
    endos = list(enumerate_join_endomorphisms(L))[:6]
    for f, g, h in itertools.product(endos, repeat=3):
        assert compose(compose(f, g), h) == compose(f, compose(g, h))


def test_opposite_of_identity():
    L = boolean_lattice(2)
    op = opposite_morphism(identity_map(L))
    assert op.values == bytes(range(L.n))
    assert op.source == L.opposite()


def test_opposite_involution_small():
    for spec in ("chain:2", "boolean:2", "diamond:3", "pentagon"):
        L = generate(spec)
        for phi in enumerate_join_endomorphisms(L):
            assert opposite_morphism(opposite_morphism(phi)) == phi


def test_opposite_alpha_direct_evaluation():
    # phi = retraction onto {0, top} on the diamond; its opposite sends
    # the opposite's bottom (=top) to top and the opposite's top (=0)
    # to the join of {t : phi(t) <= 0} = {0}, i.e. to 0
    L = boolean_lattice(2)
    phi = alpha_of_chain(L, z_chain(L, "0", "ab"))
    op = opposite_morphism(phi)
    assert op.values[L.top] == L.top
    assert op.values[L.bottom] == L.bottom


def test_opposite_surjective_sup_formula():
    L = boolean_lattice(2)
    for phi in enumerate_join_endomorphisms(L):
        if not phi.is_surjective():
            continue
        op = opposite_morphism(phi)
        for tp in range(L.n):
            fiber = [t for t in range(L.n) if phi.values[t] == tp]
            assert op.values[tp] == L.join_all(fiber)


def test_image_chain_identity_diamond():
    L = boolean_lattice(2)
    assert image_chain(identity_map(L)) is None


def test_image_chain_alpha():
    L = boolean_lattice(2)
    B = z_chain(L, "0", "a", "ab")
    img = image_chain(alpha_of_chain(L, B))
    assert img is not None and img.members == B


def test_image_chain_constant():
    L = boolean_lattice(2)
    img = image_chain(constant_bottom(L))
    assert img.members == (L.bottom,)


def test_alpha_two_point_chain():
    L = boolean_lattice(2)
    alpha = alpha_of_chain(L, z_chain(L, "0", "ab"))
    assert all(
        alpha.values[t] == (L.bottom if t == L.bottom else L.top)
        for t in range(L.n)
    )


def test_alpha_diamond_middle():
    L = boolean_lattice(2)
    alpha = alpha_of_chain(L, z_chain(L, "0", "a", "ab"))
    assert alpha.table_labels() == {"0": "0", "a": "a", "b": "ab", "ab": "ab"}


def test_alpha_full_chain_is_identity():
    L = chain_lattice(3)
    assert alpha_of_chain(L, tuple(range(4))) == identity_map(L)


def test_alpha_properties():
    for spec in ("boolean:2", "diamond:3", "pentagon", "divisor:12"):
        L = generate(spec)
        for B in L.chain_family("Z"):
            alpha = alpha_of_chain(L, B)
            assert all(L.leq(t, alpha.values[t]) for t in range(L.n))
            assert compose(alpha, alpha) == alpha
            assert image_chain(alpha).members == B.members


def test_alpha_converse():
    # every idempotent endo >= Id with chain image is the retraction onto it
    for spec in ("boolean:2", "pentagon"):
        L = generate(spec)
        for phi in enumerate_join_endomorphisms(L, tot_only=True):
            if compose(phi, phi) != phi:
                continue
            if not all(L.leq(t, phi.values[t]) for t in range(L.n)):
                continue
            assert phi == alpha_of_chain(L, image_chain(phi))


def test_alpha_needs_both_ends():
    L = boolean_lattice(2)
    with pytest.raises(ChainNotInZ):
        alpha_of_chain(L, z_chain(L, "0", "a"))
    with pytest.raises(ChainNotInZ):
        alpha_of_chain(L, z_chain(L, "a", "ab"))


def test_pi_identity_on_total_order():
    L = chain_lattice(1)
    pi = pi_of_chain(L, (0, 1))
    assert pi.values == bytes((0, 1))


def test_pi_diamond_upper_chain():
    L = boolean_lattice(2)
    pi = pi_of_chain(L, z_chain(L, "a", "ab"))
    assert pi.table_labels() == {"0": "0", "a": "0", "b": "1", "ab": "1"}


def test_pi_single_point():
    L = boolean_lattice(2)
    pi = pi_of_chain(L, (L.top,))
    assert set(pi.values) == {0}


def test_pi_needs_top():
    L = boolean_lattice(2)
    with pytest.raises(ChainNotInB):
        pi_of_chain(L, z_chain(L, "0", "a"))


def test_pi_opposite_recovers_chain():
    for spec in ("boolean:2", "pentagon", "divisor:12"):
        L = generate(spec)
        for B in L.chain_family("B"):
            op = opposite_morphism(pi_of_chain(L, B))
            assert tuple(op.values) == B.members


ORACLE_SPECS = list(DEFAULT_CORPUS) + ["divisor:60", "diamond:5", "partition:4"]


# -- the mask fast paths against pairwise and join_all oracles --------------


def constant_bottom(L):
    return JoinMap(L, L, (L.bottom,) * L.n)


def is_join_map(L, M, table):
    """True iff `make_join_map` accepts the table."""
    try:
        make_join_map(L, M, table)
        return True
    except NotJoinMorphism:
        return False


def image_chain_oracle(phi):
    """The image as a Chain, by a pairwise `comparable` scan, else None."""
    T = phi.target
    image = sorted(set(phi.values))
    for a, b in itertools.combinations(image, 2):
        if not T.comparable(a, b):
            return None
    ordered = tuple(sorted(image, key=lambda x: sum(T.leq(y, x) for y in image)))
    return Chain(ordered, T)


def opposite_morphism_oracle(phi):
    """t' -> the join, by `join_all`, of every t with phi(t) <= t'."""
    S, T = phi.source, phi.target
    values = tuple(
        S.join_all(t for t in range(S.n) if T.leq(phi.values[t], tp))
        for tp in range(T.n)
    )
    return JoinMap(T.opposite(), S.opposite(), values)


def opposite_morphism_fibre_oracle(phi):
    """t' -> the element whose down-set is the union of the fibres of the
    v <= t', each fibre a mask over the source; KeyError if it is none."""
    S, T = phi.source, phi.target
    fibre = [0] * T.n
    for t, v in enumerate(phi.values):
        fibre[v] |= 1 << t
    image = [(1 << v, f) for v, f in enumerate(fibre) if f]
    by_down = {mask: t for t, mask in enumerate(S.down)}
    values = []
    for below in T.down:
        union = 0
        for bit, f in image:
            if below & bit:
                union |= f
        values.append(by_down[union])
    return JoinMap(T.opposite(), S.opposite(), values)


MASK_SPECS = list(DEFAULT_CORPUS) + ["divisor:60", "diamond:5"]


@pytest.mark.parametrize("spec", MASK_SPECS)
def test_mask_paths_match_oracles_on_every_endomorphism(spec):
    L = generate(spec)
    for phi in enumerate_join_endomorphisms(L):
        chain = image_chain(phi)
        expected = image_chain_oracle(phi)
        assert has_chain_image(L, phi.values) == (expected is not None)
        assert (chain and chain.members) == (expected and expected.members)
        op = opposite_morphism(phi)
        assert op == opposite_morphism_oracle(phi) == opposite_morphism_fibre_oracle(phi)


@pytest.mark.parametrize("spec", MASK_SPECS)
def test_opposite_matches_oracle_on_index_surjections(spec):
    # source and target differ, and the index order of B = {top} is chain:0
    L = generate(spec)
    for B in L.chain_family("B"):
        pi = pi_of_chain(L, B)
        op = opposite_morphism(pi)
        assert op == opposite_morphism_oracle(pi) == opposite_morphism_fibre_oracle(pi)
    point = chain_lattice(0)
    pi = pi_of_chain(point, (0,))
    assert opposite_morphism(pi) == opposite_morphism_oracle(pi)


@pytest.mark.parametrize("spec", ["diamond:255", "chain:300"])
def test_opposite_past_one_byte(spec):
    # 257 and 301 elements: tables into them are tuples; the index order
    # of a chain of 257 or more members is itself past one byte
    L = generate(spec)
    top_ended = [(L.top,), tuple(range(1, L.n)) if spec == "chain:300" else (1, L.top)]
    maps = [identity_map(L), alpha_of_chain(L, (L.bottom, L.top))]
    maps += [pi_of_chain(L, B) for B in top_ended]
    for phi in maps:
        op = opposite_morphism(phi)
        assert op == opposite_morphism_oracle(phi) == opposite_morphism_fibre_oracle(phi)
        assert opposite_morphism(op) == phi


def test_opposite_of_a_table_that_is_no_join_map_raises_key_error():
    # on boolean:2, a and b go to a, so {t : phi(t) <= a} = {0, a, b},
    # which is the down-set of no element
    L = boolean_lattice(2)
    a = L.index_of("a")
    phi = JoinMap(L, L, [L.bottom, a, a, L.top])
    assert not is_join_map(L, L, phi.values)
    with pytest.raises(KeyError):
        opposite_morphism_fibre_oracle(phi)
    with pytest.raises(KeyError):
        opposite_morphism(phi)


@pytest.mark.parametrize("spec", MASK_SPECS + ["partition:4", "boolean:4"])
def test_has_chain_image_matches_oracle_on_random_tables(spec):
    # most random tables are not join-maps, nor even monotone
    L = generate(spec)
    rng = random.Random(spec)
    outcomes = set()
    for _ in range(300):
        table = [rng.randrange(L.n) for _ in range(rng.randint(1, L.n))]
        expected = image_chain_oracle(JoinMap(L, L, tuple(table))) is not None
        assert has_chain_image(L, table) == expected
        outcomes.add(expected)
    # one-entry tables are chains; on a lattice that is not a chain, so
    # are not all tables
    assert outcomes == ({True} if L.max_chain_length == L.n - 1 else {True, False})


@pytest.mark.parametrize("spec", ORACLE_SPECS)
def test_chain_maps_match_min_definitions(spec):
    L = generate(spec)
    for B in L.chain_family("B"):
        m = B.members
        pi = pi_of_chain(L, B)
        assert pi.target == chain_lattice(len(m) - 1)
        assert pi.values == bytes(
            min(p for p in range(len(m)) if L.leq(t, m[p])) for t in range(L.n)
        )
    for B in L.chain_family("Z"):
        least_above = []
        for t in range(L.n):
            above = [b for b in B if L.leq(t, b)]
            (least,) = [b for b in above if all(L.leq(b, c) for c in above)]
            least_above.append(least)
        assert alpha_of_chain(L, B).values == bytes(least_above)


# chains of boolean:9, by label: the full one, the two ends, one with
# gaps, and two that miss the bottom
BOOLEAN9_CHAINS = [
    ["0", "a", "ab", "abc", "abcd", "abcde", "abcdef", "abcdefg", "abcdefgh", "abcdefghi"],
    ["0", "abcdefghi"],
    ["0", "i", "bi", "bgi", "abcdefghi"],
    ["e", "ace", "abcdefghi"],
    ["abcdefghi"],
]


@pytest.mark.parametrize("spec", ["chain:300", "boolean:9"])
def test_chain_maps_past_one_byte(spec):
    # indices up to 300 on chain:300, and 512 elements on boolean:9: each
    # index is a 2-byte digit of a sum of outside digits
    L = generate(spec)
    if spec == "chain:300":
        chains = [tuple(range(L.n))]
    else:
        chains = [z_chain(L, *labels) for labels in BOOLEAN9_CHAINS]
    for members in chains:
        # the index of each element's least member above it, naively
        naive = [next(p for p, b in enumerate(members) if L.leq(t, b)) for t in range(L.n)]
        pi = pi_of_chain(L, members)
        assert pi.values == (bytes if len(members) <= 256 else tuple)(naive)
        assert pi.target == chain_lattice(len(members) - 1)
        if members[0] == L.bottom:
            assert alpha_of_chain(L, members).values == tuple(members[p] for p in naive)


@pytest.mark.parametrize("spec", list(DEFAULT_CORPUS) + ["divisor:60", "boolean:5"])
def test_alpha_reads_members_at_pi_indices(spec):
    L = generate(spec)
    for B in L.chain_family("Z"):
        members = B.members
        expected = bytes(members[p] for p in pi_of_chain(L, B).values)
        assert alpha_of_chain(L, B).values == expected


# -- the sections j_upper picks from a chain's step intervals ---------------


def sections(L, B):
    """The value tables of j_upper's sections over B, with their coefficients."""
    return dict(j_upper(L, B).terms)


def test_families_cover_chain():
    # every step a cover: each interval has 2 elements, so 2^n families,
    # and no Moebius value of a cover step vanishes
    L = boolean_lattice(2)
    B = z_chain(L, "0", "a", "ab")
    assert len(sections(L, B)) == 4


def test_families_two_point():
    L = chain_lattice(1)
    assert sorted(sections(L, (0, 1))) == [bytes((0, 0)), bytes((0, 1))]


def test_families_singleton():
    L = boolean_lattice(2)
    assert list(sections(L, (L.top,))) == [bytes((L.bottom,))]


def test_j_of_family_inclusion():
    L = boolean_lattice(2)
    B = z_chain(L, "0", "a", "ab")
    assert bytes((L.bottom,) + B[1:]) in sections(L, B)


def test_j_of_family_constant():
    L = chain_lattice(1)
    assert bytes((0, 0)) in sections(L, (0, 1))  # pick a_1 = 0


def test_j_of_family_point():
    L = boolean_lattice(2)
    j = j_upper(L, (L.top,))
    (table,) = j.terms
    assert j.source == chain_lattice(0) and table == bytes((L.bottom,))


def test_enumeration_counts():
    assert len(list(enumerate_join_endomorphisms(chain_lattice(1)))) == 2
    assert len(list(enumerate_join_endomorphisms(chain_lattice(0)))) == 1
    diamond = list(enumerate_join_endomorphisms(boolean_lattice(2)))
    assert len(diamond) == 16
    tot = list(enumerate_join_endomorphisms(boolean_lattice(2), tot_only=True))
    assert len(tot) == 14


def test_enumeration_matches_brute_force():
    # every valid raw table is produced by the irreducible enumeration
    for spec in ("chain:2", "boolean:2", "diamond:3", "pentagon"):
        L = generate(spec)
        brute = {
            bytes(values)
            for values in itertools.product(range(L.n), repeat=L.n)
            if is_join_map(L, L, values)
        }
        enumerated = {phi.values for phi in enumerate_join_endomorphisms(L)}
        assert enumerated == brute


def test_enumeration_deterministic():
    L = boolean_lattice(2)
    first = [phi.values for phi in enumerate_join_endomorphisms(L)]
    second = [phi.values for phi in enumerate_join_endomorphisms(L)]
    assert first == second


def test_binary_validation_matches_full_subset_check():
    # checking the empty join plus binary joins equals checking all subsets
    for spec in ("chain:2", "boolean:2", "pentagon"):
        L = generate(spec)
        for values in itertools.product(range(L.n), repeat=L.n):
            binary_ok = is_join_map(L, L, values)
            full_ok = all(
                values[L.join_all(sub)] == L.join_all(values[x] for x in sub)
                for r in range(L.n + 1)
                for sub in itertools.combinations(range(L.n), r)
            )
            assert binary_ok == full_ok


def test_ideal_closure():
    # composites with a chain-image endo keep a chain image
    for spec in ("boolean:2", "pentagon", "diamond:3"):
        L = generate(spec)
        tots = list(enumerate_join_endomorphisms(L, tot_only=True))
        alls = list(enumerate_join_endomorphisms(L))
        for alpha in tots:
            for phi in alls:
                assert image_chain(compose(alpha, phi)) is not None
                assert image_chain(compose(phi, alpha)) is not None


def test_sampling_is_deterministic_and_valid():
    L = generate("partition:4")
    a = sample_join_endomorphisms(L, 20, random.Random(7))
    b = sample_join_endomorphisms(L, 20, random.Random(7))
    assert [x.values for x in a] == [x.values for x in b]
    for phi in a:
        assert is_join_map(L, L, phi.values)


# -- the assignment schedule against the per-candidate method calls ---------


def _method_call_endomorphism(L, irr, assignment):
    """Extend by `join_all` over `leq`, then validate with `is_join_map`."""
    value_at = dict(zip(irr, assignment))
    ext = [L.join_all(value_at[j] for j in irr if L.leq(j, t)) for t in range(L.n)]
    if any(ext[j] != v for j, v in zip(irr, assignment)):
        return None
    return bytes(ext) if is_join_map(L, L, ext) else None


def _method_call_enumeration(L):
    irr = L.join_irreducibles()
    for assignment in itertools.product(range(L.n), repeat=len(irr)):
        values = _method_call_endomorphism(L, irr, assignment)
        if values is not None:
            yield values


def _method_call_sample(L, count, rng):
    irr = L.join_irreducibles()
    out = []
    while len(out) < count:
        values = _method_call_endomorphism(L, irr, [rng.randrange(L.n) for _ in irr])
        if values is not None:
            out.append(values)
    return out


@pytest.mark.parametrize(
    "spec", sorted(set(DEFAULT_CORPUS) | {"divisor:60", "diamond:5", "product:boolean:2,chain:1"})
)
def test_kernel_enumeration_matches_method_calls(spec):
    L = generate(spec)
    maps = list(enumerate_join_endomorphisms(L))
    assert [phi.values for phi in maps] == list(_method_call_enumeration(L))
    assert all(phi.source is L and phi.target is L for phi in maps)
    tot = [phi.values for phi in enumerate_join_endomorphisms(L, tot_only=True)]
    assert tot == [phi.values for phi in maps if image_chain_oracle(phi) is not None]


@pytest.mark.parametrize(
    "spec", sorted(set(DEFAULT_CORPUS) | {"divisor:60", "diamond:5", "boolean:4"})
)
def test_pruned_chain_image_enumeration_matches_filtered_enumeration(spec):
    L = generate(spec)
    filtered = [phi for phi in enumerate_join_endomorphisms(L)
                if has_chain_image(L, phi.values)]
    assert list(enumerate_join_endomorphisms(L, tot_only=True)) == filtered


def _relabelled(L, seed):
    """L with its elements renumbered by a seeded shuffle of the indices."""
    order = list(range(L.n))
    random.Random(seed).shuffle(order)  # new index i is old element order[i]
    new_index = {old: new for new, old in enumerate(order)}
    up = [sum(1 << new_index[y] for y in bit_indices(L.up[x])) for x in order]
    return Lattice([L.names[x] for x in order], up)


def _irreducibles_out_of_order(L):
    irr = L.join_irreducibles()
    return any(L.lt(irr[q], irr[p]) for p in range(len(irr)) for q in range(p + 1, len(irr)))


RELABELLED = ["chain:0", "divisor:60", "pentagon", "diamond:4",
              "product:boolean:2,chain:1", "partition:3"]


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("spec", RELABELLED)
def test_enumeration_order_matches_method_calls_after_relabelling(spec, seed):
    L = _relabelled(generate(spec), seed)
    maps = [phi.values for phi in enumerate_join_endomorphisms(L)]
    assert maps == list(_method_call_enumeration(L))
    tot = [phi.values for phi in enumerate_join_endomorphisms(L, tot_only=True)]
    assert tot == [v for v in maps if image_chain_oracle(JoinMap(L, L, v)) is not None]


@pytest.mark.parametrize("spec", ["divisor:60", "pentagon"])
def test_relabelling_takes_irreducibles_out_of_linear_extension_order(spec):
    # the depth-first schedule may not rely on an irreducible coming after
    # the irreducibles below it; the shuffles above exercise that
    assert not _irreducibles_out_of_order(generate(spec))
    assert any(_irreducibles_out_of_order(_relabelled(generate(spec), seed))
               for seed in range(3))


@pytest.mark.parametrize("spec, relabel_seed", [
    *(pytest.param(spec, None, id=spec)
      for spec in ("partition:4", "divisor:360", "diamond:8", "chain:0")),
    *(pytest.param(spec, seed, id=f"{spec}-relabelled-{seed}")
      for spec in RELABELLED for seed in range(3)),
])
def test_kernel_sampling_matches_method_calls(spec, relabel_seed):
    L = generate(spec)
    if relabel_seed is not None:
        # the sampler walks each draw along the search's schedule, which may
        # not rely on an irreducible coming after the irreducibles below it
        L = _relabelled(L, relabel_seed)
    for seed in range(5):
        drawn = sample_join_endomorphisms(L, 10, random.Random(seed))
        assert [phi.values for phi in drawn] == _method_call_sample(L, 10, random.Random(seed))


# -- the compiled kernel -----------------------------------------------------


# labels that are Python code, some of them names the kernel's source uses
CODE_LABELS = ['__import__("os").system("false")', "v0", "e1", "J", ")", "r0"]


def _code_labelled_file():
    """A six-element lattice file labelled by CODE_LABELS, and its twin
    labelled x0 ... x5: bottom < two atoms < their join < top, and a
    third atom below the top only."""
    covers = [(0, 1), (0, 2), (1, 3), (2, 3), (3, 5), (0, 4), (4, 5)]
    texts = []
    for labels in (CODE_LABELS, [f"x{i}" for i in range(6)]):
        lines = [f"elements: {' '.join(labels)}", "covers:"]
        lines += [f"{labels[a]} {labels[b]}" for a, b in covers]
        texts.append("\n".join(lines) + "\n")
    return texts


def test_code_labels_enumerate_like_their_relabelled_twin():
    coded, twin = (parse_lattice_file(text) for text in _code_labelled_file())
    assert list(coded.names) == CODE_LABELS
    # the source is the twin's, so it holds no label
    for nested in (True, False):
        assert _kernel_source(coded, nested) == _kernel_source(twin, nested)
    for tot_only in (False, True):
        maps = [phi.values for phi in enumerate_join_endomorphisms(coded, tot_only=tot_only)]
        assert maps == [phi.values for phi in enumerate_join_endomorphisms(twin, tot_only=tot_only)]
    assert [phi.values for phi in enumerate_join_endomorphisms(coded)] == list(
        _method_call_enumeration(coded))
    drawn = sample_join_endomorphisms(coded, 10, random.Random(3))
    assert [phi.values for phi in drawn] == [
        phi.values for phi in sample_join_endomorphisms(twin, 10, random.Random(3))]


def test_kernels_are_compiled_once_per_lattice():
    L = generate("divisor:60")
    assert _compiled(L, nested=True) is _compiled(L, nested=True)
    assert _compiled(L, nested=False) is _compiled(L, nested=False)
    assert _compiled(L, nested=True) is not _compiled(L, nested=False)
    # the opposite is another lattice, with kernels of its own
    assert _compiled(L.opposite(), nested=True) is not _compiled(L, nested=True)


def test_diamond_255_tester_compiles_and_enumerator_is_refused():
    # one straight-line function for 255 irreducibles and 32,385 pair
    # tests; the enumerator would nest 255 loops, past CPython's 20
    L = generate("diamond:255")
    irr = L.join_irreducibles()
    assert len(irr) == 255
    test = _compiled(L, nested=False)
    assert test(*irr) == tuple(range(L.n))
    assert test(*[L.bottom] * len(irr)) == (L.bottom,) * L.n
    swapped = [irr[1], irr[0], *irr[2:]]
    assert test(*swapped) == _extend_assignment(L, _kernel(L), swapped) is not None
    # two atoms to one: their join, the top, is not sent to it
    broken = [irr[1], *irr[1:]]
    assert test(*broken) is None is _extend_assignment(L, _kernel(L), broken)
    with pytest.raises(FeasibilityLimit, match="255 join-irreducibles"):
        next(enumerate_join_endomorphisms(L))


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("spec", RELABELLED + ["partition:4", "boolean:3"])
def test_compiled_tester_matches_extend_assignment(spec, seed):
    # on random assignments, nearly all refused, and on those of every map
    L = _relabelled(generate(spec), seed)
    schedule = _kernel(L)
    test = _compiled(L, nested=False)
    irr = L.join_irreducibles()
    rng = random.Random(seed)
    assignments = [[rng.randrange(L.n) for _ in irr] for _ in range(300)]
    assignments += [[phi.values[j] for j in irr]
                    for phi in itertools.islice(enumerate_join_endomorphisms(L), 300)]
    outcomes = set()
    for assignment in assignments:
        table = test(*assignment)
        assert table == _extend_assignment(L, schedule, assignment)
        outcomes.add(table is None)
    # on a Boolean lattice every assignment of the atoms extends
    every = spec in ("chain:0", "product:boolean:2,chain:1", "boolean:3")
    assert outcomes == ({False} if every else {False, True})


def test_join_map_equality_hash_and_repr():
    L = boolean_lattice(1)
    f = JoinMap(L, L, (0, 1))
    assert f == identity_map(L) and hash(f) == hash(bytes((0, 1)))
    assert f == JoinMap(boolean_lattice(1), boolean_lattice(1), (0, 1))
    assert f == JoinMap(L, L, b"\0\1") == JoinMap(L, L, [0, 1])
    assert f != JoinMap(L, L, (0, 0))
    assert repr(f) == "JoinMap(0:0,a:a)"
    # the same table between other lattices is another map, with the same hash
    C = chain_lattice(1)
    assert f != JoinMap(C, C, (0, 1)) and hash(JoinMap(C, C, (0, 1))) == hash(f)
    assert f != JoinMap(L, C, (0, 1)) and f != JoinMap(C, L, (0, 1))
    assert f != (0, 1) and f.__eq__((0, 1)) is NotImplemented
    assert len({f, identity_map(L), JoinMap(L, L, (0, 0))}) == 2
