import functools
import itertools
import math
import operator
import random
from fractions import Fraction

import pytest

import totlat.algebra as algebra
from totlat.algebra import (
    FormalSum,
    Ring,
    ZZ,
    embed,
    f_of_chain,
    idempotent_direct,
    idempotent_original,
    j_upper,
    map_products,
    mu_chain_infinity,
    mu_chain_infinity_oracle,
)
from totlat.checks import DEFAULT_CORPUS
from totlat.errors import (
    ChainNotInA,
    ChainNotInB,
    FeasibilityLimit,
    SignatureMismatch,
    SourceTargetMismatch,
    UnsupportedRing,
)
from totlat.lattices import boolean_lattice, chain_lattice, generate
from totlat.morphisms import (
    JoinMap,
    alpha_of_chain,
    compose,
    enumerate_join_endomorphisms,
    identity_map,
    make_join_map,
    pi_of_chain,
)

SMALL_CORPUS = ["chain:0", "chain:3", "boolean:2", "diamond:3", "pentagon",
                "divisor:12", "partition:3"]


def z_chain(L, *labels):
    return tuple(L.index_of(s) for s in labels)


def constant_bottom(L):
    return JoinMap(L, L, (L.bottom,) * L.n)


# -- rings ----------------------------------------------------------------


def test_ring_parse():
    assert Ring.parse("int") == ZZ
    assert Ring.parse("mod:5") == Ring("mod", 5)
    assert Ring.parse("rat") == Ring("rat")
    with pytest.raises(UnsupportedRing):
        Ring.parse("float")
    with pytest.raises(UnsupportedRing):
        Ring.parse("mod:1")
    with pytest.raises(UnsupportedRing):
        Ring.parse("mod:x")


def test_ring_equality_hash_and_repr():
    assert Ring.parse("mod:3") == Ring("mod", 3)
    assert hash(Ring.parse("mod:3")) == hash(Ring("mod", 3)) == hash(("mod", 3))
    assert repr(Ring("mod", 3)) == "Ring(kind='mod', modulus=3)"
    assert repr(ZZ) == "Ring(kind='int', modulus=None)"
    assert Ring("mod", 3) != Ring("mod", 5) and Ring("rat") != ZZ
    assert Ring("int") != ("int", None)
    assert len({Ring("int"), ZZ, Ring.parse("int"), Ring("rat")}) == 2
    for kind, modulus in (("float", None), ("mod", None), ("mod", 1), ("mod", -3),
                          ("mod", 2.5), ("mod", 4.0), ("mod", "3"), ("int", 3), ("rat", 2)):
        with pytest.raises(UnsupportedRing):
            Ring(kind, modulus)


@pytest.mark.parametrize("text", ["mod:1_1", "mod:\u0663", "mod:+5", "mod: 3"])
def test_ring_parse_takes_ascii_digits_only(text):
    # int() would read these as 11, 3, 5 and 3
    with pytest.raises(UnsupportedRing, match="bad modulus"):
        Ring.parse(text)


def test_ring_coerce():
    assert Ring("mod", 3).coerce(-1) == 2
    assert Ring("rat").coerce(2) == Fraction(2)
    assert ZZ.coerce(Fraction(4, 2)) == 2
    with pytest.raises(UnsupportedRing):
        ZZ.coerce(Fraction(1, 2))


@pytest.mark.parametrize("ring", [ZZ, Ring("mod", 3)])
def test_ring_coerce_refuses_to_truncate(ring):
    for value in (2.5, -0.5, float("nan"), float("inf"), Fraction(5, 2)):
        with pytest.raises(UnsupportedRing):
            ring.coerce(value)
    assert ring.coerce(Fraction(4, 2)) == 2
    assert ring.coerce(2.0) == 2
    assert ring.coerce(True) == 1


# -- formal sums ----------------------------------------------------------


def test_sum_add_zero():
    L = boolean_lattice(2)
    a = embed(identity_map(L))
    assert a + FormalSum(ZZ, L, L) == a


def test_sum_cancel():
    L = boolean_lattice(2)
    a = embed(identity_map(L))
    assert (a + a.scale(-1)).is_zero()


def test_sum_plus_negation_stores_no_terms():
    L = generate("pentagon")
    for ring in (ZZ, Ring("mod", 3), Ring("rat")):
        x = idempotent_direct(L).map_ring(ring)
        assert x.terms
        total = x + (-x)
        assert total.is_zero() and total.terms == {}


def test_sum_cancelling_term_by_term_stores_no_terms():
    L = boolean_lattice(2)
    a = identity_map(L).values
    b = alpha_of_chain(L, z_chain(L, "0", "a", "ab")).values
    s = FormalSum(ZZ, L, L, [(a, 1), (b, 2), (a, -1), (b, -2)])
    assert s.is_zero() and s.terms == {}
    s = FormalSum(Ring("mod", 2), L, L, [(a, 1), (b, 3), (a, 1), (b, 1)])
    assert s.is_zero() and s.terms == {}
    # a key that cancels and comes back holds only its new coefficient
    s = FormalSum(ZZ, L, L, [(a, 1), (a, -1), (a, 5)])
    assert s.terms == {a: 5}


def test_total_of_sums():
    L = boolean_lattice(2)
    x = embed(identity_map(L))
    y = idempotent_direct(L)
    assert FormalSum.total(ZZ, L, L, []) == FormalSum(ZZ, L, L)
    assert FormalSum.total(ZZ, L, L, iter([x, y, -x])) == y
    assert FormalSum.total(ZZ, L, L, [x, -x]).terms == {}


def test_total_signature_mismatch():
    L = boolean_lattice(2)
    with pytest.raises(SignatureMismatch):
        FormalSum.total(ZZ, L, L, [embed(identity_map(L), Ring("rat"))])
    with pytest.raises(SignatureMismatch):
        FormalSum.total(ZZ, L, L, [embed(identity_map(chain_lattice(2)))])


def test_sum_characteristic_two():
    L = boolean_lattice(2)
    ring = Ring("mod", 2)
    alpha = embed(alpha_of_chain(L, z_chain(L, "0", "ab")), ring)
    assert alpha.scale(2).is_zero()


def test_sum_signature_mismatch():
    with pytest.raises(SignatureMismatch):
        embed(identity_map(chain_lattice(1))) + embed(identity_map(chain_lattice(2)))
    with pytest.raises(SignatureMismatch):
        embed(identity_map(chain_lattice(1))) + embed(
            identity_map(chain_lattice(1)), Ring("mod", 2)
        )


def test_mul_identity_neutral():
    L = boolean_lattice(2)
    one = embed(identity_map(L))
    e = idempotent_direct(L)
    assert one * e == e
    assert e * one == e


def test_mul_collapsing_alphas():
    L = boolean_lattice(2)
    a1 = embed(alpha_of_chain(L, z_chain(L, "0", "a", "ab")))
    a2 = embed(alpha_of_chain(L, z_chain(L, "0", "b", "ab")))
    short = embed(alpha_of_chain(L, z_chain(L, "0", "ab")))
    assert (a1 + a2) * short == short.scale(2)


def test_mul_bilinear():
    L = boolean_lattice(2)
    a = embed(alpha_of_chain(L, z_chain(L, "0", "a", "ab")))
    b = embed(constant_bottom(L)).scale(3)
    f = idempotent_direct(L)
    assert (a + b) * f == a * f + b * f
    assert f * (a + b) == f * a + f * b


def test_mul_source_target_mismatch():
    with pytest.raises(SourceTargetMismatch):
        embed(identity_map(chain_lattice(1))) * embed(identity_map(chain_lattice(2)))


@pytest.mark.parametrize("spec", list(DEFAULT_CORPUS) + ["divisor:60"])
def test_products_compose_tables_as_compose_does(spec):
    # compose is the oracle: (x * y) holds x's maps after y's, term by term
    L = generate(spec)
    e = idempotent_direct(L)
    terms = e.sorted_terms()
    for table in itertools.islice(enumerate_join_endomorphisms(L), 200):
        phi = JoinMap(L, L, table)
        s = embed(phi)
        after = [(compose(a, phi).values, c) for a, c in terms]
        before = [(compose(phi, a).values, c) for a, c in terms]
        assert e * s == FormalSum(ZZ, L, L, after)
        assert s * e == FormalSum(ZZ, L, L, before)
        # e is central, so single terms pin the direction of the product
        for a, _ in terms:
            assert embed(a) * s == embed(compose(a, phi))
            assert s * embed(a) == embed(compose(phi, a))


def product_oracle(x, y):
    """x * y, each composite table built by a list comprehension."""
    return FormalSum(x.ring, y.source, x.target, [
        (tuple([g[v] for v in f]), cg * cf)
        for g, cg in x.terms.items()
        for f, cf in y.terms.items()
    ])


@pytest.mark.parametrize("spec, ring", [
    (spec, ring)
    for spec in list(DEFAULT_CORPUS) + ["divisor:60"]
    for ring in ["int", "mod:2", "mod:3", "rat"]
] + [("diamond:255", "int")])
def test_products_match_list_comprehension_oracle(spec, ring):
    # e with itself and with maps, and the family's j^B, pi^B and f_B,
    # among them j^{top} and pi^{top}, whose source or target is chain:0.
    # diamond:255 has 257 elements, so its tables into L are tuples and
    # pi * j reads byte tables through tuples; it gets no maps, as the
    # enumerator's search barely prunes on a diamond
    ring = Ring.parse(ring)
    L = generate(spec)
    e = idempotent_direct(L).map_ring(ring)
    pairs = [(e, e)]
    maps = enumerate_join_endomorphisms(L) if L.table_type is bytes else ()
    for phi in itertools.islice(maps, 50):
        s = embed(JoinMap(L, L, phi), ring)
        pairs += [(e, s), (s, e), (s, s)]
    for B in L.chain_family("B"):
        j, pi = j_upper(L, B).map_ring(ring), embed(pi_of_chain(L, B), ring)
        f = j * pi
        pairs += [(j, pi), (pi, j), (f, f), (pi, f), (f, j)]
    assert any(y.source.n == 1 for _, y in pairs)
    for x, y in pairs:
        product = x * y
        assert list(product.terms.items()) == list(product_oracle(x, y).terms.items())


def sums_to_compose(L):
    """Endomorphism sums over Z whose products with maps tell the two
    sides apart.

    e is central and fixes exactly the chain-image maps; on partition:3
    and diamond:5 it has the coefficients -2 and -4.  The retractions,
    weighted 1 and weighted 2, 3, 4, 2, 3, ..., commute with few maps.
    e + 3 (alpha_B - alpha_C) still fixes the constant map to bottom,
    which both retractions fix on either side, and alpha_B - alpha_C
    cancels on both sides of a product with it: its normal forms there
    are zero.
    """
    chains = list(L.chain_family("Z"))
    retractions = [alpha_of_chain(L, B).values for B in chains]
    e = idempotent_direct(L)
    unit = FormalSum(ZZ, L, L, [(r, 1) for r in retractions])
    weighted = FormalSum(ZZ, L, L, [(r, k % 3 + 2) for k, r in enumerate(retractions)])
    sums = [e, unit, weighted]
    if len(chains) > 1:
        cancelling = FormalSum(ZZ, L, L, [(retractions[0], 1), (retractions[1], -1)])
        sums += [e + cancelling.scale(3), cancelling]
    return sums


def assert_map_products_match_embedded_products(L, maps, ring=ZZ):
    """The Z-level predicates agree with the Z-level products, both as
    `FormalSum.__mul__` and as `product_oracle` multiply them out, and
    what they decide holds over `ring`: an identity that holds over Z
    holds in its image, and over int and rat only those identities hold."""
    outcomes = set()
    for x in sums_to_compose(L):
        commutes, fixes = map_products(x)
        x_r = x.map_ring(ring)
        for phi in maps:
            s = embed(phi)
            left, right = x * s, s * x
            outcome = (commutes(phi.values), fixes(phi.values))
            assert outcome == (left == right, left == s == right)
            left, right = product_oracle(x, s), product_oracle(s, x)
            assert outcome == (left == right, left == s == right)
            outcomes.add(outcome)
            if ring == ZZ:
                continue
            s_r = embed(phi, ring)
            left_r, right_r = x_r * s_r, s_r * x_r
            over_r = (left_r == right_r, left_r == s_r == right_r)
            if ring.kind == "mod":
                assert all(r or not z for z, r in zip(outcome, over_r))
            else:
                assert over_r == outcome
    return outcomes


@pytest.mark.parametrize("ring", ["int", "mod:2", "mod:3", "rat"])
@pytest.mark.parametrize("spec", SMALL_CORPUS + ["diamond:5"])
def test_map_products_match_products_with_embedded_maps(spec, ring):
    L = generate(spec)
    outcomes = assert_map_products_match_embedded_products(
        L, [JoinMap(L, L, t) for t in enumerate_join_endomorphisms(L)], Ring.parse(ring))
    if L.n > 1:
        assert outcomes >= {(True, True), (True, False), (False, False)}


@pytest.mark.parametrize("spec, table_key", [("diamond:254", bytes), ("diamond:255", tuple)])
def test_map_products_key_tables_by_lattice_size(spec, table_key):
    # byte tables reach 256 elements, one more falls back to tuples
    L = generate(spec)
    # swapping two atoms is an automorphism, which the weighted
    # retractions do not commute with
    a, b = [x for x in range(L.n) if x not in (L.bottom, L.top)][:2]
    swap = list(range(L.n))
    swap[a], swap[b] = b, a
    maps = ([identity_map(L), constant_bottom(L), JoinMap(L, L, tuple(swap))]
            + [alpha_of_chain(L, B) for B in itertools.islice(L.chain_family("Z"), 3)])
    assert {type(phi.values) for phi in maps} == {table_key}
    outcomes = assert_map_products_match_embedded_products(L, maps)
    assert outcomes >= {(True, True), (False, False)}
    # the products themselves, against an oracle that shares no code
    # with `map_products` or `FormalSum.__mul__`
    for x in sums_to_compose(L):
        for phi in maps:
            s = embed(phi)
            for product, oracle in ((x * s, product_oracle(x, s)),
                                    (s * x, product_oracle(s, x))):
                assert list(product.terms.items()) == list(oracle.terms.items())


@pytest.mark.parametrize("spec, count", [("divisor:60", None), ("boolean:4", 300)])
def test_map_products_match_product_oracles_on_larger_lattices(spec, count):
    # every map of divisor:60 and a seeded subset of boolean:4's 65,536,
    # against both products, for every sum of `sums_to_compose`
    L = generate(spec)
    maps = [JoinMap(L, L, t) for t in enumerate_join_endomorphisms(L)]
    if count is not None:
        maps = random.Random(1).sample(maps, count)
    outcomes = assert_map_products_match_embedded_products(L, maps)
    assert outcomes == {(True, True), (True, False), (False, False)}


@pytest.mark.parametrize("spec", SMALL_CORPUS)
def test_map_products_of_single_maps_match_composition(spec):
    # s = [t] and s = [t] - [u] for maps t, u: the composites of a map
    # t o p may leave p's image, which no retraction or e does
    L = generate(spec)
    tables = list(enumerate_join_endomorphisms(L))
    outcomes = set()
    for t, u in zip(tables, tables[1:] + tables[:1]):
        for s in (FormalSum(ZZ, L, L, [(t, 1)]), FormalSum(ZZ, L, L, [(t, 1), (u, -1)])):
            commutes, fixes = map_products(s)
            for p in tables:
                x = embed(JoinMap(L, L, p))
                left, right = product_oracle(s, x), product_oracle(x, s)
                outcome = (commutes(p), fixes(p))
                assert outcome == (left == right, left == x == right)
                outcomes.add(outcome)
    if L.n > 1:
        assert outcomes == {(True, True), (True, False), (False, False)}


def test_large_coefficients_are_accumulated_not_repeated():
    # The retractions of diamond:255 weighted 1..256 have sum |c| = 32,896
    # over 256 terms; the normal forms hold each composite once with its
    # coefficient, however large
    L = generate("diamond:255")
    retractions = [alpha_of_chain(L, B).values for B in L.chain_family("Z")]
    assert len(retractions) == 256
    a, b = [x for x in range(L.n) if x not in (L.bottom, L.top)][:2]
    swap = list(range(L.n))
    swap[a], swap[b] = b, a
    maps = ([identity_map(L), constant_bottom(L), JoinMap(L, L, tuple(swap))]
            + [JoinMap(L, L, r) for r in retractions[:3]])
    s = FormalSum(ZZ, L, L, [(r, k) for k, r in enumerate(retractions, 1)])
    commutes, fixes = map_products(s)
    outcomes = set()
    for phi in maps:
        x = embed(phi)
        left, right = s * x, x * s
        outcome = (commutes(phi.values), fixes(phi.values))
        assert outcome == (left == right, left == x == right)
        outcomes.add(outcome)
    assert outcomes == {(True, False), (False, False)}


@pytest.mark.parametrize("ring", ["rat", "mod:2"])
def test_products_with_maps_refuse_a_sum_not_over_the_integers(ring):
    # modulo m the lifted representatives would be compared as integers,
    # and over Q a fractional coefficient cannot be repeated
    L = generate("pentagon")
    e = idempotent_direct(L).map_ring(Ring.parse(ring))
    with pytest.raises(SignatureMismatch, match=f"over int, not {ring}"):
        map_products(e)


@pytest.mark.parametrize("ring", ["int", "mod:2", "mod:3", "rat"])
@pytest.mark.parametrize("spec", SMALL_CORPUS + ["diamond:5", "diamond:255"])
def test_index_pair_products_decide_f_products(spec, ring):
    # f_B * f_C vanishes iff j^B * (pi^B * j^C) does, the index-level
    # product that the f_family witness search multiplies out; both are
    # decided over Z.  pi^B * j^C is also taken with j^C doubled: a
    # product that vanishes over Z vanishes over `ring`; over int and rat
    # only those do (2 j^C vanishes mod 2 whatever pi^B is)
    ring = Ring.parse(ring)
    L = generate(spec)
    chains = sorted(L.chain_family("B"), key=len)[:12]
    sides = [(f_of_chain(L, B), j_upper(L, B), pi_of_chain(L, B)) for B in chains]
    outcomes = set()
    for (f, j, pi), (g, k, _) in itertools.product(sides, repeat=2):
        outcome = (j * (embed(pi) * k)).is_zero()
        assert outcome == (f * g).is_zero()
        outcomes.add(outcome)
        for m in (k, k.scale(2)):
            over_z = (embed(pi) * m).is_zero()
            over_r = (embed(pi, ring) * m.map_ring(ring)).is_zero()
            assert over_r or not over_z if ring.kind == "mod" else over_r == over_z
    assert outcomes == ({True, False} if len(chains) > 1 else {False})


def test_sorted_terms_deterministic():
    L = boolean_lattice(2)
    e = idempotent_direct(L)
    assert [jm.values for jm, _ in e.sorted_terms()] == sorted(e.terms)


# -- chain Moebius values -------------------------------------------------


def test_mu_maximal_chain():
    for spec in SMALL_CORPUS:
        L = generate(spec)
        maximal = [A for A in L.chain_family("Z") if len(A) == L.max_chain_length + 1]
        for A in maximal:
            if all(
                (lo, hi) in L.covers for lo, hi in zip(A.members, A.members[1:])
            ):
                assert mu_chain_infinity(L, A) == -1


def test_mu_diamond_two_point():
    L = boolean_lattice(2)
    A = z_chain(L, "0", "ab")
    assert mu_chain_infinity(L, A) == 1
    assert mu_chain_infinity_oracle(L, A) == 1


def test_mu_vanishes_below_top():
    L = boolean_lattice(2)
    A = z_chain(L, "0", "a")
    assert mu_chain_infinity(L, A) == 0
    assert mu_chain_infinity_oracle(L, A) == 0


def test_mu_requires_bottom():
    L = boolean_lattice(2)
    with pytest.raises(ChainNotInA):
        mu_chain_infinity(L, z_chain(L, "a", "ab"))
    with pytest.raises(ChainNotInA):
        mu_chain_infinity_oracle(L, z_chain(L, "a", "ab"))


def test_mu_oracle_agreement_everywhere():
    for spec in SMALL_CORPUS + ["boolean:3"]:
        L = generate(spec)
        for A in L.chain_family("A"):
            assert mu_chain_infinity(L, A) == mu_chain_infinity_oracle(L, A), (
                spec,
                A.labels(),
            )


@pytest.mark.parametrize("spec", list(DEFAULT_CORPUS) + ["divisor:60", "diamond:5"])
def test_oracle_limit_counts_the_chain_poset_exactly(monkeypatch, spec):
    L = generate(spec)
    masks = [sum(1 << m for m in c) for c in L.chain_family("A")]
    for A in L.chain_family("A"):
        base = sum(1 << m for m in A)
        count = sum(mask != base and mask & base == base for mask in masks)
        monkeypatch.setattr(algebra, "CHAIN_POSET_LIMIT", count)
        assert mu_chain_infinity_oracle(L, A) == mu_chain_infinity(L, A)
        monkeypatch.setattr(algebra, "CHAIN_POSET_LIMIT", count - 1)
        with pytest.raises(FeasibilityLimit, match=f"has {count} elements"):
            mu_chain_infinity_oracle(L, A)


def test_oracle_refuses_a_long_chain_without_building_it():
    # the chains of chain:64 through its bottom are the subsets of the rest
    with pytest.raises(FeasibilityLimit, match=f"has {2**64 - 1} elements"):
        mu_chain_infinity_oracle(chain_lattice(64), (0,))


# -- the direct construction ----------------------------------------------


def test_direct_one_element():
    L = chain_lattice(0)
    assert idempotent_direct(L) == embed(identity_map(L))


def test_direct_total_orders_collapse_to_identity():
    for n in range(7):
        L = chain_lattice(n)
        assert idempotent_direct(L) == embed(identity_map(L))


def test_direct_diamond_terms():
    L = boolean_lattice(2)
    e = idempotent_direct(L)
    expected = {
        alpha_of_chain(L, z_chain(L, "0", "ab")).values: -1,
        alpha_of_chain(L, z_chain(L, "0", "a", "ab")).values: 1,
        alpha_of_chain(L, z_chain(L, "0", "b", "ab")).values: 1,
    }
    assert e.terms == expected


def least_member_above(L, members):
    """The table of the retraction onto `members`, read naively."""
    return bytes(next(b for b in members if L.leq(t, b)) for t in range(L.n))


@pytest.mark.parametrize("ring", ["int", "rat", "mod:2", "mod:3"])
@pytest.mark.parametrize(
    "build", [idempotent_direct, idempotent_original], ids=["direct", "original"])
@pytest.mark.parametrize(
    "spec", list(DEFAULT_CORPUS) + ["divisor:60", "diamond:5", "partition:4", "boolean:4"])
def test_coefficients_are_chain_mobius_values(spec, build, ring):
    # the pruned walk and the family sum, each against the sum over every
    # chain of the Z family, each retraction read naively and weighted by
    # the product formula
    L = generate(spec)
    seen = {}
    for B in L.chain_family("Z"):
        alpha = least_member_above(L, B.members)
        assert alpha_of_chain(L, B).values == alpha
        assert alpha not in seen, "retraction maps must be pairwise distinct"
        seen[alpha] = -mu_chain_infinity(L, B)
    ring = Ring.parse(ring)
    e = build(L).map_ring(ring)
    assert e == FormalSum(ring, L, L, seen)


def test_direct_walk_on_a_long_chain_takes_only_the_covers():
    # on chain:60 only the 60 cover steps have nonzero mu, each -1, so the
    # one chain left is the whole order, with coefficient +1; the chain
    # family Z has 2**59 members
    L = generate("chain:60")
    assert idempotent_direct(L) == embed(identity_map(L))


def test_direct_idempotent_and_fixes_alphas():
    for spec in SMALL_CORPUS:
        L = generate(spec)
        e = idempotent_direct(L)
        assert e * e == e
        for B in L.chain_family("Z"):
            a = embed(alpha_of_chain(L, B))
            assert e * a == a


# -- the family construction ----------------------------------------------


def section_coefficients(L, B):
    return dict(j_upper(L, B).terms)


def test_mu_family_lower_picks():
    L = boolean_lattice(2)
    B = z_chain(L, "0", "a", "ab")
    # picks equal the interval bottoms: weight 1, sign (-1)^2
    assert section_coefficients(L, B)[bytes((L.bottom,) + B[:-1])] == 1


def test_mu_family_cover_picks():
    L = boolean_lattice(2)
    B = z_chain(L, "0", "a", "ab")
    # (-1)^2 over two cover steps, sign (-1)^2
    assert section_coefficients(L, B)[bytes((L.bottom,) + B[1:])] == 1


def test_mu_family_two_point():
    L = chain_lattice(1)
    # the weights mu(0, a_1) of the picks 0 and 1, times the sign (-1)^1
    assert section_coefficients(L, (0, 1)) == {bytes((0, 0)): -1, bytes((0, 1)): 1}


def test_j_upper_point():
    L = boolean_lattice(2)
    j = j_upper(L, (L.top,))
    (table, coeff), = j.terms.items()
    assert coeff == 1 and table == bytes((L.bottom,))


def test_j_upper_two_point():
    L = chain_lattice(1)
    j = j_upper(L, (0, 1))
    assert j.terms == {
        identity_map(L).values: 1,
        constant_bottom(L).values: -1,
    }


def test_j_upper_term_bound():
    # at most one term per pick tuple: the product of the step-interval sizes
    L = generate("divisor:12")
    for B in L.chain_family("B"):
        m = B.members
        picks = math.prod(
            sum(L.leq(lo, a) and L.leq(a, hi) for a in range(L.n))
            for lo, hi in zip(m, m[1:])
        )
        assert len(j_upper(L, B).terms) <= picks


def test_j_upper_needs_top():
    L = boolean_lattice(2)
    with pytest.raises(ChainNotInB):
        j_upper(L, z_chain(L, "0", "a"))


def brute_force_j_upper(L, B):
    """j_upper from its definition: every n-tuple of elements with a_p in
    [b_{p-1}, b_p], weighted by Hall's Moebius values."""
    n = len(B) - 1
    P = chain_lattice(n)
    hall = functools.lru_cache(maxsize=None)(L.mobius_hall)
    terms = []
    for picks in itertools.product(range(L.n), repeat=n):
        if all(L.leq(lo, a) and L.leq(a, hi) for lo, a, hi in zip(B, picks, B[1:])):
            mu = math.prod(hall(lo, a) for lo, a in zip(B, picks))
            terms.append(((L.bottom,) + picks, (-1) ** n * mu))
    return FormalSum(ZZ, P, L, terms)


@pytest.mark.parametrize(
    "spec", list(DEFAULT_CORPUS) + ["divisor:60", "diamond:5", "partition:4"])
def test_j_upper_matches_brute_force(spec):
    L = generate(spec)
    for B in L.chain_family("B"):
        j = j_upper(L, B)
        assert j == brute_force_j_upper(L, B.members), B
        for table in j.terms:  # each section is a join-morphism, unvalidated
            make_join_map(j.source, L, table)


def test_f_of_chain_two_point_lattice():
    L = chain_lattice(1)
    f_top = f_of_chain(L, (1,))
    f_both = f_of_chain(L, (0, 1))
    assert f_top == embed(constant_bottom(L))
    assert f_both == embed(identity_map(L)) - embed(constant_bottom(L))
    assert (f_top * f_both).is_zero() and (f_both * f_top).is_zero()
    assert f_top + f_both == embed(identity_map(L))


FAMILY_ORACLE_SPECS = list(DEFAULT_CORPUS) + ["divisor:60", "diamond:5", "partition:4"]
FAMILY_ORACLE_RINGS = ["int", "mod:2", "mod:3", "rat"]


def ring_level_f(L, B, ring):
    """f_B = j^B * pi^B multiplied out with every step in `ring`."""
    return j_upper(L, B).map_ring(ring) * embed(pi_of_chain(L, B), ring)


@pytest.mark.parametrize("ring", FAMILY_ORACLE_RINGS)
@pytest.mark.parametrize("spec", FAMILY_ORACLE_SPECS)
def test_f_of_chain_matches_ring_level_product(spec, ring):
    # partition:4 has Moebius values 2 and -6, so terms vanish mod 2 and 3
    L = generate(spec)
    ring = Ring.parse(ring)
    for B in L.chain_family("B"):
        assert f_of_chain(L, B).map_ring(ring) == ring_level_f(L, B, ring), B
    if L.n > 1:
        with pytest.raises(ChainNotInB):
            f_of_chain(L, (L.bottom,))


@pytest.mark.parametrize("ring", FAMILY_ORACLE_RINGS)
@pytest.mark.parametrize("spec", FAMILY_ORACLE_SPECS)
def test_original_matches_ring_level_sum(spec, ring):
    L = generate(spec)
    R = Ring.parse(ring)
    oracle = FormalSum.total(R, L, L, (
        ring_level_f(L, B, R) for B in sorted(L.chain_family("B"), key=len)))
    e = idempotent_original(L).map_ring(R)
    assert e == oracle
    # the terms that vanish modulo 2 and 3 are dropped
    partition4_terms = {"int": 32, "mod:2": 21, "mod:3": 31}
    if spec == "partition:4" and ring in partition4_terms:
        assert len(e.terms) == partition4_terms[ring]


def test_f_of_chain_idempotent():
    for spec in ("boolean:2", "pentagon", "divisor:12"):
        L = generate(spec)
        for B in L.chain_family("B"):
            f = f_of_chain(L, B)
            assert f * f == f


def lattice_or_opposite(spec):
    """generate(spec), or the opposite of generate(rest) for "opposite:rest".

    Every generator numbers its elements along the order; the opposite
    keeps the numbers and reverses the order, so there the index order is
    no linear extension.
    """
    if spec.startswith("opposite:"):
        return generate(spec[len("opposite:"):]).opposite()
    return generate(spec)


@pytest.mark.parametrize("spec", SMALL_CORPUS + [
    "boolean:3", "product:boolean:2,chain:1", "boolean:5", "boolean:6", "partition:5",
    "divisor:360", "divisor:2520", "opposite:partition:5", "opposite:divisor:360",
    # past 256 elements, where the family sum keys its tables by 2-byte digits
    "diamond:255", "product:chain:1,diamond:200"])
def test_original_equals_direct(spec):
    L = lattice_or_opposite(spec)
    assert idempotent_original(L) == idempotent_direct(L)


@pytest.mark.parametrize("ring", ["int", "mod:2", "mod:3", "rat"])
@pytest.mark.parametrize("spec", DEFAULT_CORPUS + (
    "divisor:60", "diamond:5", "partition:4", "boolean:4", "divisor:240",
    "product:boolean:3,chain:2", "opposite:pentagon", "opposite:divisor:60",
    "opposite:partition:4", "opposite:boolean:3"))
def test_original_equals_left_fold(spec, ring):
    L = lattice_or_opposite(spec)
    ring = Ring.parse(ring)
    fs = [
        f_of_chain(L, B).map_ring(ring)
        for B in sorted(L.chain_family("B"), key=len)
    ]
    fold = functools.reduce(operator.add, fs)
    assert idempotent_original(L).map_ring(ring) == fold
    assert fold == idempotent_direct(L).map_ring(ring)


@pytest.mark.parametrize(
    "spec", ["chain:0", "chain:14", "chain:60", "opposite:chain:60", "chain:300"])
def test_original_on_a_chain_is_the_identity(spec):
    # chain:14 has 2**14 top-ended chains, whose f_B all cancel but one;
    # chain:300 has 301 elements, so its tables are tuples
    L = lattice_or_opposite(spec)
    assert idempotent_original(L) == embed(identity_map(L))


# -- rings beyond the integers --------------------------------------------


def test_ring_functoriality():
    for spec in SMALL_CORPUS:
        L = generate(spec)
        over_z = idempotent_direct(L)
        for m in (2, 3, 5):
            ring = Ring("mod", m)
            assert over_z.map_ring(ring) == idempotent_direct(L).map_ring(ring)
        assert over_z.map_ring(Ring("rat")) == idempotent_direct(L).map_ring(Ring("rat"))


def test_map_ring_into_its_own_ring_is_the_sum_itself():
    L = generate("pentagon")
    for ring in (ZZ, Ring("mod", 3), Ring("rat")):
        e = idempotent_direct(L).map_ring(ring)
        assert e.map_ring(ring) is e


def test_idempotent_over_small_characteristic():
    L = generate("divisor:12")
    for m in (2, 3, 5):
        ring = Ring("mod", m)
        e = idempotent_direct(L).map_ring(ring)
        assert e * e == e


@pytest.mark.parametrize("spec", DEFAULT_CORPUS + ("divisor:60", "diamond:5"))
def test_oracle_supersets_match_chain_family_filter(spec):
    from totlat.algebra import _chains_through, _superset_masks

    L = generate(spec)
    family = [sum(1 << m for m in c) for c in L.chain_family("A")]
    for A in L.chain_family("A"):
        base = sum(1 << m for m in A.members)
        built = _superset_masks(L, A.members)
        assert built[0] == base
        assert len(set(built)) == len(built) == _chains_through(L, A.members)
        assert set(built[1:]) == {m for m in family if m != base and m & base == base}
