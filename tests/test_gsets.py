import random
from math import factorial

import pytest

from homcount import perms
from homcount.groups import (FiniteGroup, GroupError, close_under_product,
                             commutator_subgroup, quotient_by_normal)
from homcount.gsets import (ActionError, GSetAction, equivariant_perm,
                            goursat_decompose, make_free_action,
                            rubik_generators, rubik_membership, rubik_order,
                            rubik_surjectivity_check)
from homcount.zsat import ZAlphabet
from conftest import mulclose


def test_action_axioms(z3):
    act = make_free_action(z3, 2, n_fixed=1)
    assert act.fixed_points == [0]
    assert len(act.free_orbits) == 2
    # overlapping orbits, or an orbit of the wrong size, do not partition
    # the points into fixed points and free orbits
    with pytest.raises(ActionError):
        GSetAction(z3, [0], [(1, 2, 3), (3, 4, 5)])
    with pytest.raises(ActionError):
        GSetAction(z3, [0], [(1, 2, 3), (4, 5)])


def table_orbits(act):
    """Oracle for the orbit data: build the action table from apply, check
    the action axioms on it, and classify its orbits by least point into
    fixed points and free orbits, the least points forming the section."""
    G = act.group
    table = [[act.apply(g, x) for x in range(act.npoints)]
             for g in G.elements()]
    assert table[0] == list(range(act.npoints))
    for g in G.elements():
        for h in G.elements():
            assert table[G.mul(g, h)] == [table[g][y] for y in table[h]]
    fixed, free, seen = [], [], set()
    for x in range(act.npoints):
        if x in seen:
            continue
        orbit = sorted({row[x] for row in table})
        seen.update(orbit)
        if len(orbit) == 1:
            fixed.append(x)
        else:
            assert len(orbit) == G.order
            free.append(set(orbit))
    section = tuple(min(orb) for orb in free)
    coords = {table[g][rep]: (i, g) for i, rep in enumerate(section)
              for g in G.elements()}
    assert len(coords) == act.npoints - len(fixed)
    return fixed, free, section, coords


def test_orbits_match_table_scan(z2, z3, s3, a4):
    actions = [make_free_action(gamma, 3, n_fixed)
               for gamma in (z2, z3, s3, a4) for n_fixed in (0, 1)]
    actions += [ZAlphabet(gamma).square_action for gamma in (z2, z3, s3)]
    for act in actions:
        fixed, free, section, coords = table_orbits(act)
        assert act.fixed_points == fixed
        assert [set(orb) for orb in act.free_orbits] == free
        assert act.section == section
        assert act.coords == coords


def test_decompose_rejects_non_equivariant(z2, s3):
    act = make_free_action(s3, 3, n_fixed=1)
    p = equivariant_perm(act, (1, 2, 0), (1, 2, 3))
    assert act.decompose(p) == ({0: 0}, (1, 2, 0), (1, 2, 3))
    # agrees with p on the fixed point and every representative, but swaps
    # two points inside one orbit
    orb = act.free_orbits[0]
    bad = list(p)
    bad[orb[1]], bad[orb[2]] = bad[orb[2]], bad[orb[1]]
    # two representatives sent into orbit 0
    into_one = list(range(act.npoints))
    rep = act.section[1]
    into_one[rep], into_one[orb[1]] = orb[1], rep
    # the fixed point sent into an orbit, off the representatives
    fixed_out = list(range(act.npoints))
    fixed_out[0], fixed_out[orb[1]] = orb[1], 0
    # a representative of the squared zombie action sent to the fixed pair
    square = ZAlphabet(z2).square_action
    to_fixed = list(range(square.npoints))
    rep = square.section[0]
    to_fixed[rep], to_fixed[0] = 0, rep
    for act, q in ((act, bad), (act, into_one), (act, fixed_out),
                   (square, to_fixed)):
        with pytest.raises(ActionError):
            act.decompose(tuple(q))


def test_rubik_order_values(z2, s3):
    assert rubik_order(7, z2) == 161280
    assert rubik_order(2, FiniteGroup.trivial()) == 1
    assert rubik_order(5, s3) == 6 ** 5 // 2 * 60
    with pytest.raises(ValueError):
        rubik_order(1, z2)


def test_membership_basic(z2):
    act = make_free_action(z2, 7)
    ident = perms.identity_perm(act.npoints)
    assert rubik_membership(ident, act)
    op = list(range(7))
    op[0], op[1] = 1, 0
    swap = equivariant_perm(act, tuple(op), (0,) * 7)
    assert not rubik_membership(swap, act)
    # two disjoint swaps: even orbit permutation, trivial components
    op = [1, 0, 3, 2, 4, 5, 6]
    double = equivariant_perm(act, tuple(op), (0,) * 7)
    assert rubik_membership(double, act)
    # non-equivariant permutation is rejected
    bad = list(ident)
    bad[1], bad[2] = bad[2], bad[1]
    with pytest.raises(ActionError):
        rubik_membership(tuple(bad), act)


def abelianization(G):
    """G_ab = G / [G, G] and the projection, built from the quotient."""
    return quotient_by_normal(G, commutator_subgroup(G).members)


def oracle_rubik_membership(p, act):
    """Even orbit permutation, and the product of the components trivial in
    G_ab."""
    _, orbit_perm, components = act.decompose(p)
    ab, proj = abelianization(act.group)
    acc = 0
    for h in components:
        acc = ab.mul(acc, proj[h])
    return perms.perm_parity(orbit_perm) == 0 and acc == 0


def test_membership_matches_abelianization(z2, z3, s3, a4, a5):
    rng = random.Random(16)
    for gamma in (z2, z3, s3, a4, a5):
        act = make_free_action(gamma, 4)
        q = gamma.order
        seen = set()
        for _ in range(60):
            op = list(range(4))
            rng.shuffle(op)
            comps = tuple(rng.randrange(q) for _ in range(4))
            p = equivariant_perm(act, tuple(op), comps)
            verdict = rubik_membership(p, act)
            assert verdict == oracle_rubik_membership(p, act)
            seen.add(verdict)
        # Rubik generators multiplied by random components
        for gen in rubik_generators(act):
            for _ in range(5):
                comps = tuple(rng.randrange(q) for _ in range(4))
                twist = equivariant_perm(act, (0, 1, 2, 3), comps)
                p = perms.mult(gen, twist)
                assert rubik_membership(p, act) \
                    == oracle_rubik_membership(p, act)
        assert seen == {True, False}, gamma.name


def test_rubik_order_matches_abelianization(z2, z3, s3, a4, a5):
    for gamma in (z2, z3, s3, a4, a5):
        ab, _ = abelianization(gamma)
        for n in range(2, 10):
            assert rubik_order(n, gamma) \
                == gamma.order ** n // ab.order * (factorial(n) // 2)


def test_rubik_order_matches_chain(s3):
    # explicit generating set at 5 orbits over S3: chain order vs formula
    act = make_free_action(s3, 5)
    gens = rubik_generators(act)
    from homcount.perms import PermutationGroup
    assert PermutationGroup(act.npoints, gens).order() == rubik_order(5, s3)


def test_membership_against_closure(z2):
    # brute-force closure of Rub generators at 3 orbits classifies every
    # equivariant permutation exactly as the membership test does
    act = make_free_action(z2, 3)
    gens = rubik_generators(act)
    rub = mulclose(gens)
    assert len(rub) == rubik_order(3, z2)
    import itertools
    count = 0
    for op in itertools.permutations(range(3)):
        for comps in itertools.product(range(2), repeat=3):
            p = equivariant_perm(act, op, comps)
            assert rubik_membership(p, act) == (p in rub)
            count += 1
    assert count == 48


def test_membership_closure_spot_checks(s3):
    act = make_free_action(s3, 4)
    gens = rubik_generators(act)
    rng = random.Random(99)
    members = list(gens)
    for _ in range(200):
        a = rng.choice(members)
        b = rng.choice(members)
        members.append(perms.mult(a, b))
    for _ in range(1000):
        p = rng.choice(members)
        q = rng.choice(members)
        assert rubik_membership(perms.mult(p, q), act)
        assert rubik_membership(perms.inverse(p), act)


def test_membership_section_independent(s3):
    # conjugating the section by per-orbit offsets leaves the verdict alone
    act = make_free_action(s3, 3)
    rng = random.Random(5)
    import itertools
    for _ in range(50):
        op = list(range(3))
        rng.shuffle(op)
        comps = tuple(rng.randrange(6) for _ in range(3))
        p = equivariant_perm(act, tuple(op), comps)
        verdict = rubik_membership(p, act)
        # a section change is conjugation by an equivariant permutation
        offsets = tuple(rng.randrange(6) for _ in range(3))
        c = equivariant_perm(act, (0, 1, 2), offsets)
        q = perms.mult(perms.mult(perms.inverse(c), p), c)
        assert rubik_membership(q, act) == verdict


def test_surjectivity_report(z2, z3, s3):
    for gamma in (z2, z3, s3):
        act = make_free_action(gamma, 7)
        gens = rubik_generators(act)
        rep = rubik_surjectivity_check(gens, act)
        assert rep.alt_projection and rep.two_transitive
        assert rep.order_match, gamma.name
    # generators fixing an orbit pointwise fail flag (i)
    act = make_free_action(z2, 7)
    op = list(range(7))
    op[1], op[2], op[3] = 2, 3, 1
    partial = [equivariant_perm(act, tuple(op), (0,) * 7)]
    rep = rubik_surjectivity_check(partial, act)
    assert not rep.alt_projection
    # nor do they move the pairs through orbit 0, so flag (ii) fails too
    assert not rep.two_transitive
    # lifts of Alt(7) alone are not group-set 2-transitive for |Gamma| > 1
    gens = [g for g in rubik_generators(act)][:5]   # orbit 3-cycles only
    rep = rubik_surjectivity_check(gens, act)
    assert not rep.two_transitive


def test_goursat(s3, z4):
    diag = [(x, x) for x in s3.elements()]
    dec = goursat_decompose(diag, s3, s3)
    assert dec.n1.order == 1 and dec.n2.order == 1
    full = [(x, y) for x in s3.elements() for y in s3.elements()]
    dec = goursat_decompose(full, s3, s3)
    assert dec.n1.order == 6 and dec.n2.order == 6
    # same-A3-coset subgroup of order 18
    a3 = close_under_product(
        s3, [next(g for g in s3.elements() if s3.element_order(g) == 3)])
    H = [(x, y) for x in s3.elements() for y in s3.elements()
         if (x in set(a3)) == (y in set(a3))]
    dec = goursat_decompose(H, s3, s3)
    assert dec.n1.order == 3 and dec.n2.order == 3
    assert dec.reconstruct(s3, s3) == set(H)
    # non-subdirect input is rejected
    with pytest.raises(GroupError):
        goursat_decompose([(0, 0), (1, 0)], s3, s3)


def test_goursat_closure_is_linear_in_h(monkeypatch):
    # S4 x S4 from its four generator pairs: closing H, its kernels and the
    # coset maps take O(|H|) products, where closing under products of
    # known pairs took about 2|H|^2
    s4 = FiniteGroup.from_perm_gens("S4", [perms.parse_cycles("(0 1)", 4),
                                           perms.parse_cycles("(0 1 2 3)", 4)])
    calls = []
    mul = s4.mul
    monkeypatch.setattr(s4, "mul", lambda a, b: calls.append(1) or mul(a, b))
    dec = goursat_decompose([(1, 0), (2, 0), (0, 1), (0, 2)], s4, s4)
    assert dec.n1.order == dec.n2.order == 24 and dec.iso == {0: 0}
    assert len(calls) <= 100 * 24 * 24


def test_goursat_random_reconstruction(s3, z3):
    rng = random.Random(17)
    groups = [s3, z3]
    for _ in range(20):
        G1 = rng.choice(groups)
        G2 = rng.choice(groups)
        pairs = {(0, 0)}
        for _ in range(3):
            pairs.add((rng.randrange(G1.order), rng.randrange(G2.order)))
        try:
            dec = goursat_decompose(pairs, G1, G2)
        except GroupError:
            continue
        assert dec.reconstruct(G1, G2) is not None
