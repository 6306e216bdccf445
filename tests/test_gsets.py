import random
from math import factorial

import pytest

from homcount import perms
from homcount.groups import (FiniteGroup, GroupError, automorphism_group,
                             close_under_product, derived_subgroup,
                             quotient_by_normal)
from homcount.gsets import (ActionError, GSetAction, equivariant_perm,
                            goursat_decompose, make_free_action,
                            rubik_generators, rubik_membership, rubik_order,
                            rubik_surjectivity_check)
from homcount.zsat import ZAlphabet
from conftest import mulclose, oracle_chain_order


def test_action_axioms(z3):
    act = make_free_action(z3, 2, n_fixed=1)
    assert act.fixed_points == [0]
    assert len(act.free_orbits) == 2
    # none of these partitions the points 0..n-1 into fixed points and
    # free orbits
    for fixed, orbits in [
            ([0], [(1, 2, 3), (3, 4, 5)]),  # overlapping orbits
            ([0], [(1, 2, 3), (4, 5)]),     # an orbit of the wrong size
            ([0, 2], [(1, 2, 3)]),          # a point twice
            ([0], [(1, 2, 4)]),             # a gap at 3
            ([-1], [(1, 2, 3)]),            # a negative point, 0 missing
            ([0], [(1, 2, 3), (4, 5, 7)]),  # past the last point, 6 missing
            ([4], [(0, 1, 2)])]:            # past the last point, 3 missing
        with pytest.raises(ActionError):
            GSetAction(z3, fixed, orbits)


def table_orbits(act):
    """Oracle for the orbit data: build the action table from G's table and
    the layout, g . orbits[i][h] = orbits[i][g h] with the fixed points
    fixed, check the action axioms on it, and classify its orbits by least
    point into fixed points and free orbits, the least points forming the
    section, with coordinates (i, g) for the point g . section[i]."""
    G = act.group
    table = []
    for g in G.elements():
        row = list(range(act.npoints))
        for orb in act.free_orbits:
            for h, gh in enumerate(G.rows[g]):
                row[orb[h]] = orb[gh]
        table.append(row)
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
        # the position index gives every point's coordinates
        n_fixed, q = len(fixed), act.group.order
        assert [act.position[x] for x in fixed] == list(range(n_fixed))
        assert {x: divmod(act.position[x] - n_fixed, q)
                for x in range(act.npoints) if x not in fixed} == coords
        assert act.identity == tuple(range(act.npoints))


def oracle_equivariant_perm(act, orbit_perm, components, fixed_map=None):
    """The loop over every orbit, where equivariant_perm rewrites only the
    moved ones: each point g . section[i] is sent to (g h_i) .
    section[orbit_perm[i]] in turn, and each fixed point by fixed_map."""
    perms.check_perm(orbit_perm)
    G = act.group
    # column h of the multiplication table lists g h for every g
    columns = list(zip(*G.rows))
    p = list(range(act.npoints))
    for x, y in (fixed_map or {}).items():
        p[x] = y
    for orb, j, h in zip(act.free_orbits, orbit_perm, components):
        target = act.free_orbits[j]
        for pt, gh in zip(orb, columns[h]):
            p[pt] = target[gh]
    return tuple(p)


def test_equivariant_perm_matches_oracle(z2, z3, s3):
    trivial = FiniteGroup.trivial()
    actions = [make_free_action(gamma, n, n_fixed) for gamma in (z2, z3, s3)
               for n, n_fixed in ((3, 0), (4, 1), (5, 3))]
    # the squared actions list their orbits out of point order
    actions += [ZAlphabet(gamma).square_action for gamma in (z2, z3, s3)]
    # one-point columns and orbits, one-orbit and one-point actions, where
    # an itemgetter of one index would return a bare value, and no points
    actions += [make_free_action(trivial, 4, 2), make_free_action(trivial, 1),
                make_free_action(s3, 1), make_free_action(z2, 1, 2),
                make_free_action(z3, 0, 1), make_free_action(z3, 0)]
    rng = random.Random(31)
    for act in actions:
        n = len(act.free_orbits)
        for _ in range(6):
            op = list(range(n))
            rng.shuffle(op)
            comps = tuple(rng.randrange(act.group.order) for _ in range(n))
            images = list(act.fixed_points)
            rng.shuffle(images)
            # the sparse form: dicts silent on fixed orbits and trivial
            # components, here with some of those spelled out
            sparse_op = {i: j for i, j in enumerate(op)
                         if i != j or rng.random() < 0.2}
            sparse_comps = {i: h for i, h in enumerate(comps)
                            if h or rng.random() < 0.2}
            for fixed_map in (None, dict(zip(act.fixed_points, images))):
                p = equivariant_perm(act, tuple(op), comps, fixed_map)
                assert p == oracle_equivariant_perm(act, tuple(op), comps,
                                                    fixed_map)
                assert p == equivariant_perm(act, sparse_op, sparse_comps,
                                             fixed_map)
    act = make_free_action(z3, 3)
    for bad in ({0: 1}, {0: 1, 1: 1}, {0: 3, 3: 0}, {-1: 0, 0: -1},
                (1, 1, 2), (0, 1, 3)):
        with pytest.raises(ValueError, match="not a permutation"):
            equivariant_perm(act, bad, {} if isinstance(bad, dict)
                             else (0,) * 3)
    for op, comps in (((1, 0), (0, 0)), ((0, 1, 2), (0, 0))):
        with pytest.raises(ValueError, match="orbit data for"):
            equivariant_perm(act, op, comps)


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


def oracle_decompose(act, p):
    """The rebuild-and-compare route: read the coordinates off the
    representatives' images through the layout index, rebuild the
    equivariant permutation they describe and compare it with p.  The
    rebuilt table is a permutation only when the fixed part is one, so
    that is checked too."""
    position, n_fixed = act.position, len(act.fixed_points)
    slots = [position[y] - n_fixed for y in (p[x] for x in act.section)]
    if min(slots, default=0) < 0:
        raise ActionError("a representative is sent to a fixed point")
    q = act.group.order
    orbit_perm = tuple(s // q for s in slots)
    components = tuple(s % q for s in slots)
    if len(set(orbit_perm)) != len(orbit_perm):
        raise ActionError("two representatives are sent into one orbit")
    fixed_map = {x: p[x] for x in act.fixed_points}
    if any(position[y] >= n_fixed for y in fixed_map.values()):
        raise ActionError("equivariant image of a fixed point must be fixed")
    if sorted(fixed_map.values()) != sorted(fixed_map):
        raise ActionError("the fixed part is not a bijection")
    if tuple(p) != oracle_equivariant_perm(act, orbit_perm, components,
                                           fixed_map):
        raise ActionError("permutation does not commute with the action")
    return fixed_map, orbit_perm, components


def verdict(decompose, act, p):
    try:
        return decompose(act, p)
    except ActionError:
        return "refused"


def test_decompose_matches_rebuild_oracle(z2, z3, s3, a4):
    aut = automorphism_group(s3)
    assert not isinstance(aut.rows[1], tuple)
    actions = [make_free_action(gamma, n, n_fixed)
               for gamma in (z2, z3, s3, a4, aut)
               for n, n_fixed in ((1, 0), (3, 1), (4, 3))]
    actions += [ZAlphabet(gamma).square_action for gamma in (z2, z3)]
    rng = random.Random(41)
    for act in actions:
        n, npts = len(act.free_orbits), act.npoints
        seen = set()
        for _ in range(8):
            op = list(range(n))
            rng.shuffle(op)
            comps = tuple(rng.randrange(act.group.order) for _ in range(n))
            images = list(act.fixed_points)
            rng.shuffle(images)
            p = equivariant_perm(act, tuple(op), comps,
                                 dict(zip(act.fixed_points, images)))
            # the table, and single perturbations: one entry rewritten, or
            # two swapped
            tables = [p]
            for _ in range(6):
                bad = list(p)
                x, y = rng.randrange(npts), rng.randrange(npts)
                if rng.random() < 0.5:
                    bad[x] = y
                else:
                    bad[x], bad[y] = bad[y], bad[x]
                tables.append(tuple(bad))
            for q in tables:
                got = verdict(GSetAction.decompose, act, q)
                assert got == verdict(oracle_decompose, act, q)
                seen.add(got == "refused")
        assert seen == {False, True}, act.group.name


def test_decompose_checks_every_generator(s3):
    # a table on S3's free orbit commuting with one generator a but not
    # with the other: x -> x k on the right coset H y of H = <a>, with
    # k = y^-1 a y, and x -> x elsewhere.  It fixes the representative
    # and the other orbit, so only the equivariance test sees it
    a, b = s3.generator_data()[0]
    H = close_under_product(s3, [a])
    y = next(g for g in s3.elements() if g not in H)
    k = s3.mul(s3.mul(s3.inv(y), a), y)
    coset = {s3.mul(h, y) for h in H}
    act = make_free_action(s3, 2, n_fixed=1)
    orb = act.free_orbits[0]
    p = list(range(act.npoints))
    for g in coset:
        p[orb[g]] = orb[s3.mul(g, k)]
    assert sorted(p) == list(range(act.npoints))

    def commutes(s):
        # the table of s: the fixed point 0, then s . orbits[i][h] =
        # orbits[i][s h] at each free point
        table = [0] + [act.free_orbits[i][s3.mul(s, h)]
                       for i, h in (divmod(act.position[x] - 1, s3.order)
                                    for x in range(1, act.npoints))]
        return all(p[table[x]] == table[p[x]] for x in range(act.npoints))

    assert commutes(a) and not commutes(b)
    for decompose in (GSetAction.decompose, oracle_decompose):
        with pytest.raises(ActionError):
            decompose(act, tuple(p))


def test_decompose_refuses_a_fixed_part_that_is_not_a_bijection(z2):
    act = make_free_action(z2, 7, n_fixed=2)
    p = list(range(act.npoints))
    p[1] = 0                        # points 0 and 1 both to 0
    with pytest.raises(ActionError, match="fixed points are sent to one"):
        act.decompose(tuple(p))
    with pytest.raises(ActionError):
        rubik_membership(tuple(p), act)
    p[0], p[1] = 1, 0                  # the swap is a permutation, odd
    assert act.decompose(tuple(p))[0] == {0: 1, 1: 0}
    assert not rubik_membership(tuple(p), act)


@pytest.mark.parametrize("case", ["short", "long", "past-the-end",
                                  "negative"])
def test_decompose_refuses_tables_off_the_points(z3, case):
    # a negative entry would wrap in a gather and pass as the last point
    act = make_free_action(z3, 3, n_fixed=1)
    n = act.npoints
    p = list(range(n))
    table, message = {
        "short": (p[:-1], "9 entries for 10 points"),
        "long": (p + [n], "11 entries for 10 points"),
        "past-the-end": (p[:-1] + [n], "outside 0..9"),
        "negative": (p[:-1] + [-1], "outside 0..9")}[case]
    with pytest.raises(ActionError, match=message):
        act.decompose(tuple(table))


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
    return quotient_by_normal(G, G.cached(derived_subgroup))


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


def test_surjectivity_report_over_aut(s3):
    # Gamma = Aut(S3), isomorphic to S3, gives S3's report
    aut = automorphism_group(s3)
    reports = []
    for gamma in (s3, aut):
        act = make_free_action(gamma, 7)
        reports.append(rubik_surjectivity_check(rubik_generators(act), act))
    assert reports[0] == reports[1]
    assert reports[1].order_match and reports[1].gamma_order == 6


def two_transitive_oracle(gens, act):
    """Flag (ii) by a BFS over ordered point pairs: the orbit of the
    representatives of free orbits 0 and 1 under gens and their inverses
    holds every pair of points in distinct free orbits."""
    start = (act.free_orbits[0][0], act.free_orbits[1][0])
    seen = {start}
    frontier = [start]
    gens_both = list(gens) + [perms.inverse(p) for p in gens]
    while frontier:
        x, y = frontier.pop()
        for p in gens_both:
            nxt = (p[x], p[y])
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    n_free = len(act.free_orbits) * act.group.order
    return len(seen) == n_free * (n_free - act.group.order)


def test_two_transitive_matches_pair_bfs(z2, z3, z4, s3):
    # random subsets of the standard set, conjugated by a random equivariant
    # permutation, which keeps them in the (normal) Rubik group; at an odd
    # orbit count also the lift of the orbit n-cycle with the anti-diagonal
    # pairs, transitive on the free points but not 2-transitive
    v4 = FiniteGroup.from_table(
        "V4", [0, 1, 2, 3, 1, 0, 3, 2, 2, 3, 0, 1, 3, 2, 1, 0])
    rng = random.Random(20261020)
    actions = [make_free_action(gamma, n) for gamma in (z2, z3, z4, v4, s3)
               for n in (7, 8, 9)] + [make_free_action(z3, 7, n_fixed=1)]
    seen = set()
    for act in actions:
        n, q = len(act.free_orbits), act.group.order
        gens = rubik_generators(act)
        subsets = [[g for g in gens if rng.random() < 0.75] or gens[:1]
                   for _ in range(6)]
        if n % 2:
            shift = tuple(range(1, n)) + (0,)
            subsets.append([equivariant_perm(act, shift, (0,) * n)]
                           + gens[n - 2:])
        for subset in subsets:
            orbit_perm = rng.sample(range(n), n)
            c = equivariant_perm(act, tuple(orbit_perm),
                                 tuple(rng.randrange(q) for _ in range(n)))
            conj = [perms.mult(perms.mult(perms.inverse(c), g), c)
                    for g in subset]
            want = two_transitive_oracle(conj, act)
            assert rubik_surjectivity_check(conj, act).two_transitive == want
            seen.add(want)
    assert seen == {True, False}


def test_rubik_order_bound_keeps_the_chain(z2, z3, z4, s3):
    # the subsets of test_two_transitive_matches_pair_bfs: a chain that
    # stops at |Rub| must answer as the full build does, and one whose
    # generators close less than Rub never reaches the bound
    v4 = FiniteGroup.from_table(
        "V4", [0, 1, 2, 3, 1, 0, 3, 2, 2, 3, 0, 1, 3, 2, 1, 0])
    rng = random.Random(20261020)
    actions = [make_free_action(gamma, n) for gamma in (z2, z3, z4, v4, s3)
               for n in (7, 8, 9)] + [make_free_action(z3, 7, n_fixed=1)]
    reached = set()
    for act in actions:
        n, q = len(act.free_orbits), act.group.order
        gens = rubik_generators(act)
        subsets = [gens] + [[g for g in gens if rng.random() < 0.75]
                            or gens[:1] for _ in range(6)]
        if n % 2:
            shift = tuple(range(1, n)) + (0,)
            subsets.append([equivariant_perm(act, shift, (0,) * n)]
                           + gens[n - 2:])
        bound = rubik_order(n, act.group)
        for subset in subsets:
            base = (act.section[0], act.section[1])
            full = perms.PermutationGroup(act.npoints, subset, base=base)
            bounded = perms.PermutationGroup(act.npoints, subset, base=base,
                                             order_bound=bound)
            assert bounded.orbit_lengths() == full.orbit_lengths()
            assert bounded.order() == full.order()
            reached.add(full.order() == bound)
            word = tuple(range(act.npoints))
            for _ in range(5):
                word = perms.mult(word, rng.choice(subset))
            swap = list(range(act.npoints))
            swap[act.section[0]], swap[act.section[1]] = act.section[1], \
                act.section[0]
            probes = [word, perms.mult(word, rng.choice(gens)), tuple(swap),
                      equivariant_perm(act, tuple(rng.sample(range(n), n)),
                                       tuple(rng.randrange(q)
                                             for _ in range(n)))]
            for p in probes:
                assert bounded.contains(p) == full.contains(p)
    assert reached == {True, False}


def test_rubik_order_bound_counts_the_fixed_points(z2):
    # membership admits any even permutation of the fixed points, so with
    # three of them a 3-cycle there triples the order past |Rub|; the
    # chain must not stop once the free generators alone reach |Rub|
    act = make_free_action(z2, 7, n_fixed=3)
    gens = rubik_generators(act)
    cycle = (1, 2, 0) + tuple(range(3, act.npoints))
    assert rubik_membership(cycle, act)
    rep = rubik_surjectivity_check(gens + [cycle], act)
    assert rep.generated_order == 3 * rep.expected_order == 483840
    assert not rep.order_match
    assert rubik_surjectivity_check(gens, act).order_match
    H = perms.PermutationGroup(act.npoints, gens + [cycle],
                               base=(act.section[0], act.section[1]),
                               order_bound=483840)
    assert H.contains(cycle) and H.order() == 483840
    # a bound below the order shows once the orbits outgrow it
    low = perms.PermutationGroup(act.npoints, gens + [cycle],
                                 base=(act.section[0], act.section[1]),
                                 order_bound=2 * rep.expected_order)
    with pytest.raises(ValueError, match="order_bound 322560 is below"):
        low.order()


def test_surjectivity_report_a5_at_nine_orbits(a5):
    # 540 points, where the bounded chains stop long before their queues
    # empty: each flag against an oracle that builds no bounded chain
    act = make_free_action(a5, 9)
    gens = rubik_generators(act)
    rep = rubik_surjectivity_check(gens, act)
    induced = [act.decompose(p)[1] for p in gens]
    assert rep.alt_projection
    assert oracle_chain_order(induced) == factorial(9) // 2
    assert rep.two_transitive and two_transitive_oracle(gens, act)
    # A5 is perfect, so |Rub| = 60^9 * 9!/2
    assert rep.order_match
    assert rep.generated_order == 60 ** 9 * factorial(9) // 2


def test_alt_bound_keeps_the_giant_test(z2, z3, z4, s3):
    # subsets drawn as in test_rubik_order_bound_keeps_the_chain: the giant
    # test under the Alt(n) bound answers as the chain built without one
    v4 = FiniteGroup.from_table(
        "V4", [0, 1, 2, 3, 1, 0, 3, 2, 2, 3, 0, 1, 3, 2, 1, 0])
    rng = random.Random(20261020)
    actions = [make_free_action(gamma, n) for gamma in (z2, z3, z4, v4, s3)
               for n in (7, 8, 9)] + [make_free_action(z3, 7, n_fixed=1)]
    seen = set()
    for act in actions:
        n = len(act.free_orbits)
        gens = rubik_generators(act)
        subsets = [gens] + [[g for g in gens if rng.random() < 0.75]
                            or gens[:1] for _ in range(6)]
        if n % 2:
            shift = tuple(range(1, n)) + (0,)
            subsets.append([equivariant_perm(act, shift, (0,) * n)]
                           + gens[n - 2:])
        for subset in subsets:
            induced = [act.decompose(p)[1] for p in subset]
            kind = perms.classify_giant(perms.PermutationGroup(n, induced))
            want = kind in ("alternating", "symmetric")
            assert rubik_surjectivity_check(subset, act).alt_projection \
                == want
            seen.add(want)
    assert seen == {True, False}


def test_bounded_chain_membership_a5(a5):
    # the chain stopped at |Rub| is all of Rub, so it admits exactly the
    # equivariant permutations the membership rule does
    act = make_free_action(a5, 7)
    H = perms.PermutationGroup(act.npoints, rubik_generators(act),
                               base=(act.section[0], act.section[1]),
                               order_bound=rubik_order(7, a5))
    assert H.order() == rubik_order(7, a5)
    rng = random.Random(35)
    seen = set()
    for _ in range(40):
        p = equivariant_perm(act, tuple(rng.sample(range(7), 7)),
                             tuple(rng.randrange(60) for _ in range(7)))
        verdict = rubik_membership(p, act)
        assert H.contains(p) == verdict
        seen.add(verdict)
    assert seen == {True, False}


def test_goursat(s3, z4):
    diag = [(x, x) for x in s3.elements()]
    dec = goursat_decompose(diag, s3, s3)
    assert dec.n1 == dec.n2 == (0,)
    full = [(x, y) for x in s3.elements() for y in s3.elements()]
    dec = goursat_decompose(full, s3, s3)
    assert dec.n1 == dec.n2 == tuple(range(6))
    # same-A3-coset subgroup of order 18
    a3 = close_under_product(
        s3, [next(g for g in s3.elements() if s3.element_order(g) == 3)])
    H = [(x, y) for x in s3.elements() for y in s3.elements()
         if (x in set(a3)) == (y in set(a3))]
    dec = goursat_decompose(H, s3, s3)
    assert dec.n1 == dec.n2 == a3
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
    assert len(dec.n1) == len(dec.n2) == 24 and dec.iso == {0: 0}
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
