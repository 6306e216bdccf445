import random
import sys
from math import factorial

import pytest

from homcount import perms
from homcount.circuits import BooleanCircuit, reduce_pipeline
from homcount.perms import (PermutationGroup, classify_giant, cycle_perm,
                            format_cycles, gather, inverse, is_even, mult,
                            parse_cycles, perm_parity)
from homcount.groups import FiniteGroup
from homcount.gsets import make_free_action, rubik_generators, rubik_order
from conftest import mulclose, oracle_chain_contains, oracle_chain_order


def group_order(degree, gens):
    """Exact order of the group generated by gens on 0..degree-1."""
    return PermutationGroup(degree, gens).order()


def alt_generation_check(points, subsets):
    """(generates, connected): whether the groups Alt(T_i) together generate
    Alt(S), and whether the subsets form a connected graph under pairwise
    intersection, the hypothesis under which generation is guaranteed.
    Each subset needs at least 3 points; their union must be all of S."""
    subsets = [sorted(set(t)) for t in subsets]
    sets = [set(t) for t in subsets]
    if any(len(t) < 3 for t in sets):
        raise ValueError("a subset has fewer than 3 points")
    if set().union(*sets) != set(points):
        raise ValueError("subsets do not cover the point set")
    n = max(points) + 1
    gens = [cycle_perm(n, [t[0], t[1], c]) for t in subsets for c in t[2:]]
    seen, frontier = {0}, [0]
    while frontier:
        i = frontier.pop()
        for j, t in enumerate(sets):
            if j not in seen and sets[i] & t:
                seen.add(j)
                frontier.append(j)
    order = PermutationGroup(n, gens).order()
    return order == factorial(len(set(points))) // 2, len(seen) == len(sets)


def test_cycle_roundtrip():
    p = parse_cycles("(0 3)(1 2 4)")
    assert format_cycles(p) == "(0 3)(1 2 4)"
    assert parse_cycles("()", 4) == (0, 1, 2, 3)
    with pytest.raises(ValueError):
        parse_cycles("(0 0 1)")
    with pytest.raises(ValueError):
        parse_cycles("0 1 2")


def test_mult_convention():
    # p * q applies p first
    p = parse_cycles("(0 1)", 3)
    q = parse_cycles("(1 2)", 3)
    assert mult(p, q)[0] == 2
    assert mult((0,), (0,)) == (0,) and mult((), ()) == ()


def test_gather_returns_tuples():
    # itemgetter alone would return "c" for one index and refuse none
    assert gather((2, 0))("abc") == ("c", "a")
    assert gather((2,))("abc") == ("c",)
    assert gather(())("abc") == ()


def test_inverse_power():
    p = parse_cycles("(0 1 2 3 4)")
    assert mult(p, inverse(p)) == (0, 1, 2, 3, 4)
    assert mult(inverse(p), p) == (0, 1, 2, 3, 4)
    power = p
    for _ in range(4):
        power = mult(power, p)
    assert power == (0, 1, 2, 3, 4)


def test_order_simple_cases():
    assert group_order(5, [parse_cycles("(0 1 2 3 4)", 5)]) == 5
    assert group_order(4, []) == 1
    big = [parse_cycles("(0 1)", 27),
           parse_cycles("(%s)" % " ".join(str(i) for i in range(27)), 27)]
    assert group_order(27, big) == factorial(27)


def test_order_matches_closure_randomized():
    # random generator sets with support capped at 8 points keep closures
    # enumerable; the chain must agree exactly
    rng = random.Random(20240809)
    for _ in range(120):
        n = rng.randint(2, 10)
        support = rng.sample(range(n), min(n, rng.randint(2, 8)))
        gens = []
        for _ in range(rng.randint(1, 3)):
            imgs = support[:]
            rng.shuffle(imgs)
            p = list(range(n))
            for a, b in zip(support, imgs):
                p[a] = b
            gens.append(tuple(p))
        assert PermutationGroup(n, gens).order() == len(mulclose(gens))


def _random_perm_on(rng, n, support):
    imgs = support[:]
    rng.shuffle(imgs)
    p = list(range(n))
    for a, b in zip(support, imgs):
        p[a] = b
    return tuple(p)


def point_orbit(gens, x):
    orbit, frontier = {x}, [x]
    for y in frontier:
        for g in gens:
            if g[y] not in orbit:
                orbit.add(g[y])
                frontier.append(g[y])
    return orbit


def test_chain_matches_oracle_chain_randomized():
    # supports up to 16 points: far past what mulclose can enumerate
    rng, base_rng = random.Random(20261018), random.Random(20261020)
    for _ in range(200):
        n = rng.randint(2, 16)
        gens = [_random_perm_on(rng, n, rng.sample(range(n), rng.randint(2, n)))
                for _ in range(rng.randint(1, 3))]
        group = PermutationGroup(n, gens)
        assert group.order() == oracle_chain_order(gens)
        # a base prefix drawn from a stream of its own, so the groups and
        # probes stay those of the chain without one
        base = base_rng.sample(range(n), base_rng.randint(1, min(n, 3)))
        based = PermutationGroup(n, gens, base=base)
        assert based.order() == group.order()
        assert based.orbit_lengths()[0] == len(point_orbit(gens, base[0]))
        word = tuple(range(n))
        for _ in range(rng.randint(1, 6)):
            word = mult(word, rng.choice(gens))
        probes = [word, _random_perm_on(rng, n, list(range(n))),
                  mult(word, _random_perm_on(rng, n, rng.sample(range(n), 2)))]
        for p in probes:
            assert group.contains(p) == oracle_chain_contains(gens, p)
            assert based.contains(p) == group.contains(p)
        assert group.contains(word)


def test_chain_base_prefix():
    # S3 on 0..2 next to a point 3 that every generator fixes: the base
    # point 3 gets a level whose orbit is {3}
    gens = [cycle_perm(4, [0, 1]), cycle_perm(4, [0, 1, 2])]
    group = PermutationGroup(4, gens, base=(3, 2))
    assert group.orbit_lengths() == (1, 3, 2)
    assert group.order() == 6
    assert group.contains(cycle_perm(4, [1, 2]))
    assert not group.contains(cycle_perm(4, [2, 3]))
    assert PermutationGroup(4, [], base=(0, 1)).orbit_lengths() == (1, 1)
    for base in [(0, 0), (1, 4), (-1,)]:
        with pytest.raises(ValueError):
            PermutationGroup(4, gens, base=base)


@pytest.mark.parametrize("n_orbits", [7, 8, 9])
@pytest.mark.parametrize("gamma", ["Z2", "Z3", "S3"])
def test_chain_on_benchmark_rubik_groups(gamma, n_orbits):
    group = {"Z2": FiniteGroup.cyclic(2), "Z3": FiniteGroup.cyclic(3),
             "S3": FiniteGroup.from_perm_gens(
                 "S3", [parse_cycles("(0 1)", 3), parse_cycles("(0 1 2)", 3)])}
    act = make_free_action(group[gamma], n_orbits)
    gens = rubik_generators(act)
    order = PermutationGroup(act.npoints, gens).order()
    assert order == oracle_chain_order(gens)
    assert order == rubik_order(n_orbits, group[gamma])


def test_chain_build_is_iterative():
    # 100 disjoint transpositions need a 100-level chain; one Python frame
    # per level would overflow a limit 50 frames above the current depth
    gens = [cycle_perm(200, [2 * i, 2 * i + 1]) for i in range(100)]
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 50)
    try:
        assert PermutationGroup(200, gens).order() == 2 ** 100
    finally:
        sys.setrecursionlimit(limit)


def test_contains():
    a5 = PermutationGroup(5, [parse_cycles("(0 1 2)", 5),
                              parse_cycles("(0 1 2 3 4)", 5)])
    assert a5.contains(parse_cycles("(0 1)(2 3)", 5))
    assert not a5.contains(parse_cycles("(0 1)", 5))


def test_classify_giant():
    sym = PermutationGroup(5, [parse_cycles("(0 1)", 5),
                               parse_cycles("(0 1 2 3 4)", 5)])
    alt = PermutationGroup(5, [parse_cycles("(0 1 2)", 5),
                               parse_cycles("(0 1 2 3 4)", 5)])
    other = PermutationGroup(5, [parse_cycles("(0 1)", 5)])
    assert classify_giant(sym) == "symmetric"
    assert classify_giant(alt) == "alternating"
    assert classify_giant(other) == "other"
    with pytest.raises(ValueError):
        classify_giant(PermutationGroup(4, [parse_cycles("(0 1)", 4)]))


def test_alt_generation():
    assert alt_generation_check([0, 1, 2, 3, 4], [[0, 1, 2], [2, 3, 4]]) \
        == (True, True)
    assert alt_generation_check([0, 1, 2, 3, 4], [[0, 1, 2, 3, 4]]) \
        == (True, True)
    assert alt_generation_check([0, 1, 2, 3, 4, 5], [[0, 1, 2], [3, 4, 5]]) \
        == (False, False)
    with pytest.raises(ValueError):
        alt_generation_check([0, 1, 2], [[0, 1]])
    with pytest.raises(ValueError):
        alt_generation_check([0, 1, 2, 3], [[0, 1, 2]])


def test_parity():
    assert is_even(parse_cycles("(0 1 2)"))
    assert not is_even(parse_cycles("(0 1)"))
    assert not is_even(cycle_perm(6, [0, 1, 2, 3]))


def transposition_parity(p):
    """Parity by sorting: swap each point into its place, counting swaps."""
    p, swaps = list(p), 0
    for i in range(len(p)):
        while p[i] != i:
            j = p[i]
            p[i], p[j] = p[j], p[i]
            swaps += 1
    return swaps & 1


def test_parity_matches_transposition_count(monkeypatch):
    rng = random.Random(37)
    tables = [(), (0,), tuple(range(9)), (1, 0), (2, 0, 1)]
    for n in (2, 5, 40, 300):
        for moved in sorted({2, min(3, n), n // 2, n}):    # sparse to dense
            p = list(range(n))
            points = rng.sample(range(n), moved)
            images = points[:]
            rng.shuffle(images)
            for x, y in zip(points, images):
                p[x] = y
            tables.append(tuple(p))
    # the stage-3 lift tables, as built (odd and even) and as emitted
    # after their parity repair, and the stage-4 relabelling
    lifts = []
    real = perms.perm_parity
    monkeypatch.setattr(perms, "perm_parity",
                        lambda p: lifts.append(tuple(p)) or real(p))
    for n, gates, output in [
            (2, [("AND", (0, 1), (2,))], 2),
            (3, [("OR", (0, 1), (3,)), ("AND", (3, 2), (4,))], 4),
            (3, [("NOT", (0,), (3,)), ("AND", (3, 2), (4,)),
                 ("OR", (3, 4), (5,))], 5)]:
        r3 = reduce_pipeline(BooleanCircuit(n, gates, output))[2]
        tables.extend(perm for _, perm in r3.gates)
    monkeypatch.undo()
    assert len(lifts) >= 6
    assert {transposition_parity(p) for p in lifts} == {0, 1}
    for p in tables + lifts:
        want = transposition_parity(p)
        assert perm_parity(p) == want == perm_parity(list(p)), p
        # the sparse form: a dict on the moved points, or on some fixed
        # points as well
        sparse = {x: y for x, y in enumerate(p) if x != y}
        fixed = [x for x, y in enumerate(p) if x == y][:3]
        assert perm_parity(sparse) == want
        assert perm_parity({**sparse, **dict(zip(fixed, fixed))}) == want
