import heapq
import random
import sys
from itertools import product

import pytest

from homcount import groups, perms
from homcount.complexes import (ComplexError, Presentation,
                                SimplicialComplex, band_ordering,
                                csaszar_torus, faces, genus2_ordering,
                                genus2_surface, greedy_ordering, grid_torus,
                                load_complex, presentation_from_complex)
from homcount.counting import (CountingLimits, DpStats, WorkBoundExceeded,
                               _plan_search, count_homs, count_quotients,
                               count_surjections, dp_cocycle_count,
                               dp_count_homs, narrow_ordering, quotient_count,
                               quotient_counts_via_inversion)
from homcount.groups import FiniteGroup, GroupError, automorphisms, generates
from conftest import data_path

TORUS_P = Presentation(2, [(1, 2, -1, -2)])
POINCARE = Presentation(2, [(1, 1, 1, -2, -2, -2, -2, -2),
                            (1, 1, 1, -2, -1, -2, -1)])


def centralizer_sum(G):
    """Commuting-pair count: the independent oracle for torus hom counts."""
    return sum(1 for a in G.elements() for b in G.elements()
               if G.mul(a, b) == G.mul(b, a))


def test_count_homs_trivial_presentations(s3, a5):
    trivial = Presentation(1, [(1,)])
    assert count_homs(trivial, s3) == 1
    assert count_homs(trivial, a5) == 1
    free1 = Presentation(1, [])
    assert count_homs(free1, s3) == 6


def test_torus_counts(z2, z3, s3, a4, a5):
    for G in (z2, z3, s3, a4, a5):
        assert count_homs(TORUS_P, G) == centralizer_sum(G)
    assert count_surjections(TORUS_P, s3) == (18, 0)
    assert count_quotients(TORUS_P, s3) == 0


def test_poincare_counts(a5):
    assert count_homs(POINCARE, a5) == 121
    assert count_surjections(POINCARE, a5) == (121, 120)
    assert count_quotients(POINCARE, a5) == 1
    assert count_quotients_canonical(POINCARE, a5) == 1


def test_free_group_counts(z3, s3):
    free1 = Presentation(1, [])
    assert count_homs(free1, z3) == 3
    assert count_surjections(free1, z3) == (3, 2)
    assert count_quotients(free1, z3) == 1
    assert count_quotients_canonical(free1, z3) == 1
    assert quotient_count(12, s3) == 2
    with pytest.raises(GroupError):
        quotient_count(7, s3)


def test_enumeration_budget(a5):
    with pytest.raises(WorkBoundExceeded):
        count_homs(Presentation(4, [(1, 2, 3, 4)]), a5,
                   limits=CountingLimits(max_enumeration=100))


def heap_branch_order(ngens, relators):
    """The branch order of cascade_count_homs, by propagation on letter
    counts.

    Simulates propagation: a relator with exactly one unassigned letter
    determines its generator.  Otherwise it branches on the unassigned
    generator with the smallest key (fewest unassigned letters left in one
    of its relators, most relators, lowest index); keys only fall, so a
    heap entry whose key is no longer current is skipped.
    """
    occ = {v: [] for v in range(1, ngens + 1)}   # one entry per letter
    for i, rel in enumerate(relators):
        for letter in rel:
            occ[abs(letter)].append(i)
    nrels = {v: len(set(occ[v])) for v in occ}
    left = [len(rel) for rel in relators]       # unassigned letters
    assigned = set()

    def propagate(v):
        """Assign v and every generator it forces; return the relators
        whose unassigned letters fell."""
        touched = set()
        assigned.add(v)
        queue = [v]
        while queue:
            for i in occ[queue.pop()]:
                left[i] -= 1
                touched.add(i)
                if left[i] == 1:
                    for letter in relators[i]:
                        w = abs(letter)
                        if w not in assigned:
                            assigned.add(w)
                            queue.append(w)
        return touched

    def key(v):
        return (min(left[i] for i in occ[v]), -nrels[v], v)

    for rel in relators:
        if len(rel) == 1 and abs(rel[0]) not in assigned:
            propagate(abs(rel[0]))
    heap = [key(v) for v in occ if occ[v] and v not in assigned]
    heapq.heapify(heap)
    order = []
    while heap:
        entry = heapq.heappop(heap)
        v = entry[2]
        if v in assigned or entry != key(v):
            continue
        order.append(v)
        for i in propagate(v):
            for letter in relators[i]:
                w = abs(letter)
                if w not in assigned:
                    heapq.heappush(heap, key(w))
    # generators in no relator are counted as free factors at the leaves
    return order


def cascade_count_homs(P, G, limits=CountingLimits(), per_solution=None):
    """Oracle for count_homs: backtracking that works out unit propagation
    again at every search node, with per-relator counts of unassigned
    generators, a trail and undo.  Same nodes, budget and per_solution
    calls: raises WorkBoundExceeded when the explored node count passes the
    budget; per_solution, if given, is called with each full image tuple,
    and each image tuple of the generators in no relator then counts as a
    node."""
    r = P.ngens
    relators = [tuple(rel) for rel in P.relators]
    branch_order = heap_branch_order(r, relators)
    img = [None] * (r + 1)
    occ = {v: [] for v in range(1, r + 1)}
    rel_unassigned = [len({abs(l) for l in rel}) for rel in relators]
    for i, rel in enumerate(relators):
        for v in {abs(l) for l in rel}:
            occ[v].append(i)

    nodes = [0]
    count = [0]

    def rel_value(rel):
        acc = 0
        for letter in rel:
            g = img[abs(letter)]
            acc = G.mul(acc, g if letter > 0 else G.inv(g))
        return acc

    def solve_single(rel, v):
        """Solve prefix * v^s * suffix = e when v occurs once in rel."""
        pos = next(i for i, l in enumerate(rel) if abs(l) == v)
        sign = 1 if rel[pos] > 0 else -1
        pre = 0
        for letter in rel[:pos]:
            g = img[abs(letter)]
            pre = G.mul(pre, g if letter > 0 else G.inv(g))
        suf = 0
        for letter in rel[pos + 1:]:
            g = img[abs(letter)]
            suf = G.mul(suf, g if letter > 0 else G.inv(g))
        val = G.mul(G.inv(pre), G.inv(suf))
        return val if sign > 0 else G.inv(val)

    def set_var(w, g, trail):
        img[w] = g
        for i in occ[w]:
            rel_unassigned[i] -= 1
        trail.append(w)
        spend(1)

    def spend(work):
        nodes[0] += work
        if nodes[0] > limits.max_enumeration:
            raise WorkBoundExceeded(
                "enumeration budget %d exceeded" % limits.max_enumeration)

    def cascade(rel_queue, trail):
        while rel_queue:
            i = rel_queue.pop()
            if rel_unassigned[i] == 0:
                if rel_value(relators[i]) != 0:
                    return False
            elif rel_unassigned[i] == 1:
                rel = relators[i]
                missing = next(x for x in {abs(l) for l in rel}
                               if img[x] is None)
                if sum(1 for l in rel if abs(l) == missing) == 1:
                    forced = solve_single(rel, missing)
                    set_var(missing, forced, trail)
                    rel_queue.extend(occ[missing])
        return True

    def assign(v, g, trail):
        set_var(v, g, trail)
        return cascade(list(occ[v]), trail)

    def undo(trail, mark):
        while len(trail) > mark:
            v = trail.pop()
            img[v] = None
            for i in occ[v]:
                rel_unassigned[i] += 1

    # depth-first search; each stack frame [k, next image, trail] is one
    # branching generator on the current path
    stack = []

    def descend(k):
        """Push the first unset branching generator from position k on; when
        none is left, count the leaf, where the generators in no relator
        range over all of G."""
        while k < len(branch_order) and img[branch_order[k]] is not None:
            k += 1
        if k < len(branch_order):
            stack.append([k, 0, []])
            return
        free = [v for v in range(1, r + 1) if img[v] is None]
        if per_solution is None:
            count[0] += G.order ** len(free)
        elif not free:
            count[0] += 1
            per_solution(tuple(img[1:]))
        else:
            # each reported assignment of the free generators is work
            spend(G.order ** len(free))
            for values in product(G.elements(), repeat=len(free)):
                for v, g in zip(free, values):
                    img[v] = g
                count[0] += 1
                per_solution(tuple(img[1:]))
            for v in free:
                img[v] = None

    if cascade(list(range(len(relators))), []):
        descend(0)
    n = G.order
    while stack:
        frame = stack[-1]
        k, g, trail = frame
        undo(trail, 0)
        if g == n:
            stack.pop()
        else:
            frame[1] = g + 1
            if assign(branch_order[k], g, trail):
                descend(k + 1)
    return count[0]


def count_quotients_canonical(P, G):
    """Independent quotient count: accept only surjections that are
    lexicographically first in their automorphism orbit."""
    auts = automorphisms(G)
    hits = [0]

    def check(images):
        if not generates(G, images):
            return
        for phi in auts:
            moved = tuple(phi[g] for g in images)
            if moved < images:
                return
        hits[0] += 1

    cascade_count_homs(P, G, per_solution=check)
    return hits[0]


def oracle_plan_branch_order(ngens, relators):
    """The branch order by rescanning every relator after each choice."""
    assigned = set()
    order = []
    occ = {v: set() for v in range(1, ngens + 1)}
    for i, rel in enumerate(relators):
        for letter in rel:
            occ[abs(letter)].add(i)

    def propagate():
        changed = True
        while changed:
            changed = False
            for rel in relators:
                missing = [abs(l) for l in rel if abs(l) not in assigned]
                if len(missing) == 1:
                    assigned.add(missing[0])
                    changed = True

    propagate()
    constrained = {v for v in range(1, ngens + 1) if occ[v]}
    while not constrained <= assigned:
        best = None
        for v in sorted(constrained - assigned):
            score = min(sum(1 for l in relators[i] if abs(l) not in assigned)
                        for i in occ[v])
            key = (score, -len(occ[v]), v)
            if best is None or key < best[0]:
                best = (key, v)
        order.append(best[1])
        assigned.add(best[1])
        propagate()
    return order


def test_branch_order_matches_oracle():
    rng = random.Random(5)
    for _ in range(1500):
        ngens = rng.randint(1, 20)
        rels = [tuple(rng.choice((1, -1)) * rng.randint(1, ngens)
                      for _ in range(rng.randint(0, 6)))
                for _ in range(rng.randint(0, 15))]
        _, steps, _ = _plan_search(ngens, rels)
        assert ([v for v, _ in steps]
                == oracle_plan_branch_order(ngens, rels))


def search(count, P, G, budget):
    """The count under budget, or the budget message, and the image tuples
    reported until then."""
    seen = []
    try:
        result = count(P, G, CountingLimits(max_enumeration=budget),
                       seen.append)
    except WorkBoundExceeded as exc:
        result = str(exc)
    return result, seen


def test_search_matches_cascade_oracle(z2, z4, s3, a4):
    """Counts, per_solution sequences and the node count at which the
    budget raises agree with the search that propagates at every node."""
    rng = random.Random(14)
    groups = [FiniteGroup.trivial(), z2, z4, s3, a4]
    cap = 3000
    finished = 0
    for case in range(1000):
        G = groups[case % len(groups)]
        ngens = rng.randint(1, 5)
        P = Presentation(ngens, [
            tuple(rng.choice((1, -1)) * rng.randint(1, ngens)
                  for _ in range(rng.randint(0, 6)))
            for _ in range(rng.randint(0, 5))])
        assert count_homs(P, G) == cascade_count_homs(P, G), P
        got = search(count_homs, P, G, cap)
        assert got == search(cascade_count_homs, P, G, cap), P
        if not isinstance(got[0], int):
            continue
        finished += 1
        # the least budget that does not raise, by bisection
        lo, hi = 0, cap
        while lo < hi:
            mid = (lo + hi) // 2
            if isinstance(search(count_homs, P, G, mid)[0], int):
                hi = mid
            else:
                lo = mid + 1
        assert search(cascade_count_homs, P, G, lo) == got, P
        for budget in {lo - 1, lo // 2, rng.randrange(lo)}:
            short = search(count_homs, P, G, budget)
            assert short[0] == "enumeration budget %d exceeded" % budget
            assert short == search(cascade_count_homs, P, G, budget), P
    assert finished > 900


def commuting_chain(n):
    """<x1..xn | [x_i, x_i+1]>: no relator ever forces a generator, so
    every generator is one more nested branching level."""
    return Presentation(n, [(i, i + 1, -i, -(i + 1)) for i in range(1, n)])


def test_deep_search_needs_no_recursion():
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 50)
    try:
        homs = count_homs(commuting_chain(1500), FiniteGroup.trivial())
    finally:
        sys.setrecursionlimit(limit)
    assert homs == 1


def test_reported_free_generators_are_budgeted(s3):
    free12 = Presentation(12, [])
    assert count_homs(free12, s3) == 6 ** 12
    with pytest.raises(WorkBoundExceeded,
                       match="^enumeration budget 200 exceeded$"):
        count_homs(free12, s3, limits=CountingLimits(max_enumeration=200),
                   per_solution=lambda images: None)
    seen = []
    assert count_homs(Presentation(2, []), s3,
                      limits=CountingLimits(max_enumeration=36),
                      per_solution=seen.append) == 36
    assert seen == sorted(seen) and len(set(seen)) == 36


def test_dp_matches_presentation_small(z2, z3, s3, a4):
    complexes = [
        ("disk", SimplicialComplex(3, [(0, 1, 2)]), None),
        ("sphere", SimplicialComplex(4, [(0, 1, 2), (0, 1, 3),
                                         (0, 2, 3), (1, 2, 3)]), None),
        ("torus7", csaszar_torus(), None),
        ("grid", grid_torus(3, 3), band_ordering(3, 3)),
    ]
    for name, X, ordering in complexes:
        P, _ = presentation_from_complex(X)
        for G in (z2, z3, s3, a4):
            expect = count_homs(P, G)
            got = dp_count_homs(X, ordering, G)
            assert got == expect, (name, G.name)


def test_dp_ordering_invariance(s3):
    X = csaszar_torus()
    assert narrow_ordering(X) == greedy_ordering(X)
    orderings = [greedy_ordering(X), edge_sweep(X, CSASZAR_EDGES),
                 edge_sweep(X, CSASZAR_EDGES[::-1]),
                 edge_sweep(X, X.by_dim[1])]
    assert len({tuple(o) for o in orderings}) == 4
    assert [dp_count_homs(X, o, s3) for o in orderings] == [18] * 4


def dp_count_homs_ungauged(X, ordering=None, G=None):
    """#H(X, G) as |Z^1| / |G|^(v-1), asserting exact divisibility."""
    z1 = dp_cocycle_count(X, ordering, G, tree_gauge=False)
    denom = G.order ** (X.nvertices - 1)
    if z1 % denom != 0:
        raise GroupError("|Z^1| = %d not divisible by |G|^(v-1) = %d"
                         % (z1, denom))
    return z1 // denom


def test_dp_ungauged_divisibility(z2, z3, s3):
    # ungauged states are |G|^(v-1)-fold larger, so stick to small cases
    disk = SimplicialComplex(3, [(0, 1, 2)])
    for G in (z2, z3, s3):
        assert dp_count_homs_ungauged(disk, None, G) == 1
    for G in (z2, z3):
        assert dp_count_homs_ungauged(csaszar_torus(), None, G) == \
            dp_count_homs(csaszar_torus(), None, G)
    sphere = SimplicialComplex(4, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])
    assert dp_count_homs_ungauged(sphere, None, s3) == 1


def test_dp_tetrahedra(z3, s3):
    ball = SimplicialComplex(4, [(0, 1, 2, 3)])
    assert dp_count_homs(ball, None, s3) == 1
    assert dp_count_homs_ungauged(ball, None, z3) == 1


def test_dp_disconnected_rejected(s3):
    two = SimplicialComplex(6, [(0, 1, 2), (3, 4, 5)])
    with pytest.raises(Exception):
        dp_count_homs(two, None, s3)


def test_dp_state_budget(a4):
    X = genus2_surface()
    with pytest.raises(WorkBoundExceeded):
        dp_count_homs(X, genus2_ordering(), a4,
                      limits=CountingLimits(max_states=10))


def edge_sweep(X, edges):
    """The vertices, then each edge followed by the triangles it completes."""
    ordering = list(X.by_dim[0])
    placed = set()
    for e in edges:
        ordering.append(e)
        placed.add(e)
        ordering.extend(t for t in X.by_dim[2] if e in faces(t)
                        and all(f in placed for f in faces(t)))
    return ordering


# an edge order whose fused triangles solve for each of the three edges
# while the other two labels stay on the boundary
CSASZAR_EDGES = [(0, 2), (3, 6), (1, 5), (1, 2), (1, 4), (0, 6), (1, 6),
                 (0, 1), (2, 5), (4, 5), (0, 5), (2, 6), (2, 4), (0, 3),
                 (0, 4), (4, 6), (3, 4), (1, 3), (3, 5), (5, 6), (2, 3)]


@pytest.mark.parametrize("build, group, expected", [
    (lambda: (csaszar_torus(), None), "a4", (48, 1728, 7)),
    (lambda: (grid_torus(3, 3), band_ordering(3, 3)), "a5", (300, 3600, 5)),
    (lambda: (load_complex(data_path("rp2.cx"))[0], None), "a4", (4, 144, 6)),
    (lambda: (csaszar_torus(), edge_sweep(csaszar_torus(), CSASZAR_EDGES)),
     "s3", (18, 1296, 7)),
    # the greedy ordering follows the grid, since a vertex enters only
    # when nothing else fits
    (lambda: (grid_torus(3, 4), None), "a4", (48, 1728, 10)),
    (lambda: (grid_torus(3, 3), None), "a5", (300, 216000, 8)),
], ids=["csaszar-A4", "grid3x3-A5", "rp2-A4", "csaszar-edge-sweep-S3",
        "grid3x4-greedy-A4", "grid3x3-greedy-A5"])
def test_dp_counts_and_state_peaks(request, build, group, expected):
    # rows with a given ordering are pinned from the sweep that expanded
    # every edge into |G| labels; a None ordering is greedy_ordering(X),
    # and a change to its rule may lower those peaks, never raise them
    X, ordering = build()
    stats = DpStats()
    homs = dp_count_homs(X, ordering, request.getfixturevalue(group),
                         stats=stats)
    assert (homs, stats.max_states, stats.max_tracked_edges) == expected


def test_dp_state_budget_is_exact(a4):
    # Csaszar over A4 peaks at 1728 rows, so that many are allowed and one
    # fewer is not
    X = csaszar_torus()
    assert dp_count_homs(X, None, a4,
                         limits=CountingLimits(max_states=1728)) == 48
    with pytest.raises(WorkBoundExceeded) as exc:
        dp_count_homs(X, None, a4, limits=CountingLimits(max_states=1727))
    assert str(exc.value) == "DP state budget 1727 exceeded"


def test_dp_rejects_empty_complex(s3):
    empty = SimplicialComplex(0, [])
    for count in (lambda: narrow_ordering(empty),
                  lambda: dp_count_homs(empty, [], s3)):
        with pytest.raises(ComplexError, match="connected complex"):
            count()


def test_dp_dangling_edges(s3):
    # a whisker edge is contractible; a bare cycle contributes a free loop
    whisker = SimplicialComplex(4, [(0, 1, 2), (2, 3)])
    P, _ = presentation_from_complex(whisker)
    assert count_homs(P, s3) == dp_count_homs(whisker, None, s3) == 1
    loop = SimplicialComplex(5, [(0, 1, 2), (2, 3), (3, 4), (2, 4)])
    P, _ = presentation_from_complex(loop)
    assert count_homs(P, s3) == dp_count_homs(loop, None, s3) == 6


def test_inversion_f1_z4(z4):
    free1 = Presentation(1, [])
    table = quotient_counts_via_inversion(lambda J: count_homs(free1, J), z4)
    assert [row.quotients for row in table.rows] == [1, 1, 1]
    assert table.total_homs == 4


def test_inversion_trivial_source(s3):
    trivial = Presentation(1, [(1,)])
    table = quotient_counts_via_inversion(lambda J: count_homs(trivial, J), s3)
    assert table.rows[0].quotients == 1
    assert all(row.quotients == 0 for row in table.rows[1:])


def test_inversion_poincare(a5):
    table = quotient_counts_via_inversion(lambda J: count_homs(POINCARE, J), a5)
    assert table.total_homs == 121
    assert table.rows[-1].quotients == 1
    assert all(row.quotients == 0 for row in table.rows
               if 1 < row.order < 60)
    # e:hq consistency: no proper nontrivial quotients and perfect source
    naut = 120
    assert table.total_homs == naut * table.rows[-1].quotients + 1


def test_inversion_once_per_subgroup_class(monkeypatch, s4, a5):
    # S4 and D4 have isomorphic subgroups that are not conjugate (two
    # classes of order 2, two of Klein four-groups); each row must still
    # hold that subgroup's own surjection count
    def no_isomorphism(G, H):
        raise AssertionError("the inversion looked for an isomorphism")

    monkeypatch.setattr(groups, "find_isomorphism", no_isomorphism)
    d4 = FiniteGroup.from_perm_gens(
        "D4", [perms.parse_cycles("(0 1 2 3)", 4),
               perms.parse_cycles("(0 2)", 4)])
    free2 = Presentation(2, [])
    for G in (s4, d4):
        for P in (free2, TORUS_P):
            table = quotient_counts_via_inversion(
                lambda J: count_homs(P, J), G)
            for row in table.rows:
                H = groups.as_group(G, row.members)
                assert row.surjections == count_surjections(P, H)[1]
    # count_into runs once per conjugacy class of subgroups
    for G, nclasses in ((s4, 11), (d4, 8), (a5, 9)):
        calls = []

        def count_into(J):
            calls.append(J)
            return J.order ** 2         # #H(F_2, J)

        quotient_counts_via_inversion(count_into, G)
        assert len(calls) == nclasses


def test_genus2_three_routes(z3, s3):
    X = genus2_surface()
    ordering = genus2_ordering()
    P, _ = presentation_from_complex(X)

    def conv_oracle(G):
        N = [0] * G.order
        for a in G.elements():
            for b in G.elements():
                N[G.comm(a, b)] += 1
        return sum(N[c] * N[G.inv(c)] for c in G.elements())

    for G in (z3, s3):
        expect = conv_oracle(G)
        assert dp_count_homs(X, ordering, G) == expect
        assert count_homs(P, G) == expect
