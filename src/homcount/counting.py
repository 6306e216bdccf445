"""Exact counting of homomorphisms, surjections and quotients.

Two independent routes are kept deliberately separate: a backtracking
counter over presentations (with unit propagation on relators) and a
bounded-width dynamic program over ordered complexes counting 1-cocycles.
Their agreement is the package's central cross-check.
"""

from dataclasses import dataclass
from operator import itemgetter
from .groups import (FiniteGroup, GroupError, automorphisms, find_isomorphism,
                     generates, subgroup_lattice)
from .complexes import ComplexError, greedy_ordering, validate_ordering


class WorkBoundExceeded(ValueError):
    pass


@dataclass
class CountingLimits:
    max_enumeration: int = 5_000_000   # backtracking node budget
    max_states: int = 2_000_000        # DP state-vector budget


DEFAULT_LIMITS = CountingLimits()


# -- presentation-side counting ------------------------------------------------


def _plan_branch_order(ngens, relators):
    """Static variable order maximizing forced assignments.

    Simulates propagation: a relator whose letters involve exactly one
    unassigned generator, occurring exactly once, determines it.
    """
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
                if len(missing) == 1 and missing[0] not in assigned:
                    if sum(1 for l in rel if abs(l) == missing[0]) == 1:
                        assigned.add(missing[0])
                        changed = True

    propagate()
    constrained = {v for v in range(1, ngens + 1) if occ[v]}
    while not constrained <= assigned:
        # branch on the variable that appears in the most nearly-complete relator
        best = None
        for v in sorted(constrained - assigned):
            score = min(sum(1 for l in relators[i] if abs(l) not in assigned)
                        for i in occ[v])
            key = (score, -len(occ[v]), v)
            if best is None or key < best[0]:
                best = (key, v)
        v = best[1]
        order.append(v)
        assigned.add(v)
        propagate()
    # generators in no relator are counted as free factors at the leaves
    return order


def count_homs(P, G, limits=DEFAULT_LIMITS, per_solution=None):
    """Exact number of homomorphisms from the presented group to G.

    Backtracking over generator images with unit propagation on relators;
    raises WorkBoundExceeded when the explored node count passes the budget.
    per_solution, if given, is called with each full image tuple.
    """
    r = P.ngens
    relators = [tuple(rel) for rel in P.relators]
    branch_order = _plan_branch_order(r, relators)
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
        nodes[0] += 1
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

    def recurse(k):
        while k < len(branch_order) and img[branch_order[k]] is not None:
            k += 1
        if k == len(branch_order):
            free = [v for v in range(1, r + 1) if img[v] is None]
            if not free:
                count[0] += 1
                if per_solution is not None:
                    per_solution(tuple(img[1:]))
                return
            # generators not occurring in any relator are free
            def fill(j):
                if j == len(free):
                    count[0] += 1
                    if per_solution is not None:
                        per_solution(tuple(img[1:]))
                    return
                for g in G.elements():
                    img[free[j]] = g
                    fill(j + 1)
                img[free[j]] = None

            if per_solution is None:
                count[0] += G.order ** len(free)
            else:
                fill(0)
            return
        v = branch_order[k]
        for g in G.elements():
            trail = []
            ok = assign(v, g, trail)
            if ok:
                recurse(k + 1)
            undo(trail, 0)

    root_trail = []
    if cascade(list(range(len(relators))), root_trail):
        recurse(0)
    return count[0]


def count_surjections(P, G, limits=DEFAULT_LIMITS):
    """Homomorphisms whose generator images generate all of G."""
    hits = [0]

    def check(images):
        if generates(G, images):
            hits[0] += 1

    count_homs(P, G, limits=limits, per_solution=check)
    return hits[0]


def count_quotients(P, G, limits=DEFAULT_LIMITS):
    """Number of normal subgroups of the presented group with quotient G.

    Surjections divided by |Aut(G)|; the division is asserted exact (the
    automorphism group acts freely on surjections).
    """
    return quotient_count(count_surjections(P, G, limits=limits), G)


def quotient_count(surj, G):
    """The number of surjections onto G divided by |Aut(G)|, which acts
    freely on them; raises GroupError when the division is not exact."""
    naut = len(automorphisms(G))
    if surj % naut != 0:
        raise GroupError("surjection count %d not divisible by |Aut| = %d"
                         % (surj, naut))
    return surj // naut


def count_quotients_canonical(P, G, limits=DEFAULT_LIMITS):
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

    count_homs(P, G, limits=limits, per_solution=check)
    return hits[0]


# -- complex-side counting: the bounded-width dynamic program --------------------


@dataclass
class DpStats:
    max_states: int = 0
    max_tracked_edges: int = 0


def dp_cocycle_count(X, ordering=None, G=None, limits=DEFAULT_LIMITS,
                     tree_gauge=False, stats=None):
    """Count 1-cocycles of X with values in G by a prefix sweep.

    The state maps labelings of the current boundary edges to extension
    counts.  A triangle u < v < w carries the cocycle condition a*b = c on
    its edge labels a = g(u,v), b = g(v,w), c = g(u,w).  It is checked at
    the step of its last edge when no other edge comes between the two, and
    at its own step otherwise.  A constrained edge step solves its label
    from the first such triangle (a = c*b^-1, b = a^-1*c or c = a*b), so
    each state extends in at most one way; a free edge step makes |G|
    copies.  Edges whose cofaces are completed are summed out.  With
    tree_gauge the spanning-tree edges are pinned to the identity, which
    counts tree-gauged cocycles, i.e. homomorphisms, directly.
    """
    if G is None:
        raise ValueError("group required")
    if not X.is_connected():
        raise ComplexError("dp counting needs a connected complex")
    if ordering is None:
        ordering = greedy_ordering(X)
    ordering = validate_ordering(X, ordering)
    pos = {s: i for i, s in enumerate(ordering)}
    # gauge tree: greedy spanning forest in ordering sequence, so each new
    # vertex enters through a pinned edge and boundary keys stay small
    tree = set()
    if tree_gauge:
        parent = list(range(X.nvertices))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for s in ordering:
            if len(s) == 2:
                ru, rv = find(s[0]), find(s[1])
                if ru != rv:
                    parent[ru] = rv
                    tree.add(s)

    dangling = set()
    leaving = {}            # step -> edges whose last coface is placed there
    for e in X.by_dim[1]:
        cof = X.cofaces(e)
        if cof:
            leaving.setdefault(max(pos[t] for t in cof), []).append(e)
        else:
            dangling.add(e)

    # fuse each edge with the triangles that contain it and come before the
    # next edge step; this avoids the transient |G|-fold blowup of expanding
    # an edge whose label is immediately constrained
    imminent = {}           # edge step -> triangles checked right after it
    fused = set()           # triangle steps already checked at an edge step
    last_edge = None
    for i, s in enumerate(ordering):
        if len(s) == 2:
            last_edge = s
        elif len(s) == 3 and last_edge in ((s[0], s[1]), (s[1], s[2]),
                                           (s[0], s[2])):
            imminent.setdefault(pos[last_edge], []).append(s)
            fused.add(i)

    # key[0] is a constant identity label that pinned edges read; tracked
    # boundary edge t has its label at key[t + 1]
    tracked = []
    pinned = set()
    states = {(0,): 1}
    multiplier = 1
    if stats is None:
        stats = DpStats()
    n, table, inv = G.order, G._table, G._inv
    ident = list(range(n))

    def slots(tri):
        """Key positions of the labels a, b, c of tri."""
        u, v, w = tri
        return [0 if e in pinned else 1 + tracked.index(e)
                for e in ((u, v), (v, w), (u, w))]

    def holds(check):
        i, j, k = check
        return {key: c for key, c in states.items()
                if table[key[i] * n + key[j]] == key[k]}

    for step, s in enumerate(ordering):
        dim = len(s) - 1
        if dim == 1:
            if s in dangling:
                # dangling edge: label free, never constrained
                if s not in tree:
                    multiplier *= n
            elif s in tree:
                pinned.add(s)
                for tri in imminent.get(step, ()):
                    states = holds(slots(tri))
            else:
                tracked.append(s)
                checks = [slots(tri) for tri in imminent.get(step, ())]
                if not checks:
                    states = {key + (g,): c for key, c in states.items()
                              for g in range(n)}
                else:
                    # the first check fixes the new label as one product
                    # left[key[p]] * right[key[q]]
                    ka, kb, kc = checks[0]
                    own = len(tracked)
                    if kc == own:           # c = a * b
                        p, q, left, right = ka, kb, ident, ident
                    elif ka == own:         # a = c * b^-1
                        p, q, left, right = kc, kb, ident, inv
                    else:                   # b = a^-1 * c
                        p, q, left, right = ka, kc, inv, ident
                    rest = checks[1:]
                    new = {}
                    for key, c in states.items():
                        nk = key + (table[left[key[p]] * n + right[key[q]]],)
                        for i, j, k in rest:
                            if table[nk[i] * n + nk[j]] != nk[k]:
                                break
                        else:
                            new[nk] = c
                    states = new
        elif dim == 2 and step not in fused:
            states = holds(slots(s))
        # vertices and tetrahedra add no constraint
        gone = leaving.get(step)
        if gone:
            pinned.difference_update(gone)
            keep = [t for t, e in enumerate(tracked) if e not in gone]
            if len(keep) < len(tracked):
                tracked = [tracked[t] for t in keep]
                project = (itemgetter(0, *(t + 1 for t in keep)) if keep
                           else lambda key: (0,))
                new = {}
                for key, c in states.items():
                    nk = project(key)
                    new[nk] = new.get(nk, 0) + c
                states = new
        stats.max_states = max(stats.max_states, len(states))
        stats.max_tracked_edges = max(stats.max_tracked_edges, len(tracked))
        if len(states) > limits.max_states:
            raise WorkBoundExceeded(
                "DP state budget %d exceeded" % limits.max_states)
        if not states:
            break

    total = sum(states.values()) if states else 0
    return total * multiplier


def _vertex_sweep_ordering(X, seed):
    """Simplex ordering induced by breadth-first vertex distance from seed."""
    adj = {v: set() for v in range(X.nvertices)}
    for (u, v) in X.by_dim[1]:
        adj[u].add(v)
        adj[v].add(u)
    rank = {seed: 0}
    queue = [seed]
    while queue:
        u = queue.pop(0)
        for v in sorted(adj[u]):
            if v not in rank:
                rank[v] = len(rank)
                queue.append(v)
    for v in range(X.nvertices):
        rank.setdefault(v, len(rank))
    return sorted(X.simplices(),
                  key=lambda s: (max(rank[v] for v in s), len(s),
                                 tuple(sorted(rank[v] for v in s)), s))


def narrow_ordering(X, G=None, extra_candidates=(), probe_limit=200_000):
    """Pick, among candidate orderings, the one with the smallest simulated
    DP state peak (probed with Z/2, whose peak reflects the free label count).

    Candidates: the greedy ordering plus vertex sweeps from a few seeds.
    """
    probe = G if G is not None and G.order <= 2 else FiniteGroup.cyclic(2)
    candidates = [greedy_ordering(X)]
    seeds = sorted(set([0, X.nvertices - 1, X.nvertices // 2]))
    for seed in seeds:
        candidates.append(_vertex_sweep_ordering(X, seed))
    candidates.extend(extra_candidates)
    best = None
    for cand in candidates:
        stats = DpStats()
        try:
            dp_cocycle_count(X, cand, probe, tree_gauge=True, stats=stats,
                             limits=CountingLimits(max_states=probe_limit))
        except WorkBoundExceeded:
            stats.max_states = probe_limit + 1
        if best is None or stats.max_states < best[0]:
            best = (stats.max_states, cand)
    return best[1]


def dp_count_homs(X, ordering=None, G=None, limits=DEFAULT_LIMITS, stats=None):
    """#H(X, G) by the width dynamic program with spanning-tree gauge.

    The relative 0-cochain group acts freely on cocycles, so pinning a
    spanning tree to the identity counts exactly |Z^1| / |G|^(v-1).
    """
    return dp_cocycle_count(X, ordering, G, limits=limits,
                            tree_gauge=True, stats=stats)


def dp_count_homs_ungauged(X, ordering=None, G=None, limits=DEFAULT_LIMITS):
    """#H(X, G) as |Z^1| / |G|^(v-1), asserting exact divisibility."""
    z1 = dp_cocycle_count(X, ordering, G, limits=limits, tree_gauge=False)
    denom = G.order ** (X.nvertices - 1)
    if z1 % denom != 0:
        raise GroupError("|Z^1| = %d not divisible by |G|^(v-1) = %d"
                         % (z1, denom))
    return z1 // denom


# -- Moebius inversion over the subgroup lattice -----------------------------------


@dataclass
class InversionRow:
    members: tuple
    order: int
    homs: int
    surjections: int
    quotients: int


@dataclass
class InversionTable:
    group: FiniteGroup
    rows: list
    total_homs: int


class _IsoCache:
    """Cache keyed by a cheap fingerprint with an isomorphism-check fallback."""

    def __init__(self):
        self.buckets = {}

    def lookup(self, J):
        fp = (J.order, tuple(sorted(J.element_order(a) for a in J.elements())))
        for rep, value in self.buckets.get(fp, []):
            if find_isomorphism(J, rep) is not None:
                return value
        return None

    def store(self, J, value):
        fp = (J.order, tuple(sorted(J.element_order(a) for a in J.elements())))
        self.buckets.setdefault(fp, []).append((J, value))


def quotient_counts_via_inversion(count_into, G, limits=DEFAULT_LIMITS,
                                  order_bound=120):
    """Per-subgroup quotient counts by Moebius inversion over the lattice.

    count_into(J) must return the exact number of homomorphisms of the fixed
    source into the group J; it is called once per isomorphism type (with a
    verified-isomorphism cache) and the results are inverted down the lattice:
    S(J) = #H(J) - sum of S(K) over proper subgroups K < J.
    """
    lattice = subgroup_lattice(G, order_bound=order_bound)
    homcache = _IsoCache()
    autcache = _IsoCache()
    subs = lattice.subgroups
    homs = []
    auts = []
    for H in subs:
        J = H.as_group()
        h = homcache.lookup(J)
        if h is None:
            h = count_into(J)
            homcache.store(J, h)
        a = autcache.lookup(J)
        if a is None:
            a = len(automorphisms(J))
            autcache.store(J, a)
        homs.append(h)
        auts.append(a)
    n = len(subs)
    surj = [0] * n
    for i in range(n):
        acc = homs[i]
        for j in range(n):
            if j != i and lattice.contains[i][j]:
                acc -= surj[j]
        surj[i] = acc
    rows = []
    for i, H in enumerate(subs):
        if surj[i] < 0:
            raise GroupError("negative surjection count in inversion")
        if surj[i] % auts[i] != 0:
            raise GroupError("inversion: %d not divisible by |Aut| = %d"
                             % (surj[i], auts[i]))
        rows.append(InversionRow(H.members, H.order, homs[i], surj[i],
                                 surj[i] // auts[i]))
    total = homs[-1]
    check = sum(auts[i] * rows[i].quotients for i in range(n))
    if check != total:
        raise GroupError("inversion consistency failed: %d != %d"
                         % (check, total))
    return InversionTable(G, rows, total)
