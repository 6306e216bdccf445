"""Exact counting of homomorphisms, surjections and quotients.

Two independent routes are kept deliberately separate: a backtracking
counter over presentations (with unit propagation on relators) and a
bounded-width dynamic program over ordered complexes counting 1-cocycles.
Their agreement is the package's central cross-check.
"""

from dataclasses import dataclass
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


class _RelatorState:
    __slots__ = ("letters", "unassigned")

    def __init__(self, letters):
        self.letters = letters
        self.unassigned = 0


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
    surj = count_surjections(P, G, limits=limits)
    naut = len(automorphisms(G))
    if surj % naut != 0:
        raise GroupError("surjection count %d not divisible by |Aut|=%d"
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
    counts: an edge step makes |G| copies, a triangle step filters by the
    coboundary condition, and edges whose cofaces are completed are summed
    out.  With tree_gauge the spanning-tree edges are pinned to the identity,
    which counts tree-gauged cocycles, i.e. homomorphisms, directly.
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

    departure = {}
    for e in X.by_dim[1]:
        cof = X.cofaces(e)
        departure[e] = max(pos[t] for t in cof) if cof else None

    # fuse each edge with the triangles that become checkable before the next
    # edge step and contain it; this avoids the transient |G|-fold blowup of
    # expanding an edge whose label is immediately constrained
    next_edge_pos = [None] * (len(ordering) + 1)
    nxt = None
    for i in range(len(ordering) - 1, -1, -1):
        next_edge_pos[i] = nxt
        if len(ordering[i]) == 2:
            nxt = i
    fused_with = {}
    for i, s in enumerate(ordering):
        if len(s) != 3:
            continue
        for e in ((s[0], s[1]), (s[1], s[2]), (s[0], s[2])):
            j = pos[e]
            horizon = next_edge_pos[j]        # first edge strictly after j
            if j < i and (horizon is None or i < horizon):
                fused_with.setdefault(j, []).append(s)
                fused_with[i] = "done"
                break

    tracked = []            # boundary edges carrying a key coordinate
    pinned = {}             # tree edges currently on the boundary -> label 0
    states = {(): 1}
    multiplier = 1
    if stats is None:
        stats = DpStats()

    def label_getter(e, idxs):
        if e in pinned:
            return None
        return idxs[e]

    def triangle_checker(tri, idxs, own_edge=None):
        """Returns f(key, own_label) testing the cocycle condition."""
        u, v, w = tri
        spots = []
        for e in ((u, v), (v, w), (u, w)):
            if e == own_edge:
                spots.append(("own", None))
            elif e in pinned:
                spots.append(("pin", 0))
            else:
                spots.append(("key", idxs[e]))

        def get(spot, key, own):
            kind, val = spot
            if kind == "own":
                return own
            if kind == "pin":
                return val
            return key[val]

        def check(key, own=None):
            a = get(spots[0], key, own)
            b = get(spots[1], key, own)
            c = get(spots[2], key, own)
            return G.mul(a, b) == c

        return check

    def drop_edges(step):
        nonlocal states
        gone_idx = [i for i, e in enumerate(tracked) if departure[e] == step]
        for e in [e for e in pinned if departure[e] == step]:
            del pinned[e]
        if gone_idx:
            keep = [i for i in range(len(tracked)) if i not in gone_idx]
            new = {}
            for key, c in states.items():
                nk = tuple(key[i] for i in keep)
                new[nk] = new.get(nk, 0) + c
            states = new
            for i in reversed(gone_idx):
                del tracked[i]

    for step, s in enumerate(ordering):
        k = len(s) - 1
        if k == 1:
            imminent = fused_with.get(step, [])
            imminent = imminent if isinstance(imminent, list) else []
            if departure[s] is None:
                # dangling edge: label free, never constrained
                if s not in tree:
                    multiplier *= G.order
            elif s in tree:
                pinned[s] = 0
                if imminent:
                    idxs = {e: i for i, e in enumerate(tracked)}
                    checks = [triangle_checker(t, idxs) for t in imminent]
                    states = {key: c for key, c in states.items()
                              if all(ch(key) for ch in checks)}
            else:
                idxs = {e: i for i, e in enumerate(tracked)}
                checks = [triangle_checker(t, idxs, own_edge=s)
                          for t in imminent]
                new = {}
                for key, c in states.items():
                    for g in G.elements():
                        if all(ch(key, g) for ch in checks):
                            new[key + (g,)] = c
                states = new
                tracked.append(s)
        elif k == 2 and fused_with.get(step) != "done":
            idxs = {e: i for i, e in enumerate(tracked)}
            check = triangle_checker(s, idxs)
            new = {}
            for key, c in states.items():
                if check(key):
                    new[key] = new.get(key, 0) + c
            states = new
        # vertices and tetrahedra add no constraint
        drop_edges(step)
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

    def quotient_count(self, members):
        key = tuple(sorted(members))
        for row in self.rows:
            if row.members == key:
                return row.quotients
        raise KeyError("subgroup not in table")


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
