"""Exact counting of homomorphisms, surjections and quotients.

Two independent routes are kept deliberately separate: a backtracking
counter over presentations (with unit propagation on relators) and a
bounded-width dynamic program over ordered complexes counting 1-cocycles.
Their agreement is the package's central cross-check.
"""

import heapq
from collections import Counter
from dataclasses import dataclass
from itertools import chain, compress, product, repeat
from .groups import (GroupError, as_group, automorphisms, generates,
                     subgroup_lattice)
from .complexes import (ComplexError, greedy_ordering, spanning_forest,
                        validate_ordering)


class WorkBoundExceeded(ValueError):
    pass


@dataclass
class CountingLimits:
    max_enumeration: int = 5_000_000   # backtracking node budget
    max_states: int = 2_000_000        # DP state and orbit-walk budget


DEFAULT_LIMITS = CountingLimits()


# -- presentation-side counting ------------------------------------------------


def _plan_search(ngens, relators):
    """Unit propagation on relators, run once on which generators are
    assigned.  Returns the ops before the first branch, per depth the branch
    generator and the ops it sets off, and the generators in no relator.  An
    op (v, word) forces v to the value of word, or checks that word is the
    identity if v is None.  A stack of relators pops from the end; assigning
    a generator pushes its relators in index order.  A popped relator with
    one unassigned letter forces it, one with none is checked once.  The
    branch is the unassigned generator of least key (fewest unassigned
    letters in one of its relators, most relators, lowest index); keys only
    fall, so a heap entry whose key is no longer current is skipped.
    """
    occ = [[] for _ in range(ngens + 1)]    # (relator, letters of v in it)
    for i, rel in enumerate(relators):
        for v, k in sorted(Counter(map(abs, rel)).items()):
            occ[v].append((i, k))
    left = [len(rel) for rel in relators]   # unassigned letters
    done = [False] * len(relators)          # checked, or true by its force
    assigned = [False] * (ngens + 1)
    heap = []

    def assign(v, stack):
        assigned[v] = True
        for i, k in occ[v]:
            left[i] -= k
            stack.append(i)
            for w in {abs(l) for l in relators[i]}:
                if not assigned[w]:
                    heapq.heappush(heap, key(w))

    def cascade(stack):
        ops = []
        while stack:
            i = stack.pop()
            rel = relators[i]
            if left[i] == 1:
                pos = next(p for p, l in enumerate(rel)
                           if not assigned[abs(l)])
                # pre * v^s * suf = e gives v^s = (suf * pre)^-1
                word = rel[pos + 1:] + rel[:pos]
                if rel[pos] > 0:
                    word = tuple(-l for l in reversed(word))
                ops.append((abs(rel[pos]), word))
                done[i] = True
                assign(abs(rel[pos]), stack)
            elif not (left[i] or done[i]):
                done[i] = True
                ops.append((None, rel))
        return ops

    def key(v):
        return (min(left[i] for i, _ in occ[v]), -len(occ[v]), v)

    start = cascade(list(range(len(relators))))
    heap += [key(v) for v in range(1, ngens + 1) if occ[v] and not assigned[v]]
    heapq.heapify(heap)
    steps = []
    while heap:
        entry = heapq.heappop(heap)
        v = entry[2]
        if assigned[v] or entry != key(v):
            continue
        stack = []
        assign(v, stack)
        steps.append((v, cascade(stack)))
    return start, steps, [v for v in range(1, ngens + 1) if not occ[v]]


def count_homs(P, G, limits=DEFAULT_LIMITS, per_solution=None):
    """Exact number of homomorphisms from the presented group to G.

    An odometer over the depths of the _plan_search plan.  Planning on
    assigned-ness alone is exact: whether a relator forces or is checked
    depends only on which of its generators are assigned, and a force always
    succeeds, so every node at one depth runs the same ops until a check
    fails and prunes it.  Branch and forced values are nodes; past the
    budget WorkBoundExceeded is raised.  per_solution, if given, gets each
    full image tuple, and each reported image tuple of the generators in no
    relator is then a node too.
    """
    start, steps, free = _plan_search(P.ngens,
                                      [tuple(rel) for rel in P.relators])
    n, rows, inv = G.order, G.rows, G._inv
    img = [None] * (P.ngens + 1)
    nodes = 0

    def spend(work):
        nonlocal nodes
        nodes += work
        if nodes > limits.max_enumeration:
            raise WorkBoundExceeded(
                "enumeration budget %d exceeded" % limits.max_enumeration)

    def run(ops):
        """Run ops on img; False at the first failed check."""
        for v, word in ops:
            acc = 0
            for l in word:
                acc = rows[acc][img[l] if l > 0 else inv[img[-l]]]
            if v is not None:
                img[v] = acc
                spend(1)
            elif acc:
                return False
        return True

    def leaf():
        """The solutions where the generators in no relator range over G."""
        if per_solution is not None:
            # each reported image tuple of the free generators is a node
            spend(n ** len(free) if free else 0)
            for values in product(G.elements(), repeat=len(free)):
                for v, g in zip(free, values):
                    img[v] = g
                per_solution(tuple(img[1:]))
        return n ** len(free)

    if not run(start):
        return 0
    # tried[d] values of steps[d] are used up on the current path
    count, depth, tried = 0, 0, [0] * len(steps)
    while depth >= 0:
        if depth == len(steps):
            count += leaf()
            depth -= 1
        elif tried[depth] == n:
            tried[depth] = 0
            depth -= 1
        else:
            v, ops = steps[depth]
            img[v] = tried[depth]
            tried[depth] += 1
            spend(1)
            if run(ops):
                depth += 1
    return count


def count_surjections(P, G, limits=DEFAULT_LIMITS):
    """(homs, surjections): the homomorphisms, and those whose generator
    images generate all of G."""
    hits = [0]

    def check(images):
        if generates(G, images):
            hits[0] += 1

    homs = count_homs(P, G, limits=limits, per_solution=check)
    return homs, hits[0]


def count_quotients(P, G, limits=DEFAULT_LIMITS):
    """Number of normal subgroups of the presented group with quotient G.

    Surjections divided by |Aut(G)|; the division is asserted exact (the
    automorphism group acts freely on surjections).
    """
    _, surj = count_surjections(P, G, limits=limits)
    return quotient_count(surj, G)


def quotient_count(surj, G):
    """The number of surjections onto G divided by |Aut(G)|, which acts
    freely on them; raises GroupError when the division is not exact."""
    naut = len(automorphisms(G))
    if surj % naut != 0:
        raise GroupError("surjection count %d not divisible by |Aut| = %d"
                         % (surj, naut))
    return surj // naut


# -- the row sweep shared by the dynamic program and the circuit stages ----------


class Sweep:
    """Rows of symbols over the live variables, one column per variable
    (bytes, an eighth of a list's memory, when every symbol is below 256)
    and one multiplicity per row.  A variable enters with one copy of each
    row per symbol, a mask keeps rows, and forgetting variables drops their
    columns and merges the rows left equal.  max_states bounds the rows an
    enter would make, from the symbols the caller enters (count_accepted
    leaves out input symbols that can no longer be accepted); no other
    operation adds rows.  cols is updated in place, so a caller may hold it
    across operations."""

    def __init__(self, q, max_states, stage):
        self.col = bytes if q <= 256 else list
        self.cols, self.mults = {}, [1]
        self.max_states, self.stage = max_states, stage

    def enter(self, var, symbols):
        n, k = len(self.mults), len(symbols)
        if n * k > self.max_states:
            raise WorkBoundExceeded("%s state budget %d exceeded"
                                    % (self.stage, self.max_states))
        for v in self.cols:
            self.cols[v] *= k
        self.cols[var] = self.col(chain.from_iterable([s] * n for s in symbols))
        self.mults *= k

    def keep(self, mask):
        """Keep the rows where the list mask is true."""
        if all(mask):
            return
        for v, c in self.cols.items():
            self.cols[v] = self.col(compress(c, mask))
        self.mults = list(compress(self.mults, mask))

    def forget(self, variables, mask=None):
        for v in variables:
            del self.cols[v]
        rows = zip(zip(*self.cols.values()) if self.cols else repeat(()),
                   self.mults)
        merged = {}
        for row, m in rows if mask is None else compress(rows, mask):
            merged[row] = merged.get(row, 0) + m
        # fewer rows means some were dropped or merged; else none changed
        if len(merged) < len(self.mults):
            columns = list(zip(*merged)) or [()] * len(self.cols)
            for v, c in zip(self.cols, columns):
                self.cols[v] = self.col(c)
            self.mults = list(merged.values())


# -- complex-side counting: the bounded-width dynamic program --------------------


@dataclass
class DpStats:
    max_states: int = 0
    max_tracked_edges: int = 0


def dp_cocycle_count(X, ordering=None, G=None, limits=DEFAULT_LIMITS,
                     tree_gauge=False, stats=None):
    """Count 1-cocycles of X with values in G by a prefix sweep.

    The sweep's rows are labelings of the current boundary edges, each with
    its extension count.  A triangle u < v < w carries the cocycle condition
    a*b = c on its edge labels a = g(u,v), b = g(v,w), c = g(u,w).  It is
    checked at the step of its last edge when no other edge comes between
    the two, and at its own step otherwise.  A constrained edge step solves
    its label from the first such triangle (a = c*b^-1, b = a^-1*c or
    c = a*b), so each row extends in at most one way; a free edge enters
    with |G| labels.  Edges whose cofaces are completed are summed out.
    With tree_gauge the spanning-tree edges are pinned to the identity,
    which counts tree-gauged cocycles, i.e. homomorphisms, directly.
    Without an ordering the sweep follows greedy_ordering(X).  Every valid
    ordering yields the same count: in any order each triangle is checked
    once, each edge label is summed out once, and any spanning tree serves
    as the gauge; the ordering sets only the row counts, which
    limits.max_states bounds.
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
    # vertex enters through a pinned edge and boundary rows stay short
    edges = [s for s in ordering if len(s) == 2] if tree_gauge else ()
    tree = set(spanning_forest(X.nvertices, edges))

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

    if stats is None:
        stats = DpStats()
    n, rows, inv = G.order, G.rows, G._inv
    ident = list(range(n))
    # the column under None holds the identity label that pinned edges
    # read; every other column is a tracked boundary edge
    sweep = Sweep(n, limits.max_states, "DP")
    sweep.enter(None, (0,))
    cols = sweep.cols
    pinned = set()
    multiplier = 1

    def labels(tri):
        """The columns of the labels a, b, c of tri."""
        u, v, w = tri
        return [None if e in pinned else e for e in ((u, v), (v, w), (u, w))]

    def mask(tri):
        a, b, c = (cols[e] for e in labels(tri))
        return [rows[x][y] == z for x, y, z in zip(a, b, c)]

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
                    sweep.keep(mask(tri))
            else:
                tris = imminent.get(step, ())
                if not tris:
                    sweep.enter(s, range(n))
                else:
                    # the first triangle fixes the new label as one product
                    # left[x] * right[y] of two label columns
                    ea, eb, ec = labels(tris[0])
                    if ec == s:             # c = a * b
                        x, y, left, right = ea, eb, ident, ident
                    elif ea == s:           # a = c * b^-1
                        x, y, left, right = ec, eb, ident, inv
                    else:                   # b = a^-1 * c
                        x, y, left, right = ea, ec, inv, ident
                    cols[s] = sweep.col([rows[left[g]][right[h]]
                                         for g, h in zip(cols[x], cols[y])])
                    for tri in tris[1:]:
                        sweep.keep(mask(tri))
        elif dim == 2 and step not in fused:
            sweep.keep(mask(s))
        # vertices and tetrahedra add no constraint
        gone = leaving.get(step)
        if gone:
            pinned.difference_update(gone)
            gone = [e for e in gone if e in cols]
            if gone:
                sweep.forget(gone)
        stats.max_states = max(stats.max_states, len(sweep.mults))
        stats.max_tracked_edges = max(stats.max_tracked_edges, len(cols) - 1)
        if not sweep.mults:
            break
    return sum(sweep.mults) * multiplier


def narrow_ordering(X):
    """The ordering dp-count sweeps a connected complex in:
    greedy_ordering(X), whose deferral rank keeps vertices and edges
    without cofaces from widening the sweep.  The ordering changes only
    the DP's work, never its count."""
    if not X.is_connected():
        raise ComplexError("dp counting needs a connected complex")
    return greedy_ordering(X)


def dp_count_homs(X, ordering=None, G=None, limits=DEFAULT_LIMITS, stats=None):
    """#H(X, G) by the width dynamic program with spanning-tree gauge.

    The relative 0-cochain group acts freely on cocycles, so pinning a
    spanning tree to the identity counts exactly |Z^1| / |G|^(v-1).
    """
    return dp_cocycle_count(X, ordering, G, limits=limits,
                            tree_gauge=True, stats=stats)


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
    rows: list
    total_homs: int


def quotient_counts_via_inversion(count_into, G):
    """Per-subgroup quotient counts by Moebius inversion over the lattice.

    count_into(J) must return the exact number of homomorphisms of the fixed
    source into the group J.  Conjugate subgroups are isomorphic, so it and
    |Aut(J)| are computed once per conjugacy class of subgroups, on the
    class's first subgroup J, and inverted down the lattice there:
    S(J) = #H(J) - sum of S(K) over proper subgroups K < J, each K taking
    the value of its class.  Every subgroup's row is its class's.
    """
    lattice = subgroup_lattice(G)
    subs, classes = lattice.subgroups, lattice.classes
    sets = [frozenset(H) for H in subs]
    homs, surj, auts = {}, {}, {}
    for i, H in enumerate(subs):
        if classes[i] == i:
            J = as_group(G, H)
            homs[i], auts[i] = count_into(J), len(automorphisms(J))
            # proper subgroups are smaller, so they sort before H
            surj[i] = homs[i] - sum(surj[classes[j]] for j in range(i)
                                    if sets[j] < sets[i])
    rows = []
    for H, c in zip(subs, classes):
        if surj[c] < 0:
            raise GroupError("negative surjection count in inversion")
        if surj[c] % auts[c] != 0:
            raise GroupError("inversion: %d not divisible by |Aut| = %d"
                             % (surj[c], auts[c]))
        rows.append(InversionRow(H, len(H), homs[c], surj[c],
                                 surj[c] // auts[c]))
    total = rows[-1].homs
    check = sum(auts[c] * row.quotients for row, c in zip(rows, classes))
    if check != total:
        raise GroupError("inversion consistency failed: %d != %d"
                         % (check, total))
    return InversionTable(rows, total)
