"""Permutations as image tuples, with an incremental Schreier-Sims chain.

Permutations act on 0..n-1 and are stored as tuples of images.  The product
p * q means "apply p, then q", i.e. (p*q)[x] = q[p[x]].

PermutationGroup builds a deterministic stabilizer chain (Seress,
*Permutation Group Algorithms*, 2003, ch. 4).  Each level keeps its orbit
with transversal t[pt], so a sift step is one product with an inverse
t[pt]^-1, which the level forms the first time a sift reads it.  The
original generators are sifted first, in order.  A residue joins every
level from where its sift began to where it stopped: fixing a level's base
point, it still enlarges that level's group and orbit.  A generator new to
a level grows the orbit from the old points under itself and from the new
points under every generator, and queues each Schreier pair (pt, s) whose
image s(pt) was already in the orbit.  Only once the original generators
are in are the queued pairs popped, last queued first; the product
t[pt]*s*t[s(pt)]^-1 is formed then, skipped when t[pt]*s is t[s(pt)], and
sifted into the stabilizer.  Transversal entries are never replaced, so a
generator formed late is the one that would have been formed at once, a
sift that once ended in the identity always does, and no pair is queued
twice.  An explicit stack of pairs replaces recursion per level.

A caller that knows a bound on the group's order, such as the order of a
group that every generator has been checked to lie in, may pass it as
order_bound.  Every orbit built so far lies in its true basic orbit, so
the product of their lengths is at most the order; once it equals the
bound, every orbit is complete and the base stabilizer is trivial, and the
build stops with the chain it would have finished with, the pairs still
queued never formed.  A product above the bound shows the bound false and
raises ValueError; a false bound that the product meets exactly goes
unseen, so it must be a proven one.
"""

import itertools
import re
from itertools import compress, count
from math import factorial, prod
from operator import itemgetter, ne

MAX_DEGREE = 1 << 16


def identity_perm(n):
    return tuple(range(n))


def gather(indices):
    """A function taking seq to the tuple of seq[i] for i in indices: an
    operator.itemgetter, except at fewer than two indices, where itemgetter
    returns a bare item or refuses."""
    if len(indices) > 1:
        return itemgetter(*indices)
    return lambda seq: tuple(seq[i] for i in indices)


def mult(p, q):
    """Compose permutations: apply p first, then q."""
    return gather(p)(q)


def inverse(p):
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return tuple(inv)


def check_perm(p):
    if sorted(p) != list(range(len(p))):
        raise ValueError("not a permutation: %r" % (p,))


def perm_parity(p):
    """0 for even, 1 for odd: the parity of the number of moved points
    less the number of cycles they form.  p is an image sequence, or a
    dict that permutes its keys and is silent on the points it fixes.
    Only the moved points are walked; a sequence's are found by one
    C-level scan."""
    if isinstance(p, dict):
        moved = p
    else:
        moved = compress(count(), map(ne, p, count()))
    seen = set()
    parity = 0
    for i in moved:
        if i in seen:
            continue
        seen.add(i)
        j = p[i]
        while j not in seen:        # the rest of i's cycle, one flip each
            seen.add(j)
            parity ^= 1
            j = p[j]
    return parity


def is_even(p):
    return perm_parity(p) == 0


def cycle_perm(n, cycle):
    """The cycle (c0 c1 ... ck) acting on 0..n-1."""
    p = list(range(n))
    for a, b in zip(cycle, cycle[1:]):
        p[a] = b
    if cycle:
        p[cycle[-1]] = cycle[0]
    return tuple(p)


_CYCLE = r"\(([^()]*)\)"


def parse_cycles(text, degree=0):
    """Parse cycle notation like "(0 1 2)(3 4)" into an image tuple.

    Points are nonnegative integers; the degree is max point + 1 unless a
    larger degree is given, and at most MAX_DEGREE.  "()" is the identity.
    """
    stripped = text.strip()
    leftover = re.sub(_CYCLE, "", stripped).strip()
    if leftover:
        raise ValueError("bad cycle notation: %r" % text)
    cycles = []
    for m in re.finditer(_CYCLE, stripped):
        body = m.group(1).replace(",", " ").split()
        if not body:
            continue
        cyc = [int(tok) for tok in body]
        if len(set(cyc)) != len(cyc) or min(cyc) < 0:
            raise ValueError("repeated or negative point in cycle: %r" % text)
        cycles.append(cyc)
    n = degree
    for c in cycles:
        n = max(n, max(c) + 1)
    if n > MAX_DEGREE:
        raise ValueError("degree %d exceeds bound %d" % (n, MAX_DEGREE))
    p = identity_perm(n)
    for c in cycles:
        p = mult(p, cycle_perm(n, c))
    return p


def format_cycles(p):
    """Write a permutation in cycle notation; identity is "()"."""
    seen = set()
    parts = []
    for i in range(len(p)):
        if i in seen or p[i] == i:
            continue
        cyc = [i]
        j = p[i]
        while j != i:
            seen.add(j)
            cyc.append(j)
            j = p[j]
        parts.append("(" + " ".join(str(x) for x in cyc) + ")")
    return "".join(parts) if parts else "()"


class _Inverses(dict):
    """A level's inverse transversal, each entry formed on first read."""

    __slots__ = ("trans",)

    def __init__(self, trans):
        self.trans = trans

    def __missing__(self, pt):
        inv = self[pt] = inverse(self.trans[pt])
        return inv


class _Level:
    """One chain level: base point, generators, orbit, transversal, inverses."""

    __slots__ = ("point", "gens", "orbit", "trans", "inv")

    def __init__(self, point, ident):
        self.point, self.gens, self.orbit = point, [], [point]
        self.trans = {point: ident}
        self.inv = _Inverses(self.trans)

    def extend(self, g):
        """Add generator g; yield the pairs (pt, s) whose Schreier generators
        t[pt]*s*t[s(pt)]^-1 are new, old points with g and new points with
        all s, leaving out those that set a transversal entry."""
        trans, orbit, gens = self.trans, self.orbit, self.gens
        gens.append(g)
        n_old = len(orbit)
        for i, pt in enumerate(orbit):  # orbit grows while we walk it
            for s in gens if i >= n_old else (g,):
                img = s[pt]
                if img in trans:
                    yield pt, s
                else:
                    trans[img] = mult(trans[pt], s)
                    orbit.append(img)


def _sift(chain, p, start=0):
    """Strip p by chain[start:]; return the residue and the level where it
    stopped (len(chain) when it passed every level)."""
    for k in range(start, len(chain)):
        level = chain[k]
        img = p[level.point]
        if img != level.point:
            if img not in level.trans:
                return p, k
            p = mult(p, level.inv[img])
    return p, len(chain)


class PermutationGroup:
    """Permutation group with exact order via a stabilizer chain.

    The chain is built once, deterministically, on first query.  Queries
    after that only fill inverse transversal entries on first read, and a
    concurrent fill of one entry writes the same tuple, so the object is
    safe to share between threads.  The chain's first levels sit on the
    distinct points of base, in order; a level whose point the group fixes
    has that point alone as its orbit.  order_bound, when given, must be
    at least the group's order: the build stops once the orbit lengths
    multiply to it, which changes no answer, and raises ValueError once
    they multiply to more.
    """

    def __init__(self, degree, gens, base=(), order_bound=None):
        if degree > MAX_DEGREE:
            raise ValueError("degree %d exceeds bound %d" % (degree, MAX_DEGREE))
        self.degree = degree
        self.base = tuple(base)
        if (len(set(self.base)) != len(self.base)
                or not all(0 <= pt < degree for pt in self.base)):
            raise ValueError("base needs distinct points of 0..%d, got %r"
                             % (degree - 1, self.base))
        self._ident = identity_perm(degree)
        gens = [tuple(g) for g in gens]
        for g in gens:
            if len(g) != degree:
                raise ValueError("generator degree mismatch")
            check_perm(g)
        self.gens = [g for g in gens if g != self._ident]
        self.order_bound = order_bound
        self._chain = None

    def _ensure_chain(self):
        # a work item (k, h) fixes the first k base points; h's residue
        # stopped at level j joins levels k..j (j may be a new level).  The
        # original generators come first, then the queued Schreier pairs
        # (m, pt, s) of level m, last queued first, each formed when popped
        if self._chain is not None:
            return
        ident = self._ident
        chain = [_Level(pt, ident) for pt in self.base]
        pending = []

        def schreier_items():
            while pending:
                m, pt, s = pending.pop()
                level, img = chain[m], s[pt]
                u = mult(level.trans[pt], s)
                if u != level.trans[img]:
                    yield m + 1, mult(u, level.inv[img])

        for k, h in itertools.chain(((0, g) for g in self.gens),
                                    schreier_items()):
            h, j = _sift(chain, h, k)
            if h == ident:
                continue
            if j == len(chain):
                chain.append(_Level(next(i for i, x in enumerate(h) if i != x),
                                    ident))
            for m in range(k, j + 1):
                pending.extend((m, pt, s) for pt, s in chain[m].extend(h))
            if self.order_bound is not None:
                reached = prod(len(level.orbit) for level in chain)
                if reached > self.order_bound:
                    raise ValueError("order_bound %d is below the group "
                                     "order, at least %d"
                                     % (self.order_bound, reached))
                if reached == self.order_bound:
                    break
        self._chain = chain

    def orbit_lengths(self):
        """The basic orbit lengths: the k-th is that of the k-th base point
        under the stabilizer of the base points before it."""
        self._ensure_chain()
        return tuple(len(level.orbit) for level in self._chain)

    def order(self):
        return prod(self.orbit_lengths())

    def contains(self, p):
        p = tuple(p)
        if len(p) != self.degree:
            return False
        self._ensure_chain()
        return _sift(self._chain, p)[0] == self._ident


def classify_giant(group):
    """Classify a permutation group as alternating, symmetric, or other.

    Valid only for degree >= 5, where Alt(n) is the unique index-2 subgroup
    of Sym(n) and order comparison is decisive.
    """
    n = group.degree
    if n < 5:
        raise ValueError("giant classification needs degree >= 5, got %d" % n)
    order = group.order()
    full = factorial(n)
    if order == full:
        return "symmetric"
    if 2 * order == full and all(is_even(g) for g in group.gens):
        return "alternating"
    return "other"
