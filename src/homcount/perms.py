"""Permutations as image tuples, with an incremental Schreier-Sims chain.

Permutations act on 0..n-1 and are stored as tuples of images.  The product
p * q means "apply p, then q", i.e. (p*q)[x] = q[p[x]].

PermutationGroup builds a deterministic stabilizer chain (Seress,
*Permutation Group Algorithms*, 2003, ch. 4).  Each level keeps its orbit
with transversal t[pt] and its inverse, so a sift step is one product.  A
generator new to a level grows the orbit from the old points under itself
and from the new points under every generator, and only those Schreier
generators are sifted into the stabilizer.  A residue joins every level
from where its sift began to where it stopped: fixing a level's base point,
it still enlarges that level's group and orbit.  Transversal entries are
never replaced, so a sift that once ended in the identity always does, and
no Schreier generator is revisited.  An explicit work stack replaces
recursion per level.
"""

import re
from math import factorial, prod
from operator import itemgetter


def identity_perm(n):
    return tuple(range(n))


def mult(p, q):
    """Compose permutations: apply p first, then q."""
    # itemgetter with one index returns a bare value, not a 1-tuple
    return itemgetter(*p)(q) if len(p) > 1 else tuple(q[i] for i in p)


def inverse(p):
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return tuple(inv)


def perm_power(p, k):
    n = len(p)
    if k < 0:
        return perm_power(inverse(p), -k)
    out = identity_perm(n)
    base = p
    while k:
        if k & 1:
            out = mult(out, base)
        base = mult(base, base)
        k >>= 1
    return out


def check_perm(p):
    if sorted(p) != list(range(len(p))):
        raise ValueError("not a permutation: %r" % (p,))


def perm_parity(p):
    """0 for even, 1 for odd."""
    seen = [False] * len(p)
    parity = 0
    for i in range(len(p)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = p[j]
            length += 1
        parity ^= (length - 1) & 1
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


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_cycles(text, degree=0):
    """Parse cycle notation like "(0 1 2)(3 4)" into an image tuple.

    Points are nonnegative integers; the degree is max point + 1 unless a
    larger degree is given.  "()" is the identity.
    """
    stripped = text.strip()
    leftover = _CYCLE_RE.sub("", stripped).strip()
    if leftover:
        raise ValueError("bad cycle notation: %r" % text)
    cycles = []
    for m in _CYCLE_RE.finditer(stripped):
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


class _Level:
    """One chain level: base point, generators, orbit, transversal, inverses."""

    __slots__ = ("point", "gens", "orbit", "trans", "inv")

    def __init__(self, point, ident):
        self.point, self.gens, self.orbit = point, [], [point]
        self.trans, self.inv = {point: ident}, {point: ident}

    def extend(self, g, ident):
        """Add generator g; yield the non-identity Schreier generators
        t[pt]*s*t[s(pt)]^-1 of old points with g and new points with all s."""
        trans, inv, orbit, gens = self.trans, self.inv, self.orbit, self.gens
        gens.append(g)
        n_old = len(orbit)
        for i, pt in enumerate(orbit):  # orbit grows while we walk it
            t = trans[pt]
            for s in gens if i >= n_old else (g,):
                img = s[pt]
                u = mult(t, s)
                if img not in trans:
                    trans[img] = u
                    inv[img] = inverse(u)
                    orbit.append(img)
                elif (u := mult(u, inv[img])) != ident:
                    yield u


def _sift(chain, p, start=0):
    """Strip p by chain[start:]; return the residue and the level where it
    stopped (len(chain) when it passed every level)."""
    for k in range(start, len(chain)):
        level = chain[k]
        img = p[level.point]
        if img != level.point:
            if img not in level.inv:
                return p, k
            p = mult(p, level.inv[img])
    return p, len(chain)


class PermutationGroup:
    """Permutation group with exact order via a stabilizer chain.

    The chain is built once, deterministically, on first query; afterwards
    the object is read-only and safe to share between threads.
    """

    MAX_DEGREE = 1 << 16

    def __init__(self, degree, gens):
        if degree > self.MAX_DEGREE:
            raise ValueError("degree %d exceeds bound %d" % (degree, self.MAX_DEGREE))
        self.degree = degree
        self._ident = identity_perm(degree)
        gens = [tuple(g) for g in gens]
        for g in gens:
            if len(g) != degree:
                raise ValueError("generator degree mismatch")
            check_perm(g)
        self.gens = [g for g in gens if g != self._ident]
        self._chain = None

    def _ensure_chain(self):
        # a stack entry (k, h) fixes the first k base points; h's residue
        # stopped at level j joins levels k..j (j may be a new level)
        if self._chain is not None:
            return
        ident, chain = self._ident, []
        stack = [(0, g) for g in reversed(self.gens)]
        while stack:
            k, h = stack.pop()
            h, j = _sift(chain, h, k)
            if h == ident:
                continue
            if j == len(chain):
                chain.append(_Level(next(i for i, x in enumerate(h) if i != x),
                                    ident))
            for m in range(k, j + 1):
                stack.extend((m + 1, s) for s in chain[m].extend(h, ident))
        self._chain = chain

    def order(self):
        self._ensure_chain()
        return prod(len(level.orbit) for level in self._chain)

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
