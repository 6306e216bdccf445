"""Permutations as image tuples, with a deterministic Schreier-Sims stabilizer chain.

Permutations act on 0..n-1 and are stored as tuples of images.  The product
p * q means "apply p, then q", i.e. (p*q)[x] = q[p[x]].
"""

import re
from dataclasses import dataclass
from math import factorial


def identity_perm(n):
    return tuple(range(n))


def is_identity(p):
    return all(i == j for i, j in enumerate(p))


def mult(p, q):
    """Compose permutations: apply p first, then q."""
    return tuple(q[i] for i in p)


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


class _Node:
    """One level of a stabilizer chain: base point, own generators, orbit."""

    __slots__ = ("point", "gens", "transversal", "stab")

    def __init__(self):
        self.point = None
        self.gens = []
        self.transversal = {}
        self.stab = None

    def generators(self):
        if self.stab is None:
            return list(self.gens)
        return self.gens + self.stab.generators()

    def sift(self, p):
        node = self
        while node is not None and node.point is not None:
            img = p[node.point]
            t = node.transversal.get(img)
            if t is None and img != node.point:
                return p
            if t is not None:
                p = mult(p, inverse(t))
            node = node.stab
        return p

    def add_gen(self, g):
        g = self.sift(g)
        if not is_identity(g):
            self._add_nonmember(g)

    def _add_nonmember(self, g):
        if self.point is None:
            self.point = next(i for i, j in enumerate(g) if i != j)
            self.transversal = {self.point: None}
            self.stab = _Node()
        if g[self.point] == self.point:
            self.stab._add_nonmember(g)
        else:
            self.gens.append(g)
        self._rebuild_orbit()

    def _rebuild_orbit(self):
        gens = self.generators()
        self.transversal = {self.point: None}
        queue = [self.point]
        while queue:
            pt = queue.pop(0)
            t = self.transversal[pt]
            for g in gens:
                img = g[pt]
                if img not in self.transversal:
                    self.transversal[img] = g if t is None else mult(t, g)
                    queue.append(img)
        # close: sift every Schreier generator into the stabilizer
        for g in gens:
            for pt, t in list(self.transversal.items()):
                u = g if t is None else mult(t, g)
                v = self.transversal[g[pt]]
                schreier = u if v is None else mult(u, inverse(v))
                self.stab.add_gen(schreier)

    def order(self):
        if self.point is None:
            return 1
        return len(self.transversal) * self.stab.order()

    def base(self):
        out = []
        node = self
        while node is not None and node.point is not None:
            out.append(node.point)
            node = node.stab
        return out


class PermutationGroup:
    """Permutation group with exact order via a stabilizer chain.

    The chain is built once, deterministically, on first query; afterwards
    the object is read-only and safe to share between threads.
    """

    MAX_DEGREE = 1 << 16

    def __init__(self, degree, gens, name=""):
        if degree > self.MAX_DEGREE:
            raise ValueError("degree %d exceeds bound %d" % (degree, self.MAX_DEGREE))
        self.degree = degree
        self.name = name
        gens = [tuple(g) for g in gens]
        for g in gens:
            if len(g) != degree:
                raise ValueError("generator degree mismatch")
            check_perm(g)
        self.gens = [g for g in gens if not is_identity(g)]
        self._root = None

    def _ensure_chain(self):
        if self._root is None:
            root = _Node()
            for g in self.gens:
                root.add_gen(g)
            self._root = root

    def order(self):
        self._ensure_chain()
        return self._root.order()

    def contains(self, p):
        p = tuple(p)
        if len(p) != self.degree:
            return False
        self._ensure_chain()
        return is_identity(self._root.sift(p))

    def base(self):
        self._ensure_chain()
        return self._root.base()


def group_order(degree, gens):
    """Exact order of the group generated by gens on 0..degree-1."""
    return PermutationGroup(degree, gens).order()


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


@dataclass
class AltGenReport:
    generates: bool
    connected: bool
    order: int
    expected_order: int


def alt_generation_check(points, subsets):
    """Check whether the groups Alt(T_i) together generate Alt(S).

    Each subset needs at least 3 points; their union must be all of S.  The
    report also records whether the subsets form a connected graph under
    pairwise intersection, which is the hypothesis under which generation is
    guaranteed.
    """
    points = sorted(set(points))
    subsets = [sorted(set(t)) for t in subsets]
    for t in subsets:
        if len(t) < 3:
            raise ValueError("subset %r has fewer than 3 points" % (t,))
    covered = set()
    for t in subsets:
        covered.update(t)
    if covered != set(points):
        raise ValueError("subsets do not cover the point set")

    n = max(points) + 1
    gens = []
    for t in subsets:
        a, b = t[0], t[1]
        for c in t[2:]:
            gens.append(cycle_perm(n, [a, b, c]))

    # connectivity of the pairwise-intersection graph
    m = len(subsets)
    seen = {0}
    frontier = [0]
    sets = [set(t) for t in subsets]
    while frontier:
        i = frontier.pop()
        for j in range(m):
            if j not in seen and sets[i] & sets[j]:
                seen.add(j)
                frontier.append(j)
    connected = len(seen) == m

    order = PermutationGroup(n, gens).order()
    expected = factorial(len(points)) // 2
    return AltGenReport(order == expected, connected, order, expected)
