import functools
import itertools
import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from homcount import perms
from homcount.circuits import apply_gates
from homcount.groups import FiniteGroup, load_group, load_stem_extension

DATA = os.path.join(os.path.dirname(__file__), "..", "src", "homcount", "data")


def data_path(name):
    return os.path.join(DATA, name)


def count_words(q, gates, inputs, accepts):
    """Oracle for circuits.count_accepted: run every word of
    product(*inputs) through the gates, one word at a time, and keep it
    when every wire lands in its own accept set."""
    accepts = [frozenset(acc) for acc in accepts]
    return sum(all(map(frozenset.__contains__, accepts,
                       apply_gates(q, gates, word)))
               for word in itertools.product(*inputs))


def mulclose(gens):
    """Oracle for group orders: breadth-first closure of permutation
    generators under composition."""
    if not gens:
        return set()
    els = {perms.identity_perm(len(gens[0]))}
    bdy = list(els)
    while bdy:
        new = []
        for a in bdy:
            for g in gens:
                c = perms.mult(a, g)
                if c not in els:
                    els.add(c)
                    new.append(c)
        bdy = new
    return els


class _OracleNode:
    """The recursive stabilizer chain that perms.PermutationGroup replaced:
    every new generator rebuilds its level's transversal and re-sifts every
    Schreier generator.  Slow but simple; kept as an oracle."""

    def __init__(self):
        self.point, self.gens, self.transversal, self.stab = None, [], {}, None

    @staticmethod
    def _mult(p, q):
        return tuple(q[i] for i in p)

    def generators(self):
        return self.gens + (self.stab.generators() if self.stab else [])

    def sift(self, p):
        node = self
        while node is not None and node.point is not None:
            img = p[node.point]
            t = node.transversal.get(img)
            if t is None and img != node.point:
                return p
            if t is not None:
                p = self._mult(p, perms.inverse(t))
            node = node.stab
        return p

    def add_gen(self, g):
        g = self.sift(g)
        if g != tuple(range(len(g))):
            self._add_nonmember(g)

    def _add_nonmember(self, g):
        if self.point is None:
            self.point = next(i for i, j in enumerate(g) if i != j)
            self.transversal = {self.point: None}
            self.stab = _OracleNode()
        if g[self.point] == self.point:
            self.stab._add_nonmember(g)
        else:
            self.gens.append(g)
        gens = self.generators()
        self.transversal = {self.point: None}
        queue = [self.point]
        while queue:
            pt = queue.pop(0)
            t = self.transversal[pt]
            for h in gens:
                if h[pt] not in self.transversal:
                    self.transversal[h[pt]] = h if t is None else self._mult(t, h)
                    queue.append(h[pt])
        for h in gens:
            for pt, t in list(self.transversal.items()):
                u = h if t is None else self._mult(t, h)
                v = self.transversal[h[pt]]
                self.stab.add_gen(u if v is None else self._mult(u, perms.inverse(v)))

    def order(self):
        if self.point is None:
            return 1
        return len(self.transversal) * self.stab.order()


@functools.lru_cache(maxsize=8)
def _oracle_chain(gens):
    root = _OracleNode()
    for g in gens:
        root.add_gen(g)
    return root


def oracle_chain_order(gens):
    """Oracle for PermutationGroup.order: the old rebuild-everything chain."""
    return _oracle_chain(tuple(map(tuple, gens))).order()


def oracle_chain_contains(gens, p):
    """Oracle for PermutationGroup.contains on the old chain."""
    p = tuple(p)
    return _oracle_chain(tuple(map(tuple, gens))).sift(p) == tuple(range(len(p)))


@pytest.fixture(scope="session")
def z2():
    return FiniteGroup.cyclic(2)


@pytest.fixture(scope="session")
def z3():
    return FiniteGroup.cyclic(3)


@pytest.fixture(scope="session")
def z4():
    return FiniteGroup.cyclic(4)


@pytest.fixture(scope="session")
def s3():
    return FiniteGroup.from_perm_gens(
        "S3", [perms.parse_cycles("(0 1)", 3), perms.parse_cycles("(0 1 2)", 3)])


@pytest.fixture(scope="session")
def a4():
    return FiniteGroup.from_perm_gens(
        "A4", [perms.parse_cycles("(0 1 2)", 4),
               perms.parse_cycles("(0 1)(2 3)", 4)])


@pytest.fixture(scope="session")
def s4():
    return FiniteGroup.from_perm_gens(
        "S4", [perms.parse_cycles("(0 1)", 4),
               perms.parse_cycles("(0 1 2 3)", 4)])


@pytest.fixture(scope="session")
def sl23():
    """SL(2,3) acting on the eight non-zero vectors of F_3^2."""
    vecs = [(x, y) for x in range(3) for y in range(3) if (x, y) != (0, 0)]
    index = {v: i for i, v in enumerate(vecs)}

    def image(m):
        return tuple(index[((m[0][0] * x + m[0][1] * y) % 3,
                            (m[1][0] * x + m[1][1] * y) % 3)] for x, y in vecs)

    return FiniteGroup.from_perm_gens(
        "SL23", [image(((1, 1), (0, 1))), image(((0, 2), (1, 0)))])


@pytest.fixture(scope="session")
def a5():
    return load_group(data_path("a5.grp"))


@pytest.fixture(scope="session")
def sl25_ext(a5):
    return load_stem_extension(data_path("sl25-ext.ext"), a5)
