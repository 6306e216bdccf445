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
def a5():
    return load_group(data_path("a5.grp"))


@pytest.fixture(scope="session")
def sl25_ext(a5):
    return load_stem_extension(data_path("sl25-ext.ext"), a5)
