import random
from math import factorial

import pytest

from homcount.perms import (PermutationGroup, alt_generation_check,
                            classify_giant, cycle_perm, format_cycles,
                            group_order, inverse, is_even, mult,
                            parse_cycles, perm_power)
from conftest import mulclose


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


def test_inverse_power():
    p = parse_cycles("(0 1 2 3 4)")
    assert mult(p, inverse(p)) == (0, 1, 2, 3, 4)
    assert perm_power(p, 5) == (0, 1, 2, 3, 4)
    assert perm_power(p, -1) == inverse(p)


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
    rep = alt_generation_check([0, 1, 2, 3, 4], [[0, 1, 2], [2, 3, 4]])
    assert rep.generates and rep.connected
    rep = alt_generation_check([0, 1, 2, 3, 4], [[0, 1, 2, 3, 4]])
    assert rep.generates and rep.connected
    rep = alt_generation_check([0, 1, 2, 3, 4, 5], [[0, 1, 2], [3, 4, 5]])
    assert not rep.generates and not rep.connected
    with pytest.raises(ValueError):
        alt_generation_check([0, 1, 2], [[0, 1]])
    with pytest.raises(ValueError):
        alt_generation_check([0, 1, 2, 3], [[0, 1, 2]])


def test_parity():
    assert is_even(parse_cycles("(0 1 2)"))
    assert not is_even(parse_cycles("(0 1)"))
    assert not is_even(cycle_perm(6, [0, 1, 2, 3]))
