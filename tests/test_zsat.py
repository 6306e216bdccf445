import hashlib
import itertools
import random

import pytest

from homcount import zsat
from homcount.circuits import BooleanCircuit
from homcount.counting import CountingLimits, WorkBoundExceeded
from homcount.groups import FiniteGroup
from homcount.gsets import rubik_membership
from homcount.zsat import (ZAlphabet, ZsatError, compile_gate, compile_zsat,
                           data_rsat_instance, extend_to_rubik,
                           postcomputation_gate, verify_gates,
                           zsat_from_table)
from conftest import count_words


def predicate_gate(zal, rng, density=0.5):
    """A data gate moving a random set of initialization words onto
    finalization words, composed with a random relabeling."""
    data, i_orb, f_orb = zal.data_quotient()
    nd = len(data)
    perm = list(range(nd * nd))
    iwords = [(a, b) for a in i_orb for b in i_orb]
    fwords = [(a, b) for a in f_orb for b in f_orb]
    rng.shuffle(fwords)
    chosen = [w for w in iwords if rng.random() < density]
    for src_t, dst_t in zip(chosen, fwords):
        src = src_t[0] * nd + src_t[1]
        dst = dst_t[0] * nd + dst_t[1]
        perm[src], perm[dst] = perm[dst], perm[src]
    return tuple(perm)


def test_alphabet_invariants(z2, z3):
    zal = ZAlphabet(z2)
    assert zal.size == 23
    assert len(zal.init) == 4 and len(zal.final) == 4
    assert len(zal.warning) == len(set(zal.init) | set(zal.final)) + 2 * 2
    assert zal.size >= 2 * len(set(zal.init) | set(zal.final)) + 3 * 2 + 1
    assert zal.action.fixed_points == [0]
    with pytest.raises(ZsatError):
        ZAlphabet(FiniteGroup.trivial())


def test_alphabet_action_layout(z2, z3, s3):
    # the zombie 0 is fixed and g . (1 + orbit*|G| + h) = 1 + orbit*|G| + g*h
    for gamma in (z2, z3, s3):
        zal = ZAlphabet(gamma)
        q = gamma.order
        assert zal.size == 11 * q + 1
        want = []
        for g in gamma.elements():
            row = [0] * zal.size
            for orb in range(11):
                for h in gamma.elements():
                    row[1 + orb * q + h] = 1 + orb * q + gamma.mul(g, h)
            want.append(tuple(row))
        assert [tuple(zal.action.apply(g, x) for x in range(zal.size))
                for g in gamma.elements()] == want


def test_alphabet_meets_the_paper_conditions(z2, z3, s3, a4):
    for gamma in (z2, z3, s3, a4):
        zal = ZAlphabet(gamma)
        q = gamma.order
        i, f = set(zal.init), set(zal.final)
        union = i | f
        assert len(i) >= 2 * q and len(f) >= 2 * q and i != f
        assert zal.size >= 2 * len(union) + 3 * q + 1
        assert len(zal.warning) == len(union) + 2 * q
        assert not set(zal.warning) & (union | {0})
        assert {zal.z1, zal.z2} <= set(zal.warning)
        assert zal.offset_of(zal.z1) == zal.offset_of(zal.z2) == 0
        assert zal.action.fixed_points == [0]
        # the scratch pairs fill at least two free orbits of the squared
        # action, for the parity and anti-diagonal repairs
        A = zal.size
        scratch = set(zal.scratch)
        scratch_orbits = [orb for orb in zal.square_action.free_orbits
                          if orb[0] // A in scratch and orb[0] % A in scratch]
        assert len(scratch_orbits) == q >= 2
        assert {p for orb in scratch_orbits for p in orb} == {
            a * A + b for a in scratch for b in scratch}


# sha256 of repr(compile_zsat(...).gates) over two seeded predicate gates at
# each width 2-5, and of repr(postcomputation_gate(zal)), per Gamma; taken
# from the compiler that gave every pair of each orbit to extend_to_rubik
ZSAT_DIGESTS = {
    "Z2": ("34c964fb8081524013c156fd54f4471ef27e6d6236419ee5365f2aeafea92000",
           "4c84926c3320b434c4e9cdc9ead72d5afe8cca2a6d9e93cb7be0aab4a1854868"),
    "Z3": ("5e423dd7fc01140382405787383fcc43f9a946215757590ed144218b84263be4",
           "94c248897d9dcd56553b40f226ad36075d7af40a0db74dfa441e352932e5aa63"),
    "S3": ("4b780d892a989b3a7b57c202c8f793727a59e779684a3428158f3f92a355efb8",
           "72828bfc693841fc0a407d297956c638a4d9b9022cb072bd35fb469cbb96c3f2"),
}


def test_zsat_gates_pinned(z2, z3, s3):
    for gamma in (z2, z3, s3):
        zal = ZAlphabet(gamma)
        rng = random.Random(83)
        h = hashlib.sha256()
        for width in range(2, 6):
            gates = [(rng.randrange(width - 1), predicate_gate(zal, rng))
                     for _ in range(2)]
            zi = compile_zsat(data_rsat_instance(zal, width, gates), zal)
            h.update(repr(zi.gates).encode())
        alpha = repr(postcomputation_gate(zal)).encode()
        assert (h.hexdigest(), hashlib.sha256(alpha).hexdigest()) \
            == ZSAT_DIGESTS[gamma.name]


def test_identity_compilation(z2):
    zal = ZAlphabet(z2)
    inst = data_rsat_instance(zal, 2, [])
    zi = compile_zsat(inst, zal)
    assert zi.eval((0, 0)) == (0, 0)
    assert zi.count() == 1           # only the all-zombie input survives
    assert verify_gates(zi)


def test_zombie_relation_structured(z2, z3):
    rng = random.Random(77)
    for gamma in (z2, z3):
        zal = ZAlphabet(gamma)
        for width in (2, 3):
            for _ in range(3):
                gates = []
                for _ in range(rng.randint(1, 3)):
                    pos = rng.randrange(width - 1)
                    gates.append((pos, predicate_gate(zal, rng)))
                inst = data_rsat_instance(zal, width, gates)
                c = inst.count()
                zi = compile_zsat(inst, zal)
                assert zi.count() == gamma.order * c + 1


def test_single_zombie_never_finalizes(z2):
    zal = ZAlphabet(z2)
    rng = random.Random(3)
    inst = data_rsat_instance(zal, 3, [(0, predicate_gate(zal, rng, 1.0))])
    zi = compile_zsat(inst, zal)
    fin = set(zal.final) | {0}
    for word in itertools.product((0,) + zal.init, repeat=3):
        nz = sum(1 for x in word if x == 0)
        if 0 < nz < 3:
            out = zi.eval(word)
            assert not all(x in fin for x in out)
            assert any(x in zal.warning for x in out)


def test_misaligned_inputs_never_finalize(z2):
    zal = ZAlphabet(z2)
    inst = data_rsat_instance(zal, 2, [])
    zi = compile_zsat(inst, zal)
    fin = set(zal.final) | {0}
    for a in zal.init:
        for b in zal.init:
            out = zi.eval((a, b))
            if zal.aligned(a, b):
                continue
            assert not all(x in fin for x in out)


def test_main_gates_preserve_zombies_and_alignment(z2):
    zal = ZAlphabet(z2)
    rng = random.Random(21)
    gate = compile_gate(predicate_gate(zal, rng), zal)
    A = zal.size
    data = zal.init + zal.final
    for a in data:
        # zombie slots stay zombie, data slot stays data
        img = gate[0 * A + a]
        assert img // A == 0 and img % A != 0
        img = gate[a * A + 0]
        assert img % A == 0 and img // A != 0
    for a in data:
        for b in data:
            img = gate[a * A + b]
            x, y = img // A, img % A
            assert x in data and y in data
            assert zal.aligned(a, b) == zal.aligned(x, y)


def test_all_compiled_gates_pass_membership(z3):
    zal = ZAlphabet(z3)
    rng = random.Random(4)
    inst = data_rsat_instance(zal, 3, [(0, predicate_gate(zal, rng)),
                                       (1, predicate_gate(zal, rng))])
    zi = compile_zsat(inst, zal)
    assert verify_gates(zi)
    act = zal.square_action
    alpha = postcomputation_gate(zal)
    assert rubik_membership(alpha, act)


def test_extension_repairs_parity(z2):
    # a single data-orbit transposition induces an odd orbit permutation;
    # the extension must repair it on the scratch orbits
    zal = ZAlphabet(z2)
    data, _, _ = zal.data_quotient()
    nd = len(data)
    perm = list(range(nd * nd))
    perm[0], perm[1] = perm[1], perm[0]
    gate = compile_gate(tuple(perm), zal)
    act = zal.square_action
    assert rubik_membership(gate, act)


def test_extension_needs_scratch(z2):
    zal = ZAlphabet(z2)
    act = zal.square_action
    # a partial map claiming the scratch orbits is rejected
    A = zal.size
    s = zal.scratch[0]
    partial = {0: 0, s * A + s: s * A + s}
    with pytest.raises(ZsatError):
        extend_to_rubik(partial, zal)


def test_table_bridge(z2):
    zal = ZAlphabet(z2)
    and2 = BooleanCircuit(2, [("AND", (0, 1), (2,))], 2)
    inst = zsat_from_table(and2, zal)
    assert inst.count() == 1
    zi = compile_zsat(inst, zal)
    assert zi.count() == 2 * 1 + 1
    or2 = BooleanCircuit(2, [("OR", (0, 1), (2,))], 2)
    inst = zsat_from_table(or2, zal)
    assert inst.count() == 3
    assert compile_zsat(inst, zal).count() == 7


def test_sweep_zombie_relation_widths(z2, z3):
    # the sweep counts widths 2-7; the word oracle rechecks widths up to 5
    rng = random.Random(79)
    for gamma in (z2, z3):
        zal = ZAlphabet(gamma)
        for width in range(2, 8):
            gates = [(rng.randrange(width - 1), predicate_gate(zal, rng))
                     for _ in range(2)]
            inst = data_rsat_instance(zal, width, gates)
            zi = compile_zsat(inst, zal)
            rsat, zcount = inst.count(), zi.count()
            assert zcount == gamma.order * rsat + 1
            assert rsat == count_words(inst.q, inst.gates,
                                       [inst.init] * width,
                                       [inst.final] * width)
            if width <= 5:
                assert zcount == count_words(
                    zal.size, zi.gates, [(zal.zombie,) + zal.init] * width,
                    [(zal.zombie,) + zal.final] * width)


def test_zsat_state_budget_is_exact(z3):
    # data gates at the right edge: the warning gate on (0, 1) runs first
    # and leaves one row, then wires 2-5 enter with 7 live symbols each
    # (the zombie and two init orbits of 3): 7^4 rows, where running the
    # data gates before the warning sweep held 7^6
    zal = ZAlphabet(z3)
    rng = random.Random(80)
    gates = [(4, predicate_gate(zal, rng)), (2, predicate_gate(zal, rng))]
    inst = data_rsat_instance(zal, 6, gates)
    zi = compile_zsat(inst, zal)
    least = 2401
    assert zi.count(CountingLimits(max_states=least)) \
        == z3.order * inst.count() + 1 == 1
    with pytest.raises(WorkBoundExceeded) as exc:
        zi.count(CountingLimits(max_states=least - 1))
    assert str(exc.value) == "ZSAT state budget %d exceeded" % (least - 1)


def test_verify_gates_checks_each_table_once(z2, monkeypatch):
    # one lifted data table twice plus the warning gate on three pairs
    zal = ZAlphabet(z2)
    table = predicate_gate(zal, random.Random(80))
    zi = compile_zsat(data_rsat_instance(zal, 4, [(0, table), (2, table)]),
                      zal)
    checked = []
    monkeypatch.setattr(zsat, "rubik_membership",
                        lambda perm, act: checked.append(perm) or True)
    assert verify_gates(zi)
    assert len(zi.gates) == 5 and len(checked) == 2
    # the warning gate is one table per Gamma, and each instance checks it
    again = compile_zsat(data_rsat_instance(zal, 3, [(1, table)]), zal)
    assert verify_gates(again)
    assert len(checked) == 4
    alpha = postcomputation_gate(zal)
    assert [perm is alpha for perm in checked] == [False, True, False, True]


def test_one_alphabet_per_gamma(z3):
    zal = ZAlphabet(z3)
    assert ZAlphabet(z3) is zal
    assert ZAlphabet(z3).square_action is zal.square_action
    rng = random.Random(84)
    first, second = (
        compile_zsat(data_rsat_instance(zal, width,
                                        [(0, predicate_gate(zal, rng))]), zal)
        for width in (2, 3))
    alpha = postcomputation_gate(zal)
    assert first.gates[-1][1] is alpha and second.gates[-1][1] is alpha
    assert verify_gates(first) and verify_gates(second)
    # the memo is the group's: an equal group built again gets its own
    other = FiniteGroup.cyclic(3)
    assert other.rows == z3.rows
    mine = ZAlphabet(other)
    assert mine is not zal and mine.gamma is other
    assert mine.square_action is not zal.square_action
    assert mine.square_action.free_orbits == zal.square_action.free_orbits
    assert postcomputation_gate(mine) is not alpha
    assert postcomputation_gate(mine) == alpha
