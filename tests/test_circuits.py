import itertools
import random

import pytest

from homcount.circuits import (BooleanCircuit, CircuitError, ReversibleCircuit,
                               RsatIF, dilate_to_reversible, load_boolean,
                               pack_parameters, parse_boolean_text,
                               parse_reversible_text, reduce_pipeline,
                               regroup_embed, uncompute_wrap, verify_parsimony,
                               encode_word, decode_word, count_accepted)
from homcount.counting import CountingLimits, WorkBoundExceeded
from conftest import count_words

AND2 = BooleanCircuit(2, [("AND", (0, 1), (2,))], 2)
OR2 = BooleanCircuit(2, [("OR", (0, 1), (2,))], 2)


def _apply_opcodes(opcodes, bits):
    """Bit-level oracle for NOT/CNOT/CCNOT opcode lists."""
    bits = list(bits)
    for op in opcodes:
        if op[0] == "NOT":
            bits[op[1]] ^= 1
        elif op[0] == "CNOT":
            bits[op[2]] ^= bits[op[1]]
        else:  # CCNOT
            bits[op[3]] ^= bits[op[1]] & bits[op[2]]
    return bits


def random_circuit(rng, n_inputs, n_gates):
    gates = []
    nodes = n_inputs
    for _ in range(n_gates):
        op = rng.choice(["AND", "OR", "NOT", "COPY"])
        if op in ("AND", "OR"):
            ins = (rng.randrange(nodes), rng.randrange(nodes))
            outs = (nodes,)
            nodes += 1
        elif op == "NOT":
            ins = (rng.randrange(nodes),)
            outs = (nodes,)
            nodes += 1
        else:
            ins = (rng.randrange(nodes),)
            outs = (nodes, nodes + 1)
            nodes += 2
        gates.append((op, ins, outs))
    return BooleanCircuit(n_inputs, gates, rng.randrange(nodes))


def test_boolean_basics():
    assert AND2.count_sat() == 1
    assert OR2.count_sat() == 3
    const = BooleanCircuit(1, [("NOT", (0,), (1,)), ("AND", (0, 1), (2,))], 2)
    assert const.count_sat() == 0
    with pytest.raises(CircuitError):
        BooleanCircuit(1, [("AND", (0, 5), (1,))], 1)


def test_boolean_file_roundtrip():
    text = AND2.format()
    assert parse_boolean_text(text).count_sat() == 1
    with pytest.raises(CircuitError):
        parse_boolean_text("AND 0 1 -> 2\n")


def test_reversible_eval_and_inverse():
    circ = ReversibleCircuit(2, 2)
    circ.add_gate(0, 1, (1, 0))                 # NOT on wire 0
    circ.add_gate(0, 2, (0, 2, 1, 3))           # SWAP
    assert circ.eval((0, 0)) == (0, 1)
    inv = circ.inverse()
    for word in itertools.product((0, 1), repeat=2):
        assert inv.eval(circ.eval(word)) == word
    with pytest.raises(CircuitError):
        circ.add_gate(0, 2, (0, 0, 1, 2))


def test_reversible_file_roundtrip():
    circ = ReversibleCircuit(3, 2)
    circ.add_gate(0, 2, tuple(reversed(range(9))))
    text = "init 0 1\nfinal 2\n" + circ.format()
    loaded, init, final = parse_reversible_text(text)
    assert init == (0, 1) and final == (2,)
    assert loaded.eval((0, 0)) == circ.eval((0, 0))


def test_toffoli_dilation():
    r1 = dilate_to_reversible(AND2)
    assert r1.n_ancillas == 1 and r1.width == 3
    assert r1.opcodes == [("CCNOT", 1, 2, 0)]
    # Toffoli truth: (1,1,0) -> (1,1,1) in (a, x1, x2) layout
    assert _apply_opcodes(r1.opcodes, [0, 1, 1]) == [1, 1, 1]
    assert r1.count() == 1


def test_copy_dilation():
    copy = BooleanCircuit(1, [("COPY", (0,), (1, 2))], 2)
    r1 = dilate_to_reversible(copy)
    assert r1.n_ancillas == 1
    assert r1.opcodes == [("CNOT", 1, 0)]
    assert r1.count() == 1


def test_window_form_matches_opcodes():
    rng = random.Random(8)
    for _ in range(20):
        bc = random_circuit(rng, rng.randint(1, 3), rng.randint(1, 4))
        r1 = dilate_to_reversible(bc)
        circ = r1.window_circuit()
        nvar = r1.width - r1.n_ancillas
        for bits in itertools.product((0, 1), repeat=min(nvar, 6)):
            word = [0] * r1.n_ancillas + list(bits) + [0] * (nvar - len(bits))
            assert tuple(_apply_opcodes(r1.opcodes, word)) == circ.eval(word)


def test_dilation_preserves_counts():
    rng = random.Random(9)
    for _ in range(40):
        bc = random_circuit(rng, rng.randint(1, 3), rng.randint(1, 4))
        assert dilate_to_reversible(bc).count() == bc.count_sat()


def test_uncompute_structure():
    r1 = dilate_to_reversible(AND2)
    r2 = uncompute_wrap(r1)
    # n = 2 variable inputs, k = 1 ancilla: n > k+1 fails, n = k+1 holds
    assert len(r2.zero_wires) * 2 == r2.width
    # gate count 2|C| + 2 in the unpadded case
    assert len(r2.opcodes) == 2 * len(r1.opcodes) + 2
    assert r2.count() == 1


def test_uncompute_padding_cases():
    rng = random.Random(10)
    seen_junk = seen_pad = False
    for _ in range(60):
        bc = random_circuit(rng, rng.randint(1, 3), rng.randint(1, 4))
        r1 = dilate_to_reversible(bc)
        n, k = r1.width - r1.n_ancillas, r1.n_ancillas
        r2 = uncompute_wrap(r1)
        if n < k + 1:
            seen_junk = True
        if n > k + 1:
            seen_pad = True
        assert r2.count() == bc.count_sat()
    assert seen_junk and seen_pad


def test_uncompute_rejects_no_inputs():
    from homcount.circuits import Rsat1
    with pytest.raises(CircuitError):
        uncompute_wrap(Rsat1(2, 2, []))


def test_pack_parameters_examples():
    assert pack_parameters(3, (0, 1), (0, 1))[0] == 3
    assert pack_parameters(4, (0, 1), (2, 3))[0] == 2
    with pytest.raises(CircuitError):
        pack_parameters(3, (0,), (1, 2))
    with pytest.raises(CircuitError):
        pack_parameters(2, (0, 1), (0, 1))


def test_regroup_gates_even_and_frozen():
    r1 = dilate_to_reversible(OR2)
    r2 = uncompute_wrap(r1)
    k, q2, i2, f3k = pack_parameters(4, (0, 1), (2, 3))
    r3, embed = regroup_embed(r2, q2, i2, f3k)
    from homcount.perms import perm_parity
    junk = [s for s in i2 if s not in embed.psi[:2]]
    for wires, perm in r3.gates:
        assert perm_parity(perm) == 0
        # junk symbols are frozen by every gate
        if len(wires) == 2:
            for j in junk:
                for other in range(q2):
                    code = j * q2 + other
                    img = perm[code]
                    assert img // q2 == j
                    code = other * q2 + j
                    assert perm[code] % q2 == j


def test_rsat_if_identity_counts():
    # identity circuit: I = F gives |I|^n, disjoint I and F give 0
    inst = RsatIF(4, 3, (0, 1), (0, 1))
    assert inst.count() == 2 ** 3
    inst = RsatIF(4, 3, (0, 1), (2, 3))
    assert inst.count() == 0


def test_planarize_matches():
    rng = random.Random(12)
    bc = random_circuit(rng, 2, 3)
    _, _, r3, _ = reduce_pipeline(bc)
    planar = r3.planarize()
    for _ in range(40):
        word = tuple(rng.randrange(r3.q) for _ in range(r3.width))
        assert r3.eval(word) == planar.eval(word)


def test_pipeline_exhaustive_small():
    # every 1-gate circuit on up to 3 inputs, all stages exact
    for n in (1, 2, 3):
        for op in ("AND", "OR", "NOT", "COPY"):
            arity = 2 if op in ("AND", "OR") else 1
            for ins in itertools.product(range(n), repeat=arity):
                outs = (n,) if op != "COPY" else (n, n + 1)
                for out in range(n + len(outs)):
                    bc = BooleanCircuit(n, [(op, ins, outs)], out)
                    rep = verify_parsimony(bc)
                    assert rep.ok, bc.format()


def test_pipeline_alt_targets():
    rng = random.Random(13)
    for _ in range(10):
        bc = random_circuit(rng, rng.randint(1, 3), rng.randint(1, 3))
        rep = verify_parsimony(bc, q3=3, init3=(0, 1), final3=(0, 1))
        assert rep.ok
        rep = verify_parsimony(bc, q3=5, init3=(0, 1), final3=(2, 3))
        assert rep.ok


def test_packed_count3_matches():
    rng = random.Random(14)
    for _ in range(5):
        bc = random_circuit(rng, 2, rng.randint(1, 3))
        _, _, _, r4 = reduce_pipeline(bc)
        assert r4.count() == r4.count3() == bc.count_sat()


def test_formal_inverse_exhaustive_sweep():
    # eval(c^-1, eval(c, x)) = x for every word over a small alphabet
    rng = random.Random(15)
    for q, width in ((2, 3), (3, 2)):
        circ = ReversibleCircuit(q, width)
        for _ in range(4):
            k = rng.choice([1, 2])
            pos = rng.randrange(width - k + 1)
            table = list(range(q ** k))
            rng.shuffle(table)
            circ.add_gate(pos, k, tuple(table))
        inv = circ.inverse()
        for word in itertools.product(range(q), repeat=width):
            assert inv.eval(circ.eval(word)) == word


def test_stage_budget_messages():
    # every stage stops before enumerating when its word count exceeds the
    # bound; RSAT1 has as many words as CSAT, so no CLI run can reach it
    tight = CountingLimits(max_enumeration=1)
    r1, r2, r3, r4 = reduce_pipeline(AND2)
    for stage, inst in (("RSAT1", r1), ("RSAT2", r2), ("RSAT", r3),
                        ("RSAT", r4)):
        with pytest.raises(WorkBoundExceeded) as exc:
            inst.count(tight)
        assert str(exc.value) == "%s enumeration over budget" % stage


def test_eval_errors():
    circ = ReversibleCircuit(2, 2)
    with pytest.raises(CircuitError):
        circ.eval((0, 1, 0))
    with pytest.raises(CircuitError):
        circ.eval((0, 7))


def _random_gate(rng, q, width):
    k = rng.randint(1, min(3, width))
    table = list(range(q ** k))
    rng.shuffle(table)
    return tuple(rng.sample(range(width), k)), tuple(table)


def test_sweep_matches_word_oracle():
    rng = random.Random(16)
    seen = set()
    for _ in range(400):
        q = rng.randint(1, 4)
        width = rng.randint(0, 6)
        gates = [_random_gate(rng, q, width)
                 for _ in range(rng.randint(0, 5) if width else 0)]
        # inputs may repeat a symbol, which counts once per copy
        inputs = [tuple(rng.choices(range(q), k=rng.randint(0, 3)))
                  for _ in range(width)]
        accepts = [rng.sample(range(q), rng.randint(0, q))
                   for _ in range(width)]
        assert count_accepted(q, gates, inputs, accepts, CountingLimits(),
                              "TEST") == count_words(q, gates, inputs, accepts)
        touched = set()
        for wires, _ in gates:
            touched.update(wires)
            seen.add("arity %d" % len(wires))
            if max(wires) - min(wires) >= len(wires):
                seen.add("non-adjacent")
        seen.add("width %d" % width)
        if len(touched) < width:
            seen.add("untouched")
        if any(len(inp) == 1 for inp in inputs):
            seen.add("single symbol")
        if any(inp and not set(inp) & set(acc)
               for inp, acc in zip(inputs, accepts)):
            seen.add("empty input & accept")
    assert seen >= {"arity 1", "arity 2", "arity 3", "non-adjacent",
                    "width 0", "width 1", "untouched", "single symbol",
                    "empty input & accept"}
    # symbols above 255 do not fit the byte columns of small alphabets
    q = 300
    for _ in range(3):
        gates = []
        for wires in ((0,), (1, 2), (2, 0)):
            table = list(range(q ** len(wires)))
            rng.shuffle(table)
            gates.append((wires, tuple(table)))
        inputs = [rng.sample(range(q), 3) for _ in range(3)]
        accepts = [rng.sample(range(q), 150) for _ in range(3)]
        assert count_accepted(q, gates, inputs, accepts, CountingLimits(),
                              "TEST") == count_words(q, gates, inputs, accepts)


def _window_words(circ, inputs, accepts):
    """The word oracle on the planar window form of a stage."""
    gates = [(range(pos, pos + k), perm) for pos, k, perm in circ.gates]
    return count_words(circ.q, gates, inputs, accepts)


def test_sweep_matches_oracle_on_every_stage():
    rng = random.Random(17)
    for bc in [AND2, OR2] + [random_circuit(rng, rng.randint(1, 3),
                                            rng.randint(1, 3))
                             for _ in range(6)]:
        r1, r2, r3, r4 = reduce_pipeline(bc)
        want = bc.count_sat()
        assert verify_parsimony(bc).stage_counts() == [want] * 5
        bit = (0, 1)
        assert r1.count() == _window_words(
            r1.window_circuit(),
            [(0,)] * r1.n_ancillas + [bit] * (r1.width - r1.n_ancillas),
            [(1,)] + [bit] * (r1.width - 1))
        zero = [(0,) if w in r2.zero_wires else bit for w in range(r2.width)]
        assert r2.count() == _window_words(r2.window_circuit(), zero, zero)
        for inst in (r3, r4.inner):
            assert inst.count() == _window_words(
                inst.planarize(), [inst.init] * inst.width,
                [inst.final] * inst.width) == want


def test_sweep_state_budget():
    _, _, r3, _ = reduce_pipeline(AND2)
    with pytest.raises(WorkBoundExceeded) as exc:
        r3.count(CountingLimits(max_states=1))
    assert str(exc.value) == "RSAT state budget 1 exceeded"
    # the rows never outnumber the words
    words = len(r3.init) ** r3.width
    assert r3.count(CountingLimits(max_enumeration=words,
                                   max_states=words)) == 1
