import dataclasses
import hashlib
import itertools
import random

import pytest

from homcount.circuits import (BooleanCircuit, CircuitError, RsatIF,
                               dilate_to_reversible, load_boolean,
                               pack_parameters, parse_boolean_text,
                               parse_reversible_text, reduce_pipeline,
                               regroup_embed, uncompute_wrap, verify_parsimony,
                               encode_word, count_accepted, sweep_order,
                               _bit_gates)
from homcount.counting import CountingLimits, DEFAULT_LIMITS, WorkBoundExceeded
from conftest import count_words

AND2 = BooleanCircuit(2, [("AND", (0, 1), (2,))], 2)
OR2 = BooleanCircuit(2, [("OR", (0, 1), (2,))], 2)


def decode_word(code, q, k):
    """The k base-q digits of code, most significant first: the inverse of
    encode_word."""
    out = [0] * k
    for i in range(k - 1, -1, -1):
        out[i] = code % q
        code //= q
    return tuple(out)


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
    circ = RsatIF(2, 2, (0,), (0, 1))
    circ.add_gate((0,), (1, 0))                 # NOT on wire 0
    circ.add_gate((0, 1), (0, 2, 1, 3))         # SWAP
    assert circ.eval((0, 0)) == (0, 1)
    inv = circ.inverse()
    assert (inv.init, inv.final) == ((0, 1), (0,))
    for word in itertools.product((0, 1), repeat=2):
        assert inv.eval(circ.eval(word)) == word
    with pytest.raises(CircuitError, match="not a permutation"):
        circ.add_gate((0, 1), (0, 0, 1, 2))


def test_add_gate_checks():
    circ = RsatIF(2, 4, None, None)
    for wires, table, error in [
            ((), (0,), "gate arity 0 outside 1..3"),
            ((0, 1, 2, 3), range(16), "gate arity 4 outside 1..3"),
            ((0, 0), range(4), "repeated wire in gate"),
            ((3, 4), range(4), "gate wire out of range"),
            ((0, 1), (0, 1), "gate table is not a permutation"),
            ((0, 1), range(8), "gate table is not a permutation")]:
        with pytest.raises(CircuitError) as exc:
            circ.add_gate(wires, table)
        assert str(exc.value) == error
    assert circ.gates == []
    for width in (0, -2):
        with pytest.raises(CircuitError) as exc:
            RsatIF(2, width, None, None)
        assert str(exc.value) == "circuit width %d below 1" % width
        with pytest.raises(CircuitError) as exc:
            RsatIF(width, 2, None, None)
        assert str(exc.value) == "circuit alphabet %d below 1" % width


def test_reversible_file_roundtrip():
    circ = RsatIF(3, 2, (0, 1), (2,))
    circ.add_gate((0, 1), tuple(reversed(range(9))))
    assert "init 0 1\nfinal 2\n" in circ.format()
    assert parse_reversible_text(circ.format()) == circ
    bare = dataclasses.replace(circ, init=None, final=None)
    assert "init" not in bare.format()
    assert parse_reversible_text(bare.format()) == bare
    # format writes window gates only
    circ.add_gate((1, 0), range(9))
    with pytest.raises(CircuitError):
        circ.format()


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
        circ = _planar_bits(r1)
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
    assert (planar.q, planar.width, planar.init, planar.final) == \
        (r3.q, r3.width, r3.init, r3.final)
    for _ in range(40):
        word = tuple(rng.randrange(r3.q) for _ in range(r3.width))
        assert r3.eval(word) == planar.eval(word)
    # every wire order of a three-wire gate, against word evaluation
    for wires in itertools.permutations((0, 2, 3)):
        circ = RsatIF(3, 4, None, None, [_random_gate(rng, 3, 4)])
        circ.add_gate(wires, rng.sample(range(27), 27))
        planar = circ.planarize()
        planar.format()             # raises unless every gate is a window
        for word in itertools.product(range(3), repeat=4):
            assert circ.eval(word) == planar.eval(word)


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


def eval3(r4, word3):
    """Oracle for stage 4: evaluate an A3 word of width inner.width * k
    through the grouped circuit."""
    if len(word3) != r4.inner.width * r4.k:
        raise CircuitError("A3 word width mismatch")
    grouped = [encode_word(word3[i * r4.k:(i + 1) * r4.k], r4.q3)
               for i in range(r4.inner.width)]
    out = r4.inner.eval(grouped)
    flat = []
    for sym in out:
        flat.extend(decode_word(sym, r4.q3, r4.k))
    return tuple(flat)


def count3(r4, limits=DEFAULT_LIMITS):
    """Independent count over A3 words; must equal r4.count()."""
    n3 = r4.inner.width * r4.k
    if len(r4.init3) ** n3 > limits.max_enumeration:
        raise WorkBoundExceeded("RSAT4 A3 enumeration over budget")
    fin = set(r4.final3)
    total = 0
    for word in itertools.product(r4.init3, repeat=n3):
        if all(x in fin for x in eval3(r4, word)):
            total += 1
    return total


def test_packed_count3_matches():
    rng = random.Random(14)
    for _ in range(5):
        bc = random_circuit(rng, 2, rng.randint(1, 3))
        _, _, _, r4 = reduce_pipeline(bc)
        assert r4.count() == count3(r4) == bc.count_sat()


def test_formal_inverse_exhaustive_sweep():
    # eval(c^-1, eval(c, x)) = x for every word over a small alphabet
    rng = random.Random(15)
    for q, width in ((2, 3), (3, 2)):
        circ = RsatIF(q, width, None, None)
        for _ in range(4):
            circ.add_gate(*_random_gate(rng, q, width))
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


def test_stage3_state_budget_is_exact():
    # six pair symbols, each entering with only the two initialization
    # symbols in psi's image out of four; the sweep order runs out symbol
    # 4 before symbols 0 and 5 enter, so at most five are live: 2^5 rows
    # at the peak
    bc = BooleanCircuit(4, [("AND", (1, 2), (4,)), ("AND", (3, 2), (5,)),
                            ("AND", (2, 3), (6,)), ("NOT", (3,), (7,))], 1)
    _, _, r3, _ = reduce_pipeline(bc)
    assert r3.width == 6
    least = 32      # 4096 = 4^6 when every symbol entered in given order
    assert r3.count(CountingLimits(max_states=least)) == bc.count_sat() == 8
    with pytest.raises(WorkBoundExceeded) as exc:
        r3.count(CountingLimits(max_states=least - 1))
    assert str(exc.value) == "RSAT state budget %d exceeded" % (least - 1)
    # the word bound still covers every input word, entered or not
    words = len(r3.init) ** r3.width
    with pytest.raises(WorkBoundExceeded) as exc:
        r3.count(CountingLimits(max_enumeration=words - 1))
    assert str(exc.value) == "RSAT enumeration over budget"


def test_eval_errors():
    circ = RsatIF(2, 2, None, None)
    with pytest.raises(CircuitError, match="word width mismatch"):
        circ.eval((0, 1, 0))
    for word in ((0, 7), (0.5, 0), (1.0, 0), ("1", 0)):
        with pytest.raises(CircuitError, match="symbol out of alphabet"):
            circ.eval(word)


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
        # the sweep runs every gate once, each wire's gates in given order
        order = sweep_order(gates, dict(enumerate(inputs)))
        assert sorted(order) == sorted(gates)
        for w in range(width):
            assert ([g for g in order if w in g[0]]
                    == [g for g in gates if w in g[0]])
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


def _freezing_table(rng, q, keep):
    """A random table on len(keep) wires that leaves the digit keep[j] in
    place at slot j wherever it stands, for each slot whose entry is not
    None: it permutes the codes within each class of digits kept."""
    classes = {}
    for word in itertools.product(range(q), repeat=len(keep)):
        key = tuple(x == s for x, s in zip(word, keep))
        classes.setdefault(key, []).append(encode_word(word, q))
    table = [None] * q ** len(keep)
    for codes in classes.values():
        for c, image in zip(codes, rng.sample(codes, len(codes))):
            table[c] = image
    return tuple(table)


def test_live_inputs_match_oracle():
    # each wire has a chosen symbol that most of its gates leave in place;
    # an input symbol kept by every gate on its wire and not accepted there
    # never enters the sweep, and the word oracle still runs every word
    rng = random.Random(19)
    seen = set()
    for _ in range(300):
        q = rng.choice((2, 3, 4))
        width = rng.randint(2, 5)
        frozen = [rng.randrange(q) for _ in range(width)]
        gates, keeps = [], {}
        for _ in range(rng.randint(1, 5)):
            k = rng.randint(1, min(3, width))
            wires = tuple(rng.sample(range(width), k))
            keep = [frozen[w] if rng.random() < 0.7 else None for w in wires]
            gates.append((wires, _freezing_table(rng, q, keep)))
            for w, s in zip(wires, keep):
                keeps.setdefault(w, []).append(s is not None)
            seen.add("arity %d" % len(wires))
            if list(wires) != sorted(wires):
                seen.add("non-ascending")
        inputs = [tuple(rng.choices(range(q), k=rng.randint(0, q)))
                  + (frozen[w],) * rng.randint(0, 2) for w in range(width)]
        accepts = [rng.sample(range(q), rng.randint(0, q))
                   for _ in range(width)]
        assert count_accepted(q, gates, inputs, accepts, CountingLimits(),
                              "TEST") == count_words(q, gates, inputs, accepts)
        seen.add("q %d" % q)
        for w in range(width):
            if w not in keeps:
                seen.add("untouched")
            elif frozen[w] in inputs[w]:
                accepted = frozen[w] in accepts[w]
                if all(keeps[w]):
                    seen.add("frozen %s" % ("accepted" if accepted
                                            else "unaccepted"))
                elif keeps[w][0] and not accepted:
                    seen.add("kept first, moved later")
    assert seen >= {"arity 1", "arity 2", "arity 3", "non-ascending",
                    "q 2", "q 3", "q 4", "untouched", "frozen accepted",
                    "frozen unaccepted", "kept first, moved later"}
    # wire 0 has no gate; every input of wire 2 is kept and unaccepted, so
    # the count is 0 before a row is entered
    q, rng = 3, random.Random(20)
    gates = [((2, 1), _freezing_table(rng, q, (2, None))),
             ((1, 2), _freezing_table(rng, q, (None, 2)))]
    inputs, accepts = [(0, 1), (0, 1, 2), (2, 2)], [(0,), (0, 1), (0, 1)]
    assert count_words(q, gates, inputs, accepts) == 0
    assert count_accepted(q, gates, inputs, accepts,
                          CountingLimits(max_states=0), "TEST") == 0
    inputs[2] = (1, 2)
    assert count_accepted(q, gates, inputs, accepts, CountingLimits(),
                          "TEST") == count_words(q, gates, inputs, accepts)


def _planar_bits(stage):
    """The planar window form of a stage-1 or stage-2 bit circuit."""
    return RsatIF(2, stage.width, None, None,
                  _bit_gates(stage.opcodes)).planarize()


def _window_words(circ, inputs, accepts):
    """The word oracle on the planar window form of a stage."""
    circ.format()                   # raises unless every gate is a window
    return count_words(circ.q, circ.gates, inputs, accepts)


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
            _planar_bits(r1),
            [(0,)] * r1.n_ancillas + [bit] * (r1.width - r1.n_ancillas),
            [(1,)] + [bit] * (r1.width - 1))
        zero = [(0,) if w in r2.zero_wires else bit for w in range(r2.width)]
        assert r2.count() == _window_words(_planar_bits(r2), zero, zero)
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


# sha256 of repr(r3.gates), repr(r4.inner.gates) and the alphabet, width and
# gate lines of r3.planarize().format() over the 20 circuits
# random.Random(31) draws, per packing; taken from the stage-3 builder that
# wrote one lift per gate kind
STAGE3_DIGESTS = {
    (4, (0, 1), (2, 3)): (
        "93286968a0ca300902df309b3355a49a89ec48a9fb19511fa6083943d60a8359",
        "b8e6f4d692dd6f2c694abbd17b8bb1bc4760d112ac59639d8fe518290306d9e5",
        "6d801613240c5e4d95c22d927e4f1a7d93e632dfc809d85ebe03a109f00c0572"),
    (5, (0, 1), (2, 3)): (
        "a75886a050cd8ffa8d0e5a46caaef124ffb467fad15f6f69f65076e38dea86f3",
        "83b5de8ff96e402e92a8a8ef17cd250b0644a2778094cca39213ef571b0febf2",
        "c402025455a430876f6dc1e181aa7784af78f9f1baebe55f5d979773a124bde1"),
    (6, (0, 1, 2), (3, 4)): (
        "42197088b390cfb7c8a1ca9e4161619c4cd7bd0a550fbf9b0247d5495d466764",
        "28227d29c1e216355df5fc4ce2f874c3d3bd21acfe8b8e12c9d62ab8bc094d4a",
        "e0bf5e8ae0f99f9473668d93903c570f8c0e78621cd018ba5d1af57a1305fb18"),
}


def test_stage3_gates_pinned():
    three_symbol_toffolis = 0
    for packing, want in STAGE3_DIGESTS.items():
        rng = random.Random(31)
        digests = [hashlib.sha256() for _ in want]
        for _ in range(20):
            bc = random_circuit(rng, rng.randint(1, 3), rng.randint(1, 4))
            _, r2, r3, r4 = reduce_pipeline(bc, *packing)
            planar = dataclasses.replace(r3.planarize(), init=None,
                                         final=None)
            for h, text in zip(digests, (repr(r3.gates),
                                         repr(r4.inner.gates),
                                         planar.format())):
                h.update(text.encode())
            symbol = {w: s for s, pair in enumerate(zip(
                r2.variable_wires, sorted(r2.zero_wires))) for w in pair}
            three_symbol_toffolis += sum(
                op[0] == "CCNOT" and len({symbol[w] for w in op[1:]}) == 3
                for op in r2.opcodes)
        assert tuple(h.hexdigest() for h in digests) == want, packing
    # the messenger construction is among the pinned gates
    assert three_symbol_toffolis > 0
