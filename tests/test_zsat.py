import hashlib
import itertools
import random

import pytest

from homcount import perms, zsat
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


def symbol_rows(zal):
    """Oracle for the action on symbols, from Gamma's table and the layout:
    g fixes the zombie and sends h . r_k, symbol r_k + h for the section
    representative r_k of orbit k, to (g h) . r_k."""
    gamma = zal.gamma
    rows = []
    for g in gamma.elements():
        row = [zal.zombie] * zal.size
        for k in range(11):
            r = zal.section_rep(k)
            for h, gh in enumerate(gamma.rows[g]):
                row[r + h] = r + gh
        rows.append(row)
    return rows


def aligned(zal, a, b):
    """Data symbols are aligned when they sit at the same offset from their
    orbits' section representatives."""
    q = zal.gamma.order
    return (a - 1) % q == (b - 1) % q


def fixed_symbols(zal):
    rows = symbol_rows(zal)
    return [x for x in range(zal.size) if all(row[x] == x for row in rows)]


def scan_pair_orbits(zal):
    """Oracle for the squared action's free orbits: scan the pair codes
    a*|A| + b upward and list the orbit of each code not yet seen, member
    g being g times that pair."""
    rows = symbol_rows(zal)
    A = zal.size
    seen = bytearray(A * A)
    orbits = []
    for code in range(1, A * A):
        if not seen[code]:
            a, b = divmod(code, A)
            orbit = tuple(row[a] * A + row[b] for row in rows)
            for pt in orbit:
                seen[pt] = 1
            orbits.append(orbit)
    return orbits


def test_pair_orbits_match_code_scan(z2, z3, s3, a4, a5):
    for gamma in (z2, z3, s3, a4, a5):
        zal = ZAlphabet(gamma)
        act = zal.square_action
        assert act.fixed_points == [0]
        assert act.free_orbits == scan_pair_orbits(zal)
        # pair_orbit names the orbit each of its pairs leads
        A, rows = zal.size, symbol_rows(zal)
        reps = [zal.section_rep(i) for i in range(11)]
        for i, ri in enumerate(reps):
            assert act.free_orbits[zal.pair_orbit(None, i)][0] == ri
            assert act.free_orbits[zal.pair_orbit(i, None)][0] == ri * A
            for j, rj in enumerate(reps):
                for k in gamma.elements():
                    assert act.free_orbits[zal.pair_orbit(i, j, k)][0] \
                        == ri * A + rows[k][rj]
        # the scratch pair orbits are the last |Gamma|
        q, n = gamma.order, len(act.free_orbits)
        assert n == 22 + 121 * q
        assert zal.scratch_pair_orbits == tuple(range(n - q, n))


def test_alphabet_invariants(z2, z3):
    zal = ZAlphabet(z2)
    assert zal.size == 23
    assert len(zal.init) == 4 and len(zal.final) == 4
    assert len(zal.warning) == len(set(zal.init) | set(zal.final)) + 2 * 2
    assert zal.size >= 2 * len(set(zal.init) | set(zal.final)) + 3 * 2 + 1
    assert fixed_symbols(zal) == [zal.zombie] == [0]
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
            want.append(row)
        assert symbol_rows(zal) == want
        # the squared action agrees on the pairs (0, x): x = h . r_j is
        # offset h of the orbit of (0, r_j)
        act = zal.square_action
        for x in range(1, zal.size):
            j, h = divmod(x - 1, q)
            orbit = act.free_orbits[zal.pair_orbit(None, j)]
            assert orbit[0] == zal.section_rep(j) and orbit[h] == x
            for g in gamma.elements():
                assert orbit[gamma.mul(g, h)] == want[g][x]


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
        assert (zal.z1, zal.z2) == (zal.section_rep(4), zal.section_rep(5))
        assert fixed_symbols(zal) == [zal.zombie] == [0]
        # the scratch pairs fill at least two free orbits of the squared
        # action, for the parity repair
        A = zal.size
        scratch = set(zal.scratch)
        scratch_orbits = [orb for orb in zal.square_action.free_orbits
                          if orb[0] // A in scratch and orb[0] % A in scratch]
        assert len(scratch_orbits) == q >= 2
        assert {p for orb in scratch_orbits for p in orb} == {
            a * A + b for a in scratch for b in scratch}


# sha256 of repr(compile_zsat(...).gates) over two seeded predicate gates at
# each width 2-5, and of repr(postcomputation_gate(zal)), per Gamma; Z2, Z3
# and S3 taken from the compiler that gave every pair of each orbit to
# extend_to_rubik, A4 from the one that gave one pair per orbit
ZSAT_DIGESTS = {
    "Z2": ("34c964fb8081524013c156fd54f4471ef27e6d6236419ee5365f2aeafea92000",
           "4c84926c3320b434c4e9cdc9ead72d5afe8cca2a6d9e93cb7be0aab4a1854868"),
    "Z3": ("5e423dd7fc01140382405787383fcc43f9a946215757590ed144218b84263be4",
           "94c248897d9dcd56553b40f226ad36075d7af40a0db74dfa441e352932e5aa63"),
    "S3": ("4b780d892a989b3a7b57c202c8f793727a59e779684a3428158f3f92a355efb8",
           "72828bfc693841fc0a407d297956c638a4d9b9022cb072bd35fb469cbb96c3f2"),
    "A4": ("0b135da7c8b83edf861a31c6d89caf651476c2d9e92411e9a2d1e744dadf7263",
           "9c3c474c51585bb6173fa9104389bf3043e520636ba6f86a0493b6879c5a406d"),
}


def test_zsat_gates_pinned(z2, z3, s3, a4):
    for gamma in (z2, z3, s3, a4):
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


@pytest.mark.parametrize("word", [(-1, 2), (0, 23), (1,), (0.5, 0),
                                  (1.0, 0)],
                         ids=["negative", "past-alphabet", "short",
                              "fraction", "float"])
def test_eval_refuses_words_off_the_alphabet(z2, word):
    # a negative symbol would wrap, 23 is past the 23-symbol alphabet,
    # (1,) is one symbol short, and a float cannot index a gate table
    zal = ZAlphabet(z2)
    zi = compile_zsat(data_rsat_instance(zal, 2, []), zal)
    with pytest.raises(ZsatError):
        zi.eval(word)


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
            if aligned(zal, a, b):
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
            assert aligned(zal, a, b) == aligned(zal, x, y)


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


def test_extension_follows_the_orbit_map(z3):
    # a transposition of two orbits is odd, so two scratch pair orbits
    # swap; every other orbit is fixed, each with a trivial component
    zal = ZAlphabet(z3)
    act = zal.square_action
    gate = extend_to_rubik({0: 5, 5: 0}, zal)
    assert rubik_membership(gate, act)
    s1, s2 = zal.scratch_pair_orbits[:2]
    images = {0: 5, 5: 0, s1: s2, s2: s1}
    for i, orbit in enumerate(act.free_orbits):
        assert [gate[x] for x in orbit] \
            == list(act.free_orbits[images.get(i, i)])


def oracle_extend_to_rubik(orbit_map, zal):
    """The full in-order fill: every orbit that is not a key goes, in
    order, to the next orbit that is not an image, the scratch pair orbits
    held fixed; two scratch orbits swap when the orbit permutation is odd,
    and each orbit's points go to the image orbit's with a trivial
    component."""
    act = zal.square_action
    n = len(act.free_orbits)
    scratch = zal.scratch_pair_orbits
    images = {**orbit_map, **{s: s for s in scratch}}
    used = set(images.values())
    free_src = [i for i in range(n) if i not in images]
    free_dst = [j for j in range(n) if j not in used]
    assert len(free_src) == len(free_dst)
    images.update(zip(free_src, free_dst))
    orbit_perm = [images[i] for i in range(n)]
    if not perms.is_even(orbit_perm):
        s1, s2 = scratch[:2]
        orbit_perm[s1], orbit_perm[s2] = orbit_perm[s2], orbit_perm[s1]
    table = list(range(act.npoints))
    for orbit, j in zip(act.free_orbits, orbit_perm):
        for x, y in zip(orbit, act.free_orbits[j]):
            table[x] = y
    return tuple(table)


def test_extension_matches_the_full_fill(z2, z3, s3):
    rng = random.Random(85)
    for gamma in (z2, z3, s3):
        zal = ZAlphabet(gamma)
        n = len(zal.square_action.free_orbits)
        room = [i for i in range(n) if i not in zal.scratch_pair_orbits]
        maps = [{}]
        for size in (1, 2, 5, 40, len(room) // 2):
            for _ in range(4):
                keys = rng.sample(room, size)
                # images that are the keys themselves, or any orbits
                images = rng.sample(keys if rng.random() < 0.4 else room,
                                    size)
                maps.append(dict(zip(keys, images)))
        # one key beside a long run of keys that are images too
        maps.append({**{i: i + 1 for i in range(3, 30)}, 30: 3})
        maps.append({**{i: i for i in range(3, 30)}, 2: 30})
        assert any(set(m) != set(m.values()) for m in maps)
        for orbit_map in maps:
            assert extend_to_rubik(orbit_map, zal) \
                == oracle_extend_to_rubik(orbit_map, zal)
        # the lifted data gates, from the map over every data pair
        data, _, _ = zal.data_quotient()
        pairs = [(x, y) for x in data for y in data]
        for _ in range(6):
            gate = predicate_gate(zal, rng)
            full = {zal.pair_orbit(*pairs[xy], k): zal.pair_orbit(*pairs[b], k)
                    for xy, b in enumerate(gate) for k in gamma.elements()}
            assert compile_gate(gate, zal) \
                == oracle_extend_to_rubik(full, zal)


@pytest.mark.parametrize("case", [
    "scratch-key", "scratch-image", "two-onto-one", "key-below-0",
    "image-below-0", "key-at-n", "image-at-n"])
def test_extension_refuses_bad_orbit_maps(z2, case):
    # the scratch pair orbits are kept for the parity repair, and the
    # zombie pair, the squared action's one fixed point, has no orbit
    # number, so the nearest bad input is a number outside 0..n-1
    zal = ZAlphabet(z2)
    n = len(zal.square_action.free_orbits)
    s = zal.scratch_pair_orbits[0]
    orbit_map, message = {
        "scratch-key": ({s: 0}, "touches the scratch orbits"),
        "scratch-image": ({0: s}, "touches the scratch orbits"),
        "two-onto-one": ({0: 1, 1: 1}, "not injective"),
        "key-below-0": ({-1: 0}, "outside"),
        "image-below-0": ({0: -1}, "outside"),
        "key-at-n": ({n: 0}, "outside"),
        "image-at-n": ({0: n}, "outside")}[case]
    with pytest.raises(ZsatError, match=message):
        extend_to_rubik(orbit_map, zal)


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
