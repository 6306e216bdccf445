"""Zombie-circuit satisfiability: the zombie alphabet of a group Gamma, with
a single fixed zombie symbol, gate compilation into the Rubik group of the
squared action, and exact counting.

The alphabet has one fixed point z, free orbits elsewhere, invariant
initialization and finalization sets of two orbits each, a warning alphabet
with two distinguished orbits, and a scratch orbit whose pairs repair the
parity of a lifted gate.  A gate is lifted as an orbit map on the squared
action, every component trivial, and extend_to_rubik completes it.
"""

import itertools
from dataclasses import dataclass
from . import perms
from .gsets import (GSetAction, equivariant_perm, rubik_coordinates,
                    rubik_membership)
from .counting import DEFAULT_LIMITS
from .circuits import (RsatIF, apply_gates, check_word, count_accepted,
                       encode_word)


class ZsatError(ValueError):
    pass


def check_gamma(gamma):
    """gamma itself; a ZsatError unless it is non-trivial, the one condition
    for a zombie alphabet, so callers can refuse it before building one."""
    if gamma.order < 2:
        raise ZsatError("zombie alphabets need a non-trivial group")
    return gamma


class ZAlphabet:
    """The zombie alphabet of Gamma: symbol 0 is the zombie, then 11 free
    orbits of |Gamma| symbols, orbit k on 1 + k|Gamma| .. (k + 1)|Gamma|
    with its section representative first.  I is orbits 0-1, F orbits 2-3,
    the warning alphabet orbits 4-9 (z1 and z2 the representatives of
    orbits 4 and 5), and the scratch alphabet orbit 10.

    At every |Gamma| >= 2 this meets the paper's conditions: |I| = |F| =
    2|Gamma| and I != F; the warning alphabet misses I u F and the zombie
    and has |I u F| + 2|Gamma| symbols; |A| = 11|Gamma| + 1 =
    2|I u F| + 3|Gamma| + 1; and the scratch pairs form |Gamma| >= 2 free
    orbits of the squared action, two of which extend_to_rubik swaps to
    even a lifted gate's parity.  pair_orbit numbers all of its free
    orbits, and gates reach extend_to_rubik as maps between those numbers.

    There is one alphabet per Gamma: ZAlphabet(gamma) is built on first
    use and kept in gamma.cached, and every later call returns that object
    with its squared action and scratch pair orbits; the warning gate is
    kept there too.  It is shared, so it is read-only.
    """

    def __new__(cls, gamma):
        return check_gamma(gamma).cached(_build_alphabet)

    # -- orbit bookkeeping ------------------------------------------------------

    def section_rep(self, orbit):
        return 1 + orbit * self.gamma.order

    def pair_orbit(self, i, j, k=0):
        """The number of the squared action's orbit through (r_i, k . r_j),
        None standing for the zombie: first (z, r_j) for each orbit j, then
        for each orbit i, (r_i, z) and (r_i, k . r_j) for each j and k, the
        order in which an upward scan of the pair codes meets them."""
        if i is None:
            return j
        first = 11 + i * (11 * self.gamma.order + 1)
        return first if j is None else first + 1 + j * self.gamma.order + k

    def data_quotient(self):
        """The quotient alphabet (I u F)/Gamma with its init/final parts,
        as orbit indices; this is the alphabet of circuits fed to the
        compiler."""
        return (0, 1, 2, 3), (0, 1), (2, 3)


def _build_alphabet(gamma):
    zal = object.__new__(ZAlphabet)
    zal.gamma = gamma
    q = gamma.order
    zal.size = A = 1 + 11 * q
    zal.zombie = 0

    def orbits(lo, hi):
        return tuple(range(1 + lo * q, 1 + hi * q))

    zal.init = orbits(0, 2)
    zal.final = orbits(2, 4)
    zal.warning = orbits(4, 10)
    zal.z1 = zal.warning[0]
    zal.z2 = zal.warning[q]
    zal.scratch = orbits(10, 11)
    # the free orbits of the diagonal action on ordered pairs of symbols,
    # pair (a, b) encoded as a*|A| + b: orbit pair_orbit(i, j, k) lists
    # g . (r_i, k . r_j) for each g, where g . (h . r_j) = (g h) . r_j is
    # symbol r_j + g h.  Each orbit is a tuple, which GSetAction keeps
    # without a copy.  The scratch pairs' orbits come last; extend_to_rubik
    # keeps them for its parity repair.
    zal.scratch_pair_orbits = tuple(zal.pair_orbit(10, 10, k)
                                    for k in range(q))
    pair_orbits = [None] * (zal.scratch_pair_orbits[-1] + 1)
    reps = [zal.section_rep(j) for j in range(11)]
    columns = list(zip(*gamma.rows))        # column k lists g k for each g
    for j, rj in enumerate(reps):
        pair_orbits[zal.pair_orbit(None, j)] = tuple(range(rj, rj + q))
    for i, ri in enumerate(reps):
        firsts = tuple(range(ri * A, (ri + q) * A, A))
        pair_orbits[zal.pair_orbit(i, None)] = firsts
        for j, rj in enumerate(reps):
            for k, column in enumerate(columns):
                pair_orbits[zal.pair_orbit(i, j, k)] = tuple(
                    [x + rj + gk for x, gk in zip(firsts, column)])
    zal.square_action = GSetAction(gamma, [0], pair_orbits)
    return zal


@dataclass
class ZsatInstance:
    alphabet: ZAlphabet
    width: int
    gates: list          # ((pos, pos + 1), permutation of A^2)

    def eval(self, word):
        check_word(word, self.alphabet.size, self.width, ZsatError)
        return tuple(apply_gates(self.alphabet.size, self.gates, word))

    def count(self, limits=DEFAULT_LIMITS):
        zal = self.alphabet
        inputs = [(zal.zombie,) + zal.init] * self.width
        accepts = [(zal.zombie,) + zal.final] * self.width
        return count_accepted(zal.size, self.gates, inputs, accepts, limits,
                              "ZSAT")


# -- gate extension into the Rubik group -------------------------------------------


def extend_to_rubik(orbit_map, zal):
    """Extend a partial injection on the squared action's free orbits,
    numbered by ZAlphabet.pair_orbit and each sending its representative
    pair onto the image's, to a permutation in the Rubik group.  Unmatched
    orbits are filled in order, two scratch pair orbits are swapped if the
    parity is odd, and every component is trivial, so in [Gamma, Gamma].

    Below the least orbit that is a key or an image but not both, and
    above the greatest, keys and images agree, so the in-order fill is the
    identity there; it runs only between the two, and not at all for a
    map that permutes its keys.  The parity, the membership self-check
    and the table's rewritten points are those of the moved orbits alone.
    """
    act = zal.square_action
    n = len(act.free_orbits)
    scratch = zal.scratch_pair_orbits
    images = set(orbit_map.values())
    named = images.union(orbit_map)
    if min(named, default=0) < 0 or max(named, default=0) >= n:
        raise ZsatError("orbit map names an orbit outside 0..%d" % (n - 1))
    if not named.isdisjoint(scratch):
        raise ZsatError("orbit map touches the scratch orbits")
    if len(images) != len(orbit_map):
        raise ZsatError("orbit map is not injective")
    moved = {i: j for i, j in orbit_map.items() if i != j}
    # the scratch orbits come last, past every named one, so the span
    # between the unmatched orbits misses them
    unmatched = images.symmetric_difference(orbit_map)
    if unmatched:
        span = range(min(unmatched), max(unmatched) + 1)
        moved.update(zip([i for i in span if i not in orbit_map],
                         [j for j in span if j not in images]))
    if perms.perm_parity(moved) == 1:
        s1, s2 = scratch[:2]
        moved[s1], moved[s2] = s2, s1
    if not rubik_coordinates(zal.gamma, {}, moved, ()):
        raise ZsatError("extension failed the Rubik membership check")
    return equivariant_perm(act, moved, {})


# -- compilation ----------------------------------------------------------------------


def compile_gate(gamma_gate, zal):
    """Lift a binary data-alphabet gate into the Rubik group of the squared
    action: data pairs act componentwise through the section, so the orbit
    of (r_x, k . r_y) goes to that of (r_bx, k . r_by), and zombies are
    frozen.  Only the pairs the gate moves are passed; their orbits are
    permuted among themselves, so extend_to_rubik fills nothing and fixes
    every other orbit."""
    data, _, _ = zal.data_quotient()
    pairs = [(x, y) for x in data for y in data]    # in gate table order
    orbit = zal.pair_orbit
    return extend_to_rubik({orbit(*pairs[xy], k): orbit(*pairs[bxy], k)
                            for xy, bxy in enumerate(gamma_gate) if xy != bxy
                            for k in zal.gamma.elements()}, zal)


def postcomputation_gate(zal):
    """The warning gate: mixed zombie pairs emit the distinguished warning
    symbols, misaligned data pairs map through the equivariant bijection
    into the rest of the warning alphabet, aligned pairs are fixed.  One
    table per Gamma, built on first use and kept in gamma.cached."""
    return zal.gamma.cached(_warning_gate)


def _warning_gate(gamma):
    # z1 and z2 lead warning orbits 4 and 5, and beta, the order-preserving
    # equivariant bijection from I u F onto the rest of the warning
    # alphabet, sends data orbit x onto orbit 6 + x; a data pair
    # (r_x, k . r_y) is aligned when k is the identity
    zal = ZAlphabet(gamma)
    data, _, _ = zal.data_quotient()
    orbit = zal.pair_orbit
    orbit_map = {}
    for x in data:
        # alpha(z, a) = (z1, a); alpha(a, z) = (z2, a)
        orbit_map[orbit(None, x)] = orbit(4, x)
        orbit_map[orbit(x, None)] = orbit(5, x)
        for y in data:
            orbit_map[orbit(x, y)] = orbit(x, y)
            for k in range(1, gamma.order):
                orbit_map[orbit(x, y, k)] = orbit(6 + x, y, k)
    return extend_to_rubik(orbit_map, zal)


def compile_zsat(circuit, zal):
    """Compile a binary-gate reversible circuit over (I u F)/Gamma into a
    zombie instance: each gate is lifted into the Rubik group of the squared
    action, then the postcomputation warning gate sweeps adjacent pairs."""
    data, _, _ = zal.data_quotient()
    if circuit.q != len(data):
        raise ZsatError("circuit alphabet %d differs from data quotient %d"
                        % (circuit.q, len(data)))
    if any(len(wires) != 2 for wires, _ in circuit.gates):
        raise ZsatError("zombie compilation needs binary gates")
    gates = []
    lift_cache = {}
    for wires, perm in circuit.gates:
        if wires[1] != wires[0] + 1:
            raise ZsatError("zombie compilation needs adjacent binary gates")
        if perm not in lift_cache:
            lift_cache[perm] = compile_gate(perm, zal)
        gates.append((wires, lift_cache[perm]))
    alpha = postcomputation_gate(zal)
    for i in range(circuit.width - 1):
        gates.append(((i, i + 1), alpha))
    return ZsatInstance(zal, circuit.width, gates)


def verify_gates(inst):
    """Every gate must commute with the action and pass Rubik membership.
    compile_zsat shares one table object among the gates it lifts from
    one table, so each distinct object is checked once, on every call: a
    check is a few gathers over the points per generator of Gamma
    (GSetAction.decompose) and a parity walk over the moved orbits."""
    act = inst.alphabet.square_action
    tables = {id(perm): perm for _, perm in inst.gates}
    return all(rubik_membership(perm, act) for perm in tables.values())


# -- direct RSAT instances over the data quotient ---------------------------------------


def data_rsat_instance(zal, width, gates):
    """An RSAT instance over (I u F)/Gamma with the given adjacent binary
    gates (list of (pos, perm over the data alphabet squared))."""
    data, i_orbits, f_orbits = zal.data_quotient()
    inst = RsatIF(len(data), width, i_orbits, f_orbits)
    for pos, perm in gates:
        inst.add_gate((pos, pos + 1), perm)
    return inst


def zsat_from_table(bc, zal):
    """Width-2 bridge from a 2-input Boolean circuit: the predicate becomes
    one binary data-alphabet gate swapping accepted initialization words
    onto distinct finalization words."""
    if bc.n_inputs != 2:
        raise ZsatError("table bridge supports exactly 2 inputs")
    data, i_orbits, f_orbits = zal.data_quotient()
    nd = len(data)
    perm = list(range(nd * nd))
    sat = [bits for bits in itertools.product((0, 1), repeat=2)
           if bc.eval(bits)]
    for idx, bits in enumerate(sat):
        src = encode_word((i_orbits[bits[0]], i_orbits[bits[1]]), nd)
        dst = encode_word((f_orbits[idx // len(f_orbits)],
                           f_orbits[idx % len(f_orbits)]), nd)
        perm[src], perm[dst] = perm[dst], perm[src]
    return data_rsat_instance(zal, 2, [(0, tuple(perm))])
