"""Zombie-circuit satisfiability: the zombie alphabet of a group Gamma, with
a single fixed zombie symbol, gate compilation into the Rubik group of the
squared action, and exact counting.

The alphabet has one fixed point z, free orbits elsewhere, invariant
initialization and finalization sets of two orbits each, a warning alphabet
with two distinguished orbits, and a scratch orbit whose pairs repair parity
and anti-diagonal defects when extending partial gates.
"""

import itertools
from dataclasses import dataclass
from . import perms
from .groups import derived_subgroup
from .gsets import (GSetAction, equivariant_perm, rubik_coordinates,
                    rubik_membership)
from .counting import DEFAULT_LIMITS
from .circuits import RsatIF, apply_gates, count_accepted, encode_word


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
    orbits of the squared action, the two that extend_to_rubik needs.

    There is one alphabet per Gamma: ZAlphabet(gamma) is built on first
    use and kept in gamma.cached, and every later call returns that object
    with its squared action and scratch pair orbits; the warning gate is
    kept there too.  It is shared, so it is read-only.
    """

    def __new__(cls, gamma):
        return check_gamma(gamma).cached(_build_alphabet)

    # -- orbit bookkeeping ------------------------------------------------------

    def offset_of(self, a):
        """The g with a = g . section_rep(orbit of a)."""
        if a == 0:
            raise ZsatError("zombie has no orbit offset")
        return (a - 1) % self.gamma.order

    def section_rep(self, orbit):
        return 1 + orbit * self.gamma.order

    def aligned(self, a, b):
        """Data symbols are aligned when their section offsets agree."""
        return self.offset_of(a) == self.offset_of(b)

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
    # the diagonal action on ordered pairs of symbols, with pair encoding
    # (a, b) -> a*|A| + b, lists its free orbits in the order a scan of
    # the codes upward finds them, each led by its least pair: (0, r_j) for
    # each orbit j, then for each orbit i, (r_i, 0) and (r_i, k . r_j) for
    # each orbit j and each k; member g of an orbit is g times that pair,
    # where g . (h . r_j) = (g h) . r_j is symbol r_j + g h.  Each orbit is
    # a tuple, which GSetAction keeps without a copy.
    reps = [zal.section_rep(j) for j in range(11)]
    columns = list(zip(*gamma.rows))        # column k lists g k for each g
    pair_orbits = [tuple(range(r, r + q)) for r in reps]
    for ri in reps:
        firsts = tuple(range(ri * A, (ri + q) * A, A))
        pair_orbits.append(firsts)
        for rj in reps:
            pair_orbits += [tuple([x + rj + gk
                                   for x, gk in zip(firsts, column)])
                            for column in columns]
    zal.square_action = GSetAction(gamma, [0], pair_orbits)
    # the free orbits of scratch pairs, the last |Gamma|, which
    # extend_to_rubik keeps for its parity and anti-diagonal repairs
    n = len(pair_orbits)
    zal.scratch_pair_orbits = tuple(range(n - q, n))
    return zal


@dataclass
class ZsatInstance:
    alphabet: ZAlphabet
    width: int
    gates: list          # ((pos, pos + 1), permutation of A^2)

    def eval(self, word):
        return tuple(apply_gates(self.alphabet.size, self.gates, word))

    def count(self, limits=DEFAULT_LIMITS):
        zal = self.alphabet
        inputs = [(zal.zombie,) + zal.init] * self.width
        accepts = [(zal.zombie,) + zal.final] * self.width
        return count_accepted(zal.size, self.gates, inputs, accepts, limits,
                              "ZSAT")


# -- gate extension into the Rubik group -------------------------------------------


def extend_to_rubik(partial, zal):
    """Extend an equivariant partial injection on symbol pairs to a full
    permutation in the Rubik group of the squared action.

    partial maps pair codes to pair codes; it must cover at least one pair
    of each orbit it moves, and pairs of one orbit must agree.  Unmatched
    orbits are filled order-preservingly with trivial twists; parity is
    repaired by swapping two scratch-pair orbits, and a product of the
    components outside [Gamma, Gamma] by twisting a scratch-pair orbit.
    """
    act = zal.square_action
    G = zal.gamma
    n = len(act.free_orbits)
    orbit_img = [None] * n
    comps = [None] * n
    # the zombie pair 0 is the one fixed point, at position 0, so pair x
    # is offset g of orbit i for (i, g) = divmod(position[x] - 1, |Gamma|)
    position, q = act.position, G.order
    for src, dst in partial.items():
        if src == dst == 0:
            continue
        if src == 0 or dst == 0:
            raise ZsatError("partial gate moves the zombie pair")
        i, g = divmod(position[src] - 1, q)
        j, h = divmod(position[dst] - 1, q)
        want = G.mul(G.inv(g), h)
        if orbit_img[i] is None:
            orbit_img[i] = j
            comps[i] = want
        elif orbit_img[i] != j or comps[i] != want:
            raise ZsatError("partial gate is not equivariantly consistent")
    scratch_pair_orbits = zal.scratch_pair_orbits
    if len(scratch_pair_orbits) < 2:
        raise ZsatError("fewer than 2 scratch pair orbits available")

    used = {j for j in orbit_img if j is not None}
    for i in scratch_pair_orbits:
        if orbit_img[i] is not None or i in used:
            raise ZsatError("partial gate touches the scratch orbits")
        orbit_img[i] = i
        comps[i] = 0
        used.add(i)
    free_src = [i for i in range(n) if orbit_img[i] is None]
    free_dst = [j for j in range(n) if j not in used]
    if len(free_src) != len(free_dst):
        raise ZsatError("partial gate is not injective on orbits")
    for i, j in zip(free_src, free_dst):
        orbit_img[i] = j
        comps[i] = 0

    if perms.perm_parity(tuple(orbit_img)) == 1:
        s1, s2 = scratch_pair_orbits[0], scratch_pair_orbits[1]
        orbit_img[s1], orbit_img[s2] = orbit_img[s2], orbit_img[s1]

    derived = G.cached(derived_subgroup)
    defect = 0
    for h in comps:
        defect = G.mul(defect, h)
    if defect not in derived:
        fix = next(g for g in G.elements() if G.mul(defect, g) in derived)
        s1 = scratch_pair_orbits[0]
        comps[s1] = G.mul(comps[s1], fix)

    if not rubik_coordinates(G, {}, orbit_img, comps):
        raise ZsatError("extension failed the Rubik membership check")
    return equivariant_perm(act, tuple(orbit_img), tuple(comps))


# -- compilation ----------------------------------------------------------------------


def compile_gate(gamma_gate, zal):
    """Lift a binary data-alphabet gate into the Rubik group of the squared
    action: zombies are frozen, data pairs act componentwise through the
    section, everything else is extended.  Each orbit is given through one
    pair, (0, rep), (rep, 0) or (rep_x, g . rep_y)."""
    A = zal.size
    data, _, _ = zal.data_quotient()
    reps = [zal.section_rep(x) for x in data]
    partial = {0: 0}
    for a in reps:
        partial[0 * A + a] = 0 * A + a
        partial[a * A + 0] = a * A + 0
    for xy, bxy in enumerate(gamma_gate):
        (x, y), (bx, by) = divmod(xy, len(data)), divmod(bxy, len(data))
        for g in zal.gamma.elements():
            partial[reps[x] * A + reps[y] + g] = reps[bx] * A + reps[by] + g
    return extend_to_rubik(partial, zal)


def postcomputation_gate(zal):
    """The warning gate: mixed zombie pairs emit the distinguished warning
    symbols, misaligned data pairs map through the equivariant bijection
    into the rest of the warning alphabet, aligned pairs are fixed.  One
    table per Gamma, built on first use and kept in gamma.cached."""
    return zal.gamma.cached(_warning_gate)


def _warning_gate(gamma):
    # each orbit is given through its pair whose first data symbol is a
    # section representative
    zal = ZAlphabet(gamma)
    A = zal.size
    q = zal.gamma.order
    iu_f = zal.init + zal.final
    # beta: order-preserving equivariant bijection from I u F onto the
    # warning alphabet minus the two distinguished orbits
    beta = zal.warning[2 * q:]
    partial = {0: 0}
    for i in range(0, len(iu_f), q):
        a = iu_f[i]
        # alpha(z, a) = (z1, a); alpha(a, z) = (z2, a)
        partial[0 * A + a] = zal.z1 * A + a
        partial[a * A + 0] = zal.z2 * A + a
        for b in iu_f:
            partial[a * A + b] = (a if zal.aligned(a, b) else beta[i]) * A + b
    return extend_to_rubik(partial, zal)


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
    one table, so each distinct object is checked once."""
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
