"""Zombie-circuit satisfiability: alphabets with a group action and a single
fixed zombie symbol, gate compilation into the Rubik group of the squared
action, and exact counting.

A conforming alphabet has one fixed point z, free orbits elsewhere,
invariant initialization and finalization sets of at least two orbits each,
a warning alphabet with two distinguished orbits, and enough scratch orbits
to repair parity and anti-diagonal defects when extending partial gates.
"""

import itertools
from dataclasses import dataclass
from . import perms
from .gsets import GSetAction, rubik_membership, equivariant_perm
from .counting import DEFAULT_LIMITS
from .circuits import (RsatIF, apply_gates, count_accepted, encode_word,
                       decode_word)


class ZsatError(ValueError):
    pass


class ZAlphabet:
    """Alphabet for zombie circuits: symbol 0 is the zombie, then free
    orbits in blocks of |Gamma|, partitioned into initialization,
    finalization, warning and scratch roles."""

    def __init__(self, gamma, n_init_orbits=2, n_final_orbits=2,
                 n_scratch_orbits=1):
        if gamma.order < 2:
            raise ZsatError("zombie alphabets need a non-trivial group")
        if n_init_orbits < 2 or n_final_orbits < 2:
            raise ZsatError("initialization and finalization need >= 2|G| symbols")
        self.gamma = gamma
        q = gamma.order
        n_warn = n_init_orbits + n_final_orbits + 2
        self.n_init_orbits = n_init_orbits
        self.n_final_orbits = n_final_orbits
        self.n_warn_orbits = n_warn
        self.n_scratch_orbits = n_scratch_orbits
        n_orbits = n_init_orbits + n_final_orbits + n_warn + n_scratch_orbits
        self.n_orbits = n_orbits
        self.size = 1 + q * n_orbits
        self.zombie = 0

        base = 0
        self.init = tuple(range(1 + base * q, 1 + (base + n_init_orbits) * q))
        base += n_init_orbits
        self.final = tuple(range(1 + base * q, 1 + (base + n_final_orbits) * q))
        base += n_final_orbits
        self.warning = tuple(range(1 + base * q, 1 + (base + n_warn) * q))
        self.z1 = self.warning[0]
        self.z2 = self.warning[q]
        base += n_warn
        self.scratch = tuple(range(1 + base * q, 1 + (base + n_scratch_orbits) * q))

        self.action = self._build_action()
        self._square_action = None
        self._check_inequalities()

    def _build_action(self):
        G = self.gamma
        q = G.order
        table = []
        for g in G.elements():
            row = [0] * self.size
            for orb in range(self.n_orbits):
                b = 1 + orb * q
                for h in G.elements():
                    row[b + h] = b + G.mul(g, h)
            table.append(tuple(row))
        return GSetAction(G, self.size, table)

    # Cached in an attribute set in __init__, as FiniteGroup's invariants
    # are: functools.cached_property writes through instance.__dict__,
    # which on CPython 3.11 slows every later attribute load.

    @property
    def square_action(self):
        """The diagonal action on ordered pairs of symbols, with pair
        encoding (a, b) -> a*|A| + b."""
        if self._square_action is None:
            A = self.size
            G = self.gamma
            table = []
            for g in G.elements():
                row = self.action.table[g]
                pair_row = [0] * (A * A)
                for a in range(A):
                    ra = row[a] * A
                    for b in range(A):
                        pair_row[a * A + b] = ra + row[b]
                table.append(tuple(pair_row))
            self._square_action = GSetAction(G, A * A, table)
        return self._square_action

    def _check_inequalities(self):
        q = self.gamma.order
        i, f = set(self.init), set(self.final)
        union = i | f
        if len(i) < 2 * q or len(f) < 2 * q:
            raise ZsatError("|I|, |F| must be at least 2|G|")
        if i == f:
            raise ZsatError("I and F must differ")
        if self.size < 2 * len(union) + 3 * q + 1:
            raise ZsatError("alphabet smaller than 2|I u F| + 3|G| + 1")
        if len(self.warning) != len(union) + 2 * q:
            raise ZsatError("warning alphabet has the wrong size")
        if set(self.warning) & (union | {0}):
            raise ZsatError("warning alphabet overlaps I, F or the zombie")
        # scratch pairs must give at least two free orbits of the squared
        # action for parity and anti-diagonal repairs
        if self.n_scratch_orbits ** 2 * q < 2:
            raise ZsatError("not enough scratch orbits for gate extension")

    # -- orbit bookkeeping ------------------------------------------------------

    def orbit_of(self, a):
        if a == 0:
            return None
        return (a - 1) // self.gamma.order

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
        i_orbits = tuple(range(self.n_init_orbits))
        f_orbits = tuple(range(self.n_init_orbits,
                               self.n_init_orbits + self.n_final_orbits))
        return i_orbits + f_orbits, i_orbits, f_orbits


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

    partial maps pair codes to pair codes and must be defined on whole
    orbits.  Unmatched orbits are filled order-preservingly with trivial
    twists; parity is repaired by swapping two scratch-pair orbits and the
    abelianized-product defect by twisting a scratch-pair orbit.
    """
    act = zal.square_action
    G = zal.gamma
    n = len(act.free_orbits)
    orbit_img = [None] * n
    comps = [None] * n
    for src, dst in partial.items():
        if src == dst == 0:
            continue
        i, g = act.coords(src)
        j, h = act.coords(dst)
        want = G.mul(G.inv(g), h)
        if orbit_img[i] is None:
            orbit_img[i] = j
            comps[i] = want
        elif orbit_img[i] != j or comps[i] != want:
            raise ZsatError("partial gate is not equivariantly consistent")
    A = zal.size
    scratch_set = set(zal.scratch)
    scratch_pair_orbits = []
    for i, orb in enumerate(act.free_orbits):
        a, b = orb[0] // A, orb[0] % A
        if a in scratch_set and b in scratch_set:
            scratch_pair_orbits.append(i)
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

    ab = G.ab_map
    defect = 0
    for h in comps:
        defect = ab.quotient.mul(defect, ab(h))
    if defect != 0:
        fix = next(g for g in G.elements()
                   if ab.quotient.mul(defect, ab(g)) == 0)
        s1 = scratch_pair_orbits[0]
        comps[s1] = G.mul(comps[s1], fix)

    gate = equivariant_perm(act, tuple(orbit_img), tuple(comps),
                            fixed_map={act.fixed_points[0]: act.fixed_points[0]})
    if not rubik_membership(gate, act):
        raise ZsatError("extension failed the Rubik membership check")
    return gate


# -- compilation ----------------------------------------------------------------------


def compile_gate(gamma_gate, zal):
    """Lift a binary data-alphabet gate into the Rubik group of the squared
    action: zombies are frozen, data pairs act componentwise through the
    section, everything else is extended."""
    A = zal.size
    G = zal.gamma
    data, _, _ = zal.data_quotient()
    ndata = len(data)
    partial = {0: 0}
    for a in (zal.init + zal.final):
        partial[0 * A + a] = 0 * A + a
        partial[a * A + 0] = a * A + 0
    for x in range(ndata):
        for y in range(ndata):
            bx, by = decode_word(gamma_gate[x * ndata + y], ndata, 2)
            for g1 in G.elements():
                for g2 in G.elements():
                    src = (zal.section_rep(x) + g1) * A + (zal.section_rep(y) + g2)
                    dst = (zal.section_rep(bx) + g1) * A + (zal.section_rep(by) + g2)
                    partial[src] = dst
    return extend_to_rubik(partial, zal)


def postcomputation_gate(zal):
    """The warning gate: mixed zombie pairs emit the distinguished warning
    symbols, misaligned data pairs map through the equivariant bijection
    into the rest of the warning alphabet, aligned pairs are fixed."""
    A = zal.size
    G = zal.gamma
    q = G.order
    partial = {0: 0}
    iu_f = zal.init + zal.final
    for a in iu_f:
        g = zal.offset_of(a)
        # alpha(z, a) = (g z1, a); alpha(a, z) = (g z2, a)  [equivariant span]
        partial[0 * A + a] = (zal.z1 + g) * A + a
        partial[a * A + 0] = (zal.z2 + g) * A + a
    # beta: order-preserving equivariant bijection from I u F onto the
    # warning alphabet minus the two distinguished orbits
    beta_targets = [w for w in zal.warning
                    if zal.orbit_of(w) not in (zal.orbit_of(zal.z1),
                                               zal.orbit_of(zal.z2))]
    beta = dict(zip(iu_f, beta_targets))
    for a in iu_f:
        for b in iu_f:
            if zal.aligned(a, b):
                partial[a * A + b] = a * A + b
            else:
                partial[a * A + b] = beta[a] * A + b
    return extend_to_rubik(partial, zal)


def compile_zsat(circuit, zal):
    """Compile a binary-gate reversible circuit over (I u F)/Gamma into a
    zombie instance: each gate is lifted into the Rubik group of the squared
    action, then the postcomputation warning gate sweeps adjacent pairs."""
    data, _, _ = zal.data_quotient()
    if circuit.q != len(data):
        raise ZsatError("circuit alphabet must be the data quotient")
    gates = []
    lift_cache = {}
    for wires, perm in circuit.gates:
        if len(wires) != 2 or wires[1] != wires[0] + 1:
            raise ZsatError("zombie compilation needs adjacent binary gates")
        if perm not in lift_cache:
            lift_cache[perm] = compile_gate(perm, zal)
        gates.append((wires, lift_cache[perm]))
    alpha = postcomputation_gate(zal)
    for i in range(circuit.width - 1):
        gates.append(((i, i + 1), alpha))
    inst = ZsatInstance(zal, circuit.width, gates)
    return inst


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
