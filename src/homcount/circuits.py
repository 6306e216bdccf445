"""Boolean and reversible circuit IR plus the staged reduction pipeline
from circuit satisfiability to alphabet-packed reversible satisfiability.

Stage chain: a Boolean circuit is dilated gatewise into a reversible circuit
with ancillas (stage 1), wrapped by uncomputation so half the wires are zero
at both ends (stage 2), regrouped into pair symbols and embedded into a
chosen alphabet with initialization and finalization sets (stage 3), and
packed into an arbitrary conforming target alphabet (stage 4).  Exact count
preservation at every stage is the package's acceptance contract.
"""

import heapq
import itertools
import math
from dataclasses import dataclass, field
from . import perms
from .complexes import MAX_HEADER
from .counting import WorkBoundExceeded, DEFAULT_LIMITS, Sweep
from .textformat import content_lines, int_fields, keyword_int


class CircuitError(ValueError):
    pass


BOOL_OPS = {"AND": (2, 1), "OR": (2, 1), "NOT": (1, 1), "COPY": (1, 2)}


class BooleanCircuit:
    """Directed acyclic circuit over AND, OR, NOT, COPY with one output."""

    def __init__(self, n_inputs, gates, output):
        self.n_inputs = n_inputs
        self.gates = []
        n_nodes = n_inputs
        for op, ins, outs in gates:
            if op not in BOOL_OPS:
                raise CircuitError("unknown op %r" % op)
            arity, n_out = BOOL_OPS[op]
            if len(ins) != arity or len(outs) != n_out:
                raise CircuitError("bad arity for %s" % op)
            for i in ins:
                if not (0 <= i < n_nodes):
                    raise CircuitError("gate input %d not yet defined" % i)
            for o in outs:
                if o != n_nodes:
                    raise CircuitError("gate outputs must be consecutive")
                n_nodes += 1
            self.gates.append((op, tuple(ins), tuple(outs)))
        self.n_nodes = n_nodes
        if not (0 <= output < n_nodes):
            raise CircuitError("output node out of range")
        self.output = output

    def eval(self, bits):
        vals = list(bits) + [0] * (self.n_nodes - self.n_inputs)
        for op, ins, outs in self.gates:
            if op == "AND":
                vals[outs[0]] = vals[ins[0]] & vals[ins[1]]
            elif op == "OR":
                vals[outs[0]] = vals[ins[0]] | vals[ins[1]]
            elif op == "NOT":
                vals[outs[0]] = 1 - vals[ins[0]]
            else:
                vals[outs[0]] = vals[ins[0]]
                vals[outs[1]] = vals[ins[0]]
        return vals[self.output]

    def count_sat(self, limits=DEFAULT_LIMITS):
        if 2 ** self.n_inputs > limits.max_enumeration:
            raise WorkBoundExceeded("CSAT enumeration over budget")
        return sum(self.eval(bits)
                   for bits in itertools.product((0, 1), repeat=self.n_inputs))

    def format(self):
        lines = ["in %d" % self.n_inputs]
        for op, ins, outs in self.gates:
            lines.append("%s %s -> %s" % (op, " ".join(map(str, ins)),
                                          " ".join(map(str, outs))))
        lines.append("out %d" % self.output)
        return "\n".join(lines) + "\n"


def parse_boolean_text(text):
    lines = content_lines(text) or [""]
    n = keyword_int(lines[0], "in", CircuitError, MAX_HEADER)
    gates = []
    output = None
    for ln in lines[1:]:
        if ln.split()[0] == "out":
            output = keyword_int(ln, "out", CircuitError)
            continue
        head, _, tail = ln.partition("->")
        toks = head.split()
        if not toks:
            raise CircuitError("gate line without an op: %r" % ln)
        gates.append((toks[0], int_fields(toks[1:], ln, CircuitError),
                      int_fields(tail.split(), ln, CircuitError)))
    if output is None:
        raise CircuitError("missing 'out' line")
    return BooleanCircuit(n, gates, output)


def load_boolean(path):
    with open(path) as fh:
        return parse_boolean_text(fh.read())


# -- reversible circuits ---------------------------------------------------------------


def encode_word(word, q):
    acc = 0
    for x in word:
        acc = acc * q + x
    return acc


def apply_gates(q, gates, word):
    """The image of a word over range(q) under gates applied in order, as a
    list.  A gate is (wires, perm), with perm a permutation of the base-q
    codes of the symbols on those wires, first wire most significant."""
    word = list(word)
    for wires, perm in gates:
        code = 0
        for w in wires:
            code = code * q + word[w]
        code = perm[code]
        for w in reversed(wires):
            code, word[w] = divmod(code, q)
    return word


def sweep_order(gates, live):
    """The gates reordered for a row sweep, each wire's gates kept in their
    given order; live[w] lists the symbols wire w enters with.

    Gates on disjoint wires commute, so any topological order of the
    chains of gates on each wire gives the same image.  Among the gates
    that come first on all their wires, the sweep runs the one that
    multiplies the rows least (the product of len(live[w]) over the wires
    it enters), then the one that leaves the fewest wires open (wires it
    is not last on), then the earliest.  Two such gates share no wire, so
    each key is fixed per gate and one heap orders them (Markov and Shi,
    SIAM J. Comput. 38, 2008, on contraction order)."""
    n = len(gates)
    first, last = {}, {}
    succ = [[] for _ in gates]      # the next gate on each of a gate's wires
    waits = [0] * n                 # the wires where a gate is not first yet
    for i, (wires, _) in enumerate(gates):
        for w in wires:
            if w in last:
                succ[last[w]].append(i)
                waits[i] += 1
            else:
                first[w] = i
            last[w] = i
    grow, closes = [1] * n, [0] * n
    for w, i in first.items():
        grow[i] *= len(live[w])
    for i in last.values():
        closes[i] += 1
    keys = [(g, len(wires) - c, i)      # growth, wires left open, index
            for i, ((wires, _), g, c) in enumerate(zip(gates, grow, closes))]
    ready = [key for key, wait in zip(keys, waits) if not wait]
    heapq.heapify(ready)
    order = []
    while ready:
        i = heapq.heappop(ready)[2]
        order.append(gates[i])
        for j in succ[i]:
            waits[j] -= 1
            if not waits[j]:
                heapq.heappush(ready, keys[j])
    return order


def count_accepted(q, gates, inputs, accepts, limits, stage):
    """Number of words in product(*inputs) whose image under gates has
    every wire in its own accept set, a repeated input symbol counting once
    per copy; inputs and accepts give one symbol collection per wire.

    A Sweep over the gates in sweep_order: a wire enters at its first gate
    with one copy of each row per live input symbol, each gate maps its
    wires' columns through its table, and after its last gate the wire's
    unaccepted rows are dropped, its column goes and equal rows merge.  An
    input symbol is live when the wire accepts it or one of the wire's
    gates moves it; one that no gate moves stays on the wire to the end
    and is rejected, so it never enters.  limits.max_states bounds the
    rows entered, limits.max_enumeration every word of product(*inputs)."""
    if math.prod(map(len, inputs)) > limits.max_enumeration:
        raise WorkBoundExceeded("%s enumeration over budget" % stage)
    accepts = [frozenset(acc) for acc in accepts]
    on_wire = {}
    for wires, perm in gates:
        for slot, w in enumerate(wires):
            on_wire.setdefault(w, []).append((perm, len(wires) - 1 - slot))
    factor = math.prod(sum(map(accepts[w].__contains__, inputs[w]))
                       for w in range(len(inputs)) if w not in on_wire)
    moved = {}              # (id(table), place, symbol) -> the table moves it

    def moves(perm, place, s):
        key = id(perm), place, s
        if key not in moved:
            low = q ** place
            # the codes with s there run in blocks of low, one per q * low
            moved[key] = any(x // low % q != s
                             for start in range(s * low, len(perm), q * low)
                             for x in perm[start:start + low])
        return moved[key]

    live = {w: [s for s in inputs[w] if s in accepts[w]
                or any(moves(perm, place, s) for perm, place in on_wire[w])]
            for w in on_wire}
    if not all(live.values()):
        return 0
    gates = sweep_order(gates, live)
    last = {}
    for i, (wires, _) in enumerate(gates):
        for w in wires:
            last[w] = i
    sweep = Sweep(q, limits.max_states, stage)
    cols, col = sweep.cols, sweep.col
    for i, (wires, perm) in enumerate(gates):
        for w in wires:
            if w not in cols:
                sweep.enter(w, live[w])
        codes = cols[wires[0]]
        for w in wires[1:-1]:
            codes = [c * q + x for c, x in zip(codes, cols[w])]
        # the last wire's pass maps through the table at once, so no list
        # of unmapped codes is held
        codes = ([perm[c * q + x] for c, x in zip(codes, cols[wires[-1]])]
                 if len(wires) > 1 else [perm[c] for c in codes])
        for w in reversed(wires[1:]):
            cols[w] = col([c % q for c in codes])
            codes = [c // q for c in codes]
        cols[wires[0]] = col(codes)
        leaving = [w for w in wires if last[w] == i]
        if leaving:
            sweep.forget(leaving, map(all, zip(*[
                map(accepts[w].__contains__, cols[w]) for w in leaving])))
            if not sweep.mults:
                return 0
    return factor * sum(sweep.mults)


def _check_arity(k):
    if k not in (1, 2, 3):
        raise CircuitError("gate arity %d outside 1..3" % k)


def _digit_perm(q, slots):
    """The code map sending a k-symbol word w over range(q) to the word
    whose i-th symbol is w[slots[i]], first symbol most significant."""
    return tuple(encode_word([word[s] for s in slots], q)
                 for word in itertools.product(range(q), repeat=len(slots)))


@dataclass
class RsatIF:
    """Reversible circuit over range(q) with initialization and
    finalization sets, None where a circuit file leaves one out.  A gate is
    (wires, perm): perm permutes the base-q codes of the symbols on its one
    to three distinct wires, first wire most significant.  planarize()
    gives the window form, whose gates act on ascending wire runs."""
    q: int
    width: int
    init: tuple
    final: tuple
    gates: list = field(default_factory=list)

    def __post_init__(self):
        if self.q < 1:
            raise CircuitError("circuit alphabet %d below 1" % self.q)
        if self.width < 1:
            raise CircuitError("circuit width %d below 1" % self.width)

    def add_gate(self, wires, perm):
        wires = tuple(wires)
        _check_arity(len(wires))
        if len(set(wires)) != len(wires):
            raise CircuitError("repeated wire in gate")
        if any(not (0 <= w < self.width) for w in wires):
            raise CircuitError("gate wire out of range")
        perm = tuple(perm)
        if (len(perm) != self.q ** len(wires)
                or sorted(perm) != list(range(len(perm)))):
            raise CircuitError("gate table is not a permutation")
        self.gates.append((wires, perm))

    def eval(self, word):
        if len(word) != self.width:
            raise CircuitError("word width mismatch")
        if any(not (0 <= x < self.q) for x in word):
            raise CircuitError("symbol out of alphabet")
        return tuple(apply_gates(self.q, self.gates, word))

    def inverse(self):
        """The circuit undoing this one, with init and final swapped."""
        return RsatIF(self.q, self.width, self.final, self.init,
                      [(wires, perms.inverse(perm))
                       for wires, perm in reversed(self.gates)])

    def count(self, limits=DEFAULT_LIMITS):
        return count_accepted(self.q, self.gates, [self.init] * self.width,
                              [self.final] * self.width, limits, "RSAT")

    def format(self):
        """The circuit file text, with init and final where they are set;
        every gate must be a window."""
        lines = ["alphabet %d" % self.q, "width %d" % self.width]
        for key, symbols in (("init", self.init), ("final", self.final)):
            if symbols is not None:
                lines.append(" ".join([key, *map(str, symbols)]))
        for wires, perm in self.gates:
            pos, k = wires[0], len(wires)
            if wires != tuple(range(pos, pos + k)):
                raise CircuitError("gate wires %r are not a window" % (wires,))
            lines.append("gate %d %d %s" % (pos, k, " ".join(map(str, perm))))
        return "\n".join(lines) + "\n"

    def planarize(self):
        """Window form: SWAP-conjugate every gate onto contiguous wires.
        A gate whose wires are not ascending gets its table gathered
        through the digit permutation of its wires' window slots."""
        q = self.q
        circ = RsatIF(q, self.width, self.init, self.final)
        swap = _digit_perm(q, (1, 0))
        gather = {}         # window slots of the wires -> (digit perm, inverse)
        for wires, perm in self.gates:
            order = sorted(wires)
            base = order[0]
            moves = [p for offset, w in enumerate(order[1:], start=1)
                     for p in range(w - 1, base + offset - 1, -1)]
            if list(wires) != order:
                slots = tuple(map(order.index, wires))
                if slots not in gather:
                    sigma = _digit_perm(q, slots)
                    gather[slots] = sigma, perms.inverse(sigma)
                sigma, unsigma = gather[slots]
                perm = tuple(unsigma[perm[c]] for c in sigma)
            for p in moves:
                circ.add_gate((p, p + 1), swap)
            circ.add_gate(range(base, base + len(wires)), perm)
            for p in reversed(moves):
                circ.add_gate((p, p + 1), swap)
        return circ


def parse_reversible_text(text):
    """The RsatIF a circuit file describes, init or final None when the
    file leaves it out; a gate line names a window, `gate <pos> <k> <table>`."""
    q = width = None
    init = final = None
    gates = []
    for ln in content_lines(text):
        key, *fields = ln.split()
        if key == "alphabet":
            q = keyword_int(ln, key, CircuitError)
        elif key == "width":
            width = keyword_int(ln, key, CircuitError, MAX_HEADER)
        elif key == "init":
            init = int_fields(fields, ln, CircuitError)
        elif key == "final":
            final = int_fields(fields, ln, CircuitError)
        elif key == "gate" and len(fields) >= 2:
            pos, k, *perm = int_fields(fields, ln, CircuitError)
            gates.append((pos, k, perm))
        else:
            raise CircuitError("unknown or short circuit line %r" % ln)
    if q is None or width is None:
        raise CircuitError("circuit file needs alphabet and width")
    for key, symbols in (("init", init), ("final", final)):
        bad = [sym for sym in symbols or () if not 0 <= sym < q]
        if bad:
            raise CircuitError("%s symbol %d outside alphabet %d"
                               % (key, bad[0], q))
    circ = RsatIF(q, width, init, final)
    for pos, k, perm in gates:
        _check_arity(k)
        if not (0 <= pos and pos + k <= width):
            raise CircuitError("gate window out of range")
        circ.add_gate(range(pos, pos + k), perm)
    return circ


def load_reversible(path):
    with open(path) as fh:
        return parse_reversible_text(fh.read())


# -- structural bit-level circuits (stages 1 and 2) -------------------------------------


# NOT, CNOT and CCNOT as permutations of the bit codes of their wires,
# controls first and target last
_BIT_TABLES = {"NOT": (1, 0), "CNOT": (0, 1, 3, 2),
               "CCNOT": (0, 1, 2, 3, 4, 5, 7, 6)}


def _bit_gates(opcodes):
    return [(op[1:], _BIT_TABLES[op[0]]) for op in opcodes]


@dataclass
class Rsat1:
    """Reversible circuit over bits; ancilla wires start at 0 and the
    decision output is the value of wire 0."""
    width: int
    n_ancillas: int
    opcodes: list

    def count(self, limits=DEFAULT_LIMITS):
        inputs = ([(0,)] * self.n_ancillas
                  + [(0, 1)] * (self.width - self.n_ancillas))
        accepts = [(1,)] + [(0, 1)] * (self.width - 1)
        return count_accepted(2, _bit_gates(self.opcodes), inputs, accepts,
                              limits, "RSAT1")


@dataclass
class Rsat2:
    """Reversible bit circuit with the same wires zeroed at input and output."""
    width: int
    zero_wires: tuple
    opcodes: list

    def __post_init__(self):
        if len(self.zero_wires) * 2 != self.width:
            raise CircuitError("zero wires must be exactly half the width")

    @property
    def variable_wires(self):
        zs = set(self.zero_wires)
        return [w for w in range(self.width) if w not in zs]

    def count(self, limits=DEFAULT_LIMITS):
        zs = set(self.zero_wires)
        bits = [(0,) if w in zs else (0, 1) for w in range(self.width)]
        return count_accepted(2, _bit_gates(self.opcodes), bits, bits,
                              limits, "RSAT2")


def dilate_to_reversible(bc):
    """Stage 1: replace each irreversible gate by its reversible dilation
    with a fresh zero ancilla; the decision lands on wire 0."""
    n = bc.n_inputs
    # the decision wire is the output gate's own ancilla when that gate
    # allocates one; input nodes and forwarded COPY outputs need a dedicated
    # decision ancilla plus one copy gate
    out_needs_copy = bc.output < n or any(
        op == "COPY" and outs[0] == bc.output for op, _, outs in bc.gates)
    n_anc = sum(1 for _ in bc.gates) + (1 if out_needs_copy else 0)
    wire_of = {}
    for i in range(n):
        wire_of[i] = n_anc + i
    opcodes = []
    next_anc = [1]

    def fresh_anc(node):
        if node == bc.output and not out_needs_copy:
            return 0
        w = next_anc[0]
        next_anc[0] += 1
        return w

    for op, ins, outs in bc.gates:
        if op == "AND":
            w = fresh_anc(outs[0])
            wire_of[outs[0]] = w
            a, b = wire_of[ins[0]], wire_of[ins[1]]
            if a == b:
                opcodes.append(("CNOT", a, w))
            else:
                opcodes.append(("CCNOT", a, b, w))
        elif op == "OR":
            w = fresh_anc(outs[0])
            wire_of[outs[0]] = w
            a, b = wire_of[ins[0]], wire_of[ins[1]]
            if a == b:
                opcodes.append(("CNOT", a, w))
            else:
                opcodes.append(("CNOT", a, w))
                opcodes.append(("CNOT", b, w))
                opcodes.append(("CCNOT", a, b, w))
        elif op == "NOT":
            w = fresh_anc(outs[0])
            wire_of[outs[0]] = w
            opcodes.append(("CNOT", wire_of[ins[0]], w))
            opcodes.append(("NOT", w))
        else:  # COPY: first output keeps the wire, second gets the ancilla
            wire_of[outs[0]] = wire_of[ins[0]]
            w = fresh_anc(outs[1])
            wire_of[outs[1]] = w
            opcodes.append(("CNOT", wire_of[ins[0]], w))
    if out_needs_copy:
        opcodes.append(("CNOT", wire_of[bc.output], 0))
    return Rsat1(n_anc + n, n_anc, opcodes)


def uncompute_wrap(r1):
    """Stage 2: C, copy-negate the decision to a fresh wire, then C^-1;
    pad per the three width cases so zeroed wires are exactly half."""
    n = r1.width - r1.n_ancillas
    k = r1.n_ancillas
    if n == 0:
        raise CircuitError("uncompute needs at least one variable input")
    inverse = list(reversed(r1.opcodes))    # NOT/CNOT/CCNOT are involutions
    b = r1.width
    opcodes = list(r1.opcodes)
    opcodes.append(("CNOT", 0, b))
    opcodes.append(("NOT", b))
    opcodes.extend(inverse)
    width = r1.width + 1
    zero = list(range(k)) + [b]
    if n > k + 1:
        pads = list(range(width, width + (n - k - 1)))
        width += len(pads)
        zero.extend(pads)
    elif n < k + 1:
        junk = list(range(width, width + (k + 1 - n)))
        width += len(junk)
        targets = [w for w in range(k - 1, -1, -1)][:len(junk)]
        for j, t in zip(junk, targets):
            opcodes.append(("CNOT", j, t))
    return Rsat2(width, tuple(sorted(zero)), opcodes)


# -- stage 3: pair symbols and embed ------------------------------------------------------


@dataclass
class EmbeddingData:
    psi: tuple          # A1 symbol (0..3, data + 2*anc) -> A2 symbol id
    f_images: tuple     # where the two finalizable symbols land in F2
    pairs: list         # (data wire, zero wire) per symbol position


def regroup_embed(r2, q2, init2, final2):
    """Stage 3: pair each variable wire with a zero wire into one symbol of
    Z/2 x Z/2, then embed into the target alphabet.

    Each bit gate becomes one symbol gate on the symbols its wires reach,
    in the order its wires first reach them, and a three-symbol Toffoli
    becomes four two-symbol gates by the messenger construction.  Embedded
    gates are extended by the identity (freezing any symbol outside the
    embedded image) and evenized, using states built from finalization
    symbols, which are unreachable before the final relabeling.
    """
    init2, final2 = tuple(init2), tuple(final2)
    if set(init2) & set(final2):
        raise CircuitError("stage-3 target needs disjoint init and final sets")
    spares = [s for s in range(q2) if s not in init2 and s not in final2]
    if len(spares) < 2:
        raise CircuitError("stage-3 target needs two symbols outside init+final")
    if len(init2) < 2 or len(final2) < 2:
        raise CircuitError("init and final need at least two symbols")

    pairs = list(zip(r2.variable_wires, sorted(r2.zero_wires)))
    m = len(pairs)
    slot = {}
    for s, (dv, zv) in enumerate(pairs):
        slot[dv] = (s, 0)
        slot[zv] = (s, 1)
    psi = (init2[0], init2[1], spares[0], spares[1])
    f_images = (final2[0], final2[1])
    inst = RsatIF(q2, m, init2, final2)
    tables = {}             # gate shape -> lifted table

    def symbol_code(bits):
        """The A2 code of the A1 symbols whose slot bits are bits, two per
        symbol, data bit first."""
        return encode_word([psi[bits[i] + 2 * bits[i + 1]]
                            for i in range(0, len(bits), 2)], q2)

    def lift(shape, k):
        """The A2^k table acting as the bit gate of shape through psi,
        identity elsewhere, with its all-f_images states swapped when odd."""
        op, *wires = shape
        gate = [([2 * p + sl for p, sl in wires], _BIT_TABLES[op])]
        table = list(range(q2 ** k))
        for bits in itertools.product((0, 1), repeat=2 * k):
            table[symbol_code(bits)] = symbol_code(apply_gates(2, gate, bits))
        if perms.perm_parity(table) == 1:
            a, b = (encode_word([f] * k, q2) for f in f_images)
            table[a], table[b] = table[b], table[a]
        return tuple(table)

    def emit(op, *wires):
        """Add bit gate op on wires, each a (symbol, slot) pair."""
        symbols = list(dict.fromkeys(s for s, _ in wires))
        if len(symbols) == 3:
            # messenger trick through the spare bit of the middle symbol:
            # (U V)^2 with U = CNOT(c1 -> partner), V = CCNOT(c2, partner
            # -> t); the partner bit is restored
            c1, (s2, sl2), t = wires
            partner = (s2, 1 - sl2)
            for _ in range(2):
                emit("CNOT", c1, partner)
                emit("CCNOT", (s2, sl2), partner, t)
            return
        shape = (op,) + tuple((symbols.index(s), sl) for s, sl in wires)
        if shape not in tables:
            tables[shape] = lift(shape, len(symbols))
        inst.add_gate(symbols, tables[shape])

    for op in r2.opcodes:
        emit(op[0], *map(slot.get, op[1:]))

    # final relabeling: carry the finalizable symbols psi(0), psi(1) into the
    # finalization set; two disjoint transpositions keep the gate even
    rho = list(range(q2))
    rho[psi[0]], rho[f_images[0]] = rho[f_images[0]], rho[psi[0]]
    rho[psi[1]], rho[f_images[1]] = rho[f_images[1]], rho[psi[1]]
    rho = tuple(rho)
    for s in range(m):
        inst.add_gate((s,), rho)
    return inst, EmbeddingData(psi, f_images, pairs)


# -- stage 4: alphabet packing --------------------------------------------------------------


def pack_parameters(q3, i3, f3):
    """Minimal k with |A3|^k >= |I3|^k + |F3|^k + 2, plus the derived
    stage-3 target alphabet."""
    if not (2 <= len(i3) < q3 and 2 <= len(f3) < q3):
        raise CircuitError("packing needs 2 <= |I|, |F| < |A|")
    k = 1
    while q3 ** k < len(i3) ** k + len(f3) ** k + 2:
        k += 1
    q2 = q3 ** k
    i2 = sorted(encode_word(w, q3) for w in itertools.product(i3, repeat=k))
    f3k = sorted(encode_word(w, q3) for w in itertools.product(f3, repeat=k))
    return k, q2, tuple(i2), tuple(f3k)


@dataclass
class PackedRsat4:
    """Stage-4 instance over the target alphabet, stored in grouped form:
    the inner circuit works on symbols of A3^k, and the final unary gate has
    already carried finalization onto the F3^k grid."""
    inner: RsatIF
    k: int
    q3: int
    init3: tuple
    final3: tuple

    def count(self, limits=DEFAULT_LIMITS):
        return self.inner.count(limits)


def pack_alphabet(r3, embed, k, q3, init3, final3):
    """Stage 4: append the unary relabeling taking the stage-3 finalization
    onto the F3^k grid, then reinterpret symbols as k-tuples over A3.

    The relabeling is constructed explicitly and checked against the set of
    symbols reachable before it: reachable finals land in F3^k, every other
    reachable symbol stays out.
    """
    q2 = q3 ** k
    if r3.q != q2:
        raise CircuitError("stage-3 alphabet does not match the packing")
    f3k = sorted(encode_word(w, q3) for w in itertools.product(final3, repeat=k))
    f2 = sorted(r3.final)
    if len(f2) != len(f3k):
        raise CircuitError("stage-3 finalization size mismatch")
    reachable_final = set(embed.f_images)
    reachable_other = set(r3.init) | {embed.psi[2], embed.psi[3],
                                      embed.psi[0], embed.psi[1]}
    reachable_other -= reachable_final
    sigma = list(range(q2))
    # pair F2 with the F3^k grid by transpositions
    for a, b in zip(f2, f3k):
        if sigma[a] != b:
            i = sigma.index(a)
            j = sigma.index(b)
            sigma[i], sigma[j] = sigma[j], sigma[i]
    # verify reachability safety, then fix parity on untouched symbols
    if perms.perm_parity(sigma) == 1:
        free = [s for s in range(q2)
                if sigma[s] == s and s not in reachable_final
                and s not in reachable_other and s not in f3k]
        if len(free) < 2:
            raise CircuitError("no room to evenize the packing relabeling")
        sigma[free[0]], sigma[free[1]] = sigma[free[1]], sigma[free[0]]
    image_final = {sigma[s] for s in reachable_final}
    if not image_final <= set(f3k):
        raise CircuitError("packing relabeling misses the final grid")
    bad = {sigma[s] for s in reachable_other} & set(f3k)
    if bad:
        raise CircuitError("packing relabeling leaks %r into the final grid"
                           % sorted(bad))
    inst = RsatIF(q2, r3.width, r3.init, tuple(f3k),
                  list(r3.gates))
    for s in range(r3.width):
        inst.add_gate((s,), tuple(sigma))
    return PackedRsat4(inst, k, q3, tuple(init3), tuple(final3))


# -- pipeline driver -----------------------------------------------------------------------


@dataclass
class PipelineReport:
    csat: int
    rsat1: int
    rsat2: int
    rsat3: int
    rsat4: int
    ok: bool = False

    def stage_counts(self):
        return [self.csat, self.rsat1, self.rsat2, self.rsat3, self.rsat4]


def reduce_pipeline(bc, q3=4, init3=(0, 1), final3=(2, 3)):
    """Run stages 1..4 and return all intermediate instances."""
    k, q2, i2, f3k = pack_parameters(q3, init3, final3)
    # the stage-3 finalization is the F3^k grid when disjoint from I2;
    # otherwise pick the first free symbols
    i2set = set(i2)
    if not (set(f3k) & i2set):
        f2 = f3k
    else:
        f2 = tuple(sorted(set(range(q2)) - i2set))[:len(f3k)]
    r1 = dilate_to_reversible(bc)
    r2 = uncompute_wrap(r1)
    r3, embed = regroup_embed(r2, q2, i2, f2)
    r4 = pack_alphabet(r3, embed, k, q3, init3, final3)
    return r1, r2, r3, r4


def verify_parsimony(bc, q3=4, init3=(0, 1), final3=(2, 3),
                     limits=DEFAULT_LIMITS):
    """Count-preservation report across the reduction stages."""
    r1, r2, r3, r4 = reduce_pipeline(bc, q3, init3, final3)
    c0 = bc.count_sat(limits)
    c1 = r1.count(limits)
    c2 = r2.count(limits)
    c3 = r3.count(limits)
    c4 = r4.count(limits)
    rep = PipelineReport(c0, c1, c2, c3, c4)
    rep.ok = (c0 == c1 == c2 == c3 == c4)
    return rep
