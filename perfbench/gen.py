"""Seeded input generators for the benchmark.

Everything here is plain data (strings, tuples, lists) built from a
`random.Random`, so the same seed always gives the same inputs.  Nothing
imports the package under test; the workloads turn these values into
package objects or files during set-up.
"""

GROUP_GENS = {
    # name: (degree, generators in cycle notation)
    "S3": (3, ["(0 1)", "(0 1 2)"]),
    "A4": (4, ["(0 1 2)", "(0 1)(2 3)"]),
    "S4": (4, ["(0 1)", "(0 1 2 3)"]),
    "A5": (5, ["(0 1 2)", "(0 1 2 3 4)"]),
}

# |Aut(G)|, known independently of the package: Aut(S3) = S3,
# Aut(A4) = Aut(S4) = Aut(SL(2,3)) = S4, Aut(A5) = S5.
AUT_ORDER = {"S3": 6, "A4": 24, "S4": 24, "SL23": 24, "A5": 120}

# README mapping-class generator names at genus 2
GENUS2_NAMES = ["ta1", "tb1", "ta2", "tb2", "chain1", "sep1", "swap1"]

LETTERS = ["x1", "X1", "x2", "X2"]


def _sl23_gens():
    """SL(2,3) acting on the eight non-zero vectors of F_3^2, generated by
    [[1,1],[0,1]] and [[0,-1],[1,0]]."""
    vecs = [(x, y) for x in range(3) for y in range(3) if (x, y) != (0, 0)]
    index = {v: i for i, v in enumerate(vecs)}

    def image(m):
        return tuple(index[((m[0][0] * x + m[0][1] * y) % 3,
                            (m[1][0] * x + m[1][1] * y) % 3)] for x, y in vecs)

    return [image(((1, 1), (0, 1))), image(((0, 2), (1, 0)))]


def cycles_of(p):
    """Cycle notation of an image tuple; identity is "()"."""
    seen, parts = set(), []
    for i in range(len(p)):
        if i in seen or p[i] == i:
            continue
        cyc, j = [i], p[i]
        seen.add(i)
        while j != i:
            seen.add(j)
            cyc.append(j)
            j = p[j]
        parts.append("(" + " ".join(map(str, cyc)) + ")")
    return "".join(parts) or "()"


def parse_cycles(text, degree):
    p = list(range(degree))
    for body in text.replace(")", "").split("(")[1:]:
        pts = [int(t) for t in body.split()]
        for a, b in zip(pts, pts[1:] + pts[:1]):
            p[a] = b
    return tuple(p)


def group_perms(name):
    """Generator image tuples of a named benchmark group."""
    if name == "SL23":
        return _sl23_gens()
    degree, cycles = GROUP_GENS[name]
    return [parse_cycles(c, degree) for c in cycles]


def group_file_text(name, order):
    lines = ["group %s %d" % (name, order), "perm-gens"]
    lines += [cycles_of(p) for p in group_perms(name)]
    return "\n".join(lines) + "\n"


def presentation(rng, n_rels=2, min_len=4, max_len=8):
    """Two-generator presentation as a list of relator strings."""
    return [" ".join(rng.choice(LETTERS)
                     for _ in range(rng.randint(min_len, max_len)))
            for _ in range(n_rels)]


def presentation_text(rels):
    return "gens 2\n" + "\n".join(rels) + "\n"


def relator_letters(rel):
    """Relator string -> signed generator indices (x2 -> 2, X2 -> -2)."""
    return [int(t[1:]) if t[0] == "x" else -int(t[1:]) for t in rel.split()]


def genus2_word(rng, length=10):
    """Random word over the genus-2 generators; a fixed length keeps the
    cost of scoring it (proportional to the length) the same across seeds."""
    return [rng.choice(GENUS2_NAMES) + rng.choice(["", "'"])
            for _ in range(length)]


def inverse_word(word):
    return [n[:-1] if n.endswith("'") else n + "'" for n in reversed(word)]


def gluing_text(genus, word):
    return "genus %d\nword %s\n" % (genus, " ".join(word))


def lens_word(k):
    return ["tb1"] * k


def two_complex(rng, min_v=4, max_v=6, max_tris=4):
    """(nvertices, maximal simplices) of a connected random 2-complex:
    random triangles and edges plus a spanning path."""
    nv = rng.randint(min_v, max_v)
    tris = {tuple(sorted(rng.sample(range(nv), 3)))
            for _ in range(rng.randint(2, max_tris))}
    edges = {tuple(sorted(rng.sample(range(nv), 2)))
             for _ in range(rng.randint(0, 2))}
    spine = [(i, i + 1) for i in range(nv - 1)]
    return nv, sorted(tris) + sorted(edges) + spine


def stage3_width(n_inputs, gates, output):
    """Width of the pair-symbol stage of the reduction for a Boolean
    circuit: one symbol per variable or ancilla pair, where every gate owns
    one ancilla and an output that is an input or a forwarded COPY output
    needs one more."""
    needs_copy = output < n_inputs or any(
        op == "COPY" and outs[0] == output for op, _, outs in gates)
    return max(n_inputs, len(gates) + (1 if needs_copy else 0) + 1)


def boolean_circuit(rng, width, min_inputs=1, max_inputs=4,
                    min_gates=3, max_gates=5):
    """Random AND/OR/NOT/COPY circuit (n_inputs, gates, output) whose
    stage-3 width equals `width`, by rejection."""
    while True:
        n = rng.randint(min_inputs, max_inputs)
        gates, nodes = [], n
        for _ in range(rng.randint(min_gates, max_gates)):
            op = rng.choice(["AND", "OR", "NOT", "COPY"])
            if op in ("AND", "OR"):
                ins, outs = (rng.randrange(nodes), rng.randrange(nodes)), (nodes,)
            elif op == "NOT":
                ins, outs = (rng.randrange(nodes),), (nodes,)
            else:
                ins, outs = (rng.randrange(nodes),), (nodes, nodes + 1)
            nodes += len(outs)
            gates.append((op, ins, outs))
        output = rng.randrange(nodes)
        if stage3_width(n, gates, output) == width:
            return n, gates, output


def data_gate(rng, nd, i_orb, f_orb, density=0.5):
    """Permutation of the squared data alphabet that moves a random set of
    initialization words onto finalization words, composed with an
    occasional random transposition."""
    perm = list(range(nd * nd))
    iwords = [(a, b) for a in i_orb for b in i_orb]
    fwords = [(a, b) for a in f_orb for b in f_orb]
    rng.shuffle(fwords)
    chosen = [w for w in iwords if rng.random() < density]
    for (a, b), (c, d) in zip(chosen, fwords):
        s, t = a * nd + b, c * nd + d
        perm[s], perm[t] = perm[t], perm[s]
    if rng.random() < 0.3:
        s, t = rng.sample(range(nd * nd), 2)
        perm[s], perm[t] = perm[t], perm[s]
    return tuple(perm)
