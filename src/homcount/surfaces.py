"""Surface-group representation sets, Schur invariants via stem extensions,
mapping-class generator actions, orbit exploration, and Heegaard counting.

A genus-g representation is a 2g-tuple (a1, b1, ..., ag, bg) of group element
ids satisfying prod [ai, bi] = 1.  Generator substitution rules are written
against an abstract (mul, inv) interface so the same rule acts on group
tuples and, abelianized, on integer homology vectors.
"""

import random
from dataclasses import dataclass
from .groups import (FiniteGroup, GroupError, StemExtension, automorphisms,
                     close_under_product)
from .counting import WorkBoundExceeded, DEFAULT_LIMITS


class SurfaceError(ValueError):
    pass


def surface_relation_holds(G, tup):
    acc = 0
    for i in range(0, len(tup), 2):
        acc = G.mul(acc, G.comm(tup[i], tup[i + 1]))
    return acc == 0


def commutator_table(G):
    """N[c] = number of pairs (a, b) with [a, b] = c."""
    N = [0] * G.order
    for a in G.elements():
        for b in G.elements():
            N[G.comm(a, b)] += 1
    return N


def count_reps(g, G):
    """|R^_g(G)| by convolving the commutator-count table g times."""
    N = commutator_table(G)
    acc = [0] * G.order
    acc[0] = 1
    for _ in range(g):
        nxt = [0] * G.order
        for c1, n1 in enumerate(acc):
            if n1 == 0:
                continue
            for c2, n2 in enumerate(N):
                if n2:
                    nxt[G.mul(c1, c2)] += n1 * n2
        acc = nxt
    return acc[0]


def enumerate_reps(g, G, filter="all", limits=DEFAULT_LIMITS, ext=None):
    """Yield the genus-g representation tuples passing the filter.

    Enumerates |G|^(2g-2) prefixes and reads the solutions of the surface
    relation in the last handle off a precomputed commutator table.  filter
    is one of "all", "surjective", "schur-zero" (the latter needs a stem
    extension and a perfect target).
    """
    if filter not in ("all", "surjective", "schur-zero"):
        raise SurfaceError("unknown filter %r" % filter)
    if filter == "schur-zero" and ext is None:
        raise SurfaceError("schur-zero filter needs a stem extension")
    if G.order ** (2 * g - 1) > limits.max_enumeration:
        raise WorkBoundExceeded(
            "enumeration %d^%d exceeds budget" % (G.order, 2 * g - 1))
    sols_by_target = {}
    for a in G.elements():
        for b in G.elements():
            sols_by_target.setdefault(G.comm(a, b), []).append((a, b))
    if filter in ("surjective", "schur-zero"):
        from .groups import subgroup_membership_masks
        masks, full_bit = subgroup_membership_masks(G)
    else:
        masks = full_bit = None

    def emit(tup):
        if masks is not None:
            acc = -1
            for x in tup:
                acc &= masks[x]
            if acc != full_bit:
                return None
        if filter == "schur-zero" and schur_invariant(tup, G, ext) != 0:
            return None
        return tup

    def rec(prefix):
        if len(prefix) == 2 * g - 2:
            acc = 0
            for i in range(0, len(prefix), 2):
                acc = G.mul(acc, G.comm(prefix[i], prefix[i + 1]))
            for a, b in sols_by_target.get(G.inv(acc), ()):
                tup = emit(prefix + (a, b))
                if tup is not None:
                    yield tup
            return
        for x in G.elements():
            yield from rec(prefix + (x,))

    yield from rec(())


class RepSampler:
    """Draws valid genus-g tuples: uniform prefix, then a random solution of
    the surface relation in the last handle (valid, not exactly uniform)."""

    def __init__(self, g, G):
        self.g, self.G = g, G
        self.sols_by_target = {}
        for a in G.elements():
            for b in G.elements():
                self.sols_by_target.setdefault(G.comm(a, b), []).append((a, b))

    def draw(self, rng):
        G, g = self.G, self.g
        while True:
            prefix = tuple(rng.randrange(G.order) for _ in range(2 * g - 2))
            acc = 0
            for i in range(0, len(prefix), 2):
                acc = G.mul(acc, G.comm(prefix[i], prefix[i + 1]))
            sols = self.sols_by_target.get(G.inv(acc))
            if sols:
                a, b = sols[rng.randrange(len(sols))]
                return prefix + (a, b)


def random_rep(g, G, rng):
    return RepSampler(g, G).draw(rng)


# -- Schur invariant ----------------------------------------------------------------


def schur_invariant(tup, G, ext, rng=None):
    """The Schur invariant of a surface tuple as a central element id of the
    stem extension's kernel.

    Lifts every entry arbitrarily to the cover and multiplies the lifted
    commutators; for a perfect target the result is independent of lifts.
    """
    cache = getattr(ext, "_schur_cache", None)
    if cache is None or cache[0] is not G:
        if not G.is_perfect():
            raise GroupError("Schur invariant requires a perfect target group")
        preim = {}
        for c in range(ext.cover.order):
            preim.setdefault(ext.projection[c], []).append(c)
        cache = (G, preim, frozenset(ext.center_ids))
        ext._schur_cache = cache
    _, preim, center = cache
    if not surface_relation_holds(G, tup):
        raise SurfaceError("tuple violates the surface relation")
    C = ext.cover
    if rng is None:
        lift = {x: preim[x][0] for x in set(tup)}
    else:
        lift = {x: preim[x][rng.randrange(len(preim[x]))] for x in set(tup)}
    acc = 0
    for i in range(0, len(tup), 2):
        acc = C.mul(acc, C.comm(lift[tup[i]], lift[tup[i + 1]]))
    if acc not in center:
        raise GroupError("lifted relator product escaped the center")
    return acc


# -- mapping class generators ----------------------------------------------------------


@dataclass
class MCGGenerator:
    name: str
    rule: object        # rule(tup, mul, inv) -> tup
    inverse_rule: object

    def apply(self, G, tup):
        return self.rule(tup, G.mul, G.inv)

    def unapply(self, G, tup):
        return self.inverse_rule(tup, G.mul, G.inv)


def _twist_a(i, g):
    """Twist supported on handle i: (a, b) -> (a, b a)."""
    def rule(t, mul, inv):
        out = list(t)
        out[2 * i + 1] = mul(t[2 * i + 1], t[2 * i])
        return tuple(out)

    def unrule(t, mul, inv):
        out = list(t)
        out[2 * i + 1] = mul(t[2 * i + 1], inv(t[2 * i]))
        return tuple(out)

    return MCGGenerator("ta%d" % (i + 1), rule, unrule)


def _twist_b(i, g):
    """Dual twist on handle i: (a, b) -> (a b, b)."""
    def rule(t, mul, inv):
        out = list(t)
        out[2 * i] = mul(t[2 * i], t[2 * i + 1])
        return tuple(out)

    def unrule(t, mul, inv):
        out = list(t)
        out[2 * i] = mul(t[2 * i], inv(t[2 * i + 1]))
        return tuple(out)

    return MCGGenerator("tb%d" % (i + 1), rule, unrule)


def _separating_twist(i, g):
    """Twist along the separating curve after handle i: conjugates handles
    1..i by the accumulated relator prefix."""
    def prefix(t, mul, inv):
        acc = None
        for j in range(i + 1):
            a, b = t[2 * j], t[2 * j + 1]
            c = mul(mul(a, b), mul(inv(a), inv(b)))
            acc = c if acc is None else mul(acc, c)
        return acc

    def rule(t, mul, inv):
        u = prefix(t, mul, inv)
        out = list(t)
        for j in range(i + 1):
            out[2 * j] = mul(mul(u, t[2 * j]), inv(u))
            out[2 * j + 1] = mul(mul(u, t[2 * j + 1]), inv(u))
        return tuple(out)

    def unrule(t, mul, inv):
        u = inv(prefix(t, mul, inv))
        out = list(t)
        for j in range(i + 1):
            out[2 * j] = mul(mul(u, t[2 * j]), inv(u))
            out[2 * j + 1] = mul(mul(u, t[2 * j + 1]), inv(u))
        return tuple(out)

    return MCGGenerator("sep%d" % (i + 1), rule, unrule)


_CHAIN_FWD = ((1,), (-3, 2, 1), (-3, 2, 1, -2, 3, 2, -1, -2, 3),
              (4, 2, -1, -2, 3))
_CHAIN_INV = ((1,), (2, -1, -2, 3, 2), (2, -1, -2, 3, 2, 1, -2),
              (4, -3, 2, 1, -2))


def _chain_twist(i, g):
    """Twist along the chain curve joining handles i and i+1.

    The substitution (a fixed point of the relator word: checked exactly in
    the free group) couples the two handles; its homology action is the
    transvection missing from the per-handle twists.
    """
    base = 2 * i

    def make(program):
        def act(t, mul, inv):
            window = t[base:base + 4]
            out = list(t)
            for slot, word in enumerate(program):
                acc = None
                for letter in word:
                    x = window[abs(letter) - 1]
                    if letter < 0:
                        x = inv(x)
                    acc = x if acc is None else mul(acc, x)
                out[base + slot] = acc
            return tuple(out)
        return act

    return MCGGenerator("chain%d" % (i + 1), make(_CHAIN_FWD),
                        make(_CHAIN_INV))


def _handle_swap(i, g):
    """Swap handles i and i+1; the first handle is conjugated by its own
    relator contribution so the surface relation survives."""
    def rule(t, mul, inv):
        a, b = t[2 * i], t[2 * i + 1]
        c, d = t[2 * i + 2], t[2 * i + 3]
        w = mul(mul(a, b), mul(inv(a), inv(b)))
        out = list(t)
        out[2 * i] = mul(mul(w, c), inv(w))
        out[2 * i + 1] = mul(mul(w, d), inv(w))
        out[2 * i + 2] = a
        out[2 * i + 3] = b
        return tuple(out)

    def unrule(t, mul, inv):
        c2, d2 = t[2 * i], t[2 * i + 1]
        a, b = t[2 * i + 2], t[2 * i + 3]
        w = mul(mul(a, b), mul(inv(a), inv(b)))
        out = list(t)
        out[2 * i] = a
        out[2 * i + 1] = b
        out[2 * i + 2] = mul(mul(inv(w), c2), w)
        out[2 * i + 3] = mul(mul(inv(w), d2), w)
        return tuple(out)

    return MCGGenerator("swap%d" % (i + 1), rule, unrule)


_GEN_CACHE = {}


def standard_generators(g):
    """The package's mapping-class generator set for genus g."""
    if g not in _GEN_CACHE:
        gens = []
        for i in range(g):
            gens.append(_twist_a(i, g))
            gens.append(_twist_b(i, g))
        for i in range(g - 1):
            gens.append(_chain_twist(i, g))
            gens.append(_separating_twist(i, g))
            gens.append(_handle_swap(i, g))
        _GEN_CACHE[g] = (gens, {gen.name: gen for gen in gens})
    return list(_GEN_CACHE[g][0])


def generators_by_name(g):
    standard_generators(g)
    return _GEN_CACHE[g][1]


def mcg_apply(word, G, tup, g=None):
    """Apply a word of generator names (trailing ' means inverse)."""
    if g is None:
        g = len(tup) // 2
    table = generators_by_name(g)
    for name in word:
        invert = name.endswith("'")
        base = name.rstrip("'")
        if base not in table:
            raise SurfaceError("unknown mapping class generator %r" % name)
        gen = table[base]
        tup = gen.unapply(G, tup) if invert else gen.apply(G, tup)
    if not surface_relation_holds(G, tup):
        raise SurfaceError("generator broke the surface relation")
    return tup


def _abelian_vector_ops(g):
    """Formal Z^(2g) realization of the (mul, inv) interface: elements are
    integer vectors, multiplication adds them."""
    def mul(x, y):
        return tuple(a + b for a, b in zip(x, y))

    def inv(x):
        return tuple(-a for a in x)

    return mul, inv


def word_h1_matrix(word, g):
    """Induced action of a generator word on H_1(Sigma_g) = Z^(2g).

    The word is applied to the tuple of formal basis vectors with abelian
    vector operations, so row k of the result is the image of basis vector k.
    """
    mul, inv = _abelian_vector_ops(g)
    tup = tuple(tuple(1 if i == k else 0 for i in range(2 * g))
                for k in range(2 * g))
    table = generators_by_name(g)
    for name in word:
        invert = name.endswith("'")
        base = name.rstrip("'")
        gen = table[base]
        tup = gen.inverse_rule(tup, mul, inv) if invert \
            else gen.rule(tup, mul, inv)
    return [list(v) for v in tup]


def is_torelli_word(word, g):
    """True iff the word acts as the identity on H_1(Sigma_g)."""
    mat = word_h1_matrix(word, g)
    return all(mat[i][j] == (1 if i == j else 0)
               for i in range(2 * g) for j in range(2 * g))


def gluing_h1(h):
    """H_1 of the glued manifold as (betti rank, torsion divisors).

    The manifold's first homology is Z^(2g) modulo the a-curve classes and
    the images of the a-curves under the gluing word; the quotient comes
    from the Smith form of the stacked relation matrix.
    """
    from .complexes import smith_normal_form
    g = h.genus
    mat = word_h1_matrix([n[:-1] if n.endswith("'") else n + "'"
                          for n in reversed(h.word)], g)
    rows = []
    for i in range(g):
        row = [0] * (2 * g)
        row[2 * i] = 1
        rows.append(row)
    for i in range(g):
        rows.append(list(mat[2 * i]))
    diag = smith_normal_form(rows)
    rank = 2 * g - sum(1 for d in diag if d != 0)
    torsion = [d for d in diag if d not in (0, 1)]
    return rank, torsion


def is_homology_sphere_gluing(h):
    rank, torsion = gluing_h1(h)
    return rank == 0 and not torsion


# -- orbit exploration -----------------------------------------------------------------


@dataclass
class OrbitRow:
    size: int
    schur_class: int        # -1 when no extension supplied
    surjective: bool
    aut_closed: bool
    representative: tuple


@dataclass
class OrbitReport:
    genus: int
    rows: list
    visited: int


def orbit_report(seeds, G, g, gens=None, ext=None, max_visited=2_000_000):
    """Breadth-first orbit decomposition of seed tuples under the generator
    set, with per-orbit surjectivity, Schur class, and Aut-closure flags."""
    if gens is None:
        gens = standard_generators(g)
    auts = automorphisms(G)
    from .groups import subgroup_membership_masks
    masks, full_bit = subgroup_membership_masks(G)

    def surjective(tup):
        acc = -1
        for x in tup:
            acc &= masks[x]
        return acc == full_bit

    seen = {}
    rows = []
    for seed in seeds:
        seed = tuple(seed)
        if not surface_relation_holds(G, seed):
            raise SurfaceError("seed violates the surface relation")
        if seed in seen:
            continue
        orbit = {seed}
        frontier = [seed]
        while frontier:
            tup = frontier.pop()
            for gen in gens:
                for nxt in (gen.apply(G, tup), gen.unapply(G, tup)):
                    if nxt not in orbit:
                        orbit.add(nxt)
                        frontier.append(nxt)
                        if len(seen) + len(orbit) > max_visited:
                            raise WorkBoundExceeded("orbit memory bound hit")
        for t in orbit:
            seen[t] = len(rows)
        surj = surjective(seed)
        sch = schur_invariant(seed, G, ext) if (ext is not None
                                                and surj) else -1
        if ext is not None and surj:
            classes = {schur_invariant(t, G, ext) for t in orbit
                       if surjective(t)}
            if len(classes) > 1:
                raise SurfaceError("orbit mixes Schur classes")
        aut_closed = all(tuple(phi[x] for x in seed) in orbit for phi in auts)
        rows.append(OrbitRow(len(orbit), sch, surj, aut_closed, seed))
    return OrbitReport(g, rows, len(seen))


# -- Heegaard counting -----------------------------------------------------------------


@dataclass
class HomCount:
    homs: int
    surjections: int
    quotients: int

    def __post_init__(self):
        if not (self.homs >= self.surjections >= 0):
            raise GroupError("inconsistent homomorphism counts")


@dataclass
class HeegaardGluing:
    genus: int
    word: list

    def is_torelli(self):
        return is_torelli_word(self.word, self.genus)


def parse_gluing_text(text):
    lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    head = lines[0].split() if lines else []
    if len(head) < 2 or not head[0].startswith("genus"):
        raise SurfaceError("gluing file must start with 'genus g'")
    try:
        g = int(head[1])
    except ValueError:
        raise SurfaceError("genus must be an integer, got %r"
                           % head[1]) from None
    word = []
    for ln in lines[1:]:
        if not ln.startswith("word"):
            raise SurfaceError("expected 'word <names>' line")
        word.extend(ln.split()[1:])
    return HeegaardGluing(g, word)


def load_gluing(path):
    with open(path) as fh:
        return parse_gluing_text(fh.read())


def heegaard_count(h, G, limits=DEFAULT_LIMITS):
    """#H, surjections and #Q for the manifold glued from two genus-g
    handlebodies along the word's mapping class.

    The initial handlebody kills a1..ag, so the tuples scanned are
    (1, b1, ..., 1, bg); the final handlebody's constraint is that the
    pulled-back tuple also has trivial a-slots.
    """
    g = h.genus
    if G.order ** g > limits.max_enumeration:
        raise WorkBoundExceeded("heegaard enumeration %d^%d over budget"
                                % (G.order, g))
    inverse_word = [name[:-1] if name.endswith("'") else name + "'"
                    for name in reversed(h.word)]
    from .groups import subgroup_membership_masks
    masks, full_bit = subgroup_membership_masks(G)
    homs = 0
    surj = 0
    bs = [()]
    for _ in range(g):
        bs = [t + (x,) for t in bs for x in G.elements()]
    for bvals in bs:
        tup = ()
        for b in bvals:
            tup += (0, b)
        pulled = mcg_apply(inverse_word, G, tup, g=g)
        if all(pulled[2 * i] == 0 for i in range(g)):
            homs += 1
            acc = -1
            for b in bvals:
                acc &= masks[b]
            if acc == full_bit:
                surj += 1
    naut = len(automorphisms(G))
    if surj % naut != 0:
        raise GroupError("surjection count %d not divisible by |Aut| = %d"
                         % (surj, naut))
    return HomCount(homs, surj, surj // naut)
