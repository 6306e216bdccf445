"""Surface-group representation sets, Schur invariants via stem extensions,
mapping-class generator actions, orbit exploration, and Heegaard counting.

A genus-g representation is a 2g-tuple (a1, b1, ..., ag, bg) of group element
ids satisfying prod [ai, bi] = 1.  Generator substitution rules are written
against an abstract (mul, inv) interface, realized twice: on integer
homology vectors (abelianized), and on columns of element ids, one row per
tuple (an Aut(G)-class of Heegaard tuples, or a class the orbit walk
visits).  Single tuples run the same rules through the group's own mul and
inv.
"""

from dataclasses import dataclass
from itertools import chain
from operator import add, itemgetter, neg

from .groups import (GroupError, automorphism_group, automorphisms,
                     close_under_product, conjugation_rows, coset_min_reps,
                     subgroup_membership_masks)
from .counting import WorkBoundExceeded, DEFAULT_LIMITS, quotient_count
from .textformat import content_lines, keyword_int

# the largest genus a gluing file may declare: the homology of the glued
# manifold is a Smith normal form of a 2g x 2g matrix, cubic in g (about
# 0.4 s at this bound and 4 s at twice it on a 2 vCPU machine); also the
# largest an orbit walk or a sampler takes, as each of the 5g - 3 steps
# rewrites 2g entries (the trivial seed's walk over S3 takes 7 s at genus
# 1000)
MAX_GENUS = 128


class SurfaceError(ValueError):
    pass


def _check_genus(g, bound=None):
    if g < 0:
        raise SurfaceError("genus must be non-negative, got %d" % g)
    if bound is not None and g > bound:
        raise SurfaceError("genus %d exceeds bound %d" % (g, bound))


def commutator(a, b, mul, inv):
    """[a, b] = a b a^-1 b^-1 through the (mul, inv) interface."""
    return mul(mul(a, b), mul(inv(a), inv(b)))


def relator(tup, mul, inv, one):
    """prod [a_i, b_i] over the handles of a tuple (or of a prefix of whole
    handles) through the (mul, inv) interface, starting from one."""
    acc = one
    for i in range(0, len(tup), 2):
        acc = mul(acc, commutator(tup[i], tup[i + 1], mul, inv))
    return acc


def surface_relator(G, tup):
    return relator(tup, G.mul, G.inv, 0)


def surface_relation_holds(G, tup):
    return surface_relator(G, tup) == 0


def commutator_solutions(G):
    """sols[c] = the pairs (a, b) with [a, b] = c, in (a, b) order."""
    sols = [[] for _ in G.elements()]
    for a in G.elements():
        for b in G.elements():
            sols[G.comm(a, b)].append((a, b))
    return sols


def commutator_table(G):
    """N[c] = number of pairs (a, b) with [a, b] = c."""
    return [len(pairs) for pairs in commutator_solutions(G)]


def generation_test(G):
    """generates(tup): whether the entries of tup generate G, read off the
    subgroup-lattice membership masks."""
    masks, full_bit = subgroup_membership_masks(G)

    def generates(tup):
        acc = -1
        for x in tup:
            acc &= masks[x]
        return acc == full_bit
    return generates


def count_reps(g, G):
    """|R^_g(G)| by convolving the commutator-count table g times."""
    _check_genus(g)
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


class RepSampler:
    """Draws valid genus-g tuples: uniform prefix, then a random solution of
    the surface relation in the last handle (valid, not exactly uniform)."""

    def __init__(self, g, G):
        _check_genus(g, MAX_GENUS)
        self.g, self.G = g, G
        self.sols = commutator_solutions(G)

    def draw(self, rng):
        G, g = self.G, self.g
        if g == 0:
            return ()
        while True:
            prefix = tuple(rng.randrange(G.order) for _ in range(2 * g - 2))
            sols = self.sols[G.inv(surface_relator(G, prefix))]
            if sols:
                a, b = sols[rng.randrange(len(sols))]
                return prefix + (a, b)


# -- Schur invariant ----------------------------------------------------------------


def schur_invariant(tup, G, ext, rng=None):
    """The Schur invariant of a surface tuple as a central element id of the
    stem extension's kernel.

    Lifts every entry arbitrarily to the cover and multiplies the lifted
    commutators; for a perfect target the result is independent of lifts.
    """
    if not G.is_perfect():
        raise GroupError("Schur invariant requires a perfect target group")
    if not surface_relation_holds(G, tup):
        raise SurfaceError("tuple violates the surface relation")
    C, lifts = ext.cover, ext.lifts
    if rng is None:
        lift = {x: lifts[x][0] for x in set(tup)}
    else:
        lift = {x: lifts[x][rng.randrange(len(lifts[x]))] for x in set(tup)}
    acc = surface_relator(C, [lift[x] for x in tup])
    if acc not in ext.center:
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


def _rule_pair(body):
    """A rule and its inverse rule from one body(t, mul, inv, flip), where
    flip is the single inversion that tells them apart."""
    return (lambda t, mul, inv: body(t, mul, inv, lambda x: x),
            lambda t, mul, inv: body(t, mul, inv, inv))


def _handle_twist(i, g, kind):
    """Twists supported on handle i, each multiplying one slot on the right
    by the other: ta is (a, b) -> (a, b a) and tb is (a, b) -> (a b, b)."""
    dst, src = (2 * i + 1, 2 * i) if kind == "a" else (2 * i, 2 * i + 1)

    def body(t, mul, inv, flip):
        out = list(t)
        out[dst] = mul(t[dst], flip(t[src]))
        return tuple(out)

    return MCGGenerator("t%s%d" % (kind, i + 1), *_rule_pair(body))


def _separating_twist(i, g):
    """Twist along the separating curve after handle i: conjugates handles
    1..i by the accumulated relator prefix (by its inverse to undo)."""
    def body(t, mul, inv, flip):
        u = flip(relator(t[2:2 * i + 2], mul, inv,
                         commutator(t[0], t[1], mul, inv)))
        v = inv(u)
        out = list(t)
        for j in range(i + 1):
            out[2 * j] = mul(mul(u, t[2 * j]), v)
            out[2 * j + 1] = mul(mul(u, t[2 * j + 1]), v)
        return tuple(out)

    return MCGGenerator("sep%d" % (i + 1), *_rule_pair(body))


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
        w = commutator(a, b, mul, inv)
        v = inv(w)
        out = list(t)
        out[2 * i] = mul(mul(w, c), v)
        out[2 * i + 1] = mul(mul(w, d), v)
        out[2 * i + 2] = a
        out[2 * i + 3] = b
        return tuple(out)

    def unrule(t, mul, inv):
        c2, d2 = t[2 * i], t[2 * i + 1]
        a, b = t[2 * i + 2], t[2 * i + 3]
        w = commutator(a, b, mul, inv)
        v = inv(w)
        out = list(t)
        out[2 * i] = a
        out[2 * i + 1] = b
        out[2 * i + 2] = mul(mul(v, c2), w)
        out[2 * i + 3] = mul(mul(v, d2), w)
        return tuple(out)

    return MCGGenerator("swap%d" % (i + 1), rule, unrule)


def standard_generators(g):
    """The package's mapping-class generator set for genus g."""
    gens = [_handle_twist(i, g, kind) for i in range(g) for kind in "ab"]
    for i in range(g - 1):
        gens.append(_chain_twist(i, g))
        gens.append(_separating_twist(i, g))
        gens.append(_handle_swap(i, g))
    return gens


def generators_by_name(g):
    return {gen.name: gen for gen in standard_generators(g)}


# -- words -----------------------------------------------------------------------------


def resolve_word(word, g):
    """Resolve a word of generator names (a trailing ' means inverse) into
    (generator, inverted) letters; an unknown name is reported as written."""
    table = generators_by_name(g)
    letters = []
    for name in word:
        inverted = name.endswith("'")
        gen = table.get(name[:-1] if inverted else name)
        if gen is None:
            raise SurfaceError("unknown mapping class generator %r" % name)
        letters.append((gen, inverted))
    return letters


def inverse_word(letters):
    """The resolved letters of the inverse mapping class."""
    return [(gen, not inverted) for gen, inverted in reversed(letters)]


def run_word(letters, tup, mul, inv):
    """Apply resolved letters in order through the (mul, inv) interface."""
    for gen, inverted in letters:
        tup = (gen.inverse_rule if inverted else gen.rule)(tup, mul, inv)
    return tup


def _column_ops(G):
    """The (mul, inv) interface over columns: lists of element ids, combined
    entry by entry, so one rule run acts on every row of the columns."""
    rows, inverse = G.rows, G._inv

    def mul(xs, ys):
        return [rows[x][y] for x, y in zip(xs, ys)]

    def inv(xs):
        return [inverse[x] for x in xs]
    return mul, inv


def mcg_apply(word, G, tup):
    """Apply a word of generator names (trailing ' means inverse)."""
    tup = tuple(tup)
    if len(tup) % 2:
        raise SurfaceError("tuple has odd length %d" % len(tup))
    for x in tup:
        if x not in range(G.order):
            raise SurfaceError("tuple entry %r is not an element of %s"
                               % (x, G.name))
    letters = resolve_word(word, len(tup) // 2)
    out = run_word(letters, tup, G.mul, G.inv)
    if surface_relator(G, out) != 0:
        raise SurfaceError("generator broke the surface relation")
    return out


def _abelian_vector_ops(g):
    """Formal Z^(2g) realization of the (mul, inv) interface: elements are
    integer vectors, multiplication adds them."""
    def mul(x, y):
        return tuple(map(add, x, y))

    def inv(x):
        return tuple(map(neg, x))

    return mul, inv


def _h1_matrix(letters, g):
    mul, inv = _abelian_vector_ops(g)
    tup = tuple(tuple(1 if i == k else 0 for i in range(2 * g))
                for k in range(2 * g))
    return [list(v) for v in run_word(letters, tup, mul, inv)]


def word_h1_matrix(word, g):
    """Induced action of a generator word on H_1(Sigma_g) = Z^(2g).

    The word is applied to the tuple of formal basis vectors with abelian
    vector operations, so row k of the result is the image of basis vector k.
    """
    return _h1_matrix(resolve_word(word, g), g)


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
    _check_genus(g, MAX_GENUS)
    mat = _h1_matrix(inverse_word(resolve_word(h.word, g)), g)
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


class AutTables:
    """What the orbit walk needs of Aut(G) beyond automorphism_group(G): the
    ids of the inner automorphisms, and for each element x those sending x
    to its least image (at most 8 of 120 for A5 when x is not 0)."""

    def __init__(self, G):
        self.auts = auts = automorphism_group(G).maps
        inner = set(G.cached(conjugation_rows))
        self.inner = [k for k, phi in enumerate(auts) if phi in inner]
        self.candidates = []    # x -> (ids, automorphisms)
        for x in G.elements():
            least = min(phi[x] for phi in auts)
            ks = [k for k, phi in enumerate(auts) if phi[x] == least]
            self.candidates.append((ks, [auts[k] for k in ks]))

    def image(self, k, tup):
        """auts[k] applied to each entry of tup."""
        return tuple(map(self.auts[k].__getitem__, tup))

    def canonical(self, tup):
        """(r, k): the least image r of tup under Aut(G) and the least id
        k with auts[k](tup) == r.  The least image fixes the leading
        identity entries and sends the first other entry x to its least
        image, so only x's candidates compete; a tuple of identities is its
        own class."""
        for x in tup:
            if x:
                break
        else:
            return tup, 0
        ks, phis = self.candidates[x]
        images = list(map(itemgetter(*tup), phis))  # 2g >= 2 entries: tuples
        least = min(images)
        return least, ks[images.index(least)]


# Why the class walk is exact.
#
# Steps commute with Aut(G).  A step's rule combines its inputs only through
# mul and inv, so each entry of a step's output is a word w in the entries
# of its input, and phi(w(t)) = w(phi(t)) for every automorphism phi.  Run
# over columns, a rule acts on each row as on that tuple alone, because the
# column mul and inv act entry by entry.  Hence M, the group the steps
# generate (each step permutes the finite set of genus-g tuples, so the
# forward closure O of a seed is its M-orbit), permutes the Aut-classes, and
# phi(O) is the M-orbit of phi(seed).
#
# Classes of O.  Let S = {phi : phi(O) = O}.  If t and phi(t) both lie in
# O, then phi(O) meets O, so phi(O) = O and phi is in S.  So an Aut-class
# meets O in exactly S.t for any t of it.  If t = m(seed) with m in M, then
# phi(t) = t iff phi(seed) = seed, so every t in O has stabilizer
# Stab(seed), and |O| = K.|S|/|Stab(seed)| for the K classes that meet O.
# phi(seed) lies in O iff phi is in S, so O is closed under Aut iff S = Aut.
#
# S from the walk (Schreier's lemma).  Class r keeps a tuple t_r of O and
# psi_r with psi_r(t_r) = r; the seed's class keeps the seed.  Each step s
# is applied once to each t_r; if canonical(s(t_r)) = (r', chi), then
# tau = psi_r'^-1 chi sends s(t_r) to t_r', so tau is in S, and tau = 1
# where the edge recorded r' itself.  Conversely let phi be in S and write
# phi(seed) = s_n ... s_1(seed), with u_0 = seed and u_j = s_j(u_j-1).
# Suppose u_j-1 = a(t_r) with a in <twists> (a = 1 at j = 1).  Steps commute
# with a, so u_j = a(s_j(t_r)) = a tau^-1 (t_r') for the edge (r, s_j), and
# a tau^-1 is in <twists>.  By induction phi(seed) = u_n = a(t_r'), where r'
# is the seed's own class because phi(seed) is an Aut-image of the seed, so
# t_r' = seed, a^-1 phi fixes the seed, and S = <twists, Stab(seed)>.
#
# A later seed lies in O iff it is in S.t_r for its class r: with
# canonical(seed') = (r, chi) and seed' = chi^-1 psi_r (t_r), that holds
# iff chi^-1 psi_r is in S.
#
# Schur classes.  For a tuple satisfying the surface relation the lifted
# relator R is central.  Conjugating every lift by a lift h of g conjugates
# R by h, which fixes it; any other choice of lifts multiplies each by a
# central element, which cancels in the commutators.  So R is constant on
# the Inn(G)-orbits of such tuples.  The tuples of O in class r are S.t_r,
# and each of them is an inner image of w(t_r) for the w picked from its
# Inn(G)-coset (Inn(G) is normal), so evaluating R on w(t_r) for those w
# sees every value R takes on O.  A tuple that breaks the surface relation
# breaks it on its whole Aut-class, so such a tuple is found as well.


def orbit_report(seeds, G, g, ext=None, limits=DEFAULT_LIMITS):
    """Orbit decomposition of seed tuples under the mapping classes the
    generator set generates, with per-orbit surjectivity, Schur class, and
    Aut-closure flags.

    Walks Aut(G)-classes, not tuples: mapping-class steps commute with
    automorphisms, so the walk visits one tuple per class of the orbit and
    records, for each edge that lands on a known class, the automorphism
    (twist) relating the two tuples of that class.  The twists and the
    seed's stabilizer generate S, the automorphisms fixing the orbit, which
    gives its exact size (classes times |S| over the seed's stabilizer) and
    its Aut-closure (S is all of Aut(G)).  The Schur class is constant on
    inner-automorphism images, so the relator is lifted once per class and
    per coset of Inn(G) that S meets; surjectivity is tested once per class.
    The comment above this function proves these steps.

    Orbits are closed under the forward generator steps only.  A step
    permutes the finite set of genus-g tuples, so its inverse is one of its
    powers, and the forward closure of a seed is its whole group orbit.
    Every tuple of every orbit, a seed's own included, counts toward
    limits.max_states: the walk stops when its class count alone exceeds
    the room left, and the exact orbit size is checked against it after
    the walk.
    """
    _check_genus(g, MAX_GENUS)
    gens = standard_generators(g)
    aut = G.cached(AutTables)
    # A.mul(a, b) applies a, then b: the map b o a of the comment above
    A = automorphism_group(G)
    surjective = generation_test(G)
    mul, inv = _column_ops(G)
    if ext is not None:
        cover_mul, cover_inv = _column_ops(ext.cover)
        inner_rep = coset_min_reps(A, aut.inner)
        lift = [ext.lifts[x][0] for x in G.elements()].__getitem__

    known = {}          # class -> [(row, psi_r)] over the orbits so far
    stabilizers = []    # S of each row's orbit, as a set
    visited = 0
    rows = []
    for seed in seeds:
        seed = tuple(seed)
        if len(seed) != 2 * g:
            raise SurfaceError("seed has %d entries, genus %d needs %d"
                               % (len(seed), g, 2 * g))
        if not surface_relation_holds(G, seed):
            raise SurfaceError("seed violates the surface relation")
        rep, chi = aut.canonical(seed)
        if any(A.mul(psi, A.inv(chi)) in stabilizers[i]
               for i, psi in known.get(rep, ())):
            continue
        room = limits.max_states - visited
        classes = {rep: 0}
        records = [(seed, chi)]     # (t_r, psi_r) with psi_r(t_r) = r
        twists = set()              # (psi_r', chi) of edges onto known classes
        done = 0
        while done < len(records):
            # one BFS level: every step runs once over the level's columns,
            # then the tuples are visited in record order
            level = [t for t, _ in records[done:]]
            done = len(records)
            columns = tuple(map(list, zip(*level)))
            steps = [list(zip(*gen.rule(columns, mul, inv))) for gen in gens]
            for i in range(len(level)):
                if len(records) > room:
                    raise WorkBoundExceeded("orbit memory bound hit")
                for step in steps:
                    nxt = step[i]
                    r, chi = aut.canonical(nxt)
                    j = classes.get(r)
                    if j is None:
                        classes[r] = len(records)
                        records.append((nxt, chi))
                    elif records[j][1] != chi:
                        twists.add((records[j][1], chi))
        stab = [k for k in A.elements() if aut.image(k, seed) == seed]
        S = close_under_product(A, chain(stab, (A.mul(chi, A.inv(psi))
                                                for psi, chi in twists)))
        size = len(records) * len(S) // len(stab)
        if size > room:
            raise WorkBoundExceeded("orbit memory bound hit")
        visited += size
        surj = surjective(seed)
        sch = schur_invariant(seed, G, ext) if (ext is not None
                                                and surj) else -1
        if ext is not None and surj:
            # schur_invariant(u, G, ext) for one u per Inn-class of the
            # surjective tuples of the orbit, as one relator over columns of
            # first lifts to the cover; w is the least member of S in each
            # coset of Inn(G) that S meets
            cosets = {inner_rep[w]: w for w in reversed(S)}
            us = [aut.image(w, t) for t, _ in records if surjective(t)
                  for w in cosets.values()]
            values = relator([list(map(lift, col)) for col in zip(*us)],
                             cover_mul, cover_inv, [0] * len(us))
            for u, acc in zip(us, values):
                if acc not in ext.center:
                    schur_invariant(u, G, ext)  # raises typed error
            if len(set(values)) > 1:
                raise SurfaceError("orbit mixes Schur classes")
        for r, j in classes.items():
            known.setdefault(r, []).append((len(rows), records[j][1]))
        stabilizers.append(frozenset(S))
        rows.append(OrbitRow(size, sch, surj, len(S) == A.order, seed))
    return OrbitReport(g, rows, visited)


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

    def __post_init__(self):
        _check_genus(self.genus)

    def is_torelli(self):
        return is_torelli_word(self.word, self.genus)


def parse_gluing_text(text):
    lines = content_lines(text) or [""]
    g = keyword_int(lines[0], "genus", SurfaceError, MAX_GENUS)
    word = []
    for ln in lines[1:]:
        key, *names = ln.split()
        if key != "word":
            raise SurfaceError("expected 'word <names>' line, got %r" % ln)
        word.extend(names)
    return HeegaardGluing(g, word)


def load_gluing(path):
    with open(path) as fh:
        return parse_gluing_text(fh.read())


# Why counting per Aut(G)-class is exact.
#
# Each letter of the pulled-back word W is a (mul, inv) rule, so each entry
# of W(t) is a word in the entries of t, and W(phi(t)) = phi(W(t)) for every
# automorphism phi.  With t = (1, b1, .., 1, bg), phi(t) = (1, phi(b1), ..,
# 1, phi(bg)), and phi fixes 1, so the a-slots of W(phi(t)) are trivial iff
# those of W(t) are, and the relator of W(phi(t)) is phi of the relator of
# W(t), trivial iff that one is.  phi(b1), .., phi(bg) generate G iff b1, ..,
# bg do.  So every test is constant on the Aut-class of (b1, .., bg), and
# each count is the sum of the sizes of the classes whose representative
# passes.
#
# The classes.  Every tuple of a class is phi(r) for its least tuple r.
# The first entry of phi(r) is in the Aut-orbit of r1, and it is r1 exactly
# when phi fixes r1; then the rest is phi(r2, .., rg) with phi in Stab(r1).
# So r1 is the least point of its Aut-orbit, r2 the least point of its
# Stab(r1)-orbit, and so on: taking the least point of each orbit of the
# prefix's stabilizer, level by level, gives each class exactly once, by
# its least tuple.  The class has |Aut|/|Stab(r1, .., rg)| tuples, which
# telescopes into the product of the orbit lengths along the chain, since
# the orbit of rk under Stab(r1, .., rk-1) has |Stab(r1, .., rk-1)| /
# |Stab(r1, .., rk)| points.


def _aut_class_memo(G):
    """genus -> aut_classes(G, genus), filled by aut_classes."""
    return {}


def aut_classes(G, g):
    """(r, size) for each Aut(G)-class of G^g: r is the class's least tuple
    and size its number of tuples.  The comment above proves it.

    Memoised per genus in G.cached as a tuple of (r, size) tuples, so the
    counts over one group build each genus's classes once.  MAX_GENUS
    bounds the memo at MAX_GENUS + 1 genera; heegaard_count's enumeration
    budget, checked before it asks, bounds the size of each."""
    _check_genus(g, MAX_GENUS)
    memo = G.cached(_aut_class_memo)
    if g in memo:
        return memo[g]
    # (r, the stabilizer of r minus its last entry, size): a stabilizer is
    # cut down only when a further level needs it
    classes = [((), automorphisms(G), 1)]
    for _ in range(g):
        nxt = []
        for rep, stab, size in classes:
            if rep:
                stab = [phi for phi in stab if phi[rep[-1]] == rep[-1]]
            seen = set()
            for x, images in enumerate(zip(*stab)):     # x under each of stab
                if x not in seen:
                    orbit = set(images)
                    seen |= orbit
                    nxt.append((rep + (x,), stab, size * len(orbit)))
        classes = nxt
    memo[g] = tuple((rep, size) for rep, _, size in classes)
    return memo[g]


def heegaard_count(h, G, limits=DEFAULT_LIMITS):
    """#H, surjections and #Q for the manifold glued from two genus-g
    handlebodies along the word's mapping class.

    The initial handlebody kills a1..ag, so the tuples counted are
    (1, b1, ..., 1, bg); the final handlebody's constraint is that the
    pulled-back tuple also has trivial a-slots.  The word is pulled back
    once, over columns holding one entry per Aut(G)-class of (b1, .., bg),
    and each class counts with its size; the comment above proves it.
    """
    g = h.genus
    # an order >= 2 to any power past the budget's bit length exceeds it
    if G.order ** min(g, limits.max_enumeration.bit_length() + 1) \
            > limits.max_enumeration:
        raise WorkBoundExceeded("heegaard enumeration %d^%d over budget"
                                % (G.order, g))
    pull_back = inverse_word(resolve_word(h.word, g))
    classes = aut_classes(G, g)
    mul, inv = _column_ops(G)
    # (1, b1, .., 1, bg) as columns over the class representatives
    one = [0] * len(classes)
    bs = zip(*(rep for rep, _ in classes))
    tup = run_word(pull_back, tuple(x for b in bs for x in (one, list(b))),
                   mul, inv)
    generates = generation_test(G)
    homs = surj = 0
    for (rep, size), rel, *a_slots in zip(classes, relator(tup, mul, inv, one),
                                          *tup[0::2]):
        if rel:
            raise SurfaceError("generator broke the surface relation")
        if not any(a_slots):
            homs += size
            if generates(rep):
                surj += size
    return HomCount(homs, surj, quotient_count(surj, G))
