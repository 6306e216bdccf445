"""Surface-group representation sets, Schur invariants via stem extensions,
mapping-class generator actions, orbit exploration, and Heegaard counting.

A genus-g representation is a 2g-tuple (a1, b1, ..., ag, bg) of group element
ids satisfying prod [ai, bi] = 1.  Generator substitution rules are written
against an abstract (mul, inv) interface so the same rule acts on integer
homology vectors (abelianized), on columns of element ids (one entry per
Aut(G)-class of Heegaard tuples) and, run once on symbolic slot names,
compiles into a straight-line program over a group's table.
"""

from dataclasses import dataclass
from itertools import chain
from operator import itemgetter

from .groups import GroupError, automorphisms, subgroup_membership_masks
from .counting import WorkBoundExceeded, DEFAULT_LIMITS, quotient_count
from .textformat import content_lines, keyword_int


class SurfaceError(ValueError):
    pass


def _check_genus(g):
    if g < 0:
        raise SurfaceError("genus must be non-negative, got %d" % g)


def relator(tup, mul, inv, one):
    """prod [a_i, b_i] over the handles of a tuple (or of a prefix of whole
    handles) through the (mul, inv) interface, starting from one."""
    acc = one
    for i in range(0, len(tup), 2):
        a, b = tup[i], tup[i + 1]
        acc = mul(acc, mul(mul(a, b), mul(inv(a), inv(b))))
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
        _check_genus(g)
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
        acc = None
        for j in range(i + 1):
            a, b = t[2 * j], t[2 * j + 1]
            c = mul(mul(a, b), mul(inv(a), inv(b)))
            acc = c if acc is None else mul(acc, c)
        u = flip(acc)
        out = list(t)
        for j in range(i + 1):
            out[2 * j] = mul(mul(u, t[2 * j]), inv(u))
            out[2 * j + 1] = mul(mul(u, t[2 * j + 1]), inv(u))
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


# -- words and their straight-line programs ----------------------------------------


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


IDENTITY = "0"      # symbolic name of the identity, also its source text


class _Tracer:
    """The (mul, inv) interface over symbolic names, recording one line of
    a straight-line program per distinct product or inverse.

    Products with the identity and inverses of inverses fold away.  Names
    are the slot names x0.., IDENTITY and the recorded v0..; nothing else is
    accepted, so no text but those names and integers reaches the program
    source.
    """

    def __init__(self, slots):
        self.lines = []
        self.memo = {}          # (x, y) -> name of x*y; x -> name of x^-1
        self.known = set(slots) | {IDENTITY}

    def _check(self, x):
        if x not in self.known:
            raise SurfaceError("generator rule left the (mul, inv) interface")
        return x

    def _record(self, key, expr):
        name = "v%d" % len(self.lines)
        self.lines.append("%s = %s" % (name, expr))
        self.memo[key] = name
        self.known.add(name)
        return name

    def mul(self, x, y):
        if self._check(x) == IDENTITY:
            return self._check(y)
        if self._check(y) == IDENTITY:
            return x
        key = (x, y)
        if key not in self.memo:
            self._record(key, "T[%s][%s]" % key)
        return self.memo[key]

    def inv(self, x):
        if self._check(x) == IDENTITY:
            return x
        if x not in self.memo:
            self.memo[self._record(x, "I[%s]" % x)] = x
        return self.memo[x]

    def relator(self, tup):
        return relator(tup, self.mul, self.inv, IDENTITY)

    def source(self, out):
        if isinstance(out, tuple):
            return "(%s)" % "".join(self.source(x) + ", " for x in out)
        return self._check(out)


def compile_program(G, n_slots, build):
    """Trace build(tracer, slots) once and compile the straight-line function
    it records over the rows of G's table and its inverse list.

    build runs (mul, inv) rules on the slot names and returns a name or a
    nested tuple of names; the function maps n_slots element ids to the
    same structure of element ids.
    """
    slots = tuple("x%d" % k for k in range(n_slots))
    tr = _Tracer(slots)
    ret = tr.source(build(tr, slots))
    src = "def make(T, I):\n def program(%s):\n%s  return %s\n return program\n" \
        % (", ".join(slots), "".join("  %s\n" % ln for ln in tr.lines), ret)
    namespace = {}
    exec(compile(src, "<mapping class program>", "exec"), namespace)
    # popping make leaves no cycle, so the tables go with the program
    return namespace.pop("make")(_table_rows(G), G._inv)


def _table_rows(G):
    """rows[a][b] = a*b: a row lookup allocates no int, a flat a*n + b
    does."""
    n = G.order
    return [G._table[a * n:(a + 1) * n] for a in range(n)]


def generator_steps(G, gens, g):
    """One program for a genus-g tuple's neighbours: each generator's forward
    step, in the order of gens."""
    return compile_program(
        G, 2 * g, lambda tr, t: tuple(gen.rule(t, tr.mul, tr.inv)
                                      for gen in gens))


def mcg_apply(word, G, tup):
    """Apply a word of generator names (trailing ' means inverse)."""
    letters = resolve_word(word, len(tup) // 2)

    def build(tr, slots):
        out = run_word(letters, slots, tr.mul, tr.inv)
        return out, tr.relator(out)

    out, rel = compile_program(G, len(tup), build)(*tup)
    if rel != 0:
        raise SurfaceError("generator broke the surface relation")
    return out


def _abelian_vector_ops(g):
    """Formal Z^(2g) realization of the (mul, inv) interface: elements are
    integer vectors, multiplication adds them."""
    def mul(x, y):
        return tuple(a + b for a, b in zip(x, y))

    def inv(x):
        return tuple(-a for a in x)

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
    """Aut(G) as indices into automorphisms(G), with what the orbit walk
    needs: inverses, the inner automorphisms, and for each element x the
    automorphisms sending x to its least image (at most 8 of 120 for A5
    when x is not the identity)."""

    def __init__(self, G):
        self.auts = auts = automorphisms(G)
        self.index = {phi: k for k, phi in enumerate(auts)}
        self.identity = self.index[tuple(G.elements())]
        self.inverse = []
        for phi in auts:
            inv = [0] * G.order
            for x, y in enumerate(phi):
                inv[y] = x
            self.inverse.append(self.index[tuple(inv)])
        self.inner = sorted({self.index[tuple(G.conj(a, x)
                                              for x in G.elements())]
                             for a in G.elements()})
        self.candidates = []    # x -> (indices, automorphisms)
        for x in G.elements():
            least = min(phi[x] for phi in auts)
            ks = [k for k, phi in enumerate(auts) if phi[x] == least]
            self.candidates.append((ks, [auts[k] for k in ks]))

    def image(self, k, tup):
        """auts[k] applied to each entry of tup."""
        return tuple(map(self.auts[k].__getitem__, tup))

    def compose(self, i, j):
        """The index of auts[i] after auts[j]."""
        return self.index[self.image(i, self.auts[j])]

    def canonical(self, tup):
        """(r, k): the least image r of tup under Aut(G) and the least index
        k with auts[k](tup) == r.  The least image fixes the leading
        identity entries and sends the first other entry x to its least
        image, so only x's candidates compete; a tuple of identities is its
        own class."""
        for x in tup:
            if x:
                break
        else:
            return tup, self.identity
        ks, phis = self.candidates[x]
        images = list(map(itemgetter(*tup), phis))  # 2g >= 2 entries: tuples
        least = min(images)
        return least, ks[images.index(least)]

    def subgroup(self, elements):
        """The subgroup the indices generate, closed again only when an
        element falls outside it; stops early once it is all of Aut(G)."""
        group, gens = {self.identity}, []
        for k in elements:
            if len(group) == len(self.auts):
                break
            if k in group:
                continue
            gens.append(k)
            frontier = list(group)
            while frontier:
                a = frontier.pop()
                for b in gens:
                    c = self.compose(a, b)
                    if c not in group:
                        group.add(c)
                        frontier.append(c)
        return group

    def inner_cosets(self, group):
        """One element of each coset of Inn(G) that the subgroup meets."""
        reps, covered = [], set()
        for k in sorted(group):
            if k not in covered:
                reps.append(k)
                covered.update(self.compose(k, i) for i in self.inner)
        return reps


# Why the class walk is exact.
#
# Steps commute with Aut(G).  A step is compiled by compile_program, whose
# tracer accepts only the slot names and the identity, so each entry of a
# step's output is a word w in the entries of its input, and
# phi(w(t)) = w(phi(t)) for every automorphism phi.  Hence M, the group the
# steps generate (each step permutes the finite set of genus-g tuples, so
# the forward closure O of a seed is its M-orbit), permutes the Aut-classes,
# and phi(O) is the M-orbit of phi(seed).
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


def orbit_report(seeds, G, g, gens=None, ext=None, max_visited=2_000_000):
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
    max_visited: the walk stops when its class count alone exceeds the room
    left, and the exact orbit size is checked against it after the walk.
    """
    _check_genus(g)
    if gens is None:
        gens = standard_generators(g)
    aut = G.cached(AutTables)
    surjective = generation_test(G)
    neighbours = generator_steps(G, gens, g)
    if ext is not None:
        lifted_relator = compile_program(ext.cover, 2 * g,
                                         lambda tr, t: tr.relator(t))
        lift = [ext.lifts[x][0] for x in G.elements()].__getitem__

    known = {}          # class -> [(row, psi_r)] over the orbits so far
    stabilizers = []    # S of each row's orbit
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
        if any(aut.compose(aut.inverse[chi], psi) in stabilizers[i]
               for i, psi in known.get(rep, ())):
            continue
        room = max_visited - visited
        classes = {rep: 0}
        records = [(seed, chi)]     # (t_r, psi_r) with psi_r(t_r) = r
        twists = set()              # (psi_r', chi) of edges onto known classes
        for t, _ in records:
            if len(records) > room:
                raise WorkBoundExceeded("orbit memory bound hit")
            for nxt in neighbours(*t):
                r, chi = aut.canonical(nxt)
                j = classes.get(r)
                if j is None:
                    classes[r] = len(records)
                    records.append((nxt, chi))
                elif records[j][1] != chi:
                    twists.add((records[j][1], chi))
        stab = [k for k in range(len(aut.auts))
                if aut.image(k, seed) == seed]
        S = aut.subgroup(chain(stab, (aut.compose(aut.inverse[psi], chi)
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
            # surjective tuples of the orbit, as one traced relator over the
            # cover on first lifts
            values = set()
            cosets = aut.inner_cosets(S)
            for t, _ in records:
                if surjective(t):
                    for w in cosets:
                        u = aut.image(w, t)
                        acc = lifted_relator(*map(lift, u))
                        if acc not in ext.center:
                            schur_invariant(u, G, ext)  # raises typed error
                        values.add(acc)
            if len(values) > 1:
                raise SurfaceError("orbit mixes Schur classes")
        for r, j in classes.items():
            known.setdefault(r, []).append((len(rows), records[j][1]))
        stabilizers.append(S)
        rows.append(OrbitRow(size, sch, surj, len(S) == len(aut.auts), seed))
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
    g = keyword_int(lines[0], "genus", SurfaceError)
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


def aut_classes(G, g):
    """(r, size) for each Aut(G)-class of G^g: r is the class's least tuple
    and size its number of tuples.  The comment above proves it."""
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
    return [(rep, size) for rep, _, size in classes]


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
    if G.order ** g > limits.max_enumeration:
        raise WorkBoundExceeded("heegaard enumeration %d^%d over budget"
                                % (G.order, g))
    pull_back = inverse_word(resolve_word(h.word, g))
    classes = aut_classes(G, g)
    rows, inverse = _table_rows(G), G._inv

    def mul(xs, ys):
        return [rows[x][y] for x, y in zip(xs, ys)]

    def inv(xs):
        return list(map(inverse.__getitem__, xs))

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
