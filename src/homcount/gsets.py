"""Group actions on finite point sets, Rubik groups, and Goursat decomposition.

Rubik membership follows the semidirect picture: an equivariant permutation
of an action with free non-fixed orbits splits into a permutation of the
orbit set plus one group component per orbit, measured against a fixed
section of orbit representatives.
"""

from dataclasses import dataclass
from math import factorial
from . import perms
from .groups import Subgroup, GroupError
from .textformat import content_lines, keyword_int


class ActionError(ValueError):
    pass


class GSetAction:
    """A left action of a finite group on points 0..npoints-1.

    The table rows are one permutation per group element; orbits are
    classified as fixed (size 1) or free (size |G| with trivial stabilizer)
    on construction, anything else is recorded and rejected by the Rubik
    operations.
    """

    def __init__(self, group, npoints, table):
        self.group = group
        self.npoints = npoints
        if len(table) != group.order:
            raise ActionError("need one action row per group element")
        self.table = [tuple(row) for row in table]
        for row in self.table:
            if len(row) != npoints:
                raise ActionError("action row length mismatch")
            perms.check_perm(row)
        self._check_axioms()
        self._classify_orbits()

    @classmethod
    def from_generator_rows(cls, group, npoints, gen_rows):
        """Build the full element table from rows for group.generator_data()."""
        gen_ids, steps = group.generator_data()
        if len(gen_rows) != len(gen_ids):
            raise ActionError("expected %d generator rows" % len(gen_ids))
        by_gen = [tuple(r) for r in gen_rows]
        if any(len(r) != npoints for r in by_gen):
            raise ActionError("action row length mismatch")
        rows = [None] * group.order
        rows[0] = perms.identity_perm(npoints)
        for elem, parent, gi in steps:
            # left action: (parent * gen) . x = parent . (gen . x)
            rows[elem] = perms.mult(by_gen[gi], rows[parent])
        return cls(group, npoints, rows)

    def apply(self, g, x):
        return self.table[g][x]

    def _check_axioms(self):
        G = self.group
        if self.table[0] != perms.identity_perm(self.npoints):
            raise ActionError("identity does not act trivially")
        gen_ids, steps = G.generator_data()
        for elem, parent, gi in steps:
            g = gen_ids[gi]
            expect = perms.mult(self.table[g], self.table[parent])
            if self.table[elem] != expect:
                raise ActionError("action is not compatible with the product")

    def _classify_orbits(self):
        G = self.group
        seen = [False] * self.npoints
        self.fixed_points = []
        self.free_orbits = []          # list of sorted point tuples
        self.bad_orbits = []
        for x in range(self.npoints):
            if seen[x]:
                continue
            orbit = sorted({self.table[g][x] for g in G.elements()})
            for y in orbit:
                seen[y] = True
            if len(orbit) == 1:
                self.fixed_points.append(x)
            elif len(orbit) == G.order:
                self.free_orbits.append(tuple(orbit))
            else:
                self.bad_orbits.append(tuple(orbit))
        # section: smallest point of each free orbit
        self.section = tuple(orb[0] for orb in self.free_orbits)
        self._coords = {}
        for i, rep in enumerate(self.section):
            for g in G.elements():
                pt = self.table[g][rep]
                if pt in self._coords:
                    raise ActionError("orbit %d is not free" % i)
                self._coords[pt] = (i, g)

    def coords(self, pt):
        """(orbit index, g) with pt = g . section[orbit index]."""
        return self._coords[pt]

    def is_equivariant(self, p):
        gen_ids, _ = self.group.generator_data()
        for g in gen_ids:
            row = self.table[g]
            for x in range(self.npoints):
                if p[row[x]] != row[p[x]]:
                    return False
        return True

    def decompose(self, p):
        """Split an equivariant permutation into fixed part, orbit permutation
        and section-relative group components."""
        if not self.is_equivariant(p):
            raise ActionError("permutation does not commute with the action")
        if self.bad_orbits:
            raise ActionError("action has a non-free, non-fixed orbit")
        fixed_map = {}
        for x in self.fixed_points:
            if p[x] not in self.fixed_points:
                raise ActionError("equivariant image of a fixed point must be fixed")
            fixed_map[x] = p[x]
        n = len(self.free_orbits)
        orbit_perm = [None] * n
        components = [None] * n
        for i, rep in enumerate(self.section):
            j, h = self._coords[p[rep]]
            orbit_perm[i] = j
            components[i] = h
        return fixed_map, tuple(orbit_perm), tuple(components)


def _fixed_parity(fixed_map):
    pts = sorted(fixed_map)
    idx = {x: i for i, x in enumerate(pts)}
    return perms.perm_parity(tuple(idx[fixed_map[x]] for x in pts))


def rubik_membership(p, act):
    """Is p in the Rubik group of the action?

    Requires p equivariant and all non-fixed orbits free.  Membership needs
    the induced permutation on free orbits to be even and the product of the
    section-relative components to abelianize to the identity.  A permutation
    of two or more fixed points must be even as well (the commutator subgroup
    splits off Alt of the fixed set); this is vacuous for the single-zombie
    alphabets used downstream.
    """
    fixed_map, orbit_perm, components = act.decompose(p)
    if _fixed_parity(fixed_map) != 0:
        return False
    if perms.perm_parity(orbit_perm) != 0:
        return False
    ab = act.group.ab_map
    acc = 0
    for h in components:
        acc = ab.quotient.mul(acc, ab(h))
    return acc == 0


def rubik_order(n, gamma):
    """|Rub(n, G)| = |G|^n / |G_ab| * n!/2 for n >= 2."""
    if n < 2:
        raise ValueError("rubik order needs n >= 2")
    ab = gamma.ab_map
    return gamma.order ** n // ab.quotient.order * (factorial(n) // 2)


def equivariant_perm(act, orbit_perm, components, fixed_map=None):
    """Build the equivariant permutation with the given decomposition data."""
    n = len(act.free_orbits)
    p = list(range(act.npoints))
    if fixed_map:
        for x, y in fixed_map.items():
            p[x] = y
    for i in range(n):
        rep = act.section[i]
        j, h = orbit_perm[i], components[i]
        target_rep = act.section[j]
        for g in act.group.elements():
            # g . rep  ->  (g h) . section[j]
            p[act.table[g][rep]] = act.table[act.group.mul(g, h)][target_rep]
    p = tuple(p)
    perms.check_perm(p)
    return p


def rubik_generators(act):
    """A standard generating set of Rub of the action.

    Orbit 3-cycles lift Alt(n); anti-diagonal pairs (g, g^-1) on the first
    two orbits cover the kernel of the abelianized product map.
    """
    n = len(act.free_orbits)
    if n < 3:
        raise ActionError("need at least 3 free orbits for the standard set")
    ident = tuple(range(n))
    gens = []
    for i in range(n - 2):
        cyc = list(range(n))
        cyc[i], cyc[i + 1], cyc[i + 2] = cyc[i + 1], cyc[i + 2], cyc[i]
        gens.append(equivariant_perm(act, tuple(cyc), (0,) * n))
    gen_ids, _ = act.group.generator_data()
    for g in gen_ids:
        comp = [0] * n
        comp[0], comp[1] = g, act.group.inv(g)
        gens.append(equivariant_perm(act, ident, tuple(comp)))
    return gens


@dataclass
class RubikReport:
    orbit_count: int
    gamma_order: int
    alt_projection: bool          # flag (i)
    two_transitive: bool          # flag (ii)
    generated_order: int
    expected_order: int
    order_match: bool             # flag (iii)
    hypothesis_excluded: bool     # Alt(n-2) is not a quotient of gamma


def rubik_surjectivity_check(gens, act):
    """Executable form of the Rubik generation theorem.

    Checks that (i) the induced orbit action is a giant, (ii) the action is
    group-set 2-transitive, and reports whether the generated order matches
    the full Rubik order; the theorem predicts (i) and (ii) force the match
    when Alt(n-2) is not a quotient of the acting group.
    """
    n = len(act.free_orbits)
    if n < 7:
        raise ActionError("surjectivity check needs at least 7 orbits")
    for p in gens:
        if not rubik_membership(p, act):
            raise ActionError("generator fails Rubik membership")
    # (i): induced action on the orbit set
    induced = []
    for p in gens:
        _, orbit_perm, _ = act.decompose(p)
        induced.append(orbit_perm)
    kind = perms.classify_giant(perms.PermutationGroup(n, induced))
    flag_alt = kind in ("alternating", "symmetric")
    # (ii): orbit of ordered point pairs in distinct free orbits.  The
    # generators passed rubik_membership, so they are equivariant and
    # permute the free orbits: every pair reached from a pair in distinct
    # orbits is again one.  There are F * (F - |Gamma|) such pairs for F
    # free points, so the orbit holds them all exactly when it is that big.
    start = (act.free_orbits[0][0], act.free_orbits[1][0])
    seen = {start}
    frontier = [start]
    gens_both = list(gens) + [perms.inverse(p) for p in gens]
    while frontier:
        x, y = frontier.pop()
        for p in gens_both:
            nxt = (p[x], p[y])
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    n_free = n * act.group.order
    flag_2t = len(seen) == n_free * (n_free - act.group.order)
    generated = perms.PermutationGroup(act.npoints, list(gens)).order()
    expected = rubik_order(n, act.group)
    alt_n2 = factorial(n - 2) // 2
    hypothesis = act.group.order < alt_n2 or act.group.order % alt_n2 != 0
    return RubikReport(n, act.group.order, flag_alt, flag_2t,
                       generated, expected, generated == expected, hypothesis)


# -- Goursat ---------------------------------------------------------------------


def _coset_min_reps(N):
    """Per element id a of N's parent, the least member of the coset a N."""
    G = N.parent
    rep = [None] * G.order
    for a in G.elements():
        if rep[a] is None:
            coset = [G.mul(a, d) for d in N.members]
            least = min(coset)
            for x in coset:
                rep[x] = least
    return rep


@dataclass
class GoursatDecomposition:
    n1: Subgroup
    n2: Subgroup
    iso: dict        # coset-min-rep in G1/N1 -> coset-min-rep in G2/N2

    def __post_init__(self):
        self.rep1 = _coset_min_reps(self.n1)
        self.rep2 = _coset_min_reps(self.n2)

    def reconstruct(self, G1, G2):
        """The subgroup of G1 x G2 cut out by the coset isomorphism."""
        return {(a, b) for a in G1.elements() for b in G2.elements()
                if self.iso[self.rep1[a]] == self.rep2[b]}


def goursat_decompose(pairs, G1, G2):
    """Goursat decomposition of a subdirect subgroup H <= G1 x G2.

    H is given as a collection of (a, b) element-id pairs, closed or not;
    the closure is computed.  Raises unless H surjects onto both factors.
    Returns normal subgroups N1, N2 and the graph isomorphism between the
    quotients, verified to reconstruct H exactly.
    """
    # a finite subgroup is the closure of the identity under right
    # multiplication by its generators: |H| * |pairs| products
    gens = set(map(tuple, pairs))
    H = {(0, 0)}
    frontier = [(0, 0)]
    for a1, b1 in frontier:
        for a2, b2 in gens:
            c = (G1.mul(a1, a2), G2.mul(b1, b2))
            if c not in H:
                H.add(c)
                frontier.append(c)
    if {a for a, _ in H} != set(G1.elements()):
        raise GroupError("H does not surject onto the first factor")
    if {b for _, b in H} != set(G2.elements()):
        raise GroupError("H does not surject onto the second factor")
    # the kernels of the projections, subgroups since H is one
    N1 = Subgroup(G1, tuple(sorted(a for a, b in H if b == 0)))
    N2 = Subgroup(G2, tuple(sorted(b for a, b in H if a == 0)))
    dec = GoursatDecomposition(N1, N2, {})
    rep1, rep2, iso = dec.rep1, dec.rep2, dec.iso
    for a, b in H:
        r1, r2 = rep1[a], rep2[b]
        if r1 in iso and iso[r1] != r2:
            raise GroupError("coset map is not well defined; H is not subdirect?")
        iso[r1] = r2
    if len(set(iso.values())) != len(iso):
        raise GroupError("coset map is not injective")
    # multiplicativity of the coset map
    for a1 in iso:
        for a2 in iso:
            lhs = iso[rep1[G1.mul(a1, a2)]]
            rhs = rep2[G2.mul(iso[a1], iso[a2])]
            if lhs != rhs:
                raise GroupError("coset map is not multiplicative")
    if dec.reconstruct(G1, G2) != H:
        raise GroupError("reconstruction does not recover H")
    return dec


def parse_action_text(text, group_loader):
    """Action file: `gamma <group-file>`, `points m`, then one `row` of
    cycle notation per group generator (in generator order)."""
    gamma = npoints = None
    rows = []
    for ln in content_lines(text):
        key, *rest = ln.split(None, 1)
        rest = "".join(rest)
        if key == "gamma":
            gamma = group_loader(rest)
        elif key == "points":
            npoints = keyword_int(ln, key, ActionError)
        elif key == "row":
            try:
                rows.append(perms.parse_cycles(rest, npoints or 0))
            except ValueError as exc:
                raise ActionError(str(exc)) from None
        else:
            raise ActionError("unknown action file line %r" % ln)
    if gamma is None or npoints is None:
        raise ActionError("action file needs gamma and points")
    rows = [tuple(r) + tuple(range(len(r), npoints)) for r in rows]
    return GSetAction.from_generator_rows(gamma, npoints, rows)


def load_action(path):
    import os
    from .groups import load_group
    base = os.path.dirname(os.path.abspath(path))
    with open(path) as fh:
        return parse_action_text(
            fh.read(), lambda rel: load_group(os.path.join(base, rel)))


def make_free_action(gamma, n_orbits, n_fixed=0):
    """The disjoint union of n_orbits free orbits and n_fixed fixed points.

    Fixed points come first (ids 0..n_fixed-1); free orbit i occupies ids
    n_fixed + i*|gamma| .. n_fixed + (i+1)*|gamma| - 1, with the section
    representative first, laid out so that g . (orbit i, h) = (orbit i, g*h).
    """
    q = gamma.order
    npts = n_fixed + n_orbits * q
    table = []
    for g in gamma.elements():
        row = list(range(n_fixed)) + [0] * (n_orbits * q)
        for i in range(n_orbits):
            base = n_fixed + i * q
            for h in gamma.elements():
                row[base + h] = base + gamma.mul(g, h)
        table.append(tuple(row))
    return GSetAction(gamma, npts, table)
