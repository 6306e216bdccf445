"""Group actions on finite point sets, Rubik groups, and Goursat decomposition.

Rubik membership follows the semidirect picture: an equivariant permutation
of an action with free non-fixed orbits splits into a permutation of the
orbit set plus one group component per orbit, measured against a fixed
section of orbit representatives.
"""

from dataclasses import dataclass
from math import factorial
from . import perms
from .groups import GroupError, coset_min_reps, derived_subgroup


# The largest action a Rubik check takes: the stabilizer chain's
# transversals grow about cubically with the degree, and A5 at 12 free
# orbits, 720 points, takes about 4 s and 314 MB on a 2 vCPU machine.
MAX_RUBIK_DEGREE = 720


class ActionError(ValueError):
    pass


def check_rubik_degree(npoints):
    """Refuse a Rubik check on more than MAX_RUBIK_DEGREE points."""
    if npoints > MAX_RUBIK_DEGREE:
        raise ActionError("action degree %d exceeds Rubik bound %d"
                          % (npoints, MAX_RUBIK_DEGREE))


class GSetAction:
    """A left action of a finite group on points 0..npoints-1, given by its
    fixed points and its free orbits.

    orbits[i][g] is the point g . r_i, where r_i = orbits[i][0] is the
    section representative of orbit i, so g . orbits[i][h] =
    orbits[i][g h] and every non-fixed orbit is free by construction.
    """

    def __init__(self, group, fixed_points, orbits):
        self.group = group
        self.fixed_points = list(fixed_points)
        self.free_orbits = [tuple(orb) for orb in orbits]
        if any(len(orb) != group.order for orb in self.free_orbits):
            raise ActionError("a free orbit needs one point per group element")
        points = self.fixed_points + [pt for orb in self.free_orbits
                                      for pt in orb]
        self.npoints = len(points)
        if sorted(points) != list(range(self.npoints)):
            raise ActionError("orbits and fixed points overlap or leave gaps")
        self.section = tuple(orb[0] for orb in self.free_orbits)
        # equivariant_perm lists images in this layout, fixed points then
        # orbits; the gather puts them back in point order
        self._to_point_order = perms.gather(perms.inverse(points))
        # coords[pt] = (i, g) with pt = g . section[i]
        self.coords = {pt: (i, g) for i, orb in enumerate(self.free_orbits)
                       for g, pt in enumerate(orb)}

    def apply(self, g, x):
        if x not in self.coords:
            return x
        i, h = self.coords[x]
        return self.free_orbits[i][self.group.mul(g, h)]

    def decompose(self, p):
        """Split an equivariant permutation into fixed part, orbit permutation
        and section-relative group components.

        Raises unless p is equivariant: the rebuilt permutation is, and it
        agrees with p on the fixed points and the representatives, whose
        images determine an equivariant permutation."""
        images = [self.coords.get(p[rep]) for rep in self.section]
        if None in images:
            raise ActionError("a representative is sent to a fixed point")
        orbit_perm = tuple(j for j, _ in images)
        components = tuple(h for _, h in images)
        if len(set(orbit_perm)) != len(orbit_perm):
            raise ActionError("two representatives are sent into one orbit")
        fixed_map = {x: p[x] for x in self.fixed_points}
        if any(y in self.coords for y in fixed_map.values()):
            raise ActionError("equivariant image of a fixed point must be fixed")
        if tuple(p) != equivariant_perm(self, orbit_perm, components,
                                        fixed_map):
            raise ActionError("permutation does not commute with the action")
        return fixed_map, orbit_perm, components


def rubik_membership(p, act):
    """Is p in the Rubik group of the action?

    Requires p equivariant and all non-fixed orbits free.  Membership needs
    the induced permutation on free orbits to be even and the product of the
    section-relative components to lie in [G, G]; [G, G] is normal with
    G/[G, G] abelian, so the order of the factors does not matter.  A
    permutation of two or more fixed points must be even as well (the
    commutator subgroup splits off Alt of the fixed set); this is vacuous
    for the single-zombie alphabets used downstream.
    """
    return _decomposed_membership(act.group, *act.decompose(p))


def _decomposed_membership(G, fixed_map, orbit_perm, components):
    """rubik_membership on the parts act.decompose(p) returns."""
    pts = sorted(fixed_map)
    idx = {x: i for i, x in enumerate(pts)}
    return (perms.perm_parity(tuple(idx[fixed_map[x]] for x in pts)) == 0
            and rubik_coordinates(G, orbit_perm, components))


def rubik_coordinates(G, orbit_perm, components):
    """The membership rule on the coordinates of an equivariant
    permutation that fixes its fixed points: the orbit permutation is even
    and the product of the components lies in [G, G]."""
    if perms.perm_parity(orbit_perm) != 0:
        return False
    acc = 0
    for h in components:
        acc = G.mul(acc, h)
    return acc in G.cached(derived_subgroup)


def rubik_order(n, gamma):
    """|Rub(n, G)| = |G|^(n-1) |[G, G]| n!/2 for n >= 2."""
    if n < 2:
        raise ValueError("rubik order needs n >= 2")
    return (gamma.order ** (n - 1) * len(gamma.cached(derived_subgroup))
            * (factorial(n) // 2))


def column_getters(G):
    """Getter h gathers a sequence indexed by G at the products g h, in g
    order: column h of the multiplication table."""
    return [perms.gather(column) for column in zip(*G.rows)]


def equivariant_perm(act, orbit_perm, components, fixed_map=None):
    """The equivariant permutation sending g . section[i] to (g h_i) .
    section[orbit_perm[i]] and permuting the fixed points by fixed_map,
    the identity where it is silent."""
    perms.check_perm(orbit_perm)
    columns = act.group.cached(column_getters)
    fixed_map = fixed_map or {}
    images = [fixed_map.get(x, x) for x in act.fixed_points]
    orbits = act.free_orbits
    for j, h in zip(orbit_perm, components):
        images.extend(columns[h](orbits[j]))
    return act._to_point_order(images)


def rubik_generators(act):
    """A standard generating set of Rub of the action.

    Orbit 3-cycles lift Alt(n); anti-diagonal pairs (g, g^-1) on the first
    two orbits cover the component tuples whose product lies in [G, G].
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

    One chain of H = <gens> with base (x0, y0), the representatives of the
    first two free orbits, gives the order and (ii).  The generators pass
    rubik_membership, so H maps pairs of points in distinct free orbits,
    F * (F - |G|) of them for F free points, to such pairs, and (ii) holds
    when |H . (x0, y0)| is that number.  By orbit-stabilizer it is
    |H . x0| * |H_x0 . y0|, the chain's first two basic orbit lengths.
    """
    n = len(act.free_orbits)
    if n < 7:
        raise ActionError("surjectivity check needs at least 7 orbits")
    check_rubik_degree(act.npoints)
    # each generator is in Rub; (i): induced action on the orbit set
    induced = []
    for p in gens:
        fixed_map, orbit_perm, components = act.decompose(p)
        if not _decomposed_membership(act.group, fixed_map, orbit_perm,
                                      components):
            raise ActionError("generator fails Rubik membership")
        induced.append(orbit_perm)
    kind = perms.classify_giant(perms.PermutationGroup(n, induced))
    flag_alt = kind in ("alternating", "symmetric")
    # (ii) and the order, from one chain.  Membership admits exactly Rub
    # on the free points times Alt of the fixed points, a group every
    # generator is in, so its order bounds |H| and the chain stops there.
    expected = rubik_order(n, act.group)
    n_fixed = len(act.fixed_points)
    H = perms.PermutationGroup(
        act.npoints, gens, base=(act.section[0], act.section[1]),
        order_bound=expected * max(1, factorial(n_fixed) // 2))
    lengths = H.orbit_lengths()
    n_free = n * act.group.order
    flag_2t = lengths[0] * lengths[1] == n_free * (n_free - act.group.order)
    generated = H.order()
    alt_n2 = factorial(n - 2) // 2
    hypothesis = act.group.order < alt_n2 or act.group.order % alt_n2 != 0
    return RubikReport(n, act.group.order, flag_alt, flag_2t,
                       generated, expected, generated == expected, hypothesis)


# -- Goursat ---------------------------------------------------------------------


@dataclass
class GoursatDecomposition:
    n1: tuple        # the members of N1 <= G1
    n2: tuple
    rep1: list       # element id of G1 -> least member of its coset in G1/N1
    rep2: list
    iso: dict        # coset-min-rep in G1/N1 -> coset-min-rep in G2/N2

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
    N1 = tuple(sorted(a for a, b in H if b == 0))
    N2 = tuple(sorted(b for a, b in H if a == 0))
    dec = GoursatDecomposition(N1, N2, coset_min_reps(G1, N1),
                               coset_min_reps(G2, N2), {})
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


def make_free_action(gamma, n_orbits, n_fixed=0):
    """The disjoint union of n_orbits free orbits and n_fixed fixed points.

    Fixed points come first (ids 0..n_fixed-1); free orbit i occupies ids
    n_fixed + i*|gamma| .. n_fixed + (i+1)*|gamma| - 1, with the section
    representative first, laid out so that g . (orbit i, h) = (orbit i, g*h).
    """
    q = gamma.order
    return GSetAction(gamma, range(n_fixed),
                      [range(n_fixed + i * q, n_fixed + (i + 1) * q)
                       for i in range(n_orbits)])
