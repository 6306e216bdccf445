"""Group actions on finite point sets, Rubik groups, and Goursat decomposition.

Rubik membership follows the semidirect picture: an equivariant permutation
of an action with free non-fixed orbits splits into a permutation of the
orbit set plus one group component per orbit, measured against a fixed
section of orbit representatives.
"""

from dataclasses import dataclass
from itertools import chain, repeat
from math import factorial
from operator import itemgetter
from . import perms
from .groups import (GroupError, bfs_closure, coset_min_reps,
                     derived_subgroup)


# The largest action a Rubik check takes: the stabilizer chain's
# transversals grow about cubically with the degree.  A5 at 12 free
# orbits, 720 points, takes 0.19 s and 49 MB peak RSS on a 2 vCPU machine
# (CPython 3.11); A5 at 20 orbits, 1200 points, would take 1.1 s and
# 178 MB.
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
        self.npoints = n = (len(self.fixed_points)
                            + len(self.free_orbits) * group.order)
        self.section = tuple(orb[0] for orb in self.free_orbits)
        self._at_section = perms.gather(self.section)
        # position[pt] is pt's place in this layout, fixed points then
        # orbits, so a free point pt = g . section[i] has
        # divmod(position[pt] - len(fixed_points), |G|) = (i, g).  n points
        # in 0..n-1, none placed twice, are all of 0..n-1.  identity holds
        # the layout's own int objects, so the tables equivariant_perm
        # writes from it share them instead of each making n new ones.
        self.position = position = [None] * n
        identity = [None] * n
        for i, pt in enumerate(chain(self.fixed_points, *self.free_orbits)):
            if not 0 <= pt < n or position[pt] is not None:
                raise ActionError(
                    "orbits and fixed points overlap or leave gaps")
            position[pt] = i
            identity[pt] = pt
        self.identity = tuple(identity)
        self._tables = None

    def _point_tables(self):
        """Built on first use: each point's orbit and component (-1 and 0
        at a fixed point), and for each generator s of the group, the
        table of s on the points, s . orbits[i][h] = orbits[i][s h], with
        the gather that reads a table at its entries."""
        if self._tables is None:
            G, orbits = self.group, self.free_orbits
            n_fixed, q = len(self.fixed_points), G.order
            to_points = perms.gather(self.position)
            orbit_of = to_points(list(chain(
                repeat(-1, n_fixed), *map(repeat, range(len(orbits)),
                                          repeat(q)))))
            component_of = to_points(list(chain(
                repeat(0, n_fixed), *repeat(range(q), len(orbits)))))
            generators = []
            for s in G.generator_data()[0]:
                at_row = perms.gather(tuple(G.rows[s]))
                table = to_points(
                    list(chain(self.fixed_points, *map(at_row, orbits))))
                generators.append((table, perms.gather(table)))
            self._tables = orbit_of, component_of, generators
        return self._tables

    def decompose(self, p):
        """Split an equivariant permutation, given as its table of images,
        into fixed part, orbit permutation and section-relative group
        components.

        The coordinates are read off the images of the representatives.
        p is equivariant when it commutes with each generator s of the
        group: p read at the table of s equals that table read at p, two
        gathers over the points.  Then p is the permutation its parts
        describe once the representatives go to distinct orbits and the
        fixed points to distinct fixed points.  Raises ActionError unless
        all of that holds and p is a table on 0..npoints-1."""
        n = self.npoints
        if len(p) != n:
            raise ActionError("table has %d entries for %d points"
                              % (len(p), n))
        if n and not (min(p) >= 0 and max(p) < n):
            raise ActionError("table entry outside 0..%d" % (n - 1))
        orbit_of, component_of, generators = self._point_tables()
        at_images = perms.gather(self._at_section(p))
        orbit_perm = at_images(orbit_of)
        targets = set(orbit_perm)
        if -1 in targets:
            raise ActionError("a representative is sent to a fixed point")
        if len(targets) != len(orbit_perm):
            raise ActionError("two representatives are sent into one orbit")
        fixed_map = {x: p[x] for x in self.fixed_points}
        if any(orbit_of[y] >= 0 for y in fixed_map.values()):
            raise ActionError("equivariant image of a fixed point must be fixed")
        if len(set(fixed_map.values())) != len(fixed_map):
            raise ActionError("two fixed points are sent to one")
        at_p = perms.gather(p)
        for table, at_table in generators:
            if at_table(p) != at_p(table):
                raise ActionError(
                    "permutation does not commute with the action")
        return fixed_map, orbit_perm, at_images(component_of)


def rubik_membership(p, act):
    """Is p in the Rubik group of the action?  Requires p equivariant and
    all non-fixed orbits free; rubik_coordinates gives the rule."""
    return rubik_coordinates(act.group, *act.decompose(p))


def rubik_coordinates(G, fixed_map, orbit_perm, components):
    """The membership rule on the parts act.decompose(p) returns: the
    induced permutation on free orbits is even and the product of the
    section-relative components lies in [G, G]; [G, G] is normal with
    G/[G, G] abelian, so the order of the factors does not matter.  A
    permutation of two or more fixed points must be even as well (the
    commutator subgroup splits off Alt of the fixed set); this is vacuous
    for the single-zombie alphabets used downstream.  fixed_map permutes
    its keys and is silent on fixed points it fixes; orbit_perm is an image
    sequence or, like fixed_map, a dict on the orbits it moves.
    """
    if perms.perm_parity(fixed_map) or perms.perm_parity(orbit_perm):
        return False
    rows, acc = G.rows, 0
    for h in filter(None, components):      # identity components fold away
        acc = rows[acc][h]
    return acc in G.cached(derived_subgroup)


def rubik_order(n, gamma):
    """|Rub(n, G)| = |G|^(n-1) |[G, G]| n!/2 for n >= 2."""
    if n < 2:
        raise ValueError("rubik order needs n >= 2")
    return (gamma.order ** (n - 1) * len(gamma.cached(derived_subgroup))
            * (factorial(n) // 2))


def equivariant_perm(act, orbit_perm, components, fixed_map=None):
    """The equivariant permutation sending g . section[i] to (g h_i) .
    section[orbit_perm[i]] and permuting the fixed points by fixed_map,
    the identity where it is silent.  orbit_perm and components are
    sequences over the free orbits, or dicts silent on the orbits that
    orbit_perm fixes and on the trivial components h_i.  The table is the
    identity with the points of the other orbits rewritten."""
    n = len(act.free_orbits)
    if not isinstance(orbit_perm, dict):
        if len(orbit_perm) != n or len(components) != n:
            raise ValueError("orbit data for %d and %d orbits, not %d"
                             % (len(orbit_perm), len(components), n))
        orbit_perm = {i: j for i, j in enumerate(orbit_perm) if i != j}
        components = {i: h for i, h in enumerate(components) if h}
    moved = sorted(orbit_perm)
    if moved != sorted(orbit_perm.values()) or moved and not (
            moved[0] >= 0 and moved[-1] < n):
        raise ValueError("not a permutation of the orbits: %r"
                         % (orbit_perm,))
    p = list(act.identity)
    for x, y in (fixed_map or {}).items():
        p[x] = y
    orbits, rows = act.free_orbits, act.group.rows
    for i in orbit_perm.keys() | components.keys():
        target, h = orbits[orbit_perm.get(i, i)], components.get(i, 0)
        if h:           # g . section[i] goes to the point g h of the target
            target = map(target.__getitem__, map(itemgetter(h), rows))
        for x, y in zip(orbits[i], target):
            p[x] = y
    return tuple(p)


def rubik_generators(act):
    """A standard generating set of Rub of the action.

    Orbit 3-cycles lift Alt(n); anti-diagonal pairs (g, g^-1) on the first
    two orbits cover the component tuples whose product lies in [G, G].
    """
    n = len(act.free_orbits)
    if n < 3:
        raise ActionError("need at least 3 free orbits for the standard set")
    gens = [equivariant_perm(act, {i: i + 1, i + 1: i + 2, i + 2: i}, {})
            for i in range(n - 2)]
    gen_ids, _ = act.group.generator_data()
    for g in gen_ids:
        gens.append(equivariant_perm(act, {}, {0: g, 1: act.group.inv(g)}))
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
        if not rubik_coordinates(act.group, fixed_map, orbit_perm,
                                 components):
            raise ActionError("generator fails Rubik membership")
        induced.append(orbit_perm)
    # membership made every orbit permutation even: <induced> <= Alt(n)
    kind = perms.classify_giant(perms.PermutationGroup(
        n, induced, order_bound=factorial(n) // 2))
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
    def pair_mul(x, y):
        return G1.mul(x[0], y[0]), G2.mul(x[1], y[1])

    elements, _, _ = bfs_closure((0, 0), sorted(set(map(tuple, pairs))),
                                 pair_mul)
    H = set(elements)
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
