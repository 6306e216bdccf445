"""Finite groups as multiplication tables over element ids 0..order-1.

Element id 0 is always the identity.  Groups built by closing permutation
generators get a canonical breadth-first element order, which downstream
code (automorphism search, stem extension data files) relies on.
"""

import os
from dataclasses import dataclass
from itertools import product
from operator import itemgetter
from . import perms
from .textformat import content_lines, int_fields

DEFAULT_ORDER_BOUND = 120


class GroupError(ValueError):
    pass


class FiniteGroup:
    def __init__(self, name, table, validate=False):
        """table is a flat list of order**2 ids, row a column b = a*b."""
        order = int(round(len(table) ** 0.5))
        if order * order != len(table):
            raise GroupError("table length %d is not a square" % len(table))
        if order == 0:
            raise GroupError("empty group description")
        self.name = name
        self.order = order
        self._table = list(table)
        self._inv = self._build_inverse()
        self._memo = {}
        if validate:
            self.check()

    def cached(self, build):
        """build(self), computed on first use and kept for the group's life.

        Every table derived from the group lives in this one dict, keyed by
        its builder.  Not functools.cached_property: that writes through
        instance.__dict__, which on CPython 3.11 gives up the compact
        attribute layout and makes every later attribute load (mul's
        self._table and self.order) markedly slower.
        """
        if build not in self._memo:
            self._memo[build] = build(self)
        return self._memo[build]

    # -- core arithmetic ------------------------------------------------------

    def mul(self, a, b):
        return self._table[a * self.order + b]

    def inv(self, a):
        return self._inv[a]

    def conj(self, a, b):
        """a * b * a^-1"""
        return self.mul(self.mul(a, b), self._inv[a])

    def comm(self, a, b):
        """[a, b] = a b a^-1 b^-1"""
        return self.mul(self.mul(a, b), self.mul(self._inv[a], self._inv[b]))

    def elements(self):
        return range(self.order)

    def element_order(self, a):
        return self.cached(element_orders)[a]

    def is_perfect(self):
        return len(self.cached(derived_subgroup)) == self.order

    # -- validation ------------------------------------------------------------

    def _build_inverse(self):
        n = self.order
        inv = [-1] * n
        for a in range(n):
            row = self._table[a * n:(a + 1) * n]
            if sorted(row) != list(range(n)):
                raise GroupError("row %d of the table is not a bijection" % a)
            for b in range(n):
                if row[b] == 0:
                    inv[a] = b
        for a in range(n):
            if self.mul(inv[a], a) != 0:
                raise GroupError("inverse table inconsistent at %d" % a)
        return inv

    def check(self):
        """Identity, bijectivity and associativity checks.

        Associativity is Light's test over the generators S of
        generator_data: (x s) y = x (s y) for all x, y and s in S.  The
        elements a with (x a) y = x (a y) for all x, y are closed under
        product, and the build steps reach every element as a product of
        generators, so the test is exact at every order, in |G|^2 |S|
        products (Clifford and Preston, The Algebraic Theory of Semigroups
        I, 1961, section 1.2).
        """
        n = self.order
        for a in range(n):
            if self.mul(0, a) != a or self.mul(a, 0) != a:
                raise GroupError("id 0 is not a two-sided identity")
        cols = [[self._table[a * n + b] for a in range(n)] for b in range(n)]
        for b in range(n):
            if sorted(cols[b]) != list(range(n)):
                raise GroupError("column %d of the table is not a bijection" % b)
        gen_ids, steps = self.generator_data()
        # a group's generators reach it all, whatever the table's closure
        # found them by
        if len(steps) != n - 1:
            raise GroupError("not associative: the generators reach %d of "
                             "%d elements" % (len(steps) + 1, n))
        table = self._table
        rows = [tuple(table[a * n:(a + 1) * n]) for a in range(n)]
        for s in gen_ids:
            # row x gathered at row s gives y -> x (s y)
            gather = itemgetter(*rows[s])
            for x in range(n):
                xs = rows[table[x * n + s]]
                if xs != gather(rows[x]):
                    y = next(y for y in range(n)
                             if xs[y] != rows[x][rows[s][y]])
                    raise GroupError(
                        "not associative at (%d,%d,%d)" % (x, s, y))
        return self

    # -- construction -----------------------------------------------------------

    @classmethod
    def from_table(cls, name, table):
        return cls(name, table, validate=True)

    @classmethod
    def from_perm_gens(cls, name, gens, degree=0):
        """Close permutation generators breadth-first into a full table.

        Element 0 is the identity; elements appear in discovery order, which
        makes the id assignment deterministic for a fixed generator list.
        """
        gens = [tuple(g) for g in gens]
        if not gens:
            raise GroupError("empty generator list")
        n = max([degree] + [len(g) for g in gens])
        gens = [tuple(g) + tuple(range(len(g), n)) for g in gens]
        for g in gens:
            perms.check_perm(g)
        ident = perms.identity_perm(n)
        elems = [ident]
        index = {ident: 0}
        words = []  # build steps (element, parent, gen index)
        i = 0
        while i < len(elems):
            for gi, g in enumerate(gens):
                c = perms.mult(elems[i], g)
                if c not in index:
                    index[c] = len(elems)
                    elems.append(c)
                    words.append((len(elems) - 1, i, gi))
            i += 1
        order = len(elems)
        table = [0] * (order * order)
        for a in range(order):
            for b in range(order):
                table[a * order + b] = index[perms.mult(elems[a], elems[b])]
        grp = cls(name, table)
        grp._memo[_generator_data] = ([index[g] for g in gens], words)
        grp._perm_elems = elems
        return grp

    @classmethod
    def cyclic(cls, n, name=None):
        table = [(a + b) % n for a in range(n) for b in range(n)]
        return cls(name or ("Z%d" % n), table)

    @classmethod
    def trivial(cls):
        return cls("1", [0])

    # -- generators and words -----------------------------------------------------

    def generator_data(self):
        """A generating id list plus breadth-first build steps.

        Returns (gen_ids, steps) where steps is a list of triples
        (element, parent, gen_index) with element = parent * gens[gen_index],
        covering every non-identity element, parents always built first.
        For groups closed from permutation generators this is the original
        closure data; otherwise a small generating set is found greedily.
        """
        return self.cached(_generator_data)

    def __repr__(self):
        return "FiniteGroup(%s, order=%d)" % (self.name, self.order)


def close_under_product(G, seed_ids):
    """Subgroup closure of a set of element ids, as a sorted tuple.

    Dimino's algorithm: a seed not yet reached becomes a generator, and the
    closure grows as a union of right cosets prev*r of the previous closure,
    with representatives r found breadth-first over r*t for every generator
    t.  This costs O(|closure| * #generators) products, and at most
    log2 |G| seeds ever become generators.
    """
    n, table = G.order, G._table
    members = [0]
    reached = bytearray(n)
    reached[0] = 1
    gens = []
    for s in seed_ids:
        if reached[s]:
            continue
        gens.append(s)
        prev = members[:]
        reps = [0]
        for r in reps:
            row = r * n
            for t in gens:
                c = table[row + t]
                if not reached[c]:
                    reps.append(c)
                    for h in prev:
                        x = table[h * n + c]
                        reached[x] = 1
                        members.append(x)
    return tuple(sorted(members))


def _generator_data(G):
    """FiniteGroup.generator_data's greedy search: each step adds the
    element whose closure with those reached so far is largest."""
    gen_ids = []
    reached = {0}
    while len(reached) < G.order:
        best = None
        for g in range(1, G.order):
            if g in reached:
                continue
            closure = close_under_product(G, sorted(reached | {g}))
            if best is None or len(closure) > best[1]:
                best = (g, len(closure), closure)
                if len(closure) == G.order:
                    break
        gen_ids.append(best[0])
        reached = set(best[2])
    steps = []
    seen = {0}
    queue = [0]
    while queue:
        a = queue.pop(0)
        for gi, g in enumerate(gen_ids):
            c = G.mul(a, g)
            if c not in seen:
                seen.add(c)
                steps.append((c, a, gi))
                queue.append(c)
    return gen_ids, steps


def element_orders(G):
    """The order of each element id."""
    orders = []
    for a in G.elements():
        k, x = 1, a
        while x != 0:
            x = G.mul(x, a)
            k += 1
        orders.append(k)
    return orders


@dataclass(frozen=True)
class Subgroup:
    parent: FiniteGroup
    members: tuple

    def __post_init__(self):
        mem = set(self.members)
        if 0 not in mem:
            raise GroupError("subgroup misses the identity")
        for a in self.members:
            if self.parent.inv(a) not in mem:
                raise GroupError("subgroup not closed under inverse")
            for b in self.members:
                if self.parent.mul(a, b) not in mem:
                    raise GroupError("subgroup not closed under product")

    @property
    def order(self):
        return len(self.members)

    def contains(self, other):
        return set(other.members) <= set(self.members)

    def as_group(self, name=None):
        """Reindex the subgroup as a standalone FiniteGroup.

        Members keep their sorted order, so id 0 stays the identity.
        """
        ids = sorted(self.members)
        pos = {x: i for i, x in enumerate(ids)}
        n = len(ids)
        table = [0] * (n * n)
        for i, a in enumerate(ids):
            for j, b in enumerate(ids):
                table[i * n + j] = pos[self.parent.mul(a, b)]
        return FiniteGroup(name or ("%s^sub%d" % (self.parent.name, n)), table)


@dataclass
class SubgroupLattice:
    group: FiniteGroup
    subgroups: list        # list of Subgroup, sorted by (order, members)
    contains: list         # contains[i][j] True iff subgroups[j] <= subgroups[i]


def subgroup_lattice(G):
    """All subgroups of G with their containment relation.

    Breadth-first growth: start from cyclic subgroups, then repeatedly close
    each known subgroup H together with one extra element g.  Since
    <H, h*g> = <H, g> for every h in H, one g per right coset Hg suffices,
    and the closure starts from the generators H was found with plus g.
    """
    if G.order > DEFAULT_ORDER_BOUND:
        raise GroupError("order %d exceeds subgroup-lattice bound %d"
                         % (G.order, DEFAULT_ORDER_BOUND))
    n, table = G.order, G._table
    found = {close_under_product(G, []): []}
    frontier = {}
    for g in G.elements():
        frontier.setdefault(close_under_product(G, [g]), [g])
    found.update(frontier)
    while frontier:
        new = {}
        for H, gens in frontier.items():
            if len(H) == n:
                continue
            covered = bytearray(n)
            for h in H:
                covered[h] = 1
            for g in range(n):
                if covered[g]:
                    continue
                for h in H:
                    covered[table[h * n + g]] = 1
                K = close_under_product(G, gens + [g])
                if K not in found:
                    found[K] = new[K] = gens + [g]
        frontier = new
    subs = [Subgroup(G, mem) for mem in sorted(found, key=lambda m: (len(m), m))]
    sets = [frozenset(H.members) for H in subs]
    contains = [[B <= A for B in sets] for A in sets]
    return SubgroupLattice(G, subs, contains)


def _membership_masks(G):
    """(masks, full_bit): bit i of masks[e] is set when the i-th subgroup
    of the lattice contains e.  A tuple generates the group exactly when
    the AND of its masks is the full group's bit alone."""
    lattice = subgroup_lattice(G)
    masks = [0] * G.order
    for i, H in enumerate(lattice.subgroups):
        for e in H.members:
            masks[e] |= 1 << i
    return masks, 1 << (len(lattice.subgroups) - 1)


def subgroup_membership_masks(G):
    """Per-element bitmasks over the subgroup lattice, built once per group."""
    return G.cached(_membership_masks)


def generates(G, ids):
    """True when the element ids generate all of G."""
    return len(close_under_product(G, ids)) == G.order


def commutator_subgroup(G):
    comms = {G.comm(a, b) for a in G.elements() for b in G.elements()}
    return Subgroup(G, close_under_product(G, sorted(comms)))


def derived_subgroup(G):
    """The members of [G, G] as a frozenset."""
    return frozenset(commutator_subgroup(G).members)


def quotient_by_normal(G, normal_members, name=None):
    """Quotient of G by a normal subgroup, with the projection map.

    Cosets are keyed by their minimal member; the identity coset gets id 0
    and the rest follow in key order.
    """
    D = set(normal_members)
    cosets = {}
    for g in G.elements():
        key = min(G.mul(g, d) for d in D)
        cosets.setdefault(key, set()).add(g)
    id_key = next(k for k, mem in cosets.items() if 0 in mem)
    ordered = [id_key] + sorted(k for k in cosets if k != id_key)
    idx = {k: i for i, k in enumerate(ordered)}
    proj = [0] * G.order
    for k, members in cosets.items():
        for g in members:
            proj[g] = idx[k]
    n = len(ordered)
    table = [0] * (n * n)
    for i, k1 in enumerate(ordered):
        for j, k2 in enumerate(ordered):
            table[i * n + j] = proj[G.mul(k1, k2)]
    Q = FiniteGroup(name or (G.name + "_quo"), table)
    return Q, tuple(proj)


# -- automorphisms ------------------------------------------------------------


def _hom_from_gen_images(G, H, gen_ids, steps, images):
    """Extend generator images to a full map G -> H via build steps.

    Returns the image list, or None if the extension is not multiplicative.
    The steps define img along generator words, so img[a*g] == img[a]*phi(g)
    for every a and every generator g is, by induction on word length,
    equivalent to img[a*b] == img[a]*img[b] for all a, b.
    """
    img = [None] * G.order
    img[0] = 0
    for elem, parent, gi in steps:
        img[elem] = H.mul(img[parent], images[gi])
    n, m = G.order, H.order
    gt, ht = G._table, H._table
    for g, x in zip(gen_ids, images):
        for a in range(n):
            if img[gt[a * n + g]] != ht[img[a] * m + x]:
                return None
    return img


def _isomorphisms(G, H):
    """Every isomorphism G -> H as an image list.

    Brute force over order-compatible images of a small generating set of G,
    in lexicographic order of the image tuple; fine for the desk-scale
    orders this package targets.
    """
    if G.order != H.order:
        return
    gen_ids, steps = G.generator_data()
    pools = [[h for h in H.elements()
              if H.element_order(h) == G.element_order(g)] for g in gen_ids]
    for images in product(*pools):
        img = _hom_from_gen_images(G, H, gen_ids, steps, images)
        if img is not None and len(set(img)) == G.order:
            yield img


def find_isomorphism(G, H):
    """An isomorphism G -> H as an image list, or None."""
    return next(_isomorphisms(G, H), None)


def automorphisms(G):
    """The full automorphism group of G as element-id permutations, built
    once per group."""
    if G.order > DEFAULT_ORDER_BOUND:
        raise GroupError("order %d exceeds automorphism bound %d"
                         % (G.order, DEFAULT_ORDER_BOUND))
    return G.cached(_automorphisms)


def _automorphisms(G):
    out = [tuple(img) for img in _isomorphisms(G, G)]
    # full check phi(a*b) == phi(a)*phi(b): row a of the table gathered
    # through phi against row phi(a) gathered at phi's images
    n, table = G.order, G._table
    rows = [table[a * n:(a + 1) * n] for a in range(n)]
    row_getters = [itemgetter(*row) for row in rows]
    for phi in out:
        phi_getter = itemgetter(*phi)
        for a in range(n):
            if row_getters[a](phi) != phi_getter(rows[phi[a]]):
                raise GroupError("automorphism search produced a non-hom")
    return out


# -- stem extensions -------------------------------------------------------------


@dataclass
class StemExtension:
    cover: FiniteGroup
    projection: tuple     # cover element id -> base element id
    center_ids: tuple

    def __post_init__(self):
        # lifts[x]: the cover ids over base id x, in increasing order
        self.lifts = {}
        for c, x in enumerate(self.projection):
            self.lifts.setdefault(x, []).append(c)
        self.center = frozenset(self.center_ids)

    def validate(self, base):
        C, proj, Z = self.cover, self.projection, set(self.center_ids)
        if len(proj) != C.order:
            raise GroupError("projection length mismatch")
        if set(proj) != set(range(base.order)):
            raise GroupError("projection is not surjective")
        for a in range(C.order):
            for b in range(C.order):
                if proj[C.mul(a, b)] != base.mul(proj[a], proj[b]):
                    raise GroupError("projection is not a homomorphism")
        kernel = {a for a in range(C.order) if proj[a] == 0}
        if kernel != Z:
            raise GroupError("projection kernel differs from the center ids")
        for z in Z:
            for g in range(C.order):
                if C.mul(z, g) != C.mul(g, z):
                    raise GroupError("center ids are not central")
        derived = set(commutator_subgroup(C).members)
        if not Z <= derived:
            raise GroupError("center ids not inside the commutator subgroup")
        return self


# -- file formats -----------------------------------------------------------------


def parse_group_text(text):
    head = "\n".join(content_lines(text)).split(None, 4)
    if not head:
        raise GroupError("empty group description")
    if head[0] != "group" or len(head) < 4:
        raise GroupError("group file must start with 'group <name> <order>' "
                         "and a mode line")
    name, mode = head[1], head[3]
    (order,) = int_fields(head[2:3], " ".join(head[:4]), GroupError)
    if order < 1:
        raise GroupError("group order must be at least 1, got %d" % order)
    body = head[4].splitlines() if len(head) > 4 else []
    if mode == "table":
        ids = [x for ln in body
               for x in int_fields(ln.split(), ln, GroupError)]
        if len(ids) != order * order:
            raise GroupError("expected %d table entries, got %d"
                             % (order * order, len(ids)))
        return FiniteGroup.from_table(name, ids)
    if mode == "perm-gens":
        try:
            gens = [perms.parse_cycles(line) for line in body]
        except ValueError as exc:
            raise GroupError(str(exc)) from None
        if not gens:
            raise GroupError("perm-gens needs at least one generator line")
        degree = max(len(g) for g in gens)
        # the stabilizer chain gives the order without the |G|^2 table
        try:
            closure = perms.PermutationGroup(
                degree, [g + tuple(range(len(g), degree)) for g in gens])
        except ValueError as exc:
            raise GroupError(str(exc)) from None
        if closure.order() != order:
            raise GroupError("declared order %d but closure has %d"
                             % (order, closure.order()))
        return FiniteGroup.from_perm_gens(name, gens, degree=degree)
    raise GroupError("unknown group file mode %r" % mode)


def load_group(path):
    with open(path) as fh:
        return parse_group_text(fh.read())


def write_group_file(path, G, perm_gens=None):
    with open(path, "w") as fh:
        if perm_gens is not None:
            fh.write("group %s %d\nperm-gens\n" % (G.name, G.order))
            for g in perm_gens:
                fh.write(perms.format_cycles(g) + "\n")
        else:
            fh.write("group %s %d\ntable\n" % (G.name, G.order))
            n = G.order
            for a in range(n):
                fh.write(" ".join(str(G.mul(a, b)) for b in range(n)) + "\n")


def load_stem_extension(path, base):
    """Read a stem-extension file and validate it against the base group."""
    with open(path) as fh:
        toks = "\n".join(content_lines(fh.read())).split()
    keys = ("cover", "project", "center")
    fields = {}
    i = 0
    while i < len(toks):
        key = toks[i]
        if key == "cover":
            if i + 1 == len(toks):
                raise GroupError("stem-extension 'cover' needs a file name")
            fields["cover"] = toks[i + 1]
            i += 2
        elif key in ("project", "center"):
            j = i + 1
            while j < len(toks) and toks[j] not in keys:
                j += 1
            fields[key] = int_fields(toks[i + 1:j], " ".join(toks[i:j]),
                                     GroupError)
            i = j
        else:
            raise GroupError("unknown stem-extension key %r" % key)
    missing = [key for key in keys if key not in fields]
    if missing:
        raise GroupError("stem-extension file lacks %s"
                         % ", ".join(repr(key) for key in missing))
    cover_path = os.path.join(os.path.dirname(os.path.abspath(path)),
                              fields["cover"])
    cover = load_group(cover_path)
    ext = StemExtension(cover, tuple(fields["project"]), tuple(fields["center"]))
    return ext.validate(base)
