"""Finite groups as multiplication tables over element ids 0..order-1.

Element id 0 is always the identity.  Groups built by closing permutation
generators get a canonical breadth-first element order, which downstream
code (automorphism search, stem extension data files) relies on.
"""

import os
from dataclasses import dataclass
from itertools import chain, product
from operator import itemgetter
from . import perms
from .textformat import content_lines, int_fields

DEFAULT_ORDER_BOUND = 120
MAX_GROUP_ORDER = 1 << 11


class GroupError(ValueError):
    pass


class FiniteGroup:
    """A finite group as its multiplication table, rows[a][b] = a*b: a list
    of order row tuples over the element ids 0..order-1."""

    def __init__(self, name, table, validate=False):
        """table is a flat list of order**2 ids, row a column b = a*b."""
        order = int(round(len(table) ** 0.5))
        if order * order != len(table):
            raise GroupError("table length %d is not a square" % len(table))
        if order == 0:
            raise GroupError("empty group description")
        self.name = name
        self.order = order
        self.rows = [tuple(table[i:i + order])
                     for i in range(0, order * order, order)]
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
        self.rows) markedly slower.
        """
        if build not in self._memo:
            self._memo[build] = build(self)
        return self._memo[build]

    # -- core arithmetic ------------------------------------------------------

    def mul(self, a, b):
        return self.rows[a][b]

    def inv(self, a):
        return self._inv[a]

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
        rows = self.rows
        # n entries that make up the set 0..n-1 are a bijection onto it
        ids = set(range(self.order))
        for a, row in enumerate(rows):
            if set(row) != ids:
                raise GroupError("row %d of the table is not a bijection" % a)
        inv = [row.index(0) for row in rows]
        for a, x in enumerate(inv):
            if rows[x][a] != 0:
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
        n, rows = self.order, self.rows
        for a, row in enumerate(rows):
            if rows[0][a] != a or row[0] != a:
                raise GroupError("id 0 is not a two-sided identity")
        ids = set(range(n))
        for b, column in enumerate(zip(*rows)):
            if set(column) != ids:
                raise GroupError("column %d of the table is not a bijection" % b)
        gen_ids, steps = self.generator_data()
        # a group's generators reach it all, whatever the table's closure
        # found them by
        if len(steps) != n - 1:
            raise GroupError("not associative: the generators reach %d of "
                             "%d elements" % (len(steps) + 1, n))
        for s in gen_ids:
            # row x gathered at row s gives y -> x (s y)
            gather = itemgetter(*rows[s])
            for x, row in enumerate(rows):
                # tuple() copies only a row that is a view, as Aut(G)'s are
                xs = tuple(rows[row[s]])
                if xs != gather(row):
                    y = next(y for y in range(n) if xs[y] != row[rows[s][y]])
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
        The table is filled column by column along the build steps: for
        the step (e, parent, gen), a * e = (a * parent) * gen, so column e
        is column parent read through the closure's right translates by
        gen.  That is n * k permutation products and n^2 list reads.
        """
        gens = [tuple(g) for g in gens]
        if not gens:
            raise GroupError("empty generator list")
        n = max([degree] + [len(g) for g in gens])
        gens = [tuple(g) + tuple(range(len(g), n)) for g in gens]
        for g in gens:
            perms.check_perm(g)
        elems, words, right = bfs_closure(perms.identity_perm(n), gens,
                                          perms.mult)
        cols = [range(len(elems))]
        for _, parent, gi in words:
            cols.append(tuple(map(right[gi].__getitem__, cols[parent])))
        grp = cls(name, list(chain.from_iterable(zip(*cols))))
        grp._memo[_generator_data] = ([r[0] for r in right], words)
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
    log2 |G| seeds ever become generators.  Once the closure is all of G
    no further seed is read, so a lazy seed iterator costs nothing more.
    """
    rows = G.rows
    members = [0]
    reached = bytearray(G.order)
    reached[0] = 1
    gens = []
    for s in seed_ids:
        if reached[s]:
            continue
        gens.append(s)
        prev = members[:]
        reps = [0]
        for r in reps:
            row = rows[r]
            for t in gens:
                c = row[t]
                if not reached[c]:
                    reps.append(c)
                    for h in prev:
                        x = rows[h][c]
                        reached[x] = 1
                        members.append(x)
        if len(members) == G.order:
            break
    return tuple(sorted(members))


def bfs_closure(one, gens, mul):
    """Breadth-first closure of one under right multiplication by gens
    (Holt, Eick and O'Brien, Handbook of Computational Group Theory, 2005,
    ch. 3), in n * k products: the elements in discovery order, the build
    steps (element, parent, gen index) as positions, and right, where
    right[gi][i] is the position of elements[i] * gens[gi]."""
    elements = [one]
    index = {one: 0}
    steps = []
    right = [[] for _ in gens]
    for i, x in enumerate(elements):
        for gi, g in enumerate(gens):
            c = mul(x, g)
            j = index.setdefault(c, len(elements))
            if j == len(elements):
                elements.append(c)
                steps.append((j, i, gi))
            right[gi].append(j)
    return elements, steps, right


def right_coset_reps(G, H):
    """The least element of each right coset Hg of the subgroup with
    members H, other than H itself, in increasing order."""
    rows = G.rows
    covered = bytearray(G.order)
    for h in H:
        covered[h] = 1
    for g in range(G.order):
        if not covered[g]:
            for h in H:
                covered[rows[h][g]] = 1
            yield g


def _generator_data(G):
    """FiniteGroup.generator_data's greedy search: each step adds the least
    element whose closure with the reached subgroup H is largest.  Since
    <H, h*g> = <H, g> for every h in H, only the least element g of each
    right coset Hg is closed, seeded with the generators found so far."""
    gen_ids, reached = [], (0,)
    while len(reached) < G.order:
        best = reached
        for g in right_coset_reps(G, reached):
            closure = close_under_product(G, gen_ids + [g])
            if len(closure) > len(best):
                best, gen = closure, g
                if len(closure) == G.order:
                    break
        gen_ids.append(gen)
        reached = best
    elements, steps, _ = bfs_closure(0, gen_ids, G.mul)
    return gen_ids, [(elements[e], elements[p], gi) for e, p, gi in steps]


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


def conjugation_rows(G):
    """conj[x][a] = x a x^-1, one gather per x: row x of the table (x a)
    read through column x^-1 (y -> y x^-1)."""
    columns = list(zip(*G.rows))
    return [tuple(map(columns[x_inv].__getitem__, row))
            for row, x_inv in zip(G.rows, G._inv)]


def class_representatives(G):
    """The least element of each conjugacy class, in increasing order."""
    conj = G.cached(conjugation_rows)
    seen = bytearray(G.order)
    reps = []
    for a in G.elements():
        if not seen[a]:
            reps.append(a)
            for row in conj:
                seen[row[a]] = 1
    return reps


def as_group(G, members):
    """Reindex a subgroup of G, given as its sorted member tuple, as a
    standalone FiniteGroup; id 0 stays the identity."""
    pos = {x: i for i, x in enumerate(members)}
    table = [pos[G.mul(a, b)] for a in members for b in members]
    return FiniteGroup("%s^sub%d" % (G.name, len(members)), table)


@dataclass
class SubgroupLattice:
    subgroups: list        # sorted member tuples, by (order, members)
    classes: list          # classes[i]: first index of subgroups[i]'s class


def subgroup_lattice(G):
    """All subgroups of G, each with its conjugacy class.

    Breadth-first growth, one subgroup per conjugacy class: start from the
    cyclic subgroups of the class representatives, then repeatedly close
    each frontier subgroup H together with one extra element g.  Since
    <H, h*g> = <H, g> for every h in H, one g per right coset Hg suffices,
    and the closure starts from the generators H was found with plus g.
    A new subgroup adds its whole conjugacy class to the found set, but
    only it joins the frontier: <xHx^-1, xgx^-1> is the conjugate of
    <H, g>, so extending one member of a class reaches every class the
    others would.
    """
    if G.order > DEFAULT_ORDER_BOUND:
        raise GroupError("order %d exceeds subgroup-lattice bound %d"
                         % (G.order, DEFAULT_ORDER_BOUND))
    conj = G.cached(conjugation_rows)
    found = {(0,): (0,)}    # members -> the frontier subgroup of its class
    frontier = []       # (subgroup, generators), one per class, grows in loop

    def add_class(K, gens):
        if K not in found:
            found.update((tuple(sorted(map(row.__getitem__, K))), K)
                         for row in conj)
            frontier.append((K, gens))

    for g in G.cached(class_representatives):
        add_class(close_under_product(G, [g]), [g])
    for H, gens in frontier:
        for g in right_coset_reps(G, H):
            add_class(close_under_product(G, gens + [g]), gens + [g])
    subs = sorted(found, key=lambda m: (len(m), m))
    first = {}
    classes = [first.setdefault(found[m], i) for i, m in enumerate(subs)]
    return SubgroupLattice(subs, classes)


def _membership_masks(G):
    """(masks, full_bit): bit i of masks[e] is set when the i-th subgroup
    of the lattice contains e.  A tuple generates the group exactly when
    the AND of its masks is the full group's bit alone."""
    lattice = subgroup_lattice(G)
    masks = [0] * G.order
    for i, H in enumerate(lattice.subgroups):
        for e in H:
            masks[e] |= 1 << i
    return masks, 1 << (len(lattice.subgroups) - 1)


def subgroup_membership_masks(G):
    """Per-element bitmasks over the subgroup lattice, built once per group."""
    return G.cached(_membership_masks)


def generates(G, ids):
    """True when the element ids generate all of G."""
    return len(close_under_product(G, ids)) == G.order


def derived_subgroup(G):
    """The members of [G, G] as a frozenset."""
    comms = {G.comm(a, b) for a in G.elements() for b in G.elements()}
    return frozenset(close_under_product(G, sorted(comms)))


def coset_min_reps(G, members):
    """Per element id a of G, the least member of the coset aN of the
    subgroup N with these members."""
    rep = [None] * G.order
    for a in G.elements():
        if rep[a] is None:
            coset = [G.mul(a, d) for d in members]
            least = min(coset)
            for x in coset:
                rep[x] = least
    return rep


def quotient_by_normal(G, normal_members, name=None):
    """Quotient of G by a normal subgroup, with the projection map.

    Cosets are numbered in the order of their least members, so the
    identity coset, whose least member is 0, gets id 0.
    """
    rep = coset_min_reps(G, normal_members)
    keys = sorted(set(rep))
    idx = {k: i for i, k in enumerate(keys)}
    proj = tuple(idx[r] for r in rep)
    table = [proj[G.mul(k1, k2)] for k1 in keys for k2 in keys]
    return FiniteGroup(name or (G.name + "_quo"), table), proj


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
    target = H.rows
    for g, x in zip(gen_ids, images):
        for row, y in zip(G.rows, img):
            if img[row[g]] != target[y][x]:
                return None
    return img


def _isomorphisms(G, H):
    """Every isomorphism G -> H that sends the first generator of G to a
    conjugacy class representative of H, as an image list.

    Brute force over order-compatible images of a small generating set of G,
    in lexicographic order of the image tuple; fine for the desk-scale
    orders this package targets.  Every isomorphism is an inner
    automorphism of H after one of these.  The first images over all
    isomorphisms form a union of classes, so the least of them is a class
    representative and the first isomorphism yielded is the
    lexicographically least of all.
    """
    if G.order != H.order:
        return
    gen_ids, steps = G.generator_data()
    pools = [[h for h in H.elements()
              if H.element_order(h) == G.element_order(g)] for g in gen_ids]
    if pools:
        reps = set(H.cached(class_representatives))
        pools[0] = [h for h in pools[0] if h in reps]
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
    """Aut(G) = Inn(G) times the maps _isomorphisms(G, G) yields, sorted
    by the images of the generators: the order of an unrestricted search.

    Maps are bytes, so that composing and checking are C-level translates;
    that needs ids below 256, which automorphisms' order bound ensures.
    AutomorphismGroup multiplies by the same translates, so lifting the
    bound past 256 means replacing the gathers of both.
    """
    pad = bytes(256 - G.order)
    inner = {bytes(row) + pad for row in G.cached(conjugation_rows)}
    found = set()
    for img in _isomorphisms(G, G):
        phi = bytes(img)
        found.update(map(phi.translate, inner))
    gen_ids = G.generator_data()[0]
    out = sorted(found, key=lambda phi: [phi[g] for g in gen_ids])
    # full check phi(a*b) == phi(a)*phi(b) over all n^2 products: the
    # table translated through phi against, for each row a, phi translated
    # through row phi(a)
    flat = bytes(chain.from_iterable(G.rows))
    rows = [bytes(row) + pad for row in G.rows]
    for phi in out:
        if flat.translate(phi + pad) != b"".join(
                map(phi.translate, map(rows.__getitem__, phi))):
            raise GroupError("automorphism search produced a non-hom")
    return [tuple(phi) for phi in out]


def automorphism_group(G):
    """Aut(G) as an AutomorphismGroup, built once per group."""
    return G.cached(AutomorphismGroup)


class _ProductRow:
    """Row a of an AutomorphismGroup; it iterates like a tuple."""
    __slots__ = ("table", "tables", "index")

    def __init__(self, table, tables, index):
        self.table, self.tables, self.index = table, tables, index

    def __getitem__(self, b):
        # b after a: a's padded bytes translated through b's, which keep
        # the padding 0, since every automorphism fixes the identity 0
        return self.index[self.table.translate(self.tables[b])]


class AutomorphismGroup(FiniteGroup):
    """Aut(G) as a FiniteGroup whose id k is the map maps[k], id 0 the
    identity map and the others in the order of automorphisms(G); a * b
    applies a, then b."""

    def __init__(self, G):
        # a stable sort on "is not the identity" moves the identity first
        self.maps = sorted(automorphisms(G), key=tuple(G.elements()).__ne__)
        # |Aut(G)| reaches 20160 (GL(4, 2) for Z2^4), too many for an
        # |Aut|^2 table, so each row reads its products off the maps when
        # asked, by translates as in _automorphisms: ids below 256
        pad = bytes(256 - G.order)
        tables = [bytes(phi) + pad for phi in self.maps]
        index = {t: k for k, t in enumerate(tables)}
        self.name, self.order = "Aut(%s)" % G.name, len(tables)
        self._memo = {}
        self.rows = [_ProductRow(t, tables, index) for t in tables]
        self._inv = [index[bytes(perms.inverse(f)) + pad] for f in self.maps]


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
        if not Z <= C.cached(derived_subgroup):
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
    if order > MAX_GROUP_ORDER:
        raise GroupError("group order %d exceeds bound %d"
                         % (order, MAX_GROUP_ORDER))
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
            for row in G.rows:
                fh.write(" ".join(map(str, row)) + "\n")


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
