import gc
import itertools
import random
import weakref

import pytest

from homcount import groups, perms
from homcount.groups import (FiniteGroup, GroupError, _hom_from_gen_images,
                             as_group, automorphism_group, automorphisms,
                             close_under_product,
                             derived_subgroup, find_isomorphism, load_group,
                             parse_group_text, quotient_by_normal,
                             right_coset_reps, subgroup_lattice,
                             subgroup_membership_masks, write_group_file)
from homcount.textformat import content_lines
from conftest import data_path


# -- independent oracles: pairwise closure and the full |G|^2 hom check ---------


def direct_product(G, H, name=None):
    """G x H with pair encoding id = a*|H| + b."""
    n = G.order * H.order
    table = [0] * (n * n)
    oh = H.order
    for a1 in range(G.order):
        for b1 in range(oh):
            x = a1 * oh + b1
            for a2 in range(G.order):
                for b2 in range(oh):
                    y = a2 * oh + b2
                    table[x * n + y] = G.mul(a1, a2) * oh + H.mul(b1, b2)
    return FiniteGroup(name or ("%sx%s" % (G.name, H.name)), table)


def oracle_close(G, seed_ids):
    """Subgroup closure by multiplying every pair until nothing new appears."""
    members = set(seed_ids)
    members.add(0)
    queue = list(members)
    while queue:
        a = queue.pop()
        for b in list(members):
            for c in (G.mul(a, b), G.mul(b, a)):
                if c not in members:
                    members.add(c)
                    queue.append(c)
        c = G.inv(a)
        if c not in members:
            members.add(c)
            queue.append(c)
    return tuple(sorted(members))


def is_normal(G, members):
    """Whether every conjugate of every member lies among the members."""
    mem = set(members)
    return all(G.mul(G.mul(g, h), G.inv(g)) in mem
               for g in G.elements() for h in members)


def oracle_hom_from_gen_images(G, H, steps, images):
    """Extend generator images via build steps; check all |G|^2 products."""
    img = [None] * G.order
    img[0] = 0
    for elem, parent, gi in steps:
        img[elem] = H.mul(img[parent], images[gi])
    for a in range(G.order):
        for b in range(G.order):
            if img[G.mul(a, b)] != H.mul(img[a], img[b]):
                return None
    return img


def oracle_automorphisms(G):
    """Every bijective extension of order-preserving generator images,
    in the package's search order."""
    gen_ids, steps = G.generator_data()
    pools = [[h for h in G.elements()
              if G.element_order(h) == G.element_order(g)] for g in gen_ids]
    out = []

    def rec(chosen):
        if len(chosen) == len(gen_ids):
            img = oracle_hom_from_gen_images(G, G, steps, chosen)
            if img is not None and len(set(img)) == G.order:
                out.append(tuple(img))
            return
        for h in pools[len(chosen)]:
            rec(chosen + [h])

    rec([])
    return out


def oracle_least_isomorphism(G, H):
    """The isomorphism G -> H whose generator images come first in
    lexicographic order, trying every tuple of elements of H."""
    gen_ids, steps = G.generator_data()
    for images in itertools.product(H.elements(), repeat=len(gen_ids)):
        img = oracle_hom_from_gen_images(G, H, steps, images)
        if img is not None and len(set(img)) == G.order:
            return img
    return None


def oracle_perm_table(gens, degree=0):
    """The breadth-first closure of from_perm_gens with its table filled by
    all n^2 permutation products: (table, gen_ids, steps, elements)."""
    n = max([degree] + [len(g) for g in gens])
    gens = [tuple(g) + tuple(range(len(g), n)) for g in gens]
    elems = [perms.identity_perm(n)]
    index = {elems[0]: 0}
    steps = []
    for i, a in enumerate(elems):
        for gi, g in enumerate(gens):
            c = perms.mult(a, g)
            if c not in index:
                index[c] = len(elems)
                steps.append((len(elems), i, gi))
                elems.append(c)
    table = [index[perms.mult(a, b)] for a in elems for b in elems]
    return table, [index[g] for g in gens], steps, elems


def oracle_generator_data(G):
    """The greedy search closing every element outside the reached
    subgroup at each step, then the build steps by a queue."""
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


def elementary_abelian(k):
    """E_{2^k} as a table, the direct product of k copies of Z2."""
    G = FiniteGroup.trivial()
    for _ in range(k):
        G = direct_product(G, FiniteGroup.cyclic(2))
    return G


def shipped_perm_gens(name):
    """The generators of a shipped perm-gens group file."""
    with open(data_path(name)) as fh:
        lines = content_lines(fh.read())
    assert lines[1] == "perm-gens"
    return [perms.parse_cycles(line) for line in lines[2:]]


def small_groups():
    """The trivial group, Z2 and V4 (Inn(G) trivial, Aut(V4) = S3), and D4
    and Q8 (Inn(G) a proper non-trivial subgroup of Aut(G))."""
    z2 = FiniteGroup.cyclic(2)
    d4 = FiniteGroup.from_perm_gens(
        "D4", [perms.parse_cycles("(0 1 2 3)", 4),
               perms.parse_cycles("(0 2)", 4)])
    q8 = FiniteGroup.from_perm_gens(
        "Q8", [perms.parse_cycles("(0 1 2 3)(4 5 6 7)", 8),
               perms.parse_cycles("(0 4 2 6)(1 7 3 5)", 8)])
    return [FiniteGroup.trivial(), z2, direct_product(z2, z2, "V4"), d4, q8]


def oracle_classes(G, subs):
    """For each subgroup of the sorted list subs, the index of the first one
    among its conjugates x H x^-1, taken with G.mul over every x."""
    index = {H: i for i, H in enumerate(subs)}
    return [min(index[tuple(sorted(G.mul(G.mul(x, h), G.inv(x)) for h in H))]
                for x in G.elements())
            for H in subs]


def oracle_lattice(G):
    """Every subgroup, grown by closing each new subgroup with every element
    outside it, sorted by (order, members), and each one's class by
    brute-force conjugation."""
    found = {close_under_product(G, [])}
    frontier = {close_under_product(G, [g]) for g in G.elements()}
    found |= frontier
    while frontier:
        new = set()
        for H in frontier:
            for g in G.elements():
                if g not in H:
                    K = close_under_product(G, list(H) + [g])
                    if K not in found:
                        found.add(K)
                        new.add(K)
        frontier = new
    subs = sorted(found, key=lambda m: (len(m), m))
    return subs, oracle_classes(G, subs)


def test_cyclic_table():
    z4 = FiniteGroup.cyclic(4)
    assert z4.order == 4
    assert z4.inv(1) == 3
    assert z4.element_order(1) == 4
    z4.check()


def test_perm_gen_closure_orders(s3, a5):
    assert s3.order == 6
    assert a5.order == 60


def random_block_perm(rng, blocks, degree):
    """A random permutation of range(degree) mapping each block to itself,
    given with its trailing fixed points stripped half the time."""
    p = list(range(degree))
    for block in blocks:
        for x, y in zip(block, rng.sample(block, len(block))):
            p[x] = y
    if rng.random() < 0.5:
        while p and p[-1] == len(p) - 1:
            p.pop()
    return tuple(p)


def test_perm_table_matches_product_oracle():
    # generators preserve blocks of at most 4 points, so every group has
    # order at most |S4 x S3| = 144
    rng = random.Random(2026)
    cases = [([()], 0), ([(0,)], 0), ([()], 3), ([(0, 1, 2), (0, 1, 2)], 5)]
    cases += [(shipped_perm_gens(name), 0)
              for name in ("a5.grp", "s3.grp", "sl25.grp")]
    seen, degrees = set(), set()
    for _ in range(150):
        degree = rng.randint(1, 7)
        points = rng.sample(range(degree), degree)
        blocks = []
        while points:
            size = rng.randint(1, 4)
            blocks.append(points[:size])
            points = points[size:]
        gens = [random_block_perm(rng, blocks, degree)
                for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.2:
            gens.append(rng.choice(gens))
        if rng.random() < 0.2:
            gens.insert(rng.randrange(len(gens) + 1), tuple(range(degree)))
        cases.append((gens, rng.choice([0, degree, degree + 2])))
    for gens, degree in cases:
        table, gen_ids, steps, elems = oracle_perm_table(gens, degree)
        G = FiniteGroup.from_perm_gens("G", gens, degree=degree)
        assert [x for row in G.rows for x in row] == table
        assert G.generator_data() == (gen_ids, steps)
        assert G._perm_elems == elems
        n = len(elems[0])
        padded = [tuple(g) + tuple(range(len(g), n)) for g in gens]
        degrees.add(n)
        seen.update(tag for tag, occurs in (
            ("short generator", any(len(g) < n for g in gens)),
            ("degree past every generator", degree > max(map(len, gens))),
            ("repeated generator", len(set(padded)) < len(padded)),
            ("identity generator", perms.identity_perm(n) in padded),
            ("trivial group", len(elems) == 1),
            ("three generators", len(set(padded)) == 3)) if occurs)
    assert len(seen) == 6 and set(range(1, 8)) <= degrees


def test_perm_table_costs_one_product_per_translate(monkeypatch):
    calls = []
    mult = perms.mult

    def counted(p, q):
        calls.append(1)
        return mult(p, q)

    monkeypatch.setattr(perms, "mult", counted)
    s4_gens = [perms.parse_cycles("(0 1)", 4),
               perms.parse_cycles("(0 1 2 3)", 4)]
    # order times the two generators
    for gens, order, products in ((shipped_perm_gens("a5.grp"), 60, 120),
                                  (s4_gens, 24, 48)):
        calls.clear()
        assert FiniteGroup.from_perm_gens("G", gens).order == order
        assert len(calls) == products


def test_bad_tables():
    with pytest.raises(GroupError):
        FiniteGroup("bad", [0, 0, 0, 0])
    # a row with a duplicate id, a negative id, an id past the order
    for table in ([0, 1, 2, 1, 2, 0, 2, 2, 1], [0, 1, 2, 1, 2, 0, 2, 0, -1],
                  [0, 1, 2, 1, 2, 0, 2, 0, 3]):
        with pytest.raises(GroupError, match="row 2 of the table"):
            FiniteGroup("bad", table)
    # bijective rows, a two-sided identity and inverses, but column 1 holds
    # id 1 three times
    with pytest.raises(GroupError, match="column 1 of the table"):
        FiniteGroup("bad", [0, 1, 2, 3, 1, 0, 2, 3, 2, 1, 0, 3,
                            3, 1, 2, 0]).check()
    # identity not two-sided: table with rows permuted
    with pytest.raises(GroupError):
        FiniteGroup("bad", [1, 0, 0, 1]).check()
    # non-associative latin square (order 5 quasigroup)
    table = [[0, 1, 2, 3, 4],
             [1, 0, 3, 4, 2],
             [2, 4, 0, 1, 3],
             [3, 2, 4, 0, 1],
             [4, 3, 1, 2, 0]]
    with pytest.raises(GroupError):
        FiniteGroup("quasi", [x for row in table for x in row]).check()


def test_intercalate_loop_is_not_a_group():
    # Z_400 with one intercalate swapped: at rows a, a + n/2 and columns
    # c, c + n/2 the two values trade places, which leaves a loop (a latin
    # square with identity 0) that is not associative
    n, a, c = 400, 3, 5
    cyclic = [(x + y) % n for x in range(n) for y in range(n)]
    table = list(cyclic)
    for x in (a, a + n // 2):
        i, j = x * n + c, x * n + c + n // 2
        table[i], table[j] = table[j], table[i]
    with pytest.raises(GroupError, match="not associative"):
        FiniteGroup.from_table("loop", table)
    assert FiniteGroup.from_table("Z400", cyclic).order == n


def assert_rows(G, product):
    """G.rows is a list of n row tuples of length n, and rows[a][b] is both
    G.mul(a, b) and product(a, b)."""
    n = G.order
    assert type(G.rows) is list and len(G.rows) == n
    for a, row in enumerate(G.rows):
        assert type(row) is tuple and len(row) == n
        assert list(row) == [G.mul(a, b) for b in range(n)]
        assert list(row) == [product(a, b) for b in range(n)]


def test_rows_on_every_construction_path(s4):
    gens = [perms.parse_cycles("(0 1)"), perms.parse_cycles("(0 1 2)")]
    table, _, _, elems = oracle_perm_table(gens)
    index = {p: i for i, p in enumerate(elems)}

    def from_table(a, b):
        return table[a * 6 + b]

    def from_perms(a, b):
        return index[perms.mult(elems[a], elems[b])]

    assert_rows(FiniteGroup.from_table("S3", table), from_table)
    assert_rows(FiniteGroup.from_perm_gens("S3", gens), from_perms)
    text = "group S3 6\ntable\n" + "\n".join(
        " ".join(map(str, table[i:i + 6])) for i in range(0, 36, 6))
    assert_rows(parse_group_text(text), from_table)
    assert_rows(parse_group_text("group S3 6\nperm-gens\n(0 1)\n(0 1 2)\n"),
                from_perms)
    for n in range(1, 6):
        assert_rows(FiniteGroup.cyclic(n), lambda a, b: (a + b) % n)
    assert_rows(FiniteGroup.trivial(), lambda a, b: 0)
    for H in subgroup_lattice(s4).subgroups:
        assert_rows(as_group(s4, H),
                    lambda i, j: H.index(s4.mul(H[i], H[j])))
        if is_normal(s4, H):
            Q, proj = quotient_by_normal(s4, H)
            lift = [proj.index(q) for q in range(Q.order)]
            assert_rows(Q, lambda a, b: proj[s4.mul(lift[a], lift[b])])


def oracle_right_coset_reps(G, H):
    """The least element of every right coset Hg but H, from all of them."""
    cosets = {frozenset(G.mul(h, g) for h in H) for g in G.elements()}
    return sorted(min(c) for c in cosets if 0 not in c)


def test_right_coset_reps_matches_oracle(s4, sl23, a5):
    for G in (s4, sl23, a5):
        for H in subgroup_lattice(G).subgroups:
            assert list(right_coset_reps(G, H)) \
                == oracle_right_coset_reps(G, H), (G, H)


def test_group_file_roundtrip(tmp_path, s3):
    path = tmp_path / "s3.grp"
    write_group_file(str(path), s3)
    loaded = load_group(str(path))
    assert loaded.order == 6 and loaded.rows == s3.rows
    with pytest.raises(GroupError):
        parse_group_text("group broken 6\ntable\n0 1 2")


def test_declared_order_checked_before_the_table(monkeypatch):
    with pytest.raises(GroupError, match="at least 1, got -3"):
        parse_group_text("group G -3 table\n0 0 0\n0 0 0\n0 0 0\n")

    # a wrong perm-gens order is found without closing the 40320^2 table
    def no_table(*args, **kwargs):
        raise AssertionError("table built before the order check")

    monkeypatch.setattr(FiniteGroup, "from_perm_gens", no_table)
    with pytest.raises(GroupError) as exc:
        parse_group_text("group G 6 perm-gens\n(0 1)\n(0 1 2 3 4 5 6 7)\n")
    assert str(exc.value) == "declared order 6 but closure has 40320"
    # S8 with its true order passes the chain, so the order bound must
    # refuse it; the bound comes before the body in both modes
    with pytest.raises(GroupError) as exc:
        parse_group_text("group S8 40320\nperm-gens\n(0 1)\n"
                         "(0 1 2 3 4 5 6 7)\n")
    assert str(exc.value) == "group order 40320 exceeds bound 2048"
    for mode in ("table", "perm-gens"):
        with pytest.raises(GroupError, match="order 2049 exceeds bound"):
            parse_group_text("group G 2049 %s\nx (0 1\n" % mode)
    # the bound itself is allowed: (Z2)^11 reaches the table
    cycles = "".join("(%d %d)\n" % (2 * i, 2 * i + 1) for i in range(11))
    with pytest.raises(AssertionError, match="table built"):
        parse_group_text("group E 2048 perm-gens\n" + cycles)
    # a point past the degree bound is rejected before any permutation
    # of that degree is built
    for point in (70000, 10 ** 12):
        with pytest.raises(GroupError, match="degree %d exceeds bound 65536"
                                             % (point + 1)):
            parse_group_text("group G 2 perm-gens\n(0 %d)\n" % point)


def test_subgroup_invariants(s3):
    assert as_group(s3, tuple(range(6))).rows == s3.rows
    derived = s3.cached(derived_subgroup)
    assert len(derived) == 3
    assert is_normal(s3, derived)


def test_subgroup_lattice_counts(z4, s3, a5):
    for G, count in ((z4, 3), (s3, 6)):
        lat = subgroup_lattice(G)
        assert len(lat.subgroups) == count
        assert lat.classes == oracle_lattice(G)[1]
    # S3: the three subgroups of order 2 are one class
    assert subgroup_lattice(s3).classes == [0, 1, 1, 1, 4, 5]
    lat = subgroup_lattice(a5)
    # exhaustive closure oracle: subgroups generated by all element pairs,
    # saturated under one more generator
    found = {oracle_close(a5, [])}
    for a in a5.elements():
        for b in a5.elements():
            found.add(oracle_close(a5, [a, b]))
    grew = True
    while grew:
        grew = False
        for H in list(found):
            for g in a5.elements():
                K = oracle_close(a5, list(H) + [g])
                if K not in found:
                    found.add(K)
                    grew = True
    subs = sorted(found, key=lambda m: (len(m), m))
    assert lat.subgroups == subs
    # the nine conjugacy classes of subgroups of A5
    assert lat.classes == oracle_classes(a5, subs)
    assert len(set(lat.classes)) == 9


def test_lattice_matches_oracle(s3, a4, s4, sl23, a5):
    s3xz2 = direct_product(s3, FiniteGroup.cyclic(2))   # table mode only
    for G in (*small_groups(), s3, a4, s4, sl23, a5, s3xz2):
        lat = subgroup_lattice(G)
        subs, classes = oracle_lattice(G)
        assert lat.subgroups == subs
        assert lat.classes == classes


def test_lattice_closes_once_per_coset(monkeypatch, a5):
    calls = [0]
    close = groups.close_under_product

    def counted(G, seed_ids):
        calls[0] += 1
        return close(G, seed_ids)

    monkeypatch.setattr(groups, "close_under_product", counted)
    assert len(subgroup_lattice(a5).subgroups) == 59
    # one closure per right coset of one subgroup per conjugacy class (97);
    # one per right coset of every subgroup took 1021, one per element
    # outside it 3250
    assert calls[0] <= 100


def test_closure_matches_oracle(a5, s4, sl23):
    rng = random.Random(11)
    for G in (a5, s4, sl23):
        for _ in range(400):
            seeds = [rng.randrange(G.order) for _ in range(rng.randint(0, 5))]
            assert close_under_product(G, seeds) == oracle_close(G, seeds)


def test_hom_extension_matches_oracle(s3, a4, s4, sl23):
    targets = (s3, a4, s4, sl23)
    for G in targets:
        gen_ids, steps = G.generator_data()
        for H in targets:
            for images in itertools.product(H.elements(), repeat=len(gen_ids)):
                assert (_hom_from_gen_images(G, H, gen_ids, steps, images)
                        == oracle_hom_from_gen_images(G, H, steps, images))


def test_automorphisms_match_oracle(s3, a4, s4, sl23, a5):
    cases = (*small_groups(), s3, a4, s4, sl23, a5)
    for G in cases:
        assert automorphisms(G) == oracle_automorphisms(G)
    assert [len(automorphisms(G)) for G in cases] \
        == [1, 1, 6, 8, 24, 6, 24, 24, 24, 120]


def test_find_isomorphism_is_least(s4):
    subs = [as_group(s4, H) for H in subgroup_lattice(s4).subgroups]
    pairs = 0
    for J in subs:
        for K in subs:
            if J.order == K.order:
                pairs += 1
                assert find_isomorphism(J, K) == oracle_least_isomorphism(J, K)
    assert pairs == 174


def test_automorphism_self_check_fires(monkeypatch):
    s3 = FiniteGroup.from_perm_gens(
        "S3", [perms.parse_cycles("(0 1)", 3), perms.parse_cycles("(0 1 2)", 3)])
    isomorphisms = groups._isomorphisms
    # swapping an involution with a 3-cycle is a bijection but no hom
    t = next(g for g in s3.elements() if s3.element_order(g) == 2)
    c = next(g for g in s3.elements() if s3.element_order(g) == 3)
    swap = list(s3.elements())
    swap[t], swap[c] = c, t

    def with_non_hom(G, H):
        yield from isomorphisms(G, H)
        yield swap

    monkeypatch.setattr(groups, "_isomorphisms", with_non_hom)
    with pytest.raises(GroupError, match="automorphism search produced "
                                         "a non-hom"):
        automorphisms(s3)


def test_lattice_bound():
    # both bounds reject before any closure or search
    z121 = FiniteGroup.cyclic(121)
    with pytest.raises(GroupError, match="subgroup-lattice bound 120"):
        subgroup_lattice(z121)
    with pytest.raises(GroupError, match="automorphism bound 120"):
        automorphisms(z121)


def test_automorphism_counts(z4, s3, a5):
    assert len(automorphisms(z4)) == 2
    assert len(automorphisms(s3)) == 6
    auts = automorphisms(a5)
    assert len(auts) == 120
    rng = random.Random(7)
    for phi in rng.sample(auts, 10):
        for _ in range(50):
            a, b = rng.randrange(60), rng.randrange(60)
            assert phi[a5.mul(a, b)] == a5.mul(phi[a], phi[b])


def test_automorphism_group(s3, a4, s4, sl23, a5, sl25_ext):
    for G in (s3, a4, s4, sl23, a5, sl25_ext.cover):
        A = automorphism_group(G)
        maps = A.maps
        assert automorphism_group(G) is A
        assert A.order == len(maps) == len(automorphisms(G))
        one = tuple(G.elements())
        assert maps == [one] + [phi for phi in automorphisms(G) if phi != one]
        # a * b applies a, then b, composed here entry by entry
        for a, phi in enumerate(maps):
            for b, psi in enumerate(maps):
                assert maps[A.mul(a, b)] == tuple(psi[x] for x in phi)
            assert tuple(maps[A.inv(a)][y] for y in phi) == one
        A.check()
    A = automorphism_group(a5)
    s5 = FiniteGroup.from_perm_gens("S5", [(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)])
    assert find_isomorphism(A, s5) is not None
    assert len(A.cached(derived_subgroup)) == 60


def test_automorphism_group_past_a_table():
    # Aut(Z2^4) = GL(4, 2) has 20160 elements, 4 * 10^8 products in a table
    z2_4 = FiniteGroup("Z2^4", [a ^ b for a in range(16) for b in range(16)])
    A = automorphism_group(z2_4)
    maps = A.maps
    assert A.order == len(maps) == 20160
    one = tuple(z2_4.elements())
    rng = random.Random(8)
    for _ in range(200):
        a, b = rng.randrange(A.order), rng.randrange(A.order)
        assert maps[A.mul(a, b)] == tuple(maps[b][x] for x in maps[a])
        assert tuple(maps[A.inv(a)][y] for y in maps[a]) == one
    seeds = iter(A.elements())
    assert close_under_product(A, seeds) == tuple(A.elements())
    assert next(seeds) < A.order - 1


def test_closure_stops_reading_seeds_once_full(s3):
    gens = s3.generator_data()[0]
    seeds = iter(gens + [1, 2, 3])
    assert close_under_product(s3, seeds) == tuple(s3.elements())
    assert list(seeds) == [1, 2, 3]


def test_commutators_and_abelianization(z4, s3, a5):
    assert a5.is_perfect() and not s3.is_perfect()
    assert [len(G.cached(derived_subgroup)) for G in (s3, z4, a5)] \
        == [3, 1, 60]


def test_quotient_by_normal(s4, sl23):
    quotients = 0
    for G in (s4, sl23, *small_groups()[3:]):
        for N in subgroup_lattice(G).subgroups:
            if not is_normal(G, N):
                continue
            quotients += 1
            Q, proj = quotient_by_normal(G, N)
            assert Q.order == G.order // len(N)
            assert sorted(set(proj)) == list(range(Q.order))
            assert all(proj[G.mul(a, b)] == Q.mul(proj[a], proj[b])
                       for a in G.elements() for b in G.elements())
            assert [a for a in G.elements() if proj[a] == 0] == list(N)
            # ids follow the least member of each coset
            least = [proj.index(q) for q in range(Q.order)]
            assert least == sorted(least) and least[0] == 0
    # S4: 1, V4, A4, S4; SL(2,3): 1, Z2, Q8, SL(2,3); D4: 1, Z2, three of
    # order 4, D4; Q8: 1, Z2, three of order 4, Q8
    assert quotients == 4 + 4 + 6 + 6


def test_generator_data_matches_oracle(s4, sl23, a5):
    z2, z4 = FiniteGroup.cyclic(2), FiniteGroup.cyclic(4)
    tables = [FiniteGroup.cyclic(n) for n in range(1, 13)]
    tables += [direct_product(z2, z4), elementary_abelian(3)]
    # D4 and Q8 as tables, so the search runs rather than the closure data
    tables += [FiniteGroup(G.name, [x for row in G.rows for x in row])
               for G in small_groups()[3:]]
    for G in (s4, sl23, a5):
        tables += [as_group(G, H) for H in subgroup_lattice(G).subgroups]
    for G in (s4, sl23, *small_groups()[3:]):
        tables += [quotient_by_normal(G, N)[0]
                   for N in subgroup_lattice(G).subgroups if is_normal(G, N)]
    tables += [elementary_abelian(k) for k in range(7)]
    for G in tables:
        assert groups._generator_data(G) == oracle_generator_data(G), G


def test_generator_search_closes_once_per_coset(monkeypatch):
    calls = [0]
    close = groups.close_under_product

    def counted(G, seed_ids):
        calls[0] += 1
        return close(G, seed_ids)

    monkeypatch.setattr(groups, "close_under_product", counted)
    G = elementary_abelian(6)
    assert len(G.generator_data()[0]) == 6
    # each step closes one element of every right coset of the reached
    # subgroup but itself, 63 + 31 + ... + 1 = 120, where one per element
    # outside it took 63 + 62 + 60 + 56 + 48 + 1 = 290
    assert calls[0] == 120


def test_find_isomorphism(z4, s3):
    v4 = direct_product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(2))
    assert find_isomorphism(z4, v4) is None
    s3b = FiniteGroup.from_perm_gens(
        "S3b", [perms.parse_cycles("(1 2)", 3), perms.parse_cycles("(0 2 1)", 3)])
    iso = find_isomorphism(s3, s3b)
    assert iso is not None
    for a in s3.elements():
        for b in s3.elements():
            assert iso[s3.mul(a, b)] == s3b.mul(iso[a], iso[b])


def test_stem_extension_file(a5, sl25_ext):
    ext = sl25_ext
    assert ext.cover.order == 120
    assert len(ext.center_ids) == 2
    # central, inside the derived subgroup, kernel exact
    derived = ext.cover.cached(derived_subgroup)
    for z in ext.center_ids:
        assert z in derived
        for g in range(ext.cover.order):
            assert ext.cover.mul(z, g) == ext.cover.mul(g, z)
    kernel = {c for c in range(120) if ext.projection[c] == 0}
    assert kernel == set(ext.center_ids)


def test_concurrent_queries_are_consistent(s3, a4):
    # lazy caches build idempotently; hammer them from worker threads
    from concurrent.futures import ThreadPoolExecutor
    from homcount.counting import dp_count_homs
    from homcount.complexes import csaszar_torus
    X = csaszar_torus()

    def work(_):
        return (len(automorphisms(a4)),
                len(subgroup_lattice(s3).subgroups),
                dp_count_homs(X, None, s3))

    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(work, range(16)))
    assert set(results) == {(24, 6, 18)}


def test_stem_extension_rejects_bad_center(a5, sl25_ext):
    from homcount.groups import StemExtension
    bad = StemExtension(sl25_ext.cover, sl25_ext.projection, (0,))
    with pytest.raises(GroupError):
        bad.validate(a5)


def test_cached_builds_once_per_group(monkeypatch):
    calls = []

    def build(G):
        calls.append(G)
        return [G.order]

    z2, z3 = FiniteGroup.cyclic(2), FiniteGroup.cyclic(3)
    first = z2.cached(build)
    assert z2.cached(build) is first and z3.cached(build) == [3]
    assert calls == [z2, z3]
    # a perm-gens group keeps its closure data: no greedy search runs
    monkeypatch.setattr(groups, "close_under_product", None)
    a4 = FiniteGroup.from_perm_gens(
        "A4", [perms.parse_cycles("(0 1 2)", 4),
               perms.parse_cycles("(1 2 3)", 4)])
    gen_ids, steps = a4.generator_data()
    assert len(gen_ids) == 2 and len(steps) == 11
    monkeypatch.undo()
    z6 = FiniteGroup.cyclic(6)
    gen_ids, steps = z6.generator_data()
    assert z6.generator_data()[0] is gen_ids and len(steps) == 5


def test_invariant_caches_live_on_the_group():
    G = direct_product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(3))
    derived, masks = G.cached(derived_subgroup), subgroup_membership_masks(G)
    assert G.cached(derived_subgroup) is derived
    assert subgroup_membership_masks(G) is masks
    assert derived == {0} and len(masks[0]) == 6
    ref = weakref.ref(G)
    del G
    gc.collect()
    assert ref() is None
