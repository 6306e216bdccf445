import gc
import itertools
import random
import weakref

import pytest

from homcount import perms
from homcount.groups import (FiniteGroup, GroupError, Subgroup,
                             _hom_from_gen_images, abelianization,
                             automorphisms, close_under_product,
                             commutator_subgroup, direct_product,
                             find_isomorphism, load_group, parse_group_text,
                             subgroup_lattice, subgroup_membership_masks,
                             write_group_file)
from conftest import data_path


# -- independent oracles: pairwise closure and the full |G|^2 hom check ---------


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


def _s4():
    return FiniteGroup.from_perm_gens(
        "S4", [perms.parse_cycles("(0 1)", 4),
               perms.parse_cycles("(0 1 2 3)", 4)])


def _sl23():
    """SL(2,3) acting on the eight non-zero vectors of F_3^2."""
    vecs = [(x, y) for x in range(3) for y in range(3) if (x, y) != (0, 0)]
    index = {v: i for i, v in enumerate(vecs)}

    def image(m):
        return tuple(index[((m[0][0] * x + m[0][1] * y) % 3,
                            (m[1][0] * x + m[1][1] * y) % 3)] for x, y in vecs)

    return FiniteGroup.from_perm_gens(
        "SL23", [image(((1, 1), (0, 1))), image(((0, 2), (1, 0)))])


def test_cyclic_table():
    z4 = FiniteGroup.cyclic(4)
    assert z4.order == 4
    assert z4.is_abelian()
    assert z4.inv(1) == 3
    assert z4.element_order(1) == 4
    z4.check()


def test_perm_gen_closure_orders(s3, a5):
    assert s3.order == 6
    assert a5.order == 60


def test_bad_tables():
    with pytest.raises(GroupError):
        FiniteGroup("bad", [0, 0, 0, 0])
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


def test_group_file_roundtrip(tmp_path, s3):
    path = tmp_path / "s3.grp"
    write_group_file(str(path), s3)
    loaded = load_group(str(path))
    assert loaded.order == 6 and loaded._table == s3._table
    with pytest.raises(GroupError):
        parse_group_text("group broken 6\ntable\n0 1 2")


def test_subgroup_invariants(s3):
    with pytest.raises(GroupError):
        Subgroup(s3, (1, 2))          # misses identity
    full = Subgroup(s3, tuple(range(6)))
    assert full.order == 6
    derived = commutator_subgroup(s3)
    assert derived.order == 3
    assert derived.is_normal()


def test_subgroup_lattice_counts(z4, s3, a5):
    assert len(subgroup_lattice(z4).subgroups) == 3
    assert len(subgroup_lattice(s3).subgroups) == 6
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
    assert sorted(H.members for H in lat.subgroups) == sorted(found)
    # containment agrees with set inclusion
    for i, A in enumerate(lat.subgroups):
        for j, B in enumerate(lat.subgroups):
            assert lat.contains[i][j] == (set(B.members) <= set(A.members))


def test_closure_matches_oracle(a5):
    rng = random.Random(11)
    for G in (a5, _s4(), _sl23()):
        for _ in range(400):
            seeds = [rng.randrange(G.order) for _ in range(rng.randint(0, 5))]
            assert close_under_product(G, seeds) == oracle_close(G, seeds)


def test_hom_extension_matches_oracle(s3, a4):
    targets = (s3, a4, _s4(), _sl23())
    for G in targets:
        gen_ids, steps = G.generator_data()
        for H in targets:
            for images in itertools.product(H.elements(), repeat=len(gen_ids)):
                assert (_hom_from_gen_images(G, H, gen_ids, steps, images)
                        == oracle_hom_from_gen_images(G, H, steps, images))


def test_automorphisms_match_oracle(s3, a4, a5):
    for G in (s3, a4, _s4(), a5):
        assert automorphisms(G) == oracle_automorphisms(G)


def test_lattice_bound(a5):
    with pytest.raises(GroupError):
        subgroup_lattice(a5, order_bound=10)


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


def test_commutators_and_abelianization(z4, s3, a5):
    assert commutator_subgroup(z4).order == 1
    assert commutator_subgroup(a5).order == 60
    assert a5.is_perfect() and not s3.is_perfect()
    ab = abelianization(s3)
    assert ab.quotient.order == 2
    assert abelianization(z4).quotient.order == 4
    assert abelianization(a5).quotient.order == 1
    # projection is a homomorphism with kernel the derived subgroup
    D = set(commutator_subgroup(s3).members)
    for a in s3.elements():
        for b in s3.elements():
            assert ab(s3.mul(a, b)) == ab.quotient.mul(ab(a), ab(b))
    assert {a for a in s3.elements() if ab(a) == 0} == D


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
    derived = set(commutator_subgroup(ext.cover).members)
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


def test_invariant_caches_live_on_the_group():
    G = direct_product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(3))
    ab, masks = G.ab_map, subgroup_membership_masks(G)
    assert G.ab_map is ab and subgroup_membership_masks(G) is masks
    assert ab.quotient.order == 6 and len(masks[0]) == 6
    ref = weakref.ref(G)
    del G
    gc.collect()
    assert ref() is None
