import random
from itertools import product

import pytest

from homcount import perms, surfaces
from homcount.groups import (FiniteGroup, GroupError, automorphism_group,
                             automorphisms, close_under_product,
                             subgroup_membership_masks)
from homcount.surfaces import (AutTables, HeegaardGluing, MCGGenerator,
                               OrbitReport, OrbitRow, RepSampler, SurfaceError,
                               _check_genus, _column_ops, commutator_solutions,
                               aut_classes, count_reps, generation_test,
                               gluing_h1, heegaard_count, is_torelli_word,
                               load_gluing, mcg_apply, orbit_report,
                               inverse_word, parse_gluing_text, relator,
                               resolve_word, run_word, schur_invariant,
                               standard_generators, surface_relation_holds,
                               surface_relator, word_h1_matrix)
from homcount.counting import (DEFAULT_LIMITS, CountingLimits,
                               WorkBoundExceeded)


def enumerate_reps(g, G, filter="all", limits=DEFAULT_LIMITS, ext=None):
    """An iterator over the genus-g representation tuples passing the filter.

    Walks the |G|^(2g-2) prefixes in lexicographic order and reads the
    solutions of the surface relation in the last handle off the
    commutator-solution table; genus 0 has the one empty tuple.  filter is
    one of "all", "surjective", "schur-zero" (the latter needs a stem
    extension and a perfect target).
    """
    _check_genus(g)
    if filter not in ("all", "surjective", "schur-zero"):
        raise SurfaceError("unknown filter %r" % filter)
    if filter == "schur-zero" and ext is None:
        raise SurfaceError("schur-zero filter needs a stem extension")
    if G.order ** (2 * g - 1) > limits.max_enumeration:
        raise WorkBoundExceeded(
            "enumeration %d^%d exceeds budget" % (G.order, 2 * g - 1))
    if g == 0:
        tuples = iter([()])
    else:
        sols = commutator_solutions(G)
        tuples = (prefix + ab
                  for prefix in product(G.elements(), repeat=2 * g - 2)
                  for ab in sols[G.inv(surface_relator(G, prefix))])
    if filter == "all":
        return tuples
    generates = generation_test(G)
    return (t for t in tuples if generates(t) and (
        filter == "surjective" or schur_invariant(t, G, ext) == 0))


# -- oracles: one tuple at a time, through the group's own mul and inv ---------


def unapply(gen, G, tup):
    """One generator's inverse step, through its inverse rule."""
    return gen.inverse_rule(tup, G.mul, G.inv)


def is_homology_sphere_gluing(h):
    rank, torsion = gluing_h1(h)
    return rank == 0 and not torsion


def oracle_mcg_apply(word, G, tup):
    """Apply a word letter by letter with MCGGenerator.apply and unapply."""
    table = {gen.name: gen for gen in standard_generators(len(tup) // 2)}
    for name in word:
        if name.endswith("'"):
            tup = unapply(table[name[:-1]], G, tup)
        else:
            tup = table[name].apply(G, tup)
    assert surface_relation_holds(G, tup)
    return tup


def orbit_report_tuples(seeds, G, g, ext=None, max_visited=2_000_000):
    """Oracle for orbit_report: the walk over every tuple of every orbit,
    one generator step at a time, with the Schur class of every surjective
    tuple and Aut-closure read off the stored orbit."""
    gens = standard_generators(g)
    auts = automorphisms(G)
    surjective = generation_test(G)

    seen = {}
    rows = []
    for seed in seeds:
        seed = tuple(seed)
        if len(seed) != 2 * g:
            raise SurfaceError("seed has %d entries, genus %d needs %d"
                               % (len(seed), g, 2 * g))
        if not surface_relation_holds(G, seed):
            raise SurfaceError("seed violates the surface relation")
        if seed in seen:
            continue
        orbit = {seed}
        frontier = [seed]
        room = max_visited - len(seen)
        while frontier:
            if len(orbit) > room:
                raise WorkBoundExceeded("orbit memory bound hit")
            t = frontier.pop()
            for nxt in (gen.apply(G, t) for gen in gens):
                if nxt not in orbit:
                    orbit.add(nxt)
                    frontier.append(nxt)
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


def oracle_heegaard(h, G):
    """(homs, surjections): pull every (1, b1, .., 1, bg) back through the
    inverse word one tuple at a time."""
    inverse = [n[:-1] if n.endswith("'") else n + "'" for n in reversed(h.word)]
    masks, full_bit = subgroup_membership_masks(G)
    homs = surj = 0
    bs = [()]
    for _ in range(h.genus):
        bs = [t + (x,) for t in bs for x in G.elements()]
    for bvals in bs:
        pulled = oracle_mcg_apply(inverse, G,
                                  tuple(x for b in bvals for x in (0, b)))
        if all(pulled[2 * i] == 0 for i in range(h.genus)):
            homs += 1
            acc = -1
            for b in bvals:
                acc &= masks[b]
            surj += acc == full_bit
    return homs, surj


def random_word(rng, g, max_len=10):
    names = [gen.name for gen in standard_generators(g)]
    return [rng.choice(names) + rng.choice(["", "'"])
            for _ in range(rng.randrange(max_len + 1))]


def test_rep_counts_and_enumeration(s3, a5):
    assert count_reps(1, s3) == 18
    assert count_reps(1, a5) == 300
    reps = list(enumerate_reps(1, s3))
    assert len(reps) == 18
    assert (0, 0) in set(reps)
    surj = list(enumerate_reps(1, s3, filter="surjective"))
    assert surj == []                      # commuting pairs are never S3
    assert len(list(enumerate_reps(2, s3))) == count_reps(2, s3)


def test_enumerate_schur_zero(a5, sl25_ext):
    total = 0
    zero = 0
    rng = random.Random(0)
    sampler = RepSampler(2, a5)
    for _ in range(100):
        t = sampler.draw(rng)
        total += 1
        if schur_invariant(t, a5, sl25_ext) == 0:
            zero += 1
    assert 0 < zero < total


def test_generators_preserve_relation(s3, a5):
    rng = random.Random(1)
    # sep2 and swap2 act from genus 3: the separating twist conjugates by
    # the whole relator prefix, the swap by the moved handle's commutator
    for G, g, draws in ((s3, 2, 300), (s3, 3, 60), (a5, 3, 60), (a5, 4, 60)):
        sampler = RepSampler(g, G)
        gens = standard_generators(g)
        assert len(gens) == 5 * g - 3
        for _ in range(draws):
            t = sampler.draw(rng)
            for gen in gens:
                t2 = gen.apply(G, t)
                assert surface_relation_holds(G, t2), gen.name
                assert unapply(gen, G, t2) == t, gen.name


def test_generators_bijective_on_rep_set(s3):
    tups = set(enumerate_reps(1, s3))
    for gen in standard_generators(1):
        assert {gen.apply(s3, t) for t in tups} == tups


def test_mcg_word_interface(s3):
    t = (1, 1)
    assert mcg_apply([], s3, t) == t
    out = mcg_apply(["ta1", "ta1'"], s3, t)
    assert out == t
    with pytest.raises(SurfaceError):
        mcg_apply(["nope"], s3, t)
    # g=1 a-twist: (a, b) -> (a, ba)
    a, b = 2, 4
    if s3.mul(a, b) == s3.mul(b, a):
        got = mcg_apply(["ta1"], s3, (a, b))
        assert got == (a, s3.mul(b, a))


def test_h1_matrices():
    assert word_h1_matrix(["ta1"], 1) == [[1, 0], [1, 1]]
    assert not is_torelli_word(["ta1"], 1)
    assert is_torelli_word(["sep1"], 2)
    assert is_torelli_word([], 2)
    # inverse word cancels
    assert is_torelli_word(["ta1", "tb2", "tb2'", "ta1'"], 2)
    assert not is_torelli_word(["swap1"], 2)


def test_schur_lift_independence(a5, sl25_ext):
    rng = random.Random(2)
    sampler = RepSampler(2, a5)
    for _ in range(20):
        t = sampler.draw(rng)
        base = schur_invariant(t, a5, sl25_ext)
        for _ in range(20):
            assert schur_invariant(t, a5, sl25_ext, rng=rng) == base


def test_schur_requires_perfect(s3, sl25_ext):
    with pytest.raises(GroupError):
        schur_invariant((0, 0), s3, sl25_ext)


def test_schur_rejects_bad_tuple(a5, sl25_ext):
    bad = None
    for a in range(1, 60):
        for b in range(1, 60):
            if a5.comm(a, b) != 0:
                bad = (a, b)
                break
        if bad:
            break
    with pytest.raises(SurfaceError):
        schur_invariant(bad, a5, sl25_ext)


def test_schur_additivity(a5, sl25_ext):
    rng = random.Random(3)
    sampler = RepSampler(2, a5)
    C = sl25_ext.cover
    for _ in range(40):
        t1, t2 = sampler.draw(rng), sampler.draw(rng)
        s12 = schur_invariant(t1 + t2, a5, sl25_ext)
        assert s12 == C.mul(schur_invariant(t1, a5, sl25_ext),
                            schur_invariant(t2, a5, sl25_ext))


def test_orbit_report_trivial_seed(s3):
    rep = orbit_report([(0, 0, 0, 0)], s3, 2)
    assert rep.rows[0].size == 1
    assert not rep.rows[0].surjective
    assert rep.rows[0].aut_closed


def test_orbit_report_classes(s3):
    rng = random.Random(4)
    sampler = RepSampler(2, s3)
    seeds = [sampler.draw(rng) for _ in range(5)] + [(0, 0, 0, 0)]
    rep = orbit_report(seeds, s3, 2)
    assert sum(r.size for r in rep.rows) == rep.visited
    assert rep.visited <= count_reps(2, s3)


def orbit_seeds(G, g, n, rng, keep=lambda t: True):
    sampler = RepSampler(g, G)
    seeds = []
    while len(seeds) < n:
        t = sampler.draw(rng)
        if keep(t):
            seeds.append(t)
    return seeds


def assert_matches_tuple_walk(seeds, G, g, ext=None):
    rep = orbit_report(seeds, G, g, ext=ext)
    assert rep == orbit_report_tuples(seeds, G, g, ext=ext)
    return rep


def test_orbit_classes_match_tuple_walk_s3_s4(s3, s4):
    rng = random.Random(4)
    sampler = RepSampler(2, s3)
    # the seeds of test_orbit_report_classes
    assert_matches_tuple_walk(
        [sampler.draw(rng) for _ in range(5)] + [(0, 0, 0, 0)], s3, 2)
    assert_matches_tuple_walk(orbit_seeds(s3, 1, 6, rng), s3, 1)
    rep = assert_matches_tuple_walk(
        orbit_seeds(s4, 2, 8, random.Random(15)) + [(0, 0, 0, 0)], s4, 2)
    assert len(rep.rows) > 2


def test_canonical_form_is_least_aut_image(a5):
    aut = a5.cached(AutTables)
    assert a5.cached(AutTables) is aut
    rng = random.Random(16)
    for t in orbit_seeds(a5, 2, 200, rng) + [(0, 0, 0, 0), (0, 0, 0, 5)]:
        r, k = aut.canonical(t)
        assert r == min(tuple(phi[x] for x in t) for phi in aut.auts)
        assert aut.image(k, t) == r
    A = automorphism_group(a5)
    maps = A.maps
    assert maps is aut.auts and maps[0] == tuple(a5.elements())
    for k in A.elements():
        # inverses against composition entry by entry, and against products
        assert tuple(maps[A.inv(k)][y] for y in maps[k]) == maps[0]
        assert A.mul(k, A.inv(k)) == 0
    assert len(aut.inner) == 60 and A.order == 120
    index = {phi: k for k, phi in enumerate(maps)}
    assert aut.inner == sorted(
        {index[tuple(a5.mul(a5.mul(a, x), a5.inv(a)) for x in a5.elements())]
         for a in a5.elements()})


def test_orbit_report_with_aut_past_a_table():
    # Aut(Z2^4) = GL(4, 2) of order 20160: the orbit walk closes S without
    # an |Aut|^2 table, and its reports are those the tuple walk gives
    z2_4 = FiniteGroup("Z2^4", [a ^ b for a in range(16) for b in range(16)])
    for seeds, g, visited, rows in [
            ([(1, 2), (3, 0), (0, 0)], 1, 10,
             [(6, False, False), (3, False, False), (1, False, True)]),
            ([(1, 2, 4, 8), (1, 2, 0, 0), (0, 5, 0, 0), (0, 0, 0, 0)], 2, 856,
             [(720, True, False), (120, False, False), (15, False, False),
              (1, False, True)])]:
        rep = assert_matches_tuple_walk(seeds, z2_4, g)
        assert rep.visited == visited
        assert [(r.size, r.surjective, r.aut_closed) for r in rep.rows] == rows


def test_orbit_classes_match_tuple_walk_non_surjective(a5, sl25_ext):
    # proper-subgroup seeds: Aut-stabilizers are not trivial and orbits are
    # not closed under Aut
    surjective = generation_test(a5)
    rng = random.Random(5)
    seeds = orbit_seeds(a5, 2, 4, rng, lambda t: any(t) and not surjective(t))
    # (a, 1, b, 1) with <a, b> of order at most 6, whose centralizer in
    # Aut(A5) = S5 is not trivial
    while len(seeds) < 8:
        a, b = rng.randrange(60), rng.randrange(60)
        if 1 < len(close_under_product(a5, [a, b])) <= 6:
            seeds.append((a, 0, b, 0))
    rep = assert_matches_tuple_walk(seeds, a5, 2, ext=sl25_ext)
    assert not any(row.aut_closed for row in rep.rows)
    assert {2880, 1920} <= {row.size for row in rep.rows}
    auts = automorphisms(a5)
    assert any(sum(tuple(phi[x] for x in t) == t for phi in auts) > 1
               for t in seeds)


def test_orbit_seed_skip_rule(a5):
    # every Aut-image of one seed: images under the orbit's stabilizer S
    # are skipped, each coset of S outside it starts a new orbit
    surjective = generation_test(a5)
    seed, = orbit_seeds(a5, 2, 1, random.Random(17),
                        lambda t: any(t) and not surjective(t))
    auts = automorphisms(a5)
    rep = assert_matches_tuple_walk(
        [tuple(phi[x] for x in seed) for phi in auts], a5, 2)
    assert 1 < len(rep.rows) < len(auts)


def test_orbit_classes_match_tuple_walk_schur(a5, sl25_ext):
    surjective = generation_test(a5)
    seeds = orbit_seeds(a5, 2, 1, random.Random(18), lambda t: surjective(t)
                        and schur_invariant(t, a5, sl25_ext) != 0)
    rep = assert_matches_tuple_walk(seeds, a5, 2, ext=sl25_ext)
    assert rep.rows[0].size == 69120


def test_orbit_schur_classes_never_mix(a5, sl25_ext):
    # small sampled orbits on the genus-2 A5 set; orbit_report itself raises
    # if an orbit mixes Schur classes
    rng = random.Random(5)
    sampler = RepSampler(2, a5)
    seeds = []
    while len(seeds) < 2:
        t = sampler.draw(rng)
        # keep tiny orbits out: demand a surjective tuple
        if len(close_under_product(a5, t)) == 60:
            seeds.append(t)
    rep = orbit_report(seeds[:1], a5, 2, ext=sl25_ext,
                       limits=CountingLimits(max_states=400_000))
    assert rep.rows[0].schur_class in (0, sl25_ext.center_ids[1])


def test_mcg_commutes_with_automorphisms(s3, a5):
    # every rule combines its inputs only through mul and inv, so it
    # commutes with every automorphism, on single tuples and on columns
    rng = random.Random(6)
    for G, n in ((s3, 100), (a5, 200)):
        mul, inv = _column_ops(G)
        sampler = RepSampler(2, G)
        tuples = [sampler.draw(rng) for _ in range(n)]
        auts = automorphisms(G)
        phis = [auts[rng.randrange(len(auts))] for _ in tuples]
        images = [tuple(phi[x] for x in t) for phi, t in zip(phis, tuples)]
        for gen in standard_generators(2):
            for rule in (gen.rule, gen.inverse_rule):
                outs = [rule(t, G.mul, G.inv) for t in tuples]
                lhs = [tuple(phi[x] for x in out)
                       for phi, out in zip(phis, outs)]
                assert lhs == [rule(u, G.mul, G.inv) for u in images]
                assert list(zip(*rule(columns_of(tuples), mul, inv))) == outs
                assert list(zip(*rule(columns_of(images), mul, inv))) == lhs


def test_orbit_transitivity_recorded(a5, sl25_ext):
    """Empirical transitivity at genus 2: recorded, not asserted as theory.

    The guaranteed statement holds only for large genus; the report line
    documents what the loaded generator set actually achieves for A5.
    """
    from homcount.groups import subgroup_membership_masks
    rng = random.Random(7)
    sampler = RepSampler(2, a5)
    masks, full_bit = subgroup_membership_masks(a5)

    def surjective(t):
        acc = -1
        for x in t:
            acc &= masks[x]
        return acc == full_bit

    seed = None
    while seed is None:
        t = sampler.draw(rng)
        if surjective(t) and schur_invariant(t, a5, sl25_ext) == 0:
            seed = t
    rep = orbit_report([seed], a5, 2, ext=sl25_ext,
                       limits=CountingLimits(max_states=2_000_000))
    total = sum(1 for _ in enumerate_reps(2, a5, filter="schur-zero",
                                          ext=sl25_ext))
    print("[RECORD] genus-2 A5 schur-zero orbit: size %d of %d, "
          "transitive=%s, aut-closed=%s"
          % (rep.rows[0].size, total, rep.rows[0].size == total,
             rep.rows[0].aut_closed))
    assert rep.rows[0].size <= total


def test_gluing_file():
    h = parse_gluing_text("genus 2\nword ta1 tb2' sep1\n")
    assert h.genus == 2 and h.word == ["ta1", "tb2'", "sep1"]
    with pytest.raises(SurfaceError):
        parse_gluing_text("word x\n")


def test_heegaard_empty_word(s3, a5):
    for g in (1, 2, 3):
        assert heegaard_count(HeegaardGluing(g, []), s3).homs == 6 ** g
    for g in (1, 2):
        assert heegaard_count(HeegaardGluing(g, []), a5).homs == 60 ** g


def test_heegaard_budget(s3):
    # |G|^g against the budget, exact at the boundary
    gluing = HeegaardGluing(2, ["tb1"])
    assert heegaard_count(gluing, s3,
                          CountingLimits(max_enumeration=36)).homs == 6
    with pytest.raises(WorkBoundExceeded, match="6\\^2 over budget"):
        heegaard_count(gluing, s3, CountingLimits(max_enumeration=35))
    # a huge genus is rejected without building 6^g
    with pytest.raises(WorkBoundExceeded, match="6\\^100000000 over budget"):
        heegaard_count(HeegaardGluing(10 ** 8, ["tb1"]), s3)


def test_heegaard_lens_space(s3, a5):
    out = heegaard_count(HeegaardGluing(1, ["tb1"] * 5), a5)
    assert out.homs == 25
    assert out.surjections == 0 and out.quotients == 0
    assert heegaard_count(HeegaardGluing(1, ["tb1"] * 5), s3).homs == 1


def test_heegaard_conjugate_gluings_agree(s3):
    base = heegaard_count(HeegaardGluing(1, ["tb1", "tb1"]), s3)
    conj = heegaard_count(
        HeegaardGluing(1, ["ta1", "tb1", "tb1", "ta1'"]), s3)
    assert base.homs == conj.homs


def test_gluing_h1_values():
    assert gluing_h1(HeegaardGluing(2, [])) == (2, [])
    assert gluing_h1(HeegaardGluing(1, ["tb1"] * 5)) == (0, [5])
    assert gluing_h1(HeegaardGluing(1, ["tb1"])) == (0, [])
    assert gluing_h1(HeegaardGluing(1, ["ta1"])) == (1, [])
    assert is_homology_sphere_gluing(HeegaardGluing(1, ["tb1"]))
    assert not is_homology_sphere_gluing(HeegaardGluing(1, ["tb1"] * 5))
    # the standard genus-2 chain word glues S^3: a homology sphere whose
    # only homomorphism to A5 is trivial
    chain = HeegaardGluing(2, ["tb1", "ta1", "chain1", "ta2", "tb2"])
    assert is_homology_sphere_gluing(chain)


def test_heegaard_s3_chain_word(a5):
    chain = HeegaardGluing(2, ["tb1", "ta1", "chain1", "ta2", "tb2"])
    out = heegaard_count(chain, a5)
    assert out.homs == 1 and out.surjections == 0


def test_heegaard_poincare_like_word(a5):
    # a genus-2 Torelli-checkable word; counts stay consistent with Aut dedup
    h = HeegaardGluing(2, ["sep1"])
    out = heegaard_count(h, a5)
    assert out.surjections % len(automorphisms(a5)) == 0
    assert h.is_torelli()


def test_heegaard_homology_sphere_profile(a5, s3, a4):
    """The bundled genus-2 gluing is a homology sphere whose counts match
    the Poincare sphere: 121 homomorphisms to A5, one quotient, nothing
    into proper subgroups, and the affine identity 121 = 120 * 1 + 1."""
    from conftest import data_path
    h = load_gluing(data_path("hsphere.glu"))
    assert is_homology_sphere_gluing(h)
    out = heegaard_count(h, a5)
    assert (out.homs, out.surjections, out.quotients) == (121, 120, 1)
    assert heegaard_count(h, s3).homs == 1
    assert heegaard_count(h, a4).homs == 1
    assert out.homs == len(automorphisms(a5)) * out.quotients + 1


# -- column evaluation against the oracles -------------------------------------


def columns_of(tuples):
    """Tuples of equal length stacked into columns, one row per tuple."""
    return tuple(map(list, zip(*tuples)))


def check_steps(G, tuples):
    """The forward steps, run over columns, against apply per tuple; each
    inverse rule, through its ' letter, against unapply."""
    mul, inv = _column_ops(G)
    columns = columns_of(tuples)
    for gen in standard_generators(2):
        assert list(zip(*gen.rule(columns, mul, inv))) == [
            gen.apply(G, t) for t in tuples]
        for t in tuples:
            assert mcg_apply([gen.name + "'"], G, t) == unapply(gen, G, t)


def test_column_steps_match_generators_s3(s3):
    check_steps(s3, list(enumerate_reps(2, s3)))


def test_column_steps_match_generators_a5(a5):
    rng = random.Random(8)
    sampler = RepSampler(2, a5)
    check_steps(a5, [sampler.draw(rng) for _ in range(2000)])


def test_heegaard_matches_oracle(s3, a4, s4, sl23, a5):
    from conftest import data_path
    rng = random.Random(9)
    cases = [(G, 1 + k % 2) for G in (s3, a4, s4) for k in range(20)]
    cases += [(s3, 3)] * 6 + [(sl23, 2)] * 8 + [(a4, 3)] * 3 + [(a5, 2)] * 3
    gluings = [(G, HeegaardGluing(g, random_word(rng, g))) for G, g in cases]
    # 120 surjections onto A5
    gluings.append((a5, load_gluing(data_path("hsphere.glu"))))
    surjective = set()
    for G, h in gluings:
        out = heegaard_count(h, G)
        assert (out.homs, out.surjections) == oracle_heegaard(h, G), h
        if out.surjections:
            surjective.add((G.name, h.genus))
    assert {("SL23", 2), ("A4", 3), ("A5", 2)} <= surjective


def brute_force_classes(G, g):
    """The Aut(G)-orbits of G^g, each found by applying every automorphism
    to the least tuple not yet covered."""
    auts = automorphisms(G)
    orbits, seen = [], set()
    for t in product(G.elements(), repeat=g):
        if t not in seen:
            orbit = {tuple(phi[x] for x in t) for phi in auts}
            seen |= orbit
            orbits.append(orbit)
    return orbits


def check_aut_classes(G, g):
    classes = aut_classes(G, g)
    orbits = brute_force_classes(G, g)
    assert len(classes) == len(orbits)
    orbit_of = {t: k for k, orbit in enumerate(orbits) for t in orbit}
    assert sorted(orbit_of[r] for r, _ in classes) == list(range(len(orbits)))
    for r, size in classes:
        assert r == min(orbits[orbit_of[r]])
        assert size == len(orbits[orbit_of[r]])
    assert sum(size for _, size in classes) == G.order ** g


def test_aut_classes_partition_tuples(s3, a4, s4):
    for G, g in [(G, g) for G in (s3, a4, s4) for g in (0, 1, 2)] + [(s3, 3)]:
        check_aut_classes(G, g)


def fresh_copy(G):
    """G rebuilt from its table, with nothing memoised."""
    return FiniteGroup(G.name, [x for row in G.rows for x in row])


def aut_class_memo(G):
    return G.cached(surfaces._aut_class_memo)


def test_aut_classes_memo_out_of_order(s3):
    # each genus is built on a miss and read back on a hit, in any order
    G = fresh_copy(s3)
    for g in (3, 1, 2, 0, 2):
        check_aut_classes(G, g)
    assert sorted(aut_class_memo(G)) == [0, 1, 2, 3]
    assert aut_classes(G, 2) is aut_classes(G, 2)


def test_aut_classes_memo_skips_refused_counts(s3):
    G = fresh_copy(s3)
    with pytest.raises(WorkBoundExceeded, match="6\\^2 over budget"):
        heegaard_count(HeegaardGluing(2, ["tb1"]), G,
                       CountingLimits(max_enumeration=35))
    with pytest.raises(SurfaceError, match="genus 129 exceeds bound 128"):
        aut_classes(G, 129)
    assert aut_class_memo(G) == {}
    heegaard_count(HeegaardGluing(1, ["tb1"]), G)
    assert list(aut_class_memo(G)) == [1]


def test_aut_classes_memo_is_read_only(s3):
    G = fresh_copy(s3)
    before = aut_classes(G, 2)
    expect = list(before)
    with pytest.raises(TypeError):
        before[0] = ((5, 5), 1)
    with pytest.raises(TypeError):
        before[1][0][0] = 5
    assert list(aut_classes(G, 2)) == expect


def test_heegaard_counts_warm_equal_fresh(s3, s4, sl23, a5):
    rng = random.Random(34)
    for G, genera in ((s3, (1, 2, 3)), (s4, (1, 2)), (sl23, (1, 2)),
                      (a5, (1, 2))):
        for g in genera:
            for _ in range(4):
                h = HeegaardGluing(g, random_word(rng, g))
                warm = heegaard_count(h, G)
                assert heegaard_count(h, G) == warm
                assert heegaard_count(h, fresh_copy(G)) == warm


def test_mcg_apply_matches_oracle(s3, a4):
    rng = random.Random(10)
    for G in (s3, a4):
        for g in (1, 2, 3):
            sampler = RepSampler(g, G)
            for _ in range(15):
                word, t = random_word(rng, g), sampler.draw(rng)
                assert mcg_apply(word, G, t) == oracle_mcg_apply(word, G, t)


def test_inverse_word_undoes_word(s3):
    rng = random.Random(12)
    sampler = RepSampler(2, s3)
    for _ in range(50):
        letters = resolve_word(random_word(rng, 2), 2)
        t = sampler.draw(rng)
        image = run_word(letters, t, s3.mul, s3.inv)
        assert run_word(inverse_word(letters), image, s3.mul, s3.inv) == t


def test_orbit_bound_counts_every_orbit(s3):
    rng = random.Random(4)
    sampler = RepSampler(2, s3)
    drawn = [sampler.draw(rng) for _ in range(5)]
    # the one-tuple orbit of the trivial seed first, and last
    for seeds in ([(0, 0, 0, 0)] + drawn, drawn + [(0, 0, 0, 0)]):
        visited = orbit_report(seeds, s3, 2).visited
        limits = CountingLimits(max_states=visited)
        assert orbit_report(seeds, s3, 2, limits=limits).visited == visited
        with pytest.raises(WorkBoundExceeded):
            orbit_report(seeds, s3, 2,
                         limits=CountingLimits(max_states=visited - 1))


def broken_twist_a(i, g):
    """ta with a_i replaced by the last slot: leaves the relation."""
    def rule(t, mul, inv):
        out = list(t)
        out[2 * i] = t[-1]
        return tuple(out)
    return MCGGenerator("ta%d" % (i + 1), rule, rule)


def test_broken_rule_is_caught(s3, monkeypatch):
    handle_twist = surfaces._handle_twist
    monkeypatch.setattr(
        surfaces, "_handle_twist", lambda i, g, kind: broken_twist_a(i, g)
        if kind == "a" else handle_twist(i, g, kind))
    with pytest.raises(SurfaceError, match="broke the surface relation"):
        heegaard_count(HeegaardGluing(2, ["tb2", "ta1"]), s3)
    with pytest.raises(SurfaceError, match="broke the surface relation"):
        mcg_apply(["ta1"], s3, (0, 1, 0, 2))


def test_column_relator_matches_schur_invariant(a5, sl25_ext):
    rng = random.Random(13)
    sampler = RepSampler(2, a5)
    tuples = [sampler.draw(rng) for _ in range(300)]
    lifted = columns_of([[sl25_ext.lifts[x][0] for x in t] for t in tuples])
    mul, inv = _column_ops(sl25_ext.cover)
    assert relator(lifted, mul, inv, [0] * len(tuples)) == [
        schur_invariant(t, a5, sl25_ext) for t in tuples]


def test_orbit_schur_check_catches_broken_rules(a5, sl25_ext, monkeypatch):
    masks, full_bit = subgroup_membership_masks(a5)

    def surjective(t):
        acc = -1
        for x in t:
            acc &= masks[x]
        return acc == full_bit

    broken = broken_twist_a(0, 2)
    rng = random.Random(14)
    sampler = RepSampler(2, a5)
    while True:
        seed = sampler.draw(rng)
        image = broken.apply(a5, seed)
        if (surjective(seed) and surjective(image)
                and not surface_relation_holds(a5, image)):
            break
    monkeypatch.setattr(surfaces, "standard_generators", lambda g: [broken])
    with pytest.raises(SurfaceError, match="violates the surface relation"):
        orbit_report([seed], a5, 2, ext=sl25_ext)


def test_unknown_names_are_typed_errors():
    for call in (lambda: gluing_h1(HeegaardGluing(1, ["ta1", "foo"])),
                 lambda: is_torelli_word(["ta3"], 2),
                 lambda: word_h1_matrix(["ta1''"], 1)):
        with pytest.raises(SurfaceError, match="unknown mapping class"):
            call()
    with pytest.raises(SurfaceError, match="'foo'"):
        heegaard_count(HeegaardGluing(1, ["ta1", "foo"]), FiniteGroup.trivial())


def test_mcg_apply_rejects_malformed_tuples(s3):
    with pytest.raises(SurfaceError, match="odd length 3"):
        mcg_apply(["ta1"], s3, (0, 1, 0))
    with pytest.raises(SurfaceError, match="entry 7 is not an element"):
        mcg_apply(["ta1"], s3, (7, 1))
    with pytest.raises(SurfaceError, match="entry -1 is not an element"):
        mcg_apply(["tb1'"], s3, (0, -1))


def test_genus_and_seed_length_checked(s4):
    G = FiniteGroup.cyclic(2)
    assert list(enumerate_reps(0, G)) == [()] and count_reps(0, G) == 1
    for call in (enumerate_reps, count_reps,
                 lambda g, G: RepSampler(g, G).draw(random.Random(0))):
        with pytest.raises(SurfaceError, match="non-negative, got -1"):
            call(-1, G)
    with pytest.raises(SurfaceError):
        parse_gluing_text("genus -1\nword\n")
    assert parse_gluing_text("genus 0\n").genus == 0
    assert parse_gluing_text("genus 128\n").genus == 128
    with pytest.raises(SurfaceError, match="genus 1000000 exceeds bound 128"):
        parse_gluing_text("genus 1000000\nword tb1\n")
    assert heegaard_count(HeegaardGluing(0, []), s4).homs == 1
    for seeds, g in (([(0, 0)], -1), ([(0, 0)], 2)):
        with pytest.raises(SurfaceError):
            orbit_report(seeds, s4, g)
    # orbit walks and samplers take a genus up to the gluing bound
    assert orbit_report([(0,) * 256], s4, 128).visited == 1
    assert len(RepSampler(128, G).draw(random.Random(0))) == 256
    # so do Heegaard counts and the homology of a gluing; a count's budget
    # is checked first, so only the trivial group or a budget of 2^129
    # reaches the genus bound
    trivial = FiniteGroup.cyclic(1)
    assert heegaard_count(HeegaardGluing(128, []), trivial).homs == 1
    for call in (lambda: orbit_report([(0,) * 258], s4, 129),
                 lambda: RepSampler(129, G),
                 lambda: aut_classes(s4, 129),
                 lambda: gluing_h1(HeegaardGluing(129, [])),
                 lambda: heegaard_count(HeegaardGluing(129, []), trivial),
                 lambda: heegaard_count(HeegaardGluing(129, ["tb1"]), G,
                                        CountingLimits(
                                            max_enumeration=2 ** 129))):
        with pytest.raises(SurfaceError, match="^genus 129 exceeds bound 128$"):
            call()


def test_schur_invariant_leaves_the_extension_alone(a5, sl25_ext):
    before = dict(vars(sl25_ext))
    t = RepSampler(2, a5).draw(random.Random(11))
    schur_invariant(t, a5, sl25_ext)
    assert vars(sl25_ext).keys() == before.keys()
    assert all(sl25_ext.projection[c] == x
               for x, cs in sl25_ext.lifts.items() for c in cs)
