"""The four benchmark workloads.

Each builder receives the freshly imported package (`hc`, a namespace of
its modules), the seed and a scratch directory, and returns a pool of
seeded job blocks; the jobs hold anything shared that set-up built.  Every
block of a workload has the same job kinds in the same order, with its own
seeded inputs, so a run that measures whole blocks sees the same job mix
however many blocks fit in its time.

A job is a closure that runs one user-level task and returns its output.
Its check compares that output against a reference computed without the
code path under test; checks run after the timed pass.
"""

import contextlib
import io
import json
import os
import random

import gen
import oracle

POOL_BLOCKS = 8
# README: at genus 2 over A5 the surjections form one orbit per Schur class,
# of sizes 172800 (trivial class) and 69120 (non-trivial class)
ORBIT_SIZE_NONTRIVIAL_SCHUR = 69120


class Job:
    __slots__ = ("kind", "label", "run", "check", "_verdicts")

    def __init__(self, kind, label, run, check):
        self.kind, self.label, self.run, self.check = kind, label, run, check
        self._verdicts = {}

    def verdict(self, output):
        """None when the output passes its check, else the reason."""
        key = repr(output)
        if key not in self._verdicts:
            self._verdicts[key] = self.check(output)
        return self._verdicts[key]


def _rng(seed, *tags):
    return random.Random(":".join(str(t) for t in (seed,) + tags))


def _expect(cond, reason):
    return None if cond else reason


def _word_pair(kind, labels, runs, checks, fields):
    """Jobs for a gluing word and its inverse word.  Both glue the same
    manifold (with opposite orientation), so besides its own check each job
    must report the same `fields` as the latest output of its partner."""
    results = {}
    jobs = []
    for i, (label, run, check) in enumerate(zip(labels, runs, checks)):
        def stored(run=run, i=i):
            results[i] = run()
            return results[i]

        def paired(out, check=check, i=i):
            partner = results.get(1 - i)
            if partner is not None and any(out[f] != partner[f]
                                           for f in fields):
                return "word gives %r, inverse word gives %r" % (
                    [results[0][f] for f in fields],
                    [results[1][f] for f in fields])
            return check(out)

        jobs.append(Job(kind, label, stored, paired))
    return jobs


# -- invariants-cold: README CLI jobs, groups loaded fresh every time ----------

COLD_ORDERS = {"S3": 6, "A4": 12, "S4": 24, "SL23": 24, "A5": 60}


def _cli(hc, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = hc.cli.main(["--json"] + argv)
    out = json.loads(buf.getvalue())
    out["exit"] = code
    return out


# per group: (presentation pairs, lens words, genus-2 word pairs) per block.
# S3 jobs take 2-5 ms; the median falls among the A4 genus-2 Heegaard counts
# (about 10 ms, lattice plus 144 tuples); the S4 and SL(2,3) lattice-bound
# jobs (50-130 ms) hold the 90th percentile; one cold A5 lattice job (about
# 3 s) and the Poincare count sit above it.
COLD_MIX = {"S3": (3, 4, 2), "A4": (2, 2, 6), "S4": (1, 1, 1), "SL23": (1, 1, 1)}
COLD_SMOKE_MIX = {"S3": (1, 1, 1), "S4": (1, 0, 0)}


def build_invariants_cold(hc, seed, workdir, smoke=False):
    data = hc.cli.data_dir()
    gfile = {}
    refs = {}
    for name, order in COLD_ORDERS.items():
        gfile[name] = os.path.join(workdir, name.lower() + ".grp")
        with open(gfile[name], "w") as fh:
            fh.write(gen.group_file_text(name, order))
        refs[name] = oracle.PermGroup(gen.group_perms(name))
    blocks = []
    for b in range(1 if smoke else POOL_BLOCKS):
        rng = _rng(seed, "cold", b)
        jobs = []

        def write(fname, text):
            path = os.path.join(workdir, "b%d-%s" % (b, fname))
            with open(path, "w") as fh:
                fh.write(text)
            return path

        def poincare_check(out):
            return _expect((out["exit"], out["homs"], out["surjections"],
                            out["quotients"]) == (0, 121, 120, 1),
                           "Poincare profile %r" % out)
        jobs.append(Job("count-hom", "poincare/A5", lambda: _cli(
            hc, ["count-hom", "--presentation",
                 os.path.join(data, "poincare.pres"),
                 "--group", gfile["A5"]]), poincare_check))
        if smoke:
            pass
        elif b == 0:
            def hsphere_check(out):
                return _expect((out["exit"], out["homs"], out["surjections"],
                                out["quotients"], out["homology-sphere"])
                               == (0, 121, 120, 1, True),
                               "hsphere profile %r" % out)
            jobs.append(Job("heegaard-count", "hsphere/A5", lambda: _cli(
                hc, ["heegaard-count", "--gluing",
                     os.path.join(data, "hsphere.glu"),
                     "--group", gfile["A5"]]), hsphere_check))
        else:
            jobs.append(_lens_job(hc, write, gfile, refs, "A5",
                                  rng.randint(1, 7)))

        for G, (n_pres, n_lens, n_genus2) in \
                (COLD_SMOKE_MIX if smoke else COLD_MIX).items():
            for i in range(n_pres):
                rels = gen.presentation(rng)
                path = write("%s-p%d.pres" % (G, i), gen.presentation_text(rels))
                jobs.extend(_presentation_jobs(hc, path, gfile, refs, G, rels))
            for i in range(n_lens):
                jobs.append(_lens_job(hc, write, gfile, refs, G,
                                      rng.randint(1, 7)))
            for i in range(n_genus2):
                word = gen.genus2_word(rng)
                jobs.extend(_genus2_pair(hc, write, gfile, G, word,
                                         "%s-w%d" % (G, i)))
        blocks.append(jobs)
    return blocks


def _presentation_jobs(hc, path, gfile, refs, G, rels):
    """count-hom and invert-lattice on the same (P, G); both are checked
    against a brute-force count over G x G, and against each other."""
    letters = [gen.relator_letters(r) for r in rels]
    memo = {}

    def reference():
        if "ref" not in memo:
            memo["ref"] = refs[G].homs_and_surjections(letters)
        return memo["ref"]

    def check_count(out):
        homs, surj = reference()
        return _expect(
            (out["exit"], out["homs"], out["surjections"],
             out["surjections"] == out["quotients"] * gen.AUT_ORDER[G])
            == (0, homs, surj, True),
            "count-hom %r, expected homs=%d surj=%d" % (out, homs, surj))

    def check_lattice(out):
        homs, surj = reference()
        full = out["subgroup-%d" % (len(out) - 3)]
        stats = dict(kv.split("=") for kv in full.split())
        return _expect(
            (out["exit"], out["total-homs"], int(stats["order"]),
             int(stats["surj"])) == (0, homs, refs[G].order, surj),
            "invert-lattice total=%r full row %r, expected homs=%d surj=%d"
            % (out["total-homs"], full, homs, surj))

    label = "%s/%s" % (os.path.basename(path), G)
    return [
        Job("count-hom", label, lambda: _cli(
            hc, ["count-hom", "--presentation", path, "--group", gfile[G]]),
            check_count),
        Job("invert-lattice", label, lambda: _cli(
            hc, ["invert-lattice", "--presentation", path,
                 "--group", gfile[G]]), check_lattice),
    ]


def _lens_job(hc, write, gfile, refs, G, k):
    path = write("%s-lens%d.glu" % (G, k), gen.gluing_text(1, gen.lens_word(k)))

    def check(out):
        want = refs[G].roots_of_unity(k)
        return _expect((out["exit"], out["homs"]) == (0, want),
                       "lens L(%d,1) into %s: %r, expected %d"
                       % (k, G, out, want))

    return Job("heegaard-count", "lens%d/%s" % (k, G), lambda: _cli(
        hc, ["heegaard-count", "--gluing", path, "--group", gfile[G]]), check)


def _genus2_pair(hc, write, gfile, G, word, tag):
    paths = [write("%s-%s.glu" % (tag, key), gen.gluing_text(2, w))
             for key, w in (("word", word), ("inverse", gen.inverse_word(word)))]

    def check(out):
        return _expect(out["exit"] == 0 and out["surjections"]
                       == out["quotients"] * gen.AUT_ORDER[G],
                       "heegaard %r" % out)

    return _word_pair(
        "heegaard-count", ["%s-%s/%s" % (tag, key, G)
                           for key in ("word", "inverse")],
        [lambda path=path: _cli(hc, ["heegaard-count", "--gluing", path,
                                     "--group", gfile[G]])
         for path in paths],
        [check, check], ("homs", "surjections"))


# -- gluing-search: warm library loop over mapping-class words ----------------


# genus-2 words per block and group (each is scored with its inverse word):
# the S4 jobs hold the median, the A5 jobs the 90th percentile, and one
# orbit report per block sits above it.
GLUING_WORDS = {"A5": 6, "S4": 24}


def build_gluing_search(hc, seed, workdir, smoke=False):
    groups, surfaces = hc.groups, hc.surfaces
    data = hc.cli.data_dir()
    shared = {"S4": groups.FiniteGroup.from_perm_gens("S4",
                                                      gen.group_perms("S4"))}
    if not smoke:
        shared["A5"] = groups.load_group(os.path.join(data, "a5.grp"))
    for G in shared.values():
        groups.subgroup_membership_masks(G)
        groups.automorphisms(G)
    n_words = {"S4": 1} if smoke else GLUING_WORDS
    hsphere = surfaces.load_gluing(os.path.join(data, "hsphere.glu"))
    if not smoke:
        A5 = shared["A5"]
        ext = groups.load_stem_extension(os.path.join(data, "sl25-ext.ext"), A5)
        sampler = surfaces.RepSampler(2, A5)
        masks, full_bit = groups.subgroup_membership_masks(A5)
    blocks = []
    for b in range(1 if smoke else POOL_BLOCKS):
        rng = _rng(seed, "gluing", b)
        jobs = []
        for name, count in n_words.items():
            for i in range(count):
                word = gen.genus2_word(rng)
                expect = None
                if name == "A5" and b == 0 and i == 0:
                    word, expect = hsphere.word, (121, 120, 1)
                jobs.extend(_gluing_pair(surfaces, word, shared[name], name,
                                         "w%d" % i, expect))
        if not smoke:
            seed_tup = _orbit_seed(surfaces, sampler, masks, full_bit, A5,
                                   ext, rng)
            jobs.append(_orbit_job(surfaces, A5, ext, seed_tup))
        blocks.append(jobs)
    return blocks


def _gluing_pair(surfaces, word, G, gname, tag, expect=None):
    """Score a genus-2 word and its inverse word: Heegaard counts and H_1."""
    naut = gen.AUT_ORDER[gname]
    runs = []
    for w in (word, gen.inverse_word(word)):
        def run(h=surfaces.HeegaardGluing(2, list(w))):
            c = surfaces.heegaard_count(h, G)
            rank, torsion = surfaces.gluing_h1(h)
            return {"homs": c.homs, "surjections": c.surjections,
                    "quotients": c.quotients, "h1": (rank, tuple(torsion))}
        runs.append(run)

    def check(out):
        if expect is not None and (out["homs"], out["surjections"],
                                   out["quotients"]) != expect:
            return "%s: %r, expected %r" % (tag, out, expect)
        return _expect(out["surjections"] == out["quotients"] * naut
                       and out["homs"] >= out["surjections"],
                       "%s: inconsistent counts %r" % (tag, out))

    return _word_pair("heegaard", ["%s-%s/%s" % (tag, key, gname)
                                   for key in ("word", "inverse")],
                      runs, [check, check], ("homs", "surjections", "h1"))


def _orbit_seed(surfaces, sampler, masks, full_bit, G, ext, rng):
    """A seeded surjective genus-2 tuple in the non-trivial Schur class,
    whose orbit under the generator set has 69120 tuples (the trivial
    class's orbit has 172800 and would make a block 2.5 times longer)."""
    while True:
        tup = sampler.draw(rng)
        acc = -1
        for x in tup:
            acc &= masks[x]
        if acc == full_bit and surfaces.schur_invariant(tup, G, ext) != 0:
            return tup


def _orbit_job(surfaces, G, ext, seed_tup):
    def run():
        rep = surfaces.orbit_report([seed_tup], G, 2, ext=ext)
        return {"visited": rep.visited,
                "rows": [(r.size, r.schur_class, r.surjective, r.aut_closed)
                         for r in rep.rows]}

    def check(out):
        size, schur, surjective, aut_closed = out["rows"][0]
        return _expect(len(out["rows"]) == 1 and schur != 0 and surjective
                       and aut_closed and size == out["visited"]
                       == ORBIT_SIZE_NONTRIVIAL_SCHUR,
                       "orbit report %r" % out)

    return Job("orbit", "orbit/%s" % (seed_tup,), run, check)


# -- cocycle-dp: the ordered-complex dynamic program ---------------------------


def build_cocycle_dp(hc, seed, workdir, smoke=False):
    groups, cx, counting = hc.groups, hc.complexes, hc.counting
    shared = {n: groups.FiniteGroup.from_perm_gens(n, gen.group_perms(n))
              for n in ("S3", "A4", "A5")}
    z2 = groups.FiniteGroup.cyclic(2)
    rp2, _ = cx.load_complex(os.path.join(hc.cli.data_dir(), "rp2.cx"))

    def random_complex(rng, gname):
        """A seeded random 2-complex; over A5 a smaller one whose sweep
        keeps at most one free edge label (a Z/2 probe of the DP on the
        job's own ordering peaks at 2^labels), since two labels already
        cost 3600 states and three take over 30 s."""
        while True:
            if gname != "A5":
                return cx.SimplicialComplex(*gen.two_complex(rng))
            X = cx.SimplicialComplex(*gen.two_complex(rng, max_v=5,
                                                      max_tris=3))
            stats = counting.DpStats()
            counting.dp_count_homs(X, counting.narrow_ordering(X), z2,
                                   stats=stats)
            if stats.max_states <= 2:
                return X

    # one A4 Csaszar torus (20736 peak states, about 1.2 s) per block; the
    # A4 grid tori and the S3 genus-2, Csaszar and A4 RP^2 jobs (50-150 ms)
    # hold the 90th percentile, the random complexes (a few ms) the median.
    # A5 on grid_torus(3, 3) (3600 states, about 4 s) would be one job
    # holding most of a block, too few samples per run to time steadily.
    fixed = [("csaszar", "A4"), ("genus2", "S3"), ("csaszar", "S3"),
             ("rp2", "A4"), ("rp2", "S3")]
    grids = [("S3", 3, 4), ("A4", 3, 3), ("A4", 3, 4), ("A4", 3, 5),
             ("A4", 4, 3), ("A4", 4, 4)]
    n_random = {"S3": 18, "A4": 18, "A5": 10}
    if smoke:
        fixed, grids = [("genus2", "S3"), ("rp2", "S3")], ()
        n_random = {"S3": 2, "A4": 2, "A5": 2}
    blocks = []
    for b in range(1 if smoke else POOL_BLOCKS):
        rng = _rng(seed, "dp", b)
        jobs = [_dp_job(hc, kind, shared[G], G, rp2=rp2) for kind, G in fixed]
        for G, rows, cols in grids:
            jobs.append(_dp_job(hc, "grid%dx%d" % (rows, cols), shared[G], G))
        for G, count in n_random.items():
            for _ in range(count):
                jobs.append(_dp_job(hc, "random", shared[G], G,
                                    X=random_complex(rng, G)))
        blocks.append(jobs)
    return blocks


def _surface_genus(kind):
    """Genus of the closed orientable surfaces among the complexes."""
    if kind.startswith("grid") or kind == "csaszar":
        return 1
    return 2 if kind == "genus2" else None


def _dp_job(hc, kind, G, gname, X=None, rp2=None):
    cx, counting, surfaces = hc.complexes, hc.counting, hc.surfaces
    ordering = None
    if kind.startswith("grid"):
        rows, cols = (int(t) for t in kind[4:].split("x"))
        X = cx.grid_torus(rows, cols)
        ordering = lambda: cx.band_ordering(rows, cols)
    elif kind == "genus2":
        X = cx.genus2_surface()
        ordering = cx.genus2_ordering
    elif kind == "csaszar":
        X = cx.csaszar_torus()
    elif kind == "rp2":
        X = rp2
    if ordering is None:
        ordering = lambda: counting.narrow_ordering(X)

    def run():
        order = ordering()
        stats = counting.DpStats()
        homs = counting.dp_count_homs(X, order, G, stats=stats)
        width, edge_width = cx.ordering_width(X, order)
        P, _ = cx.presentation_from_complex(X)
        return {"homs": homs, "max-states": stats.max_states,
                "width": width, "width-edges": edge_width,
                "pi1": (P.ngens, len(P.relators))}

    genus = _surface_genus(kind)
    memo = {}

    def check(out):
        if "ref" not in memo:
            if genus is not None:
                memo["ref"] = surfaces.count_reps(genus, G)
            else:
                P, _ = cx.presentation_from_complex(X)
                memo["ref"] = counting.count_homs(P, G)
        return _expect(out["homs"] == memo["ref"],
                       "%s over %s: dp %d, reference %d"
                       % (kind, gname, out["homs"], memo["ref"]))

    return Job("dp", "%s/%s/%d" % (kind, gname, X.size), run, check)


# -- reduction: the CSAT -> RSAT -> ZSAT pipeline ------------------------------

GAMMA_AB_ORDER = {"Z2": 2, "Z3": 3, "S3": 2}
# stage-3 width -> circuits per block: widths 4, 5, 6 take about 0.02, 0.08
# and 0.5 s to verify (4^width words per stage count)
PARSIMONY_WIDTHS = {4: 4, 5: 6, 6: 3}
ZSAT_GATES = 2  # data gates per ZSAT instance (counting cost grows with it)


def build_reduction(hc, seed, workdir, smoke=False):
    groups = hc.groups
    gammas = {"Z2": groups.FiniteGroup.cyclic(2),
              "Z3": groups.FiniteGroup.cyclic(3),
              "S3": groups.FiniteGroup.from_perm_gens("S3", gen.group_perms("S3"))}
    data, i_orb, f_orb = hc.zsat.ZAlphabet(gammas["Z2"]).data_quotient()
    widths = {4: 1, 5: 1} if smoke else PARSIMONY_WIDTHS
    zsat_widths = (2, 3) if smoke else (2, 3, 4, 5, 6)
    rubik = [("Z2", 7)] if smoke else \
        [(g, n) for g in ("Z2", "Z3", "S3") for n in (7, 8, 9)]
    blocks = []
    for b in range(1 if smoke else POOL_BLOCKS):
        rng = _rng(seed, "reduction", b)
        jobs = []
        for width, count in widths.items():
            for _ in range(count):
                n, gates, output = gen.boolean_circuit(rng, width)
                jobs.append(_parsimony_job(hc, n, gates, output, width))
        for gname in ("Z2", "Z3"):
            for width in zsat_widths:
                for _ in range(1 if smoke else 2):
                    gates = [(rng.randrange(width - 1),
                              gen.data_gate(rng, len(data), i_orb, f_orb))
                             for _ in range(ZSAT_GATES)]
                    jobs.append(_zsat_job(hc, gammas[gname], gname, width,
                                          gates))
        for gname, n_orbits in rubik:
            jobs.append(_rubik_job(hc, gammas[gname], gname, n_orbits))
        blocks.append(jobs)
    return blocks


def _parsimony_job(hc, n, gates, output, width):
    bc = hc.circuits.BooleanCircuit(n, gates, output)

    def run():
        rep = hc.circuits.verify_parsimony(bc)
        return {"counts": rep.stage_counts(), "ok": rep.ok}

    def check(out):
        want = oracle.boolean_count(n, gates, output)
        return _expect(out["ok"] and out["counts"] == [want] * 5,
                       "parsimony %r, brute-force csat %d" % (out, want))

    return Job("parsimony", "w%d/%d-in/%d-gates" % (width, n, len(gates)),
               run, check)


def _zsat_job(hc, gamma, gname, width, gates):
    zsat = hc.zsat

    def run():
        zal = zsat.ZAlphabet(gamma)
        inst = zsat.data_rsat_instance(zal, width, gates)
        rsat = inst.count()
        zi = zsat.compile_zsat(inst, zal)
        return {"rsat": rsat, "gates-rubik-ok": zsat.verify_gates(zi),
                "zsat": zi.count(), "gamma-order": gamma.order,
                "init": inst.init, "final": inst.final, "q": inst.q}

    def check(out):
        want = oracle.data_rsat_count(out["q"], width, gates, out["init"],
                                      out["final"])
        return _expect(out["gates-rubik-ok"] and out["rsat"] == want
                       and out["zsat"] == gamma.order * want + 1,
                       "zsat %r, brute-force rsat %d" % (out, want))

    return Job("zsat", "%s/w%d/%d-gates" % (gname, width, len(gates)),
               run, check)


def _rubik_job(hc, gamma, gname, n_orbits):
    gsets = hc.gsets

    def run():
        act = gsets.make_free_action(gamma, n_orbits)
        rep = gsets.rubik_surjectivity_check(gsets.rubik_generators(act), act)
        return {"generated": rep.generated_order, "match": rep.order_match,
                "alt": rep.alt_projection, "two-transitive": rep.two_transitive}

    def check(out):
        want = oracle.rubik_order(n_orbits, gamma.order, GAMMA_AB_ORDER[gname])
        return _expect(out["generated"] == want and out["match"],
                       "rubik %s/%d: %r, expected order %d"
                       % (gname, n_orbits, out, want))

    return Job("rubik", "%s/%d" % (gname, n_orbits), run, check)


BUILDERS = {
    "invariants-cold": build_invariants_cold,
    "gluing-search": build_gluing_search,
    "cocycle-dp": build_cocycle_dp,
    "reduction": build_reduction,
}
