"""Command-line front end: reproducible runs over text-file inputs.

Reports are stable `key: value` lines (diffable), with a JSON mirror behind
--json.  Exit codes: 0 success, 1 verification failure, 2 input error.
"""

import argparse
import dataclasses
import functools
import json
import os
import random
import sys

from . import groups, complexes, counting, surfaces, circuits, zsat, gsets
from .counting import CountingLimits, WorkBoundExceeded
from .textformat import content_lines, int_fields

DATA_ENV = "HOMCOUNT_DATA"


def data_dir():
    env = os.environ.get(DATA_ENV)
    if env:
        return env
    return os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


class Report:
    def __init__(self):
        self.items = []

    def add(self, key, value):
        self.items.append((key, value))

    def emit(self, as_json):
        if as_json:
            print(json.dumps({k: v for k, v in self.items}, indent=2,
                             default=str))
        else:
            for k, v in self.items:
                print("%s: %s" % (k, v))


def _limits(args):
    return CountingLimits(max_enumeration=args.max_enumeration,
                          max_states=args.max_states)


def _resolve(path):
    if not os.path.exists(path):
        candidate = os.path.join(data_dir(), path)
        if os.path.exists(candidate):
            return candidate
    return path


def _load_group_arg(path):
    return groups.load_group(_resolve(path))


def cmd_homology(args, rep):
    X, _ = complexes.load_complex(_resolve(args.complex))
    hom = complexes.homology(X)
    names = ["H0", "H1", "H2", "H3"]
    for name, (betti, torsion) in zip(names, hom):
        parts = []
        if betti:
            parts.append("Z^%d" % betti if betti > 1 else "Z")
        parts.extend("Z/%d" % d for d in torsion)
        rep.add(name, " + ".join(parts) if parts else "0")
    rep.add("euler", X.euler_characteristic())
    return 0


def cmd_count_hom(args, rep):
    G = _load_group_arg(args.group)
    P = complexes.load_presentation(_resolve(args.presentation))
    homs, surj = counting.count_surjections(P, G, limits=_limits(args))
    rep.add("homs", homs)
    rep.add("surjections", surj)
    rep.add("quotients", counting.quotient_count(surj, G))
    return 0


def cmd_count_quot(args, rep):
    G = _load_group_arg(args.group)
    P = complexes.load_presentation(_resolve(args.presentation))
    rep.add("quotients", counting.count_quotients(P, G, limits=_limits(args)))
    return 0


def cmd_dp_count(args, rep):
    G = _load_group_arg(args.group)
    X, file_order = complexes.load_complex(_resolve(args.complex))
    ordering = file_order
    if args.ordering:
        _, ordering = complexes.load_complex(_resolve(args.ordering))
        if ordering is None:
            raise complexes.ComplexError("%s has no order section"
                                         % args.ordering)
    if ordering is None:
        ordering = counting.narrow_ordering(X)
    stats = counting.DpStats()
    n = counting.dp_count_homs(X, ordering, G, limits=_limits(args),
                               stats=stats)
    rep.add("homs", n)
    rep.add("max-states", stats.max_states)
    width_all, width_edges = complexes.ordering_width(X, ordering)
    rep.add("width", width_all)
    rep.add("width-edges", width_edges)
    return 0


def cmd_invert_lattice(args, rep):
    G = _load_group_arg(args.group)
    lim = _limits(args)
    if args.presentation:
        P = complexes.load_presentation(_resolve(args.presentation))
        count_into = lambda J: counting.count_homs(P, J, limits=lim)
    elif args.complex:
        X, ordering = complexes.load_complex(_resolve(args.complex))
        if ordering is None:
            ordering = counting.narrow_ordering(X)
        count_into = lambda J: counting.dp_count_homs(X, ordering, J,
                                                      limits=lim)
    else:
        raise ValueError("invert-lattice needs --presentation or --complex")
    table = counting.quotient_counts_via_inversion(count_into, G)
    rep.add("total-homs", table.total_homs)
    for i, row in enumerate(table.rows):
        rep.add("subgroup-%d" % i,
                "order=%d homs=%d surj=%d quotients=%d"
                % (row.order, row.homs, row.surjections, row.quotients))
    return 0


def cmd_reduce(args, rep):
    bc = circuits.load_boolean(_resolve(args.circuit))
    r1, r2, r3, r4 = circuits.reduce_pipeline(bc)
    lim = _limits(args)
    rep.add("csat", bc.count_sat(lim))
    stages = {"rsat1": r1, "rsat2": r2, "rsat3": r3, "rsat4": r4}
    upto = args.stages or "rsat4"
    for name in ("rsat1", "rsat2", "rsat3", "rsat4"):
        rep.add(name, stages[name].count(lim))
        if name == upto:
            break
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(r3.planarize().format())
        rep.add("output", args.output)
    return 0


def cmd_verify_parsimony(args, rep):
    bc = circuits.load_boolean(_resolve(args.circuit))
    lim = _limits(args)
    zal = None
    if args.gamma:
        gamma = zsat.check_gamma(_load_group_arg(args.gamma))
        if bc.n_inputs == 2:
            zal = zsat.ZAlphabet(gamma)
        else:
            rep.add("zsat", "skipped (table bridge is width 2)")
    result = circuits.verify_parsimony(bc, limits=lim)
    ok = result.ok
    if zal is not None:
        inst = zsat.zsat_from_table(bc, zal)
        z_count = zsat.compile_zsat(inst, zal).count(lim)
        ok = ok and z_count == zal.gamma.order * result.rsat4 + 1
    rep.add("csat", result.csat)
    rep.add("rsat1", result.rsat1)
    rep.add("rsat2", result.rsat2)
    rep.add("rsat3", result.rsat3)
    rep.add("rsat4", result.rsat4)
    if zal is not None:
        rep.add("zsat", z_count)
        rep.add("gamma-order", zal.gamma.order)
    rep.add("parsimony", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def cmd_compile_zsat(args, rep):
    gamma = _load_group_arg(args.gamma)
    zal = zsat.ZAlphabet(gamma)
    circ = circuits.load_reversible(_resolve(args.circuit))
    _, i_orb, f_orb = zal.data_quotient()
    inst_if = dataclasses.replace(circ, init=circ.init or i_orb,
                                  final=circ.final or f_orb)
    zi = zsat.compile_zsat(inst_if, zal)
    lim = _limits(args)
    rep.add("alphabet-size", zal.size)
    rep.add("width", zi.width)
    rep.add("gates", len(zi.gates))
    rep.add("gates-rubik-ok", zsat.verify_gates(zi))
    rsat_count = inst_if.count(lim)
    z_count = zi.count(lim)
    rep.add("rsat-count", rsat_count)
    rep.add("zsat-count", z_count)
    expected = gamma.order * rsat_count + 1
    rep.add("zombie-relation",
            "PASS" if z_count == expected else "FAIL (expected %d)" % expected)
    return 0 if z_count == expected else 1


def cmd_orbit(args, rep):
    G = _load_group_arg(args.group)
    ext = None
    if args.extension:
        ext = groups.load_stem_extension(_resolve(args.extension), G)
    rng = random.Random(args.seed)
    g = args.genus
    sampler = surfaces.RepSampler(g, G)
    # the seeds and the trivial tuple are states of the walk too
    entries = (args.orbit_seeds + 1) * max(1, 2 * g)
    if entries > args.max_states:
        raise WorkBoundExceeded("orbit seeds hold %d entries, over state "
                                "budget %d" % (entries, args.max_states))
    seeds = [sampler.draw(rng) for _ in range(args.orbit_seeds)]
    seeds.append(tuple([0] * (2 * g)))
    report = surfaces.orbit_report(seeds, G, g, ext=ext, limits=_limits(args))
    rep.add("genus", g)
    rep.add("orbits", len(report.rows))
    rep.add("visited", report.visited)
    for i, row in enumerate(report.rows):
        rep.add("orbit-%d" % i,
                "size=%d schur=%s surjective=%s aut-closed=%s"
                % (row.size, row.schur_class, row.surjective, row.aut_closed))
    return 0


def cmd_heegaard_count(args, rep):
    G = _load_group_arg(args.group)
    h = surfaces.load_gluing(_resolve(args.gluing))
    out = surfaces.heegaard_count(h, G, limits=_limits(args))
    rep.add("genus", h.genus)
    rep.add("word-length", len(h.word))
    rep.add("torelli", h.is_torelli())
    rank, torsion = surfaces.gluing_h1(h)
    parts = ["Z^%d" % rank] if rank else []
    parts += ["Z/%d" % d for d in torsion]
    rep.add("manifold-h1", " + ".join(parts) if parts else "0")
    rep.add("homology-sphere", rank == 0 and not torsion)
    rep.add("homs", out.homs)
    rep.add("surjections", out.surjections)
    rep.add("quotients", out.quotients)
    return 0


def cmd_rubik_check(args, rep):
    gamma = _load_group_arg(args.gamma)
    gsets.check_rubik_degree(args.orbits * gamma.order)
    act = gsets.make_free_action(gamma, args.orbits)
    gens = gsets.rubik_generators(act)
    result = gsets.rubik_surjectivity_check(gens, act)
    rep.add("orbits", result.orbit_count)
    rep.add("gamma-order", result.gamma_order)
    rep.add("alt-projection", result.alt_projection)
    rep.add("two-transitive", result.two_transitive)
    rep.add("generated-order", result.generated_order)
    rep.add("expected-order", result.expected_order)
    rep.add("order-match", result.order_match)
    rep.add("hypothesis-excluded", result.hypothesis_excluded)
    ok = (not (result.alt_projection and result.two_transitive)
          or result.order_match)
    rep.add("theorem-instance", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def _id_pair(line, G1, G2):
    """An (a, b) element-id pair of G1 x G2 from a subgroup-file line."""
    ids = int_fields(line.split(), line, groups.GroupError)
    if not (len(ids) == 2 and 0 <= ids[0] < G1.order
            and 0 <= ids[1] < G2.order):
        raise groups.GroupError("subgroup line must be two element ids of "
                                "the groups, got %r" % line)
    return ids


def cmd_goursat(args, rep):
    G1 = _load_group_arg(args.group)
    G2 = _load_group_arg(args.group2)
    with open(_resolve(args.subgroup)) as fh:
        pairs = [_id_pair(ln, G1, G2) for ln in content_lines(fh.read())]
    dec = gsets.goursat_decompose(pairs, G1, G2)
    rep.add("n1-order", len(dec.n1))
    rep.add("n2-order", len(dec.n2))
    rep.add("quotient-order", G1.order // len(dec.n1))
    rep.add("iso", " ".join("%d->%d" % kv for kv in sorted(dec.iso.items())))
    return 0


@functools.cache
def build_parser():
    """The argument parser, built once per process: parse_args keeps no
    state on it between calls."""
    p = argparse.ArgumentParser(
        prog="homcount",
        description="Counting engine for homomorphism invariants of "
                    "complexes, circuits and Heegaard gluings.")
    p.add_argument("--json", action="store_true", help="emit a JSON report")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-enumeration", type=int,
                   default=counting.DEFAULT_LIMITS.max_enumeration)
    p.add_argument("--max-states", type=int,
                   default=counting.DEFAULT_LIMITS.max_states)
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("homology")
    s.add_argument("--complex", required=True)
    s.set_defaults(func=cmd_homology)

    s = sub.add_parser("count-hom")
    s.add_argument("--presentation", required=True)
    s.add_argument("--group", required=True)
    s.set_defaults(func=cmd_count_hom)

    s = sub.add_parser("count-quot")
    s.add_argument("--presentation", required=True)
    s.add_argument("--group", required=True)
    s.set_defaults(func=cmd_count_quot)

    s = sub.add_parser("dp-count")
    s.add_argument("--complex", required=True)
    s.add_argument("--group", required=True)
    s.add_argument("--ordering")
    s.set_defaults(func=cmd_dp_count)

    s = sub.add_parser("invert-lattice")
    s.add_argument("--presentation")
    s.add_argument("--complex")
    s.add_argument("--group", required=True)
    s.set_defaults(func=cmd_invert_lattice)

    s = sub.add_parser("reduce")
    s.add_argument("--circuit", required=True)
    s.add_argument("--stages", choices=["rsat1", "rsat2", "rsat3", "rsat4"])
    s.add_argument("--output")
    s.set_defaults(func=cmd_reduce)

    s = sub.add_parser("verify-parsimony")
    s.add_argument("--circuit", required=True)
    s.add_argument("--gamma")
    s.set_defaults(func=cmd_verify_parsimony)

    s = sub.add_parser("compile-zsat")
    s.add_argument("--circuit", required=True)
    s.add_argument("--gamma", required=True)
    s.set_defaults(func=cmd_compile_zsat)

    s = sub.add_parser("orbit")
    s.add_argument("--group", required=True)
    s.add_argument("--extension")
    s.add_argument("--genus", type=int, default=2)
    s.add_argument("--orbit-seeds", type=int, default=3)
    s.set_defaults(func=cmd_orbit)

    s = sub.add_parser("heegaard-count")
    s.add_argument("--gluing", required=True)
    s.add_argument("--group", required=True)
    s.set_defaults(func=cmd_heegaard_count)

    s = sub.add_parser("rubik-check")
    s.add_argument("--gamma", required=True)
    s.add_argument("--orbits", type=int, default=7)
    s.set_defaults(func=cmd_rubik_check)

    s = sub.add_parser("goursat")
    s.add_argument("--group", required=True)
    s.add_argument("--group2", required=True)
    s.add_argument("--subgroup", required=True,
                   help="file of element-id pairs generating H")
    s.set_defaults(func=cmd_goursat)

    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    rep = Report()
    try:
        code = args.func(args, rep)
    except (OSError, ValueError, WorkBoundExceeded) as exc:
        rep.add("error", "%s: %s" % (type(exc).__name__, exc))
        rep.emit(args.json)
        return 2
    rep.emit(args.json)
    return code


if __name__ == "__main__":
    sys.exit(main())
