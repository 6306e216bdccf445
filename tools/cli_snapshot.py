#!/usr/bin/env python3
"""Print the CLI reports of a checkout, so two checkouts can be compared
byte for byte:

    python3 tools/cli_snapshot.py <checkout-a> > a.txt
    python3 tools/cli_snapshot.py <checkout-b> > b.txt
    diff a.txt b.txt

For the checkout's package and bundled data it prints the exit code and the
text and --json reports of every command in the README's command block,
the file `reduce --output` writes there, the report of every
malformed-circuit and malformed-header case of tests/test_cli.py, and a
sweep of --max-enumeration budgets over the presentation counters, which
shows the budgets under which each search raises, the zombie-stage commands
(verify-parsimony, compile-zsat) over Z2, Z3 and S3 under --max-states and
--max-enumeration budgets and over A4 once, compile-zsat over A5 and the
table bridge (verify-parsimony of and2.bool) over A5, whose Gamma is
perfect, in text and --json, verify-parsimony of a 4-input
circuit with six stage-3 symbols unbudgeted and under --max-states 2^0 ..
2^12, count-hom, count-quot and invert-lattice of the free group of rank
2, the torus and the Poincare sphere over S4 and SL(2,3) with the
heegaard-count of the homology sphere and of a genus-2 gluing with
surjections over both, invert-lattice of the Poincare sphere and of the
7-vertex torus complex over D4 and Q8 given as tables, goursat on A5 x A5,
rubik-check over Z3, S3 and A5 at 7 and 9 orbits, over Z2 at 8 and over A5
at 12, the 720 points of gsets.MAX_RUBIK_DEGREE, text and --json, and
past that bound over A5 at 13, orbit over S3 at genus 2 and 3, over A5 at
genus 2 with the SL(2,5) extension, over SL(2,5) at genus 2 and over Z2^4
(whose Aut(G) has order 20160) at genus 1, text and --json, and
heegaard-count of the lens space over S3 and A5, of the homology sphere
over S3, SL(2,5) and A5 (there also at --max-enumeration 3599 and 3600) and
of a genus-3 gluing over S3, dp-count of the projective plane and the
sphere over S3 and A5, which shows the state peak and widths of the
ordering dp-count picks, and orbit past its genus bound and with more seed
entries than --max-states. The commands and the cases come from the tree
this script is in, as do README example inputs that the checkout's data
directory lacks.
"""

import contextlib
import io
import os
import shutil
import sys
import tempfile

TREE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def write_table(path, name, elems, mul):
    """Write a table-mode group file of the elements under mul; the first
    element is the identity."""
    ids = {x: i for i, x in enumerate(elems)}
    with open(path, "w") as fh:
        fh.write("group %s %d\ntable\n" % (name, len(elems)))
        for x in elems:
            fh.write(" ".join(str(ids[mul(x, y)]) for y in elems) + "\n")


def main(checkout):
    sys.path.insert(0, os.path.join(checkout, "src"))
    from homcount.cli import main as cli
    # the test module's own path set-up finds homcount already imported
    sys.path.append(os.path.join(TREE, "tests"))
    import test_cli

    work = tempfile.mkdtemp()
    data = os.path.join(work, "data")
    shutil.copytree(os.path.join(checkout, "src", "homcount", "data"), data)
    ours = os.path.join(TREE, "src", "homcount", "data")
    for name in sorted(set(os.listdir(ours)) - set(os.listdir(data))):
        shutil.copy(os.path.join(ours, name), data)
    os.environ["HOMCOUNT_DATA"] = data
    os.chdir(work)

    def run(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli(argv)
        print("$ homcount %s\nexit %d\n%s" % (" ".join(argv), code,
                                               out.getvalue()), end="")

    try:
        for argv in test_cli.readme_commands():
            run(argv)
            run(["--json"] + argv)
        with open("and2.rev") as fh:
            print("--- and2.rev\n" + fh.read(), end="")
        for case in test_cli.MALFORMED_CIRCUITS:
            command, text, _ = case.values
            with open("circuit", "w") as fh:
                fh.write(text)
            gamma = ["--gamma", "z2.grp"] if command == "compile-zsat" else []
            print("--- %r" % text)
            run([command, "--circuit", "circuit"] + gamma)
        # the header files in a directory of their own, so that none shadows
        # a data file, with the cover an extension file names next to them
        os.mkdir("headers")
        shutil.copy(os.path.join(data, "sl25.grp"), "headers")
        for case in test_cli.MALFORMED_HEADERS:
            argv, name, text, _ = getattr(case, "values", case)
            path = os.path.join("headers", name)
            with open(path, "w") as fh:
                fh.write(text)
            print("--- %r" % text)
            run(argv + [path])
        poincare = ["--presentation", "poincare.pres", "--group", "a5.grp"]
        # 3660 = 60 + 60^2 nodes is the least budget these complete under
        for command in ("count-hom", "count-quot", "invert-lattice"):
            for budget in [*range(1, 41), 100, 400, 3659, 3660]:
                run(["--max-enumeration", str(budget), command, *poincare])
        # 6^12 free images: every budget here raises before they are listed
        with open("gens12.pres", "w") as fh:
            fh.write("gens 12\n")
        for budget in (1, 200, 6 ** 12 - 1):
            run(["--max-enumeration", str(budget), "count-hom",
                 "--presentation", "gens12.pres", "--group", "s3.grp"])
        # the zombie stage over each bundled Gamma; the table bridge skips
        # the 3-input circuit
        with open("andor3.bool", "w") as fh:
            fh.write("in 3\nAND 0 1 -> 3\nOR 3 2 -> 4\nout 4\n")
        zombie = [("verify-parsimony", "and2.bool"),
                  ("verify-parsimony", "andor3.bool"),
                  ("compile-zsat", "data.rev")]
        budgets = ([("--max-states", str(2 ** k)) for k in range(9)]
                   + [("--max-states", "1000")]
                   + [("--max-enumeration", str(4 ** k)) for k in range(4)])
        for gamma in ("z2.grp", "z3.grp", "s3.grp"):
            for command, circuit in zombie:
                argv = [command, "--circuit", circuit, "--gamma", gamma]
                run(argv)
                for budget in budgets:
                    run([*budget, *argv])
        # a 4-input circuit whose stage 3 has six pair symbols, over the
        # state budgets around the stage-3 and stage-4 peaks
        with open("four.bool", "w") as fh:
            fh.write("in 4\nCOPY 0 -> 4 5\nAND 4 1 -> 6\nOR 5 2 -> 7\n"
                     "AND 6 7 -> 8\nAND 8 3 -> 9\nout 9\n")
        run(["verify-parsimony", "--circuit", "four.bool"])
        for k in range(13):
            run(["--max-states", str(2 ** k), "verify-parsimony",
                 "--circuit", "four.bool"])
        # A4, whose squared zombie action has 1474 free orbits, once each
        with open("a4.grp", "w") as fh:
            fh.write("group A4 12\nperm-gens\n(0 1 2)\n(1 2 3)\n")
        for command, circuit in zombie:
            run([command, "--circuit", circuit, "--gamma", "a4.grp"])
        # A5, whose squared zombie action has 7282 free orbits and whose
        # derived subgroup is all of A5
        for command, circuit in (("compile-zsat", "data.rev"),
                                 ("verify-parsimony", "and2.bool")):
            argv = [command, "--circuit", circuit, "--gamma", "a5.grp"]
            run(argv)
            run(["--json"] + argv)
        # the lattice and Aut(G) paths over S4 and SL(2,3), which have
        # outer automorphisms and several subgroup classes of one order
        with open("s4.grp", "w") as fh:
            fh.write("group S4 24\nperm-gens\n(0 1)\n(0 1 2 3)\n")
        with open("sl23.grp", "w") as fh:
            fh.write("group SL23 24\nperm-gens\n(0 3 6)(1 7 4)\n"
                     "(0 5 1 2)(3 6 7 4)\n")
        with open("free2.pres", "w") as fh:
            fh.write("gens 2\n")
        with open("torus.pres", "w") as fh:
            fh.write("gens 2\nx1 x2 X1 X2\n")
        # a genus-2 gluing with surjections onto both groups
        with open("lens34.glu", "w") as fh:
            fh.write("genus 2\nword tb1 tb1 tb1 tb2 tb2 tb2 tb2\n")
        for group in ("s4.grp", "sl23.grp"):
            for pres in ("free2.pres", "torus.pres", "poincare.pres"):
                for command in ("count-hom", "count-quot", "invert-lattice"):
                    argv = [command, "--presentation", pres, "--group", group]
                    run(argv)
                    run(["--json"] + argv)
            for gluing in ("hsphere.glu", "lens34.glu"):
                run(["heegaard-count", "--gluing", gluing, "--group", group])
        # the lattice over table groups with isomorphic subgroups that are
        # not conjugate: D4 as r^i s^j (two classes of reflections, two
        # Klein four-groups), Q8 as unit quaternions (three cyclic
        # subgroups of order 4)
        d4 = [(i, j) for j in (0, 1) for i in range(4)]
        write_table("d4.grp", "D4", d4, lambda x, y: (
            (x[0] + (-1) ** x[1] * y[0]) % 4, x[1] ^ y[1]))
        q8 = [tuple(sign * (k == m) for m in range(4))
              for sign in (1, -1) for k in range(4)]
        write_table("q8.grp", "Q8", q8, lambda x, y: (
            x[0] * y[0] - x[1] * y[1] - x[2] * y[2] - x[3] * y[3],
            x[0] * y[1] + x[1] * y[0] + x[2] * y[3] - x[3] * y[2],
            x[0] * y[2] - x[1] * y[3] + x[2] * y[0] + x[3] * y[1],
            x[0] * y[3] + x[1] * y[2] - x[2] * y[1] + x[3] * y[0]))
        for group in ("d4.grp", "q8.grp"):
            for source in (["--presentation", "poincare.pres"],
                           ["--complex", "torus7.cx"]):
                argv = ["invert-lattice", *source, "--group", group]
                run(argv)
                run(["--json"] + argv)
        # A5 x A5 closed from its four generator pairs
        with open("a5xa5.txt", "w") as fh:
            fh.write("1 0\n2 0\n0 1\n0 2\n")
        run(["goursat", "--group", "a5.grp", "--group2", "a5.grp",
             "--subgroup", "a5xa5.txt"])
        # the commands that read the derived subgroup and Aut(G)
        for gamma, orbits in [(g, k) for g in ("z3.grp", "s3.grp", "a5.grp")
                              for k in ("7", "9")] + [("z2.grp", "8"),
                                                      ("a5.grp", "12")]:
            argv = ["rubik-check", "--gamma", gamma, "--orbits", orbits]
            run(argv)
            run(["--json"] + argv)
        run(["rubik-check", "--gamma", "a5.grp", "--orbits", "13"])
        run(["orbit", "--group", "s3.grp", "--genus", "2",
             "--orbit-seeds", "5"])
        run(["orbit", "--group", "s3.grp", "--genus", "3",
             "--orbit-seeds", "4"])
        run(["orbit", "--group", "a5.grp", "--extension", "sl25-ext.ext",
             "--genus", "2", "--orbit-seeds", "3"])
        # Aut(SL(2,5)) of order 120 on 120 element ids
        argv = ["--max-states", "3000000", "orbit", "--group", "sl25.grp",
                "--genus", "2", "--orbit-seeds", "2"]
        run(argv)
        run(["--json"] + argv)
        # Aut(Z2^4) = GL(4, 2), of order 20160
        write_table("z2_4.grp", "Z2^4", range(16), lambda a, b: a ^ b)
        argv = ["orbit", "--group", "z2_4.grp", "--genus", "1",
                "--orbit-seeds", "2"]
        run(argv)
        run(["--json"] + argv)
        # Heegaard counts, and the budget |G|^g = 3600 of A5 at genus 2
        with open("genus3.glu", "w") as fh:
            fh.write("genus 3\nword tb1 tb1 tb2 tb2 tb2 chain2 tb3 swap2\n")
        for gluing, group in [("lens5.glu", "s3.grp"), ("lens5.glu", "a5.grp"),
                              ("hsphere.glu", "s3.grp"),
                              ("hsphere.glu", "sl25.grp"),
                              ("hsphere.glu", "a5.grp"),
                              ("genus3.glu", "s3.grp")]:
            run(["heegaard-count", "--gluing", gluing, "--group", group])
        for budget in ("3599", "3600"):
            run(["--max-enumeration", budget, "heegaard-count", "--gluing",
                 "hsphere.glu", "--group", "a5.grp"])
        # complexes without an order line, so dp-count picks the ordering
        for cx in ("rp2.cx", "s2.cx"):
            for group in ("s3.grp", "a5.grp"):
                argv = ["dp-count", "--complex", cx, "--group", group]
                run(argv)
                run(["--json"] + argv)
        # the orbit walk's bounds: a genus past surfaces.MAX_GENUS, and
        # seed tuples holding more entries than the state budget
        run(["orbit", "--group", "s3.grp", "--genus", "129",
             "--orbit-seeds", "0"])
        run(["--max-states", "100", "orbit", "--group", "s3.grp", "--genus",
             "2", "--orbit-seeds", "30"])
    finally:
        os.chdir(TREE)
        shutil.rmtree(work)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: cli_snapshot.py <checkout>")
    main(os.path.abspath(sys.argv[1]))
