#!/usr/bin/env python3
"""Print the CLI reports of a checkout, so two checkouts can be compared
byte for byte:

    python3 tools/cli_snapshot.py <checkout-a> > a.txt
    python3 tools/cli_snapshot.py <checkout-b> > b.txt
    diff a.txt b.txt

For the checkout's package and bundled data it prints the exit code and the
text and --json reports of every command in the README's command block,
the file `reduce --output` writes there, the error report of every
malformed-circuit case of tests/test_cli.py, and a sweep of
--max-enumeration budgets over the presentation counters, which shows the
budgets under which each search raises, the zombie-stage commands
(verify-parsimony, compile-zsat) over Z2, Z3 and S3 under --max-states and
--max-enumeration budgets and over A4 once, goursat on A5 x A5,
rubik-check over Z3, S3 and A5 at 7 and 9 orbits, orbit over S3 at genus
2, and heegaard-count of the lens space over S3 and A5, of the homology
sphere over S3, SL(2,5) and A5 (there also at --max-enumeration 3599 and
3600) and of a genus-3 gluing over S3.  The commands and the cases come
from the tree this script is in, as do README example inputs that the
checkout's data directory lacks.
"""

import contextlib
import io
import os
import shutil
import sys
import tempfile

TREE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


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
        # A4, whose squared zombie action has 1474 free orbits, once each
        with open("a4.grp", "w") as fh:
            fh.write("group A4 12\nperm-gens\n(0 1 2)\n(1 2 3)\n")
        for command, circuit in zombie:
            run([command, "--circuit", circuit, "--gamma", "a4.grp"])
        # A5 x A5 closed from its four generator pairs
        with open("a5xa5.txt", "w") as fh:
            fh.write("1 0\n2 0\n0 1\n0 2\n")
        run(["goursat", "--group", "a5.grp", "--group2", "a5.grp",
             "--subgroup", "a5xa5.txt"])
        # the commands that read the derived subgroup and Aut(G)
        for gamma in ("z3.grp", "s3.grp", "a5.grp"):
            for orbits in ("7", "9"):
                run(["rubik-check", "--gamma", gamma, "--orbits", orbits])
        run(["orbit", "--group", "s3.grp", "--genus", "2",
             "--orbit-seeds", "5"])
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
    finally:
        os.chdir(TREE)
        shutil.rmtree(work)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: cli_snapshot.py <checkout>")
    main(os.path.abspath(sys.argv[1]))
