import contextlib
import io
import json
import os
import shlex
import shutil
import subprocess
import sys
from math import factorial
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from homcount import zsat
from homcount.circuits import load_boolean, load_reversible, reduce_pipeline
from homcount.cli import main
from conftest import DATA
from test_parser_fuzz import texts

SRC = os.path.join(os.path.dirname(__file__), "..", "src")


@pytest.fixture(autouse=True)
def data_env(monkeypatch):
    monkeypatch.setenv("HOMCOUNT_DATA", DATA)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def parse_report(out):
    items = {}
    for line in out.splitlines():
        key, _, val = line.partition(": ")
        items[key] = val
    return items


def test_homology_command(capsys):
    code, out = run(capsys, "homology", "--complex", "s2.cx")
    rep = parse_report(out)
    assert code == 0
    assert rep["H0"] == "Z" and rep["H1"] == "0" and rep["H2"] == "Z"


def test_homology_of_empty_complex(capsys, tmp_path):
    path = tmp_path / "empty.cx"
    path.write_text("vertices 0\n")
    code, out = run(capsys, "homology", "--complex", str(path))
    assert code == 0
    assert set(parse_report(out).values()) == {"0"}


def test_count_hom_poincare(capsys):
    code, out = run(capsys, "count-hom", "--presentation", "poincare.pres",
                    "--group", "a5.grp")
    rep = parse_report(out)
    assert code == 0
    assert rep["homs"] == "121"
    assert rep["surjections"] == "120"
    assert rep["quotients"] == "1"


def test_dp_count_torus(capsys):
    code, out = run(capsys, "dp-count", "--complex", "torus7.cx",
                    "--group", "s3.grp")
    rep = parse_report(out)
    assert code == 0 and rep["homs"] == "18"


def test_json_mirror(capsys):
    code, out = run(capsys, "--json", "homology", "--complex", "s2.cx")
    data = json.loads(out)
    assert code == 0 and data["H2"] == "Z"


def test_deterministic_reports(capsys):
    _, out1 = run(capsys, "--seed", "5", "orbit", "--group", "s3.grp",
                  "--genus", "2", "--orbit-seeds", "2")
    _, out2 = run(capsys, "--seed", "5", "orbit", "--group", "s3.grp",
                  "--genus", "2", "--orbit-seeds", "2")
    assert out1 == out2


def test_input_error_exit_code(capsys):
    code, out = run(capsys, "homology", "--complex", "missing.cx")
    assert code == 2
    assert "error" in parse_report(out)


def test_bound_exceeded_exit_code(capsys):
    code, out = run(capsys, "--max-states", "5", "dp-count", "--complex",
                    "torus7.cx", "--group", "s3.grp")
    assert code == 2
    assert "budget" in out


def test_verify_parsimony_command(capsys, tmp_path):
    path = tmp_path / "and2.bool"
    path.write_text("in 2\nAND 0 1 -> 2\nout 2\n")
    code, out = run(capsys, "verify-parsimony", "--circuit", str(path),
                    "--gamma", "z2.grp")
    rep = parse_report(out)
    assert code == 0
    assert rep["parsimony"] == "PASS"
    assert rep["csat"] == rep["rsat4"] == "1"
    assert rep["zsat"] == "3"


def test_verify_parsimony_builds_no_unused_alphabet(capsys, tmp_path,
                                                    monkeypatch):
    """Only the width-2 table bridge builds a zombie alphabet, but a trivial
    Gamma is refused whatever the circuit's width."""
    circuit = tmp_path / "andor3.bool"
    circuit.write_text("in 3\nAND 0 1 -> 3\nOR 3 2 -> 4\nout 4\n")
    trivial = tmp_path / "trivial.grp"
    trivial.write_text("group T 1\ntable\n0\n")
    code, out = run(capsys, "verify-parsimony", "--circuit", str(circuit),
                    "--gamma", str(trivial))
    assert code == 2
    assert parse_report(out) == {
        "error": "ZsatError: zombie alphabets need a non-trivial group"}
    monkeypatch.setattr(zsat, "ZAlphabet", None)
    code, out = run(capsys, "verify-parsimony", "--circuit", str(circuit),
                    "--gamma", "a5.grp")
    rep = parse_report(out)
    assert code == 0 and rep["parsimony"] == "PASS"
    assert rep["zsat"] == "skipped (table bridge is width 2)"


def test_reduce_command(capsys, tmp_path):
    path = tmp_path / "or2.bool"
    path.write_text("in 2\nOR 0 1 -> 2\nout 2\n")
    out_path = tmp_path / "or2.rev"
    code, out = run(capsys, "reduce", "--circuit", str(path),
                    "--output", str(out_path))
    rep = parse_report(out)
    assert code == 0
    assert rep["csat"] == rep["rsat4"] == "3"
    # the file is the stage-3 instance whose count the report prints
    written = load_reversible(str(out_path))
    r3 = reduce_pipeline(load_boolean(str(path)))[2]
    assert (written.init, written.final) == (r3.init, r3.final)
    assert None not in (written.init, written.final)
    assert str(written.count()) == rep["rsat3"]


def test_rubik_check_command(capsys):
    code, out = run(capsys, "rubik-check", "--gamma", "z2.grp", "--orbits", "7")
    rep = parse_report(out)
    assert code == 0
    assert rep["generated-order"] == "161280"
    assert rep["theorem-instance"] == "PASS"


def test_rubik_check_trivial_gamma(capsys, tmp_path):
    # over the trivial group every free orbit is one point, so the Rubik
    # group of 7 orbits is Alt(7)
    path = tmp_path / "trivial.grp"
    path.write_text("group T 1\ntable\n0\n")
    code, out = run(capsys, "rubik-check", "--gamma", str(path))
    rep = parse_report(out)
    assert code == 0
    assert (rep["generated-order"], rep["expected-order"],
            rep["theorem-instance"]) == ("2520", "2520", "PASS")


def test_heegaard_command(capsys, tmp_path):
    path = tmp_path / "lens.glu"
    path.write_text("genus 1\nword tb1 tb1 tb1 tb1 tb1\n")
    code, out = run(capsys, "heegaard-count", "--gluing", str(path),
                    "--group", "a5.grp")
    rep = parse_report(out)
    assert code == 0 and rep["homs"] == "25"


def test_heegaard_unknown_name_as_written(capsys, tmp_path):
    path = tmp_path / "bad.glu"
    path.write_text("genus 1\nword ta1 foo\n")
    code, out = run(capsys, "heegaard-count", "--gluing", str(path),
                    "--group", "s3.grp")
    assert code == 2
    assert parse_report(out)["error"] == \
        "SurfaceError: unknown mapping class generator 'foo'"


@pytest.mark.parametrize("genus, code, visited", [
    ("0", 0, "1"), ("1", 0, "4"), ("-1", 2, None)])
def test_orbit_genus_range(capsys, genus, code, visited):
    got, out = run(capsys, "orbit", "--group", "s3.grp", "--genus", genus,
                   "--orbit-seeds", "1")
    rep = parse_report(out)
    assert got == code
    if visited is None:
        assert rep["error"].startswith("SurfaceError: ")
    else:
        assert rep["visited"] == visited


def test_compile_zsat_command(capsys, tmp_path):
    # identity data circuit of width 2 over the 4-orbit quotient
    path = tmp_path / "ident.rev"
    path.write_text("alphabet 4\nwidth 2\n")
    code, out = run(capsys, "compile-zsat", "--circuit", str(path),
                    "--gamma", "z2.grp")
    rep = parse_report(out)
    assert code == 0
    assert rep["zsat-count"] == "1"
    assert rep["zombie-relation"] == "PASS"


def test_goursat_command(capsys, tmp_path):
    path = tmp_path / "diag.pairs"
    path.write_text("".join("%d %d\n" % (x, x) for x in range(6)))
    code, out = run(capsys, "goursat", "--group", "s3.grp",
                    "--group2", "s3.grp", "--subgroup", str(path))
    rep = parse_report(out)
    assert code == 0
    assert rep["n1-order"] == "1" and rep["quotient-order"] == "6"


def readme_commands():
    """The argument lists of the command block in README.md."""
    readme = Path(__file__).parent.parent / "README.md"
    block = readme.read_text().split("## Command line", 1)[1].split("```")[1]
    return [shlex.split(ln)[1:] for ln in block.splitlines()
            if ln.startswith("homcount ")]


def test_readme_commands_run(capsys, tmp_path, monkeypatch):
    # every command runs on the bundled files alone; reduce writes its
    # output into the working directory
    monkeypatch.chdir(tmp_path)
    commands = readme_commands()
    assert len(commands) == 11
    for argv in commands:
        code, out = run(capsys, *argv)
        assert code == 0, (argv, out)
    assert (tmp_path / "and2.rev").exists()


def test_invert_lattice_command(capsys):
    code, out = run(capsys, "invert-lattice", "--presentation",
                    "poincare.pres", "--group", "s3.grp")
    rep = parse_report(out)
    assert code == 0
    assert rep["total-homs"] == "1"


def test_invert_lattice_complex(capsys):
    code, out = run(capsys, "invert-lattice", "--complex", "torus7.cx",
                    "--group", "s3.grp")
    rep = parse_report(out)
    assert code == 0
    assert rep["total-homs"] == "18"


def run_circuit(capsys, tmp_path, command, text, *options):
    """Run a circuit command on text written to a file; compile-zsat gets
    the Z2 alphabet."""
    path = tmp_path / "circuit"
    path.write_text(text)
    argv = list(options) + [command, "--circuit", str(path)]
    if command == "compile-zsat":
        argv += ["--gamma", "z2.grp"]
    code, out = run(capsys, *argv)
    return code, parse_report(out)


def _circuit_row(command, text, error):
    # the id is the one pytest derives from (command, text)
    return pytest.param(command, text, error, id="%s-%s" % (command, text))


TABLE16 = " ".join(map(str, range(16)))
MALFORMED_CIRCUITS = [_circuit_row(*row) for row in [
    ("reduce", "in 2\n-> 3\nout 2\n",
     "CircuitError: gate line without an op: '-> 3'"),
    ("compile-zsat", "alphabet\nwidth 2\n",
     "CircuitError: expected 'alphabet <integer>', got 'alphabet'"),
    ("compile-zsat", "alphabet 4\nwidth 2\ngate\n",
     "CircuitError: unknown or short circuit line 'gate'"),
    ("reduce", "in x\nout 0\n",
     "CircuitError: expected integers in line 'in x'"),
    ("reduce", "in 2\nAND 0 y -> 2\nout 2\n",
     "CircuitError: expected integers in line 'AND 0 y -> 2'"),
    ("compile-zsat", "alphabet x\nwidth 2\n",
     "CircuitError: expected integers in line 'alphabet x'"),
    ("compile-zsat", "alphabet 4\nwidth 2\ngate 0 y 1 0\n",
     "CircuitError: expected integers in line 'gate 0 y 1 0'"),
    ("reduce", "in 2 3\nAND 0 1 -> 2\nout 2\n",
     "CircuitError: expected 'in <integer>', got 'in 2 3'"),
    ("compile-zsat", "alphabet 4 5\nwidth 2\n",
     "CircuitError: expected 'alphabet <integer>', got 'alphabet 4 5'"),
    ("compile-zsat", "alphabet 4\nwidth 2\ngate 0 2 %s\ninit 0 9\n" % TABLE16,
     "CircuitError: init symbol 9 outside alphabet 4"),
    ("compile-zsat", "alphabet 4\nwidth 2\ninit 0 9\nfinal 9\n",
     "CircuitError: init symbol 9 outside alphabet 4"),
    ("compile-zsat", "alphabet 4\nwidth 0\n",
     "CircuitError: circuit width 0 below 1"),
    ("compile-zsat", "alphabet 0\nwidth 2\ngate 0 1\n",
     "CircuitError: circuit alphabet 0 below 1"),
    ("compile-zsat", "alphabet -2\nwidth 2\n",
     "CircuitError: circuit alphabet -2 below 1"),
    ("compile-zsat", "alphabet 4\nwidth -2\n",
     "CircuitError: circuit width -2 below 1"),
    ("compile-zsat", "alphabet 4\nwidth 2\ngate 1 2 %s\n" % TABLE16,
     "CircuitError: gate window out of range"),
    ("compile-zsat", "alphabet 4\nwidth 2\ngate -1 1 0 1 2 3\n",
     "CircuitError: gate window out of range"),
    ("compile-zsat", "alphabet 4\nwidth 2\ngate 0 4 1 2\n",
     "CircuitError: gate arity 4 outside 1..3"),
    ("compile-zsat", "alphabet 4\nwidth 2\ngate 0 -1 0\n",
     "CircuitError: gate arity -1 outside 1..3"),
    ("compile-zsat", "alphabet 4\nwidth 2\ngate 0 2 0 1 2 3\n",
     "CircuitError: gate table is not a permutation"),
    ("compile-zsat", "alphabet 4\nwidth 2\ngate 0 1 0 0 1 2\n",
     "CircuitError: gate table is not a permutation"),
    ("compile-zsat", "alphabet 4\nwidth 2\ngate 0 1 1 0 2 3\n",
     "ZsatError: zombie compilation needs binary gates"),
    ("compile-zsat", "alphabet 3\nwidth 2\n",
     "ZsatError: circuit alphabet 3 differs from data quotient 4"),
]]


@pytest.mark.parametrize("command, text, error", MALFORMED_CIRCUITS)
def test_malformed_circuit_exit_code(capsys, tmp_path, command, text, error):
    code, rep = run_circuit(capsys, tmp_path, command, text)
    assert code == 2
    assert rep["error"] == error


@pytest.mark.parametrize("argv, name, text, error", [
    (["count-hom", "--presentation", "poincare.pres", "--group"], "bad.grp",
     "group foo", "GroupError"),
    (["count-hom", "--presentation", "poincare.pres", "--group"], "bad.grp",
     "group foo 6", "GroupError"),
    (["heegaard-count", "--group", "a5.grp", "--gluing"], "bad.glu",
     "genus", "SurfaceError"),
    (["dp-count", "--group", "s3.grp", "--complex"], "bad.cx",
     "vertices\n0 1 2\n", "ComplexError"),
    (["dp-count", "--group", "s3.grp", "--complex"], "bad.cx",
     "vertices x\n0 1 2\n", "ComplexError"),
    (["dp-count", "--group", "s3.grp", "--complex"], "bad.cx",
     "vertices 3\n0 1 x\n", "ComplexError"),
    (["dp-count", "--group", "s3.grp", "--complex"], "bad.cx",
     "vertices 3 4\n0 1 2\n", "ComplexError"),
    (["dp-count", "--group", "s3.grp", "--complex"], "bad.cx",
     "vertices 3\n0 1 2\norder\n0 z\n", "ComplexError"),
    (["count-hom", "--group", "s3.grp", "--presentation"], "bad.pres",
     "gens\nx1\n", "ComplexError"),
    (["count-hom", "--group", "s3.grp", "--presentation"], "bad.pres",
     "gens x\nx1\n", "ComplexError"),
    (["count-hom", "--presentation", "poincare.pres", "--group"], "bad.grp",
     "group foo x table", "GroupError"),
    (["count-hom", "--presentation", "poincare.pres", "--group"], "bad.grp",
     "group foo 6 perm-gens\n", "GroupError"),
    (["heegaard-count", "--group", "a5.grp", "--gluing"], "bad.glu",
     "genus x", "SurfaceError"),
    (["heegaard-count", "--group", "a5.grp", "--gluing"], "bad.glu",
     "genus -1", "SurfaceError"),
    (["goursat", "--group", "s3.grp", "--group2", "s3.grp", "--subgroup"],
     "bad.pairs", "0 0\n0 x\n", "GroupError"),
    (["goursat", "--group", "s3.grp", "--group2", "s3.grp", "--subgroup"],
     "bad.pairs", "1\n", "GroupError"),
    (["goursat", "--group", "s3.grp", "--group2", "s3.grp", "--subgroup"],
     "bad.pairs", "1 6\n", "GroupError"),
    (["orbit", "--group", "a5.grp", "--extension"], "bad.ext",
     "project 0 1\ncenter 0\n", "GroupError"),
    (["orbit", "--group", "a5.grp", "--extension"], "bad.ext",
     "project 0 1\ncenter 0\ncover\n", "GroupError"),
    (["orbit", "--group", "a5.grp", "--extension"], "bad.ext",
     "cover sl25.grp\nproject 0 x\ncenter 0 6\n", "GroupError"),
    (["heegaard-count", "--group", "a5.grp", "--gluing"], "bad.glu",
     "genusfoo 2\n", "SurfaceError"),
    (["heegaard-count", "--group", "a5.grp", "--gluing"], "bad.glu",
     "genus 1 2\n", "SurfaceError"),
    (["heegaard-count", "--group", "a5.grp", "--gluing"], "bad.glu",
     "genus 1\nwordy ta1\n", "SurfaceError"),
    (["count-hom", "--presentation", "poincare.pres", "--group"], "bad.grp",
     "group G -3 table\n0 0 0\n0 0 0\n0 0 0\n", "GroupError"),
    (["count-hom", "--presentation", "poincare.pres", "--group"], "bad.grp",
     "group G 6 perm-gens\n(0 1)\n(0 1 2 3 4 5 6 7)\n", "GroupError"),
    # S40 from a transposition and a 40-cycle: the chain rejects the
    # declared order at once
    (["count-hom", "--presentation", "poincare.pres", "--group"], "bad.grp",
     "group G 6 perm-gens\n(0 1)\n(%s)\n" % " ".join(map(str, range(40))),
     "GroupError: declared order 6 but closure has %d" % factorial(40)),
    # well-formed files with `#` comments: error None means exit 0
    pytest.param(
        ["count-hom", "--presentation", "poincare.pres", "--group"], "s3.grp",
        "# S3 by generators\ngroup S3 6  # order\nperm-gens\n(0 1)\n(0 1 2)\n",
        None, id="group-comments"),
    pytest.param(
        ["orbit", "--group", "a5.grp", "--genus", "1", "--orbit-seeds", "1",
         "--extension"], "sl25-ext.ext",
        "# SL(2,5) over A5\n" + Path(DATA, "sl25-ext.ext").read_text(),
        None, id="extension-comments"),
    pytest.param(
        ["goursat", "--group", "s3.grp", "--group2", "s3.grp", "--subgroup"],
        "diag.pairs", "# the diagonal\n0 0  # identity\n1 1\n2 2\n3 3\n"
        "4 4\n5 5\n", None, id="pairs-comments"),
    (["dp-count", "--group", "s3.grp", "--complex"], "empty.cx",
     "vertices 0\n", "ComplexError: dp counting needs a connected complex"),
    (["invert-lattice", "--group", "s3.grp", "--complex"], "empty.cx",
     "vertices 0\n", "ComplexError: dp counting needs a connected complex"),
    (["count-hom", "--group", "s3.grp", "--presentation"], "neg.pres",
     "gens -3\n", "ComplexError: generator count -3 below 0"),
    (["invert-lattice", "--group", "s3.grp", "--presentation"], "neg.pres",
     "gens -3\n", "ComplexError: generator count -3 below 0"),
    pytest.param(
        ["count-hom", "--group", "s3.grp", "--presentation"], "zero.pres",
        "gens 0\n", None, id="no-generators"),
    (["homology", "--complex"], "neg.cx",
     "vertices -2\n", "ComplexError: vertex count -2 below 0"),
    pytest.param(["homology", "--complex"], "zero.cx", "vertices 0\n", None,
                 id="no-vertices"),
])
def test_malformed_header_exit_code(capsys, tmp_path, argv, name, text, error):
    # an extension file names its cover relative to its own directory
    shutil.copy(os.path.join(DATA, "sl25.grp"), tmp_path)
    path = tmp_path / name
    path.write_text(text)
    code, out = run(capsys, *argv, str(path))
    if error is None:
        assert code == 0
    else:
        assert code == 2
        reported = parse_report(out)["error"]
        assert reported == error or reported.startswith(error + ": ")


NOT1 = "in 1\nNOT 0 -> 1\nout 1\n"
IDENT2 = "alphabet 4\nwidth 2\n"


@pytest.mark.parametrize("bound, command, text, stage", [
    ("1", "reduce", NOT1, "CSAT"),
    ("2", "reduce", NOT1, "RSAT2"),
    ("4", "reduce", NOT1, "RSAT"),
    ("1", "compile-zsat", IDENT2, "RSAT"),
    ("1", "compile-zsat", IDENT2 + "init 0\n", "ZSAT"),
])
def test_stage_budget_messages(capsys, tmp_path, bound, command, text,
                               stage):
    code, rep = run_circuit(capsys, tmp_path, command, text,
                            "--max-enumeration", bound)
    assert code == 2
    assert rep["error"] == \
        "WorkBoundExceeded: %s enumeration over budget" % stage


@pytest.mark.parametrize("command, text, stage", [
    ("reduce", NOT1, "RSAT1"),
    # a gateless data circuit has no state to bound; its zombie lift has
    ("compile-zsat", IDENT2, "ZSAT"),
])
def test_state_budget_messages(capsys, tmp_path, command, text, stage):
    code, rep = run_circuit(capsys, tmp_path, command, text,
                            "--max-states", "1")
    assert code == 2
    assert rep["error"] == \
        "WorkBoundExceeded: %s state budget 1 exceeded" % stage


def test_count_hom_deep_chain(capsys, tmp_path):
    # 1500 nested branching levels, each with the one image of the trivial
    # group: the search keeps its path on a stack, not in Python frames
    pres = tmp_path / "chain.pres"
    pres.write_text("gens 1500\n" + "".join(
        "x%d x%d X%d X%d\n" % (i, i + 1, i, i + 1) for i in range(1, 1500)))
    group = tmp_path / "trivial.grp"
    group.write_text("group 1 1\ntable\n0\n")
    code, out = run(capsys, "count-hom", "--presentation", str(pres),
                    "--group", str(group))
    rep = parse_report(out)
    assert code == 0
    assert (rep["homs"], rep["surjections"], rep["quotients"]) == \
        ("1", "1", "1")


def test_parser_reuse_is_stateless(capsys, tmp_path):
    bad = tmp_path / "bad.grp"
    bad.write_text("group G 2 table\n0 1 1\n")
    poincare = ["--presentation", "poincare.pres"]
    calls = [
        (["--json", "count-hom", *poincare, "--group", "a5.grp"], 0),
        (["count-hom", *poincare, "--group", "a5.grp"], 0),
        (["count-hom", *poincare, "--group", str(bad)], 2),
        (["count-hom", *poincare, "--group", "s3.grp"], 0),
        (["--max-enumeration", "1", "count-hom", *poincare,
          "--group", "a5.grp"], 2),
        (["count-hom", *poincare, "--group", "a5.grp"], 0),
        (["heegaard-count", "--gluing", "hsphere.glu", "--group", "s3.grp"],
         0),
        (["invert-lattice", *poincare, "--group", "s3.grp"], 0),
    ]
    env = dict(os.environ, HOMCOUNT_DATA=DATA, PYTHONPATH=SRC)
    for argv, code in calls:
        fresh = subprocess.run([sys.executable, "-m", "homcount.cli", *argv],
                               env=env, capture_output=True, text=True)
        assert (fresh.returncode, fresh.stderr) == (code, "")
        assert run(capsys, *argv) == (code, fresh.stdout)


def test_cli_exit_codes_fuzz(tmp_path):
    """Fuzzed or bundled group, presentation, gluing, complex, Boolean and
    reversible circuit files through count-hom, count-quot, invert-lattice,
    heegaard-count, dp-count, homology, orbit, goursat, rubik-check, reduce,
    verify-parsimony and compile-zsat: every run reports and exits 0 or 2."""
    def file_arg(fmt, bundled):
        return st.one_of(st.sampled_from(bundled),
                         texts(fmt).map(lambda text: (fmt, text)))

    def path_of(arg, name):
        if isinstance(arg, str):
            return arg
        path = tmp_path / name
        path.write_text(arg[1])
        return str(path)

    @settings(derandomize=True, database=None, deadline=None,
              max_examples=120)
    @given(file_arg("group", ["s3.grp", "z2.grp", "z3.grp"]),
           file_arg("presentation", ["poincare.pres"]),
           file_arg("gluing", ["hsphere.glu"]),
           file_arg("complex", ["torus7.cx", "rp2.cx"]),
           file_arg("boolean", [("boolean", NOT1)]),
           file_arg("reversible", [("reversible", IDENT2)]))
    @example("s3.grp", "poincare.pres", "hsphere.glu",
             ("complex", "vertices 0\n"), ("boolean", NOT1),
             ("reversible", "alphabet 4\nwidth 0\n"))
    def check(group, pres, glu, cx, bc, rev):
        group_path = path_of(group, "g.grp")
        group = ["--group", group_path]
        bc = ["--circuit", path_of(bc, "c.bool")]
        for argv in (["count-hom", "--presentation", path_of(pres, "p.pres"),
                      *group],
                     ["count-quot", "--presentation", path_of(pres, "p.pres"),
                      *group],
                     ["invert-lattice", "--presentation",
                      path_of(pres, "p.pres"), *group],
                     ["heegaard-count", "--gluing", path_of(glu, "h.glu"),
                      *group],
                     ["dp-count", "--complex", path_of(cx, "x.cx"), *group],
                     ["homology", "--complex", path_of(cx, "x.cx")],
                     ["orbit", *group, "--genus", "1", "--orbit-seeds", "1"],
                     ["goursat", *group, "--group2", group_path,
                      "--subgroup", "pairs.txt"],
                     ["rubik-check", "--gamma", group_path, "--orbits", "7"],
                     ["reduce", *bc],
                     ["verify-parsimony", *bc],
                     ["compile-zsat", "--circuit", path_of(rev, "r.rev"),
                      "--gamma", "z2.grp"]):
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(["--max-enumeration", "200", "--max-states",
                             "200", *argv])
            assert code in (0, 2), argv

    check()
