import json
import os
import shutil
from pathlib import Path

import pytest

from homcount.cli import main
from conftest import DATA


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


def test_reduce_command(capsys, tmp_path):
    path = tmp_path / "or2.bool"
    path.write_text("in 2\nOR 0 1 -> 2\nout 2\n")
    out_path = tmp_path / "or2.rev"
    code, out = run(capsys, "reduce", "--circuit", str(path),
                    "--output", str(out_path))
    rep = parse_report(out)
    assert code == 0
    assert rep["csat"] == rep["rsat4"] == "3"
    assert out_path.exists()


def test_rubik_check_command(capsys):
    code, out = run(capsys, "rubik-check", "--gamma", "z2.grp", "--orbits", "7")
    rep = parse_report(out)
    assert code == 0
    assert rep["generated-order"] == "161280"
    assert rep["theorem-instance"] == "PASS"


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


@pytest.mark.parametrize("command, text", [
    ("reduce", "in 2\n-> 3\nout 2\n"),
    ("compile-zsat", "alphabet\nwidth 2\n"),
    ("compile-zsat", "alphabet 4\nwidth 2\ngate\n"),
    ("reduce", "in x\nout 0\n"),
    ("reduce", "in 2\nAND 0 y -> 2\nout 2\n"),
    ("compile-zsat", "alphabet x\nwidth 2\n"),
    ("compile-zsat", "alphabet 4\nwidth 2\ngate 0 y 1 0\n"),
    ("reduce", "in 2 3\nAND 0 1 -> 2\nout 2\n"),
    ("compile-zsat", "alphabet 4 5\nwidth 2\n"),
])
def test_malformed_circuit_exit_code(capsys, tmp_path, command, text):
    code, rep = run_circuit(capsys, tmp_path, command, text)
    assert code == 2
    assert rep["error"].startswith("CircuitError: ")


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
        assert parse_report(out)["error"].startswith(error + ": ")


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
