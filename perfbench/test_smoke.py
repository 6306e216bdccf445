"""Smoke test of the benchmark: tiny job lists through the real command.

Runs every workload with --smoke in both trace modes and checks that the
last line is the result object, that it carries exactly the metrics named
in BENCHMARK.json with their units, that every metric is also printed as a
`name: value unit` line, and that no job failed.  Also checks that the
command fails cleanly where the package sources are missing.

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _run(cwd, *args, timeout=300):
    return subprocess.run([sys.executable] + list(args), cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_smoke(workload, trace):
    proc = _run(ROOT, RUN, "--workload", workload, "--seed", "7",
                "--seconds", "1", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    for m in spec:
        value = result["metrics"][m["name"]]["value"]
        assert isinstance(value, (int, float))
        assert any(ln.startswith(m["name"] + ": ")
                   and ln.endswith(" " + m["unit"]) for ln in lines), m
    assert any(ln.startswith("fail_ratio: 0 ") for ln in lines)


def test_fails_without_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".out", "__pycache__"))
    proc = _run(tmp_path, os.path.join("perfbench", "run.py"),
                "--workload", "reduction", "--seed", "1", "--seconds", "1",
                "--trace", "0", timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
