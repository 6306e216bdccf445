#!/usr/bin/env python3
"""Collect one BENCH_<n>.json: the end-to-end benchmark rows of a checkout.

    python3 tools/bench.py 1                        # this checkout
    python3 tools/bench.py 0 --root ../parent       # another checkout

It runs `perfbench/run.py --steady 5 --seed 1 --seconds 25` of the measured
checkout once (every workload, seeds 1..5, one process per run) and keeps,
for every end-to-end metric of each workload, the median, the quartiles and
the per-seed values as run.py prints them (five significant digits).  The
seeds and run length are fixed, so any two BENCH files compare row by row.
The file also records the Python version, nproc and the sloc of each module
of src/homcount, counted by the measured checkout's perfbench/run.py.  It
only collects; compare two files by reading them.

The file is written to the root of the checkout this script is in.
"""

import argparse
import importlib.util
import json
import os
import platform
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
STEADY = 5
SEED = 1
SECONDS = 25  # BENCHMARK.json run_seconds
RUN_ARGS = ["--steady", str(STEADY), "--seed", str(SEED),
            "--seconds", str(SECONDS)]

# run.py --steady prints "## <workload>: ..." before each workload, then per
# metric "<name> median <m> q1 <a> q3 <b> spread <s> <unit>" and
# "    runs: <v1> <v2> ..."
WORKLOAD = re.compile(r"^## (\S+): ")
METRIC = re.compile(r"^(\S+)\s+median (\S+)\s+q1 (\S+)\s+q3 (\S+)\s+"
                    r"spread \S+ (.+)$")


def load_run_py(root):
    """The measured checkout's perfbench/run.py as a module."""
    bench_dir = os.path.join(root, "perfbench")
    sys.path.insert(0, bench_dir)
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", os.path.join(bench_dir, "run.py"))
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run


def sloc(root):
    run = load_run_py(root)
    counts = {name[:-3]: run.sloc(name[:-3])
              for name in sorted(os.listdir(os.path.join(root, "src",
                                                         "homcount")))
              if name.endswith(".py")}
    counts["total"] = sum(counts.values())
    return counts


def parse_steady(text):
    """{workload: {metric: {unit, median, q1, q3, runs}}} from run.py's
    --steady output."""
    workloads, rows, last = {}, None, None
    for line in text.splitlines():
        w = WORKLOAD.match(line)
        m = METRIC.match(line)
        if w:
            rows = workloads[w.group(1)] = {}
        elif m and rows is not None:
            name, med, q1, q3, unit = m.groups()
            last = rows[name] = {"unit": unit.strip(), "median": float(med),
                                 "q1": float(q1), "q3": float(q3)}
        elif line.startswith("    runs: ") and last is not None:
            last["runs"] = [float(v) for v in line.split()[1:]]
            last = None
    return workloads


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("n", type=int, help="the file is BENCH_<n>.json")
    p.add_argument("--root", default=REPO,
                   help="the checkout to measure (default: this one)")
    args = p.parse_args(argv)
    root = os.path.abspath(args.root)
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py")]
        + RUN_ARGS, cwd=root, capture_output=True, text=True)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit("run.py exited with %d" % proc.returncode)
    workloads = parse_steady(proc.stdout)
    if not workloads or any(not rows or any("runs" not in row
                                            for row in rows.values())
                            for rows in workloads.values()):
        raise SystemExit("unexpected run.py output:\n%s" % proc.stdout)
    bench = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "command": " ".join(["perfbench/run.py"] + RUN_ARGS),
        "seeds": list(range(SEED, SEED + STEADY)),
        "sloc": sloc(root),
        "workloads": workloads,
    }
    out = os.path.join(REPO, "BENCH_%d.json" % args.n)
    with open(out, "w") as fh:
        json.dump(bench, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("wrote %s" % out, file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
