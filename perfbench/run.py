"""homcount benchmark: seeded workloads, end-to-end and per-layer metrics.

Run one workload (its own process, one closed-loop client: the next job
starts when the previous one returns, no threads):

    python3 perfbench/run.py --workload gluing-search --seed 3 --seconds 25

`--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer ones
from a traced pass (blocks alternate untraced and traced, which gives the
tracing overhead).  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.

Other modes:

    python3 perfbench/run.py --workload all            # every workload
    python3 perfbench/run.py --steady 5 [--workload w] # seeds seed..seed+4,
                                                       # median and spread

Set-up (imports, seeded inputs, shared objects) runs SETUP_REPS times,
re-importing the package each time, and `setup_s` is the median.  The run
then measures whole blocks of jobs: it starts another block while the time
spent plus one mean block fits in `--seconds`, and always runs enough blocks
for at least MIN_JOBS jobs, so the 90th percentile has ten samples above it.
Every job's output is checked after the timed pass, untimed.

End-to-end times (set-up and job times) are scaled to a nominal machine
speed measured by a reference task between jobs (speed.py), because this
class of machine drifts in speed by up to half over tens of seconds; the
unscaled values are printed on a comment line.  Per-layer times are
unscaled seconds.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import types  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, ".out")

import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

MIN_JOBS = 110
SETUP_REPS = 3
SETUP_PROBES = 5
MAX_MEASURE_S = 120.0
WORKLOADS = list(workloads.BUILDERS)

END_TO_END = [
    ("setup_s", "s"),
    ("jobs_per_s", "jobs/s"),
    ("job_ms_p50", "ms"),
    ("job_ms_p90", "ms"),
    ("ok_ratio", "ok/attempted"),
    ("peak_rss_mb", "MB"),
]

PER_CALL = [
    # (span name, metric suffix, unit): suffix self_s and calls are per job,
    # volumes are per job, *_per_s is volume over the span's self time
    ("groups.close_under_product", "calls", "calls/job"),
    ("groups.close_under_product", "self_s", "s/job"),
    ("groups.subgroup_lattice", "calls", "calls/job"),
    ("groups.subgroup_lattice", "self_s", "s/job"),
    ("groups.automorphisms", "self_s", "s/job"),
    ("groups.find_isomorphism", "self_s", "s/job"),
    ("groups.load_group", "self_s", "s/job"),
    ("counting.count_homs", "calls", "calls/job"),
    ("counting.count_homs", "self_s", "s/job"),
    ("counting.count_surjections", "self_s", "s/job"),
    ("counting.quotient_counts_via_inversion", "self_s", "s/job"),
    ("counting.dp_count_homs", "self_s", "s/job"),
    ("counting.dp_count_homs", "peak_states", "states"),
    ("counting.narrow_ordering", "self_s", "s/job"),
    ("complexes.greedy_ordering", "self_s", "s/job"),
    ("complexes.ordering_width", "self_s", "s/job"),
    ("complexes.presentation_from_complex", "self_s", "s/job"),
    ("surfaces.heegaard_count", "self_s", "s/job"),
    ("surfaces.heegaard_count", "tuples", "tuples/job"),
    ("surfaces.heegaard_count", "tuples_per_s", "tuples/s"),
    ("surfaces.mcg_apply", "calls", "calls/job"),
    ("surfaces.orbit_report", "self_s", "s/job"),
    ("surfaces.orbit_report", "visited", "tuples/job"),
    ("surfaces.orbit_report", "tuples_per_s", "tuples/s"),
    ("surfaces.schur_invariant", "calls", "calls/job"),
    ("surfaces.gluing_h1", "self_s", "s/job"),
    ("circuits.reduce_pipeline", "self_s", "s/job"),
    ("circuits.BooleanCircuit.count_sat", "self_s", "s/job"),
    ("circuits.Rsat1.count", "self_s", "s/job"),
    ("circuits.Rsat2.count", "self_s", "s/job"),
    ("circuits.RsatIF.count", "self_s", "s/job"),
    ("circuits.RsatIF.count", "words", "words/job"),
    ("circuits.RsatIF.count", "words_per_s", "words/s"),
    ("circuits.PackedRsat4.count", "self_s", "s/job"),
    ("zsat.compile_zsat", "self_s", "s/job"),
    ("zsat.extend_to_rubik", "calls", "calls/job"),
    ("zsat.ZsatInstance.count", "self_s", "s/job"),
    ("zsat.ZsatInstance.count", "words_per_s", "words/s"),
    ("zsat.verify_gates", "self_s", "s/job"),
    ("gsets.rubik_surjectivity_check", "self_s", "s/job"),
    ("gsets.rubik_membership", "calls", "calls/job"),
    ("perms.PermutationGroup", "self_s", "s/job"),
    ("cli.main", "self_s", "s/job"),
]

PER_LAYER = ([("%s.%s" % (span, suffix), unit) for span, suffix, unit in PER_CALL]
             + [("%s.self_share" % m, "ratio") for m in spans.MODULES]
             + [("%s.errors" % m, "count") for m in spans.MODULES]
             + [("%s.sloc" % m, "lines") for m in spans.MODULES]
             + [("trace.unattributed_share", "ratio"),
                ("trace.overhead_ratio", "ratio")])

RATE_VOLUME = {"tuples_per_s": ("tuples", "visited"), "words_per_s": ("words",)}


# -- set-up ------------------------------------------------------------------------


def import_package():
    """Import (or re-import, dropping cached modules) the package under test."""
    for name in [k for k in sys.modules
                 if k == "homcount" or k.startswith("homcount.")]:
        del sys.modules[name]
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    return types.SimpleNamespace(**{
        m: importlib.import_module("homcount." + m) for m in spans.MODULES})


def set_up(name, seed, smoke, workdir, probe):
    """Build the workload SETUP_REPS times (once for a smoke run), each time
    from a fresh import; return (workload, hc, raw and scaled set-up times).
    The machine speed is probed right after each set-up."""
    raw, scaled = [], []
    for rep in range(1 if smoke else SETUP_REPS):
        t0 = T0 if rep == 0 else time.perf_counter()
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        hc = import_package()
        blocks = workloads.BUILDERS[name](hc, seed, workdir, smoke=smoke)
        t1 = time.perf_counter()
        for _ in range(SETUP_PROBES):
            probe.sample()
        raw.append(t1 - t0)
        scaled.append((t1 - t0) * probe.scale(t1, t1))
    return blocks, hc, raw, scaled


# -- measurement ---------------------------------------------------------------------


class Entry:
    """One job run: raw wall time, scaled (machine-speed normalised) time,
    output or error."""
    __slots__ = ("job", "start", "raw", "scaled", "out", "err")

    def __init__(self, job, start, raw, out, err):
        self.job, self.start, self.raw = job, start, raw
        self.scaled, self.out, self.err = None, out, err


def run_block(jobs, log, probe):
    for job in jobs:
        probe.maybe_sample()
        t0 = time.perf_counter()
        try:
            out, err = job.run(), None
        except Exception as exc:  # a failed job is counted, not fatal
            out, err = None, "%s: %s" % (type(exc).__name__, exc)
        log.append(Entry(job, t0, time.perf_counter() - t0, out, err))


def measure(pool, hc, seconds, traced, min_jobs, probe):
    """Closed loop over whole blocks.  Returns (untraced log, traced log,
    tracer, blocks run, peak RSS in MB after the first min_blocks blocks);
    log entries carry scaled times.  The RSS is read after a fixed number of
    blocks because the caches of the package grow with the jobs run, and the
    number of blocks that fit in the time varies with the machine's speed."""
    plain, traced_log = [], []
    tracer = spans.Tracer() if traced else None
    per_block = len(pool[0])
    min_blocks = 1 if traced else -(-min_jobs // per_block)
    gc.collect()
    start = time.perf_counter()
    blocks, rss = 0, None
    while True:
        jobs = pool[blocks % len(pool)]
        # traced blocks alternate with untraced ones, first one then the
        # other, so warm-up does not bias the overhead either way
        for tracing in ((False, True) if blocks % 2 else (True, False)) \
                if traced else (False,):
            if tracing:
                tracer.install(hc)
            try:
                run_block(jobs, traced_log if tracing else plain, probe)
            finally:
                if tracing:
                    tracer.uninstall()
        blocks += 1
        if blocks == min_blocks:
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        elapsed = time.perf_counter() - start
        if elapsed > MAX_MEASURE_S:
            break
        if blocks >= min_blocks and elapsed * (blocks + 1) / blocks > seconds:
            break
    if rss is None:  # stopped by MAX_MEASURE_S before min_blocks
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    probe.sample()
    for e in plain + traced_log:
        e.scaled = e.raw * probe.scale(e.start, e.start + e.raw)
    return plain, traced_log, tracer, blocks, rss


def check_outputs(log):
    """Number of failed jobs; the first few reasons go to stderr."""
    failed = 0
    for e in log:
        reason = e.err if e.err is not None else e.job.verdict(e.out)
        if reason is not None:
            failed += 1
            if failed <= 5:
                print("FAILED %s %s: %s" % (e.job.kind, e.job.label, reason),
                      file=sys.stderr)
    return failed


# -- metrics -----------------------------------------------------------------------------


def timing_metrics(setup_times, times, per_block):
    """setup_s, jobs_per_s, job_ms_p50 and job_ms_p90 from job times in run
    order.  jobs_per_s is the block size over a typical block time: the sum,
    over the job slots of a block, of each slot's median time across the
    blocks run (blocks share their job mix slot by slot)."""
    block_time = sum(statistics.median(times[slot::per_block])
                     for slot in range(per_block))
    ordered = sorted(times)
    return {
        "setup_s": statistics.median(setup_times),
        "jobs_per_s": per_block / block_time,
        "job_ms_p50": 1000.0 * statistics.median(ordered),
        "job_ms_p90": 1000.0 * statistics.quantiles(
            ordered, n=10, method="inclusive")[8],
    }


def sloc(module):
    """Non-blank lines that are not comments, in src/homcount/<module>.py."""
    with open(os.path.join(SRC, "homcount", module + ".py")) as fh:
        return sum(1 for ln in fh
                   if ln.strip() and not ln.lstrip().startswith("#"))


def per_layer_metrics(tracer, plain, traced_log):
    n_jobs = len(traced_log)
    traced_wall = sum(e.raw for e in traced_log)
    rows = tracer.self_times()
    values = {}
    for span, suffix, _ in PER_CALL:
        own, calls, vol = rows.get(span, (0.0, tracer.calls.get(span, 0), {}))
        if suffix == "self_s":
            values[span + "." + suffix] = own / n_jobs
        elif suffix == "calls":
            values[span + "." + suffix] = calls / n_jobs
        elif suffix in RATE_VOLUME:
            amount = sum(vol.get(k, 0) for k in RATE_VOLUME[suffix])
            values[span + "." + suffix] = amount / own if own > 0 else 0.0
        elif suffix.startswith("peak"):
            values[span + "." + suffix] = vol.get(suffix, 0)
        else:
            values[span + "." + suffix] = vol.get(suffix, 0) / n_jobs
    module_self = {m: 0.0 for m in spans.MODULES}
    for span, (own, _, _) in rows.items():
        module_self[span.split(".")[0]] += own
    for m in spans.MODULES:
        values[m + ".self_share"] = module_self[m] / traced_wall
        values[m + ".errors"] = tracer.errors[m]
        values[m + ".sloc"] = sloc(m)
    values["trace.unattributed_share"] = 1.0 - sum(module_self.values()) / traced_wall
    values["trace.overhead_ratio"] = (sum(e.scaled for e in traced_log)
                                      / sum(e.scaled for e in plain) - 1.0)
    return values


# -- one workload ----------------------------------------------------------------------


def run_workload(args):
    if not os.path.isdir(os.path.join(SRC, "homcount")):
        print("homcount sources not found under %s" % SRC, file=sys.stderr)
        return 2
    workdir = os.path.join(OUT, "work-%s-%d" % (args.workload, os.getpid()))
    probe = speed.SpeedProbe()
    try:
        pool, hc, setup_raw, setup_scaled = set_up(
            args.workload, args.seed, args.smoke, workdir, probe)
        plain, traced_log, tracer, blocks, rss = measure(
            pool, hc, args.seconds, bool(args.trace),
            1 if args.smoke else MIN_JOBS, probe)
        log = plain + traced_log
        failed = check_outputs(log)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    per_block = len(pool[0])
    kinds = {}
    for job in pool[0]:
        kinds[job.kind] = kinds.get(job.kind, 0) + 1
    print("# workload %s seed %d seconds %d trace %d"
          % (args.workload, args.seed, args.seconds, args.trace))
    print("# python %s, nproc %d" % (platform.python_version(), os.cpu_count()))
    print("# blocks %d x %d jobs (%s); set-up times %s s"
          % (blocks, per_block,
             ", ".join("%s=%d" % kv for kv in sorted(kinds.items())),
             " ".join("%.3f" % t for t in setup_raw)))
    print("# reference task median %.3f ms over %d probes (nominal %.3f ms)"
          % (1000 * statistics.median(probe.durations), len(probe.durations),
             1000 * speed.REF_NOMINAL_S))
    if args.trace:
        values = per_layer_metrics(tracer, plain, traced_log)
        units = PER_LAYER
        path = os.path.join(OUT, "spans-%s-seed%d.tsv.gz"
                            % (args.workload, args.seed))
        tracer.dump(path)
        print("# %d traced jobs, %d spans written to %s"
              % (len(traced_log), len(tracer.spans), os.path.relpath(path, ROOT)))
    else:
        raw = timing_metrics(setup_raw, [e.raw for e in plain], per_block)
        values = timing_metrics(setup_scaled, [e.scaled for e in plain],
                                per_block)
        values["ok_ratio"] = (len(log) - failed) / len(log)
        values["peak_rss_mb"] = rss
        units = END_TO_END
        above = sum(1 for e in plain
                    if 1000.0 * e.scaled > values["job_ms_p90"])
        print("# %d jobs timed in %.2f s; percentiles over %d samples, "
              "%d above p90" % (len(plain), sum(e.raw for e in plain),
                                len(plain), above))
        print("# unscaled: " + ", ".join("%s %.6g" % kv for kv in raw.items()))
    for name, unit in units:
        print("%s: %.6g %s" % (name, values[name], unit))
    print("fail_ratio: %.6g failed/attempted (%d of %d)"
          % (failed / len(log), failed, len(log)))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(log),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units},
    }))
    return 0


# -- several runs --------------------------------------------------------------------------


def run_child(args, workload, seed):
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError("%s seed %d exited with %d"
                           % (workload, seed, proc.returncode))
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def run_all(args):
    failed = 0
    for workload in WORKLOADS:
        lines, result = run_child(args, workload, args.seed)
        print("\n".join(lines[:-1]))
        print()
        failed += result["failed"]
    return 1 if failed else 0


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def run_steady(args):
    names = WORKLOADS if args.workload in (None, "all") else [args.workload]
    seeds = list(range(args.seed, args.seed + args.steady))
    print("# steadiness: python %s, nproc %d, seeds %s, seconds %d, trace %d"
          % (platform.python_version(), os.cpu_count(), seeds, args.seconds,
             args.trace))
    failed = 0
    for workload in names:
        runs = []
        for seed in seeds:
            _, result = run_child(args, workload, seed)
            runs.append(result)
            failed += result["failed"]
        print("## %s: %d runs, attempted %s" % (
            workload, len(runs), [r["attempted"] for r in runs]))
        for name in runs[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in runs]
            med, q1, q3, share = spread(vals)
            print("%-44s median %-10.5g q1 %-10.5g q3 %-10.5g spread %.3f %s"
                  % (name, med, q1, q3, share,
                     runs[0]["metrics"][name]["unit"]))
            print("    runs: " + " ".join("%.5g" % v for v in vals))
    return 1 if failed else 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--steady", type=int, default=0,
                   help="run each workload on this many seeds (>= 2)")
    p.add_argument("--smoke", action="store_true",
                   help="one tiny block per workload, one set-up")
    args = p.parse_args(argv)
    if args.steady:
        if args.steady < 2:
            p.error("--steady needs at least 2 runs")
        return run_steady(args)
    if args.workload in (None, "all"):
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
