"""Benchmark of critsep: one workload, timed passes, output checks, metrics.

    python3 bench/run.py --workload continuation --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and measures the package under
``src/`` there (``--root`` measures another checkout with this benchmark's
code).  Workloads: ``continuation``, ``cold-fine``, ``deep-segregation`` and
``scalar`` (see ``workloads.py``).

With ``--trace 0`` the passes run untraced and the end-to-end metrics are
reported: ``wall_s`` (median pass time), ``setup_s`` (median over fresh
processes that import critsep and build the workload's grids, including the
first H^1 factorization), ``solver_iters``, ``ok_frac``,
``sync_threshold_err`` and ``peak_rss_mb``.  With ``--trace 1`` untraced and
traced passes alternate and the per-layer metrics of ``tracing.py`` are
reported together with the tracing overhead.

Every pass is followed by the output checks.  The report, with a machine and
toolchain stamp, is printed and written under ``.bench_out/results/``; the
last line of standard output is the JSON result
``{"correct", "attempted", "failed", "metrics"}``.

The benchmark runs in one process, passes run one after another, BLAS is
held at one thread, and the set-up probes are child processes run one at a
time and waited for.
"""

import os

BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = BLAS_THREADS

import argparse
import contextlib
import glob
import io
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

import tracing
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(os.path.dirname(BENCH_DIR), ".bench_out")
SETUP_REPS = 5

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "solver_iters": "count",
    "ok_frac": "ratio",
    "sync_threshold_err": "1",
    "peak_rss_mb": "MB",
}

SETUP_CODE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import numpy as np
import critsep.cli
from critsep import ModelParams, build_grid
for N, m, n, M in json.loads(sys.argv[2]):
    grid = build_grid(ModelParams(N=N, m=m, n=n, M=M))
    grid.solve_h1(np.ones(grid.size))
"""


# ---------------------------------------------------------------- stamp


def _read(path):
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return None


def git_commit(root):
    """Commit of a checkout, read from .git without running git."""
    head = _read(os.path.join(root, ".git", "HEAD"))
    if head is None:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    commit = _read(os.path.join(root, ".git", ref))
    if commit:
        return commit
    for line in (_read(os.path.join(root, ".git", "packed-refs")) or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def machine_stamp(root, seed):
    import numpy
    import scipy

    cpu = "unknown"
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    for d in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level, kind, size = (_read(os.path.join(d, f)) for f in ("level", "type", "size"))
        caches[f"L{level} {kind}"] = size
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # older numpy has no dict mode
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_ENV},
        "seed": seed,
        "git_commit": git_commit(root),
    }


# ---------------------------------------------------------------- passes


def setup_seconds(src, grids):
    times = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, src, json.dumps(grids)],
                       check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times), times


def _is_typed(exc):
    return type(exc).__module__ == "critsep.errors"


def outputs(ops):
    """Files the operations wrote (the benchmark's own config files excluded)."""
    return [p for op in ops if op.out_dir
            for p in glob.glob(os.path.join(op.out_dir, "*"))
            if os.path.basename(p) != "config.json"]


def run_pass(workload, tracer):
    """One timed pass, then the output checks; returns (wall, outcomes, log)."""
    for path in outputs(workload.ops):
        os.remove(path)
    tracer.reset()
    log = io.StringIO()
    values = []
    with contextlib.redirect_stdout(log):
        t0 = time.perf_counter()
        for i, op in enumerate(workload.ops):
            tracer.op = i
            try:
                values.append(op.call())
            except Exception as exc:  # a failing operation must not stop the run
                values.append(exc)
                traceback.print_exc(file=log)
        wall = time.perf_counter() - t0
    outcomes = []
    for op, value in zip(workload.ops, values):
        if isinstance(value, Exception):
            outcomes.append(workloads.Outcome(
                op.label, False, f"{type(value).__name__}: {value}",
                wrong=not _is_typed(value)))
        else:
            outcomes += op.check(value)
    return wall, outcomes, log.getvalue()


def wall_summary(walls):
    """Median, the highest percentile with ten samples beyond it, count."""
    out = {"median": statistics.median(walls), "n": len(walls)}
    if len(walls) >= 11:
        ordered = sorted(walls)
        out[f"p{100.0 * (len(walls) - 10) / len(walls):.0f}"] = ordered[-11]
    return out


# ---------------------------------------------------------------- main


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--root", default=os.path.dirname(BENCH_DIR),
                   help="checkout whose src/critsep is measured")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    root = os.path.abspath(args.root)
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "critsep", "__init__.py")):
        print(f"error: no critsep source tree under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import critsep
    if not os.path.abspath(critsep.__file__).startswith(src + os.sep):
        print(f"error: imported critsep from {critsep.__file__}, not {src}",
              file=sys.stderr)
        return 2

    work = os.path.join(OUT_DIR, "work", args.workload)
    workload = workloads.WORKLOADS[args.workload](args.seed, work)

    walls, traced_walls, iters, outcomes, layers, layer_bytes = [], [], [], [], [], []
    deadline = time.perf_counter() + args.seconds
    while True:
        with tracing.Tracer(spans=False) as tally:
            wall, out, log = run_pass(workload, tally)
        walls.append(wall)
        iters.append(tally.total_iterations())
        outcomes += out
        if args.trace:
            with tracing.Tracer(spans=True) as tracer:
                wall, out, log = run_pass(workload, tracer)
            traced_walls.append(wall)
            outcomes += out
            layers.append(tracer.layer_metrics())
            layer_bytes.append(sum(os.path.getsize(p) for p in outputs(workload.ops)))
        if time.perf_counter() >= deadline:
            break
    with open(os.path.join(work, "last_pass_stdout.txt"), "w") as fh:
        fh.write(log)

    failed = sum(1 for o in outcomes if not o.ok)
    correct = not any(o.wrong for o in outcomes)
    setup_samples = []
    if args.trace:
        metrics = {k: statistics.median(l[k] for l in layers)
                   for k in layers[0]}
        metrics["cli.bytes_written"] = statistics.median(layer_bytes)
        metrics["trace.overhead_s"] = (statistics.median(traced_walls)
                                       - statistics.median(walls))
        units = tracing.PER_LAYER_UNITS
        missing = sorted(set(tracer.missing) | {
            k for k in tracing.EXPECT_NONZERO[args.workload] if not metrics[k] > 0})
    else:
        # sync_threshold_err is a property of the program, reported on every
        # workload; workloads without a threshold bracket measure it once
        # here, outside the timed passes.
        err_op = workload.sync_err_op
        if err_op is None:
            err_op = workloads.threshold_op(os.path.join(OUT_DIR, "work", "probe"),
                                            workloads.SYNC_ERR_INDEX)
            for path in outputs([err_op]):
                os.remove(path)
            with contextlib.redirect_stdout(io.StringIO()):
                rc = err_op.call()
            if rc != 0:
                print(f"error: {err_op.label} exited {rc}", file=sys.stderr)
                return 3
        try:
            sync_err = workloads.sync_threshold_err(err_op)
        except (OSError, KeyError, ValueError) as exc:
            print(f"error: cannot read the synchronized threshold: {exc}",
                  file=sys.stderr)
            return 3
        setup_s, setup_samples = setup_seconds(src, workload.grids)
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": setup_s,
            "solver_iters": statistics.median(iters),
            "ok_frac": (len(outcomes) - failed) / len(outcomes),
            "sync_threshold_err": sync_err,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
        missing = []

    stamp = machine_stamp(root, args.seed)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "stamp": stamp,
        "wall_s": wall_summary(walls),
        "pass_walls": walls,
        "traced_wall_s": wall_summary(traced_walls) if traced_walls else None,
        "setup_s_samples": setup_samples,
        "solver_iters_per_pass": iters,
        "attempted": len(outcomes),
        "failed": failed,
        "failed_frac": failed / len(outcomes),
        "correct": correct,
        "last_pass_checks": [vars(o) for o in out],
        "failures": sorted({f"{o.label}: {o.detail}" for o in outcomes if not o.ok}),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        "layer_check_missing": missing,
    }
    results = os.path.join(OUT_DIR, "results")
    os.makedirs(results, exist_ok=True)
    name = (f"{args.workload}-seed{args.seed}-trace{args.trace}-"
            f"{stamp['git_commit'][:12]}")
    report_path = os.path.join(results, name + ".json")
    with open(report_path, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    if args.trace:
        tracer.write_spans(os.path.join(results, name + "-spans.csv"))
    print_report(report)
    print(f"  result file: {report_path}")
    print(json.dumps({"correct": correct, "attempted": len(outcomes),
                      "failed": failed, "metrics": report["metrics"]}))
    return 0


def print_report(r):
    s = r["stamp"]
    print(f"critsep benchmark  workload {r['workload']}  seed {r['seed']}  "
          f"{r['seconds']:g} s  trace {r['trace']}")
    print(f"  {s['cpu_model']}, nproc {s['nproc']}, caches {s['caches']}")
    print(f"  python {s['python']}, numpy {s['numpy']}, scipy {s['scipy']}, "
          f"blas {s['blas']} ({BLAS_THREADS} thread), commit {s['git_commit']}")
    for o in r["last_pass_checks"]:
        tag = "ok  " if o["ok"] else ("WRONG" if o["wrong"] else "FAIL")
        print(f"  check {tag} {o['label']}: {o['detail']}")
    print(f"  operations {r['attempted']}, failed {r['failed']} "
          f"(failed_frac {r['failed_frac']:.4f}), correct {r['correct']}")
    w = r["wall_s"]
    print("  pass wall time: " + ", ".join(
        f"{k} {v:.4f} s" if k != "n" else f"n {v}" for k, v in w.items()))
    if r["traced_wall_s"]:
        print(f"  traced pass wall time: median {r['traced_wall_s']['median']:.4f} s, "
              f"n {r['traced_wall_s']['n']}")
    for k, m in r["metrics"].items():
        print(f"  {k:<42} {m['value']:>14.6g} {m['unit']}")
    if r["layer_check_missing"]:
        print("  layer check: zero or unreachable on this workload: "
              + ", ".join(r["layer_check_missing"]))


if __name__ == "__main__":
    sys.exit(main())
