"""Paired comparison of two critsep checkouts, measured with this benchmark.

    python3 bench/compare.py --parent PARENT_CHECKOUT --change CHANGE_CHECKOUT

Both sides run with this checkout's ``run.py`` (``--root`` selects the
source tree measured), one process at a time, for BENCHMARK.json's
``run_seconds``.  There are ten pairs; pair ``i`` gives both sides the seed
``1 + i``, and the parent runs first in even pairs and the change in odd
ones.  For each workload and end-to-end metric of BENCHMARK.json the report
gives each side's median and quartiles, the fraction of pairs the change
wins (ties count for neither side) and a verdict, using the metric's bound
from BENCHMARK.json:

    regression  a larger share of the workload's operations fails at the
                change than at the parent (this marks every metric of the
                workload; a share, because a faster side runs more passes)
    unresolved  the quartile distance of either side, as a share of its
                median, is wider than the bound, and not every change run
                beats every parent run
    regression  the change's median is worse than the parent's by more than
                the bound
    gain        the change wins at least 9/10 of the pairs and the medians
                differ by more than the parent's quartile distance
    same        none of the above

The report, with the machine stamp of both sides, is written to
``.bench_out/compare-<timestamp>.json``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import run as bench

BENCHMARK_JSON = os.path.join(os.path.dirname(bench.BENCH_DIR), "BENCHMARK.json")
PAIRS = 10
FIRST_SEED = 1


def run_side(root, workload, seed, seconds):
    cmd = [sys.executable, os.path.join(bench.BENCH_DIR, "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0", "--root", root]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def _spread(values):
    """Quartile distance as a share of the median."""
    q1, _, q3 = _quartiles(values)
    med = statistics.median(values)
    return (q3 - q1) / abs(med) if med else 0.0


def verdict(parent, change, bound, better, more_failures):
    """Compare two lists of paired values of one metric."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    pq, cq = _quartiles(parent), _quartiles(change)
    p_med, c_med = statistics.median(parent), statistics.median(change)
    spread = max(_spread(parent), _spread(change))
    if more_failures:
        status = "regression"
    elif spread > bound and not all(sign * (c - p) < 0 for c in change for p in parent):
        status = "unresolved"
    elif sign * (c_med - p_med) > bound * abs(p_med):
        status = "regression"
    elif wins >= 0.9 * len(parent) and abs(c_med - p_med) > pq[2] - pq[0]:
        status = "gain"
    else:
        status = "same"
    return {
        "parent": {"median": p_med, "q1": pq[0], "q3": pq[2], "values": parent},
        "change": {"median": c_med, "q1": cq[0], "q3": cq[2], "values": change},
        "win_frac": wins / len(parent),
        "spread": spread,
        "bound": bound,
        "verdict": status,
    }


def main(argv=None):
    with open(BENCHMARK_JSON) as fh:
        spec = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--parent", required=True, help="checkout of the parent commit")
    p.add_argument("--change", required=True, help="checkout of the change")
    p.add_argument("--workload", action="append",
                   choices=[w["name"] for w in spec["workloads"]],
                   help="workload to compare (repeatable; default all)")
    args = p.parse_args(argv)
    sides = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    seconds = spec["run_seconds"]

    report = {"stamp": {k: bench.machine_stamp(v, FIRST_SEED) for k, v in sides.items()},
              "pairs": PAIRS, "seconds": seconds, "workloads": {}}
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        runs = {"parent": [], "change": []}
        for i in range(PAIRS):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(run_side(sides[side], workload, FIRST_SEED + i,
                                           seconds))
        failed = {s: [r["failed"] for r in runs[s]] for s in runs}
        failed_frac = {s: sum(failed[s]) / sum(r["attempted"] for r in runs[s])
                       for s in runs}
        more_failures = failed_frac["change"] > failed_frac["parent"]
        rows = {}
        for m in spec["end_to_end"]:
            values = {s: [r["metrics"][m["name"]]["value"] for r in runs[s]] for s in runs}
            rows[m["name"]] = verdict(values["parent"], values["change"],
                                      m["bound"], m["better"], more_failures)
            rows[m["name"]]["unit"] = m["unit"]
        correct = {s: all(r["correct"] for r in runs[s]) for s in runs}
        report["workloads"][workload] = {"metrics": rows, "failed": failed,
                                         "failed_frac": failed_frac,
                                         "correct": correct}
        print(f"{workload}: correct parent {correct['parent']} change "
              f"{correct['change']}, failed_frac parent {failed_frac['parent']:.4f} "
              f"change {failed_frac['change']:.4f}")
        for name, r in rows.items():
            print(f"  {name:<20} parent {r['parent']['median']:.6g} "
                  f"[{r['parent']['q1']:.6g}, {r['parent']['q3']:.6g}]  "
                  f"change {r['change']['median']:.6g} "
                  f"[{r['change']['q1']:.6g}, {r['change']['q3']:.6g}] {r['unit']}  "
                  f"wins {r['win_frac']:.2f}  spread {r['spread']:.3f}/{r['bound']}  "
                  f"{r['verdict']}")
    os.makedirs(bench.OUT_DIR, exist_ok=True)
    path = os.path.join(bench.OUT_DIR, f"compare-{time.strftime('%Y%m%dT%H%M%S')}.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(f"report: {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
