"""Smoke test of the benchmark itself.

    python3 -m pytest -q bench/smoke.py     (or: python3 bench/smoke.py)

Runs every workload once at minimum length (``--seconds 0``: one pass, and
one traced pass with ``--trace 1``) and asserts that the result line names
exactly the metrics of BENCHMARK.json for that mode, each with its unit and
a finite value, that the outputs check correct, and that a traced run shows
a nonzero value for every layer metric predicted to move on that workload.
Also asserts that the benchmark refuses to run without a source tree.
"""

import json
import math
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(*args):
    return subprocess.run([sys.executable, os.path.join(BENCH_DIR, "run.py"), *args],
                          capture_output=True, text=True, cwd=ROOT)


def check_workload(workload, trace):
    proc = _run("--workload", workload, "--seed", "1", "--seconds", "0",
                "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
    if trace:
        assert not any(l.startswith("  layer check:") for l in lines), lines


def test_workloads():
    for workload in WORKLOADS:
        for trace in (0, 1):
            check_workload(workload, trace)


def test_refuses_without_source():
    empty = os.path.join(ROOT, ".bench_out", "empty-root")
    os.makedirs(empty, exist_ok=True)
    proc = _run("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "0",
                "--trace", "0", "--root", empty)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


if __name__ == "__main__":
    test_refuses_without_source()
    test_workloads()
    print("smoke test passed")
