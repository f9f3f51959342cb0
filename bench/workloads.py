"""The four benchmark workloads, their seeded inputs and their output checks.

A workload is a list of operations.  One pass runs every operation once,
through critsep's public entry points: ``critsep.cli.main`` for the
subcommands and the ``critsep.scalar`` functions that have no subcommand.
After a pass each operation's checker reads what the operation wrote and
returns one ``Outcome`` per unit of work (a sweep row, a cold solve, a limit
solve, a threshold bracket, a witness count, the plane suite, a verify run).

An outcome is ``ok`` when the unit succeeded.  It is ``wrong`` when the
program reported success but a check contradicts it (a limit energy off the
reference, a converged solve with a failed invariant, a witness that
disagrees with the bracket); any wrong outcome makes the run incorrect.  A
unit that honestly reports that it did not converge is a failure, not a
wrong result.

The seed only generates inputs.  It jitters the lambda schedule of
``continuation`` (each value by a factor within 1% of one; over seeds 0-39
a pass still takes 117-120 iterations, 5-6 Newton-dominated ones a row) and
draws the plane-function instances of ``scalar``.  ``cold-fine`` and
``deep-segregation`` use exact lambda values: their first-order phase is
chaotic in lambda (a 1e-3 jitter moves the deep sweep from 771 to 886-1129
iterations), so jittering them would measure that sensitivity instead of
the machine.

The M=8192 cold solve near -1e3 is chaotic even under rounding: lambda
-998 ... -1002 in steps of 1 take 38, 46, 190, 91 and 61 iterations, and a
rounding-only change in ``geometry`` (a reordered dot product) moves the
solve at -1000 from 190 to 85-213.  So ``cold-fine`` solves five exact
lambdas at relative offsets -2e-3 ... 2e-3 around each target, and its
totals average over that neighbourhood instead of resting on one draw.
"""

import json
import math
import os
from dataclasses import dataclass

import numpy as np

# Reference energies computed at the commit that introduced this benchmark.
LIMIT_ENERGY_M2048 = 365.42086350667
# Cold solves of ``cold-fine``: five lambdas around each of -1, -10, -1e3.
COLD_ENERGY_M8192 = {
    -0.998: 176.20285422119258, -0.999: 176.24565907331078,
    -1.0: 176.2884081726318, -1.001: 176.33110164934413,
    -1.002: 176.37373963320468,
    -9.98: 250.7513341590867, -9.99: 250.77642977221635,
    -10.0: 250.80149539812214, -10.01: 250.8265311025989,
    -10.02: 250.85153695123114,
    -998.0: 325.68123507095606, -999.0: 325.69075195751185,
    -1000.0: 325.7002571548947, -1001.0: 325.70975068907626,
    -1002.0: 325.7192325859444,
}
ENERGY_RTOL = 1e-6

# (mu1, mu2, alpha, beta, N, exact threshold or None)
SYNC_COUPLINGS = (
    (1.0, 1.0, 2.0, 2.0, 4, -0.5),
    (1.0, 2.0, 2.0, 2.0, 4, -math.sqrt(2.0) / 2.0),
    (1.0, 1.0, 1.5, 10.0 / 3.0 - 1.5, 5, None),
)
SYNC_WIDTH = 1e-8
SYNC_ERR_INDEX = 1           # the mu = (1, 2) coupling carries sync_threshold_err
SYNC_ATOL = 1e-6             # criterion-7 tolerance against a closed form
BRUTE_OFFSET = 1e-2
PLANE_INSTANCES = 50


@dataclass
class Outcome:
    label: str
    ok: bool
    detail: str = ""
    wrong: bool = False


@dataclass
class Op:
    """One call into critsep; ``call`` is timed, ``check`` is not."""

    label: str
    call: object                 # () -> value
    check: object                # (value) -> list of Outcome
    out_dir: str = None          # where the call writes its files, if anywhere


@dataclass
class Workload:
    grids: tuple                 # (N, m, n, M) of the grids a fresh process builds
    ops: list
    sync_err_op: Op = None       # the operation that brackets the mu = (1, 2) threshold


# ---------------------------------------------------------------- configs


def _config(out_dir, M, lam=-1.0, lambdas=(-1.0,), mu=(1.0, 1.0),
            alpha=2.0, beta=2.0, N=4, m=2, n=3, max_iters=20000):
    """A config tree in the documented JSON format (decimal-string leaves)."""
    f = lambda x: repr(float(x))
    return {
        "model": {"N": str(N), "m": str(m), "n": str(n), "M": str(M)},
        "coupling": {"mu1": f(mu[0]), "mu2": f(mu[1]), "alpha": f(alpha),
                     "beta": f(beta), "lambda": f(lam)},
        "solver": {"max_iters": str(max_iters), "grad_tol": "1e-06",
                   "armijo_slope": "0.0001", "armijo_backtrack": "0.5",
                   "positivity_enforced": "true", "seed": "0"},
        "sweep": {"lambdas": [f(x) for x in lambdas]},
        "output": {"dir": out_dir, "format": "csv"},
    }


def _write_config(out_dir, tree):
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "config.json")
    with open(path, "w") as fh:
        json.dump(tree, fh, indent=2, sort_keys=True)
    return path


def _cli_op(label, argv, out_dir, check):
    from critsep.cli import main
    return Op(label, lambda: main(argv), check, out_dir)


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _rel(a, b):
    return abs(a - b) / abs(b)


# ---------------------------------------------------------------- checks


def _sweep_check(label, n_rows, out_dir):
    """Every row and the limit row must be ok; the limit energy must match."""

    def check(rc):
        try:
            with open(os.path.join(out_dir, "sweep.csv")) as fh:
                lines = [l.rstrip("\n") for l in fh if not l.startswith("#")]
            summary = _read_json(os.path.join(out_dir, "sweep_summary.json"))
        except OSError as exc:
            return [Outcome(f"{label} row {i}", False, f"exit {rc}: {exc}")
                    for i in range(n_rows + 1)]
        rows = [l.split(",", 6) for l in lines[1:]]
        if rc != 0 or len(rows) != n_rows + 1:
            return [Outcome(f"{label} row {i}", False,
                            f"exit {rc}, {len(rows)} rows", wrong=rc == 0)
                    for i in range(n_rows + 1)]
        out = []
        for lam, *_rest, iters, status in rows[:-1]:
            out.append(Outcome(f"{label} lambda={float(lam):.6g}",
                               status.startswith("ok"), f"{status} ({iters} iters)"))
        status = summary["limit_status"]
        energy = summary["limit_energy"]
        ok = status.startswith("ok")
        dev = _rel(energy, LIMIT_ENERGY_M2048) if ok else math.nan
        wrong = ok and not dev <= ENERGY_RTOL
        out.append(Outcome(f"{label} limit", ok and not wrong,
                           f"{status}; energy {energy!r} rel dev {dev:.1e}", wrong))
        return out

    return check


def _solve_check(label, lam, out_dir):
    """summary.json must report converged, every invariant and the energy."""

    def check(rc):
        try:
            summary = _read_json(os.path.join(out_dir, "summary.json"))
        except OSError as exc:
            return [Outcome(label, False, f"exit {rc}: {exc}")]
        converged = summary.get("converged") is True
        flags = summary.get("invariants", {})
        bad = sorted(k for k, v in flags.items() if v is not True)
        dev = _rel(summary["energy"], COLD_ENERGY_M8192[lam]) if converged else math.nan
        wrong = converged and (bad or not flags or not dev <= ENERGY_RTOL)
        ok = rc == 0 and converged and not wrong
        return [Outcome(label, ok, f"exit {rc}, converged {converged}, "
                        f"{summary.get('iterations')} iters, failed invariants "
                        f"{bad}, energy rel dev {dev:.1e}", bool(wrong))]

    return check


def _threshold_check(label, exact, out_dir):
    def check(rc):
        try:
            res = _read_json(os.path.join(out_dir, "sync_threshold.json"))
        except OSError as exc:
            return [Outcome(label, False, f"exit {rc}: {exc}")]
        lo, hi = res["bracket_empty"], res["bracket_nonempty"]
        wrong = not (lo < hi < 0.0 and hi - lo <= SYNC_WIDTH)
        detail = f"bracket [{lo!r}, {hi!r}]"
        if exact is not None:
            err = abs(res["lambda_star"] - exact)
            wrong = wrong or err > SYNC_ATOL
            detail += f", |mid - exact| {err:.2e}"
        return [Outcome(label, rc == 0 and not wrong, detail, wrong)]

    return check


def threshold_value(op):
    """Bracket midpoint written by a threshold operation."""
    return _read_json(os.path.join(op.out_dir, "sync_threshold.json"))["lambda_star"]


def sync_threshold_err(op):
    """|bracket midpoint - (-sqrt(mu1 mu2)/2)| for the mu = (1, 2) coupling."""
    return abs(threshold_value(op) - SYNC_COUPLINGS[SYNC_ERR_INDEX][5])


def threshold_op(work, i):
    mu1, mu2, alpha, beta, N, exact = SYNC_COUPLINGS[i]
    out = os.path.join(work, f"threshold{i}")
    cfg = _write_config(out, _config(out, M=64, mu=(mu1, mu2), alpha=alpha,
                                     beta=beta, N=N, m=2, n=N - 1))
    argv = ["sync-threshold", "--config", cfg, "--width", repr(SYNC_WIDTH)]
    return _cli_op(f"threshold mu=({mu1:g},{mu2:g}) N={N} alpha={alpha:g}",
                   argv, out, _threshold_check(f"threshold {i}", exact, out))


def _brute_op(threshold, coupling, sign):
    """Witness cell count at the bracket midpoint +- BRUTE_OFFSET."""
    from critsep import scalar

    mu1, mu2, alpha, beta, N, _ = coupling
    label = f"brute {threshold.label} {'+' if sign > 0 else '-'}{BRUTE_OFFSET:g}"

    def call():
        lam = threshold_value(threshold) + sign * BRUTE_OFFSET
        inst = scalar.SyncInstance(mu1=mu1, mu2=mu2, alpha=alpha, beta=beta,
                                   lam=lam, N=N)
        return scalar.sync_brute_cells(inst)

    def check(cells):
        ok = cells > 0 if sign > 0 else cells == 0
        return [Outcome(label, ok, f"{cells} cells", wrong=not ok)]

    return Op(label, call, check)


def _plane_suite_op(seed):
    """Criterion-8 suite: the canonical instance plus seeded random ones."""
    from critsep import scalar

    rng = np.random.default_rng(seed)
    coeffs = [(float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.5, 2.0)),
               float(rng.uniform(0.1, 1.0))) for _ in range(PLANE_INSTANCES)]

    def call():
        canonical = scalar.plane_coeffs(1.0, 1.0, 1.0, 4.0, 2.0, 2.0)
        results = [(scalar.plane_box(canonical).ok,
                    scalar.plane_critical_points(canonical))]
        for a1, a2, d in coeffs:
            c = scalar.plane_coeffs(a1, a2, d, 4.0, 2.0, 2.0)
            box = scalar.plane_box(c)
            results.append((box.ok, scalar.plane_critical_points(c, box, starts=60)))
        return results

    def check(results):
        def unique_max(pts, gmax, tol):
            return (len(pts) == 1 and abs(pts[0].s - 1.0) < tol
                    and abs(pts[0].t - 1.0) < tol and pts[0].kind == "max" and gmax)

        (box0, (pts0, gmax0)), rest = results[0], results[1:]
        canonical_ok = box0 and unique_max(pts0, gmax0, 1e-7)
        boxes_ok = all(box_ok for box_ok, _ in rest)
        checked = [(pts, g) for _, (pts, g) in rest if all(p.kind == "max" for p in pts)]
        random_ok = all(unique_max(pts, g, 1e-6) for pts, g in checked)
        ok = canonical_ok and boxes_ok and random_ok and len(checked) >= 45
        return [Outcome("plane suite", ok,
                        f"canonical {canonical_ok}, boxes {boxes_ok}, "
                        f"{len(checked)}/{len(rest)} instances verified", wrong=not ok)]

    return Op("plane suite", call, check)


def _verify_op():
    from critsep.cli import main

    def check(rc):
        return [Outcome("verify", rc == 0, f"exit {rc}", wrong=rc != 0)]

    return Op("verify", lambda: main(["verify"]), check)


# ---------------------------------------------------------------- workloads


def continuation(seed, work):
    rng = np.random.default_rng(seed)
    lambdas = -np.geomspace(1.0, 1e4, 20) * np.exp(rng.uniform(-0.01, 0.01, 20))
    out = os.path.join(work, "sweep")
    cfg = _write_config(out, _config(out, M=2048, lambdas=lambdas))
    op = _cli_op("sweep", ["sweep", "--config", cfg], out,
                 _sweep_check("sweep", len(lambdas), out))
    return Workload(((4, 2, 3, 2048),), [op])


def cold_fine(seed, work):
    ops = []
    for lam in COLD_ENERGY_M8192:
        out = os.path.join(work, f"solve{-lam!r}")
        cfg = _write_config(out, _config(out, M=8192, lam=lam))
        label = f"solve lambda={lam:g}"
        ops.append(_cli_op(label, ["solve", "--config", cfg], out,
                           _solve_check(label, lam, out)))
    return Workload(((4, 2, 3, 8192),), ops)


def deep_segregation(seed, work):
    lambdas = -np.logspace(0.0, 7.0, 15)
    out = os.path.join(work, "sweep")
    cfg = _write_config(out, _config(out, M=2048, lambdas=lambdas, max_iters=300))
    op = _cli_op("sweep", ["sweep", "--config", cfg], out,
                 _sweep_check("sweep", len(lambdas), out))
    return Workload(((4, 2, 3, 2048),), [op])


def scalar_side(seed, work):
    ops = [threshold_op(work, i) for i in range(len(SYNC_COUPLINGS))]
    # Witness cells on both sides of the one bracket without a closed form;
    # the others are checked against theirs, and three witness pairs would
    # add 1 s to a pass and leave fewer passes in a run.
    i = next(i for i, c in enumerate(SYNC_COUPLINGS) if c[5] is None)
    ops += [_brute_op(ops[i], SYNC_COUPLINGS[i], +1),
            _brute_op(ops[i], SYNC_COUPLINGS[i], -1),
            _plane_suite_op(seed), _verify_op()]
    # grids of the refinement check that verify runs
    return Workload(((4, 2, 3, 128), (4, 2, 3, 256), (4, 2, 3, 512)), ops,
                    sync_err_op=ops[SYNC_ERR_INDEX])


WORKLOADS = {
    "continuation": continuation,
    "cold-fine": cold_fine,
    "deep-segregation": deep_segregation,
    "scalar": scalar_side,
}
