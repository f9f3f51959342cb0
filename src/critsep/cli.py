"""Command line front end: configuration, runs, persistence, verification.

Subcommands:

    solve           minimize at a single coupling value, write the profile,
                    a JSON summary and a manifest
    sweep           lambda continuation with warm starts, write the record
                    table, a plot-data copy, the limit profile and manifest
    sync-threshold  bracket the synchronized-solution emptiness threshold
    verify          run the invariant battery and print a check table
    sobolev         print the embedding constant and its cross-check

Config files are JSON trees whose numeric leaves are decimal strings (so
emitted configs re-parse to identical values); booleans are "true"/"false".
Data files are deterministic for a fixed config and seed; only the manifest
carries timestamps.
"""

import argparse
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import dataclass, replace

import numpy as np

from . import scalar
from .errors import BracketError, CollapseError, ConvergenceError, DomainError
from .functional import (
    CouplingParams,
    PairState,
    check_exponents,
    energy,
    gradient,
    nehari_det_bound,
    nehari_matrix,
    nehari_project,
    pair_inner,
    pair_integrals,
    residuals_from_integrals,
    sobolev_lower_bound,
)
from .geometry import (
    ModelParams,
    build_grid,
    h1_form,
    integrate,
    orbit_weight,
    sobolev_constant,
    sphere_area,
)
from .separation import (
    SweepSchedule,
    geometric_schedule,
    interface_locate,
    sweep_lambda,
)
from .solver import SolveOptions, initial_guess, minimize_limit, minimize_nehari

ARTIFACT_VERSION = "0.1.0"

__all__ = [
    "CheckResult",
    "RunConfig",
    "cmd_solve",
    "cmd_sweep",
    "cmd_sync_threshold",
    "cmd_verify",
    "config_digest",
    "config_from_tree",
    "config_to_tree",
    "default_config",
    "load_config",
    "main",
    "run_checks",
    "save_config",
]


# ---------------------------------------------------------------- config


@dataclass(frozen=True)
class RunConfig:
    model: ModelParams
    coupling: CouplingParams
    solver: SolveOptions
    sweep: SweepSchedule
    out_dir: str = "out"
    fmt: str = "csv"


def default_config() -> RunConfig:
    return RunConfig(
        model=ModelParams(N=4, m=2, n=3, M=512),
        coupling=CouplingParams(mu1=1.0, mu2=1.0, alpha=2.0, beta=2.0, lam=-1.0),
        solver=SolveOptions(),
        sweep=geometric_schedule(-1.0, -1e4, 20),
    )


def _fnum(x) -> str:
    return repr(float(x))


def _fbool(x) -> str:
    return "true" if x else "false"


def config_to_tree(cfg: RunConfig) -> dict:
    m, c, s = cfg.model, cfg.coupling, cfg.solver
    return {
        "model": {"N": str(m.N), "m": str(m.m), "n": str(m.n), "M": str(m.M)},
        "coupling": {
            "mu1": _fnum(c.mu1),
            "mu2": _fnum(c.mu2),
            "alpha": _fnum(c.alpha),
            "beta": _fnum(c.beta),
            "lambda": _fnum(c.lam),
        },
        "solver": {
            "max_iters": str(s.max_iters),
            "grad_tol": _fnum(s.grad_tol),
            "armijo_slope": _fnum(s.armijo_slope),
            "armijo_backtrack": _fnum(s.armijo_backtrack),
            "positivity_enforced": _fbool(s.positivity_enforced),
            "seed": str(s.seed),
        },
        "sweep": {"lambdas": [_fnum(x) for x in cfg.sweep.lambdas]},
        "output": {"dir": cfg.out_dir, "format": cfg.fmt},
    }


def _parse_bool(s: str) -> bool:
    if s not in ("true", "false"):
        raise DomainError(f"expected 'true' or 'false', got {s!r}")
    return s == "true"


def config_from_tree(tree: dict) -> RunConfig:
    m = tree["model"]
    c = tree["coupling"]
    s = tree["solver"]
    out = tree.get("output", {})
    fmt = out.get("format", "csv")
    if fmt not in ("csv", "json"):
        raise DomainError(f"output format must be 'csv' or 'json', got {fmt!r}")
    return RunConfig(
        model=ModelParams(N=int(m["N"]), m=int(m["m"]), n=int(m["n"]), M=int(m["M"])),
        coupling=CouplingParams(
            mu1=float(c["mu1"]),
            mu2=float(c["mu2"]),
            alpha=float(c["alpha"]),
            beta=float(c["beta"]),
            lam=float(c["lambda"]),
        ),
        solver=SolveOptions(
            max_iters=int(s["max_iters"]),
            grad_tol=float(s["grad_tol"]),
            armijo_slope=float(s["armijo_slope"]),
            armijo_backtrack=float(s["armijo_backtrack"]),
            positivity_enforced=_parse_bool(s["positivity_enforced"]),
            seed=int(s["seed"]),
        ),
        sweep=SweepSchedule(lambdas=tuple(float(x) for x in tree["sweep"]["lambdas"])),
        out_dir=out.get("dir", "out"),
        fmt=fmt,
    )


def save_config(cfg: RunConfig, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(config_to_tree(cfg), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_config(path: str) -> RunConfig:
    with open(path) as fh:
        return config_from_tree(json.load(fh))


def config_digest(cfg: RunConfig) -> str:
    blob = json.dumps(config_to_tree(cfg), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


# ---------------------------------------------------------------- output


class _RunWriter:
    """Collects emitted files and writes the manifest last."""

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        self.out_dir = cfg.out_dir
        os.makedirs(self.out_dir, exist_ok=True)
        self.files = {}

    def path(self, name: str) -> str:
        return os.path.join(self.out_dir, name)

    def register(self, name: str) -> None:
        with open(self.path(name), "rb") as fh:
            blob = fh.read()
        self.files[name] = {
            "sha256": hashlib.sha256(blob).hexdigest(),
            "bytes": len(blob),
        }

    def write_text(self, name: str, text: str) -> None:
        with open(self.path(name), "w") as fh:
            fh.write(text)
        self.register(name)

    def write_json(self, name: str, obj) -> None:
        self.write_text(name, json.dumps(obj, indent=2, sort_keys=True) + "\n")

    def finish(self, extra=None) -> None:
        manifest = {
            "artifact_version": ARTIFACT_VERSION,
            "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "config": config_to_tree(self.cfg),
            "config_sha256": config_digest(self.cfg),
            "files": self.files,
        }
        if extra:
            manifest.update(extra)
        with open(self.path("manifest.json"), "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _meta_lines(cfg: RunConfig, title: str) -> str:
    return (
        f"# critsep {title}\n"
        f"# config_sha256: {config_digest(cfg)}\n"
        "# units: theta in radians, energies dimensionless\n"
    )


def _write_profile(writer, name, cfg, columns):
    """Profile table in the configured format; columns is a name->array dict."""
    lists = {k: np.asarray(v, dtype=float).tolist() for k, v in columns.items()}
    if cfg.fmt == "json":
        writer.write_json(name + ".json", lists)
        return name + ".json"
    header = ",".join(columns)
    # repr of a Python float is the shortest round-trip form, as
    # repr(float(x)) of a numpy scalar; the strings are made as the rows
    # are joined, so no list of strings per column is held
    rows = "\n".join(map(",".join, zip(*(map(repr, col) for col in lists.values()))))
    writer.write_text(name + ".csv", _meta_lines(cfg, name) + header + "\n" + rows + "\n")
    return name + ".csv"


def _load_profile_pair(path):
    with open(path) as fh:
        lines = [l.strip() for l in fh if l.strip() and not l.startswith("#")]
    names = lines[0].split(",")
    data = np.array([[float(x) for x in l.split(",")] for l in lines[1:]])
    cols = {name: data[:, i] for i, name in enumerate(names)}
    return PairState(u=cols["u"], v=cols["v"])


# ---------------------------------------------------------------- solve


def _stats_flags(stats):
    return {
        "energy_identity_ok": bool(stats.max_energy_identity_dev <= 1e-8),
        "lower_bounds_ok": bool(
            min(stats.min_bound_ratio_u, stats.min_bound_ratio_v) >= 0.99
        ),
        "det_bound_ok": bool(stats.min_det_ratio >= 0.99),
    }


def cmd_solve(cfg: RunConfig) -> int:
    if cfg.coupling.lam >= 0.0:
        print("error: competitive solve requires lambda < 0", file=sys.stderr)
        return 2
    try:
        check_exponents(cfg.coupling, cfg.model)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    grid = build_grid(cfg.model)
    init = initial_guess("bumps", grid, cfg.solver.seed)
    writer = _RunWriter(cfg)
    try:
        res = minimize_nehari(init, cfg.coupling, grid, cfg.solver)
    except (CollapseError, ConvergenceError) as exc:
        writer.write_json(
            "summary.json",
            {"status": f"failed: {type(exc).__name__}", "detail": str(exc)},
        )
        writer.finish()
        print(f"solve failed: {exc}", file=sys.stderr)
        return 4

    _write_profile(
        writer,
        "profile",
        cfg,
        {"theta": grid.theta, "u": res.pair.u, "v": res.pair.v, "weight": grid.weights},
    )
    summary = {
        "energy": res.energy,
        "grad_norm": res.grad_norm,
        "full_grad_norm": res.full_grad_norm,
        "residual_f": res.residuals.f_val,
        "residual_h": res.residuals.h_val,
        "iterations": res.iterations,
        "converged": res.converged,
        "multipliers": list(res.multipliers),
        "invariants": _stats_flags(res.stats),
        "config_sha256": config_digest(cfg),
    }
    writer.write_json("summary.json", summary)
    writer.finish()
    print(
        f"energy {res.energy:.10g}  grad {res.grad_norm:.3e}  "
        f"iters {res.iterations}  converged {res.converged}"
    )
    return 0 if res.converged else 3


# ---------------------------------------------------------------- sweep


SWEEP_COLUMNS = ("lambda", "energy", "overlap", "lambda_overlap",
                 "interface_theta", "iters", "status")


def _sweep_rows(records, limit_record) -> list:
    """The cells of each sweep row, as strings shared by the CSV and JSON outputs."""
    return [
        [
            repr(float(r.lam)),
            repr(float(r.energy)),
            repr(float(r.overlap)),
            repr(float(r.lambda_overlap)),
            repr(float(r.interface_theta)),
            str(r.solver_iters),
            r.status.replace(",", ";"),
        ]
        for r in list(records) + [limit_record]
    ]


def cmd_sweep(cfg: RunConfig, resume: bool = False) -> int:
    if any(l >= 0 for l in cfg.sweep.lambdas):
        print("error: sweep schedule must be negative", file=sys.stderr)
        return 2
    try:
        check_exponents(cfg.coupling, cfg.model)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    grid = build_grid(cfg.model)
    writer = _RunWriter(cfg)
    init = None
    resumed_from = None
    warm_name = "warmstart_profile.csv"
    warm_path = writer.path(warm_name)
    if resume and os.path.exists(warm_path):
        init = _load_profile_pair(warm_path)
        resumed_from = warm_name

    result = sweep_lambda(cfg.sweep, cfg.coupling, grid, cfg.solver, init=init)

    rows = _sweep_rows(result.records, result.limit_record)
    if cfg.fmt == "json":
        rows = [dict(zip(SWEEP_COLUMNS, row)) for row in rows]
        writer.write_json("sweep.json", rows)
        writer.write_json("plotdata.json", rows)
    else:
        table = "".join(",".join(row) + "\n" for row in [SWEEP_COLUMNS, *rows])
        meta = _meta_lines(cfg, "sweep")
        writer.write_text("sweep.csv", meta + table)
        # plot-data copy: same table, for direct consumption by plotting tools
        writer.write_text("plotdata.csv", meta + table)

    if result.limit_result is not None:
        _write_profile(
            writer,
            "limit_profile",
            cfg,
            {
                "theta": grid.theta,
                "u": np.maximum(result.limit_result.w, 0.0),
                "v": np.maximum(-result.limit_result.w, 0.0),
                "weight": grid.weights,
            },
        )
    _write_profile(
        writer,
        "warmstart_profile",
        cfg,
        {
            "theta": grid.theta,
            "u": result.final_pair.u,
            "v": result.final_pair.v,
            "weight": grid.weights,
        },
    )
    n_ok = sum(1 for r in result.records if r.status.startswith("ok"))
    writer.write_json(
        "sweep_summary.json",
        {
            "rows_ok": n_ok,
            "rows_total": len(result.records),
            "limit_energy": result.limit_record.energy,
            "limit_status": result.limit_record.status,
            "monotonicity_ok": result.monotonicity_ok,
            "config_sha256": config_digest(cfg),
        },
    )
    writer.finish(extra={"resumed_from": resumed_from} if resumed_from else None)
    print(f"sweep: {n_ok}/{len(result.records)} rows ok; "
          f"limit energy {result.limit_record.energy:.10g}")
    return 0 if n_ok >= 1 else 5


# ------------------------------------------------------- sync threshold


def cmd_sync_threshold(cfg: RunConfig, width: float = 1e-6) -> int:
    c = cfg.coupling
    try:
        bracket = scalar.sync_threshold(
            c.mu1, c.mu2, c.alpha, c.beta, cfg.model.N, width=width
        )
    except (BracketError, DomainError) as exc:
        print(f"threshold search failed: {exc}", file=sys.stderr)
        return 6
    writer = _RunWriter(cfg)
    writer.write_json(
        "sync_threshold.json",
        {
            "lambda_star": bracket.value,
            "bracket_empty": bracket.lam_empty,
            "bracket_nonempty": bracket.lam_nonempty,
            "width": bracket.width,
        },
    )
    writer.finish()
    print(
        f"lambda* ~ {bracket.value:.8g}  "
        f"(empty at {bracket.lam_empty:.8g}, nonempty at {bracket.lam_nonempty:.8g})"
    )
    return 0


# ---------------------------------------------------------------- verify


@dataclass
class CheckResult:
    name: str
    passed: bool
    hard: bool
    detail: str = ""


def _check_sphere_areas():
    targets = [
        (1, 2.0 * math.pi),
        (2, 4.0 * math.pi),
        (4, 8.0 * math.pi**2 / 3.0),
    ]
    worst = max(abs(sphere_area(k) - v) / v for k, v in targets)
    return worst <= 1e-12, f"max rel dev {worst:.2e}"


def _check_quadrature():
    worst = 0.0
    for N in range(4, 9):
        for m in range(2, N):
            params = ModelParams(N=N, m=m, n=N + 1 - m, M=64)
            grid = build_grid(params)
            area = sphere_area(N)
            worst = max(worst, abs(integrate(np.ones(grid.size), grid) - area) / area)
    return worst <= 1e-10, f"max rel dev {worst:.2e}"


def _check_weight_symmetry():
    params = ModelParams(N=6, m=3, n=4, M=64)
    swapped = ModelParams(N=6, m=4, n=3, M=64)
    rng = np.random.default_rng(7)
    theta = rng.uniform(0.0, 0.5 * math.pi, size=200)
    w1 = orbit_weight(theta, params)
    w2 = orbit_weight(0.5 * math.pi - theta, swapped)
    worst = np.max(np.abs(w1 - w2) / np.maximum(np.abs(w1), 1e-300))
    return worst <= 5e-13, f"max rel dev {worst:.2e}"


def _check_h1_properties():
    params = ModelParams(N=4, m=2, n=3, M=64)
    grid = build_grid(params)
    rng = np.random.default_rng(11)
    ok = True
    detail = []
    for _ in range(5):
        u = rng.normal(size=grid.size)
        v = rng.normal(size=grid.size)
        sym = abs(h1_form(u, v, grid) - h1_form(v, u, grid))
        if sym > 1e-10:
            ok = False
            detail.append(f"asymmetry {sym:.2e}")
        if h1_form(u, u, grid) <= 0.0:
            ok = False
            detail.append("not positive definite")
    if h1_form(np.zeros(grid.size), np.zeros(grid.size), grid) != 0.0:
        ok = False
        detail.append("nonzero at zero")
    return ok, "; ".join(detail) or "symmetric positive definite on samples"


def _check_sobolev_dual(inject=None):
    factor = (inject or {}).get("sobolev_factor", 1.0)
    worst = 0.0
    for N in (4, 5, 6):
        s_closed = sobolev_constant(N) * factor
        s_dual = (N * (N - 2) / 4.0) * sphere_area(N) ** (2.0 / N)
        worst = max(worst, abs(s_closed - s_dual) / s_dual)
    return worst <= 1e-12, f"max rel dev {worst:.2e}"


def _random_pair(grid, rng, positive=False):
    def profile():
        acc = np.zeros(grid.size)
        for j in range(1, 5):
            acc += rng.normal(0.0, 0.5) * np.cos(2.0 * j * grid.theta) / j
        return np.exp(acc) if positive else acc + rng.normal(0.0, 0.2)

    return PairState(u=profile(), v=profile())


def _check_gradient_fd(n_pairs=5, M=64, tol=1e-6):
    params = ModelParams(N=4, m=2, n=3, M=M)
    grid = build_grid(params)
    cp = CouplingParams(mu1=1.0, mu2=1.3, alpha=2.0, beta=2.0, lam=-0.7)
    rng = np.random.default_rng(23)
    worst = 0.0
    for _ in range(n_pairs):
        pair = _random_pair(grid, rng, positive=True)
        direction = _random_pair(grid, rng)
        g = gradient(pair, cp, grid)
        lhs = pair_inner(g, direction, grid)
        eps = 1e-5
        up = PairState(pair.u + eps * direction.u, pair.v + eps * direction.v)
        dn = PairState(pair.u - eps * direction.u, pair.v - eps * direction.v)
        rhs = (energy(up, cp, grid) - energy(dn, cp, grid)) / (2.0 * eps)
        worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1e-12))
    return worst <= tol, f"max rel dev {worst:.2e} over {n_pairs} pairs"


def _check_nehari_projection():
    params = ModelParams(N=4, m=2, n=3, M=64)
    grid = build_grid(params)
    cp = CouplingParams(mu1=1.0, mu2=2.0, alpha=2.0, beta=2.0, lam=-0.5)
    rng = np.random.default_rng(39)
    issues = []
    for _ in range(5):
        pair = _random_pair(grid, rng, positive=True)
        s, t = nehari_project(pair, cp, grid)
        scaled = PairState(s * pair.u, t * pair.v)
        ints = pair_integrals(scaled, cp, grid)
        res = residuals_from_integrals(ints, cp)
        scale = max(ints.a1, ints.a2)
        if max(abs(res.f_val), abs(res.h_val)) > 1e-8 * scale:
            issues.append("residuals after projection too large")
        s2, t2 = nehari_project(scaled, cp, grid)
        if abs(s2 - 1.0) > 1e-8 or abs(t2 - 1.0) > 1e-8:
            issues.append("projection of on-manifold pair differs from (1,1)")
        if ints.a1 < 0.99 * sobolev_lower_bound(cp.mu1, 4) or ints.a2 < 0.99 * sobolev_lower_bound(cp.mu2, 4):
            issues.append("norm floor violated")
        det = float(np.linalg.det(nehari_matrix(ints, cp, params)))
        if det < 0.99 * nehari_det_bound(ints, cp, params):
            issues.append("determinant bound violated")
        base = energy(scaled, cp, grid)
        for _ in range(20):
            rs, rt = np.exp(rng.normal(0.0, 0.7, size=2))
            trial = energy(PairState(rs * scaled.u, rt * scaled.v), cp, grid)
            if trial > base + 1e-10 * abs(base):
                issues.append("scaled energy exceeds on-manifold value")
                break
    return not issues, "; ".join(sorted(set(issues))) or "projection invariants hold"


def _check_sync_diagonal():
    inst = scalar.SyncInstance(mu1=1.0, mu2=1.0, alpha=2.0, beta=2.0, lam=-0.25, N=4)
    roots = scalar.sync_solve(inst)
    target = math.sqrt(2.0)
    hit = any(abs(s - target) < 1e-6 and abs(t - target) < 1e-6 for s, t in roots)
    gone = scalar.sync_solve(replace(inst, lam=-0.5))
    diag_left = [r for r in gone if abs(r[0] - r[1]) < 1e-6]
    ok = hit and not diag_left
    return ok, f"roots at -0.25: {len(roots)}, diagonal roots at -0.5: {len(diag_left)}"


def _check_fixed_point_free():
    ok = (
        scalar.fixed_point_free(1.0, 2.0, -0.5)
        and not scalar.fixed_point_free(1.0, 2.0, -0.4)
        and scalar.fixed_point_free(2.0, 1.5, -1.4)
    )
    return ok, "boundary and strict cases"


def _check_plane_identity():
    c = scalar.plane_coeffs(1.0, 1.0, 1.0, 4.0, 2.0, 2.0)
    es, et = scalar.plane_grad(c, 1.0, 1.0)
    if max(abs(float(es)), abs(float(et))) > 1e-12:
        return False, "gradient at (1,1) nonzero"
    box = scalar.plane_box(c)
    if not box.ok:
        return False, "no trapping box found"
    points, global_ok = scalar.plane_critical_points(c, box)
    only11 = len(points) == 1 and abs(points[0].s - 1) < 1e-6 and abs(points[0].t - 1) < 1e-6
    return only11 and global_ok, (
        f"critical points: {[(round(p.s, 6), round(p.t, 6), p.kind) for p in points]}"
    )


def _check_refinement(levels=(128, 256, 512)):
    cp = CouplingParams(mu1=1.0, mu2=1.0, alpha=2.0, beta=2.0, lam=-1.0)
    opts = SolveOptions(grad_tol=1e-8, max_iters=40000)
    energies = []
    for M in levels:
        grid = build_grid(ModelParams(N=4, m=2, n=3, M=M))
        res = minimize_nehari(initial_guess("bumps", grid, 0), cp, grid, opts)
        energies.append(res.energy)
    d1 = abs(energies[0] - energies[1])
    d2 = abs(energies[1] - energies[2])
    if d2 == 0.0:
        return True, "differences at roundoff; order check vacuous"
    ratio = d1 / d2
    return 2.0 <= ratio <= 8.0, (
        f"E({levels[0]})={energies[0]:.8f} E({levels[1]})={energies[1]:.8f} "
        f"E({levels[2]})={energies[2]:.8f}; diff ratio {ratio:.2f} (~4 expected)"
    )


def _soft_clambda_monotone():
    grid = build_grid(ModelParams(N=4, m=2, n=3, M=96))
    cp = CouplingParams(mu1=1.0, mu2=1.0, alpha=2.0, beta=2.0, lam=-1.0)
    sched = geometric_schedule(-1.0, -100.0, 6)
    result = sweep_lambda(sched, cp, grid, SolveOptions(grad_tol=1e-5))
    return result.monotonicity_ok, "energy nondecreasing along the schedule"


def _soft_interface_drift():
    grid = build_grid(ModelParams(N=4, m=2, n=3, M=96))
    opts = SolveOptions(grad_tol=1e-5)
    thetas = []
    for mu2 in (1.0, 2.0, 4.0):
        cp = CouplingParams(mu1=1.0, mu2=mu2, alpha=2.0, beta=2.0, lam=-1.0)
        init = initial_guess("bumps", grid, 0)
        res = minimize_limit(init.u - init.v, cp, grid, opts)
        thetas.append(interface_locate(res.w, grid))
    diffs = np.diff(thetas)
    monotone = bool(np.all(diffs > 0) or np.all(diffs < 0))
    return monotone, f"interface positions {[round(t, 4) for t in thetas]}"


def run_checks(inject=None, include_soft=True):
    """Run the verification battery; returns a list of CheckResult."""
    hard = [
        ("sphere_area_values", _check_sphere_areas),
        ("quadrature_exactness", _check_quadrature),
        ("orbit_weight_symmetry", _check_weight_symmetry),
        ("h1_form_properties", _check_h1_properties),
        ("sobolev_dual_formula", lambda: _check_sobolev_dual(inject)),
        ("gradient_finite_difference", _check_gradient_fd),
        ("nehari_projection", _check_nehari_projection),
        ("sync_diagonal_closed_form", _check_sync_diagonal),
        ("fixed_point_free_boundary", _check_fixed_point_free),
        ("plane_function_uniqueness", _check_plane_identity),
        ("refinement_order", _check_refinement),
    ]
    soft = [
        ("clambda_monotonicity", _soft_clambda_monotone),
        ("interface_mu2_drift", _soft_interface_drift),
    ]
    results = []
    for name, fn in hard:
        passed, detail = fn()
        results.append(CheckResult(name=name, passed=passed, hard=True, detail=detail))
    if include_soft:
        for name, fn in soft:
            passed, detail = fn()
            results.append(CheckResult(name=name, passed=passed, hard=False, detail=detail))
    return results


def cmd_verify(inject=None, include_soft=True) -> int:
    results = run_checks(inject=inject, include_soft=include_soft)
    width = max(len(r.name) for r in results)
    failed = []
    for r in results:
        tag = "HARD" if r.hard else "info"
        status = "pass" if r.passed else ("FAIL" if r.hard else "finding")
        print(f"[{tag}] {r.name:<{width}} {status:>8}  {r.detail}")
        if r.hard and not r.passed:
            failed.append(r.name)
    if failed:
        print(f"failed hard checks: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


# ------------------------------------------------------------------ main


def _apply_overrides(cfg: RunConfig, args) -> RunConfig:
    if getattr(args, "out", None):
        cfg = replace(cfg, out_dir=args.out)
    if getattr(args, "grid", None):
        cfg = replace(cfg, model=replace(cfg.model, M=args.grid))
    if getattr(args, "seed", None) is not None:
        cfg = replace(cfg, solver=replace(cfg.solver, seed=args.seed))
    return cfg


def _load_or_default(args) -> RunConfig:
    cfg = load_config(args.config) if args.config else default_config()
    return _apply_overrides(cfg, args)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="critsep",
        description="Symmetry-reduced solver for a competitive critical system",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", help="output directory")
        p.add_argument("--seed", type=int, help="solver seed override")
        p.add_argument("--grid", type=int, help="grid size override (M)")

    p_solve = sub.add_parser("solve", help="single-lambda minimization")
    common(p_solve)

    p_sweep = sub.add_parser("sweep", help="lambda continuation")
    common(p_sweep)
    p_sweep.add_argument("--resume", action="store_true",
                         help="warm-start from a persisted profile")

    p_sync = sub.add_parser("sync-threshold", help="synchronized-solution threshold")
    common(p_sync)
    p_sync.add_argument("--width", type=float, default=1e-6)

    p_verify = sub.add_parser("verify", help="invariant battery")
    common(p_verify)
    p_verify.add_argument("--skip-soft", action="store_true")
    p_verify.add_argument("--inject-bad-sobolev", action="store_true",
                          help=argparse.SUPPRESS)

    p_sob = sub.add_parser("sobolev", help="print the embedding constant")
    p_sob.add_argument("--dim", type=int, default=4)

    args = parser.parse_args(argv)

    if args.command == "solve":
        return cmd_solve(_load_or_default(args))
    if args.command == "sweep":
        return cmd_sweep(_load_or_default(args), resume=args.resume)
    if args.command == "sync-threshold":
        return cmd_sync_threshold(_load_or_default(args), width=args.width)
    if args.command == "verify":
        inject = {"sobolev_factor": 1.001} if args.inject_bad_sobolev else None
        return cmd_verify(inject=inject, include_soft=not args.skip_soft)
    if args.command == "sobolev":
        n = args.dim
        s = sobolev_constant(n)
        dual = (n * (n - 2) / 4.0) * sphere_area(n) ** (2.0 / n)
        print(f"S({n}) = {s!r}  dual-form dev {abs(s - dual) / dual:.2e}")
        return 0
    return 2


if __name__ == "__main__":
    sys.exit(main())
