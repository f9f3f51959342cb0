"""Command line front end: configuration, runs and persistence.

Subcommands:

    solve           minimize at a single coupling value, write the profile,
                    a JSON summary and a manifest
    sweep           lambda continuation with warm starts, write the record
                    table, a plot-data copy, the limit profile and manifest
    sync-threshold  bracket the synchronized-solution emptiness threshold
    verify          run the invariant battery of `checks` and print its table
    sobolev         print the embedding constant and its cross-check

Config files are JSON trees whose numeric leaves are decimal strings (so
emitted configs re-parse to identical values); booleans are "true"/"false".
Data files are deterministic for a fixed config and seed; only the manifest
carries timestamps.
"""

import argparse
import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass, replace

import numpy as np

from . import checks, scalar
from .errors import BracketError, CollapseError, ConvergenceError, DomainError
from .functional import CouplingParams, PairState, check_exponents
from .geometry import ModelParams, build_grid, sobolev_constant
from .separation import SweepSchedule, geometric_schedule, sweep_lambda
from .solver import SolveOptions, initial_guess, minimize_nehari

ARTIFACT_VERSION = "0.1.0"

__all__ = [
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
        "invariants": checks.invariant_flags(res.stats),
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


def cmd_verify(include_soft=True) -> int:
    results = checks.run_checks(include_soft=include_soft)
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
        return cmd_verify(include_soft=not args.skip_soft)
    if args.command == "sobolev":
        n = args.dim
        print(f"S({n}) = {sobolev_constant(n)!r}  "
              f"dual-form dev {checks.sobolev_dual_dev(n):.2e}")
        return 0
    return 2


if __name__ == "__main__":
    sys.exit(main())
