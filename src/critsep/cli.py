"""Command line front end: configuration, runs and persistence.

Subcommands:

    solve           minimize at a single coupling value, write the profile,
                    a JSON summary and a manifest
    sweep           lambda continuation with warm starts, write the record
                    table, the limit profile, the warm start and manifest
    sync-threshold  bracket the synchronized-solution emptiness threshold
    verify          run the invariant battery of `checks` and print its table
    sobolev         print the embedding constant and its cross-check

Config files are JSON trees whose numeric leaves are decimal strings (so
emitted configs re-parse to identical values); an unknown key is an error, and
the retired `solver.positivity_enforced` also reads a JSON true.  Data files
are deterministic for a fixed config; only the manifest carries timestamps.
Warnings of the library (a sweep row that failed, say) go to stderr as
`critsep: WARNING: <logger>: <message>`.
"""

import argparse
import functools
import hashlib
import json
import logging
import os
import sys
import time
from dataclasses import dataclass, replace

import numpy as np

from . import checks, scalar
from .errors import BracketError, DomainError
from .functional import CouplingParams, PairState, check_exponents
from .geometry import ModelParams, build_grid, sobolev_constant
from .separation import SweepSchedule, geometric_schedule, sweep_lambda
from .solver import (ARMIJO_BACKTRACK, ARMIJO_SLOPE, SOLVE_ERRORS, SolveOptions, cold_start,
                     minimize_nehari)

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

    def __post_init__(self):
        if not isinstance(self.out_dir, str) or not self.out_dir:
            raise DomainError(f"output directory must be a non-empty path, got {self.out_dir!r}")


def default_config() -> RunConfig:
    return RunConfig(
        model=ModelParams(N=4, m=2, n=3, M=512),
        coupling=CouplingParams(mu1=1.0, mu2=1.0, alpha=2.0, beta=2.0, lam=-1.0),
        solver=SolveOptions(),
        sweep=geometric_schedule(-1.0, -1e4, 20),
    )


@dataclass(frozen=True)
class _Fixed:
    value: object


# Every key a config tree may hold, section -> key -> (parse, becomes); any
# other key is an error.  A leaf is parsed from its text, parse(str(leaf)), so
# a JSON boolean or a fractional integer leaf raises ValueError where
# parse(leaf) would coerce it (float(True) is 1.0, int(16.9) is 16).  It fills
# the field named by becomes (output.dir as it is, or "out" when left out;
# each element of sweep.lambdas is a leaf), equals the _Fixed value a key of
# earlier configs runs with (str.lower reads a JSON true as "true"), or is
# ignored (solver.seed never reached a result).  A field is emitted as
# repr(parse(value)), the shortest round-trip text of an int or a float.
_SCHEMA = {
    "model": {"N": (int, "N"), "m": (int, "m"), "n": (int, "n"), "M": (int, "M")},
    "coupling": {"mu1": (float, "mu1"), "mu2": (float, "mu2"), "alpha": (float, "alpha"),
                 "beta": (float, "beta"), "lambda": (float, "lam")},
    "solver": {"max_iters": (int, "max_iters"), "grad_tol": (float, "grad_tol"),
               "armijo_slope": (float, _Fixed(ARMIJO_SLOPE)),
               "armijo_backtrack": (float, _Fixed(ARMIJO_BACKTRACK)),
               "positivity_enforced": (str.lower, _Fixed("true")), "seed": (str, None)},
    "sweep": {"lambdas": (float, "lambdas")},
    "output": {"dir": (str, "out_dir"), "format": (str, _Fixed("csv"))},
}


def _each(key, leaf, f):
    """f of a leaf: of each element of sweep.lambdas, and none of output.dir."""
    if key == "lambdas":
        return [f(x) for x in leaf]
    return leaf if key == "dir" else f(leaf)


def config_to_tree(cfg: RunConfig) -> dict:
    tree = {section: {} for section in _SCHEMA}
    for section, keys in _SCHEMA.items():
        owner = cfg if section == "output" else getattr(cfg, section)
        for key, (parse, becomes) in keys.items():
            if isinstance(becomes, str):
                value = getattr(owner, becomes)
                tree[section][key] = _each(key, value, lambda x: repr(parse(x)))
    return tree


def config_from_tree(tree: dict) -> RunConfig:
    unknown = [f"{section}.{key}" for section, leaves in tree.items() for key in leaves.keys()
               if key not in _SCHEMA.get(section, {})]
    if unknown:
        raise DomainError(f"unknown config key {', '.join(unknown)}")
    fields = {section: {} for section in _SCHEMA}
    for section, keys in _SCHEMA.items():
        for key, (parse, becomes) in keys.items():
            required = isinstance(becomes, str) and key != "dir"
            if not required and key not in tree.get(section, {}):
                continue
            leaf = tree[section][key]
            value = _each(key, leaf, lambda x: parse(str(x)))
            if isinstance(becomes, str):
                fields[section][becomes] = value
            elif becomes is not None and value != becomes.value:
                raise DomainError(f"{section}.{key} is fixed at {becomes.value!r}, got {leaf!r}")
    return RunConfig(model=ModelParams(**fields["model"]),
                     coupling=CouplingParams(**fields["coupling"]),
                     solver=SolveOptions(**fields["solver"]),
                     sweep=SweepSchedule(**fields["sweep"]), **fields["output"])


def _json_text(obj) -> str:
    """The text of every JSON file written: sorted keys, indent 2, a final newline."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def save_config(cfg: RunConfig, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(_json_text(config_to_tree(cfg)))


def load_config(path: str) -> RunConfig:
    """The config in a file; a file that cannot be read or parsed raises DomainError."""
    try:
        with open(path) as fh:
            return config_from_tree(json.load(fh))
    except DomainError:
        raise
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        raise DomainError(f"bad config file {path!r}: {type(exc).__name__}: {exc}") from exc


def config_digest(cfg: RunConfig) -> str:
    blob = json.dumps(config_to_tree(cfg), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


# ---------------------------------------------------------------- output


def _write_run(cfg: RunConfig, files: dict, extra=None) -> None:
    """Write each {name: text} of files to the output directory, then the
    manifest: the config, each file's sha256 and byte count, and extra."""
    os.makedirs(cfg.out_dir, exist_ok=True)
    listed = {}
    for name, text in files.items():
        blob = text.encode()
        with open(os.path.join(cfg.out_dir, name), "wb") as fh:
            fh.write(blob)
        listed[name] = {"sha256": hashlib.sha256(blob).hexdigest(), "bytes": len(blob)}
    manifest = {
        "artifact_version": ARTIFACT_VERSION,
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "config": config_to_tree(cfg),
        "config_sha256": config_digest(cfg),
        "files": listed,
        **(extra or {}),
    }
    with open(os.path.join(cfg.out_dir, "manifest.json"), "w") as fh:
        fh.write(_json_text(manifest))


def _table_text(cfg: RunConfig, title: str, columns, rows) -> str:
    """The one CSV table format: comment lines with the title and the config
    digest, the header of columns, then the cells of each row."""
    return (
        f"# critsep {title}\n"
        f"# config_sha256: {config_digest(cfg)}\n"
        "# units: theta in radians, energies dimensionless\n"
        + ",".join(columns) + "\n" + "\n".join(map(",".join, rows)) + "\n"
    )


@functools.lru_cache(maxsize=4)
def _grid_text(params: ModelParams) -> tuple:
    """The theta and weight cells of a profile table on the grid of params.

    They depend on the grid alone, so every profile written on one grid in
    a process shares them (about 1.2 MB of strings at M = 8192).
    """
    grid = build_grid(params)
    return tuple(map(repr, grid.theta.tolist())), tuple(map(repr, grid.weights.tolist()))


def _profile_text(cfg, name, grid, u, v) -> str:
    """Profile table (theta, u, v, weight) on grid, titled name."""
    u = np.asarray(u, dtype=float).tolist()
    v = np.asarray(v, dtype=float).tolist()
    theta, weight = _grid_text(grid.params)
    # repr of a Python float is the shortest round-trip form, as
    # repr(float(x)) of a numpy scalar; the u and v strings are made as the
    # rows are joined, so no list of strings per column is held
    return _table_text(cfg, name, ("theta", "u", "v", "weight"),
                       zip(theta, map(repr, u), map(repr, v), weight))


def _load_profile_pair(path, grid):
    """The (u, v) columns of a profile table; DomainError unless the file can
    be read, every cell is a finite float and there is one row per node of grid."""
    try:
        with open(path) as fh:
            lines = [l.strip() for l in fh if l.strip() and not l.startswith("#")]
        names = lines[0].split(",")
        data = np.array([[float(x) for x in l.split(",")] for l in lines[1:]])
        u, v = (data[:, names.index(name)] for name in ("u", "v"))
    except (OSError, IndexError, ValueError) as exc:
        raise DomainError(f"bad profile {path!r}: {type(exc).__name__}: {exc}") from exc
    if len(u) != grid.size:
        raise DomainError(f"profile {path!r} has {len(u)} rows, the grid has {grid.size} nodes")
    if not np.isfinite(data).all():
        raise DomainError(f"profile {path!r} holds a non-finite value")
    return PairState(u=u, v=v)


# ---------------------------------------------------------------- solve


def cmd_solve(cfg: RunConfig) -> int:
    grid = build_grid(cfg.model)
    failure = None
    try:
        start, start_iters = cold_start(cfg.coupling, grid, cfg.solver)
        res = minimize_nehari(start, cfg.coupling, grid, cfg.solver)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SOLVE_ERRORS as exc:
        failure = exc
        files = {"summary.json": _json_text(
            {"status": f"failed: {type(exc).__name__}", "detail": str(exc)})}
    else:
        summary = {
            "energy": res.energy,
            "grad_norm": res.grad_norm,
            "full_grad_norm": res.full_grad_norm,
            "residual_f": res.residuals.f_val,
            "residual_h": res.residuals.h_val,
            "iterations": res.iterations,
            "start_iterations": start_iters,
            "converged": res.converged,
            "multipliers": list(res.multipliers),
            "invariants": checks.invariant_flags(res.stats),
            "config_sha256": config_digest(cfg),
        }
        files = {"profile.csv": _profile_text(cfg, "profile", grid, res.pair.u, res.pair.v),
                 "summary.json": _json_text(summary)}
    _write_run(cfg, files)
    if failure is not None:
        print(f"solve failed: {failure}", file=sys.stderr)
        return 4
    print(
        f"energy {res.energy:.10g}  grad {res.grad_norm:.3e}  "
        f"iters {res.iterations}  start iters {start_iters}  converged {res.converged}"
    )
    return 0 if res.converged else 3


# ---------------------------------------------------------------- sweep


SWEEP_COLUMNS = ("lambda", "energy", "overlap", "lambda_overlap",
                 "interface_theta", "iters", "status")


def _sweep_rows(records, limit_record) -> list:
    """The CSV cells of each sweep row, the limit row last."""
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
    grid = build_grid(cfg.model)
    warm_name = "warmstart_profile.csv"
    warm_path = os.path.join(cfg.out_dir, warm_name)
    try:
        check_exponents(cfg.coupling, cfg.model.N)
        resumed = resume and os.path.exists(warm_path)
        init = _load_profile_pair(warm_path, grid) if resumed else None
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    os.makedirs(cfg.out_dir, exist_ok=True)  # an unwritable --out fails before the sweep
    result = sweep_lambda(cfg.sweep, cfg.coupling, grid, cfg.solver, init=init)
    rows = _sweep_rows(result.records, result.limit_record)
    files = {"sweep.csv": _table_text(cfg, "sweep", SWEEP_COLUMNS, rows)}
    if result.limit_result is not None:
        w = result.limit_result.w
        files["limit_profile.csv"] = _profile_text(cfg, "limit_profile", grid,
                                                   np.maximum(w, 0.0), np.maximum(-w, 0.0))
    files["warmstart_profile.csv"] = _profile_text(cfg, "warmstart_profile", grid,
                                                   result.final_pair.u, result.final_pair.v)
    n_ok = sum(1 for r in result.records if r.status.startswith("ok"))
    files["sweep_summary.json"] = _json_text({
        "rows_ok": n_ok,
        "rows_total": len(result.records),
        "limit_energy": result.limit_record.energy,
        "limit_status": result.limit_record.status,
        "monotonicity_ok": result.monotonicity_ok,
        "predicted_starts": result.predicted_starts,
        "predictor_fallbacks": result.predictor_fallbacks,
        "config_sha256": config_digest(cfg),
    })
    _write_run(cfg, files, extra={"resumed_from": warm_name} if resumed else None)
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
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BracketError as exc:
        print(f"threshold search failed: {exc}", file=sys.stderr)
        return 6
    _write_run(cfg, {"sync_threshold.json": _json_text({
        "lambda_star": bracket.value,
        "bracket_empty": bracket.lam_empty,
        "bracket_nonempty": bracket.lam_nonempty,
        "width": bracket.width,
    })})
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


class _StderrHandler(logging.StreamHandler):
    """A stream handler on whatever ``sys.stderr`` is when a record arrives.

    The handler outlives the ``main`` call that attached it, so it must not
    keep the stream of that call: a later call may run with stderr
    redirected or captured.
    """

    def __init__(self):
        logging.Handler.__init__(self)  # StreamHandler's would assign the stream

    @property
    def stream(self):
        return sys.stderr


def _configure_logging():
    """One formatted stderr handler on the ``critsep`` logger; records still propagate."""
    logger = logging.getLogger("critsep")
    if not logger.handlers:
        handler = _StderrHandler()
        handler.setFormatter(logging.Formatter("critsep: %(levelname)s: %(name)s: %(message)s"))
        logger.addHandler(handler)


@functools.cache
def _parser():
    parser = argparse.ArgumentParser(
        prog="critsep",
        description="Symmetry-reduced solver for a competitive critical system",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def config_args(p, solves=True):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", help="output directory")
        if solves:
            p.add_argument("--grid", type=int, help="grid size override (M)")

    p_solve = sub.add_parser("solve", help="single-lambda minimization")
    config_args(p_solve)

    p_sweep = sub.add_parser("sweep", help="lambda continuation")
    config_args(p_sweep)
    p_sweep.add_argument("--resume", action="store_true",
                         help="warm-start from a persisted profile")

    p_sync = sub.add_parser("sync-threshold", help="synchronized-solution threshold")
    config_args(p_sync, solves=False)
    p_sync.add_argument("--width", type=float, default=1e-6)

    p_verify = sub.add_parser("verify", help="invariant battery")
    p_verify.add_argument("--skip-soft", action="store_true")

    p_sob = sub.add_parser("sobolev", help="print the embedding constant")
    p_sob.add_argument("--dim", type=int, default=4)
    return parser


def main(argv=None) -> int:
    _configure_logging()
    args = _parser().parse_args(argv)
    if args.command == "verify":
        return cmd_verify(include_soft=not args.skip_soft)
    try:
        if args.command == "sobolev":
            s, dev = sobolev_constant(args.dim), checks.sobolev_dual_dev(args.dim)
            print(f"S({args.dim}) = {s!r}  dual-form dev {dev:.2e}")
            return 0
        cfg = load_config(args.config) if args.config else default_config()
        if args.out is not None:
            cfg = replace(cfg, out_dir=args.out)
        if getattr(args, "grid", None) is not None:  # sync-threshold has no --grid
            cfg = replace(cfg, model=replace(cfg.model, M=args.grid))
        if args.command == "solve":
            return cmd_solve(cfg)
        if args.command == "sweep":
            return cmd_sweep(cfg, resume=args.resume)
        return cmd_sync_threshold(cfg, width=args.width)
    except (DomainError, OSError) as exc:  # OSError: an --out path that cannot be a directory
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
