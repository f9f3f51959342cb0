import hashlib
import json
import os
from dataclasses import replace

import numpy as np
import pytest

from critsep import (
    CouplingParams,
    ModelParams,
    SolveOptions,
    SweepSchedule,
)
from critsep import geometry
from critsep.checks import run_checks
from critsep.cli import (
    RunConfig,
    _RunWriter,
    _meta_lines,
    _write_profile,
    cmd_solve,
    cmd_sweep,
    cmd_sync_threshold,
    cmd_verify,
    config_digest,
    config_from_tree,
    config_to_tree,
    default_config,
    load_config,
    main,
    save_config,
)


def tiny_config(out_dir, M=64, lam=-1.0, lambdas=(-1.0, -3.0, -10.0, -30.0)):
    return RunConfig(
        model=ModelParams(N=4, m=2, n=3, M=M),
        coupling=CouplingParams(mu1=1.0, mu2=1.0, alpha=2.0, beta=2.0, lam=lam),
        solver=SolveOptions(grad_tol=1e-6, max_iters=20000, seed=0),
        sweep=SweepSchedule(lambdas=lambdas),
        out_dir=str(out_dir),
    )


def test_config_round_trip():
    cfg = default_config()
    tree = config_to_tree(cfg)
    # all numeric leaves are decimal strings
    assert tree["coupling"]["mu1"] == "1.0"
    assert tree["model"]["N"] == "4"
    assert tree["solver"]["positivity_enforced"] == "true"
    assert all(isinstance(x, str) for x in tree["sweep"]["lambdas"])
    assert config_from_tree(tree) == cfg


def test_config_file_round_trip(tmp_path):
    cfg = default_config()
    path = tmp_path / "cfg.json"
    save_config(cfg, str(path))
    assert load_config(str(path)) == cfg
    assert config_digest(load_config(str(path))) == config_digest(cfg)


def test_config_rejects_bad_format():
    tree = config_to_tree(default_config())
    tree["output"]["format"] = "xml"
    with pytest.raises(Exception):
        config_from_tree(tree)


def test_cmd_solve_outputs_and_manifest(tmp_path):
    cfg = tiny_config(tmp_path / "run")
    assert cmd_solve(cfg) == 0
    out = tmp_path / "run"
    profile = (out / "profile.csv").read_text()
    rows = [l for l in profile.splitlines() if l and not l.startswith("#")]
    assert rows[0] == "theta,u,v,weight"
    assert len(rows) == 1 + cfg.model.M + 1  # header + M+1 nodes
    summary = json.loads((out / "summary.json").read_text())
    assert summary["converged"] is True
    assert summary["invariants"]["energy_identity_ok"]
    assert summary["invariants"]["lower_bounds_ok"]
    assert summary["invariants"]["det_bound_ok"]
    manifest = json.loads((out / "manifest.json").read_text())
    for name, entry in manifest["files"].items():
        blob = (out / name).read_bytes()
        assert hashlib.sha256(blob).hexdigest() == entry["sha256"]
        assert len(blob) == entry["bytes"]
    assert "profile.csv" in manifest["files"]
    assert "summary.json" in manifest["files"]


def test_cmd_solve_rejects_nonnegative_lambda(tmp_path, capsys):
    cfg = tiny_config(tmp_path / "bad", lam=0.5)
    assert cmd_solve(cfg) == 2
    assert "lambda" in capsys.readouterr().err
    assert not (tmp_path / "bad").exists()  # validated before any compute


def test_cmd_solve_deterministic(tmp_path):
    cfg = tiny_config(tmp_path / "a")
    assert cmd_solve(cfg) == 0
    first_profile = (tmp_path / "a" / "profile.csv").read_bytes()
    first_summary = (tmp_path / "a" / "summary.json").read_bytes()
    assert cmd_solve(cfg) == 0
    # data files are byte-identical across reruns; only the manifest
    # carries a timestamp
    assert (tmp_path / "a" / "profile.csv").read_bytes() == first_profile
    assert (tmp_path / "a" / "summary.json").read_bytes() == first_summary


def test_cmd_sweep_outputs(tmp_path):
    cfg = tiny_config(tmp_path / "sweep")
    assert cmd_sweep(cfg) == 0
    out = tmp_path / "sweep"
    table = (out / "sweep.csv").read_text()
    rows = [l for l in table.splitlines() if l and not l.startswith("#")]
    header = rows[0].split(",")
    assert header == [
        "lambda", "energy", "overlap", "lambda_overlap",
        "interface_theta", "iters", "status",
    ]
    assert len(rows) == 1 + len(cfg.sweep.lambdas) + 1  # header + rows + limit
    assert rows[-1].startswith("-inf,")
    assert all(r.split(",")[6].startswith("ok") for r in rows[1:])
    assert (out / "plotdata.csv").read_text() == table
    assert (out / "limit_profile.csv").exists()
    assert (out / "warmstart_profile.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert "sweep.csv" in manifest["files"]


def test_cmd_sweep_default_schedule_row_count(tmp_path):
    # the stock 20-point schedule yields 21 data rows: 20 couplings plus
    # the limit-problem row
    cfg = default_config()
    cfg = RunConfig(
        model=ModelParams(N=4, m=2, n=3, M=128),
        coupling=cfg.coupling,
        solver=cfg.solver,
        sweep=cfg.sweep,
        out_dir=str(tmp_path / "full"),
    )
    assert cmd_sweep(cfg) == 0
    table = (tmp_path / "full" / "sweep.csv").read_text()
    rows = [l for l in table.splitlines() if l and not l.startswith("#")]
    assert len(rows) == 1 + 21


def test_cmd_sweep_resume(tmp_path):
    cfg = tiny_config(tmp_path / "sweep2", lambdas=(-1.0, -2.0))
    assert cmd_sweep(cfg) == 0
    assert cmd_sweep(cfg, resume=True) == 0
    manifest = json.loads((tmp_path / "sweep2" / "manifest.json").read_text())
    assert manifest["resumed_from"] == "warmstart_profile.csv"


def test_cmd_sync_threshold(tmp_path):
    cfg = tiny_config(tmp_path / "sync", lam=-1.0)
    assert cmd_sync_threshold(cfg, width=1e-4) == 0
    data = json.loads((tmp_path / "sync" / "sync_threshold.json").read_text())
    assert data["lambda_star"] == pytest.approx(-0.5, abs=1e-3)


def test_cmd_sync_threshold_no_bracket(tmp_path, capsys):
    # lam* = -2e12 lies below the scan floor: exit 6 and no output file
    cfg = tiny_config(tmp_path / "sync", lam=-1.0)
    cfg = replace(cfg, coupling=replace(cfg.coupling, mu1=4e12, mu2=4e12))
    assert cmd_sync_threshold(cfg, width=1e-4) == 6
    assert "threshold search failed" in capsys.readouterr().err
    assert not (tmp_path / "sync" / "sync_threshold.json").exists()


def test_run_checks_all_hard_pass():
    results = run_checks(include_soft=False)
    failed = [r.name for r in results if r.hard and not r.passed]
    assert failed == []


def _bad_sobolev(monkeypatch):
    """Scale the closed-form Sobolev constant by 1.001 for one test."""
    exact = geometry.sobolev_constant
    monkeypatch.setattr(geometry, "sobolev_constant", lambda N: exact(N) * 1.001)


def test_cmd_verify_negative_control(capsys, monkeypatch):
    _bad_sobolev(monkeypatch)
    code = cmd_verify(include_soft=False)
    out = capsys.readouterr()
    assert code == 1
    assert "sobolev_dual_formula" in out.err


def test_main_sobolev_smoke(capsys):
    assert main(["sobolev", "--dim", "4"]) == 0
    assert "S(4)" in capsys.readouterr().out


def test_main_verify_inject(capsys, monkeypatch):
    _bad_sobolev(monkeypatch)
    assert main(["verify", "--skip-soft"]) == 1
    assert "sobolev_dual_formula" in capsys.readouterr().err


def test_json_output_format(tmp_path):
    cfg = tiny_config(tmp_path / "jsonrun")
    cfg = RunConfig(
        model=cfg.model, coupling=cfg.coupling, solver=cfg.solver,
        sweep=cfg.sweep, out_dir=cfg.out_dir, fmt="json",
    )
    assert cmd_solve(cfg) == 0
    data = json.loads((tmp_path / "jsonrun" / "profile.json").read_text())
    assert set(data) == {"theta", "u", "v", "weight"}
    assert len(data["theta"]) == cfg.model.M + 1


def test_profile_writer_matches_per_row_repr(tmp_path):
    # repr switches between fixed and scientific notation at 1e-4 and 1e16
    edge = [1e-5, 1e-4, 9.999999999999999e-05, 1e16, 1e15, 9999999999999998.0,
            -0.0, 0.0, 5e-324, 0.1 + 0.2, -1e-5, 1.0]
    rng = np.random.default_rng(7)
    n = 200
    columns = {
        "theta": np.array(edge * (n // len(edge)) + edge[: n % len(edge)]),
        "u": rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.integers(-20, 20, n),
        "v": rng.standard_normal(n),
        "weight": rng.uniform(0.0, 1e-3, n),
    }
    cfg = tiny_config(tmp_path)
    _write_profile(_RunWriter(cfg), "profile", cfg, columns)
    rows = [",".join(repr(float(x)) for x in vals) for vals in zip(*columns.values())]
    expected = _meta_lines(cfg, "profile") + "theta,u,v,weight\n" + "\n".join(rows) + "\n"
    assert (tmp_path / "profile.csv").read_text() == expected

    cfg = replace(cfg, fmt="json")
    _write_profile(_RunWriter(cfg), "profile", cfg, columns)
    lists = {k: [float(x) for x in v] for k, v in columns.items()}
    expected = json.dumps(lists, indent=2, sort_keys=True) + "\n"
    assert (tmp_path / "profile.json").read_text() == expected


def test_cmd_sweep_json_rows_equal_the_csv_cells(tmp_path):
    cfg = tiny_config(tmp_path / "csv")
    assert cmd_sweep(cfg) == 0
    assert cmd_sweep(replace(cfg, out_dir=str(tmp_path / "json"), fmt="json")) == 0
    lines = [l for l in (tmp_path / "csv" / "sweep.csv").read_text().splitlines()
             if l and not l.startswith("#")]
    header = lines[0].split(",")
    cells = [dict(zip(header, l.split(","))) for l in lines[1:]]
    rows = json.loads((tmp_path / "json" / "sweep.json").read_text())
    assert rows == cells
    assert json.loads((tmp_path / "json" / "plotdata.json").read_text()) == rows
