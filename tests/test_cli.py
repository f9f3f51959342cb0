import hashlib
import json
import os
import re
from dataclasses import replace
from pathlib import Path

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
    _grid_text,
    _profile_text,
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
from critsep.errors import DomainError
from critsep.solver import SOLVE_ERRORS


def tiny_config(out_dir, M=64, lam=-1.0, lambdas=(-1.0, -3.0, -10.0, -30.0)):
    return RunConfig(
        model=ModelParams(N=4, m=2, n=3, M=M),
        coupling=CouplingParams(mu1=1.0, mu2=1.0, alpha=2.0, beta=2.0, lam=lam),
        solver=SolveOptions(grad_tol=1e-6, max_iters=20000),
        sweep=SweepSchedule(lambdas=lambdas),
        out_dir=str(out_dir),
    )


def test_config_round_trip():
    cfg = default_config()
    tree = config_to_tree(cfg)
    # all numeric leaves are decimal strings
    assert tree["coupling"]["mu1"] == "1.0"
    assert tree["model"]["N"] == "4"
    assert tree["solver"] == {"max_iters": "20000", "grad_tol": "1e-06"}
    assert all(isinstance(x, str) for x in tree["sweep"]["lambdas"])
    assert config_from_tree(tree) == cfg


def test_config_loads_json_numbers_as_their_decimal_text():
    # JSON integers, and JSON numbers in float leaves, load to the values
    # of the decimal strings
    tree = config_to_tree(default_config())
    tree["model"].update(N=4, M=512)
    tree["coupling"].update(mu1=1, alpha=2.0, beta=2)
    tree["solver"].update(max_iters=20000, grad_tol=1e-06)
    lambdas = tree["sweep"]["lambdas"]
    lambdas[:2] = [-1, float(lambdas[1])]
    assert config_from_tree(tree) == default_config()


@pytest.mark.parametrize("seed, positivity", [
    pytest.param("0", "true", id="0"),
    pytest.param("7", "true", id="7"),
    pytest.param("0", True, id="True"),
])
def test_config_with_the_retired_solver_keys_loads_as_the_default(seed, positivity):
    # the format of earlier versions: the retired keys at the values the
    # program runs with (positivity_enforced as a string or a JSON boolean),
    # and a seed that never reached a result
    tree = config_to_tree(default_config())
    tree["solver"].update(armijo_slope="0.0001", armijo_backtrack="0.5",
                          positivity_enforced=positivity, seed=seed)
    tree["output"]["format"] = "csv"
    assert config_from_tree(tree) == default_config()


def test_readme_config_example_loads():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```json\n(.*?)```", readme, flags=re.S)
    assert len(blocks) == 1
    cfg = config_from_tree(json.loads(blocks[0]))
    assert cfg.solver == default_config().solver
    assert cfg.sweep.lambdas == (-1.0, -10.0, -100.0)


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
    assert summary["start_iterations"] == 0  # M = 64 starts from bumps
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
    assert config_from_tree(manifest["config"]) == cfg


def test_cmd_solve_reports_the_iterations_of_a_nested_start(tmp_path, capsys):
    assert cmd_solve(tiny_config(tmp_path, M=4096)) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["converged"] is True
    assert summary["start_iterations"] > 0 and summary["iterations"] <= 3
    assert (f"iters {summary['iterations']}  start iters {summary['start_iterations']}  "
            "converged True") in capsys.readouterr().out


def test_cmd_solve_rejects_nonnegative_lambda(tmp_path):
    cfg = tiny_config(tmp_path / "bad", lam=0.5)
    with pytest.raises(DomainError, match="lambda"):
        cmd_solve(cfg)
    assert not (tmp_path / "bad").exists()  # validated before any compute


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
def test_a_pair_that_overflows_on_landing_fails_typed(tmp_path, capsys):
    # mu2 = 1e-300 scales v by about 1e150, so int |t v|^4 overflows, and
    # mu1 = 1e-300 puts mu1 int u^4 below the projection's 1e-300 floor: the
    # solve and every sweep row, the limit row too, fail instead of crashing
    for field, error in (("mu2", "ConvergenceError"), ("mu1", "DegenerateInputError")):
        base = tiny_config(tmp_path / field / "solve", M=16, lambdas=(-1.0, -10.0))
        cfg = replace(base, coupling=replace(base.coupling, **{field: 1e-300}))
        assert cmd_solve(cfg) == 4
        assert "solve failed:" in capsys.readouterr().err
        summary = json.loads((tmp_path / field / "solve" / "summary.json").read_text())
        assert summary["status"] == f"failed: {error}"
        cfg = replace(cfg, out_dir=str(tmp_path / field / "sweep"))
        assert cmd_sweep(cfg) == 5
        rows = [l.split(",")[6] for l in (tmp_path / field / "sweep" / "sweep.csv")
                .read_text().splitlines() if l and not l.startswith("#")][1:]
        assert len(rows) == 3
        assert all(r.startswith(f"failed: {error}") for r in rows[:2])
        assert rows[2].startswith("failed: ConvergenceError")  # the limit row overflows
    # above N = 4 the norm floor mu2^(-(N-2)/2) S^(N/2) of v overflows too
    failures = tuple(f"failed: {e.__name__}" for e in SOLVE_ERRORS)
    for N, m, n in ((5, 3, 3), (8, 4, 5)):
        out = tmp_path / f"N{N}"
        a = geometry.critical_exponent(N) / 2.0
        cfg = replace(tiny_config(out / "solve", M=16, lambdas=(-1.0, -10.0)),
                      model=ModelParams(N=N, m=m, n=n, M=16),
                      coupling=CouplingParams(mu1=1.0, mu2=1e-300, alpha=a, beta=a, lam=-1.0))
        assert cmd_solve(cfg) == 4
        assert json.loads((out / "solve" / "summary.json").read_text())["status"] in failures
        assert cmd_sweep(replace(cfg, out_dir=str(out / "sweep"))) == 5
        rows = [l.split(",")[6] for l in (out / "sweep" / "sweep.csv")
                .read_text().splitlines() if l and not l.startswith("#")][1:]
        assert len(rows) == 3 and all(r.startswith(failures) for r in rows)


def test_a_collapsed_component_fails_typed(tmp_path, capsys, monkeypatch):
    # a floor above every point of the Nehari set trips the pair's guard
    from critsep import solver

    monkeypatch.setattr(solver, "COLLAPSE_FRACTION", 1e6)
    assert cmd_solve(tiny_config(tmp_path, M=16)) == 4
    assert "component u collapsed" in capsys.readouterr().err
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary == {"status": "failed: CollapseError", "detail": "component u collapsed"}


def test_cmd_solve_deterministic(tmp_path):
    # data files of a solve and of a sweep are byte-identical across reruns
    # to one path; only the manifest carries a timestamp
    runs = [
        (cmd_solve, tiny_config(tmp_path / "a"), ["profile.csv", "summary.json"]),
        (cmd_sweep, tiny_config(tmp_path / "s", lambdas=(-1.0, -3.0, -10.0)),
         ["limit_profile.csv", "sweep.csv", "sweep_summary.json", "warmstart_profile.csv"]),
    ]
    for cmd, cfg, names in runs:
        out = Path(cfg.out_dir)
        assert cmd(cfg) == 0
        assert sorted(os.listdir(out)) == sorted(names + ["manifest.json"])
        first = [(out / name).read_bytes() for name in names]
        assert cmd(cfg) == 0
        assert [(out / name).read_bytes() for name in names] == first


def test_cmd_solve_output_path_reaches_only_the_config_digest(tmp_path):
    # the config digest covers output.dir, so one solve written to two
    # directories differs in its config_sha256 lines and nowhere else
    dirs = [tmp_path / "a", tmp_path / "elsewhere" / "b"]
    digests = [config_digest(tiny_config(d)) for d in dirs]
    assert digests[0] != digests[1]
    for d in dirs:
        assert cmd_solve(tiny_config(d)) == 0
    names = sorted(os.listdir(dirs[0]))
    assert names == sorted(os.listdir(dirs[1]))
    data_files = [name for name in names if name != "manifest.json"]
    assert data_files == ["profile.csv", "summary.json"]
    for name in data_files:
        first, second = ((d / name).read_text().splitlines() for d in dirs)
        assert len(first) == len(second)
        differ = [(x, y) for x, y in zip(first, second) if x != y]
        assert len(differ) == 1
        (x, y), = differ
        assert "config_sha256" in x and x.replace(*digests) == y


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
    # each table once, in CSV
    assert sorted(os.listdir(out)) == [
        "limit_profile.csv", "manifest.json", "sweep.csv",
        "sweep_summary.json", "warmstart_profile.csv",
    ]
    manifest = json.loads((out / "manifest.json").read_text())
    assert sorted(manifest["files"]) == [
        "limit_profile.csv", "sweep.csv", "sweep_summary.json", "warmstart_profile.csv",
    ]
    # every row converged, so each of the three after the first started
    # from a tangent prediction
    summary = json.loads((out / "sweep_summary.json").read_text())
    assert summary["rows_ok"] == 4
    assert (summary["predicted_starts"], summary["predictor_fallbacks"]) == (3, 0)


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


def _with_first_u_cell(table, value):
    """The profile table with the u cell of its first data row set to value."""
    lines = table.splitlines(keepends=True)
    i = next(k for k, line in enumerate(lines) if line[0].isdigit())
    theta, _u, rest = lines[i].split(",", 2)
    lines[i] = f"{theta},{value},{rest}"
    return "".join(lines)


@pytest.mark.parametrize(
    "M, cell, message",
    [
        pytest.param(128, None, "has 65 rows, the grid has 129 nodes", id="other-grid"),
        pytest.param(64, "abc", "could not convert string to float", id="non-numeric-cell"),
        pytest.param(64, "inf", "non-finite value", id="non-finite-cell"),
    ],
)
def test_cmd_sweep_resume_refuses_a_foreign_warm_start(tmp_path, capsys, M, cell, message):
    # a warm start that does not fit the grid is an error message and
    # status 2 from main before anything is written, not a traceback
    out = tmp_path / "sweep"
    cfg = tiny_config(out, lambdas=(-1.0, -2.0))
    assert cmd_sweep(cfg) == 0
    warm = out / "warmstart_profile.csv"
    if cell is not None:
        warm.write_text(_with_first_u_cell(warm.read_text(), cell))
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    save_config(cfg, str(tmp_path / "cfg.json"))
    capsys.readouterr()
    assert main(["sweep", "--config", str(tmp_path / "cfg.json"), "--grid", str(M),
                 "--resume"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_cmd_sweep_resume_reports_an_unreadable_warm_start(tmp_path):
    # a warm start that cannot be read (here a directory) raises as a bad
    # profile, and nothing is written
    out = tmp_path / "sweep"
    (out / "warmstart_profile.csv").mkdir(parents=True)
    with pytest.raises(DomainError, match="^bad profile .*IsADirectoryError"):
        cmd_sweep(tiny_config(out, lambdas=(-1.0, -2.0)), resume=True)
    assert os.listdir(out) == ["warmstart_profile.csv"]


def _solve_collapsed(cfg, monkeypatch):
    from critsep import solver

    monkeypatch.setattr(solver, "COLLAPSE_FRACTION", 1e6)
    return cmd_solve(cfg)


def _sweep_resumed(cfg, monkeypatch):
    assert cmd_sweep(cfg) == 0
    return cmd_sweep(cfg, resume=True)


@pytest.mark.parametrize("run, status", [
    pytest.param(lambda cfg, monkeypatch: cmd_solve(cfg), 0, id="solve"),
    pytest.param(_solve_collapsed, 4, id="failed-solve"),
    pytest.param(lambda cfg, monkeypatch: cmd_sweep(cfg), 0, id="sweep"),
    pytest.param(_sweep_resumed, 0, id="resumed-sweep"),
    pytest.param(lambda cfg, monkeypatch: cmd_sync_threshold(cfg, width=1e-4), 0,
                 id="sync-threshold"),
])
def test_manifest_lists_every_file_of_a_run(tmp_path, monkeypatch, run, status):
    # the manifest lists exactly the other files of the directory, each
    # with its digest and byte count
    cfg = tiny_config(tmp_path / "run", M=16, lambdas=(-1.0, -2.0))
    assert run(cfg, monkeypatch) == status
    out = Path(cfg.out_dir)
    manifest = json.loads((out / "manifest.json").read_text())
    assert sorted(manifest["files"]) == sorted(set(os.listdir(out)) - {"manifest.json"})
    for name, entry in manifest["files"].items():
        blob = (out / name).read_bytes()
        assert entry == {"sha256": hashlib.sha256(blob).hexdigest(), "bytes": len(blob)}
    assert config_from_tree(manifest["config"]) == cfg
    assert manifest["config_sha256"] == config_digest(cfg)


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


def test_main_writes_library_warnings_formatted_to_stderr(tmp_path, capsys, caplog):
    # one row, cut at max_iters 1: the sweep warns that it did not converge
    cfg = tiny_config(tmp_path / "sweep", lambdas=(-1.0,))
    save_config(replace(cfg, solver=SolveOptions(grad_tol=1e-6, max_iters=1)), tmp_path / "cfg.json")
    argv = ["sweep", "--config", str(tmp_path / "cfg.json")]
    line = ("critsep: WARNING: critsep.separation: 1 of 1 rows did not converge; "
            "energy monotonicity not established\n")
    for _ in range(2):  # a second in-process run must not stack a second handler
        assert main(argv) == 5
        assert capsys.readouterr().err.count(line) == 1
    # the records still propagate to the root logger
    assert caplog.text.count("1 of 1 rows did not converge") == 2


def test_main_sobolev_reports_a_dimension_below_three(capsys):
    assert main(["sobolev", "--dim", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "needs N >= 3" in err
    # Gamma(N) overflows a float from N = 172 on
    assert main(["sobolev", "--dim", "172"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "overflows a float for N = 172" in err


@pytest.mark.parametrize("width", ["0", "-1", "nan"])
def test_main_sync_threshold_reports_a_bad_width(tmp_path, capsys, width):
    out = tmp_path / "sync"
    assert main(["sync-threshold", "--width", width, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "width must be finite and positive" in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    pytest.param(["solve", "--grid", "32"], id="solve"),
    pytest.param(["sweep", "--grid", "32"], id="sweep"),
    pytest.param(["sync-threshold"], id="sync-threshold"),
])
@pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
def test_main_reports_an_out_path_that_cannot_be_a_directory(tmp_path, capsys, argv, under):
    # an --out that is a file, or lies under one, is an error message and
    # status 2, not a FileExistsError or NotADirectoryError traceback
    taken = tmp_path / "taken"
    taken.write_text("a file\n")
    out = taken / "run" if under else taken
    assert main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert taken.read_text() == "a file\n"


def test_main_verify_inject(capsys, monkeypatch):
    _bad_sobolev(monkeypatch)
    assert main(["verify", "--skip-soft"]) == 1
    assert "sobolev_dual_formula" in capsys.readouterr().err


def _expected_profile_csv(cfg, grid, u, v):
    rows = [",".join(repr(float(x)) for x in vals)
            for vals in zip(grid.theta, u, v, grid.weights)]
    meta = ("# critsep profile\n"
            f"# config_sha256: {config_digest(cfg)}\n"
            "# units: theta in radians, energies dimensionless\n")
    return meta + "theta,u,v,weight\n" + "\n".join(rows) + "\n"


def test_profile_writer_matches_per_row_repr(tmp_path):
    # repr switches between fixed and scientific notation at 1e-4 and 1e16
    edge = [1e-5, 1e-4, 9.999999999999999e-05, 1e16, 1e15, 9999999999999998.0,
            -0.0, 0.0, 5e-324, 0.1 + 0.2, -1e-5, 1.0]
    cfg = tiny_config(tmp_path, M=16)
    grid = geometry.build_grid(cfg.model)
    rng = np.random.default_rng(7)
    n = grid.size
    u = np.array(edge + list(rng.uniform(-1.0, 1.0, n - len(edge))
                             * 10.0 ** rng.integers(-20, 20, n - len(edge))))
    v = np.array(edge[::-1] + list(rng.standard_normal(n - len(edge))))
    assert _profile_text(cfg, "profile", grid, u, v) == _expected_profile_csv(cfg, grid, u, v)


def test_profile_grid_columns_follow_the_split_not_only_M(tmp_path):
    # same M, different (N, m, n), so different weights: each file carries
    # the weight column of its own grid, not a cached one keyed on M
    for model in (ModelParams(N=4, m=2, n=3, M=32), ModelParams(N=5, m=3, n=3, M=32)):
        cfg = replace(tiny_config(tmp_path / str(model.N)), model=model)
        grid = geometry.build_grid(model)
        u = np.linspace(0.0, 1.0, grid.size)
        assert _profile_text(cfg, "profile", grid, u, u[::-1]) == \
            _expected_profile_csv(cfg, grid, u, u[::-1])


def test_sweep_profiles_share_one_grid_text_entry(tmp_path):
    cfg = tiny_config(tmp_path / "sweep", M=48, lambdas=(-1.0, -2.0))
    misses = _grid_text.cache_info().misses
    assert cmd_sweep(cfg) == 0
    assert (tmp_path / "sweep" / "limit_profile.csv").exists()
    assert (tmp_path / "sweep" / "warmstart_profile.csv").exists()
    assert _grid_text.cache_info().misses - misses <= 1


@pytest.mark.parametrize("grid", ["0", "8"])
def test_main_rejects_a_small_grid_override(tmp_path, capsys, grid):
    out = tmp_path / "run"
    assert main(["solve", "--grid", grid, "--out", str(out)]) == 2
    assert "need at least 16 grid cells" in capsys.readouterr().err
    assert not out.exists()


def _config_text(section, key, value, **more):
    """The default config with tree[section][key] = value and the other keys of ``more`` there."""
    tree = config_to_tree(default_config())
    tree[section].update({key: value, **more})
    return json.dumps(tree)


@pytest.mark.parametrize(
    "text, message",
    [
        pytest.param(_config_text("model", "M", "4"), "need at least 16 grid cells",
                     id="grid-below-16"),
        pytest.param(None, "FileNotFoundError", id="missing-file"),
        pytest.param("model: {N: 4}", "JSONDecodeError", id="not-json"),
        pytest.param("[1]", "bad config file", id="list-config"),
        pytest.param(json.dumps({**config_to_tree(default_config()), "sweep": "-1.0"}),
                     "bad config file", id="string-section"),
        pytest.param(json.dumps({"model": config_to_tree(default_config())["model"]}),
                     "KeyError: 'coupling'", id="missing-key"),
        pytest.param(_config_text("model", "N", "172", m="2", n="171"),
                     "Sobolev constant overflows a float for N = 172", id="gamma-overflow"),
        pytest.param(_config_text("model", "M", "abc"), "invalid literal for int()",
                     id="non-numeric-leaf"),
        pytest.param(_config_text("solver", "grad_tol", True),
                     "could not convert string to float: 'True'", id="grad-tol-boolean"),
        pytest.param(_config_text("model", "N", True), "invalid literal for int() with base 10: "
                     "'True'", id="integer-boolean"),
        pytest.param(_config_text("model", "M", 16.9), "invalid literal for int() with base 10: "
                     "'16.9'", id="fractional-grid"),
        pytest.param(_config_text("solver", "max_iters", 1.5), "invalid literal for int() "
                     "with base 10: '1.5'", id="fractional-max-iters"),
        pytest.param(_config_text("output", "dir", 5), "output directory must be a non-empty "
                     "path, got 5", id="numeric-output-dir"),
        pytest.param(_config_text("output", "dir", ["a"]), "output directory must be a "
                     "non-empty path, got ['a']", id="list-output-dir"),
        pytest.param(_config_text("solver", "gradtol", "1"),
                     "unknown config key solver.gradtol", id="misspelled-solver-key"),
        pytest.param(_config_text("model", "MM", "16"), "unknown config key model.MM",
                     id="misspelled-model-key"),
        pytest.param(json.dumps({**config_to_tree(default_config()), "modle": {"N": "4"}}),
                     "unknown config key modle.N", id="misspelled-section"),
        pytest.param(_config_text("solver", "positivity_enforced", False),
                     "solver.positivity_enforced is fixed at 'true'",
                     id="signed-iterates-boolean"),
        pytest.param(_config_text("solver", "positivity_enforced", "false"),
                     "solver.positivity_enforced is fixed at 'true'", id="signed-iterates"),
        pytest.param(_config_text("solver", "armijo_slope", "0.3"),
                     "solver.armijo_slope is fixed at 0.0001", id="armijo-slope"),
        pytest.param(_config_text("output", "format", "json"),
                     "output.format is fixed at 'csv'", id="json-output"),
        pytest.param(_config_text("coupling", "mu1", "nan"), "must be finite", id="mu1-nan"),
        pytest.param(_config_text("coupling", "mu1", "inf"), "must be finite", id="mu1-inf"),
        pytest.param(_config_text("coupling", "lambda", "-inf"), "must be finite",
                     id="lambda-minus-inf"),
        pytest.param(_config_text("sweep", "lambdas", ["-1.0", "nan"]),
                     "schedule values must be finite", id="schedule-nan"),
        pytest.param(_config_text("sweep", "lambdas", ["-1.0", "-inf"]),
                     "schedule values must be finite", id="schedule-minus-inf"),
    ],
)
def test_main_reports_a_domain_error_in_the_config_file(tmp_path, capsys, text, message):
    # every fault of the config file is an error message and status 2, no traceback
    path = tmp_path / "cfg.json"
    if text is not None:
        path.write_text(text)
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("argv", [
    pytest.param(["verify", "--grid", "8"], id="verify-grid"),
    pytest.param(["solve", "--seed", "1"], id="solve-seed"),
])
def test_subcommands_reject_flags_they_do_not_read(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv[1:])}" in capsys.readouterr().err


def test_config_rejects_an_empty_output_directory(tmp_path, capsys):
    with pytest.raises(DomainError):
        replace(default_config(), out_dir="")
    assert main(["solve", "--out", ""]) == 2
    assert "output directory" in capsys.readouterr().err
