import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from critsep import (
    ConvergenceError,
    CouplingParams,
    DomainError,
    ModelParams,
    PairState,
    SolveOptions,
    SweepSchedule,
    TopologyError,
    build_grid,
    geometric_schedule,
    initial_guess,
    interface_locate,
    minimize_limit,
    minimize_nehari,
    sweep_lambda,
    verify_tori,
)
from critsep.checks import invariant_flags
from critsep.separation import predict_start

PARAMS = ModelParams(N=4, m=2, n=3, M=128)
GRID = build_grid(PARAMS)
CP = CouplingParams(mu1=1.0, mu2=1.0, alpha=2.0, beta=2.0, lam=-1.0)
OPTS = SolveOptions(grad_tol=1e-6, max_iters=20000)


def test_schedule_validation():
    with pytest.raises(DomainError):
        SweepSchedule(lambdas=())
    with pytest.raises(DomainError):
        SweepSchedule(lambdas=(-1.0, 0.5))
    with pytest.raises(DomainError):
        SweepSchedule(lambdas=(-2.0, -1.0))
    for bad in ((-1.0, math.nan), (-1.0, -math.inf), (math.nan,)):
        with pytest.raises(DomainError, match="must be finite"):
            SweepSchedule(lambdas=bad)
    sched = geometric_schedule(-1.0, -100.0, 5)
    assert len(sched.lambdas) == 5
    assert sched.lambdas[0] == pytest.approx(-1.0)
    assert sched.lambdas[-1] == pytest.approx(-100.0)
    assert all(b < a for a, b in zip(sched.lambdas, sched.lambdas[1:]))


def test_interface_locate_synthetic_root():
    # cos(2 theta) crosses zero exactly once on the arc, at pi/4
    w = np.cos(2.0 * GRID.theta)
    theta0 = interface_locate(w, GRID)
    assert theta0 == pytest.approx(math.pi / 4.0, abs=GRID.h * GRID.h)


def test_interface_locate_pair_input():
    # complementary tanh profiles that cross at the middle of the arc
    split = np.tanh((GRID.theta - math.pi / 4.0) / (0.15 * math.pi / 2.0))
    pair = PairState(u=0.5 * (1.0 - split), v=0.5 * (1.0 + split))
    theta0 = interface_locate(pair, GRID)
    assert theta0 == pytest.approx(math.pi / 4.0, abs=2 * GRID.h)


def _dead_run_nan_and_zero_profiles():
    """At M = 64: cos(2 theta) with a zero run inside its positive support,
    cos(2 theta) with one NaN sample, and the zero profile."""
    grid = build_grid(ModelParams(N=4, m=2, n=3, M=64))
    gapped = np.cos(2.0 * grid.theta)
    gapped[10:14] = 0.0
    with_nan = np.cos(2.0 * grid.theta)
    with_nan[5] = np.nan
    return grid, gapped, with_nan, np.zeros(grid.size)


def test_interface_locate_topology_errors():
    with pytest.raises(TopologyError) as err:
        interface_locate(np.ones(GRID.size), GRID)
    assert err.value.crossings == 0
    with pytest.raises(TopologyError) as err:
        interface_locate(np.cos(6.0 * GRID.theta), GRID)
    assert err.value.crossings == 3
    # zero samples are skipped, a NaN sample leaves no live sample, and the
    # zero profile is reported as such
    grid, gapped, with_nan, zero = _dead_run_nan_and_zero_profiles()
    assert interface_locate(gapped, grid) == math.pi / 4
    with pytest.raises(TopologyError, match="expected exactly one sign change, found 0") as err:
        interface_locate(with_nan, grid)
    assert err.value.crossings == 0
    with pytest.raises(TopologyError, match="profile vanishes identically") as err:
        interface_locate(zero, grid)
    assert err.value.crossings == 0


def test_verify_tori_limit_minimizer():
    init = initial_guess("bumps", GRID)
    res = minimize_limit(init.u - init.v, CP, GRID, OPTS)
    report = verify_tori(res.w, GRID)
    assert report.passed
    assert report.sign_changes == 1
    assert report.positive_blocks == 1 and report.negative_blocks == 1
    assert report.positive_touches_zero  # u-bump side of the start wins theta=0
    assert 0.0 < report.interface_theta < math.pi / 2


def test_verify_tori_failures():
    report = verify_tori(np.cos(4.0 * GRID.theta), GRID)
    assert not report.passed
    assert report.sign_changes == 2
    report = verify_tori(np.ones(GRID.size), GRID)
    assert not report.passed
    assert report.negative_blocks == 0
    # the same sign analysis as interface_locate: a zero run splits the
    # positive support, and a NaN sample or the zero profile has no support
    grid, gapped, with_nan, zero = _dead_run_nan_and_zero_profiles()
    report = verify_tori(gapped, grid)
    assert not report.passed and report.detail == "positive support has 2 components"
    assert (report.positive_blocks, report.negative_blocks, report.sign_changes) == (2, 1, 1)
    for w in (with_nan, zero):
        report = verify_tori(w, grid)
        assert not report.passed
        assert (report.positive_blocks, report.negative_blocks, report.sign_changes) == (0, 0, 0)
        assert report.detail == ("positive support has 0 components; "
                                 "negative support has 0 components; 0 sign changes")


def test_sweep_records_and_limit():
    sched = geometric_schedule(-1.0, -100.0, 6)
    result = sweep_lambda(sched, CP, GRID, OPTS)
    assert len(result.records) == 6
    assert all(r.status == "ok" for r in result.records)
    for r in result.records:
        assert r.lam < 0
        assert r.overlap > 0.0  # finite-coupling minimizers keep positive overlap
        assert r.lambda_overlap == pytest.approx(-r.lam * r.overlap, rel=1e-12)
        assert 0.0 < r.interface_theta < math.pi / 2
    energies = [r.energy for r in result.records]
    # nondecreasing along the schedule within solver tolerance
    for a, b in zip(energies, energies[1:]):
        assert b >= a * (1.0 - 1e-6)
    assert result.monotonicity_ok
    overlaps = [r.overlap for r in result.records]
    assert all(b < a for a, b in zip(overlaps, overlaps[1:]))
    # the limit row dominates every finite-coupling energy
    assert result.limit_record.lam == -math.inf
    assert result.limit_record.status == "ok"
    assert result.limit_record.energy >= energies[-1]
    # per-record invariant batteries were collected
    assert all(s is not None and s.count > 0 for s in result.stats)
    for s in result.stats:
        assert all(invariant_flags(s).values()), invariant_flags(s)


def test_deep_sweep_converges_to_minus_1e9():
    # regression for the damped, nonmonotone Newton candidate: with the
    # full step and a monotone residual test every row from about -1.2e6
    # on ran into the 100-iteration cap
    grid = build_grid(ModelParams(N=4, m=2, n=3, M=512))
    opts = SolveOptions(grad_tol=1e-6, max_iters=100)
    result = sweep_lambda(geometric_schedule(-1.0, -1e9, 44), CP, grid, opts)
    failed = [(r.lam, r.status) for r in result.records if r.status != "ok"]
    assert failed == []
    assert result.limit_record.status == "ok"
    # the tangent-predicted starts take 164 iterations over the 44 rows; the
    # previous row's pair as the start took 267
    assert result.predicted_starts == 43
    assert sum(r.solver_iters for r in result.records) <= 190


def test_sweep_partial_failure_marks_rows():
    # an overlapping start at strong coupling cannot be projected, so the
    # first row fails and carries a marker while the sweep continues
    sched = SweepSchedule(lambdas=(-2.0, -3.0))
    init = PairState(u=np.ones(GRID.size), v=np.ones(GRID.size))
    result = sweep_lambda(sched, CP, GRID, OPTS, init=init)
    assert len(result.records) == 2
    assert result.records[0].status.startswith("failed:")
    assert math.isnan(result.records[0].energy)


def test_interface_drift_with_mu2_is_logged_not_asserted():
    # exploratory check: the interface should move monotonically as mu2
    # grows; a violation is reported as a finding, not a failure
    thetas = []
    for mu2 in (1.0, 2.0, 4.0):
        cp = CouplingParams(mu1=1.0, mu2=mu2, alpha=2.0, beta=2.0, lam=-1.0)
        init = initial_guess("bumps", GRID)
        res = minimize_limit(init.u - init.v, cp, GRID, OPTS)
        assert res.converged
        thetas.append(interface_locate(res.w, GRID))
    diffs = np.diff(thetas)
    if not (np.all(diffs > 0) or np.all(diffs < 0)):
        warnings.warn(f"interface drift not monotone across mu2 scan: {thetas}")


def test_sweep_marks_overlap_increase_after_the_monotonicity_check(monkeypatch):
    # rows from the fourth on whose overlap exceeds the previous ok row's are
    # marked; the energy check before the marking still sees every ok row
    from critsep import separation

    overlaps = iter([6.0, 7.0, 4.0, 4.5, 3.0, 3.2])
    energies = iter([1.0, 2.0, 3.0, 2.5, 4.0, 5.0])
    real = separation._record_from_result

    def scripted(*args):
        rec = real(*args)
        return replace(rec, overlap=next(overlaps), energy=next(energies))

    monkeypatch.setattr(separation, "_record_from_result", scripted)
    sched = geometric_schedule(-1.0, -100.0, 6)
    result = sweep_lambda(sched, CP, build_grid(ModelParams(N=4, m=2, n=3, M=64)), OPTS)
    assert [r.status for r in result.records] == [
        "ok", "ok", "ok", "ok;overlap-increase", "ok", "ok;overlap-increase",
    ]
    # the 3.0 -> 2.5 energy drop sits on a row that is marked afterwards
    assert not result.monotonicity_ok


def test_sweep_without_converged_rows_is_not_monotone(monkeypatch, caplog):
    # rows that did not converge establish no monotonicity: with every solve
    # cut at 2 iterations no row converges, and the flag must read false
    from critsep import separation

    real = separation.minimize_nehari

    def capped(init, cp, grid, opts):
        return real(init, cp, grid, replace(opts, max_iters=2))

    monkeypatch.setattr(separation, "minimize_nehari", capped)
    grid = build_grid(ModelParams(N=4, m=2, n=3, M=96))
    opts = SolveOptions(grad_tol=1e-5)
    result = sweep_lambda(geometric_schedule(-1.0, -100.0, 6), CP, grid, opts)
    assert [r.status for r in result.records] == ["not converged: max_iters exceeded"] * 6
    assert not result.monotonicity_ok
    assert "6 of 6 rows did not converge" in caplog.text


def test_sweep_records_a_degenerate_limit_constraint_as_a_failed_row(monkeypatch):
    # dependent constraint gradients of w+ and w- raise, as they do for the
    # pair; the sweep keeps its pair rows and marks the limit row failed
    from critsep import functional

    real = functional._limit_constraint_gradients

    def equal(w, cp, grid):
        gf_p, _gf_m = real(w, cp, grid)
        return gf_p, gf_p

    monkeypatch.setattr(functional, "_limit_constraint_gradients", equal)
    grid = build_grid(ModelParams(N=4, m=2, n=3, M=64))
    result = sweep_lambda(SweepSchedule(lambdas=(-1.0, -3.0)), CP, grid, OPTS)
    assert [r.status for r in result.records] == ["ok", "ok"]
    assert result.limit_result is None
    assert result.limit_record.status.startswith("failed: DegenerateConstraintError: ")
    assert math.isnan(result.limit_record.energy)


def _recording_solves(monkeypatch, wrap=None):
    """Patch the sweep's pair solve to record [start, result] of each call;
    ``wrap(solve, init, cp, grid, opts)`` may stand in for the solve."""
    from critsep import separation

    real = separation.minimize_nehari
    calls = []

    def recorded(init, cp, grid, opts):
        calls.append([init, None])
        res = real(init, cp, grid, opts) if wrap is None else wrap(real, init, cp, grid, opts)
        calls[-1][1] = res
        return res

    monkeypatch.setattr(separation, "minimize_nehari", recorded)
    return calls


def test_predict_start_keeps_zero_nodes_zero():
    pair = minimize_nehari(initial_guess("bumps", GRID), replace(CP, lam=-10.0), GRID, OPTS).pair
    u = pair.u.copy()
    u[40:45] = 0.0
    guess = predict_start(PairState(u, pair.v), replace(CP, lam=-10.0), GRID, -12.0)
    assert np.all(guess.u[40:45] == 0.0)
    assert np.all(guess.u[u > 0.0] > 0.0) and np.all(guess.v > 0.0)
    assert np.isfinite(guess.u).all() and np.isfinite(guess.v).all()


@pytest.mark.parametrize("tangent", [None, math.nan, -1e300], ids=["failed-solve", "nan", "overflow"])
def test_failed_prediction_falls_back_to_the_previous_pair(monkeypatch, tangent):
    from critsep import separation

    def broken(pair, cp, grid):
        return None if tangent is None else (np.full(grid.size, tangent),) * 2

    monkeypatch.setattr(separation, "pair_tangent", broken)
    lam_cp = replace(CP, lam=-1.0)
    pair = minimize_nehari(initial_guess("bumps", GRID), lam_cp, GRID, OPTS).pair
    assert predict_start(pair, lam_cp, GRID, -3.0) is None
    calls = _recording_solves(monkeypatch)
    result = sweep_lambda(geometric_schedule(-1.0, -100.0, 4), CP, GRID, OPTS)
    assert all(r.status == "ok" for r in result.records)
    assert (result.predicted_starts, result.predictor_fallbacks) == (0, 3)
    for (start, _), (_, res) in zip(calls[1:], calls):
        assert start is res.pair


def test_rows_after_an_unconverged_or_raised_row_start_from_the_last_returned_pair(monkeypatch):
    # every solve at lambdas[1] stops after 2 iterations and every solve at
    # lambdas[3] raises, whatever its start
    lambdas = geometric_schedule(-1.0, -100.0, 6).lambdas

    def wrap(solve, init, cp, grid, opts):
        if cp.lam == lambdas[1]:
            return solve(init, cp, grid, replace(opts, max_iters=2))
        if cp.lam == lambdas[3]:
            raise ConvergenceError("scripted failure")
        return solve(init, cp, grid, opts)

    calls = _recording_solves(monkeypatch, wrap)
    result = sweep_lambda(SweepSchedule(lambdas=lambdas), CP, GRID, OPTS)
    assert [r.status.split(":")[0] for r in result.records] == [
        "ok", "not converged", "ok", "failed", "ok", "ok",
    ]
    (_, r0), (s1, r1), (s1b, r1b), (s2, r2), (s3, _), (s3b, _), (s4, r4), (s5, _) = calls
    # row 1 is solved from the prediction and, when that does not converge,
    # again from row 0's pair; the row reports the second solve and both
    # solves' iterations
    assert s1 is not r0.pair and s1b is r0.pair
    assert result.records[1].solver_iters == r1.iterations + r1b.iterations == 4
    # row 1 did not converge: row 2 starts from its pair
    assert s2 is r1b.pair
    # row 3 raises from the prediction and from row 2's pair; row 4 starts
    # from row 2's pair and row 5 from a prediction again
    assert s3 is not r2.pair and s3b is r2.pair and s4 is r2.pair
    assert s5 is not r4.pair
    assert (result.predicted_starts, result.predictor_fallbacks) == (1, 2)
