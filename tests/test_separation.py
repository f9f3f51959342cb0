import logging
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
from critsep.functional import pair_inner
from critsep.separation import _hermite_weights, predict_start
from critsep.solver import pair_tangent

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
    stats = [r.stats for r in result.records]
    assert all(s is not None and s.count > 0 for s in stats)
    for s in stats:
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
    # iterations over the 44 rows, by the start of each row after the first:
    #   previous row's pair 267, Euler step 164, capped cubic 103,
    #   three-row step 102 (rows after the fifth take 2-3 with both steps)
    assert result.predicted_starts == 43
    assert sum(r.solver_iters for r in result.records) <= 120


def _n5_sweep(m, n):
    """The 12 rows from -1 to -1e4 at N = 5, alpha = beta = 5/3, M = 128."""
    params = ModelParams(N=5, m=m, n=n, M=128)
    cp = CouplingParams(mu1=1.0, mu2=1.0, alpha=5.0 / 3.0, beta=5.0 / 3.0, lam=-1.0)
    result = sweep_lambda(geometric_schedule(-1.0, -1e4, 12), cp, build_grid(params), OPTS)
    assert [r.status for r in result.records] == ["ok"] * 12
    assert result.limit_record.status == "ok"
    return [r.solver_iters for r in result.records]


def test_n5_sweep_converges_within_the_euler_iterations():
    # N = 5 at alpha = beta = 5/3, where the pair Newton step converges more
    # slowly than at N = 4. Iterations over the rows, by the start of each row:
    #   Euler step 170, uncapped quadratic in ln|lambda| through the row
    #   before 194, capped cubic 106, three-row step 93
    assert sum(_n5_sweep(3, 3)) <= 170


def test_n5_split_2_4_sweep_takes_no_more_iterations_than_the_capped_cubic():
    # the same sweep at (m, n) = (2, 4). Iterations a row:
    #   capped cubic    10 20 17 16 14 13  8 5 5 4 4 4   120
    #   three-row step  10 20 17 13 11  9 19 5 4 3 3 3   117
    assert sum(_n5_sweep(2, 4)) <= 120


def test_deep_half_decade_rows_take_two_iterations_from_the_sixth_row_on():
    # the deep-segregation schedule, half-decade steps from -1 to -1e7 with
    # max_iters 300, at M = 512. Iterations a row:
    #   capped cubic    6 4 3 3 3 3 3 3 3 3 3 3 3 3 3   49
    #   three-row step  6 4 3 3 3 2 2 2 2 2 2 2 2 2 2   39
    # At M = 256 the rows at -3.16e6 and -1e7 take 3 and 5 (cubic 4 and 6):
    # there the layer, of width about |lambda|^(-1/4), spans a few nodes.
    grid = build_grid(ModelParams(N=4, m=2, n=3, M=512))
    sched = SweepSchedule(lambdas=tuple(-np.logspace(0.0, 7.0, 15)))
    result = sweep_lambda(sched, CP, grid, SolveOptions(grad_tol=1e-6, max_iters=300))
    assert [r.status for r in result.records] == ["ok"] * 15
    assert max(r.solver_iters for r in result.records[5:]) <= 2


def test_sweep_partial_failure_marks_rows():
    # an overlapping start at strong coupling cannot be projected, so the
    # first row fails and carries a marker while the sweep continues
    sched = SweepSchedule(lambdas=(-2.0, -3.0))
    init = PairState(u=np.ones(GRID.size), v=np.ones(GRID.size))
    result = sweep_lambda(sched, CP, GRID, OPTS, init=init)
    assert len(result.records) == 2
    assert result.records[0].status.startswith("failed:")
    assert math.isnan(result.records[0].energy)
    assert result.records[0].stats is None


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
    assert result.limit_record.stats is None


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
    guess, (lam, logs, slopes) = predict_start(PairState(u, pair.v), replace(CP, lam=-10.0),
                                               GRID, -12.0)
    assert lam == -10.0
    assert np.all(logs[0][40:45] == -np.inf) and np.all(slopes[0][40:45] == 0.0)
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
    assert predict_start(pair, lam_cp, GRID, -3.0) == (None, None)
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


@pytest.mark.parametrize("script", ["raises", "capped"])
def test_a_row_whose_prediction_fails_converges_from_the_previous_pair(monkeypatch, caplog, script):
    # the first solve at lambdas[2] (the one from the prediction) raises or
    # stops after 2 iterations; the solve from row 1's pair converges
    lambdas = geometric_schedule(-1.0, -100.0, 4).lambdas
    scripted = []

    def wrap(solve, init, cp, grid, opts):
        if cp.lam == lambdas[2] and not scripted:
            scripted.append(init)
            if script == "raises":
                raise ConvergenceError("scripted")
            return solve(init, cp, grid, replace(opts, max_iters=2))
        return solve(init, cp, grid, opts)

    caplog.set_level(logging.INFO, logger="critsep.separation")
    calls = _recording_solves(monkeypatch, wrap)
    result = sweep_lambda(SweepSchedule(lambdas=lambdas), CP, GRID, OPTS)
    assert len(calls) == 5
    _, (_, r1), (s2, _), (s2b, r2b), (s3, _) = calls
    assert s2 is not r1.pair and s2b is r1.pair and s3 is not r2b.pair
    assert [r.status for r in result.records] == ["ok"] * 4
    # the row reports the solve from the pair, plus the iterations of a
    # discarded solve that returned
    assert r2b.iterations == 7
    assert result.records[2].solver_iters == {"raises": 7, "capped": 9}[script]
    assert (result.predicted_starts, result.predictor_fallbacks) == (2, 1)
    why = {"raises": "scripted", "capped": "max_iters exceeded"}[script]
    assert f"from the prediction failed ({why})" in caplog.text


@pytest.fixture(scope="module")
def branch():
    """Four converged rows at -10^(1 + k/2), k = 0..3 (M = 256), each solved from
    the Euler start of the row before: the grid, the lambdas, the pairs and the
    first three rows' history entries (lambda, ln x, y')."""
    grid = build_grid(ModelParams(N=4, m=2, n=3, M=256))
    lams = tuple(-(10.0 ** (1.0 + k / 2.0)) for k in range(4))
    start, pairs, rows = initial_guess("bumps", grid), [], []
    for k, lam in enumerate(lams):
        cp = replace(CP, lam=lam)
        res = minimize_nehari(start, cp, grid, OPTS)
        assert res.converged
        pairs.append(res.pair)
        if k + 1 < len(lams):
            start, row = predict_start(res.pair, cp, grid, lams[k + 1])
            rows.append(row)
    return grid, lams, pairs, rows


def _predict(branch, k, *history):
    """The start of row k + 1 predicted from row k's pair and the given history."""
    grid, lams, pairs, _rows = branch
    return predict_start(pairs[k], replace(CP, lam=lams[k]), grid, lams[k + 1], history)[0]


def _wild(row, rng):
    """A history entry far off the branch: ln x moved by up to +-5 at each node."""
    lam, logs, slopes = row
    return lam, tuple(y + rng.uniform(-5.0, 5.0, y.size) for y in logs), slopes


def _dead(row, nodes):
    """A history entry with u zero at the given nodes."""
    lam, logs, slopes = row
    logs = np.array(logs)
    logs[0, nodes] = -np.inf
    return lam, logs, slopes


def test_hermite_start_is_closer_to_the_converged_pair_than_the_euler_start(branch):
    grid, _lams, pairs, rows = branch

    def dist(x):
        d = [a - b for a, b in zip(x, pairs[2])]
        return math.sqrt(pair_inner(d, d, grid))

    # measured: 0.198 against 0.446
    assert dist(_predict(branch, 1, rows[0])) < 0.6 * dist(_predict(branch, 1))


def test_hermite_correction_is_capped_at_the_euler_term(branch):
    # a row before far off the branch: the part of the exponent beyond the
    # Euler term h y' is clipped to +-|h y'| at each node, and the clip binds
    grid, lams, pairs, rows = branch
    euler = _predict(branch, 1)
    guess = _predict(branch, 1, _wild(rows[0], np.random.default_rng(0)))
    h = math.log(lams[2] / lams[1])
    for x, e, g, slope in zip(pairs[1], euler, guess, rows[1][2]):
        assert np.all(x > 0.0)
        extra, cap = np.log(g / e), np.abs(h * slope)
        assert np.all(np.abs(extra) <= cap + 1e-12)
        assert np.count_nonzero(np.abs(extra) > cap - 1e-12) > x.size // 2


def test_quintic_correction_is_capped_at_the_cubic_term(branch):
    # an oldest row far off the branch: the part of the exponent beyond the
    # capped cubic E + C3 is clipped to +-|C3| at each node, and the clip binds
    _grid, _lams, pairs, rows = branch
    euler, cubic = _predict(branch, 2), _predict(branch, 2, rows[1])
    guess = _predict(branch, 2, _wild(rows[0], np.random.default_rng(1)), rows[1])
    for x, e, c, g in zip(pairs[2], euler, cubic, guess):
        assert np.all(x > 0.0)
        extra, cap = np.log(g / c), np.abs(np.log(c / e))
        assert np.all(np.abs(extra) <= cap + 1e-12)
        assert np.count_nonzero(np.abs(extra) > cap - 1e-12) > x.size // 2


def test_three_row_step_reproduces_a_quintic_in_ln_lambda(monkeypatch):
    # ln x a quintic in t = ln|lambda| - ln 100 at each node, with the exact
    # slopes and tangent: the Euler term dominates the cubic's part beyond it,
    # and that part the quintic's beyond the cubic, so neither clip binds and
    # the start is the quintic's value, to rounding
    from critsep import separation

    rng = np.random.default_rng(2)
    lams, lam_next = (-10.0, -30.0, -100.0), -400.0
    bounds = ((-2.0, 0.0), (-1.0, -0.5), (0.1, 0.2), (0.0, 0.01), (-2e-3, 2e-3), (-2e-3, 2e-3))
    coefs = [[rng.uniform(lo, hi, GRID.size) for lo, hi in bounds] for _ in range(2)]

    def at(lam):
        """(ln u, ln v) and their slopes at lam."""
        t = math.log(lam / lams[-1])
        return (tuple(sum(c * t**k for k, c in enumerate(cs)) for cs in coefs),
                tuple(sum(k * c * t**(k - 1) for k, c in enumerate(cs) if k) for cs in coefs))

    rows = [(lam, *at(lam)) for lam in lams[:2]]
    y, dy = at(lams[-1])
    pair = PairState(*map(np.exp, y))
    monkeypatch.setattr(separation, "pair_tangent",
                        lambda pair, cp, grid: tuple(x * d / cp.lam for x, d in zip(pair, dy)))
    guess, row = predict_start(pair, replace(CP, lam=lams[-1]), GRID, lam_next, rows)
    assert row[0] == lams[-1] and np.allclose(row[2], dy, rtol=1e-13, atol=0.0)
    for g, y_next in zip(guess, at(lam_next)[0]):
        assert np.allclose(np.log(g), y_next, rtol=0.0, atol=1e-12)


def test_nodes_that_are_zero_in_the_row_before_take_the_euler_step(branch):
    _grid, _lams, _pairs, rows = branch
    euler = _predict(branch, 1)
    guess = _predict(branch, 1, _dead(rows[0], slice(100, 110)))
    assert np.array_equal(guess.u[100:110], euler.u[100:110])
    assert not np.array_equal(guess.u[:100], euler.u[:100])
    assert np.array_equal(guess.v, _predict(branch, 1, rows[0]).v)


def test_nodes_that_are_zero_only_in_the_oldest_row_take_the_capped_cubic(branch):
    _grid, _lams, _pairs, rows = branch
    cubic = _predict(branch, 2, rows[1])
    guess = _predict(branch, 2, _dead(rows[0], slice(100, 110)), rows[1])
    assert np.array_equal(guess.u[100:110], cubic.u[100:110])
    assert not np.array_equal(guess.u[:100], cubic.u[:100])
    assert np.array_equal(guess.v, _predict(branch, 2, *rows[:2]).v)


def reference_hermite_step(weights, rows, i, y, dy):
    a, b = weights
    step = b[-1] * dy
    for aj, bj, (_, yj, dyj) in zip(a, b, rows):
        step = step + aj * (yj[i] - y) + bj * dyj[i]
    return step


def reference_predict_start(pair, cp, grid, lam_next, prev=()):
    """The prediction written out for each component: the Euler step, the capped cubic
    with one history row, and the quintic clipped to the cubic's correction with two."""
    tangent = pair_tangent(pair, cp, grid)
    if tangent is None:
        return None, None
    h = math.log(lam_next / cp.lam)
    nodes = [math.log(lam / cp.lam) for lam, _, _ in prev] + [0.0]
    w3 = _hermite_weights(nodes[-2:], h) if prev else None
    w5 = _hermite_weights(nodes, h) if len(prev) == 2 else None
    out, logs, slopes = [], [], []
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for i, (x, dx) in enumerate(zip(pair, tangent)):
            x = np.asarray(x, dtype=float)
            y = np.log(x)
            live = x > 0.0
            dy = np.zeros_like(x)
            dy[live] = cp.lam * dx[live] / x[live]
            z = e = h * dy
            if w3 is not None:
                live &= prev[-1][1][i] > -np.inf
                c3 = np.where(live, np.clip(reference_hermite_step(w3, prev[-1:], i, y, dy) - e,
                                            -np.abs(e), np.abs(e)), 0.0)
                z = e + c3
            if w5 is not None:
                live &= prev[0][1][i] > -np.inf
                z = z + np.where(live, np.clip(reference_hermite_step(w5, prev, i, y, dy) - z,
                                               -np.abs(c3), np.abs(c3)), 0.0)
            x_next = x * np.exp(z)
            if not np.isfinite(x_next).all():
                return None, None
            out.append(x_next)
            logs.append(y)
            slopes.append(dy)
    return PairState(*out), (cp.lam, tuple(logs), tuple(slopes))


# (row k predicting row k + 1, its history) from the branch's history entries
_HISTORIES = {
    "euler-0": lambda rows: (0,),
    "euler-2": lambda rows: (2,),
    "cubic-1": lambda rows: (1, rows[0]),
    "cubic-2": lambda rows: (2, rows[1]),
    "three-row": lambda rows: (2, rows[0], rows[1]),
    "wild-cubic": lambda rows: (1, _wild(rows[0], np.random.default_rng(0))),
    "wild-quintic": lambda rows: (2, _wild(rows[0], np.random.default_rng(1)), rows[1]),
    "dead-one-row": lambda rows: (1, _dead(rows[0], slice(100, 110))),
    "dead-oldest": lambda rows: (2, _dead(rows[0], slice(100, 110)), rows[1]),
    "dead-newest": lambda rows: (2, rows[0], _dead(rows[1], slice(100, 110))),
}


@pytest.mark.parametrize("history", _HISTORIES)
def test_predict_start_matches_the_reference_bit_for_bit(branch, history):
    grid, lams, pairs, rows = branch
    k, *prev = _HISTORIES[history](rows)
    args = (pairs[k], replace(CP, lam=lams[k]), grid, lams[k + 1], tuple(prev))
    (guess, (lam, logs, slopes)), (ref, (ref_lam, ref_logs, ref_slopes)) = (
        predict_start(*args), reference_predict_start(*args))
    assert lam == ref_lam
    for got, want in zip((*guess, *logs, *slopes), (*ref, *ref_logs, *ref_slopes)):
        assert np.array_equal(got, want)


def test_predictions_after_an_unconverged_or_raised_row_use_no_history(monkeypatch):
    # the solves at lambdas[3] stop after 1 iteration, at a tolerance no
    # iterate meets, and those at lambdas[5] raise; each prediction takes the rows before it only while they
    # converged, at most two, so the history rebuilds as Euler, then the
    # cubic, then the three-row step
    from critsep import separation

    lambdas = geometric_schedule(-1.0, -100.0, 10).lambdas

    def wrap(solve, init, cp, grid, opts):
        if cp.lam == lambdas[3]:
            return solve(init, cp, grid, replace(opts, max_iters=1, grad_tol=1e-300))
        if cp.lam == lambdas[5]:
            raise ConvergenceError("scripted failure")
        return solve(init, cp, grid, opts)

    calls = _recording_solves(monkeypatch, wrap)
    real, prevs, returned = separation.predict_start, [], []

    def recorded(pair, cp, grid, lam_next, prev=()):
        prevs.append((cp.lam, prev))
        out = real(pair, cp, grid, lam_next, prev)
        returned.append(out[1])
        return out

    monkeypatch.setattr(separation, "predict_start", recorded)
    result = sweep_lambda(SweepSchedule(lambdas=lambdas), CP, GRID, OPTS)
    assert [r.status.split(":")[0] for r in result.records] == [
        "ok", "ok", "ok", "not converged", "ok", "failed", "ok", "ok", "ok", "ok",
    ]
    assert [lam for lam, _ in prevs] == [lambdas[k] for k in (0, 1, 2, 4, 6, 7, 8)]
    assert [tuple(row[0] for row in p) for _, p in prevs] == [
        (), (lambdas[0],), (lambdas[0], lambdas[1]), (), (), (lambdas[6],),
        (lambdas[6], lambdas[7]),
    ]
    # the history holds the rows earlier calls returned, and a row's ln x is
    # that of its own converged pair
    assert prevs[2][1] == (returned[0], returned[1])
    row0 = next(res for start, res in calls if res.converged)
    assert all(np.array_equal(y, np.log(x)) for y, x in zip(prevs[1][1][0][1], row0.pair))
