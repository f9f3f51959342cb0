import dataclasses
import math

import numpy as np
import pytest

from critsep import (
    ConvergenceError,
    CouplingParams,
    DegenerateInputError,
    DomainError,
    ModelParams,
    PairState,
    SolveOptions,
    SweepSchedule,
    build_grid,
    cold_start,
    h1_form,
    initial_guess,
    interface_locate,
    minimize_limit,
    minimize_nehari,
    minimize_single,
    sobolev_constant,
    sweep_lambda,
)
from critsep.checks import cosine_series
from critsep.errors import CollapseError, DegenerateConstraintError
from critsep.functional import (
    PairForces,
    _limit_force,
    _limit_tangent_full,
    _rescale_parts,
    energy_from_integrals,
    limit_energy,
    pair_forces,
    pair_inner,
    pair_integrals,
    residuals_from_integrals,
    sobolev_lower_bound,
    tangent_gradient_full,
)
from critsep import solver
from critsep.solver import _pair_residual, pair_tangent, solve_banded

PARAMS = ModelParams(N=4, m=2, n=3, M=256)
GRID = build_grid(PARAMS)
CP = CouplingParams(mu1=1.0, mu2=1.0, alpha=2.0, beta=2.0, lam=-1.0)
OPTS = SolveOptions(grad_tol=1e-6, max_iters=20000)
S4 = sobolev_constant(4)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"max_iters": 0},
        {"max_iters": -1},
        {"grad_tol": math.nan},
        {"grad_tol": math.inf},
        {"grad_tol": 0.0},
        {"grad_tol": -1e-6},
    ],
)
def test_solve_options_reject_settings_without_a_solve(kwargs):
    # max_iters = 0 used to return the unprojected start as one iteration;
    # a NaN tolerance could never be met
    with pytest.raises(DomainError):
        SolveOptions(**kwargs)


def test_initial_guess_bumps_disjoint():
    pair = initial_guess("bumps", GRID)
    ints = pair_integrals(pair, CP, GRID)
    assert ints.coupling == 0.0
    assert ints.a1 > 0 and ints.a2 > 0


def test_initial_guess_determinism_and_kinds():
    # "bumps" is the only start; the retired kinds are unknown like any other
    for kind in ("nope", "random", "constants_split"):
        with pytest.raises(DomainError):
            initial_guess(kind, GRID)


def test_minimize_single_finds_constant_level():
    res = minimize_single(initial_guess("bumps", GRID).u, 1.0, GRID, OPTS)
    assert res.converged
    assert res.energy == pytest.approx(0.25 * S4 * S4, rel=1e-10)
    # the minimizer is the constant profile sqrt(2)
    assert np.max(np.abs(res.pair.u - math.sqrt(2.0))) < 1e-5
    assert abs(res.residuals.f_val) <= 1e-6 * h1_form(res.pair.u, res.pair.u, GRID)


def test_minimize_single_collapse_guard(monkeypatch):
    # a floor above every point of the Nehari set trips the guard at the start
    from critsep import solver

    monkeypatch.setattr(solver, "COLLAPSE_FRACTION", 1e6)
    with pytest.raises(CollapseError, match="component u collapsed"):
        minimize_single(initial_guess("bumps", GRID).u, 1.0, GRID, OPTS)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
@pytest.mark.parametrize("N, m, n", [(4, 2, 3), (8, 4, 5)])
def test_minimize_single_that_overflows_fails_typed(N, m, n):
    # mu = 1e-300 scales the profile past the floats: its ray scale or the
    # powers of it overflow to inf, and the solve raises a solve error
    from critsep.solver import SOLVE_ERRORS

    grid = build_grid(ModelParams(N=N, m=m, n=n, M=64))
    with pytest.raises(SOLVE_ERRORS):
        minimize_single(initial_guess("bumps", grid).u, 1e-300, grid, OPTS)


def test_minimize_nehari_level_bracket():
    init = initial_guess("bumps", GRID)
    res = minimize_nehari(init, CP, GRID, OPTS)
    assert res.converged
    # strictly above the unattained decoupled level, below the limit level
    assert res.energy > 1.01 * 0.5 * S4 * S4
    limit = minimize_limit(init.u - init.v, CP, GRID, OPTS)
    assert res.energy <= limit.energy
    # natural-constraint certificate: the full gradient is small too
    assert res.full_grad_norm <= 10.0 * OPTS.grad_tol
    assert res.grad_norm <= OPTS.grad_tol


def test_minimize_nehari_requires_negative_lambda():
    cp0 = CouplingParams(mu1=1.0, mu2=1.0, alpha=2.0, beta=2.0, lam=0.0)
    with pytest.raises(DomainError):
        minimize_nehari(initial_guess("bumps", GRID), cp0, GRID, OPTS)


def test_minimize_nehari_cannot_start_from_random():
    # both smooth random profiles are positive everywhere, so no scaling of
    # the pair lands on the Nehari set
    grid = build_grid(ModelParams(N=4, m=2, n=3, M=128))
    cp = CouplingParams(mu1=1.0, mu2=1.0, alpha=2.0, beta=2.0, lam=-1e3)
    rng = np.random.default_rng(0)
    init = PairState(np.exp(cosine_series(grid, rng)), np.exp(cosine_series(grid, rng)))
    with pytest.raises(ConvergenceError):
        minimize_nehari(init, cp, grid, OPTS)


def test_monotone_descent_trace():
    res = minimize_nehari(initial_guess("bumps", GRID), CP, GRID, OPTS)
    trace = res.energy_trace
    diffs = np.diff(trace)
    assert np.all(diffs <= 1e-12 * np.abs(trace[:-1]))
    assert trace[-1] <= trace[0]


def test_decoupled_limit_matches_single_solves():
    cp = CouplingParams(mu1=1.0, mu2=1.0, alpha=2.0, beta=2.0, lam=-1e-4)
    res = minimize_nehari(initial_guess("bumps", GRID), cp, GRID, OPTS)
    assert res.converged
    # each component approaches the constant single-equation solution
    assert res.energy == pytest.approx(0.5 * S4 * S4, rel=1e-3)
    for comp in (res.pair.u, res.pair.v):
        assert np.std(comp) / np.mean(comp) < 0.05


def test_reflection_invariance():
    # mirror the geometry, swap (m,n), (mu1,mu2), (alpha,beta) and the
    # components: energies agree to roundoff-level tolerance
    cp = CouplingParams(mu1=1.0, mu2=2.0, alpha=2.0, beta=2.0, lam=-1.0)
    res = minimize_nehari(initial_guess("bumps", GRID), cp, GRID, OPTS)

    params_r = ModelParams(N=4, m=3, n=2, M=256)
    grid_r = build_grid(params_r)
    cp_r = CouplingParams(mu1=2.0, mu2=1.0, alpha=2.0, beta=2.0, lam=-1.0)
    init = initial_guess("bumps", GRID)
    init_r = PairState(u=init.v[::-1].copy(), v=init.u[::-1].copy())
    res_r = minimize_nehari(init_r, cp_r, grid_r, OPTS)
    assert res_r.energy == pytest.approx(res.energy, rel=1e-8)


def test_swap_equivariance_symmetric_coupling():
    init = initial_guess("bumps", GRID)
    swapped = PairState(u=-init.v, v=-init.u)
    res = minimize_nehari(init, CP, GRID, OPTS)
    res_s = minimize_nehari(swapped, CP, GRID, OPTS)
    assert res_s.energy == pytest.approx(res.energy, rel=1e-8)


def test_invariant_stats_along_solve():
    res = minimize_nehari(initial_guess("bumps", GRID), CP, GRID, OPTS)
    st = res.stats
    assert st.count == res.iterations
    assert st.max_energy_identity_dev <= 1e-8
    assert st.min_bound_ratio_u >= 0.99
    assert st.min_bound_ratio_v >= 0.99
    assert st.min_det_ratio >= 0.99


def test_minimize_limit_bounds_and_interface():
    init = initial_guess("bumps", GRID)
    res = minimize_limit(init.u - init.v, CP, GRID, OPTS)
    assert res.converged
    wp = np.maximum(res.w, 0.0)
    wm = np.minimum(res.w, 0.0)
    assert h1_form(wp, wp, GRID) >= 0.99 * sobolev_lower_bound(CP.mu1, 4)
    assert h1_form(wm, wm, GRID) >= 0.99 * sobolev_lower_bound(CP.mu2, 4)
    # strictly above the unattained decoupled level
    assert res.energy > 1.01 * 0.5 * S4 * S4
    rp, rm = res.residuals
    assert abs(rp) <= 1e-6 * h1_form(wp, wp, GRID)
    assert abs(rm) <= 1e-6 * h1_form(wm, wm, GRID)
    theta0 = interface_locate(res.w, GRID)
    assert 0.0 < theta0 < math.pi / 2


def test_minimize_limit_symmetric_instance():
    # N=5, m=n=3, mu1=mu2: the interface sits at pi/4 within one cell
    params = ModelParams(N=5, m=3, n=3, M=128)
    grid = build_grid(params)
    cp = CouplingParams(mu1=1.0, mu2=1.0, alpha=5.0 / 3.0, beta=5.0 / 3.0, lam=-1.0)
    init = initial_guess("bumps", grid)
    res = minimize_limit(init.u - init.v, cp, grid, OPTS)
    assert res.converged
    theta0 = interface_locate(res.w, grid)
    assert abs(theta0 - math.pi / 4.0) <= grid.h
    # mirror symmetry of the limit energy
    from critsep import limit_energy

    assert limit_energy(-res.w[::-1], cp, grid) == pytest.approx(res.energy, rel=1e-12)


def test_minimize_limit_rejects_one_signed_start():
    w = np.abs(initial_guess("bumps", GRID).u) + 0.1
    with pytest.raises(DegenerateInputError):
        minimize_limit(w, CP, GRID, OPTS)


def test_minimize_limit_raises_on_dependent_constraint_gradients(monkeypatch):
    # the limit's Gram system is guarded as the pair's: equal constraint
    # gradients of w+ and w- raise instead of stepping along the gradient
    from critsep import functional

    real = functional._limit_constraint_gradients

    def equal(w, cp, grid):
        gf_p, _gf_m = real(w, cp, grid)
        return gf_p, gf_p

    monkeypatch.setattr(functional, "_limit_constraint_gradients", equal)
    init = initial_guess("bumps", GRID)
    with pytest.raises(DegenerateConstraintError):
        minimize_limit(init.u - init.v, CP, GRID, OPTS)


def test_rescale_parts_collapse_detection():
    init = initial_guess("bumps", GRID)
    w = init.u - init.v
    positive = np.where(w > 0, w, 0.0)
    # a zero part raises from the rescaling itself
    with pytest.raises(CollapseError, match="^negative part collapsed$"):
        _rescale_parts(positive, CP, GRID)
    # an absurdly high floor trips the guard of its part when the start
    # lands; both zero checks come before either floor, so a zero negative
    # part is named first
    for x, floor_p, floor_m, part in [
        (w, 1e12, 0.0, "positive"),
        (w, 0.0, 1e12, "negative"),
        (positive, 1e12, 0.0, "negative"),
    ]:
        problem = solver._Limit(CP, GRID)
        problem.floor_p, problem.floor_m = floor_p, floor_m
        with pytest.raises(CollapseError, match=f"^{part} part collapsed$"):
            problem.land((x,), None, None)


@pytest.mark.parametrize(
    "N, m, n, lam, max_iters, message",
    [
        (4, 2, 3, -1.0, 20000, "tangent gradient below tolerance"),
        (4, 2, 3, -1.0, 3, "max_iters exceeded"),
        (8, 4, 5, -1e8, 20000, "line search stalled"),
    ],
)
def test_minimize_nehari_returns_the_evaluation_at_its_pair(N, m, n, lam, max_iters, message):
    # a solve that stops inside the loop returns the evaluation made there,
    # one cut by max_iters evaluates its last pair afterwards; both must
    # equal a fresh evaluation at the returned pair
    grid = build_grid(ModelParams(N=N, m=m, n=n, M=128))
    alpha = 0.5 * grid.params.two_star
    cp = CouplingParams(mu1=1.0, mu2=1.0, alpha=alpha, beta=alpha, lam=lam)
    opts = SolveOptions(grad_tol=1e-6, max_iters=max_iters)
    res = minimize_nehari(initial_guess("bumps", grid), cp, grid, opts)
    assert res.message == message
    ints = pair_integrals(res.pair, cp, grid)
    tg, mult, g = tangent_gradient_full(res.pair, cp, grid)
    assert res.energy == energy_from_integrals(ints, cp, grid.params)
    assert res.residuals == residuals_from_integrals(ints, cp)
    assert res.grad_norm == math.sqrt(max(pair_inner(tg, tg, grid), 0.0))
    assert res.full_grad_norm == math.sqrt(max(pair_inner(g, g, grid), 0.0))
    assert res.multipliers == mult


def _bitwise_equal(x, y):
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def _same_kernel(forces, res, x, cp, grid):
    """Whether (forces, res) equal a fresh pair_forces and _pair_residual at x, bit for bit."""
    fresh = pair_forces(PairState(*x), cp, grid)
    return all(
        _bitwise_equal(getattr(forces, f.name), getattr(fresh, f.name))
        for f in dataclasses.fields(PairForces)
    ) and all(map(_bitwise_equal, res, _pair_residual(*x, fresh, grid)))


@pytest.mark.parametrize("newton", [True, False])
def test_minimize_nehari_hands_over_the_integrals_of_the_projected_pair(monkeypatch, newton):
    # only the start is projected at the top of an iteration; an accepted
    # trial lands as it is, with the integrals it computed, and these must
    # be those of the pair it is, after Newton steps and (with the Newton
    # candidate switched off) Armijo steps; an accepted Newton trial also
    # brings the kernel and residual of its residual test, which must be
    # those of the pair it is
    from critsep import solver

    projections, attempts, landed, handed = [], [], [], []
    project, attempt, land = solver.nehari_project, solver._attempt, solver._Pair.land

    def counting_project(*args, **kwargs):
        projections.append(1)
        return project(*args, **kwargs)

    def counting_attempt(problem, x):
        attempts.append(1)
        return attempt(problem, x)

    def checked_land(problem, x, at, value):
        x, at, value = land(problem, x, at, value)
        ints, forces, res = at
        landed.append(ints == pair_integrals(PairState(*x), problem.cp, problem.grid))
        if forces is not None:
            handed.append(_same_kernel(forces, res, x, problem.cp, problem.grid))
        return x, at, value

    monkeypatch.setattr(solver, "nehari_project", counting_project)
    monkeypatch.setattr(solver, "_attempt", counting_attempt)
    monkeypatch.setattr(solver._Pair, "land", checked_land)
    if not newton:
        monkeypatch.setattr(solver, "_pair_newton_direction", lambda *args: (None, math.inf))
    opts = SolveOptions(grad_tol=1e-6, max_iters=30)
    res = minimize_nehari(initial_guess("bumps", GRID), CP, GRID, opts)
    assert res.converged == newton
    assert len(landed) == res.iterations
    assert all(landed)
    assert len(projections) == len(attempts) + 1
    assert all(handed)
    assert bool(handed) == newton


@pytest.mark.parametrize("lam, max_iters", [(-1e3, 20000), (-1e3, 4), (-1e5, 40)])
def test_minimize_nehari_evaluates_each_landed_pair_once(monkeypatch, lam, max_iters):
    # the kernel is evaluated once per evaluation and once per residual
    # test, except at a pair an accepted Newton trial brought along
    from critsep import solver

    calls = {"forces": 0, "evaluate": 0, "residual": 0, "accepted": 0}
    forces, evaluate, residual_norm = solver.pair_forces, solver._Pair.evaluate, solver._Pair.residual_norm
    newton_trial = solver._newton_trial

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def counting_trial(*args):
        trial = newton_trial(*args)
        calls["accepted"] += trial is not None
        return trial

    monkeypatch.setattr(solver, "pair_forces", counted("forces", forces))
    monkeypatch.setattr(solver._Pair, "evaluate", counted("evaluate", evaluate))
    monkeypatch.setattr(solver._Pair, "residual_norm", counted("residual", residual_norm))
    monkeypatch.setattr(solver, "_newton_trial", counting_trial)
    cp = CouplingParams(mu1=1.0, mu2=1.0, alpha=2.0, beta=2.0, lam=lam)
    opts = SolveOptions(grad_tol=1e-6, max_iters=max_iters)
    res = minimize_nehari(initial_guess("bumps", GRID), cp, GRID, opts)
    assert calls["accepted"] > 0
    assert calls["evaluate"] == res.iterations + (res.message == "max_iters exceeded")
    assert calls["forces"] == calls["evaluate"] + calls["residual"] - calls["accepted"]


def test_full_gradient_at_its_rounding_floor_does_not_demote_a_converged_solve():
    # at grad_tol 1e-13 the full gradient of this critical point stops at
    # the rounding of the H^1 solve, about 1.1e-12, above 10 grad_tol
    grid = build_grid(ModelParams(N=4, m=3, n=2, M=128))
    opts = SolveOptions(grad_tol=1e-13, max_iters=300)
    res = minimize_single(initial_guess("bumps", grid).u, 1.0, grid, opts)
    assert res.grad_norm <= opts.grad_tol
    assert res.full_grad_norm > 10.0 * opts.grad_tol
    assert res.converged and res.message == "tangent gradient below tolerance"


@pytest.mark.parametrize("offset", [1e-9, 1e-1])
def test_forced_non_critical_point_is_still_demoted(monkeypatch, offset):
    # a tangent gradient forced to 0 stops the solve at its start; a start
    # off the critical point by `offset` keeps a full gradient above the
    # rounding floor (about 3e-12 here) and is demoted
    from critsep import solver

    grid = build_grid(ModelParams(N=4, m=3, n=2, M=128))
    opts = SolveOptions(grad_tol=1e-13, max_iters=300)
    u = minimize_single(initial_guess("bumps", grid).u, 1.0, grid, opts).pair.u
    evaluate = solver._Single.evaluate

    def flat(problem, x, at):
        tg, ev = evaluate(problem, x, at)
        return (np.zeros_like(tg[0]),), ev

    monkeypatch.setattr(solver._Single, "evaluate", flat)
    res = minimize_single(u + offset * np.cos(4.0 * grid.theta), 1.0, grid, opts)
    assert res.iterations == 1 and res.grad_norm == 0.0
    assert not res.converged
    assert res.message == "tangent gradient small but full gradient is not"


@pytest.mark.parametrize(
    "N, m, n, mu2, max_iters, grad_tol, message",
    [
        (4, 2, 3, 1.0, 20000, 1e-6, "tangent gradient below tolerance"),
        (4, 2, 3, 1.0, 3, 1e-6, "max_iters exceeded"),
        (6, 2, 5, 1.0, 60, 1e-8, "line search stalled"),
    ],
)
def test_minimize_limit_reports_the_gradient_of_the_returned_profile(
    monkeypatch, N, m, n, mu2, max_iters, grad_tol, message
):
    # the returned w is the final iterate; its reported tangent norm must be
    # the one at that w, also after a max_iters cut and a stalled line search
    from critsep import solver

    grid = build_grid(ModelParams(N=N, m=m, n=n, M=128))
    alpha = 0.5 * grid.params.two_star
    cp = CouplingParams(mu1=1.0, mu2=mu2, alpha=alpha, beta=alpha, lam=-1.0)
    init = initial_guess("bumps", grid)
    opts = SolveOptions(grad_tol=grad_tol, max_iters=max_iters)
    if message == "line search stalled":
        # this instance converges since the constrained Newton candidate;
        # every trial after the fifth fails to land, so the solve stalls
        attempt, calls = solver._attempt, []

        def failing_attempt(problem, x):
            calls.append(1)
            return attempt(problem, x) if len(calls) <= 5 else None

        monkeypatch.setattr(solver, "_attempt", failing_attempt)
    res = minimize_limit(init.u - init.v, cp, grid, opts)
    assert res.message == message
    tg = _limit_tangent_full(res.w, cp, grid, _limit_force(res.w, cp, grid.params.two_star)[1])[0]
    assert res.grad_norm == math.sqrt(max(h1_form(tg, tg, grid), 0.0))


@pytest.mark.parametrize(
    "N, m, n, max_iters, grad_tol",
    [(4, 2, 3, 20000, 1e-6), (4, 2, 3, 3, 1e-6), (6, 2, 5, 20000, 1e-8)],
)
def test_minimize_limit_evaluates_each_landed_iterate_once(monkeypatch, N, m, n, max_iters, grad_tol):
    # the tangent gradient is computed once per evaluation and once per
    # residual test, except at an iterate an accepted Newton trial brought
    # along; at N = 6, (2, 5) an accepted trial is a Lagrange-Newton step
    calls = {"tangent": 0, "residual": 0, "accepted": 0, "kkt": 0}
    kkt_directions = []
    tangent, residual_norm = solver._limit_tangent_full, solver._Limit.residual_norm
    kkt, newton_trial = solver._limit_kkt_direction, solver._newton_trial

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def recording_kkt(*args):
        direction = kkt(*args)
        kkt_directions.append(direction)
        return direction

    def counting_trial(problem, x, direction, value, res_ref):
        trial = newton_trial(problem, x, direction, value, res_ref)
        if trial is not None:
            calls["accepted"] += 1
            calls["kkt"] += any(direction is d for d in kkt_directions)
        return trial

    monkeypatch.setattr(solver, "_limit_tangent_full", counted("tangent", tangent))
    monkeypatch.setattr(solver._Limit, "residual_norm", counted("residual", residual_norm))
    monkeypatch.setattr(solver, "_limit_kkt_direction", recording_kkt)
    monkeypatch.setattr(solver, "_newton_trial", counting_trial)
    grid = build_grid(ModelParams(N=N, m=m, n=n, M=128))
    alpha = 0.5 * grid.params.two_star
    cp = CouplingParams(mu1=1.0, mu2=1.0, alpha=alpha, beta=alpha, lam=-1.0)
    init = initial_guess("bumps", grid)
    res = minimize_limit(init.u - init.v, cp, grid, SolveOptions(grad_tol=grad_tol, max_iters=max_iters))
    assert res.converged == (max_iters > res.iterations)
    assert calls["accepted"] > 0 and (N != 6 or calls["kkt"] > 0)
    evaluations = res.iterations + (res.message == "max_iters exceeded")
    assert calls["tangent"] == evaluations + calls["residual"] - calls["accepted"]


@pytest.mark.parametrize("max_iters", [20000, 3])
def test_minimize_limit_returns_its_last_iterate(max_iters):
    # the energy and the multipliers are those of the returned w, bit for
    # bit, also after a max_iters cut; a converged solve ends at its last
    # landed iterate
    init = initial_guess("bumps", GRID)
    res = minimize_limit(init.u - init.v, CP, GRID, SolveOptions(grad_tol=1e-6, max_iters=max_iters))
    assert res.converged == (max_iters == 20000)
    assert res.energy == limit_energy(res.w, CP, GRID)
    if res.converged:
        assert res.energy == res.energy_trace[-1]
    _tg, (_mu, _force, _tg_ev, mult, _grads) = solver._Limit(CP, GRID).evaluate((res.w,), (None, None))
    assert res.multipliers == mult


@pytest.mark.parametrize("N, m, n", [(6, 2, 5), (8, 4, 5)])
def test_minimize_limit_converges_where_the_free_newton_step_stalled(N, m, n):
    # the free Newton step aims beside the constrained minimizer; with only
    # it and gradient steps these two solves stopped "line search stalled"
    # after 19 iterations; the Lagrange-Newton candidate converges in 8 and 7
    grid = build_grid(ModelParams(N=N, m=m, n=n, M=128))
    alpha = 0.5 * grid.params.two_star
    cp = CouplingParams(mu1=1.0, mu2=1.0, alpha=alpha, beta=alpha, lam=-1.0)
    init = initial_guess("bumps", grid)
    res = minimize_limit(init.u - init.v, cp, grid, SolveOptions(grad_tol=1e-8, max_iters=15))
    assert res.converged, res.message


def test_minimize_limit_converges_at_a_tight_tolerance():
    # at grad_tol 1e-11 the M = 1024 solve stopped "line search stalled" at
    # tangent norm 7.4e-11 with the free Newton step alone; now 8 iterations
    grid = build_grid(ModelParams(N=4, m=2, n=3, M=1024))
    init = initial_guess("bumps", grid)
    res = minimize_limit(init.u - init.v, CP, grid, SolveOptions(grad_tol=1e-11, max_iters=60))
    assert res.converged, res.message
    assert res.grad_norm <= 1e-11


def test_minimize_limit_from_a_deep_pair_converges_in_a_few_iterations():
    # the sweep's limit solve starts from u - v of its last (deep) row; the
    # constrained Newton step converges quadratically from there (5
    # iterations here, 11 with the free step alone)
    grid = build_grid(ModelParams(N=4, m=2, n=3, M=256))
    result = sweep_lambda(SweepSchedule(lambdas=(-1.0, -1e2, -1e4, -1e6)), CP, grid, OPTS)
    assert [r.status for r in result.records] == ["ok"] * 4
    assert result.limit_result.converged
    assert result.limit_result.iterations <= 6


def _limit_multipliers(N, m, n, M):
    grid = build_grid(ModelParams(N=N, m=m, n=n, M=M))
    alpha = 0.5 * grid.params.two_star
    cp = CouplingParams(mu1=1.0, mu2=1.0, alpha=alpha, beta=alpha, lam=-1.0)
    init = initial_guess("bumps", grid)
    res = minimize_limit(init.u - init.v, cp, grid, OPTS)
    assert res.converged
    return res.multipliers


def test_limit_multipliers_fall_with_the_grid():
    # the free gradient at the discrete constrained minimizer is
    # sigma+ dG+ + sigma- dG- with sigma != 0, from the sign-change cell that
    # couples w+ and w- in the H^1 form; it falls as the grid is refined
    # (-9.4e-4 / -1.5e-3 at M = 128, -2.5e-4 / -4.0e-4 at M = 512)
    coarse = _limit_multipliers(4, 2, 3, 128)
    fine = _limit_multipliers(4, 2, 3, 512)
    assert all(c < 0.0 and f < 0.0 for c, f in zip(coarse, fine))
    assert all(abs(f) * 3.0 <= abs(c) for c, f in zip(coarse, fine))


def test_limit_multipliers_vanish_for_the_symmetric_instance():
    # N = 5, m = n = 3, mu1 = mu2: by symmetry w vanishes (to rounding) at
    # the middle node, so no cell has a positive and a negative end, nothing
    # couples the parts, and the minimizer is a free critical point
    sigma = _limit_multipliers(5, 3, 3, 128)
    assert max(map(abs, sigma)) <= 1e-12


def test_solve_energies_agree_with_the_recorded_levels():
    # the one stated tolerance for last-bit changes of the iteration: cold
    # N = 4 solves at M = 512 and the limit, against energies recorded when
    # the banded solves went through scipy's wrappers
    grid = build_grid(ModelParams(N=4, m=2, n=3, M=512))
    init = initial_guess("bumps", grid)
    recorded = {-1.0: 176.28821812129704, -10.0: 250.80088065537007, -1e3: 325.6975785909016}
    for lam, level in recorded.items():
        cp = CouplingParams(mu1=1.0, mu2=1.0, alpha=2.0, beta=2.0, lam=lam)
        assert minimize_nehari(init, cp, grid, OPTS).energy == pytest.approx(level, rel=1e-12)
    limit = minimize_limit(init.u - init.v, CP, grid, OPTS)
    assert limit.energy == pytest.approx(365.4212356370716, rel=1e-12)


@pytest.mark.parametrize("lam, level", [(-1.0, 176.2884081726318), (-10.0, 250.80149539812214),
                                        (-1e3, 325.7002571548947)])
def test_nested_cold_start_leaves_a_few_fine_iterations(lam, level):
    # the energies of cold M = 8192 solves from 'bumps' (6, 8 and 13 iterations)
    grid = build_grid(ModelParams(N=4, m=2, n=3, M=8192))
    cp = dataclasses.replace(CP, lam=lam)
    start, start_iters = cold_start(cp, grid, OPTS)
    assert start_iters > 0
    res = minimize_nehari(start, cp, grid, OPTS)
    assert res.converged and res.iterations <= 3
    assert res.energy == pytest.approx(level, rel=1e-12)


def _assert_plain_start(start, grid):
    bumps = initial_guess("bumps", grid)
    assert np.array_equal(start.u, bumps.u) and np.array_equal(start.v, bumps.v)


@pytest.mark.parametrize("M", [512, 2048, 4095])
def test_cold_start_below_the_floor_is_bumps(M):
    grid = build_grid(ModelParams(N=4, m=2, n=3, M=M))
    start, start_iters = cold_start(CP, grid, OPTS)
    _assert_plain_start(start, grid)
    assert start_iters == 0


def test_cold_start_after_a_capped_or_raising_coarse_solve_is_bumps(monkeypatch):
    grid = build_grid(ModelParams(N=4, m=2, n=3, M=4096))
    start, start_iters = cold_start(CP, grid, dataclasses.replace(OPTS, max_iters=2))
    _assert_plain_start(start, grid)
    assert start_iters == 2

    def collapse(init, cp, coarse, opts):
        assert coarse.params.M == 256 and opts.grad_tol == solver.NESTED_TOL
        raise CollapseError("component u collapsed")

    monkeypatch.setattr(solver, "minimize_nehari", collapse)
    start, start_iters = cold_start(CP, grid, OPTS)
    _assert_plain_start(start, grid)
    assert start_iters == 0


def test_a_sweep_without_a_warm_start_starts_nested():
    grid = build_grid(ModelParams(N=4, m=2, n=3, M=4096))
    start, start_iters = cold_start(CP, grid, OPTS)
    fine = minimize_nehari(start, CP, grid, OPTS)
    result = sweep_lambda(SweepSchedule(lambdas=(-1.0,)), CP, grid, OPTS)
    (row,) = result.records
    assert row.status == "ok" and row.solver_iters == start_iters + fine.iterations
    assert row.energy == fine.energy


def _banded_system(l_and_u, n, seed):
    """A random diagonally dominant band matrix in scipy's diagonal-ordered form."""
    rng = np.random.default_rng(seed)
    ab = rng.normal(size=(sum(l_and_u) + 1, n))
    ab[l_and_u[1]] += 10.0
    return ab, rng.normal(size=n)


def _lapack_layout(l_and_u, ab):
    """ab in the gbsv storage that solve_banded takes."""
    work = np.zeros((l_and_u[0] + ab.shape[0], ab.shape[1]), order="F")
    work[l_and_u[0]:] = ab
    return work


# the pentadiagonal layout of the pair's Newton matrix, under the test ids it
# has always had; the limit's tridiagonal solve has its own test below
PENTA = pytest.param((2, 2), id="l_and_u1")


@pytest.mark.parametrize("l_and_u", [PENTA])
def test_solve_banded_matches_scipy(l_and_u):
    from scipy.linalg import solve_banded as scipy_solve_banded

    ab, rhs = _banded_system(l_and_u, 41, 3)
    x = solve_banded(l_and_u, _lapack_layout(l_and_u, ab), rhs.copy())
    assert np.array_equal(x, scipy_solve_banded(l_and_u, ab, rhs))
    ab[:, 20] = 0.0  # a zero column: singular
    with pytest.raises(np.linalg.LinAlgError):
        solve_banded(l_and_u, _lapack_layout(l_and_u, ab), rhs.copy())


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", ["matrix", "rhs"])
@pytest.mark.parametrize("l_and_u", [PENTA])
def test_solve_banded_rejects_nonfinite_input(l_and_u, where, bad):
    ab, rhs = _banded_system(l_and_u, 41, 4)
    ab = _lapack_layout(l_and_u, ab)
    (ab if where == "matrix" else rhs)[..., 17] = bad
    with pytest.raises(ValueError):
        solve_banded(l_and_u, ab, rhs)


@pytest.mark.parametrize("N, m, n, mu2", [(4, 2, 3, 1.0), (5, 3, 3, 2.5)])
def test_limit_newton_direction_matches_scipy(N, m, n, mu2):
    # the tridiagonal Newton matrix K - q mu (2*-1)|w|^(2*-2) of the limit
    # equation, solved by scipy's banded solver on the same bands
    from scipy.linalg import solve_banded as scipy_solve_banded

    from critsep.functional import _limit_residual
    from critsep.solver import _limit_newton_direction

    grid = build_grid(ModelParams(N=N, m=m, n=n, M=128))
    p = grid.params.two_star
    cp = CouplingParams(mu1=1.0, mu2=mu2, alpha=p / 2.0, beta=p / 2.0, lam=-1.0)
    init = initial_guess("bumps", grid)
    w = init.u - 0.7 * init.v
    mu, force = _limit_force(w, cp, p)
    (direction,) = _limit_newton_direction(w, grid, mu, force)
    res = _limit_residual(w, force, grid)
    ab = np.zeros((3, grid.size))
    ab[0, 1:] = ab[2, :-1] = grid.k_off
    ab[1] = grid.k_diag - grid.weights * (mu * (p - 1.0) * np.abs(w) ** (p - 2.0))
    assert np.array_equal(direction, scipy_solve_banded((1, 1), ab, -res))


@pytest.mark.parametrize("N, m, n, mu2", [(4, 2, 3, 1.0), (5, 3, 3, 2.5)])
def test_limit_kkt_direction_solves_the_bordered_system(N, m, n, mu2):
    # the Lagrange-Newton step against a dense solve of the KKT system
    # [[H_L, C^T], [C, 0]] (d, z) = (-(dE - sigma . dG), -G), assembled from
    # the Hessians of E and of the Nehari residuals G+- of w+ and w-, at a
    # profile off both Nehari sets (G != 0)
    from critsep.functional import limit_residuals
    from critsep.solver import _Limit, _limit_kkt_direction

    grid = build_grid(ModelParams(N=N, m=m, n=n, M=128))
    p, q = grid.params.two_star, grid.weights
    cp = CouplingParams(mu1=1.0, mu2=mu2, alpha=p / 2.0, beta=p / 2.0, lam=-1.0)
    init = initial_guess("bumps", grid)
    w = init.u - 0.7 * init.v
    _state, (mu, force, _tg, sigma, grads) = _Limit(cp, grid).evaluate((w,), (None, None))
    (d,) = _limit_kkt_direction(w, cp, grid, mu, grid.apply_h1(w) - q * force, sigma, grads)

    K = np.diag(grid.k_diag) + np.diag(grid.k_off, 1) + np.diag(grid.k_off, -1)
    hess = K - np.diag(q * mu * (p - 1.0) * np.abs(w) ** (p - 2.0))
    grad = K @ w - q * mu * np.sign(w) * np.abs(w) ** (p - 1.0)
    rows, G = [], limit_residuals(w, cp, grid)
    for s, on, mu_i in zip(sigma, (w > 0.0, w < 0.0), (cp.mu1, cp.mu2)):
        x = np.where(on, w, 0.0)
        P = np.diag(on.astype(float))
        rows.append(2.0 * P @ K @ x - q * p * mu_i * np.sign(x) * np.abs(x) ** (p - 1.0))
        hess -= s * (2.0 * P @ K @ P - np.diag(q * p * (p - 1.0) * mu_i * np.abs(x) ** (p - 2.0)))
        grad -= s * rows[-1]
    C = np.array(rows)
    kkt = np.block([[hess, C.T], [C, np.zeros((2, 2))]])
    ref = np.linalg.solve(kkt, np.concatenate([-grad, -np.asarray(G)]))[:-2]
    assert np.allclose(d, ref, rtol=0.0, atol=1e-9 * np.abs(ref).max())
    assert np.allclose(C @ d, -np.asarray(G), rtol=1e-9)


def _nonfinite_start(kind, bad):
    grid = build_grid(ModelParams(N=4, m=2, n=3, M=64))
    init = initial_guess("bumps", grid)
    u = init.u.copy()
    u[5] = bad
    if kind == "pair":
        return minimize_nehari, (PairState(u, init.v), CP, grid, OPTS)
    if kind == "single":
        return minimize_single, (u, 1.0, grid, OPTS)
    return minimize_limit, (u - init.v, CP, grid, OPTS)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("kind", ["pair", "single", "limit"])
def test_nonfinite_start_raises_a_typed_error(kind, bad):
    # scipy's untyped ValueError used to escape the single and limit solves
    solve, args = _nonfinite_start(kind, bad)
    with pytest.raises(DegenerateInputError, match="finite"):
        solve(*args)


@pytest.mark.parametrize("N, m, n", [(4, 2, 3), (5, 3, 3)])
def test_pair_tangent_matches_central_differences_of_converged_solves(N, m, n):
    # d(u, v)/d lambda from one solve with the Newton matrix, against
    # (x(lambda + h) - x(lambda - h)) / 2h of solves warm-started at lambda
    grid = build_grid(ModelParams(N=N, m=m, n=n, M=128))
    a = grid.params.two_star / 2.0
    cp = CouplingParams(mu1=1.0, mu2=1.0, alpha=a, beta=a, lam=-10.0)
    opts = SolveOptions(grad_tol=1e-11)
    base = minimize_nehari(initial_guess("bumps", grid), cp, grid, opts)
    assert base.converged
    h = 1e-3
    plus, minus = (minimize_nehari(base.pair, dataclasses.replace(cp, lam=cp.lam + d), grid, opts)
                   for d in (h, -h))
    assert plus.converged and minus.converged
    tangent = pair_tangent(base.pair, cp, grid)
    for dx, xp, xm in zip(tangent, (plus.pair.u, plus.pair.v), (minus.pair.u, minus.pair.v)):
        fd = (xp - xm) / (2.0 * h)
        assert np.max(np.abs(dx - fd)) <= 1e-6 * np.max(np.abs(fd))


def test_pair_tangent_reports_a_singular_newton_matrix(monkeypatch):
    from critsep import solver

    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("singular matrix")

    pair = minimize_nehari(initial_guess("bumps", GRID), CP, GRID, OPTS).pair
    monkeypatch.setattr(solver, "solve_banded", singular)
    assert pair_tangent(pair, CP, GRID) is None
