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
    build_grid,
    h1_form,
    initial_guess,
    interface_locate,
    minimize_limit,
    minimize_nehari,
    minimize_single,
    sobolev_constant,
)
from critsep.errors import CollapseError
from critsep.functional import (
    energy_from_integrals,
    nehari_project,
    pair_inner,
    pair_integrals,
    residuals_from_integrals,
    sobolev_lower_bound,
    tangent_gradient_full,
)
from critsep.solver import _rescale_parts

PARAMS = ModelParams(N=4, m=2, n=3, M=256)
GRID = build_grid(PARAMS)
CP = CouplingParams(mu1=1.0, mu2=1.0, alpha=2.0, beta=2.0, lam=-1.0)
OPTS = SolveOptions(grad_tol=1e-6, max_iters=20000)
S4 = sobolev_constant(4)


def test_solve_options_validation():
    with pytest.raises(DomainError):
        SolveOptions(armijo_slope=1.5)
    with pytest.raises(DomainError):
        SolveOptions(armijo_backtrack=0.0)


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
    pair = initial_guess("bumps", GRID, 0)
    ints = pair_integrals(pair, CP, GRID)
    assert ints.coupling == 0.0
    assert ints.a1 > 0 and ints.a2 > 0


def test_initial_guess_determinism_and_kinds():
    a = initial_guess("random", GRID, 42)
    b = initial_guess("random", GRID, 42)
    c = initial_guess("random", GRID, 43)
    assert np.array_equal(a.u, b.u) and np.array_equal(a.v, b.v)
    assert not np.array_equal(a.u, c.u)
    split = initial_guess("constants_split", GRID, 0)
    assert h1_form(split.u, split.u, GRID) > 0
    assert h1_form(split.v, split.v, GRID) > 0
    with pytest.raises(DomainError):
        initial_guess("nope", GRID, 0)


def test_minimize_single_finds_constant_level():
    res = minimize_single(initial_guess("bumps", GRID, 0).u, 1.0, GRID, OPTS)
    assert res.converged
    assert res.energy == pytest.approx(0.25 * S4 * S4, rel=1e-10)
    # the minimizer is the constant profile sqrt(2)
    assert np.max(np.abs(res.pair.u - math.sqrt(2.0))) < 1e-5
    assert abs(res.residuals.f_val) <= 1e-6 * h1_form(res.pair.u, res.pair.u, GRID)


def test_minimize_nehari_level_bracket():
    init = initial_guess("bumps", GRID, 0)
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
        minimize_nehari(initial_guess("bumps", GRID, 0), cp0, GRID, OPTS)


def test_minimize_nehari_cannot_start_from_random():
    # both random profiles are positive everywhere, so no scaling of the
    # pair lands on the Nehari set; the start suits single and limit solves
    grid = build_grid(ModelParams(N=4, m=2, n=3, M=128))
    cp = CouplingParams(mu1=1.0, mu2=1.0, alpha=2.0, beta=2.0, lam=-1e3)
    with pytest.raises(ConvergenceError):
        minimize_nehari(initial_guess("random", grid, 0), cp, grid, OPTS)


def test_monotone_descent_trace():
    res = minimize_nehari(initial_guess("bumps", GRID, 0), CP, GRID, OPTS)
    trace = res.energy_trace
    diffs = np.diff(trace)
    assert np.all(diffs <= 1e-12 * np.abs(trace[:-1]))
    assert trace[-1] <= trace[0]


def test_decoupled_limit_matches_single_solves():
    cp = CouplingParams(mu1=1.0, mu2=1.0, alpha=2.0, beta=2.0, lam=-1e-4)
    res = minimize_nehari(initial_guess("bumps", GRID, 0), cp, GRID, OPTS)
    assert res.converged
    # each component approaches the constant single-equation solution
    assert res.energy == pytest.approx(0.5 * S4 * S4, rel=1e-3)
    for comp in (res.pair.u, res.pair.v):
        assert np.std(comp) / np.mean(comp) < 0.05


def test_reflection_invariance():
    # mirror the geometry, swap (m,n), (mu1,mu2), (alpha,beta) and the
    # components: energies agree to roundoff-level tolerance
    cp = CouplingParams(mu1=1.0, mu2=2.0, alpha=2.0, beta=2.0, lam=-1.0)
    res = minimize_nehari(initial_guess("bumps", GRID, 0), cp, GRID, OPTS)

    params_r = ModelParams(N=4, m=3, n=2, M=256)
    grid_r = build_grid(params_r)
    cp_r = CouplingParams(mu1=2.0, mu2=1.0, alpha=2.0, beta=2.0, lam=-1.0)
    init = initial_guess("bumps", GRID, 0)
    init_r = PairState(u=init.v[::-1].copy(), v=init.u[::-1].copy())
    res_r = minimize_nehari(init_r, cp_r, grid_r, OPTS)
    assert res_r.energy == pytest.approx(res.energy, rel=1e-8)


def test_swap_equivariance_symmetric_coupling():
    init = initial_guess("bumps", GRID, 0)
    swapped = PairState(u=-init.v, v=-init.u)
    res = minimize_nehari(init, CP, GRID, OPTS)
    res_s = minimize_nehari(swapped, CP, GRID, OPTS)
    assert res_s.energy == pytest.approx(res.energy, rel=1e-8)


def test_invariant_stats_along_solve():
    res = minimize_nehari(initial_guess("bumps", GRID, 0), CP, GRID, OPTS)
    st = res.stats
    assert st.count == res.iterations
    assert st.max_energy_identity_dev <= 1e-8
    assert st.min_bound_ratio_u >= 0.99
    assert st.min_bound_ratio_v >= 0.99
    assert st.min_det_ratio >= 0.99


def test_minimize_limit_bounds_and_interface():
    init = initial_guess("bumps", GRID, 0)
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
    init = initial_guess("bumps", grid, 0)
    res = minimize_limit(init.u - init.v, cp, grid, OPTS)
    assert res.converged
    theta0 = interface_locate(res.w, grid)
    assert abs(theta0 - math.pi / 4.0) <= grid.h
    # mirror symmetry of the limit energy
    from critsep import limit_energy

    assert limit_energy(-res.w[::-1], cp, grid) == pytest.approx(res.energy, rel=1e-12)


def test_minimize_limit_rejects_one_signed_start():
    w = np.abs(initial_guess("bumps", GRID, 0).u) + 0.1
    with pytest.raises(DegenerateInputError):
        minimize_limit(w, CP, GRID, OPTS)


def test_rescale_parts_collapse_detection():
    init = initial_guess("bumps", GRID, 0)
    w = init.u - init.v
    # forcing an absurdly high floor must trip the collapse guard
    with pytest.raises(CollapseError):
        _rescale_parts(w, CP, GRID, 1e12, 0.0, 7)
    with pytest.raises(CollapseError):
        _rescale_parts(np.where(w > 0, w, 0.0) - 0.0, CP, GRID, 0.0, 0.0, 3)


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
    res = minimize_nehari(initial_guess("bumps", grid, 0), cp, grid, opts)
    assert res.message == message
    ints = pair_integrals(res.pair, cp, grid)
    tg, mult, g = tangent_gradient_full(res.pair, cp, grid)
    assert res.energy == energy_from_integrals(ints, cp, grid.params)
    assert res.residuals == residuals_from_integrals(ints, cp)
    assert res.grad_norm == math.sqrt(max(pair_inner(tg, tg, grid), 0.0))
    assert res.full_grad_norm == math.sqrt(max(pair_inner(g, g, grid), 0.0))
    assert res.multipliers == mult


@pytest.mark.parametrize("newton", [True, False])
def test_minimize_nehari_hands_over_the_integrals_of_the_projected_pair(monkeypatch, newton):
    # the projection at the top of an iteration takes the integrals of the
    # accepted trial; they must be those of the pair it projects, after
    # Newton steps and (with the Newton candidate switched off) Armijo steps
    from critsep import solver

    handed = []

    def checked(pair, cp, grid, ints=None):
        if ints is not None:
            handed.append(ints == pair_integrals(pair, cp, grid))
        return nehari_project(pair, cp, grid, ints=ints)

    monkeypatch.setattr(solver, "nehari_project", checked)
    if not newton:
        monkeypatch.setattr(solver, "_pair_newton_direction", lambda *args: (None, math.inf))
    opts = SolveOptions(grad_tol=1e-6, max_iters=30)
    res = minimize_nehari(initial_guess("bumps", GRID, 0), CP, GRID, opts)
    assert res.converged == newton
    assert len(handed) == res.iterations - 1
    assert all(handed)


@pytest.mark.parametrize(
    "N, m, n, mu2, max_iters, grad_tol, message",
    [
        (4, 2, 3, 1.0, 20000, 1e-6, "tangent gradient below tolerance"),
        (4, 2, 3, 1.0, 3, 1e-6, "max_iters exceeded"),
        (8, 2, 7, 2.5, 60, 1e-8, "line search stalled"),
    ],
)
def test_minimize_limit_reports_the_gradient_of_the_returned_profile(
    N, m, n, mu2, max_iters, grad_tol, message
):
    # the returned w is the final iterate rescaled once more; its reported
    # tangent norm must be the one at that w, also after a max_iters cut
    from critsep.solver import _limit_tangent

    grid = build_grid(ModelParams(N=N, m=m, n=n, M=128))
    alpha = 0.5 * grid.params.two_star
    cp = CouplingParams(mu1=1.0, mu2=mu2, alpha=alpha, beta=alpha, lam=-1.0)
    init = initial_guess("bumps", grid, 0)
    opts = SolveOptions(grad_tol=grad_tol, max_iters=max_iters)
    res = minimize_limit(init.u - init.v, cp, grid, opts)
    assert res.message == message
    _g, tg = _limit_tangent(res.w, cp, grid)
    assert res.grad_norm == math.sqrt(max(h1_form(tg, tg, grid), 0.0))


def _nonfinite_start(kind, bad):
    grid = build_grid(ModelParams(N=4, m=2, n=3, M=64))
    init = initial_guess("bumps", grid, 0)
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
