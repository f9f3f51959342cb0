import math

import numpy as np
import pytest
from scipy.linalg import solve_banded

from critsep import (
    ConvergenceError,
    CouplingParams,
    DegenerateConstraintError,
    DegenerateInputError,
    DomainError,
    ModelParams,
    PairState,
    SolveOptions,
    build_grid,
    energy,
    gradient,
    h1_form,
    initial_guess,
    integrate,
    limit_energy,
    limit_residuals,
    minimize_nehari,
    nehari_project,
    residuals,
    single_project,
    sobolev_constant,
)
from critsep.checks import cosine_series, scaling_residual_dev
from critsep.functional import (
    PairIntegrals,
    _constraint_gradients,
    check_exponents,
    energy_from_integrals,
    nehari_det,
    nehari_det_bound,
    pair_forces,
    pair_inner,
    pair_integrals,
    scaling_from_integrals,
    sobolev_lower_bound,
    tangent_gradient_full,
)
from critsep.geometry import h1_gram
from critsep.solver import _Limit, _Single, _pair_newton_direction, _safe_pow

PARAMS = ModelParams(N=4, m=2, n=3, M=128)
GRID = build_grid(PARAMS)
CP = CouplingParams(mu1=1.0, mu2=1.0, alpha=2.0, beta=2.0, lam=-1.0)
# strongly overlapping pairs only admit a Nehari scaling for weak coupling
CP_WEAK = CouplingParams(mu1=1.0, mu2=1.0, alpha=2.0, beta=2.0, lam=-0.2)


def smooth_pair(seed, positive=True):
    rng = np.random.default_rng(seed)
    u, v = cosine_series(GRID, rng), cosine_series(GRID, rng)
    return PairState(np.exp(u), np.exp(v)) if positive else PairState(u, v)


def test_coupling_params_validation():
    with pytest.raises(DomainError):
        CouplingParams(mu1=0.0, mu2=1.0, alpha=2.0, beta=2.0, lam=-1.0)
    with pytest.raises(DomainError):
        CouplingParams(mu1=1.0, mu2=1.0, alpha=2.5, beta=2.0, lam=-1.0)
    with pytest.raises(DomainError):
        CouplingParams(mu1=1.0, mu2=1.0, alpha=1.0, beta=2.0, lam=-1.0)
    for bad in ({"mu1": math.nan}, {"mu1": math.inf}, {"mu2": math.nan}, {"mu2": math.inf},
                {"lam": math.nan}, {"lam": -math.inf}, {"lam": math.inf}):
        with pytest.raises(DomainError, match="must be finite"):
            CouplingParams(**{**dict(mu1=1.0, mu2=1.0, alpha=2.0, beta=2.0, lam=-1.0), **bad})
    check_exponents(CP, PARAMS.N)
    with pytest.raises(DomainError):
        check_exponents(
            CouplingParams(mu1=1.0, mu2=1.0, alpha=1.5, beta=2.0, lam=-1.0), PARAMS.N
        )


def test_energy_single_component_reduction():
    pair = smooth_pair(0)
    lone = PairState(u=pair.u, v=np.zeros(GRID.size))
    expected = 0.5 * h1_form(pair.u, pair.u, GRID) - 0.25 * integrate(pair.u**4, GRID)
    assert energy(lone, CP, GRID) == pytest.approx(expected, rel=1e-13)


def test_energy_decouples_at_lambda_zero():
    cp0 = CouplingParams(mu1=1.0, mu2=2.0, alpha=2.0, beta=2.0, lam=0.0)
    pair = smooth_pair(1)
    zero = np.zeros(GRID.size)
    total = energy(pair, cp0, GRID)
    eu = energy(PairState(pair.u, zero), cp0, GRID)
    ev = energy(PairState(zero, pair.v), cp0, GRID)
    assert total == pytest.approx(eu + ev, rel=1e-13)


def test_energy_constant_solution_level():
    # c = sqrt(2) solves the reduced single equation at N=4, mu=1 and its
    # energy is (1/4) S^2, equal to 8 pi^2/3
    S = sobolev_constant(4)
    const = PairState(u=np.full(GRID.size, math.sqrt(2.0)), v=np.zeros(GRID.size))
    assert energy(const, CP, GRID) == pytest.approx(0.25 * S * S, rel=1e-12)
    assert energy(const, CP, GRID) == pytest.approx(8.0 * math.pi**2 / 3.0, rel=1e-12)


def test_residuals_constant_solution():
    const = PairState(u=np.full(GRID.size, math.sqrt(2.0)), v=np.zeros(GRID.size))
    res = residuals(const, CP, GRID)
    assert res.f_val == pytest.approx(0.0, abs=1e-10)


def test_residuals_disjoint_supports_reduce_to_single():
    pair = initial_guess("bumps", GRID)
    ints = pair_integrals(pair, CP, GRID)
    assert ints.coupling == 0.0
    res = residuals(pair, CP, GRID)
    single = h1_form(pair.u, pair.u, GRID) - integrate(pair.u**4, GRID)
    assert res.f_val == pytest.approx(single, rel=1e-13)


def test_residual_scaling_polynomial():
    # f(su, tv) = s^2 a1 - s^{2*} b1 - lam alpha s^a t^b c as a polynomial in
    # the stored integrals; spot-check against direct evaluation
    pair = smooth_pair(2)
    ints = pair_integrals(pair, CP, GRID)
    rng = np.random.default_rng(7)
    for _ in range(5):
        s, t = np.exp(rng.normal(0.0, 0.5, size=2))
        direct = residuals(PairState(s * pair.u, t * pair.v), CP, GRID)
        poly_f = (
            s**2 * ints.a1
            - s**4 * ints.b1
            - CP.lam * CP.alpha * s**CP.alpha * t**CP.beta * ints.coupling
        )
        poly_h = (
            t**2 * ints.a2
            - t**4 * ints.b2
            - CP.lam * CP.beta * s**CP.alpha * t**CP.beta * ints.coupling
        )
        assert direct.f_val == pytest.approx(poly_f, rel=1e-12)
        assert direct.h_val == pytest.approx(poly_h, rel=1e-12)


def test_gradient_matches_finite_differences():
    cp = CouplingParams(mu1=1.0, mu2=1.3, alpha=2.0, beta=2.0, lam=-0.7)
    rng = np.random.default_rng(13)
    eps = 1e-5
    for seed in range(8):
        pair = smooth_pair(100 + seed)
        direction = PairState(
            u=rng.normal(size=GRID.size), v=rng.normal(size=GRID.size)
        )
        g = gradient(pair, cp, GRID)
        lhs = pair_inner(g, direction, GRID)
        up = PairState(pair.u + eps * direction.u, pair.v + eps * direction.v)
        dn = PairState(pair.u - eps * direction.u, pair.v - eps * direction.v)
        rhs = (energy(up, cp, GRID) - energy(dn, cp, GRID)) / (2.0 * eps)
        assert lhs == pytest.approx(rhs, rel=1e-6)


def test_gradient_vanishes_at_constant_solution():
    const = PairState(u=np.full(GRID.size, math.sqrt(2.0)), v=np.zeros(GRID.size))
    g = gradient(const, CP, GRID)
    assert math.sqrt(h1_form(g.u, g.u, GRID)) <= 1e-8


def test_gradient_swap_equivariance():
    # with mu1 = mu2 and alpha = beta the map (u,v) -> (-v,-u) commutes with
    # the energy gradient
    pair = smooth_pair(3, positive=False)
    g = gradient(pair, CP, GRID)
    swapped = PairState(u=-pair.v, v=-pair.u)
    g_swapped = gradient(swapped, CP, GRID)
    assert np.allclose(g_swapped.u, -g.v, atol=1e-12)
    assert np.allclose(g_swapped.v, -g.u, atol=1e-12)


def test_nehari_project_disjoint_closed_form():
    pair = initial_guess("bumps", GRID)
    s, t = nehari_project(pair, CP, GRID)
    s_ref = single_project(pair.u, CP.mu1, GRID)
    t_ref = single_project(pair.v, CP.mu2, GRID)
    assert s == pytest.approx(s_ref, rel=1e-12)
    assert t == pytest.approx(t_ref, rel=1e-12)


def test_nehari_project_fixed_point_on_manifold():
    pair = smooth_pair(4)
    s, t = nehari_project(pair, CP_WEAK, GRID)
    scaled = PairState(s * pair.u, t * pair.v)
    s2, t2 = nehari_project(scaled, CP_WEAK, GRID)
    assert s2 == pytest.approx(1.0, abs=1e-9)
    assert t2 == pytest.approx(1.0, abs=1e-9)


def test_nehari_project_max_property():
    # the projected pair maximizes energy along its ray cone
    rng = np.random.default_rng(17)
    for seed in (5, 6):
        pair = smooth_pair(seed)
        s, t = nehari_project(pair, CP_WEAK, GRID)
        scaled = PairState(s * pair.u, t * pair.v)
        base = energy(scaled, CP_WEAK, GRID)
        for _ in range(100):
            rs, rt = np.exp(rng.normal(0.0, 0.8, size=2))
            trial = energy(PairState(rs * scaled.u, rt * scaled.v), CP_WEAK, GRID)
            assert trial <= base + 1e-9 * abs(base)


def test_nehari_project_degenerate_and_nonexistent():
    zero = np.zeros(GRID.size)
    with pytest.raises(DegenerateInputError):
        nehari_project(PairState(zero, np.ones(GRID.size)), CP, GRID)
    # fully synchronized constants at lambda=-1 have no scaling onto the set
    ones = np.ones(GRID.size)
    with pytest.raises(ConvergenceError):
        nehari_project(PairState(ones, ones), CP, GRID)


# Integrals of three projections of a cold N = 4, M = 512 solve at
# lambda = -1e4 from the bumps start that have a positive scaling, which the
# Newton-and-grid-scan projection missed, with the s the ratio root gives
MISSED_ROOTS = [
    ((796.1919318814687, 762.3714517649491, 1139.0767519783778, 1104.320854644096,
      0.045301297421840914), 9.5356),
    ((807.6882139000816, 784.5968667684233, 1154.1019136757577, 1130.1345889351578,
      0.045206808067149086), 5.3155),
    ((817.5824130030823, 802.80935834686, 1164.9989195228059, 1149.826080106226,
      0.04779855458931167), 14.9327),
]


@pytest.mark.parametrize("values, s_ref", MISSED_ROOTS)
def test_nehari_scaling_finds_the_roots_a_scan_missed(values, s_ref):
    cp = CouplingParams(mu1=1.0, mu2=1.0, alpha=2.0, beta=2.0, lam=-1e4)
    ints = PairIntegrals(*values)
    s, t = scaling_from_integrals(ints, cp, PARAMS)
    assert s > 0.0 and t > 0.0
    assert s == pytest.approx(s_ref, rel=1e-4)
    assert scaling_residual_dev(ints, cp, PARAMS.two_star, s, t) <= 1e-12


@pytest.mark.parametrize("N, m, alpha", [(4, 2, 2.0), (5, 3, 5.0 / 3.0), (6, 3, 1.5), (6, 3, 1.2)])
def test_nehari_scaling_exists_exactly_when_the_ratio_window_is_open(N, m, alpha):
    # k_lo = (-lam beta c/b2)^(1/alpha) and k_max = (b1/(-lam alpha c))^(1/beta)
    params = ModelParams(N=N, m=m, n=N + 1 - m, M=16)
    beta = params.two_star - alpha
    rng = np.random.default_rng(N * 10 + m)
    found = 0
    for _ in range(300):
        a1, b1, a2, b2 = 100.0 * np.exp(rng.normal(0.0, 1.0, size=4))
        c = float(np.exp(rng.normal(3.0, 2.0)))
        cp = CouplingParams(mu1=1.0, mu2=1.0, alpha=alpha, beta=beta,
                            lam=-float(np.exp(rng.normal(0.0, 2.0))))
        ints = PairIntegrals(a1, b1, a2, b2, c)
        k_lo = (-cp.lam * beta * c / b2) ** (1.0 / alpha)
        k_max = (b1 / (-cp.lam * alpha * c)) ** (1.0 / beta)
        if k_lo < k_max:
            s, t = scaling_from_integrals(ints, cp, params)
            assert s > 0.0 and t > 0.0
            assert scaling_residual_dev(ints, cp, params.two_star, s, t) <= 1e-12
            found += 1
        else:
            with pytest.raises(ConvergenceError, match="no positive Nehari scaling"):
                scaling_from_integrals(ints, cp, params)
    assert 50 <= found <= 250


def test_single_project_examples():
    u = np.ones(GRID.size)
    # constant profile: s^2 = N(N-2)/4
    assert single_project(u, 1.0, GRID) == pytest.approx(math.sqrt(2.0), rel=1e-12)
    pair = smooth_pair(8)
    s = single_project(pair.u, 1.0, GRID)
    on_set = s * pair.u
    assert h1_form(on_set, on_set, GRID) == pytest.approx(
        integrate(on_set**4, GRID), rel=1e-10
    )
    assert single_project(on_set, 1.0, GRID) == pytest.approx(1.0, rel=1e-12)
    # scaling covariance
    assert single_project(3.0 * pair.u, 1.0, GRID) == pytest.approx(s / 3.0, rel=1e-12)
    with pytest.raises(DegenerateInputError):
        single_project(np.zeros(GRID.size), 1.0, GRID)


def test_tangent_gradient_orthogonality_and_contraction():
    from critsep.functional import _constraint_gradients

    pair = smooth_pair(9)
    s, t = nehari_project(pair, CP_WEAK, GRID)
    scaled = PairState(s * pair.u, t * pair.v)
    tg = tangent_gradient_full(scaled, CP_WEAK, GRID)[0]
    gf, gh = _constraint_gradients(scaled, CP_WEAK, GRID)
    norm = math.sqrt(pair_inner(tg, tg, GRID))
    for c in (gf, gh):
        c_norm = math.sqrt(pair_inner(c, c, GRID))
        assert abs(pair_inner(tg, c, GRID)) <= 1e-8 * norm * c_norm
    g = gradient(scaled, CP_WEAK, GRID)
    assert norm <= math.sqrt(pair_inner(g, g, GRID)) + 1e-12


def test_on_manifold_energy_identity():
    # E = (a1 + a2)/N whenever both residuals vanish
    for seed in (10, 11):
        pair = smooth_pair(seed)
        s, t = nehari_project(pair, CP_WEAK, GRID)
        scaled = PairState(s * pair.u, t * pair.v)
        ints = pair_integrals(scaled, CP_WEAK, GRID)
        val = energy(scaled, CP_WEAK, GRID)
        assert val == pytest.approx((ints.a1 + ints.a2) / 4.0, rel=1e-10)


def test_nehari_bounds_and_determinant():
    for seed in (12, 13):
        pair = smooth_pair(seed)
        s, t = nehari_project(pair, CP_WEAK, GRID)
        scaled = PairState(s * pair.u, t * pair.v)
        ints = pair_integrals(scaled, CP_WEAK, GRID)
        assert ints.a1 >= 0.99 * sobolev_lower_bound(CP_WEAK.mu1, 4)
        assert ints.a2 >= 0.99 * sobolev_lower_bound(CP_WEAK.mu2, 4)
        assert nehari_det(ints, CP_WEAK, PARAMS) >= 0.99 * nehari_det_bound(ints, CP_WEAK, PARAMS)


def _scaled_energy(ints, cp, s, t):
    """E(s u, t v) from the integrals of (u, v)."""
    p = PARAMS.two_star
    scaled = PairIntegrals(s * s * ints.a1, s**p * ints.b1, t * t * ints.a2, t**p * ints.b2,
                           s**cp.alpha * t**cp.beta * ints.coupling)
    return energy_from_integrals(scaled, cp, PARAMS)


def test_nehari_det_matches_a_finite_difference_hessian():
    # on the Nehari set the scaling Hessian is the Hessian of E(s u, t v) at
    # (1, 1): its determinant against central differences of step 1e-4
    pairs = []
    for lam in (-0.2, -1.0):
        cp = CouplingParams(mu1=1.0, mu2=2.5, alpha=2.0, beta=2.0, lam=lam)
        for seed in (12, 13, 14):
            pair = smooth_pair(seed)
            s, t = nehari_project(pair, cp, GRID)
            pairs.append((PairState(s * pair.u, t * pair.v), cp))
    # smooth pairs have no scaling at -1e3: a converged minimizer instead
    cp = CouplingParams(mu1=1.0, mu2=2.5, alpha=2.0, beta=2.0, lam=-1e3)
    res = minimize_nehari(initial_guess("bumps", GRID), cp, GRID, SolveOptions(grad_tol=1e-8))
    assert res.converged
    pairs.append((res.pair, cp))
    h = 1e-4
    for pair, cp in pairs:
        ints = pair_integrals(pair, cp, GRID)

        def e(i, j):
            return _scaled_energy(ints, cp, 1.0 + i * h, 1.0 + j * h)

        e_ss = (e(1, 0) - 2.0 * e(0, 0) + e(-1, 0)) / h**2
        e_tt = (e(0, 1) - 2.0 * e(0, 0) + e(0, -1)) / h**2
        e_st = (e(1, 1) - e(1, -1) - e(-1, 1) + e(-1, -1)) / (4.0 * h * h)
        assert nehari_det(ints, cp, PARAMS) == pytest.approx(e_ss * e_tt - e_st**2, rel=1e-6)


def test_energy_lambda_monotonicity():
    pair = smooth_pair(14)
    assert pair_integrals(pair, CP, GRID).coupling > 0.0
    cp1 = CouplingParams(mu1=1.0, mu2=1.0, alpha=2.0, beta=2.0, lam=-2.0)
    cp2 = CouplingParams(mu1=1.0, mu2=1.0, alpha=2.0, beta=2.0, lam=-1.0)
    assert energy(pair, cp1, GRID) > energy(pair, cp2, GRID)


def test_limit_energy_examples():
    pair = initial_guess("bumps", GRID)
    # nonnegative profile: limit energy is the single-component energy
    w = pair.u
    expected = 0.5 * h1_form(w, w, GRID) - 0.25 * integrate(w**4, GRID)
    assert limit_energy(w, CP, GRID) == pytest.approx(expected, rel=1e-13)
    # disjoint difference: equals the pair energy for every lambda
    w = pair.u - pair.v
    for lam in (-0.5, -1.0, -100.0):
        cp = CouplingParams(mu1=1.0, mu2=2.0, alpha=2.0, beta=2.0, lam=lam)
        assert limit_energy(w, cp, GRID) == pytest.approx(
            energy(pair, cp, GRID), rel=1e-12
        )
    # sign flip symmetry when mu1 = mu2
    w = smooth_pair(15, positive=False).u
    assert limit_energy(-w, CP, GRID) == pytest.approx(limit_energy(w, CP, GRID), rel=1e-13)


def test_limit_residuals_split():
    pair = initial_guess("bumps", GRID)
    w = pair.u - pair.v
    rp, rm = limit_residuals(w, CP, GRID)
    assert rp == pytest.approx(
        h1_form(pair.u, pair.u, GRID) - integrate(pair.u**4, GRID), rel=1e-12
    )
    assert rm == pytest.approx(
        h1_form(pair.v, pair.v, GRID) - integrate(pair.v**4, GRID), rel=1e-12
    )


# ----------------------------------------------------- kernel references
#
# The force code that pair_forces replaced: gradient, constraint gradients,
# tangent gradient and pair Newton direction each evaluating their own
# powers, and the Gram entries taken from one h1_form call each; and the
# projections of the limit and of the single component, each written out
# with its own Gram solve.  The arithmetic is unchanged, so the results must
# compare equal.


def _reference_mixed_force_u(u, v, cp):
    return cp.alpha * np.sign(u) * np.abs(u) ** (cp.alpha - 1.0) * np.abs(v) ** cp.beta


def _reference_mixed_force_v(u, v, cp):
    return cp.beta * np.abs(u) ** cp.alpha * np.sign(v) * np.abs(v) ** (cp.beta - 1.0)


def _reference_crit_force(x, p):
    return np.sign(x) * np.abs(x) ** (p - 1.0)


def reference_gradient(pair, cp, grid):
    p = grid.params.two_star
    u, v = pair.u, pair.v
    q = grid.weights
    force_u = cp.mu1 * _reference_crit_force(u, p) + cp.lam * _reference_mixed_force_u(u, v, cp)
    force_v = cp.mu2 * _reference_crit_force(v, p) + cp.lam * _reference_mixed_force_v(u, v, cp)
    return PairState(u=u - grid.solve_h1(q * force_u), v=v - grid.solve_h1(q * force_v))


def reference_constraint_gradients(pair, cp, grid):
    p = grid.params.two_star
    u, v = pair.u, pair.v
    q = grid.weights
    mixed_u = _reference_mixed_force_u
    mixed_v = _reference_mixed_force_v
    gf_u = 2.0 * u - grid.solve_h1(
        q * (p * cp.mu1 * _reference_crit_force(u, p) + cp.lam * cp.alpha * mixed_u(u, v, cp))
    )
    gf_v = -grid.solve_h1(q * cp.lam * cp.alpha * mixed_v(u, v, cp))
    gh_u = -grid.solve_h1(q * cp.lam * cp.beta * mixed_u(u, v, cp))
    gh_v = 2.0 * v - grid.solve_h1(
        q * (p * cp.mu2 * _reference_crit_force(v, p) + cp.lam * cp.beta * mixed_v(u, v, cp))
    )
    return PairState(gf_u, gf_v), PairState(gh_u, gh_v)


def reference_multipliers(inner, g, gf, gh, grid):
    """Cramer's rule for the (s, t) that make g - s gf - t gh orthogonal to gf and gh."""
    g11 = inner(gf, gf, grid)
    g12 = inner(gf, gh, grid)
    g22 = inner(gh, gh, grid)
    det = g11 * g22 - g12 * g12
    if det <= 1e-14 * max(g11 * g22, 1e-300):
        raise DegenerateConstraintError("dependent constraint gradients")
    r1 = inner(g, gf, grid)
    r2 = inner(g, gh, grid)
    return (r1 * g22 - r2 * g12) / det, (r2 * g11 - r1 * g12) / det


def reference_tangent_gradient_full(pair, cp, grid):
    g = reference_gradient(pair, cp, grid)
    gf, gh = reference_constraint_gradients(pair, cp, grid)
    s, t = reference_multipliers(pair_inner, g, gf, gh, grid)
    tg = PairState(u=g.u - s * gf.u - t * gh.u, v=g.v - s * gf.v - t * gh.v)
    return tg, (s, t)


def reference_limit_tangent(w, cp, grid):
    """The limit gradient off the constraint gradients of w+ and w-, and those two."""
    p = grid.params.two_star
    q = grid.weights
    g = w - grid.solve_h1(q * (np.where(w > 0.0, cp.mu1, cp.mu2) * _reference_crit_force(w, p)))
    wp, wm = np.maximum(w, 0.0), np.minimum(w, 0.0)
    gf_p = grid.solve_h1(
        np.where(w > 0.0, 2.0 * grid.apply_h1(wp), 0.0) - q * p * cp.mu1 * wp ** (p - 1.0)
    )
    gf_m = grid.solve_h1(
        np.where(w < 0.0, 2.0 * grid.apply_h1(wm), 0.0)
        - q * p * cp.mu2 * _reference_crit_force(wm, p)
    )
    c1, c2 = reference_multipliers(h1_form, g, gf_p, gf_m, grid)
    return g - c1 * gf_p - c2 * gf_m, (gf_p, gf_m)


def reference_single_tangent(u, mu, grid):
    """The single component's gradient off its constraint gradient, the multiplier and gf."""
    p = grid.params.two_star
    q = grid.weights
    force = mu * _reference_crit_force(u, p)
    g = u - grid.solve_h1(q * force)
    gf = 2.0 * u - grid.solve_h1(q * p * force)
    coef = h1_form(g, gf, grid) / h1_form(gf, gf, grid)
    return g - coef * gf, coef, gf


def reference_tridiag_h1(grid):
    wm = grid.midweights / grid.h
    diag = grid.params.mass * grid.weights.copy()
    diag[:-1] += wm
    diag[1:] += wm
    return diag, -wm


def reference_pair_newton_direction(u, v, cp, grid):
    p = grid.params.two_star
    q = grid.weights
    lam, al, be = cp.lam, cp.alpha, cp.beta
    au, av = np.abs(u), np.abs(v)
    mixed_u = al * np.sign(u) * au ** (al - 1.0) * av**be
    mixed_v = be * au**al * np.sign(v) * av ** (be - 1.0)
    f_u = cp.mu1 * np.sign(u) * au ** (p - 1.0) + lam * mixed_u
    f_v = cp.mu2 * np.sign(v) * av ** (p - 1.0) + lam * mixed_v
    res_u = grid.apply_h1(u) - q * f_u
    res_v = grid.apply_h1(v) - q * f_v
    duu = cp.mu1 * (p - 1.0) * au ** (p - 2.0) + lam * al * (al - 1.0) * _safe_pow(u, al - 2.0) * av**be
    dvv = cp.mu2 * (p - 1.0) * av ** (p - 2.0) + lam * be * (be - 1.0) * au**al * _safe_pow(v, be - 2.0)
    duv = lam * al * be * np.sign(u) * np.sign(v) * au ** (al - 1.0) * av ** (be - 1.0)
    kdiag, koff = reference_tridiag_h1(grid)
    n = grid.size
    ab = np.zeros((5, 2 * n))
    inter_off = np.repeat(koff, 2)
    ab[0, 2:] = inter_off
    ab[4, :-2] = inter_off
    ab[1, 1::2] = -q * duv
    ab[3, 0:-1:2] = -q * duv
    ab[2, 0::2] = kdiag - q * duu
    ab[2, 1::2] = kdiag - q * dvv
    rhs = np.empty(2 * n)
    rhs[0::2] = -res_u
    rhs[1::2] = -res_v
    try:
        sol = solve_banded((2, 2), ab, rhs)
    except np.linalg.LinAlgError:
        return None, math.inf
    if not np.isfinite(sol).all():
        return None, math.inf
    res_norm = math.hypot(np.linalg.norm(res_u), np.linalg.norm(res_v))
    return (sol[0::2], sol[1::2]), res_norm


def _kernel_pairs(grid):
    """Overlapping positive, disjoint (exact zeros) and sign-changing pairs."""
    rng = np.random.default_rng(grid.params.N * 10 + grid.params.m)
    p = [cosine_series(grid, rng) for _ in range(6)]
    bumps = initial_guess("bumps", grid)
    return [
        PairState(np.exp(p[0]), np.exp(p[1])),
        bumps,
        PairState(bumps.u + 0.1 * p[2], bumps.v - 0.1 * p[3]),
        PairState(p[4], p[5]),
    ]


def _assert_h1_orthogonal(x, directions, grid):
    norm = math.sqrt(h1_form(x, x, grid))
    for d in directions:
        assert abs(h1_form(x, d, grid)) <= 1e-8 * norm * math.sqrt(h1_form(d, d, grid))


def _check_limit_and_single_tangents(pair, cp, grid):
    """The limit's two-constraint projection at u - v and the single
    component's one-constraint projection of u and of v (with mu2): bit for
    bit against the references, and H^1-orthogonal to their constraint
    gradients."""
    w = pair.u - pair.v
    try:
        ref_tg, grads = reference_limit_tangent(w, cp, grid)
    except DegenerateConstraintError:
        with pytest.raises(DegenerateConstraintError):
            _Limit(cp, grid).evaluate((w,), (None, None))
    else:
        (tg,), _ev = _Limit(cp, grid).evaluate((w,), (None, None))
        assert np.array_equal(tg, ref_tg)
        _assert_h1_orthogonal(tg, grads, grid)
    for u in (pair.u, pair.v):
        ref_tg, ref_coef, gf = reference_single_tangent(u, cp.mu2, grid)
        (tg,), (_g, coef, _a, _b) = _Single(cp.mu2, grid).evaluate((u,), (0.0, 0.0))
        assert np.array_equal(tg, ref_tg) and coef == ref_coef
        _assert_h1_orthogonal(tg, (gf,), grid)


def _same_pair(a, b):
    return np.array_equal(a.u, b.u) and np.array_equal(a.v, b.v)


KERNEL_CASES = [
    (N, m, N + 1 - m, 0.5 * 2.0 * N / (N - 2.0))
    for N in range(4, 9)
    for m in range(2, N)
] + [(5, m, 6 - m, 1.5) for m in (2, 3, 4)]


@pytest.mark.parametrize("N, m, n, alpha", KERNEL_CASES)
def test_pair_kernel_matches_references(N, m, n, alpha):
    grid = build_grid(ModelParams(N=N, m=m, n=n, M=64))
    beta = grid.params.two_star - alpha
    for mu1, mu2 in ((1.0, 1.0), (1.0, 2.5)):
        for lam in (-1.0, -1e3, -1e8):
            cp = CouplingParams(mu1=mu1, mu2=mu2, alpha=alpha, beta=beta, lam=lam)
            for pair in _kernel_pairs(grid):
                if lam == -1.0:  # the limit and the single component do not read lambda
                    _check_limit_and_single_tangents(pair, cp, grid)
                forces = pair_forces(pair, cp, grid)
                ref_g = reference_gradient(pair, cp, grid)
                assert _same_pair(gradient(pair, cp, grid), ref_g)
                assert _same_pair(gradient(pair, cp, grid, forces), ref_g)
                ref_c = reference_constraint_gradients(pair, cp, grid)
                for new, ref in zip(_constraint_gradients(pair, cp, grid, forces), ref_c):
                    assert _same_pair(new, ref)
                try:
                    ref_tg, ref_mult = reference_tangent_gradient_full(pair, cp, grid)
                except DegenerateConstraintError:
                    with pytest.raises(DegenerateConstraintError):
                        tangent_gradient_full(pair, cp, grid, forces)
                else:
                    tg, mult, g = tangent_gradient_full(pair, cp, grid, forces)
                    assert _same_pair(tg, ref_tg) and mult == ref_mult
                    assert _same_pair(g, ref_g)
                direction, res_norm = _pair_newton_direction(pair.u, pair.v, cp, grid, forces)
                ref_dir, ref_norm = reference_pair_newton_direction(pair.u, pair.v, cp, grid)
                assert res_norm == ref_norm
                if ref_dir is None:
                    assert direction is None
                else:
                    assert np.array_equal(direction[0], ref_dir[0])
                    assert np.array_equal(direction[1], ref_dir[1])


def test_h1_gram_equals_h1_form():
    rng = np.random.default_rng(21)
    profiles = [rng.normal(size=GRID.size) for _ in range(4)] + [np.zeros(GRID.size)]
    gram = h1_gram(profiles, GRID)
    for i, x in enumerate(profiles):
        for j, y in enumerate(profiles):
            assert gram[i][j] == h1_form(x, y, GRID)
