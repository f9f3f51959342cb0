"""The invariant battery, each check written once and shared by `critsep
verify`, `solve`, `sobolev` and the acceptance tests; the measurements
return values and each caller applies its own thresholds.  The layers the
benchmark traces, and `sobolev_constant`, are called through their module
attribute (``solver.minimize_nehari``), so a wrapper bound there sees them.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from . import functional, geometry, scalar, separation, solver
from .errors import ConvergenceError
from .functional import (
    CouplingParams, PairIntegrals, PairState, energy, gradient, nehari_det, nehari_det_bound,
    pair_inner, residuals_from_integrals, sobolev_lower_bound,
)
from .geometry import ModelParams, build_grid, orbit_weight, sphere_area
from .separation import geometric_schedule
from .solver import SolveOptions, initial_guess

__all__ = ["CheckResult", "cosine_series", "gradient_fd_dev", "invariant_flags", "quadrature_dev",
           "rescaled_energy_peak", "run_checks", "scaling_residual_dev", "sobolev_dual_dev"]

# Nehari invariant thresholds: relative deviation of the Nehari identities,
# the fractions of the norm floor and of the determinant bound kept, the
# relative residual of a scaling and the overlap's gap to the window's edge
NEHARI_TOL = 1e-8
FLOOR_RATIO = 0.99
DET_RATIO = 0.99
SCALING_RES_TOL = 1e-12
EDGE_GAP = 1e-6


@dataclass
class CheckResult:
    name: str
    passed: bool
    hard: bool
    detail: str = ""


def quadrature_dev() -> float:
    """Worst relative error of the integral of 1, every split of N = 4..8, M = 64."""
    worst = 0.0
    for N in range(4, 9):
        for m in range(2, N):
            grid = build_grid(ModelParams(N=N, m=m, n=N + 1 - m, M=64))
            area = sphere_area(N)
            worst = max(worst, abs(geometry.integrate(np.ones(grid.size), grid) - area) / area)
    return worst


def sobolev_dual_dev(N: int) -> float:
    """Relative gap between S(N) and its dual form (N(N-2)/4) |S^N|^(2/N)."""
    s = geometry.sobolev_constant(N)
    dual = (N * (N - 2) / 4.0) * sphere_area(N) ** (2.0 / N)
    return abs(s - dual) / dual


def cosine_series(grid, rng) -> np.ndarray:
    """Smooth sample profile: four cosine modes with N(0, 0.5^2)/j weights."""
    acc = np.zeros(grid.size)
    for j in range(1, 5):
        acc += rng.normal(0.0, 0.5) * np.cos(2.0 * j * grid.theta) / j
    return acc


def gradient_fd_dev(pair, direction, cp, grid) -> float:
    """Relative gap between <grad E, direction> and a central difference of E."""
    lhs = pair_inner(gradient(pair, cp, grid), direction, grid)
    eps = 1e-5
    up = PairState(pair.u + eps * direction.u, pair.v + eps * direction.v)
    dn = PairState(pair.u - eps * direction.u, pair.v - eps * direction.v)
    rhs = (energy(up, cp, grid) - energy(dn, cp, grid)) / (2.0 * eps)
    return abs(lhs - rhs) / max(abs(rhs), 1e-12)


def rescaled_energy_peak(pair, cp, grid, rng, count) -> float:
    """Largest E(s u, t v) over `count` draws of log s, log t ~ N(0, 0.7^2)."""
    peak = -math.inf
    for _ in range(count):
        s, t = np.exp(rng.normal(0.0, 0.7, size=2))
        peak = max(peak, energy(PairState(s * pair.u, t * pair.v), cp, grid))
    return peak


def scaling_residual_dev(ints, cp, p, s, t):
    """Largest Nehari residual of (su, tv) over its scale s^2 a + s^p b + |coupling term|."""
    sc = PairIntegrals(s * s * ints.a1, s**p * ints.b1, t * t * ints.a2, t**p * ints.b2,
                       s**cp.alpha * t**cp.beta * ints.coupling)
    res, lc = residuals_from_integrals(sc, cp), -cp.lam * sc.coupling
    return np.maximum(abs(res.f_val) / (sc.a1 + sc.b1 + cp.alpha * lc),
                      abs(res.h_val) / (sc.a2 + sc.b2 + cp.beta * lc))


def invariant_flags(stats) -> dict:
    """Pass flags of the per-iterate Nehari invariant margins of a solve."""
    floor_ratio = min(stats.min_bound_ratio_u, stats.min_bound_ratio_v)
    return {
        "energy_identity_ok": bool(stats.max_energy_identity_dev <= NEHARI_TOL),
        "lower_bounds_ok": bool(floor_ratio >= FLOOR_RATIO),
        "det_bound_ok": bool(stats.min_det_ratio >= DET_RATIO),
    }


def _check_sphere_areas():
    targets = [(1, 2.0 * math.pi), (2, 4.0 * math.pi), (4, 8.0 * math.pi**2 / 3.0)]
    worst = max(abs(sphere_area(k) - v) / v for k, v in targets)
    return worst <= 1e-12, f"max rel dev {worst:.2e}"


def _check_quadrature():
    worst = quadrature_dev()
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
    grid = build_grid(ModelParams(N=4, m=2, n=3, M=64))
    rng = np.random.default_rng(11)
    detail = []
    for _ in range(5):
        u = rng.normal(size=grid.size)
        v = rng.normal(size=grid.size)
        sym = abs(geometry.h1_form(u, v, grid) - geometry.h1_form(v, u, grid))
        if sym > 1e-10:
            detail.append(f"asymmetry {sym:.2e}")
        if geometry.h1_form(u, u, grid) <= 0.0:
            detail.append("not positive definite")
    if geometry.h1_form(np.zeros(grid.size), np.zeros(grid.size), grid) != 0.0:
        detail.append("nonzero at zero")
    return not detail, "; ".join(detail) or "symmetric positive definite on samples"


def _check_sobolev_dual():
    worst = max(sobolev_dual_dev(N) for N in (4, 5, 6))
    return worst <= 1e-12, f"max rel dev {worst:.2e}"


def _positive_pair(grid, rng):
    return PairState(np.exp(cosine_series(grid, rng)), np.exp(cosine_series(grid, rng)))


def _check_gradient_fd():
    grid = build_grid(ModelParams(N=4, m=2, n=3, M=64))
    cp = CouplingParams(mu1=1.0, mu2=1.3, alpha=2.0, beta=2.0, lam=-0.7)
    rng = np.random.default_rng(23)
    worst = 0.0
    for _ in range(5):
        pair = _positive_pair(grid, rng)
        direction = PairState(cosine_series(grid, rng) + rng.normal(0.0, 0.2),
                              cosine_series(grid, rng) + rng.normal(0.0, 0.2))
        worst = max(worst, gradient_fd_dev(pair, direction, cp, grid))
    return worst <= 1e-6, f"max rel dev {worst:.2e} over 5 pairs"


def _check_nehari_projection():
    params = ModelParams(N=4, m=2, n=3, M=64)
    grid = build_grid(params)
    cp = CouplingParams(mu1=1.0, mu2=2.0, alpha=2.0, beta=2.0, lam=-0.5)
    rng = np.random.default_rng(39)
    issues = []
    for _ in range(5):
        pair = _positive_pair(grid, rng)
        s, t = functional.nehari_project(pair, cp, grid)
        scaled = PairState(s * pair.u, t * pair.v)
        ints = functional.pair_integrals(scaled, cp, grid)
        res = residuals_from_integrals(ints, cp)
        if max(abs(res.f_val), abs(res.h_val)) > NEHARI_TOL * max(ints.a1, ints.a2):
            issues.append("residuals after projection too large")
        s2, t2 = functional.nehari_project(scaled, cp, grid)
        if abs(s2 - 1.0) > NEHARI_TOL or abs(t2 - 1.0) > NEHARI_TOL:
            issues.append("projection of on-manifold pair differs from (1,1)")
        if (ints.a1 < FLOOR_RATIO * sobolev_lower_bound(cp.mu1, 4)
                or ints.a2 < FLOOR_RATIO * sobolev_lower_bound(cp.mu2, 4)):
            issues.append("norm floor violated")
        if nehari_det(ints, cp, params) < DET_RATIO * nehari_det_bound(ints, cp, params):
            issues.append("determinant bound violated")
        base = energy(scaled, cp, grid)
        if rescaled_energy_peak(scaled, cp, grid, rng, 20) > base + 1e-10 * abs(base):
            issues.append("scaled energy exceeds on-manifold value")
    # With alpha = beta = 2 the window is open exactly when 2|lambda| c < sqrt(b1 b2), here for
    # the last projected pair.  Just inside, the scaling's residuals vanish.  Just outside, there
    # is none, and the residuals stay off zero on f = 0: t = k s, s^2 = a1/(b1 - 2|lambda| c k^2).
    edge = math.sqrt(ints.b1 * ints.b2) / (-2.0 * cp.lam)
    inside, outside = (replace(ints, coupling=edge * (1.0 + g)) for g in (-EDGE_GAP, EDGE_GAP))
    try:
        s, t = functional.scaling_from_integrals(inside, cp, params)
        if scaling_residual_dev(inside, cp, params.two_star, s, t) > SCALING_RES_TOL:
            issues.append("residuals do not vanish just inside the ratio window")
    except ConvergenceError:
        issues.append("no scaling just inside the ratio window")
    try:
        functional.scaling_from_integrals(outside, cp, params)
        issues.append("a scaling returned just outside the ratio window")
    except ConvergenceError:
        lc = -2.0 * cp.lam * outside.coupling
        k = math.sqrt(outside.b1 / lc) * (1.0 - np.geomspace(1e-12, 1.0, 400)[:-1])
        s = np.sqrt(outside.a1 / (outside.b1 - lc * k * k))
        if scaling_residual_dev(outside, cp, params.two_star, s, k * s).min() <= SCALING_RES_TOL:
            issues.append("residuals vanish just outside the ratio window")
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
        res = solver.minimize_nehari(initial_guess("bumps", grid), cp, grid, opts)
        if not res.converged:
            return False, f"solve at M={M} not converged: {res.message}"
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
    result = separation.sweep_lambda(sched, cp, grid, SolveOptions(grad_tol=1e-5))
    bad = [r for r in result.records if not r.status.startswith("ok")]
    if bad:
        return False, f"{len(bad)} of {len(result.records)} rows not ok: {bad[0].status}"
    return result.monotonicity_ok, "energy nondecreasing along the schedule"


def _soft_interface_drift():
    grid = build_grid(ModelParams(N=4, m=2, n=3, M=96))
    opts = SolveOptions(grad_tol=1e-5)
    init = initial_guess("bumps", grid)
    thetas = []
    for mu2 in (1.0, 2.0, 4.0):
        cp = CouplingParams(mu1=1.0, mu2=mu2, alpha=2.0, beta=2.0, lam=-1.0)
        res = solver.minimize_limit(init.u - init.v, cp, grid, opts)
        if not res.converged:
            return False, f"limit solve at mu2={mu2} not converged: {res.message}"
        thetas.append(separation.interface_locate(res.w, grid))
    diffs = np.diff(thetas)
    monotone = bool(np.all(diffs > 0) or np.all(diffs < 0))
    return monotone, f"interface positions {[round(t, 4) for t in thetas]}"


HARD_CHECKS = (
    ("sphere_area_values", _check_sphere_areas),
    ("quadrature_exactness", _check_quadrature),
    ("orbit_weight_symmetry", _check_weight_symmetry),
    ("h1_form_properties", _check_h1_properties),
    ("sobolev_dual_formula", _check_sobolev_dual),
    ("gradient_finite_difference", _check_gradient_fd),
    ("nehari_projection", _check_nehari_projection),
    ("sync_diagonal_closed_form", _check_sync_diagonal),
    ("fixed_point_free_boundary", _check_fixed_point_free),
    ("plane_function_uniqueness", _check_plane_identity),
    ("refinement_order", _check_refinement),
)
SOFT_CHECKS = (
    ("clambda_monotonicity", _soft_clambda_monotone),
    ("interface_mu2_drift", _soft_interface_drift),
)


def run_checks(include_soft=True):
    """Run the battery, hard checks first; returns a list of CheckResult."""
    results = []
    for hard, battery in ((True, HARD_CHECKS), (False, SOFT_CHECKS if include_soft else ())):
        for name, fn in battery:
            passed, detail = fn()
            results.append(CheckResult(name=name, passed=passed, hard=hard, detail=detail))
    return results
