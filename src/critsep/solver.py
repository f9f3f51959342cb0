"""Constrained minimization on the discrete Nehari sets.

The pair solver keeps its iterates exactly on the discrete Nehari set:
every accepted iterate is rescaled by the unique positive (s, t) with
vanishing residuals, and steps are taken along the negative tangential
gradient (the H^1-preconditioned energy gradient with its component along
the two constraint gradients removed).  Step sizes start from a
Barzilai-Borwein estimate and are backtracked until the Armijo condition
holds for the energy of the re-projected trial, so the energy of accepted
iterates never increases.  Convergence additionally requires the full
gradient to be small, which certifies that the constrained critical point
is a free critical point (the multiplier solve returns ~0).

The same scheme drives the single-component problem (one constraint) and
the sign-changing limit problem, where the two constraints fix the
separate scalings of the positive and negative parts.

Inequalities that hold on the continuous Nehari set are monitored on every
accepted iterate and summarized in the result: the energy identity
E = (a1+a2)/N, the per-component norm floors, and the positivity margin of
the 2x2 scaling Hessian determinant.
"""

import math
from collections import deque
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded

from .errors import (
    CollapseError,
    ConvergenceError,
    DegenerateInputError,
    DomainError,
)
from .functional import (
    CouplingParams,
    NehariResiduals,
    PairState,
    _crit_force,
    check_exponents,
    energy_from_integrals,
    limit_energy,
    limit_residuals,
    nehari_det_bound,
    nehari_matrix,
    nehari_project,
    pair_forces,
    pair_inner,
    pair_integrals,
    residuals_from_integrals,
    single_project,
    sobolev_lower_bound,
    tangent_gradient_full,
)
from .geometry import HALF_PI, ReducedGrid, h1_form, integrate

__all__ = [
    "LimitResult",
    "NehariInvariantStats",
    "SolveOptions",
    "SolveResult",
    "initial_guess",
    "minimize_limit",
    "minimize_nehari",
    "minimize_single",
]

COLLAPSE_FRACTION = 0.1  # component is lost below this fraction of its norm floor
NEWTON_STEPS = (1.0, 0.5, 0.25, 0.125, 0.0625)  # damped lengths of the pair Newton step
RESIDUAL_WINDOW = 5  # the Newton residual test compares against this many past norms


@dataclass(frozen=True)
class SolveOptions:
    max_iters: int = 20000
    grad_tol: float = 1e-6          # absolute, on the H^1 norm of the tangent gradient
    armijo_slope: float = 1e-4
    armijo_backtrack: float = 0.5
    positivity_enforced: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.max_iters < 1:
            raise DomainError(f"max_iters must be at least 1, got {self.max_iters}")
        if not (math.isfinite(self.grad_tol) and self.grad_tol > 0.0):
            raise DomainError(f"grad_tol must be finite and positive, got {self.grad_tol}")
        if not (0.0 < self.armijo_slope < 1.0):
            raise DomainError(f"armijo slope fraction must be in (0,1), got {self.armijo_slope}")
        if not (0.0 < self.armijo_backtrack < 1.0):
            raise DomainError(f"backtrack factor must be in (0,1), got {self.armijo_backtrack}")


@dataclass
class NehariInvariantStats:
    """Worst-case margins of the on-manifold inequalities across a solve."""

    count: int = 0
    max_energy_identity_dev: float = 0.0
    min_bound_ratio_u: float = math.inf
    min_bound_ratio_v: float = math.inf
    min_det_ratio: float = math.inf

    def update(self, ints, value, cp, params):
        self.count += 1
        identity = (ints.a1 + ints.a2) / params.N
        dev = abs(value - identity) / max(abs(value), 1e-300)
        self.max_energy_identity_dev = max(self.max_energy_identity_dev, dev)
        self.min_bound_ratio_u = min(
            self.min_bound_ratio_u, ints.a1 / sobolev_lower_bound(cp.mu1, params.N)
        )
        self.min_bound_ratio_v = min(
            self.min_bound_ratio_v, ints.a2 / sobolev_lower_bound(cp.mu2, params.N)
        )
        if ints.coupling > 0.0:
            det = float(np.linalg.det(nehari_matrix(ints, cp, params)))
            self.min_det_ratio = min(
                self.min_det_ratio, det / nehari_det_bound(ints, cp, params)
            )


@dataclass
class SolveResult:
    pair: PairState
    energy: float
    grad_norm: float
    full_grad_norm: float
    iterations: int
    converged: bool
    residuals: NehariResiduals
    multipliers: tuple
    stats: NehariInvariantStats
    energy_trace: np.ndarray
    message: str = ""


def _check_lambda(cp):
    if cp.lam >= 0.0:
        raise DomainError(f"competitive solve requires lambda < 0, got {cp.lam}")


def _bb_step(dx_sq, dx_dg, fallback):
    if dx_dg > 0.0 and np.isfinite(dx_dg):
        return min(max(dx_sq / dx_dg, 1e-12), 1e3)
    return fallback


def _safe_pow(x, e):
    """|x|^e with the convention 0^e = 0 also for negative e."""
    ax = np.abs(x)
    if e >= 0.0:
        return ax**e
    out = np.zeros_like(ax)
    nz = ax > 0.0
    out[nz] = ax[nz] ** e
    return out


def _tridiag_h1(grid):
    wm = grid.midweights / grid.h
    diag = grid.params.mass * grid.weights.copy()
    diag[:-1] += wm
    diag[1:] += wm
    return diag, -wm


def _pair_residual(u, v, f, grid):
    """Nodal residuals K u - q f_u and K v - q f_v of the free critical equations."""
    q = grid.weights
    return grid.apply_h1(u) - q * f.force_u, grid.apply_h1(v) - q * f.force_v


def _pair_newton_direction(u, v, cp, grid, f):
    """Newton direction for the free critical equations of the pair.

    The Jacobian of (K u - q f_u, K v - q f_v) is a pentadiagonal matrix in
    the interleaved ordering (u_0, v_0, u_1, v_1, ...); one banded solve
    gives the step.  Used as an accelerator once the descent is in the
    right basin: the first-order scheme alone needs O(|lambda|) iterations
    because the coupling term dominates the curvature in the overlap
    region.  The caller damps the step: it tries the lengths NEWTON_STEPS
    in turn, because in the thin interface layer of strong coupling the
    full step overshoots.  Returns the direction and the residual norm at
    (u, v).

    ``f`` is the pointwise kernel ``pair_forces`` at (u, v): the forces and
    the first-derivative powers are read from it, and only the second
    derivatives of the powers are computed here.
    """
    p = grid.params.two_star
    q = grid.weights
    lam, al, be = cp.lam, cp.alpha, cp.beta
    res_u, res_v = _pair_residual(u, v, f, grid)
    duu = cp.mu1 * (p - 1.0) * f.abs_u ** (p - 2.0) + lam * al * (al - 1.0) * _safe_pow(u, al - 2.0) * f.v_b
    dvv = cp.mu2 * (p - 1.0) * f.abs_v ** (p - 2.0) + lam * be * (be - 1.0) * f.u_a * _safe_pow(v, be - 2.0)
    duv = lam * al * be * f.sign_u * f.sign_v * f.u_am1 * f.v_bm1
    kdiag, koff = _tridiag_h1(grid)
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


def _pair_residual_norm(u, v, cp, grid):
    res_u, res_v = _pair_residual(u, v, pair_forces(PairState(u, v), cp, grid), grid)
    return math.hypot(np.linalg.norm(res_u), np.linalg.norm(res_v))


def _limit_newton_direction(w, cp, grid):
    """Newton direction for the critical equation of the limit problem."""
    p = grid.params.two_star
    q = grid.weights
    mu = np.where(w > 0.0, cp.mu1, cp.mu2)
    force = mu * _crit_force(w, p)
    res = grid.apply_h1(w) - q * force
    dww = mu * (p - 1.0) * np.abs(w) ** (p - 2.0)
    kdiag, koff = _tridiag_h1(grid)
    ab = np.zeros((3, grid.size))
    ab[0, 1:] = koff
    ab[1, :] = kdiag - q * dww
    ab[2, :-1] = koff
    try:
        sol = solve_banded((1, 1), ab, -res)
    except np.linalg.LinAlgError:
        return None, math.inf
    if not np.isfinite(sol).all():
        return None, math.inf
    return sol, float(np.linalg.norm(res))


def _limit_residual_norm(w, cp, grid):
    p = grid.params.two_star
    mu = np.where(w > 0.0, cp.mu1, cp.mu2)
    res = grid.apply_h1(w) - grid.weights * mu * _crit_force(w, p)
    return float(np.linalg.norm(res))


def minimize_nehari(
    init: PairState, cp: CouplingParams, grid: ReducedGrid, opts: SolveOptions
) -> SolveResult:
    """Energy minimization over the discrete invariant Nehari set.

    Each iterate is evaluated once: one pointwise kernel feeds the tangent
    gradient and the Newton step, the integrals of an accepted trial are
    handed to the next projection, and a solve that stops inside the loop
    returns the evaluation it stopped at.
    """
    _check_lambda(cp)
    check_exponents(cp, grid.params)
    params = grid.params
    u = np.asarray(init.u, dtype=float).copy()
    v = np.asarray(init.v, dtype=float).copy()
    if not (np.isfinite(u).all() and np.isfinite(v).all()):
        raise DegenerateInputError("initial profiles must be finite")

    stats = NehariInvariantStats()
    trace = []
    floor_u = COLLAPSE_FRACTION * sobolev_lower_bound(cp.mu1, params.N)
    floor_v = COLLAPSE_FRACTION * sobolev_lower_bound(cp.mu2, params.N)
    tau = None
    prev = None  # previous accepted iterate and its tangent gradient
    recent_res = deque(maxlen=RESIDUAL_WINDOW)  # Newton residual norms of recent iterates
    ints = None  # integrals of (u, v) when an accepted trial computed them
    message = "max_iters exceeded"
    converged = False

    for k in range(opts.max_iters):
        if opts.positivity_enforced:
            # accepted trials are already nonnegative, so their integrals stay valid
            u = np.abs(u)
            v = np.abs(v)
        s, t = nehari_project(PairState(u, v), cp, grid, ints=ints)
        u *= s
        v *= t
        pair = PairState(u, v)
        ints = pair_integrals(pair, cp, grid)
        if ints.a1 < floor_u or ints.a2 < floor_v:
            raise CollapseError(
                "a component collapsed during the solve",
                iteration=k,
                component="u" if ints.a1 < floor_u else "v",
            )
        value = energy_from_integrals(ints, cp, params)
        trace.append(value)
        stats.update(ints, value, cp, params)

        forces = pair_forces(pair, cp, grid)
        tg, mult, g = tangent_gradient_full(pair, cp, grid, forces)
        tg_sq = pair_inner(tg, tg, grid)
        tg_norm = math.sqrt(max(tg_sq, 0.0))
        if tg_norm <= opts.grad_tol:
            converged = True
            message = "tangent gradient below tolerance"
            break

        # Damped Newton candidate for the free critical equations: the first
        # of the step lengths NEWTON_STEPS whose re-projected pair keeps the
        # energy nonincreasing and brings the residual below 0.99 times the
        # largest of the last RESIDUAL_WINDOW residual norms (the nonmonotone
        # rule of Grippo, Lampariello and Lucidi, 1986).  The energy trace
        # stays monotone, the residual may rise for a few steps, and
        # late-stage convergence stops scaling with |lambda|.
        direction, res_norm = _pair_newton_direction(u, v, cp, grid, forces)
        if direction is not None:
            recent_res.append(res_norm)
            res_ref = 0.99 * max(recent_res)
            newton_accepted = False
            for length in NEWTON_STEPS:
                u_n = u + length * direction[0]
                v_n = v + length * direction[1]
                if opts.positivity_enforced:
                    u_n = np.abs(u_n)
                    v_n = np.abs(v_n)
                try:
                    s_n, t_n = nehari_project(PairState(u_n, v_n), cp, grid)
                except (ConvergenceError, DegenerateInputError):
                    continue
                u_n *= s_n
                v_n *= t_n
                ints_n = pair_integrals(PairState(u_n, v_n), cp, grid)
                value_n = energy_from_integrals(ints_n, cp, params)
                # energy ties at roundoff must not block the residual contraction
                if (
                    value_n <= value + 1e-12 * abs(value)
                    and _pair_residual_norm(u_n, v_n, cp, grid) < res_ref
                ):
                    u, v, ints = u_n, v_n, ints_n
                    newton_accepted = True
                    break
            if newton_accepted:
                continue

        if prev is not None:
            du = PairState(u - prev[0], v - prev[1])
            dg = PairState(tg.u - prev[2].u, tg.v - prev[2].v)
            tau = _bb_step(pair_inner(du, du, grid), pair_inner(du, dg, grid), tau)
        if tau is None:
            tau = 1.0 / max(1.0, tg_norm)
        prev = (u.copy(), v.copy(), tg)

        accepted = False
        step = tau
        for _ in range(60):
            u_try = u - step * tg.u
            v_try = v - step * tg.v
            if opts.positivity_enforced:
                u_try = np.abs(u_try)
                v_try = np.abs(v_try)
            try:
                s_try, t_try = nehari_project(PairState(u_try, v_try), cp, grid)
            except (ConvergenceError, DegenerateInputError):
                step *= opts.armijo_backtrack
                continue
            ints_try = pair_integrals(PairState(s_try * u_try, t_try * v_try), cp, grid)
            value_try = energy_from_integrals(ints_try, cp, params)
            if value_try <= value - opts.armijo_slope * step * tg_sq:
                u = s_try * u_try
                v = t_try * v_try
                ints = ints_try
                tau = step
                accepted = True
                break
            step *= opts.armijo_backtrack
        if not accepted:
            message = "line search stalled"
            break
    else:
        # the last step moved the pair off the evaluated iterate
        pair = PairState(u, v)
        ints = pair_integrals(pair, cp, grid)
        tg, mult, g = tangent_gradient_full(pair, cp, grid)
        tg_norm = math.sqrt(max(pair_inner(tg, tg, grid), 0.0))
    full_norm = math.sqrt(max(pair_inner(g, g, grid), 0.0))
    if converged and full_norm > 10.0 * opts.grad_tol:
        converged = False
        message = "tangent gradient small but full gradient is not"
    return SolveResult(
        pair=pair,
        energy=energy_from_integrals(ints, cp, params),
        grad_norm=tg_norm,
        full_grad_norm=full_norm,
        iterations=k + 1,
        converged=converged,
        residuals=residuals_from_integrals(ints, cp),
        multipliers=mult,
        stats=stats,
        energy_trace=np.asarray(trace),
        message=message,
    )


def _single_tangent(u, mu, grid):
    """Gradient, constraint multiplier and tangential gradient for one component."""
    p = grid.params.two_star
    q = grid.weights
    force = mu * _crit_force(u, p)
    g = u - grid.solve_h1(q * force)
    gf = 2.0 * u - grid.solve_h1(q * p * force)
    coef = h1_form(g, gf, grid) / h1_form(gf, gf, grid)
    tg = g - coef * gf
    return g, tg, coef


def minimize_single(
    u_init: np.ndarray, mu: float, grid: ReducedGrid, opts: SolveOptions
) -> SolveResult:
    """Single-component mode: minimize over the one-constraint Nehari set."""
    params = grid.params
    p = params.two_star
    u = np.asarray(u_init, dtype=float).copy()
    floor = COLLAPSE_FRACTION * sobolev_lower_bound(mu, params.N)
    trace = []
    tau = None
    prev = None
    message = "max_iters exceeded"
    converged = False
    k = 0

    def state(x):
        return h1_form(x, x, grid), mu * integrate(np.abs(x) ** p, grid)

    for k in range(opts.max_iters):
        if opts.positivity_enforced:
            u = np.abs(u)
        u = single_project(u, mu, grid) * u
        a, b = state(u)
        if a < floor:
            raise CollapseError("profile collapsed", iteration=k, component="u")
        value = 0.5 * a - b / p
        trace.append(value)

        _g, tg, _coef = _single_tangent(u, mu, grid)
        tg_sq = h1_form(tg, tg, grid)
        tg_norm = math.sqrt(max(tg_sq, 0.0))
        if tg_norm <= opts.grad_tol:
            converged = True
            message = "tangent gradient below tolerance"
            break

        if prev is not None:
            du = u - prev[0]
            dg = tg - prev[1]
            tau = _bb_step(h1_form(du, du, grid), h1_form(du, dg, grid), tau)
        if tau is None:
            tau = 1.0 / max(1.0, tg_norm)
        prev = (u.copy(), tg)

        accepted = False
        step = tau
        for _ in range(60):
            u_try = u - step * tg
            if opts.positivity_enforced:
                u_try = np.abs(u_try)
            a_t, b_t = state(u_try)
            if a_t <= 0.0 or b_t <= 0.0:
                step *= opts.armijo_backtrack
                continue
            s_try = (a_t / b_t) ** (1.0 / (p - 2.0))
            value_try = 0.5 * s_try**2 * a_t - s_try**p * b_t / p
            if value_try <= value - opts.armijo_slope * step * tg_sq:
                u = s_try * u_try
                tau = step
                accepted = True
                break
            step *= opts.armijo_backtrack
        if not accepted:
            message = "line search stalled"
            break

    a, b = state(u)
    g, tg, coef = _single_tangent(u, mu, grid)
    tg_norm = math.sqrt(max(h1_form(tg, tg, grid), 0.0))
    full_norm = math.sqrt(max(h1_form(g, g, grid), 0.0))
    if converged and full_norm > 10.0 * opts.grad_tol:
        converged = False
        message = "tangent gradient small but full gradient is not"
    return SolveResult(
        pair=PairState(u, np.zeros_like(u)),
        energy=0.5 * a - b / p,
        grad_norm=tg_norm,
        full_grad_norm=full_norm,
        iterations=k + 1,
        converged=converged,
        residuals=NehariResiduals(f_val=a - b, h_val=0.0),
        multipliers=(coef, 0.0),
        stats=NehariInvariantStats(),
        energy_trace=np.asarray(trace),
        message=message,
    )


@dataclass
class LimitResult:
    w: np.ndarray
    energy: float
    grad_norm: float
    iterations: int
    converged: bool
    residuals: tuple
    energy_trace: np.ndarray
    message: str = ""


def _rescale_parts(w, cp, grid, floor_p, floor_m, iteration):
    p = grid.params.two_star
    wp = np.maximum(w, 0.0)
    wm = np.minimum(w, 0.0)
    ap = h1_form(wp, wp, grid)
    bp = cp.mu1 * integrate(wp**p, grid)
    am = h1_form(wm, wm, grid)
    bm = cp.mu2 * integrate((-wm) ** p, grid)
    if ap <= 0.0 or bp <= 0.0:
        raise CollapseError("positive part collapsed", iteration=iteration, component="w+")
    if am <= 0.0 or bm <= 0.0:
        raise CollapseError("negative part collapsed", iteration=iteration, component="w-")
    s = (ap / bp) ** (1.0 / (p - 2.0))
    t = (am / bm) ** (1.0 / (p - 2.0))
    # the norm floors apply to the rescaled (on-set) parts, not the raw split
    if s * s * ap < floor_p:
        raise CollapseError("positive part collapsed", iteration=iteration, component="w+")
    if t * t * am < floor_m:
        raise CollapseError("negative part collapsed", iteration=iteration, component="w-")
    return s * wp + t * wm


def _limit_tangent(w, cp, grid):
    """Preconditioned gradient of the limit energy and its tangential part."""
    p = grid.params.two_star
    q = grid.weights
    pos = w > 0.0
    neg = w < 0.0
    wp = np.maximum(w, 0.0)
    wm = np.minimum(w, 0.0)
    force = np.where(pos, cp.mu1, cp.mu2) * _crit_force(w, p)
    g = w - grid.solve_h1(q * force)
    gf_p = grid.solve_h1(
        np.where(pos, 2.0 * grid.apply_h1(wp), 0.0) - q * p * cp.mu1 * wp ** (p - 1.0)
    )
    gf_m = grid.solve_h1(
        np.where(neg, 2.0 * grid.apply_h1(wm), 0.0) - q * p * cp.mu2 * _crit_force(wm, p)
    )
    g11 = h1_form(gf_p, gf_p, grid)
    g12 = h1_form(gf_p, gf_m, grid)
    g22 = h1_form(gf_m, gf_m, grid)
    det = g11 * g22 - g12 * g12
    r1 = h1_form(g, gf_p, grid)
    r2 = h1_form(g, gf_m, grid)
    if det > 1e-14 * max(g11 * g22, 1e-300):
        c1 = (r1 * g22 - r2 * g12) / det
        c2 = (r2 * g11 - r1 * g12) / det
    else:
        c1 = c2 = 0.0
    return g, g - c1 * gf_p - c2 * gf_m


def minimize_limit(
    w_init: np.ndarray, cp: CouplingParams, grid: ReducedGrid, opts: SolveOptions
) -> LimitResult:
    """Minimize the sign-changing limit energy over profiles whose positive
    and negative parts each sit on their own Nehari set."""
    params = grid.params
    w = np.asarray(w_init, dtype=float).copy()
    if np.max(w) <= 0.0 or np.min(w) >= 0.0:
        raise DegenerateInputError("limit solve needs a sign-changing start")
    floor_p = COLLAPSE_FRACTION * sobolev_lower_bound(cp.mu1, params.N)
    floor_m = COLLAPSE_FRACTION * sobolev_lower_bound(cp.mu2, params.N)
    trace = []
    tau = None
    prev = None
    message = "max_iters exceeded"
    converged = False
    tg_norm = math.inf
    k = 0

    for k in range(opts.max_iters):
        w = _rescale_parts(w, cp, grid, floor_p, floor_m, k)
        value = limit_energy(w, cp, grid)
        trace.append(value)

        _g, tg = _limit_tangent(w, cp, grid)
        tg_sq = h1_form(tg, tg, grid)
        tg_norm = math.sqrt(max(tg_sq, 0.0))
        if tg_norm <= opts.grad_tol:
            converged = True
            message = "tangent gradient below tolerance"
            break

        direction, res_norm = _limit_newton_direction(w, cp, grid)
        if direction is not None:
            try:
                w_n = _rescale_parts(w + direction, cp, grid, 0.0, 0.0, k)
            except (CollapseError, DegenerateInputError):
                w_n = None
            if w_n is not None:
                value_n = limit_energy(w_n, cp, grid)
                if (
                    value_n <= value + 1e-12 * abs(value)
                    and _limit_residual_norm(w_n, cp, grid) < 0.99 * res_norm
                ):
                    w = w_n
                    continue

        if prev is not None:
            du = w - prev[0]
            dg = tg - prev[1]
            tau = _bb_step(h1_form(du, du, grid), h1_form(du, dg, grid), tau)
        if tau is None:
            tau = 1.0 / max(1.0, tg_norm)
        prev = (w.copy(), tg)

        accepted = False
        step = tau
        for _ in range(60):
            try:
                w_try = _rescale_parts(w - step * tg, cp, grid, 0.0, 0.0, k)
            except (CollapseError, DegenerateInputError):
                step *= opts.armijo_backtrack
                continue
            value_try = limit_energy(w_try, cp, grid)
            if value_try <= value - opts.armijo_slope * step * tg_sq:
                w = w_try
                tau = step
                accepted = True
                break
            step *= opts.armijo_backtrack
        if not accepted:
            message = "line search stalled"
            break

    w = _rescale_parts(w, cp, grid, 0.0, 0.0, k)
    return LimitResult(
        w=w,
        energy=limit_energy(w, cp, grid),
        grad_norm=tg_norm,
        iterations=k + 1,
        converged=converged,
        residuals=limit_residuals(w, cp, grid),
        energy_trace=np.asarray(trace),
        message=message,
    )


def _smooth_bump(x):
    out = np.zeros_like(x)
    inside = np.abs(x) < 1.0
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - x[inside] ** 2))
    return out


def initial_guess(kind: str, grid: ReducedGrid, seed: int = 0) -> PairState:
    """Deterministic starting pairs: 'bumps', 'constants_split' or 'random'.

    'bumps' places disjointly supported caps near the two ends of the arc,
    so the overlap integral of the pair is exactly zero.
    """
    theta = grid.theta
    if kind == "bumps":
        width = 0.35 * HALF_PI
        u = _smooth_bump(theta / width)
        v = _smooth_bump((HALF_PI - theta) / width)
    elif kind == "constants_split":
        u = 0.5 * (1.0 - np.tanh((theta - 0.5 * HALF_PI) / (0.15 * HALF_PI)))
        v = 0.5 * (1.0 + np.tanh((theta - 0.5 * HALF_PI) / (0.15 * HALF_PI)))
    elif kind == "random":
        rng = np.random.default_rng(seed)

        def smooth_positive():
            coef = rng.normal(0.0, 0.4, size=6)
            acc = np.zeros_like(theta)
            for j, cj in enumerate(coef, start=1):
                acc += cj * np.cos(2.0 * j * theta) / j
            return np.exp(acc)

        u = smooth_positive()
        v = smooth_positive()
    else:
        raise DomainError(f"unknown initial guess kind {kind!r}")
    return PairState(u=u, v=v)
