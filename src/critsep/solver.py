"""Constrained minimization on the discrete Nehari sets.

One descent driver, ``_descend``, solves the paper's three problems: the
pair on the invariant Nehari set (``_Pair``, ``minimize_nehari``), one
component on its Nehari set, the level of the strict level gap (``_Single``,
``minimize_single``), and the sign-changing limit problem whose positive
and negative parts sit on their own Nehari sets (``_Limit``,
``minimize_limit``).

A state is a tuple of per-component arrays.  A problem object lands a state
on its constraint set and checks the norm floors (``land(x, at, k)`` returns
the landed state, what was computed there and the energy), evaluates the
tangent gradient, i.e. the H^1-preconditioned energy gradient minus its part
along the constraint gradients (``evaluate(x, at)``), lands a trial state
(``trial(x)``), and may offer a Newton direction for the free critical
equations (``newton(x, ev)``) with the residual its candidate must contract
(``residual_norm(x)``).  The driver lands the iterate, stops when the
tangent gradient is small, tries the Newton candidate and otherwise takes a
Barzilai-Borwein step, backtracked until the Armijo condition holds for the
energy of the landed trial, so accepted energies never increase.  The pair
and single solves also require a small full gradient at convergence, which
certifies a free critical point (the multiplier solve returns ~0).

Inequalities that hold on the continuous Nehari set are monitored on every
landed pair and summarized in the result: the energy identity
E = (a1+a2)/N, the per-component norm floors, and the positivity margin of
the 2x2 scaling Hessian determinant.
"""

import math
from collections import deque
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded

from .errors import CollapseError, ConvergenceError, DegenerateInputError, DomainError
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


def _bb_step(dx_sq, dx_dg, fallback):
    if dx_dg > 0.0 and np.isfinite(dx_dg):
        return min(max(dx_sq / dx_dg, 1e-12), 1e3)
    return fallback


def _inner(x, y, grid):
    """H^1 inner product of two states (tuples of component arrays)."""
    return sum(h1_form(a, b, grid) for a, b in zip(x, y))


def _norm(x, grid):
    return math.sqrt(max(_inner(x, x, grid), 0.0))


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
    region.  The driver damps the step: it tries the lengths NEWTON_STEPS
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


def _limit_force(w, cp, p):
    """The weight (mu1 where w > 0, mu2 elsewhere) and the limit force mu sign(w)|w|^(2*-1)."""
    mu = np.where(w > 0.0, cp.mu1, cp.mu2)
    return mu, mu * _crit_force(w, p)


def _limit_residual(w, cp, grid):
    """The weight mu and the nodal residual K w - q mu f(w) of the limit equation."""
    mu, force = _limit_force(w, cp, grid.params.two_star)
    return mu, grid.apply_h1(w) - grid.weights * force


def _limit_newton_direction(w, cp, grid):
    """Newton direction (a one-component state) for the limit equation, and the residual norm."""
    p = grid.params.two_star
    q = grid.weights
    mu, res = _limit_residual(w, cp, grid)
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
    return (sol,), float(np.linalg.norm(res))


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
    _mu, force = _limit_force(w, cp, p)
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


# ------------------------------------------------------------- problems


class _Pair:
    """The pair (u, v) on the invariant Nehari set."""

    newton_steps = NEWTON_STEPS
    residual_window = RESIDUAL_WINDOW

    def __init__(self, cp, grid, positive):
        self.cp, self.grid, self.positive = cp, grid, positive
        self.floor_u = COLLAPSE_FRACTION * sobolev_lower_bound(cp.mu1, grid.params.N)
        self.floor_v = COLLAPSE_FRACTION * sobolev_lower_bound(cp.mu2, grid.params.N)
        self.stats = NehariInvariantStats()

    def land(self, x, ints, k):
        x, ints, value = self.trial(x, ints)
        if ints.a1 < self.floor_u or ints.a2 < self.floor_v:
            which = "u" if ints.a1 < self.floor_u else "v"
            raise CollapseError("a component collapsed during the solve", iteration=k, component=which)
        self.stats.update(ints, value, self.cp, self.grid.params)
        return x, ints, value

    def evaluate(self, x, ints):
        forces = pair_forces(PairState(*x), self.cp, self.grid)
        tg, mult, g = tangent_gradient_full(PairState(*x), self.cp, self.grid, forces)
        return (tg.u, tg.v), (forces, mult, (g.u, g.v), ints)

    def trial(self, x, ints=None):
        # a landed pair is nonnegative already, so handed integrals stay valid
        u, v = (np.abs(c) for c in x) if self.positive else x
        s, t = nehari_project(PairState(u, v), self.cp, self.grid, ints=ints)
        pair = PairState(s * u, t * v)
        ints = pair_integrals(pair, self.cp, self.grid)
        return (pair.u, pair.v), ints, energy_from_integrals(ints, self.cp, self.grid.params)

    def newton(self, x, ev):
        return _pair_newton_direction(x[0], x[1], self.cp, self.grid, ev[0])

    def residual_norm(self, x):
        forces = pair_forces(PairState(*x), self.cp, self.grid)
        return math.hypot(*map(np.linalg.norm, _pair_residual(*x, forces, self.grid)))


class _Single:
    """One component u on the one-constraint Nehari set; no Newton candidate."""

    residual_window = 1

    def __init__(self, mu, grid, positive):
        self.mu, self.grid, self.positive = mu, grid, positive
        self.p = grid.params.two_star
        self.floor = COLLAPSE_FRACTION * sobolev_lower_bound(mu, grid.params.N)

    def _norms(self, u):
        return h1_form(u, u, self.grid), self.mu * integrate(np.abs(u) ** self.p, self.grid)

    def land(self, x, at, k):
        u = np.abs(x[0]) if self.positive else x[0]
        u = single_project(u, self.mu, self.grid) * u
        a, b = self._norms(u)
        if a < self.floor:
            raise CollapseError("profile collapsed", iteration=k, component="u")
        return (u,), (a, b), 0.5 * a - b / self.p

    def evaluate(self, x, at):
        """Tangent gradient; the gradient, multiplier and norms for the result."""
        (u,), grid, q = x, self.grid, self.grid.weights
        a, b = at if at is not None else self._norms(u)
        force = self.mu * _crit_force(u, self.p)
        g = u - grid.solve_h1(q * force)
        gf = 2.0 * u - grid.solve_h1(q * self.p * force)
        coef = h1_form(g, gf, grid) / h1_form(gf, gf, grid)
        return (g - coef * gf,), ((g,), coef, a, b)

    def trial(self, x):
        u = np.abs(x[0]) if self.positive else x[0]
        a, b = self._norms(u)
        if a <= 0.0 or b <= 0.0:
            return None
        s = (a / b) ** (1.0 / (self.p - 2.0))
        return (s * u,), None, 0.5 * s**2 * a - s**self.p * b / self.p

    def newton(self, x, ev):
        return None, math.inf


class _Limit:
    """The sign-changing profile w whose parts sit on their own Nehari sets."""

    newton_steps = (1.0,)  # the undamped step against the current residual
    residual_window = 1

    def __init__(self, cp, grid):
        self.cp, self.grid = cp, grid
        self.floor_p = COLLAPSE_FRACTION * sobolev_lower_bound(cp.mu1, grid.params.N)
        self.floor_m = COLLAPSE_FRACTION * sobolev_lower_bound(cp.mu2, grid.params.N)

    def land(self, x, at, k):
        w = _rescale_parts(x[0], self.cp, self.grid, self.floor_p, self.floor_m, k)
        return (w,), None, limit_energy(w, self.cp, self.grid)

    def evaluate(self, x, at):
        _g, tg = _limit_tangent(x[0], self.cp, self.grid)
        return (tg,), None

    def trial(self, x):
        w = _rescale_parts(x[0], self.cp, self.grid, 0.0, 0.0, None)
        return (w,), None, limit_energy(w, self.cp, self.grid)

    def newton(self, x, ev):
        return _limit_newton_direction(x[0], self.cp, self.grid)

    def residual_norm(self, x):
        return float(np.linalg.norm(_limit_residual(x[0], self.cp, self.grid)[1]))


# --------------------------------------------------------------- driver


@dataclass
class _Run:
    x: tuple          # the final iterate
    ev: object        # the problem's evaluation at x
    grad_norm: float  # H^1 norm of the tangent gradient at x
    iterations: int
    converged: bool
    message: str
    trace: list       # energy of each landed iterate


def _attempt(problem, x):
    """The landed trial of x, or None when x cannot be landed."""
    try:
        return problem.trial(x)
    except (CollapseError, ConvergenceError, DegenerateInputError):
        return None


def _newton_trial(problem, x, direction, value, res_ref):
    """The first damped Newton trial that keeps the energy and contracts the residual."""
    for length in problem.newton_steps:
        trial = _attempt(problem, tuple(c + length * d for c, d in zip(x, direction)))
        # energy ties at roundoff must not block the residual contraction
        if (
            trial is not None
            and trial[2] <= value + 1e-12 * abs(value)
            and problem.residual_norm(trial[0]) < res_ref
        ):
            return trial
    return None


def _descend(problem, x, opts):
    """Constrained descent from the state x; see the module docstring.

    Each iterate is evaluated once: the evaluation feeds the convergence
    test, the Newton direction and the gradient step, what an accepted trial
    computed is handed to the next landing, and a solve that stops inside
    the loop returns the evaluation it stopped at.
    """
    if not all(np.isfinite(c).all() for c in x):
        raise DegenerateInputError("initial profiles must be finite")
    grid = problem.grid
    trace = []
    tau = prev = at = None  # BB length, previous (iterate, tangent), handed-over data
    recent_res = deque(maxlen=problem.residual_window)
    converged, message = False, "max_iters exceeded"

    for k in range(opts.max_iters):
        x, at, value = problem.land(x, at, k)
        trace.append(value)
        tg, ev = problem.evaluate(x, at)
        tg_sq = _inner(tg, tg, grid)
        tg_norm = math.sqrt(max(tg_sq, 0.0))
        if tg_norm <= opts.grad_tol:
            converged, message = True, "tangent gradient below tolerance"
            break

        # Newton candidate for the free critical equations: the first of the
        # problem's step lengths whose landed trial keeps the energy
        # nonincreasing and brings the residual below 0.99 times the largest
        # of the last residual_window residual norms (with a window above 1,
        # the nonmonotone rule of Grippo, Lampariello and Lucidi, 1986).  The
        # energy trace stays monotone, the residual may rise for a few steps,
        # and late-stage convergence stops scaling with |lambda|.
        direction, res_norm = problem.newton(x, ev)
        if direction is not None:
            recent_res.append(res_norm)
            trial = _newton_trial(problem, x, direction, value, 0.99 * max(recent_res))
            if trial is not None:
                x, at, _ = trial
                continue

        if prev is not None:
            dx = tuple(a - b for a, b in zip(x, prev[0]))
            dg = tuple(a - b for a, b in zip(tg, prev[1]))
            tau = _bb_step(_inner(dx, dx, grid), _inner(dx, dg, grid), tau)
        if tau is None:
            tau = 1.0 / max(1.0, tg_norm)
        prev = (x, tg)

        step = tau
        for _ in range(60):
            trial = _attempt(problem, tuple(c - step * d for c, d in zip(x, tg)))
            if trial is not None and trial[2] <= value - opts.armijo_slope * step * tg_sq:
                x, at, _ = trial
                tau = step
                break
            step *= opts.armijo_backtrack
        else:
            message = "line search stalled"
            break
    else:
        # the last step moved the iterate off the evaluated one
        tg, ev = problem.evaluate(x, at)
        tg_norm = _norm(tg, grid)
    return _Run(x, ev, tg_norm, k + 1, converged, message, trace)


# ------------------------------------------------------------ public API


def _solve_result(run, g, grid, opts, **fields):
    """SolveResult of a pair or single run; a large full gradient demotes convergence."""
    full_norm = _norm(g, grid)
    converged, message = run.converged, run.message
    if converged and full_norm > 10.0 * opts.grad_tol:
        converged, message = False, "tangent gradient small but full gradient is not"
    return SolveResult(
        grad_norm=run.grad_norm,
        full_grad_norm=full_norm,
        iterations=run.iterations,
        converged=converged,
        energy_trace=np.asarray(run.trace),
        message=message,
        **fields,
    )


def minimize_nehari(
    init: PairState, cp: CouplingParams, grid: ReducedGrid, opts: SolveOptions
) -> SolveResult:
    """Energy minimization over the discrete invariant Nehari set."""
    if cp.lam >= 0.0:
        raise DomainError(f"competitive solve requires lambda < 0, got {cp.lam}")
    check_exponents(cp, grid.params)
    problem = _Pair(cp, grid, opts.positivity_enforced)
    x = (np.asarray(init.u, dtype=float), np.asarray(init.v, dtype=float))
    run = _descend(problem, x, opts)
    _forces, mult, g, ints = run.ev
    return _solve_result(
        run, g, grid, opts,
        pair=PairState(*run.x),
        energy=energy_from_integrals(ints, cp, grid.params),
        residuals=residuals_from_integrals(ints, cp),
        multipliers=mult,
        stats=problem.stats,
    )


def minimize_single(
    u_init: np.ndarray, mu: float, grid: ReducedGrid, opts: SolveOptions
) -> SolveResult:
    """Single-component mode: minimize over the one-constraint Nehari set."""
    problem = _Single(mu, grid, opts.positivity_enforced)
    run = _descend(problem, (np.asarray(u_init, dtype=float),), opts)
    (u,) = run.x
    g, coef, a, b = run.ev
    return _solve_result(
        run, g, grid, opts,
        pair=PairState(u, np.zeros_like(u)),
        energy=0.5 * a - b / grid.params.two_star,
        residuals=NehariResiduals(f_val=a - b, h_val=0.0),
        multipliers=(coef, 0.0),
        stats=NehariInvariantStats(),
    )


def minimize_limit(
    w_init: np.ndarray, cp: CouplingParams, grid: ReducedGrid, opts: SolveOptions
) -> LimitResult:
    """Minimize the sign-changing limit energy over profiles whose positive
    and negative parts each sit on their own Nehari set.  The returned w is
    the final iterate rescaled once more; its tangent norm is taken there."""
    w = np.asarray(w_init, dtype=float)
    if np.max(w) <= 0.0 or np.min(w) >= 0.0:
        raise DegenerateInputError("limit solve needs a sign-changing start")
    run = _descend(_Limit(cp, grid), (w,), opts)
    w = _rescale_parts(run.x[0], cp, grid, 0.0, 0.0, run.iterations - 1)
    _g, tg = _limit_tangent(w, cp, grid)
    return LimitResult(
        w=w,
        energy=limit_energy(w, cp, grid),
        grad_norm=_norm((tg,), grid),
        iterations=run.iterations,
        converged=run.converged,
        residuals=limit_residuals(w, cp, grid),
        energy_trace=np.asarray(run.trace),
        message=run.message,
    )


def _smooth_bump(x):
    out = np.zeros_like(x)
    inside = np.abs(x) < 1.0
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - x[inside] ** 2))
    return out


def initial_guess(kind: str, grid: ReducedGrid, seed: int = 0) -> PairState:
    """Deterministic starting pairs: 'bumps', 'constants_split' or 'random'.

    'bumps' places disjointly supported caps near the two ends of the arc,
    so the overlap integral of the pair is exactly zero.  'random' suits the
    single and limit solves only: its two positive profiles overlap
    everywhere, and the pair solve raises ConvergenceError from them.
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
