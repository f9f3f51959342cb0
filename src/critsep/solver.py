"""Constrained minimization on the discrete Nehari sets.

One descent driver, ``_descend``, solves the paper's three problems: the
pair on the invariant Nehari set (``_Pair``, ``minimize_nehari``), one
component on its Nehari set, the level of the strict level gap (``_Single``,
``minimize_single``), and the sign-changing limit problem whose positive
and negative parts sit on their own Nehari sets (``_Limit``,
``minimize_limit``).  The formulas they are built from live in ``functional``;
this module keeps the driver, the problems, the Newton directions (the
pair's, and the free and the constrained one of the limit) and the branch
tangent of the pair (``pair_tangent``), which shares the pair's
Newton matrix, and that matrix's storage: one work array a grid size,
refilled at each Newton step and each tangent.  It also keeps the starts of
a pair solve: ``initial_guess`` and the nested ``cold_start``, a coarse
solve prolonged.

A state is a ``PairState`` or a one-tuple of one component array, and
``functional.pair_inner`` is the H^1 inner product of two states.  A problem
object lands a state on its constraint set and checks the norm floors
(``land(x, at, value)`` returns the landed state, what was computed there
and the energy; the start comes with ``at`` and ``value`` None, and an
accepted trial, handed over with its integrals or norms and its energy, is
taken as it is), evaluates the tangent gradient, i.e. the
H^1-preconditioned energy gradient minus its part along the constraint
gradients (``evaluate(x, at)``), lands a trial state (``trial(x)``), and
offers Newton directions in the order they are to be tried, with the
residual norm at x that their trials must contract (``newton(x, ev)``
returns the norm, None when nothing is offered, and the directions) and the
residual of a trial (``residual_norm(x, at)``).  The pair offers its Newton
direction for the free critical equations and the single component none.
The limit offers its free Newton direction and then, computed only when
that is rejected, the Lagrange-Newton (SQP) direction on its two
constraints; its residual is the H^1 norm of the tangent gradient.  The
pair's residual test evaluates the pointwise kernel and the nodal residual
at the trial, the limit's its whole evaluation; each adds it to the trial's
``at``, so an accepted Newton trial hands it to the next ``evaluate`` and
``newton`` and each landed state is evaluated once.  ``_descend`` lands the
iterate, stops when the tangent gradient is small, tries the Newton
candidates and otherwise takes a Barzilai-Borwein step, backtracked until
the Armijo condition holds for the energy of the landed trial, so accepted
energies never increase.
The pair and single solves also require a small full gradient at
convergence, which certifies a free critical point (the multiplier solve
returns ~0); small means below 10 grad_tol or below the rounding floor of
the discrete full gradient (``FULL_GRAD_FLOOR``).

Inequalities that hold on the continuous Nehari set are monitored on every
landed pair and summarized in the result: the energy identity
E = (a1+a2)/N, the per-component norm floors, and the positivity margin of
the 2x2 scaling Hessian determinant.
"""

import functools
import math
from collections import deque
from dataclasses import dataclass, replace

import numpy as np

from .errors import (CollapseError, ConvergenceError, DegenerateConstraintError,
                     DegenerateInputError, DomainError)
from .functional import (
    CouplingParams,
    NehariResiduals,
    PairState,
    _crit_force,
    _limit_force,
    _limit_residual,
    _limit_tangent_full,
    _ray,
    _rescale_parts,
    check_exponents,
    energy_from_integrals,
    limit_energy,
    limit_residuals,
    nehari_det,
    nehari_det_bound,
    nehari_project,
    pair_forces,
    pair_inner,
    pair_integrals,
    residuals_from_integrals,
    sobolev_lower_bound,
    tangent_gradient_full,
    tangent_part,
)
from .geometry import HALF_PI, ReducedGrid, build_grid, lapack, prolong

__all__ = [
    "LimitResult",
    "NehariInvariantStats",
    "SolveOptions",
    "SolveResult",
    "cold_start",
    "initial_guess",
    "minimize_limit",
    "minimize_nehari",
    "minimize_single",
    "pair_tangent",
]

# a trial that raises one of these is not landed; a solve that does fails
SOLVE_ERRORS = (CollapseError, ConvergenceError, DegenerateInputError, DegenerateConstraintError)
COLLAPSE_FRACTION = 0.1  # component is lost below this fraction of its norm floor
NEWTON_STEPS = (1.0, 0.5, 0.25, 0.125, 0.0625)  # damped lengths of the pair Newton step
ARMIJO_SLOPE = 1e-4  # sufficient-decrease fraction of the gradient step
ARMIJO_BACKTRACK = 0.5  # step factor of each Armijo backtrack
RESIDUAL_WINDOW = 5  # the Newton residual test compares against this many past norms
# A cold pair solve on M cells starts from a solve on M // NESTED_FACTOR cells
# when that grid has at least NESTED_FLOOR cells, stopped at the tangent norm
# max(grad_tol, NESTED_TOL); on 128 cells the interface layer is not resolved
NESTED_FACTOR = 16
NESTED_FLOOR = 256
NESTED_TOL = 0.1
# The discrete full gradient u - K^{-1} q f(u) of a critical point is not 0
# but the rounding of the H^1 solve, which grows with the grid.  Over the
# single-component solves of every split N = 4..8 (mu 1 and 2.5, bumps and
# random starts, M = 128, 512 and 2048, grad_tol down to 1e-13) it reached
# 0.34 eps M^1.5 |x|_{H^1}; a full gradient below this multiple of that
# scale does not demote a converged solve.
FULL_GRAD_FLOOR = 1.0


@dataclass(frozen=True)
class SolveOptions:
    max_iters: int = 20000
    grad_tol: float = 1e-6          # absolute, on the H^1 norm of the tangent gradient

    def __post_init__(self):
        if self.max_iters < 1:
            raise DomainError(f"max_iters must be at least 1, got {self.max_iters}")
        if not (math.isfinite(self.grad_tol) and self.grad_tol > 0.0):
            raise DomainError(f"grad_tol must be finite and positive, got {self.grad_tol}")


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
            self.min_det_ratio = min(
                self.min_det_ratio,
                nehari_det(ints, cp, params) / nehari_det_bound(ints, cp, params),
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
    multipliers: tuple  # (sigma+, sigma-) of the tangent projection at w
    energy_trace: np.ndarray
    message: str = ""


def _bb_step(dx_sq, dx_dg, fallback):
    if dx_dg > 0.0 and np.isfinite(dx_dg):
        return min(max(dx_sq / dx_dg, 1e-12), 1e3)
    return fallback


def _norm(x, grid):
    return math.sqrt(max(pair_inner(x, x, grid), 0.0))


def _safe_pow(x, e):
    """|x|^e with the convention 0^e = 0 also for negative e."""
    ax = np.abs(x)
    if e >= 0.0:
        return ax**e
    out = np.zeros_like(ax)
    nz = ax > 0.0
    out[nz] = ax[nz] ** e
    return out


def solve_banded(l_and_u, ab, rhs):
    """Solve the banded system A x = rhs by LAPACK's ``gbsv``; ab and rhs are overwritten.

    ``ab`` is the (2l + u + 1, n) band storage in Fortran order
    (``ab[l + u + i - j, j] == A[i, j]``, the first l rows zero for the fill
    of the LU), factored in place with partial pivoting.  A non-finite
    matrix or right-hand side raises ValueError, a singular matrix
    LinAlgError.
    """
    if not (np.isfinite(ab).all() and np.isfinite(rhs).all()):
        raise ValueError("array must not contain infs or NaNs")
    _lu, _piv, x, info = lapack.dgbsv(*l_and_u, ab, rhs, overwrite_ab=1, overwrite_b=1)
    if info > 0:
        raise np.linalg.LinAlgError("singular matrix")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of the LAPACK solve")
    return x


def _pair_residual(u, v, f, grid):
    """Nodal residuals K u - q f_u and K v - q f_v of the free critical equations."""
    q = grid.weights
    return grid.apply_h1(u) - q * f.force_u, grid.apply_h1(v) - q * f.force_v


@functools.lru_cache(maxsize=2)  # the coarse and the fine grid of a nested start
def _pair_band(size):
    """The (7, 2 * size) Fortran-order work array of the pair Newton matrix.

    One array a grid size, shared by every pair solve and tangent on grids
    of that size: each use overwrites it whole, and no two run at once.
    Allocating it afresh each time would map and fault in new pages
    (229 KB at M = 2048) on every pair solve.
    """
    return np.empty((7, 2 * size), order="F")


def _pair_jacobian_solve(cp, grid, f, rhs_u, rhs_v):
    """Solve J (du, dv) = (rhs_u, rhs_v) for the Jacobian J of the free critical equations.

    J is the derivative of (K u - q f_u, K v - q f_v) in (u, v), a
    pentadiagonal matrix in the interleaved ordering (u_0, v_0, u_1, v_1,
    ...); one banded solve gives the solution, or None when J is singular or
    the solution is not finite.  ``f`` is the pointwise kernel
    ``pair_forces`` at (u, v): the forces and the first-derivative powers are
    read from it, and only the second derivatives of the powers are computed
    here.  J is written into the work array of the grid's size
    (``_pair_band``), which ``solve_banded`` overwrites with its LU factor.
    """
    p = grid.params.two_star
    q = grid.weights
    lam, al, be = cp.lam, cp.alpha, cp.beta
    duu = cp.mu1 * (p - 1.0) * f.abs_u ** (p - 2.0) + lam * al * (al - 1.0) * _safe_pow(f.abs_u, al - 2.0) * f.v_b
    dvv = cp.mu2 * (p - 1.0) * f.abs_v ** (p - 2.0) + lam * be * (be - 1.0) * f.u_a * _safe_pow(f.abs_v, be - 2.0)
    duv = lam * al * be * f.sign_u * f.sign_v * f.u_am1 * f.v_bm1
    # rows 2..6 of the gbsv layout hold the five bands, 0 and 1 the LU fill;
    # u_i couples to u_(i+1), and v_i to v_(i+1), two places off the diagonal
    ab = _pair_band(grid.size)
    ab.fill(0.0)
    ab[2, 2::2] = ab[2, 3::2] = grid.k_off
    ab[6, 0:-2:2] = ab[6, 1:-2:2] = grid.k_off
    ab[3, 1::2] = ab[5, 0::2] = -q * duv
    ab[4, 0::2] = grid.k_diag - q * duu
    ab[4, 1::2] = grid.k_diag - q * dvv
    rhs = np.empty(2 * grid.size)
    rhs[0::2] = rhs_u
    rhs[1::2] = rhs_v
    try:
        sol = solve_banded((2, 2), ab, rhs)
    except np.linalg.LinAlgError:
        return None
    if not np.isfinite(sol).all():
        return None
    return sol[0::2], sol[1::2]


def _pair_newton_direction(u, v, cp, grid, f, res=None):
    """Newton direction for the free critical equations of the pair.

    Used as an accelerator once the descent is in the right basin: the
    first-order scheme alone needs O(|lambda|) iterations because the
    coupling term dominates the curvature in the overlap region.  The driver
    damps the step: it tries the lengths NEWTON_STEPS in turn, because in
    the thin interface layer of strong coupling the full step overshoots.
    Returns the direction and the residual norm at (u, v).

    ``f`` is ``pair_forces`` at (u, v), ``res`` ``_pair_residual`` at
    (u, v) when the caller has it.
    """
    res_u, res_v = res if res is not None else _pair_residual(u, v, f, grid)
    direction = _pair_jacobian_solve(cp, grid, f, -res_u, -res_v)
    if direction is None:
        return None, math.inf
    return direction, math.hypot(np.linalg.norm(res_u), np.linalg.norm(res_v))


def pair_tangent(pair: PairState, cp: CouplingParams, grid: ReducedGrid):
    """The branch tangent d(u, v)/d lambda at a free critical point of the pair, or None.

    With f_u = mu1 crit_u + lambda mixed_u, the lambda-derivative of
    K u - q f_u = 0 and K v - q f_v = 0 along the branch is
    J (du, dv) = q (mixed_u, mixed_v), with the Newton matrix J of the
    point: one banded solve.  None when J is singular or the tangent is not
    finite.
    """
    f = pair_forces(pair, cp, grid)
    q = grid.weights
    return _pair_jacobian_solve(cp, grid, f, q * f.mixed_u, q * f.mixed_v)


def _limit_force_slope(w, mu, p):
    """The derivative mu (2*-1)|w|^(2*-2) of the limit force in w."""
    return mu * (p - 1.0) * np.abs(w) ** (p - 2.0)


def _limit_newton_direction(w, grid, mu, force, res=None):
    """Newton direction (a one-component state) for the free limit equation, or None.

    ``mu`` and ``force`` are ``_limit_force`` at w, ``res`` is
    ``_limit_residual`` at w when the caller has it.  The Jacobian is
    tridiagonal: one ``gtsv`` solve with partial pivoting, None when it is
    singular or the solution is not finite.
    """
    p = grid.params.two_star
    if res is None:
        res = _limit_residual(w, force, grid)
    dww = _limit_force_slope(w, mu, p)
    *_, sol, info = lapack.dgtsv(grid.k_off, grid.k_diag - grid.weights * dww, grid.k_off, -res,
                                 overwrite_d=1, overwrite_b=1)
    if info != 0 or not np.isfinite(sol).all():
        return None
    return (sol,)


def _limit_kkt_direction(w, cp, grid, mu, res, mult, grads):
    """Lagrange-Newton (SQP) direction on the two Nehari constraints of the limit, or None.

    With the Euclidean gradient ``res`` of the energy, the multipliers
    ``mult`` = (sigma+, sigma-) of the tangent projection and the Euclidean
    constraint gradients ``grads`` (the rows of C), the Lagrangian Hessian is
    H_L = K - q mu (2*-1)|w|^(2*-2) - sum_i sigma_i (2 P_i K P_i - q 2*(2*-1) mu_i |w_i|^(2*-2)),
    tridiagonal, P+ and P- masking the nodes where w > 0 and w < 0.  One
    ``gtsv`` solve gives y0 = -H_L^{-1} (res - sigma . grads) and
    Y = H_L^{-1} C^T; with nu from (C Y) nu = C y0 + G, G the Nehari residuals
    of the parts, the step d = y0 - Y nu satisfies C d = -G (Nocedal and
    Wright, Numerical Optimization, 2nd ed. 2006, ch. 18).  None when a
    solve is singular or the step is not finite.
    """
    p = grid.params.two_star
    q = grid.weights
    sign = np.sign(w)
    sigma = np.where(w > 0.0, mult[0], np.where(w < 0.0, mult[1], 0.0))
    dww = _limit_force_slope(w, mu, p)
    diag = grid.k_diag * (1.0 - 2.0 * sigma) - q * dww * (1.0 - p * sigma)
    # P_i K P_i couples two nodes only where both lie on the same side
    off = grid.k_off * (1.0 - 2.0 * np.where(sign[:-1] == sign[1:], sigma[:-1], 0.0))
    rhs = np.empty((grid.size, 3), order="F")
    rhs[:, 0] = mult[0] * grads[0] + mult[1] * grads[1] - res
    rhs[:, 1], rhs[:, 2] = grads
    *_, sol, info = lapack.dgtsv(off, diag, off.copy(), rhs,
                                 overwrite_dl=1, overwrite_d=1, overwrite_du=1, overwrite_b=1)
    if info != 0 or not np.isfinite(sol).all():
        return None
    cy = np.array(grads) @ sol
    try:
        nu = np.linalg.solve(cy[:, 1:], cy[:, 0] + limit_residuals(w, cp, grid))
    except np.linalg.LinAlgError:
        return None
    d = sol[:, 0] - sol[:, 1:] @ nu
    return (d,) if np.isfinite(d).all() else None


def _collapse_floor(mu, N):
    """The squared H^1 norm below which a landed component counts as lost."""
    return COLLAPSE_FRACTION * sobolev_lower_bound(mu, N)


# ------------------------------------------------------------- problems


class _Pair:
    """The pair (u, v) on the invariant Nehari set; a trial lands (|u|, |v|)."""

    newton_steps = NEWTON_STEPS
    residual_window = RESIDUAL_WINDOW

    def __init__(self, cp, grid):
        self.cp, self.grid = cp, grid
        self.floor_u = _collapse_floor(cp.mu1, grid.params.N)
        self.floor_v = _collapse_floor(cp.mu2, grid.params.N)
        self.stats = NehariInvariantStats()

    def land(self, x, at, value):
        # an accepted trial arrives projected, with at = (integrals, kernel,
        # residual); the last two are None unless a Newton residual test
        # evaluated them
        if at is None:
            x, at, value = self.trial(x)
        ints = at[0]
        if ints.a1 < self.floor_u or ints.a2 < self.floor_v:
            raise CollapseError(f"component {'u' if ints.a1 < self.floor_u else 'v'} collapsed")
        self.stats.update(ints, value, self.cp, self.grid.params)
        return x, at, value

    def evaluate(self, x, at):
        ints, forces, res = at
        if forces is None:
            forces = pair_forces(x, self.cp, self.grid)
        tg, mult, g = tangent_gradient_full(x, self.cp, self.grid, forces)
        return tg, (forces, res, mult, g, ints)

    def trial(self, x):
        u, v = (np.abs(c) for c in x)
        s, t = nehari_project(PairState(u, v), self.cp, self.grid)
        pair = PairState(s * u, t * v)
        ints = pair_integrals(pair, self.cp, self.grid)
        value = energy_from_integrals(ints, self.cp, self.grid.params)
        return pair, (ints, None, None), value

    def newton(self, x, ev):
        direction, res_norm = _pair_newton_direction(*x, self.cp, self.grid, ev[0], ev[1])
        return (None, ()) if direction is None else (res_norm, (direction,))

    def residual_norm(self, x, at):
        forces = pair_forces(x, self.cp, self.grid)
        res = _pair_residual(*x, forces, self.grid)
        return math.hypot(*map(np.linalg.norm, res)), (at[0], forces, res)


class _Single:
    """One component u on the one-constraint Nehari set, landed as |u|; no Newton candidate."""

    residual_window = 1

    def __init__(self, mu, grid):
        self.mu, self.grid = mu, grid
        self.p = grid.params.two_star
        self.floor = _collapse_floor(mu, grid.params.N)

    def land(self, x, at, value):
        # an accepted trial arrives scaled, with at = (a, b) of the scaled profile
        if at is None:
            x, at, value = self.trial(x)
        if at[0] < self.floor:
            raise CollapseError("component u collapsed")
        return x, at, value

    def evaluate(self, x, at):
        """Tangent gradient; the gradient, multiplier and norms for the result."""
        (u,), (a, b), grid, q = x, at, self.grid, self.grid.weights
        force = self.mu * _crit_force(u, self.p)
        g = (u - grid.solve_h1(q * force),)
        gf = (2.0 * u - grid.solve_h1(q * self.p * force),)
        tg, (coef,) = tangent_part(g, (gf,), grid)
        return tg, (g, coef, a, b)

    def trial(self, x):
        u = np.abs(x[0])
        s, a, b = _ray(u, self.mu, self.grid, DegenerateInputError("cannot project the zero profile"))
        s = np.float64(s)  # its powers overflow to inf, as arrays do
        a, b = float(s**2 * a), float(s**self.p * b)
        return (s * u,), (a, b), 0.5 * a - b / self.p

    def newton(self, x, ev):
        return None, ()


class _Limit:
    """The sign-changing profile w whose parts sit on their own Nehari sets.

    The free Newton step for K w = q force is tried first, the Lagrange-Newton
    step second: at the discrete constrained minimizer the free gradient is
    not 0 but sigma+ dG+ + sigma- dG- (the sign-change cell couples w+ and w-
    in the H^1 form), so the free step aims beside it.
    """

    newton_steps = (1.0,)  # the undamped step against the current residual
    residual_window = 1

    def __init__(self, cp, grid):
        self.cp, self.grid = cp, grid
        self.p = grid.params.two_star
        self.floor_p = _collapse_floor(cp.mu1, grid.params.N)
        self.floor_m = _collapse_floor(cp.mu2, grid.params.N)

    def land(self, x, at, value):
        # an accepted trial arrives rescaled, with at = (the squared H^1 norms
        # of its parts, the evaluation of its Newton residual test or None)
        if at is None:
            x, at, value = self.trial(x)
        norm_p, norm_m = at[0]
        if norm_p < self.floor_p:
            raise CollapseError("positive part collapsed")
        if norm_m < self.floor_m:
            raise CollapseError("negative part collapsed")
        return x, at, value

    def evaluate(self, x, at):
        ev = at[1]  # handed over by an accepted Newton trial, or None
        if ev is None:
            (w,) = x
            mu, force = _limit_force(w, self.cp, self.p)
            ev = (mu, force, *_limit_tangent_full(w, self.cp, self.grid, force))
        return (ev[2],), ev

    def trial(self, x):
        w, norms = _rescale_parts(x[0], self.cp, self.grid)
        return (w,), (norms, None), limit_energy(w, self.cp, self.grid)

    def newton(self, x, ev):
        return _norm((ev[2],), self.grid), self._directions(x[0], *ev)

    def _directions(self, w, mu, force, _tg, mult, grads):
        res = _limit_residual(w, force, self.grid)
        free = _limit_newton_direction(w, self.grid, mu, force, res)
        if free is not None:
            yield free
        kkt = _limit_kkt_direction(w, self.cp, self.grid, mu, res, mult, grads)
        if kkt is not None:
            yield kkt

    def residual_norm(self, x, at):
        tg, ev = self.evaluate(x, (at[0], None))
        return _norm(tg, self.grid), (at[0], ev)


# --------------------------------------------------------------- driver


@dataclass
class _Run:
    x: tuple          # the final iterate
    energy: float     # its energy
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
    except SOLVE_ERRORS:
        return None


def _newton_trial(problem, x, direction, value, res_ref):
    """The first damped Newton trial that keeps the energy and contracts the residual.

    It is returned with what its residual test evaluated added to its ``at``.
    """
    for length in problem.newton_steps:
        trial = _attempt(problem, tuple(c + length * d for c, d in zip(x, direction)))
        # energy ties at roundoff must not block the residual contraction
        if trial is not None and trial[2] <= value + 1e-12 * abs(value):
            y, at, trial_value = trial
            res_norm, at = problem.residual_norm(y, at)
            if res_norm < res_ref:
                return y, at, trial_value
    return None


def _descend(problem, x, opts):
    """Constrained descent from the state x; see the module docstring.

    Each iterate is evaluated once: the evaluation feeds the convergence
    test, the Newton direction and the gradient step, what an accepted trial
    computed (its integrals and, from a Newton residual test, its kernel and
    residual) is handed to the next landing, and a solve returns the
    evaluation it stopped at.  A solve cut at ``max_iters`` lands, records
    and tests its last iterate like every other, so it converges when that
    iterate meets ``grad_tol``.
    """
    if not all(np.isfinite(c).all() for c in x):
        raise DegenerateInputError("initial profiles must be finite")
    grid = problem.grid
    trace = []
    tau = prev = at = value = None  # BB length, previous (iterate, tangent), handed-over trial
    recent_res = deque(maxlen=problem.residual_window)
    converged, message = False, "max_iters exceeded"

    for k in range(opts.max_iters + 1):
        x, at, value = problem.land(x, at, value)
        if not math.isfinite(value):  # an integral of the landed iterate overflowed
            raise ConvergenceError("the landed iterate overflows: its energy is not finite")
        trace.append(value)
        tg, ev = problem.evaluate(x, at)
        tg_sq = pair_inner(tg, tg, grid)
        tg_norm = math.sqrt(max(tg_sq, 0.0))
        if tg_norm <= opts.grad_tol:
            converged, message = True, "tangent gradient below tolerance"
            break
        if k == opts.max_iters:
            break

        # Newton candidates, in the problem's order: for each direction, the
        # first of the problem's step lengths whose landed trial keeps the
        # energy nonincreasing and brings the residual below 0.99 times the
        # largest of the last residual_window residual norms (with a window
        # above 1, the nonmonotone rule of Grippo, Lampariello and Lucidi,
        # 1986).  The energy trace stays monotone, the residual may rise for
        # a few steps, and late-stage convergence stops scaling with |lambda|.
        res_norm, directions = problem.newton(x, ev)
        if res_norm is not None:
            recent_res.append(res_norm)
            ref = 0.99 * max(recent_res)
            trials = (_newton_trial(problem, x, d, value, ref) for d in directions)
            trial = next(filter(None, trials), None)
            if trial is not None:
                x, at, value = trial
                continue

        if prev is not None:
            dx = tuple(a - b for a, b in zip(x, prev[0]))
            dg = tuple(a - b for a, b in zip(tg, prev[1]))
            tau = _bb_step(pair_inner(dx, dx, grid), pair_inner(dx, dg, grid), tau)
        if tau is None:
            tau = 1.0 / max(1.0, tg_norm)
        prev = (x, tg)

        step = tau
        for _ in range(60):
            trial = _attempt(problem, tuple(c - step * d for c, d in zip(x, tg)))
            if trial is not None and trial[2] <= value - ARMIJO_SLOPE * step * tg_sq:
                x, at, value = trial
                tau = step
                break
            step *= ARMIJO_BACKTRACK
        else:
            message = "line search stalled"
            break
    return _Run(x, value, ev, tg_norm, min(k + 1, opts.max_iters), converged, message, trace)


# ------------------------------------------------------------ public API


def _solve_result(run, g, a, grid, opts, **fields):
    """SolveResult of a pair or single run; a large full gradient demotes convergence.

    Large means above 10 grad_tol and above the rounding floor
    FULL_GRAD_FLOOR eps M^1.5 |x|_{H^1} of the discrete full gradient;
    ``a`` is |x|^2_{H^1} of the final iterate.
    """
    full_norm = _norm(g, grid)
    converged, message = run.converged, run.message
    floor = FULL_GRAD_FLOOR * np.finfo(float).eps * grid.params.M**1.5 * math.sqrt(a)
    if converged and full_norm > max(10.0 * opts.grad_tol, floor):
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
    check_exponents(cp, grid.params.N)
    problem = _Pair(cp, grid)
    run = _descend(problem, tuple(np.asarray(c, dtype=float) for c in init), opts)
    _forces, _res, mult, g, ints = run.ev
    return _solve_result(
        run, g, ints.a1 + ints.a2, grid, opts,
        pair=run.x,
        energy=run.energy,
        residuals=residuals_from_integrals(ints, cp),
        multipliers=mult,
        stats=problem.stats,
    )


def minimize_single(
    u_init: np.ndarray, mu: float, grid: ReducedGrid, opts: SolveOptions
) -> SolveResult:
    """Single-component mode: minimize over the one-constraint Nehari set."""
    problem = _Single(mu, grid)
    run = _descend(problem, (np.asarray(u_init, dtype=float),), opts)
    (u,) = run.x
    g, coef, a, b = run.ev
    return _solve_result(
        run, g, a, grid, opts,
        pair=PairState(u, np.zeros_like(u)),
        energy=run.energy,
        residuals=NehariResiduals(f_val=a - b, h_val=0.0),
        multipliers=(coef, 0.0),
        stats=NehariInvariantStats(),
    )


def minimize_limit(
    w_init: np.ndarray, cp: CouplingParams, grid: ReducedGrid, opts: SolveOptions
) -> LimitResult:
    """Minimize the sign-changing limit energy over profiles whose positive
    and negative parts each sit on their own Nehari set.  The returned w is
    the final iterate; its tangent norm is taken there.
    Dependent constraint gradients raise DegenerateConstraintError."""
    w = np.asarray(w_init, dtype=float)
    if np.max(w) <= 0.0 or np.min(w) >= 0.0:
        raise DegenerateInputError("limit solve needs a sign-changing start")
    run = _descend(_Limit(cp, grid), (w,), opts)
    (w,) = run.x
    _mu, _force, _tg, mult, _grads = run.ev
    return LimitResult(
        w=w,
        energy=run.energy,
        grad_norm=run.grad_norm,
        iterations=run.iterations,
        converged=run.converged,
        residuals=limit_residuals(w, cp, grid),
        multipliers=mult,
        energy_trace=np.asarray(run.trace),
        message=run.message,
    )


def _smooth_bump(x):
    out = np.zeros_like(x)
    inside = np.abs(x) < 1.0
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - x[inside] ** 2))
    return out


def initial_guess(kind: str, grid: ReducedGrid) -> PairState:
    """The deterministic starting pair of the given kind; only 'bumps' exists.

    'bumps' places disjointly supported caps near the two ends of the arc,
    so the overlap integral of the pair is exactly zero.
    """
    if kind != "bumps":
        raise DomainError(f"unknown initial guess kind {kind!r}")
    width = 0.35 * HALF_PI
    u = _smooth_bump(grid.theta / width)
    v = _smooth_bump((HALF_PI - grid.theta) / width)
    return PairState(u=u, v=v)


def cold_start(cp: CouplingParams, grid: ReducedGrid, opts: SolveOptions):
    """The start of a pair solve at cp on grid without a warm start, and the
    iterations spent on it.

    Nested iteration, the first step of full multigrid (Brandt, Math. Comp.
    31, 1977): when M // NESTED_FACTOR >= NESTED_FLOOR, the pair is solved
    from 'bumps' on that coarse grid to the tangent norm
    max(grad_tol, NESTED_TOL) and prolonged onto grid.  Otherwise, and when
    the coarse solve raises or does not converge, the start is 'bumps' on
    grid.  The iterations are those of the coarse solve (0 when none ran or
    it raised).  At N = 4, M = 8192 and 15 lambdas around -1, -10 and -1e3
    the fine solves take 2-3 iterations after 5-7 coarse ones, against 6-14
    from 'bumps' (132 in all against 136), at the same energies to 3e-15.
    """
    coarse_m = grid.params.M // NESTED_FACTOR
    if coarse_m < NESTED_FLOOR:
        return initial_guess("bumps", grid), 0
    coarse = build_grid(replace(grid.params, M=coarse_m))
    coarse_opts = replace(opts, grad_tol=max(opts.grad_tol, NESTED_TOL))
    try:
        res = minimize_nehari(initial_guess("bumps", coarse), cp, coarse, coarse_opts)
    except SOLVE_ERRORS:
        return initial_guess("bumps", grid), 0
    if not res.converged:
        return initial_guess("bumps", grid), res.iterations
    return PairState(*(prolong(c, coarse, grid) for c in res.pair)), res.iterations
