"""Discrete energy of the competitive critical system and its Nehari algebra.

Everything is expressed through five scalar integrals of a pair (u, v) of
arc profiles:

    a1 = |u|_{H^1}^2          b1 = mu1 * int |u|^{2*}
    a2 = |v|_{H^1}^2          b2 = mu2 * int |v|^{2*}
    c  = int |u|^alpha |v|^beta

with 2* = 2N/(N-2) and the weighted H^1 form of the geometry module.  The
energy is

    E = (a1 + a2)/2 - (b1 + b2)/2* - lambda * c,

the Nehari residuals are f = a1 - b1 - lambda*alpha*c and
h = a2 - b2 - lambda*beta*c, and scaling a pair to the Nehari set amounts to
solving f(su, tv) = h(su, tv) = 0 for positive (s, t).

Gradients are returned as Riesz representatives with respect to the H^1
inner product on pairs, i.e. they are preconditioned by the inverse of the
discrete H^1 operator.  This makes gradient norms directly comparable with
the norm bounds that hold on the Nehari set, and it lets the solver take
well-scaled descent steps.  Since alpha, beta in (1, 2] the energy is C^1
but not C^2 at zeros of a component; the mixed-power force is written with
exponents alpha-1, beta-1 >= 0 only and vanishes where a component does.

The pointwise forces are written once, in ``pair_forces``: one evaluation
gives the powers, signs and forces of a pair, and the energy gradient, the
two constraint gradients and the solver's Newton step all read from it.  A
caller that needs several of them at one pair evaluates the kernel once and
hands it to each.  The solver also hands it across iterations: the residual
test of a Newton trial evaluates the kernel and the nodal residual at the
trial pair, and when the trial is accepted both travel with it to the next
iterate.

The pair, the single component and the sign-changing limit problem share
one one-component algebra, written once here: the norms (a, b) of a
component, the ray scale (a/b)^(1/(2*-2)) onto its Nehari set and the 2x2
Gram projection off two constraint gradients.  The limit problem, which puts
w+ and w- each on its own Nehari set (the lambda -> -inf image of the pair),
lives at the end of this module.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    CollapseError,
    ConvergenceError,
    DegenerateConstraintError,
    DegenerateInputError,
    DomainError,
)
from .geometry import (
    ModelParams,
    ReducedGrid,
    h1_form,
    h1_gram,
    integrate,
    sobolev_constant,
)

__all__ = [
    "CouplingParams",
    "NehariResiduals",
    "PairForces",
    "PairIntegrals",
    "PairState",
    "check_exponents",
    "component_norms",
    "coupling_integral",
    "energy",
    "gradient",
    "limit_energy",
    "limit_residuals",
    "nehari_det",
    "nehari_det_bound",
    "nehari_matrix",
    "nehari_project",
    "pair_forces",
    "pair_integrals",
    "ray_scale",
    "residuals",
    "single_project",
    "sobolev_lower_bound",
    "tangent_gradient",
]


@dataclass(frozen=True)
class CouplingParams:
    """Material constants mu1, mu2 > 0, powers alpha, beta in (1,2], coupling lam."""

    mu1: float
    mu2: float
    alpha: float
    beta: float
    lam: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.mu1, self.mu2, self.lam))):
            raise DomainError(f"mu1, mu2, lambda must be finite, got {self.mu1}, {self.mu2}, {self.lam}")
        if self.mu1 <= 0 or self.mu2 <= 0:
            raise DomainError(f"mu1, mu2 must be positive, got {self.mu1}, {self.mu2}")
        for name, ex in (("alpha", self.alpha), ("beta", self.beta)):
            if not (1.0 < ex <= 2.0):
                raise DomainError(f"{name} must lie in (1, 2], got {ex}")


def check_exponents(cp: CouplingParams, params: ModelParams) -> None:
    """Require alpha + beta to match the critical exponent of the dimension.

    Only ``params.N`` and ``params.two_star`` are read, so the scalar
    ``SyncInstance`` is checked here too.
    """
    if abs(cp.alpha + cp.beta - params.two_star) > 1e-12:
        raise DomainError(
            f"alpha + beta = {cp.alpha + cp.beta!r} but 2* = {params.two_star!r} "
            f"for N = {params.N}"
        )


@dataclass(frozen=True)
class PairState:
    """A pair of arc profiles; the optimization variable."""

    u: np.ndarray
    v: np.ndarray


@dataclass(frozen=True)
class NehariResiduals:
    f_val: float
    h_val: float


@dataclass(frozen=True)
class PairIntegrals:
    """The five scalars that determine energy, residuals and scalings."""

    a1: float
    b1: float
    a2: float
    b2: float
    coupling: float


def _crit_integral(x: np.ndarray, mu: float, grid: ReducedGrid) -> float:
    """mu * int |x|^{2*}."""
    return mu * integrate(np.abs(x) ** grid.params.two_star, grid)


def component_norms(x: np.ndarray, mu: float, grid: ReducedGrid) -> tuple:
    """(a, b) = (|x|_{H^1}^2, mu * int |x|^{2*}) of one component."""
    return h1_form(x, x, grid), _crit_integral(x, mu, grid)


def coupling_integral(u: np.ndarray, v: np.ndarray, cp: CouplingParams, grid: ReducedGrid) -> float:
    """int |u|^alpha |v|^beta."""
    return integrate(np.abs(u) ** cp.alpha * np.abs(v) ** cp.beta, grid)


def ray_scale(a: float, b: float, p: float) -> float:
    """The s > 0 with s^2 a = s^p b, which puts s x on its one-component Nehari set."""
    return (a / b) ** (1.0 / (p - 2.0))


def pair_integrals(pair: PairState, cp: CouplingParams, grid: ReducedGrid) -> PairIntegrals:
    a1, b1 = component_norms(pair.u, cp.mu1, grid)
    a2, b2 = component_norms(pair.v, cp.mu2, grid)
    return PairIntegrals(a1, b1, a2, b2, coupling_integral(pair.u, pair.v, cp, grid))


def energy_from_integrals(ints: PairIntegrals, cp: CouplingParams, params: ModelParams) -> float:
    p = params.two_star
    return 0.5 * (ints.a1 + ints.a2) - (ints.b1 + ints.b2) / p - cp.lam * ints.coupling


def residuals_from_integrals(ints: PairIntegrals, cp: CouplingParams) -> NehariResiduals:
    return NehariResiduals(
        f_val=ints.a1 - ints.b1 - cp.lam * cp.alpha * ints.coupling,
        h_val=ints.a2 - ints.b2 - cp.lam * cp.beta * ints.coupling,
    )


def energy(pair: PairState, cp: CouplingParams, grid: ReducedGrid) -> float:
    """Value of the competitive energy at a pair."""
    return energy_from_integrals(pair_integrals(pair, cp, grid), cp, grid.params)


def residuals(pair: PairState, cp: CouplingParams, grid: ReducedGrid) -> NehariResiduals:
    """Nehari residuals: the energy derivative paired against (u,0) and (0,v)."""
    return residuals_from_integrals(pair_integrals(pair, cp, grid), cp)


def _crit_force(x, p):
    return np.sign(x) * np.abs(x) ** (p - 1.0)


@dataclass(frozen=True)
class PairForces:
    """Pointwise powers and forces of a pair (u, v), evaluated once.

    ``crit_*`` are sign(x)|x|^(2*-1); ``mixed_u`` is d/du of |u|^alpha |v|^beta,
    written with the nonnegative exponent alpha-1, and ``mixed_v`` likewise;
    ``force_*`` = mu_i crit_* + lambda mixed_* is the nodal force of dE.
    """

    abs_u: np.ndarray
    abs_v: np.ndarray
    sign_u: np.ndarray
    sign_v: np.ndarray
    u_am1: np.ndarray  # |u|^(alpha-1)
    v_b: np.ndarray  # |v|^beta
    u_a: np.ndarray  # |u|^alpha
    v_bm1: np.ndarray  # |v|^(beta-1)
    crit_u: np.ndarray
    crit_v: np.ndarray
    mixed_u: np.ndarray
    mixed_v: np.ndarray
    force_u: np.ndarray
    force_v: np.ndarray


def pair_forces(pair: PairState, cp: CouplingParams, grid: ReducedGrid) -> PairForces:
    """The one pointwise kernel of the pair energy: abs, sign, powers, forces."""
    p = grid.params.two_star
    abs_u, abs_v = np.abs(pair.u), np.abs(pair.v)
    sign_u, sign_v = np.sign(pair.u), np.sign(pair.v)
    u_am1 = abs_u ** (cp.alpha - 1.0)
    v_b = abs_v**cp.beta
    u_a = abs_u**cp.alpha
    v_bm1 = abs_v ** (cp.beta - 1.0)
    crit_u = sign_u * abs_u ** (p - 1.0)
    crit_v = sign_v * abs_v ** (p - 1.0)
    mixed_u = cp.alpha * sign_u * u_am1 * v_b
    mixed_v = cp.beta * u_a * sign_v * v_bm1
    return PairForces(
        abs_u=abs_u,
        abs_v=abs_v,
        sign_u=sign_u,
        sign_v=sign_v,
        u_am1=u_am1,
        v_b=v_b,
        u_a=u_a,
        v_bm1=v_bm1,
        crit_u=crit_u,
        crit_v=crit_v,
        mixed_u=mixed_u,
        mixed_v=mixed_v,
        force_u=cp.mu1 * crit_u + cp.lam * mixed_u,
        force_v=cp.mu2 * crit_v + cp.lam * mixed_v,
    )


def gradient(
    pair: PairState, cp: CouplingParams, grid: ReducedGrid, forces: PairForces = None
) -> PairState:
    """Riesz representative of dE with respect to the H^1 pair inner product.

    The linear part inverts exactly (K^{-1} K u = u), so only the force
    terms need a solve; the result vanishes at discrete critical points.
    ``forces`` is ``pair_forces`` at the pair, when the caller has it.
    """
    f = forces if forces is not None else pair_forces(pair, cp, grid)
    q = grid.weights
    return PairState(
        u=pair.u - grid.solve_h1(q * f.force_u), v=pair.v - grid.solve_h1(q * f.force_v)
    )


def _constraint_gradients(pair, cp, grid, forces=None):
    """Riesz gradients of the two Nehari residual functionals."""
    f = forces if forces is not None else pair_forces(pair, cp, grid)
    p = grid.params.two_star
    q = grid.weights
    gf_u = 2.0 * pair.u - grid.solve_h1(
        q * (p * cp.mu1 * f.crit_u + cp.lam * cp.alpha * f.mixed_u)
    )
    gf_v = -grid.solve_h1(q * cp.lam * cp.alpha * f.mixed_v)
    gh_u = -grid.solve_h1(q * cp.lam * cp.beta * f.mixed_u)
    gh_v = 2.0 * pair.v - grid.solve_h1(
        q * (p * cp.mu2 * f.crit_v + cp.lam * cp.beta * f.mixed_v)
    )
    return PairState(gf_u, gf_v), PairState(gh_u, gh_v)


def pair_inner(x: PairState, y: PairState, grid: ReducedGrid) -> float:
    """H^1 inner product on pairs."""
    return h1_form(x.u, y.u, grid) + h1_form(x.v, y.v, grid)


def tangent_gradient(pair: PairState, cp: CouplingParams, grid: ReducedGrid) -> PairState:
    """Energy gradient minus its projection onto the constraint gradients."""
    tg, _, _ = tangent_gradient_full(pair, cp, grid)
    return tg


def tangent_gradient_full(
    pair: PairState, cp: CouplingParams, grid: ReducedGrid, forces: PairForces = None
):
    """Tangential gradient, the multiplier pair (s, t) and the full gradient.

    The multipliers solve the 2x2 Gram system that splits dE into its
    tangential part and s*df + t*dh; at a genuine constrained critical
    point both are ~0.  The pointwise kernel is evaluated once (or taken
    from ``forces``) and the Gram entries come from one differencing of
    each component.
    """
    f = forces if forces is not None else pair_forces(pair, cp, grid)
    g = gradient(pair, cp, grid, f)
    gf, gh = _constraint_gradients(pair, cp, grid, f)
    gram_u = h1_gram((g.u, gf.u, gh.u), grid)
    gram_v = h1_gram((g.v, gf.v, gh.v), grid)
    s, t = _gram_multipliers(
        [[x + y for x, y in zip(row_u, row_v)] for row_u, row_v in zip(gram_u, gram_v)]
    )
    tg = PairState(u=g.u - s * gf.u - t * gh.u, v=g.v - s * gf.v - t * gh.v)
    return tg, (s, t), g


def _gram_multipliers(gram):
    """The (s, t) that make g - s*gf - t*gh orthogonal to gf and gh.

    ``gram`` is the H^1 Gram matrix of (g, gf, gh); the 2x2 system is solved
    by Cramer's rule.  Raises DegenerateConstraintError when gf and gh are
    numerically dependent.
    """
    g11, g12, g22 = gram[1][1], gram[1][2], gram[2][2]
    det = g11 * g22 - g12 * g12
    if det <= 1e-14 * max(g11 * g22, 1e-300):
        raise DegenerateConstraintError(
            "constraint gradients are numerically dependent; "
            "the Nehari set is degenerate here (is lambda < 0?)"
        )
    r1, r2 = gram[0][1], gram[0][2]
    return (r1 * g22 - r2 * g12) / det, (r2 * g11 - r1 * g12) / det


def _nehari_entries(ints, cp, params):
    """The entries (a11, a12, a22) of the scaling Hessian."""
    p = params.two_star
    lc = cp.lam * ints.coupling
    a11 = (2.0 - p) * ints.b1 + cp.alpha * (2.0 - cp.alpha) * lc
    a22 = (2.0 - p) * ints.b2 + cp.beta * (2.0 - cp.beta) * lc
    a12 = -cp.alpha * cp.beta * lc
    return a11, a12, a22


def nehari_matrix(ints: PairIntegrals, cp: CouplingParams, params: ModelParams) -> np.ndarray:
    """The 2x2 scaling Hessian (a_ij) of a pair on the Nehari set."""
    a11, a12, a22 = _nehari_entries(ints, cp, params)
    return np.array([[a11, a12], [a12, a22]])


def nehari_det(ints: PairIntegrals, cp: CouplingParams, params: ModelParams) -> float:
    """det(a_ij) = a11 a22 - a12^2 of the scaling Hessian, in closed form."""
    a11, a12, a22 = _nehari_entries(ints, cp, params)
    return a11 * a22 - a12 * a12


def sobolev_lower_bound(mu: float, N: int) -> float:
    """mu^{-(N-2)/2} S^{N/2}: floor for the squared H^1 norm on the Nehari set."""
    return mu ** (-(N - 2) / 2.0) * sobolev_constant(N) ** (N / 2.0)


def nehari_det_bound(ints: PairIntegrals, cp: CouplingParams, params: ModelParams) -> float:
    """Lower bound (2*-2) c0 alpha beta (-lambda) int|u|^a|v|^b for det(a_ij)."""
    N = params.N
    c0 = min(sobolev_lower_bound(cp.mu1, N), sobolev_lower_bound(cp.mu2, N))
    return (params.two_star - 2.0) * c0 * cp.alpha * cp.beta * (-cp.lam) * ints.coupling


def single_project(u: np.ndarray, mu: float, grid: ReducedGrid) -> float:
    """Scale factor putting a single nonzero profile on its Nehari set."""
    a, b = component_norms(u, mu, grid)
    if a <= 0.0 or b <= 0.0:
        raise DegenerateInputError("cannot project the zero profile")
    return ray_scale(a, b, grid.params.two_star)


SCALING_TOL = 1e-12  # the scaling Newton stops at residuals below this fraction of their scale
SCALING_MAX_ITER = 100  # and gives up after this many steps


def _scaled_component(x, a, b, coupling_term, p):
    """Residual x^2 a - x^p b - coupling_term and its scale (all signs positive)."""
    quad, crit = x * x * a, x**p * b
    return quad - crit - coupling_term, quad + crit - coupling_term


def _scaled_residuals(s, t, ints, cp, p):
    """Nehari residuals (f, h) of (su, tv), their scales and the mixed term; s, t may be arrays."""
    mixed = s**cp.alpha * t**cp.beta * ints.coupling
    f, sc_f = _scaled_component(s, ints.a1, ints.b1, cp.lam * cp.alpha * mixed, p)
    h, sc_h = _scaled_component(t, ints.a2, ints.b2, cp.lam * cp.beta * mixed, p)
    return f, h, sc_f, sc_h, mixed


def _scaling_newton(s, t, ints, cp, p):
    """Damped Newton for the 2x2 scaling system; None when it stalls."""
    f, h, sc_f, sc_h, mixed = _scaled_residuals(s, t, ints, cp, p)
    for _ in range(SCALING_MAX_ITER):
        if abs(f) <= SCALING_TOL * sc_f and abs(h) <= SCALING_TOL * sc_h:
            return s, t
        fs = 2.0 * s * ints.a1 - p * s ** (p - 1.0) * ints.b1 - cp.lam * cp.alpha**2 * mixed / s
        ft = -cp.lam * cp.alpha * cp.beta * mixed / t
        hs = -cp.lam * cp.alpha * cp.beta * mixed / s
        ht = 2.0 * t * ints.a2 - p * t ** (p - 1.0) * ints.b2 - cp.lam * cp.beta**2 * mixed / t
        det = fs * ht - ft * hs
        if det == 0.0 or not np.isfinite(det):
            return None
        ds = -(f * ht - h * ft) / det
        dt = -(h * fs - f * hs) / det
        step = 1.0
        norm0 = math.hypot(f / sc_f, h / sc_h)
        improved = False
        while step > 1e-14:
            s_new, t_new = s + step * ds, t + step * dt
            if s_new > 0.0 and t_new > 0.0:
                new = _scaled_residuals(s_new, t_new, ints, cp, p)
                if math.hypot(new[0] / new[2], new[1] / new[3]) < norm0:
                    s, t, (f, h, sc_f, sc_h, mixed) = s_new, t_new, new
                    improved = True
                    break
            step *= 0.5
        if not improved:
            return None
    return None


def _scaling_grid_start(ints, cp, p, n=48):
    """Best (s, t) on a coarse log grid, by scale-relative residual."""
    g = np.geomspace(1e-3, 1e3, n)
    s, t = np.meshgrid(g, g, indexing="ij")
    f, h, sc_f, sc_h, _ = _scaled_residuals(s, t, ints, cp, p)
    score = np.hypot(f / sc_f, h / sc_h)
    i, j = np.unravel_index(np.argmin(score), score.shape)
    return float(g[i]), float(g[j])


def nehari_project(pair: PairState, cp: CouplingParams, grid: ReducedGrid):
    """Unique positive (s, t) with (su, tv) on the Nehari set.

    Newton on the 2x2 scaling system, started from the decoupled closed
    form and damped to keep both factors positive; if that stalls, it is
    restarted from the best point of a coarse logarithmic scan.  With zero
    overlap the closed form is returned directly.  Raises ConvergenceError
    when no root is reached: for strongly overlapping pairs at very
    negative lambda the scaling system can genuinely have no positive
    solution.  Whenever a root exists it is unique, because at any root
    the scaling Hessian is negative definite (its determinant carries the
    competition-strength lower bound), so all ray critical points are
    strict maxima.
    """
    ints = pair_integrals(pair, cp, grid)
    p = grid.params.two_star
    tiny = 1e-300
    if ints.a1 <= tiny or ints.b1 <= tiny or ints.a2 <= tiny or ints.b2 <= tiny:
        raise DegenerateInputError("both components must be nonzero to project")
    s0, t0 = ray_scale(ints.a1, ints.b1, p), ray_scale(ints.a2, ints.b2, p)
    if ints.coupling == 0.0:
        return s0, t0
    root = _scaling_newton(s0, t0, ints, cp, p)
    if root is None:
        s1, t1 = _scaling_grid_start(ints, cp, p)
        root = _scaling_newton(s1, t1, ints, cp, p)
    if root is None:
        f, h, *_ = _scaled_residuals(s0, t0, ints, cp, p)
        raise ConvergenceError(
            "Nehari scaling system did not converge",
            residual=math.hypot(f, h),
            iterations=SCALING_MAX_ITER,
        )
    return root


# ------------------------------------------------------- limit functional


def limit_energy(w: np.ndarray, cp: CouplingParams, grid: ReducedGrid) -> float:
    """Energy of the single sign-changing limit problem."""
    bulk = _crit_integral(np.maximum(w, 0.0), cp.mu1, grid) + _crit_integral(
        np.minimum(w, 0.0), cp.mu2, grid
    )
    return 0.5 * h1_form(w, w, grid) - bulk / grid.params.two_star


def limit_residuals(w: np.ndarray, cp: CouplingParams, grid: ReducedGrid):
    """Nehari residuals of the positive and negative parts of w."""
    ap, bp = component_norms(np.maximum(w, 0.0), cp.mu1, grid)
    am, bm = component_norms(np.minimum(w, 0.0), cp.mu2, grid)
    return ap - bp, am - bm


def _limit_force(w, cp, p):
    """The weight (mu1 where w > 0, mu2 elsewhere) and the limit force mu sign(w)|w|^(2*-1)."""
    mu = np.where(w > 0.0, cp.mu1, cp.mu2)
    return mu, mu * _crit_force(w, p)


def _limit_residual(w, force, grid):
    """The nodal residual K w - q force of the limit equation; ``force`` from ``_limit_force``."""
    return grid.apply_h1(w) - grid.weights * force


def _rescale_parts(w, cp, grid, floor_p, floor_m, iteration):
    """w+ and w- each scaled onto its Nehari set; CollapseError when a part is lost."""
    p = grid.params.two_star
    wp = np.maximum(w, 0.0)
    wm = np.minimum(w, 0.0)
    ap, bp = component_norms(wp, cp.mu1, grid)
    am, bm = component_norms(wm, cp.mu2, grid)
    if ap <= 0.0 or bp <= 0.0:
        raise CollapseError("positive part collapsed", iteration=iteration, component="w+")
    if am <= 0.0 or bm <= 0.0:
        raise CollapseError("negative part collapsed", iteration=iteration, component="w-")
    s, t = ray_scale(ap, bp, p), ray_scale(am, bm, p)
    # the norm floors apply to the rescaled (on-set) parts, not the raw split
    if s * s * ap < floor_p:
        raise CollapseError("positive part collapsed", iteration=iteration, component="w+")
    if t * t * am < floor_m:
        raise CollapseError("negative part collapsed", iteration=iteration, component="w-")
    return s * wp + t * wm


def _limit_constraint_gradients(w, cp, grid):
    """Riesz gradients of the Nehari residual functionals of w+ and w-."""
    p = grid.params.two_star
    q = grid.weights
    wp = np.maximum(w, 0.0)
    wm = np.minimum(w, 0.0)
    gf_p = grid.solve_h1(
        np.where(w > 0.0, 2.0 * grid.apply_h1(wp), 0.0) - q * p * cp.mu1 * wp ** (p - 1.0)
    )
    gf_m = grid.solve_h1(
        np.where(w < 0.0, 2.0 * grid.apply_h1(wm), 0.0) - q * p * cp.mu2 * _crit_force(wm, p)
    )
    return gf_p, gf_m


def _limit_tangent(w, cp, grid, force=None):
    """Tangential part of the preconditioned limit-energy gradient.

    ``force`` is the limit force at w, when the caller has it.  Raises
    DegenerateConstraintError, as the pair does, when the two constraint
    gradients are numerically dependent.
    """
    if force is None:
        _mu, force = _limit_force(w, cp, grid.params.two_star)
    g = w - grid.solve_h1(grid.weights * force)
    gf_p, gf_m = _limit_constraint_gradients(w, cp, grid)
    c1, c2 = _gram_multipliers(h1_gram((g, gf_p, gf_m), grid))
    return g - c1 * gf_p - c2 * gf_m
