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
component, its ray scale (a/b)^(1/(2*-2)) onto its Nehari set (``_ray``),
the H^1 gradient x - K^{-1}(q f) of a component with nodal force f
(``_h1_gradient``), its nodal residual K x - q f (``_nodal_residual``), the
force slope mu (2*-1)|x|^(2*-2) (``_force_slope``) and the projection off
one or two constraint gradients (``tangent_part``).  Every nodal load
reaches the H^1 solve through ``_riesz``, which raises ConvergenceError
when a force overflowed, as the solver does for an energy that overflowed.
The limit problem puts w+ and w- (``_parts``) each on its own Nehari set,
the lambda -> -inf image of the pair; it lives at the end of this module.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    CollapseError,
    ConvergenceError,
    DegenerateConstraintError,
    DegenerateInputError,
    DomainError,
    NonFiniteError,
)
from .geometry import (
    ModelParams,
    ReducedGrid,
    critical_exponent,
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
    "nehari_project",
    "pair_forces",
    "pair_integrals",
    "ray_scale",
    "residuals",
    "single_project",
    "sobolev_lower_bound",
    "tangent_part",
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


def check_exponents(cp: CouplingParams, N: int) -> None:
    """Require alpha + beta to match the critical exponent 2* of the dimension N."""
    p = critical_exponent(N)
    if abs(cp.alpha + cp.beta - p) > 1e-12:
        raise DomainError(f"alpha + beta = {cp.alpha + cp.beta!r} but 2* = {p!r} for N = {N}")


class PairState(NamedTuple):
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
    """The s > 0 with s^2 a = s^p b, which puts s x on its one-component Nehari set (inf on overflow)."""
    return float(np.float64(a / b) ** (1.0 / (p - 2.0)))


def _ray(x: np.ndarray, mu: float, grid: ReducedGrid, error: Exception) -> tuple:
    """(s, a, b): the ray scale of x and its norms (a, b); raises ``error`` when a norm vanishes."""
    a, b = component_norms(x, mu, grid)
    if a <= 0.0 or b <= 0.0:
        raise error
    return ray_scale(a, b, grid.params.two_star), a, b


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


def _force_slope(x, mu, p):
    """The derivative mu (2*-1)|x|^(2*-2) of the force mu sign(x)|x|^(2*-1) in x."""
    return mu * (p - 1.0) * np.abs(x) ** (p - 2.0)


def _riesz(load, grid):
    """K^{-1} load, the H^1 Riesz representative of a nodal load.

    ConvergenceError when the load is not finite: a force of the evaluated
    state overflowed, as an energy that is not finite does.
    """
    try:
        return grid.solve_h1(load)
    except NonFiniteError:
        raise ConvergenceError("the evaluation overflows: a nodal force is not finite") from None


def _h1_gradient(x, force, grid):
    """x - K^{-1}(q force): the H^1 gradient of one component whose nodal force is ``force``."""
    return x - _riesz(grid.weights * force, grid)


def _nodal_residual(x, force, grid):
    """K x - q force: the nodal residual of one component whose nodal force is ``force``."""
    return grid.apply_h1(x) - grid.weights * force


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
    return PairState(_h1_gradient(pair.u, f.force_u, grid), _h1_gradient(pair.v, f.force_v, grid))


def _constraint_gradients(pair, cp, grid, f):
    """Riesz gradients of the two Nehari residual functionals; ``f`` is ``pair_forces`` at the pair."""
    p = grid.params.two_star
    q = grid.weights
    gf_u = 2.0 * pair.u - _riesz(q * (p * cp.mu1 * f.crit_u + cp.lam * cp.alpha * f.mixed_u), grid)
    gf_v = -_riesz(q * cp.lam * cp.alpha * f.mixed_v, grid)
    gh_u = -_riesz(q * cp.lam * cp.beta * f.mixed_u, grid)
    gh_v = 2.0 * pair.v - _riesz(q * (p * cp.mu2 * f.crit_v + cp.lam * cp.beta * f.mixed_v), grid)
    return PairState(gf_u, gf_v), PairState(gh_u, gh_v)


def pair_inner(x, y, grid: ReducedGrid) -> float:
    """H^1 inner product of two states (a pair, or a one-tuple of one component)."""
    return sum(h1_form(a, b, grid) for a, b in zip(x, y))


def tangent_part(g, grads, grid: ReducedGrid):
    """g minus its H^1 projection onto one or two constraint gradients, and the multipliers.

    g and each of ``grads`` are states; the Gram matrix sums ``h1_gram`` over
    the components.  DegenerateConstraintError when the constraint gradients
    are numerically dependent.
    """
    grams = [h1_gram(parts, grid) for parts in zip(g, *grads)]
    gram = [[sum(entries) for entries in zip(*rows)] for rows in zip(*grams)]
    r, g11 = gram[0], gram[1][1]
    if len(grads) == 1:
        det = diag = g11
    else:
        g12, g22 = gram[1][2], gram[2][2]
        det, diag = g11 * g22 - g12 * g12, g11 * g22
    if det <= 1e-14 * max(diag, 1e-300):
        raise DegenerateConstraintError("constraint gradients are numerically dependent; "
                                        "the Nehari set is degenerate here (is lambda < 0?)")
    if len(grads) == 1:
        mult = (r[1] / g11,)
    else:  # Cramer's rule
        mult = ((r[1] * g22 - r[2] * g12) / det, (r[2] * g11 - r[1] * g12) / det)
    tangent = []
    for x, *directions in zip(g, *grads):
        for c, d in zip(mult, directions):
            x = x - c * d
        tangent.append(x)
    return tuple(tangent), mult


def tangent_gradient_full(pair: PairState, cp: CouplingParams, grid: ReducedGrid, forces: PairForces):
    """Tangential gradient, the multiplier pair (s, t) and the full gradient.

    The multipliers split dE into its tangential part and s*df + t*dh
    (``tangent_part``); at a genuine constrained critical point both are
    ~0.  ``forces`` is ``pair_forces`` at the pair.
    """
    g = gradient(pair, cp, grid, forces)
    tg, mult = tangent_part(g, _constraint_gradients(pair, cp, grid, forces), grid)
    return PairState(*tg), mult, g


def nehari_det(ints: PairIntegrals, cp: CouplingParams, params: ModelParams) -> float:
    """det(a_ij) = a11 a22 - a12^2 in closed form, for the scaling Hessian a_ij of a pair
    on the Nehari set: the Hessian of E(s u, t v) at (s, t) = (1, 1) where f = h = 0."""
    p = params.two_star
    lc = cp.lam * ints.coupling
    a11 = (2.0 - p) * ints.b1 + cp.alpha * (2.0 - cp.alpha) * lc
    a22 = (2.0 - p) * ints.b2 + cp.beta * (2.0 - cp.beta) * lc
    a12 = cp.alpha * cp.beta * lc
    return a11 * a22 - a12 * a12


def sobolev_lower_bound(mu: float, N: int) -> float:
    """mu^{-(N-2)/2} S^{N/2}: floor for the squared H^1 norm on the Nehari set (inf on overflow)."""
    return float(np.float64(mu) ** (-(N - 2) / 2.0)) * sobolev_constant(N) ** (N / 2.0)


def nehari_det_bound(ints: PairIntegrals, cp: CouplingParams, params: ModelParams) -> float:
    """Lower bound (2*-2) c0 alpha beta (-lambda) int|u|^a|v|^b for det(a_ij)."""
    N = params.N
    c0 = min(sobolev_lower_bound(cp.mu1, N), sobolev_lower_bound(cp.mu2, N))
    return (params.two_star - 2.0) * c0 * cp.alpha * cp.beta * (-cp.lam) * ints.coupling


def single_project(u: np.ndarray, mu: float, grid: ReducedGrid) -> float:
    """Scale factor putting a single nonzero profile on its Nehari set."""
    return _ray(u, mu, grid, DegenerateInputError("cannot project the zero profile"))[0]


def ratio_window(cp: CouplingParams, b1: float, b2: float, w1: float, w2: float):
    """(k_lo, k_max) of the ratio reduction, or None when no positive solution exists.

    For lam < 0, t = k s reduces 1 = b1 s^(2*-2) + lam w1 s^(alpha-2) t^beta,
    1 = b2 t^(2*-2) + lam w2 s^alpha t^(beta-2) to s^(2*-2) = 1/(b1 + lam w1 k^beta)
    and the root of F(k) = b2 k^(2*-2) - b1 - lam (w1 k^beta - w2 k^(beta-2)), which
    increases strictly, so a unique solution exists exactly when k_lo < k_max, with
    k_lo = (-lam w2/b2)^(1/alpha) and k_max = (-b1/(lam w1))^(1/beta).  The
    synchronized system has b = (mu1, mu2), w = (alpha, beta).
    A power that overflows is inf (``_pow``), as in float64, instead of raising.
    """
    if cp.lam >= 0.0:
        raise DomainError("the ratio reduction needs lam < 0")
    lam_w1 = cp.lam * w1
    if lam_w1 == 0.0:  # the overlap term underflowed, and k_max has no finite value
        raise ConvergenceError("the ratio window is unbounded: lam w1 underflows to 0")
    k_lo = _pow(-cp.lam * w2 / b2, 1.0 / cp.alpha)
    k_max = _pow(-b1 / lam_w1, 1.0 / cp.beta)
    return (k_lo, k_max) if k_lo < k_max else None


def _pow(k: float, e: float) -> float:
    """k ** e for a Python float k >= 0, inf where Python raises (as float64 gives)."""
    try:
        return k**e
    except (OverflowError, ZeroDivisionError):
        return math.inf


def bisect(high, lo: float, hi: float, width: float = 0.0):
    """(lo, hi) halved to ``width`` or adjacent floats; a midpoint x replaces hi if ``high(x)``, else lo."""
    mid = 0.5 * (lo + hi)
    while lo < mid < hi and hi - lo > width:
        if high(mid):
            hi = mid
        else:
            lo = mid
        mid = 0.5 * (lo + hi)
    return lo, hi


def ratio_root(cp: CouplingParams, b1: float, b2: float, w1: float, w2: float, p: float):
    """The positive (s, t) of ``ratio_window``'s system, or None; bisects F to adjacent floats.

    ConvergenceError when s or t is not finite."""
    window = ratio_window(cp, b1, b2, w1, w2)
    if window is None:
        return None
    # on Python floats, where a step costs a third of what it costs on NumPy scalars
    lam, beta = cp.lam, cp.beta
    e_b, e_w = p - 2.0, beta - 2.0
    lo, _hi = bisect(lambda k: b2 * _pow(k, e_b) - b1 - lam * (w1 * _pow(k, beta) - w2 * _pow(k, e_w))
                     > 0.0, *window)
    base = b1 + lam * w1 * _pow(lo, beta)
    if not base > 0.0:
        return None
    s = _pow(base, -1.0 / (p - 2.0))
    t = lo * s
    if not (math.isfinite(s) and math.isfinite(t)):
        raise ConvergenceError(f"the ratio root overflows: (s, t) = ({s}, {t})")
    return float(s), float(t)


def scaling_from_integrals(ints: PairIntegrals, cp: CouplingParams, params: ModelParams):
    """The scaling of ``nehari_project``, from the integrals of the pair."""
    p = params.two_star
    if ints.a1 <= 1e-300 or ints.b1 <= 1e-300 or ints.a2 <= 1e-300 or ints.b2 <= 1e-300:
        raise DegenerateInputError("both components must be nonzero to project")
    if ints.coupling == 0.0:
        return ray_scale(ints.a1, ints.b1, p), ray_scale(ints.a2, ints.b2, p)
    root = ratio_root(cp, ints.b1 / ints.a1, ints.b2 / ints.a2,
                      cp.alpha * ints.coupling / ints.a1, cp.beta * ints.coupling / ints.a2, p)
    if root is None:
        raise ConvergenceError("no positive Nehari scaling exists for this pair")
    return root


def nehari_project(pair: PairState, cp: CouplingParams, grid: ReducedGrid):
    """Unique positive (s, t) with (su, tv) on the Nehari set.

    With zero overlap each component takes its ray scale.  Otherwise, for lambda < 0,
    it is the ratio root with b = (b1/a1, b2/a2), w = (alpha c/a1, beta c/a2), which
    exists exactly when k_lo < k_max (``ratio_window``); else ConvergenceError is raised.
    """
    return scaling_from_integrals(pair_integrals(pair, cp, grid), cp, grid.params)


# ------------------------------------------------------- limit functional


def _parts(w):
    """The positive part w+ and the negative part w- of w (w = w+ + w-)."""
    return np.maximum(w, 0.0), np.minimum(w, 0.0)


def limit_energy(w: np.ndarray, cp: CouplingParams, grid: ReducedGrid) -> float:
    """Energy of the single sign-changing limit problem."""
    wp, wm = _parts(w)
    bulk = _crit_integral(wp, cp.mu1, grid) + _crit_integral(wm, cp.mu2, grid)
    return 0.5 * h1_form(w, w, grid) - bulk / grid.params.two_star


def limit_residuals(w: np.ndarray, cp: CouplingParams, grid: ReducedGrid):
    """Nehari residuals of the positive and negative parts of w."""
    wp, wm = _parts(w)
    ap, bp = component_norms(wp, cp.mu1, grid)
    am, bm = component_norms(wm, cp.mu2, grid)
    return ap - bp, am - bm


def _limit_force(w, cp, p):
    """The weight (mu1 where w > 0, mu2 elsewhere) and the limit force mu sign(w)|w|^(2*-1)."""
    mu = np.where(w > 0.0, cp.mu1, cp.mu2)
    return mu, mu * _crit_force(w, p)


def _rescale_parts(w, cp, grid):
    """w+ and w- each scaled onto its Nehari set, and the squared H^1 norms of the two
    scaled parts; CollapseError when a part vanishes."""
    wp, wm = _parts(w)
    s, ap, _bp = _ray(wp, cp.mu1, grid, CollapseError("positive part collapsed"))
    t, am, _bm = _ray(wm, cp.mu2, grid, CollapseError("negative part collapsed"))
    return s * wp + t * wm, (s * s * ap, t * t * am)


def _limit_constraint_gradients(w, cp, grid):
    """Euclidean gradients 2 P K x - q 2* mu crit(x) of the Nehari residuals of the parts x = w+, w-.

    P masks the nodes where x is nonzero; the Riesz gradients are their H^1 solves."""
    p = grid.params.two_star
    q = grid.weights
    return tuple(
        np.where(on, 2.0 * grid.apply_h1(x), 0.0) - q * p * mu * _crit_force(x, p)
        for x, on, mu in zip(_parts(w), (w > 0.0, w < 0.0), (cp.mu1, cp.mu2))
    )


def _limit_tangent_full(w, cp, grid, force):
    """Tangential part of the preconditioned limit gradient, the multipliers (sigma+, sigma-)
    and the Euclidean constraint gradients; ``force`` is ``_limit_force`` at w.

    DegenerateConstraintError, as for the pair, when the constraint gradients are dependent."""
    g = _h1_gradient(w, force, grid)
    grads = _limit_constraint_gradients(w, cp, grid)
    (tg,), mult = tangent_part((g,), tuple((_riesz(e, grid),) for e in grads), grid)
    return tg, mult, grads

