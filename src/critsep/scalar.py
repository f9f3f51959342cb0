"""Finite-dimensional side computations.

Two families live here.  The synchronized-solution system

    1 = mu1 s^{2*-2} + lam * alpha * s^{alpha-2} t^beta
    1 = mu2 t^{2*-2} + lam * beta  * s^alpha     t^{beta-2}

governs solutions proportional to a common profile.  For lam < 0 the ratio
k = t/s reduces it to ``functional.ratio_root`` with b = (mu1, mu2) and
w = (alpha, beta): one positive solution exists exactly when k_lo < k_max, that
is for lam above lam* = -(mu1^alpha mu2^beta / (alpha^alpha beta^beta))^{1/2*},
which is -sqrt(mu1 mu2)/2 for alpha = beta = 2.  The diagonal branch s = t of
mu1 = mu2, alpha = beta has s^{2*-2} = 1/(mu + lam*alpha).  An instance of the
system, ``SyncInstance``, is a ``CouplingParams`` with the dimension N.

The second family is the two-variable comparison function

    e(s, t) = a1 s^2 + a2 t^2 - b1 s^p - b2 t^p + d s^alpha t^beta

with positive coefficients, p > 2, alpha + beta = p and (1, 1) critical,
which forces 2 a_i - p b_i + d * (alpha or beta) = 0.  A box [r, R]^2 with
inward-crossing gradient on the boundary traps all critical points, and
when every critical point is a strict local maximum the only one is (1, 1).
Since d > 0, e_s increases in t and e_t in s, so every edge of the box takes
its extreme gradient at the corner (r, r) or (R, R), where the box is decided
exactly; the critical points come from a multi-start Newton over the box.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import BracketError, DomainError
from .functional import CouplingParams, bisect, check_exponents, ratio_root, ratio_window
from .geometry import critical_exponent

# Grid points that the grid scans (sync_brute_cells, the maximum grid of
# plane_critical_points) evaluate at once.  A float64 temporary of a block
# then takes 128,000 bytes, below the 128 KiB from which the C allocator maps
# fresh pages for each allocation, so the blocks of a scan reuse heap memory.
BLOCK_POINTS = 16000
BRUTE_SPAN = (1e-3, 1e3)  # the window of s and t that sync_brute_cells scans
PLANE_NEWTON_STEPS = 80  # Newton steps of each start of plane_critical_points
PLANE_DEDUP_REL = 1e-8  # relative distance below which two critical points are one
BOX_STEPS = range(1, 20)  # plane_box tries r = 2^-k and R = 2^k inside (1e-6, 1e6)

__all__ = [
    "BoxReport",
    "CriticalPoint",
    "PlaneCoeffs",
    "SyncInstance",
    "ThresholdBracket",
    "fixed_point_free",
    "plane_box",
    "plane_coeffs",
    "plane_critical_points",
    "sync_brute_cells",
    "sync_residuals",
    "sync_solve",
    "sync_threshold",
    "verify_box",
]


@dataclass(frozen=True)
class SyncInstance(CouplingParams):
    """The coupling constants of the synchronized-solution system and its dimension N."""

    N: int

    def __post_init__(self):
        super().__post_init__()
        check_exponents(self, self.N)

    @property
    def two_star(self) -> float:
        return critical_exponent(self.N)


def sync_residuals(inst: SyncInstance, s, t):
    """Residuals of both equations at (s, t); vectorized."""
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    p = inst.two_star
    r1 = inst.mu1 * s ** (p - 2.0) + inst.lam * inst.alpha * s ** (inst.alpha - 2.0) * t**inst.beta - 1.0
    r2 = inst.mu2 * t ** (p - 2.0) + inst.lam * inst.beta * s**inst.alpha * t ** (inst.beta - 2.0) - 1.0
    return r1, r2


def sync_solve(inst: SyncInstance):
    """The positive solution (s, t) by the ratio root, as a list of at most one pair.

    An empty list means that no positive solution exists (lam <= lam*); a
    solution that overflows a float raises ConvergenceError.
    """
    root = ratio_root(inst, inst.mu1, inst.mu2, inst.alpha, inst.beta, inst.two_star)
    return [] if root is None else [root]


def _mixed_sign_cells(sign_arr):
    """Cells of the last two axes whose four corners take both signs."""
    a, b = sign_arr[..., :-1, :-1], sign_arr[..., 1:, :-1]
    c, d = sign_arr[..., :-1, 1:], sign_arr[..., 1:, 1:]
    mn = np.minimum(np.minimum(a, b), np.minimum(c, d))
    mx = np.maximum(np.maximum(a, b), np.maximum(c, d))
    return (mn < 0) & (mx > 0)


def _witness_cells(inst: SyncInstance, gs, gt):
    """Edges (s0, s1, t0, t1) of the cells of the grids gs[c] x gt[c]
    where both residuals change sign."""
    r1, r2 = sync_residuals(inst, gs[:, :, None], gt[:, None, :])
    c, i, j = np.nonzero(_mixed_sign_cells(np.sign(r1)) & _mixed_sign_cells(np.sign(r2)))
    return gs[c, i], gs[c, i + 1], gt[c, j], gt[c, j + 1]


def _concat_cells(parts):
    return (np.concatenate(a) for a in zip(*parts))


def sync_brute_cells(
    inst: SyncInstance, grid_points: int = 1000, depth: int = 4, refine: int = 8
) -> int:
    """Count grid cells where both residual surfaces change sign.

    A derivative-free existence witness, independent of the ratio
    reduction: a positive count flags a candidate root region, zero means
    the two zero-level curves do not meet on the scanned window
    BRUTE_SPAN^2.  Flagged cells are refined recursively, because near the
    emptiness threshold the two curves run almost tangent and a single
    coarse cell can contain both without them crossing.  No evaluation
    holds more than BLOCK_POINTS grid points, unless two coarse rows or one
    refined cell alone exceed it: the coarse grid is scanned in blocks of
    rows, adjacent blocks sharing one row so that each cell lies in exactly
    one block, and each level refines its cells in chunks of
    BLOCK_POINTS // (refine + 1)**2.
    """
    if grid_points < 2:
        return 0
    g = np.geomspace(*BRUTE_SPAN, grid_points)[None, :]
    rows = max(2, BLOCK_POINTS // grid_points)
    s0, s1, t0, t1 = _concat_cells(
        _witness_cells(inst, g[:, start:start + rows], g)
        for start in range(0, grid_points - 1, rows - 1)
    )
    chunk = max(1, BLOCK_POINTS // (refine + 1) ** 2)
    for _ in range(depth):
        if s0.size == 0:
            return 0
        if s0.size > 200000:
            break
        parts = []
        for start in range(0, s0.size, chunk):
            sl = slice(start, start + chunk)
            gs = np.geomspace(s0[sl], s1[sl], refine + 1, axis=1)
            gt = np.geomspace(t0[sl], t1[sl], refine + 1, axis=1)
            parts.append(_witness_cells(inst, gs, gt))
        s0, s1, t0, t1 = _concat_cells(parts)
    return int(s0.size)


@dataclass(frozen=True)
class ThresholdBracket:
    """Emptiness threshold of the synchronized system, as a bracket."""

    lam_empty: float      # solutions absent here (more negative side)
    lam_nonempty: float   # solutions present here
    width: float

    @property
    def value(self) -> float:
        return 0.5 * (self.lam_empty + self.lam_nonempty)


def sync_threshold(
    mu1: float,
    mu2: float,
    alpha: float,
    beta: float,
    N: int,
    width: float = 1e-6,
) -> ThresholdBracket:
    """Bisect on lambda for emptiness of the synchronized system.

    Scans geometrically for an empty point, then refines the bracket down
    to the requested width, which must be finite and positive, or until
    its ends are adjacent floats.  Emptiness is decided exactly by the ratio
    window (k_lo >= k_max), so the bracket holds lam* = -(mu1^alpha mu2^beta /
    (alpha^alpha beta^beta))^{1/2*} up to rounding.
    """
    if not (math.isfinite(width) and width > 0.0):
        raise DomainError(f"bracket width must be finite and positive, got {width}")

    def solvable(lam):
        inst = SyncInstance(mu1=mu1, mu2=mu2, alpha=alpha, beta=beta, lam=lam, N=N)
        return ratio_window(inst, inst.mu1, inst.mu2, inst.alpha, inst.beta) is not None

    hi = -1e-6
    if not solvable(hi):
        raise BracketError("no solutions even at lambda = -1e-6")
    lo = -1.0
    while solvable(lo):
        lo *= 4.0
        if lo < -1e6:
            raise BracketError("solutions persist down to lambda = -1e6")
    lo, hi = bisect(solvable, lo, hi, width)
    return ThresholdBracket(lam_empty=lo, lam_nonempty=hi, width=hi - lo)


def fixed_point_free(mu: float, alpha: float, lam: float) -> bool:
    """True iff lam <= -mu/alpha, so (u, -u) cannot satisfy both residuals."""
    CouplingParams(mu, mu, alpha, alpha, lam)  # the symmetric coupling; checks mu and alpha
    return lam <= -mu / alpha


@dataclass(frozen=True)
class PlaneCoeffs:
    """Coefficients of e(s,t) with (1,1) critical."""

    a1: float
    a2: float
    b1: float
    b2: float
    d: float
    p: float
    alpha: float
    beta: float

    def __post_init__(self):
        # b1 and b2 last: plane_coeffs derives them from the other fields
        for name in ("a1", "a2", "d", "p", "alpha", "beta", "b1", "b2"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite, got {getattr(self, name)}")
        for name in ("a1", "a2", "d", "b1", "b2"):
            if getattr(self, name) <= 0.0:
                raise DomainError(f"{name} must be positive")
        if self.p <= 2.0:
            raise DomainError("p must exceed 2")
        if self.alpha <= 1.0 or self.beta <= 1.0:
            raise DomainError("alpha, beta must exceed 1")
        if abs(self.alpha + self.beta - self.p) > 1e-9:
            raise DomainError("alpha + beta must equal p")
        for res in (
            2.0 * self.a1 - self.p * self.b1 + self.d * self.alpha,
            2.0 * self.a2 - self.p * self.b2 + self.d * self.beta,
        ):
            if abs(res) > 1e-12 * max(1.0, self.p * max(self.b1, self.b2)):
                raise DomainError("coefficients do not make (1,1) critical")


def plane_coeffs(a1: float, a2: float, d: float, p: float, alpha: float, beta: float) -> PlaneCoeffs:
    """Complete (a1, a2, d) to coefficients with (1, 1) critical; PlaneCoeffs checks them."""
    b1 = (2.0 * a1 + d * alpha) / p
    b2 = (2.0 * a2 + d * beta) / p
    return PlaneCoeffs(a1=a1, a2=a2, b1=b1, b2=b2, d=d, p=p, alpha=alpha, beta=beta)


def plane_energy(c: PlaneCoeffs, s, t):
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    return c.a1 * s**2 + c.a2 * t**2 - c.b1 * s**c.p - c.b2 * t**c.p + c.d * s**c.alpha * t**c.beta


def plane_grad(c: PlaneCoeffs, s, t):
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    es = 2.0 * c.a1 * s - c.p * c.b1 * s ** (c.p - 1.0) + c.d * c.alpha * s ** (c.alpha - 1.0) * t**c.beta
    et = 2.0 * c.a2 * t - c.p * c.b2 * t ** (c.p - 1.0) + c.d * c.beta * s**c.alpha * t ** (c.beta - 1.0)
    return es, et


def plane_hess(c: PlaneCoeffs, s, t):
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    ess = 2.0 * c.a1 - c.p * (c.p - 1.0) * c.b1 * s ** (c.p - 2.0) + c.d * c.alpha * (
        c.alpha - 1.0
    ) * s ** (c.alpha - 2.0) * t**c.beta
    ett = 2.0 * c.a2 - c.p * (c.p - 1.0) * c.b2 * t ** (c.p - 2.0) + c.d * c.beta * (
        c.beta - 1.0
    ) * s**c.alpha * t ** (c.beta - 2.0)
    est = c.d * c.alpha * c.beta * s ** (c.alpha - 1.0) * t ** (c.beta - 1.0)
    return ess, ett, est


@dataclass(frozen=True)
class BoxReport:
    r: float
    R: float
    delta: float  # the smallest inward gradient on the inner edges
    ok: bool


def _inner_gap(c: PlaneCoeffs, r: float) -> float:
    return float(min(plane_grad(c, r, r)))


def _outer_peak(c: PlaneCoeffs, R: float) -> float:
    return float(max(plane_grad(c, R, R)))


def verify_box(c: PlaneCoeffs, r: float, R: float) -> BoxReport:
    """Decide the four boundary inequalities of the trapping box [r, R]^2 at its
    corners (r, r) and (R, R), where each edge takes its extreme gradient."""
    delta = _inner_gap(c, r)
    return BoxReport(r=r, R=R, delta=delta, ok=delta > 0.0 and _outer_peak(c, R) <= -1.0)


def plane_box(c: PlaneCoeffs) -> BoxReport:
    """The trapping box [r, R]^2 with r the first 2^-k and R the first 2^k (k in
    BOX_STEPS) that pass their test: the inner test reads r alone and the outer
    test R alone.  A bound that no k passes is nan."""
    r = next((2.0**-k for k in BOX_STEPS if _inner_gap(c, 2.0**-k) > 0.0), math.nan)
    R = next((2.0**k for k in BOX_STEPS if _outer_peak(c, 2.0**k) <= -1.0), math.nan)
    return verify_box(c, r, R)


@dataclass(frozen=True)
class CriticalPoint:
    s: float
    t: float
    kind: str   # 'max', 'min', 'saddle' or 'degenerate'


def plane_critical_points(c: PlaneCoeffs, box: BoxReport = None, starts: int = 200):
    """Critical points of e inside the trapping box, with classification.

    Multi-start Newton from a starts x starts grid over the box; the
    returned report also states whether e(1,1) dominates a dense
    verification grid (meaningful when every critical point is a strict
    local maximum).
    """
    if box is None:
        box = plane_box(c)
    if not box.ok:
        raise DomainError("no valid trapping box; coefficient constraints violated?")
    g = np.linspace(box.r, box.R, starts)
    s, t = np.meshgrid(g, g)
    s = s.ravel().copy()
    t = t.ravel().copy()
    limit = 0.25 * (box.R - box.r)
    # The step is a function of (s, t) alone.  A start that lands on its
    # state of one or two steps back alternates between its last two states
    # from then on, so its state after PLANE_NEWTON_STEPS steps is known and
    # it is not stepped again.  A NaN start never compares equal and keeps
    # stepping.
    active = np.arange(s.size)
    back_s = np.full(s.size, np.nan)
    back_t = np.full(s.size, np.nan)
    for k in range(1, PLANE_NEWTON_STEPS + 1):
        if active.size == 0:
            break
        sa, ta = s[active], t[active]
        es, et = plane_grad(c, sa, ta)
        ess, ett, est = plane_hess(c, sa, ta)
        det = ess * ett - est * est
        bad = (det == 0.0) | ~np.isfinite(det)
        det[bad] = 1.0
        ds = -(es * ett - et * est) / det
        dt = -(et * ess - es * est) / det
        ds[bad] = 0.0
        dt[bad] = 0.0
        np.clip(ds, -limit, limit, out=ds)
        np.clip(dt, -limit, limit, out=dt)
        s_new = np.clip(sa + ds, 1e-9, 10.0 * box.R)
        t_new = np.clip(ta + dt, 1e-9, 10.0 * box.R)
        settled = ((s_new == sa) & (t_new == ta)) | (
            (s_new == back_s[active]) & (t_new == back_t[active])
        )
        if (PLANE_NEWTON_STEPS - k) % 2:
            s_new[settled] = sa[settled]
            t_new[settled] = ta[settled]
        s[active] = s_new
        t[active] = t_new
        back_s[active] = sa
        back_t[active] = ta
        active = active[~settled]

    es, et = plane_grad(c, s, t)
    scale = max(c.a1, c.a2, c.b1, c.b2, c.d)
    ok = (np.abs(es) <= 1e-9 * scale) & (np.abs(et) <= 1e-9 * scale)
    ok &= (s > 0) & (t > 0)
    # exact duplicates collapse first; complex order is sorted(zip(s, t)) order
    z = np.unique(s[ok] + 1j * t[ok])
    pts = zip(z.real.tolist(), z.imag.tolist())
    found = []
    for cand in pts:
        if not any(
            abs(cand[0] - q[0]) <= PLANE_DEDUP_REL * max(1.0, abs(q[0]))
            and abs(cand[1] - q[1]) <= PLANE_DEDUP_REL * max(1.0, abs(q[1]))
            for q in found
        ):
            found.append(cand)

    points = []
    for sv, tv in found:
        ess, ett, est = plane_hess(c, sv, tv)
        det = ess * ett - est * est
        if abs(det) <= 1e-10 * scale**2:
            kind = "degenerate"
        elif det < 0.0:
            kind = "saddle"
        elif ess < 0.0:
            kind = "max"
        else:
            kind = "min"
        points.append(CriticalPoint(s=float(sv), t=float(tv), kind=kind))

    gg = np.linspace(box.r, box.R, 400)
    # broadcasting evaluates every power on 400 points, not 400^2, and the
    # rows go in blocks of BLOCK_POINTS
    rows = BLOCK_POINTS // gg.size
    grid_max = float(np.max([
        plane_energy(c, gg[None, :], gg[i:i + rows, None]).max()
        for i in range(0, gg.size, rows)
    ]))
    e11 = float(plane_energy(c, 1.0, 1.0))
    return points, e11 >= grid_max - 1e-9 * max(1.0, abs(grid_max))
