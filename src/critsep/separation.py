"""Continuation in the coupling strength and interface diagnostics.

Driving lambda down a geometric schedule, each row started from a prediction
made from the tangents of up to the last three converged rows, traces the
minimal-energy pair into the segregation regime: the overlap integral
decays, (-lambda) * overlap tends to zero, and the pair approaches the
positive/negative parts of a sign-changing minimizer of the limit problem.
The sweep records per-lambda diagnostics, finishes with the limit solve,
and re-asserts the on-manifold invariants collected by the solver.

Interface location is by the sign change of u - v (respectively of the
limit profile w): the minimizers split the arc into exactly two intervals,
one touching each endpoint, and the common boundary is a single point.
Deviations from that picture are reported, never silently repaired.
"""

import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, TopologyError
from .functional import CouplingParams, PairState, coupling_integral
from .geometry import ReducedGrid
from .solver import (
    SOLVE_ERRORS,
    LimitResult,
    SolveOptions,
    cold_start,
    minimize_limit,
    minimize_nehari,
    pair_tangent,
)

__all__ = [
    "SweepRecord",
    "SweepResult",
    "SweepSchedule",
    "ToriReport",
    "geometric_schedule",
    "interface_locate",
    "predict_start",
    "sweep_lambda",
    "verify_tori",
]

log = logging.getLogger(__name__)

SIGN_DEADBAND = 1e-12  # relative; nodes this far below the peak count as zero


@dataclass(frozen=True)
class SweepSchedule:
    """Strictly decreasing sequence of negative coupling values."""

    lambdas: tuple

    def __post_init__(self):
        lam = tuple(float(x) for x in self.lambdas)
        object.__setattr__(self, "lambdas", lam)
        if len(lam) == 0:
            raise DomainError("schedule must contain at least one value")
        if not all(map(math.isfinite, lam)):
            raise DomainError("all schedule values must be finite")
        if any(x >= 0.0 for x in lam):
            raise DomainError("all schedule values must be negative")
        if any(b >= a for a, b in zip(lam, lam[1:])):
            raise DomainError("schedule must be strictly decreasing")


def geometric_schedule(start: float, stop: float, num: int) -> SweepSchedule:
    """Geometric ladder from start down to stop (both negative)."""
    if not (stop < start < 0.0):
        raise DomainError("need stop < start < 0")
    lam = -np.geomspace(-start, -stop, num)
    return SweepSchedule(lambdas=tuple(lam))


@dataclass
class SweepRecord:
    """One sweep row; ``stats`` is the NehariInvariantStats of its solve (None for a
    failed row and for the limit row) and is not written to the sweep table."""

    lam: float
    energy: float
    overlap: float
    lambda_overlap: float
    interface_theta: float
    solver_iters: int
    status: str = "ok"
    stats: object = None


@dataclass
class SweepResult:
    records: list
    limit_record: SweepRecord
    limit_result: LimitResult
    final_pair: PairState
    monotonicity_ok: bool = True
    predicted_starts: int = 0    # rows solved from a tangent prediction
    predictor_fallbacks: int = 0  # rows after a converged row solved from its pair


def _deadband_signs(w: np.ndarray) -> np.ndarray:
    """Signs of w by comparison; samples within SIGN_DEADBAND of the peak |w|, and all
    of them when a sample is NaN (so is the peak), count as 0."""
    band = SIGN_DEADBAND * np.max(np.abs(w)) if w.size else 0.0
    return (w > band).astype(int) - (w < -band)


def interface_locate(profile, grid: ReducedGrid) -> float:
    """Arc position of the unique sign change, by linear interpolation.

    Accepts a pair (the sign change of u - v is located) or a single
    profile.  Raises TopologyError when the number of sign changes differs
    from one; near-zero samples (below 1e-12 of the peak) are ignored
    rather than counted as crossings.
    """
    if isinstance(profile, PairState):
        w = np.asarray(profile.u, dtype=float) - np.asarray(profile.v, dtype=float)
    else:
        w = np.asarray(profile, dtype=float)
    if w.shape != (grid.size,):
        raise DomainError(f"profile has shape {w.shape}, grid expects ({grid.size},)")
    if not w.any():
        raise TopologyError("profile vanishes identically", crossings=0)
    signs = _deadband_signs(w)
    live = np.flatnonzero(signs)
    flips = np.flatnonzero(np.diff(signs[live]))
    if flips.size != 1:
        raise TopologyError(f"expected exactly one sign change, found {flips.size}",
                            crossings=int(flips.size))
    i, j = live[flips[0]], live[flips[0] + 1]
    th_i, th_j = grid.theta[i], grid.theta[j]
    return float(th_i + (th_j - th_i) * w[i] / (w[i] - w[j]))


@dataclass
class ToriReport:
    """Sign-structure summary of a limit profile.

    The component whose support touches theta = 0 is the neighborhood of
    the first factor sphere: after adding the point at infinity its domain
    is a sphere-times-ball product, and the complementary component is the
    ball-times-sphere one; the common boundary is the product of both
    factor spheres over the single interface orbit.
    """

    passed: bool
    sign_changes: int
    positive_blocks: int
    negative_blocks: int
    interface_theta: float
    positive_touches_zero: bool
    detail: str


def verify_tori(w: np.ndarray, grid: ReducedGrid) -> ToriReport:
    """Check that a limit profile has the two-arc support structure."""
    signs = _deadband_signs(np.asarray(w, dtype=float))
    live = np.flatnonzero(signs)
    blocks = signs[np.diff(signs, prepend=0) != 0]  # the sign of each run of equal signs
    n_pos, n_neg = int((blocks == 1).sum()), int((blocks == -1).sum())
    sign_changes = int(np.count_nonzero(np.diff(signs[live])))

    problems = []
    if n_pos != 1:
        problems.append(f"positive support has {n_pos} components")
    if n_neg != 1:
        problems.append(f"negative support has {n_neg} components")
    if sign_changes != 1:
        problems.append(f"{sign_changes} sign changes")
    theta0 = math.nan
    positive_touches_zero = False
    if not problems:
        theta0 = interface_locate(w, grid)
        positive_touches_zero = bool(signs[live[0]] > 0)
        # each support must run all the way to its endpoint of the arc
        if live[0] > 1 or live[-1] < grid.size - 2:
            problems.append("supports do not abut the arc endpoints")
    detail = "; ".join(problems) if problems else (
        "one interface at theta0=%.6f; %s component touches theta=0 "
        "(sphere-times-ball side)" % (theta0, "positive" if positive_touches_zero else "negative")
    )
    return ToriReport(
        passed=not problems,
        sign_changes=sign_changes,
        positive_blocks=n_pos,
        negative_blocks=n_neg,
        interface_theta=theta0,
        positive_touches_zero=positive_touches_zero,
        detail=detail,
    )


def _interface_or_nan(profile, grid):
    """interface_locate, or NaN when the profile has no single sign change."""
    try:
        return interface_locate(profile, grid)
    except TopologyError:
        return math.nan


def _failed_record(lam, exc, solver_iters):
    """The all-NaN row of a solve that raised, after ``solver_iters`` iterations of discarded solves."""
    return SweepRecord(lam=lam, energy=math.nan, overlap=math.nan, lambda_overlap=math.nan,
                       interface_theta=math.nan, solver_iters=solver_iters,
                       status=f"failed: {type(exc).__name__}: {exc}")


def _status(res):
    return "ok" if res.converged else f"not converged: {res.message}"


def _record_from_result(lam, res, pair, cp, grid):
    overlap = coupling_integral(pair.u, pair.v, cp, grid)
    return SweepRecord(
        lam=lam,
        energy=res.energy,
        overlap=overlap,
        lambda_overlap=-lam * overlap,
        interface_theta=_interface_or_nan(pair, grid),
        solver_iters=res.iterations,
        status=_status(res),
        stats=res.stats,
    )


def _hermite_weights(nodes, h):
    """Weights (a, b) with p(h) = sum_j a_j p(t_j) + b_j p'(t_j) for every polynomial p
    of degree below 2 len(nodes): a_j = (1 - 2 (h - t_j) l_j'(t_j)) l_j(h)^2 and
    b_j = (h - t_j) l_j(h)^2, with l_j the Lagrange basis of the nodes t_j."""
    a, b = [], []
    for j, tj in enumerate(nodes):
        others = nodes[:j] + nodes[j + 1:]
        l2 = math.prod((h - tk) / (tj - tk) for tk in others) ** 2
        a.append((1.0 - 2.0 * (h - tj) * sum(1.0 / (tj - tk) for tk in others)) * l2)
        b.append((h - tj) * l2)
    return a, b


def _hermite_step(weights, rows, y, dy):
    """The Hermite extrapolation minus y, from the earlier rows and the slope dy at this
    row (its value term, a_j (y - y), is 0)."""
    a, b = weights
    step = b[-1] * dy
    for aj, bj, (_, yj, dyj) in zip(a, b, rows):
        step = step + aj * (yj - y) + bj * dyj
    return step


def predict_start(pair: PairState, cp: CouplingParams, grid: ReducedGrid, lam_next: float,
                  prev=()):
    """Predicted pair at lam_next from a converged pair at cp.lam, and this row's history.

    The prediction is made for y = ln x in s = ln|lambda| at each node where
    x > 0; nodes where x = 0 stay 0.  In the segregated regime each
    component decays exponentially, so ln x is close to polynomial in
    ln|lambda| where x itself is not.  The slope y' = lambda x'/x comes from
    the branch tangent x' = dx/dlambda of ``pair_tangent``, and the start is
    x exp(z), h = ln(lam_next/lambda).

    ``prev`` holds up to two earlier converged rows, oldest first, each
    (lambda, ln x, y') as this function returns it.  The exponent z is
    built level by level: level j is the Hermite extrapolation through
    (y, y') at this row and the last j rows of ``prev``, minus y and the
    levels before it, clipped at each node to the size of the previous
    level's correction, and taken only at nodes where x > 0 in every row it
    uses.  Level 0 has one node, so it is the Euler term h y'; the cubic can
    at most double or cancel it, and the quintic the cubic's correction.
    The Hermite weights are scalars, computed once per level.

    Returns (start, row), where row = (lambda, ln x, y') is this row's entry
    for the next call's ``prev``, with (2, size) arrays (ln x is -inf and y'
    is 0 where x = 0); (None, None) when the tangent solve fails or the
    prediction is not finite.
    """
    tangent = pair_tangent(pair, cp, grid)
    if tangent is None:
        return None, None
    h = math.log(lam_next / cp.lam)
    nodes = [math.log(lam / cp.lam) for lam, _, _ in prev] + [0.0]
    rows = [(lam, np.asarray(y), np.asarray(dy)) for lam, y, dy in prev]
    x, dx = np.array(pair, dtype=float), np.array(tangent)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        y = np.log(x)
        live = x > 0.0
        dy = np.zeros_like(x)
        dy[live] = cp.lam * dx[live] / x[live]
        z = np.zeros_like(x)
        bound = np.inf  # the size of the previous level's correction
        for j in range(len(rows) + 1):
            if j:
                live &= rows[-j][1] > -np.inf
            step = _hermite_step(_hermite_weights(nodes[-j - 1:], h), rows[len(rows) - j:], y, dy)
            corr = np.where(live, np.clip(step - z, -bound, bound), 0.0)
            z, bound = z + corr, np.abs(corr)
        x_next = x * np.exp(z)
    if not np.isfinite(x_next).all():
        return None, None
    return PairState(*x_next), (cp.lam, y, dy)


def sweep_lambda(
    schedule: SweepSchedule,
    cp_base: CouplingParams,
    grid: ReducedGrid,
    opts: SolveOptions,
    init: PairState = None,
) -> SweepResult:
    """Continuation over the schedule with predicted starts, ending at the limit solve.

    After a row that converged, the next is solved from the start
    ``predict_start`` makes from its pair, and from that pair when the
    prediction fails or its solve does not converge or raises.  Its history
    is up to two rows before this one, back to the last row that did not
    converge, raised or failed to give a prediction (so none for the first
    prediction).  The history rows are the (lambda, ln x, y') their own
    predictions returned, so each row makes one tangent solve.

    Without ``init`` the first row starts from ``cold_start``.  The row's
    ``solver_iters``, also of a failed row, adds the iterations of a
    discarded solve that returned, and the first row's those of its cold
    start.  After any other row the
    next starts from the last pair a solve returned (the initial pair
    before any did); a row whose solve raised is marked failed.
    ``predicted_starts`` counts the rows solved from a prediction,
    ``predictor_fallbacks`` the rows after a converged row solved from its
    pair.  From the fourth row on, an ok row whose overlap exceeds the
    previous ok row's is marked "ok;overlap-increase".
    ``monotonicity_ok`` holds when every row converged and no energy
    decreased between ok rows (beyond a relative 1e-6).  The limit
    problem is started from u - v of the final pair.
    """
    if init is None:
        pair, start_iters = cold_start(replace(cp_base, lam=schedule.lambdas[0]), grid, opts)
    else:
        pair, start_iters = init, 0
    records = []
    guess = None  # the predicted start of the next row, if any
    history = ()  # (lambda, ln x, y') of up to two rows before, while rows converge
    predicted = fallbacks = 0
    for k, lam in enumerate(schedule.lambdas):
        cp = replace(cp_base, lam=lam)
        discarded = start_iters if k == 0 else 0
        for start in (pair,) if guess is None else (guess, pair):
            try:
                res = minimize_nehari(start, cp, grid, opts)
                why = res.message
            except SOLVE_ERRORS as exc:
                res, why = None, exc
            if start is pair or (res is not None and res.converged):
                break
            log.info("solve at lambda=%g from the prediction failed (%s); "
                     "solving from the previous pair", lam, why)
            fallbacks += 1
            discarded = res.iterations if res is not None else 0
        predicted += start is guess
        guess = None
        if res is None:  # keep partial results on solver failure
            history = ()
            records.append(_failed_record(lam, why, discarded))
            log.warning("solve at lambda=%g failed: %s", lam, why)
            continue
        pair = res.pair
        records.append(_record_from_result(lam, res, pair, cp, grid))
        records[-1].solver_iters += discarded
        if res.converged and k + 1 < len(schedule.lambdas):
            guess, row = predict_start(pair, cp, grid, schedule.lambdas[k + 1], history)
            fallbacks += guess is None
        history = () if guess is None else (*history, row)[-2:]

    # one pass over the plain "ok" rows: the energy check, then the overlap mark
    n_bad = sum(r.status != "ok" for r in records)
    monotonicity_ok = n_bad == 0
    if not monotonicity_ok:
        log.warning("%d of %d rows did not converge; energy monotonicity not established",
                    n_bad, len(records))
    prev = None
    for i, rec in enumerate(records):
        if rec.status != "ok":
            continue
        if prev is not None and rec.energy < prev.energy * (1.0 - 1e-6):
            monotonicity_ok = False
            log.warning("energy decreased along the schedule: %.12g -> %.12g (lambda %.6g -> "
                        "%.6g); logged as a finding", prev.energy, rec.energy, prev.lam, rec.lam)
        if i >= 3 and prev is not None and rec.overlap > prev.overlap:
            rec.status = "ok;overlap-increase"
        prev = rec

    try:
        limit_res = minimize_limit(pair.u - pair.v, cp_base, grid, opts)
        limit_record = SweepRecord(
            lam=-math.inf, energy=limit_res.energy, overlap=0.0, lambda_overlap=0.0,
            interface_theta=_interface_or_nan(limit_res.w, grid),
            solver_iters=limit_res.iterations, status=_status(limit_res))
    except SOLVE_ERRORS as exc:
        limit_res = None
        limit_record = _failed_record(-math.inf, exc, 0)
        log.warning("limit solve failed: %s", exc)
    return SweepResult(
        records=records,
        limit_record=limit_record,
        limit_result=limit_res,
        final_pair=pair,
        monotonicity_ok=monotonicity_ok,
        predicted_starts=predicted,
        predictor_fallbacks=fallbacks,
    )
