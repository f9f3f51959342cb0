"""Continuation in the coupling strength and interface diagnostics.

Driving lambda down a geometric schedule, each row started from a tangent
prediction made at the row before, traces the minimal-energy pair into the
segregation regime: the overlap integral decays, (-lambda) * overlap tends
to zero, and the pair approaches the positive/negative parts of a
sign-changing minimizer of the limit problem.
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
    initial_guess,
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


def geometric_schedule(start: float = -1.0, stop: float = -1e4, num: int = 20) -> SweepSchedule:
    """Geometric ladder from start down to stop (both negative)."""
    if not (stop < start < 0.0):
        raise DomainError("need stop < start < 0")
    lam = -np.geomspace(-start, -stop, num)
    return SweepSchedule(lambdas=tuple(lam))


@dataclass
class SweepRecord:
    lam: float
    energy: float
    overlap: float
    lambda_overlap: float
    interface_theta: float
    solver_iters: int
    status: str = "ok"


@dataclass
class SweepResult:
    records: list
    limit_record: SweepRecord
    limit_result: LimitResult
    final_pair: PairState
    stats: list                  # per-lambda NehariInvariantStats
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


def _failed_record(lam, exc):
    """The all-NaN row of a solve that raised."""
    nan = math.nan
    return SweepRecord(lam=lam, energy=nan, overlap=nan, lambda_overlap=nan,
                       interface_theta=nan, solver_iters=0,
                       status=f"failed: {type(exc).__name__}: {exc}")


def _record_from_result(lam, res, pair, cp, grid):
    overlap = coupling_integral(pair.u, pair.v, cp, grid)
    return SweepRecord(
        lam=lam,
        energy=res.energy,
        overlap=overlap,
        lambda_overlap=-lam * overlap,
        interface_theta=_interface_or_nan(pair, grid),
        solver_iters=res.iterations,
        status="ok" if res.converged else f"not converged: {res.message}",
    )


def predict_start(pair: PairState, cp: CouplingParams, grid: ReducedGrid, lam_next: float):
    """Tangent prediction of the pair at lam_next from a converged pair at cp.lam, or None.

    One Euler step for ln x in the variable ln|lambda|: each node with x > 0
    becomes x exp(lambda ln(lam_next/lambda) x'/x), with x' = dx/dlambda
    from ``pair_tangent``; nodes where x = 0 stay 0.  In the segregated
    regime each component decays exponentially, so ln x is close to linear
    in ln|lambda| where x itself is not.  None when the tangent solve fails
    or the prediction is not finite.
    """
    tangent = pair_tangent(pair, cp, grid)
    if tangent is None:
        return None
    step = cp.lam * math.log(lam_next / cp.lam)
    out = []
    for x, dx in zip(pair, tangent):
        y = np.array(x, dtype=float)
        live = y > 0.0
        with np.errstate(over="ignore"):
            y[live] *= np.exp(step * dx[live] / y[live])
        if not np.isfinite(y).all():
            return None
        out.append(y)
    return PairState(*out)


def sweep_lambda(
    schedule: SweepSchedule,
    cp_base: CouplingParams,
    grid: ReducedGrid,
    opts: SolveOptions,
    init: PairState = None,
) -> SweepResult:
    """Continuation over the schedule with predicted starts, ending at the limit solve.

    After a row that converged, the next row is solved from the start
    ``predict_start`` makes from its pair.  When the prediction fails, or
    the solve from it does not converge or raises, the row is solved from
    that pair instead, and its ``solver_iters`` adds the iterations of a
    discarded solve that returned.  After a row that did not converge the
    next row starts from that row's pair; after a row whose solve raised,
    which marks its record failed, from the last pair a solve returned (the
    initial pair before any did).  ``predicted_starts`` counts the rows
    solved from a prediction, ``predictor_fallbacks`` the rows after a
    converged row that were solved from its pair.  From the fourth row on,
    an ok row whose overlap exceeds that of the previous ok row is marked
    "ok;overlap-increase".  ``monotonicity_ok`` holds when every row
    converged and no energy decreased along the schedule (beyond a relative
    1e-6).  The limit problem is started from u - v of the final pair.
    """
    pair = init if init is not None else initial_guess("bumps", grid)
    lambdas = schedule.lambdas
    records = []
    stats = []
    guess = None  # the predicted start of the next row, if any
    predicted = fallbacks = 0
    for k, lam in enumerate(lambdas):
        cp = replace(cp_base, lam=lam)
        res, discarded = None, 0
        start, guess = guess, None
        if start is not None:
            try:
                res = minimize_nehari(start, cp, grid, opts)
                why = res.message
            except SOLVE_ERRORS as exc:
                why = exc
            if res is not None and res.converged:
                predicted += 1
            else:
                log.info("solve at lambda=%g from the prediction failed (%s); "
                         "solving from the previous pair", lam, why)
                fallbacks += 1
                discarded = res.iterations if res is not None else 0
                res = None
        if res is None:
            try:
                res = minimize_nehari(pair, cp, grid, opts)
            except SOLVE_ERRORS as exc:
                # keep partial results on solver failure
                records.append(_failed_record(lam, exc))
                stats.append(None)
                log.warning("solve at lambda=%g failed: %s", lam, exc)
                continue
        pair = res.pair
        record = _record_from_result(lam, res, pair, cp, grid)
        record.solver_iters += discarded
        records.append(record)
        stats.append(res.stats)
        if res.converged and k + 1 < len(lambdas):
            guess = predict_start(pair, cp, grid, lambdas[k + 1])
            fallbacks += guess is None

    # monotone only when every row converged and no energy decreased
    good = [r for r in records if r.status == "ok"]
    monotonicity_ok = len(good) == len(records)
    if not monotonicity_ok:
        log.warning(
            "%d of %d rows did not converge; energy monotonicity not established",
            len(records) - len(good), len(records),
        )
    for a, b in zip(good, good[1:]):
        if b.energy < a.energy * (1.0 - 1e-6):
            monotonicity_ok = False
            log.warning(
                "energy decreased along the schedule: %.12g -> %.12g "
                "(lambda %.6g -> %.6g); logged as a finding",
                a.energy, b.energy, a.lam, b.lam,
            )
    # segregation should be monotone once the continuation settles; flag any
    # later row whose overlap grew instead (after the check above, which
    # reads only the rows marked plain "ok")
    prev_overlap = None
    for i, rec in enumerate(records):
        if rec.status != "ok":
            continue
        if i >= 3 and prev_overlap is not None and rec.overlap > prev_overlap:
            rec.status = "ok;overlap-increase"
        prev_overlap = rec.overlap

    w0 = pair.u - pair.v
    try:
        limit_res = minimize_limit(w0, cp_base, grid, opts)
        limit_record = SweepRecord(
            lam=-math.inf,
            energy=limit_res.energy,
            overlap=0.0,
            lambda_overlap=0.0,
            interface_theta=_interface_or_nan(limit_res.w, grid),
            solver_iters=limit_res.iterations,
            status="ok" if limit_res.converged else f"not converged: {limit_res.message}",
        )
    except SOLVE_ERRORS as exc:
        limit_res = None
        limit_record = _failed_record(-math.inf, exc)
        log.warning("limit solve failed: %s", exc)
    return SweepResult(
        records=records,
        limit_record=limit_record,
        limit_result=limit_res,
        final_pair=pair,
        stats=stats,
        monotonicity_ok=monotonicity_ok,
        predicted_starts=predicted,
        predictor_fallbacks=fallbacks,
    )
