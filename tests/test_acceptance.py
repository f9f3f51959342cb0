"""Release acceptance suite.

One test per criterion; each prints a single summary line (run pytest with
-s to see them all) with the measured quantities at the stated tolerances.
The heavy N=4 artifacts at M=2048 (three cold solves and the full
continuation sweep) are computed once and shared.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from critsep import (
    CouplingParams,
    ModelParams,
    PairState,
    SolveOptions,
    build_grid,
    energy,
    geometric_schedule,
    initial_guess,
    interface_locate,
    minimize_limit,
    minimize_nehari,
    minimize_single,
    sobolev_constant,
    sweep_lambda,
    verify_tori,
)
from critsep import scalar
from critsep.checks import (
    cosine_series,
    gradient_fd_dev,
    quadrature_dev,
    rescaled_energy_peak,
    sobolev_dual_dev,
)

S4 = sobolev_constant(4)
SINGLE_LEVEL = 0.25 * S4 * S4          # = 8 pi^2 / 3
DOUBLE_LEVEL = 0.5 * S4 * S4           # unattained infimum of the pair problem
CP4 = CouplingParams(mu1=1.0, mu2=1.0, alpha=2.0, beta=2.0, lam=-1.0)
OPTS = SolveOptions(grad_tol=1e-6, max_iters=20000)


def report(num, title, ok, detail):
    print(f"ACCEPTANCE {num} ({title}): {'PASS' if ok else 'FAIL'}  {detail}")


@pytest.fixture(scope="module")
def grid2048():
    return build_grid(ModelParams(N=4, m=2, n=3, M=2048))


@pytest.fixture(scope="module")
def level_solves(grid2048):
    """Criterion-3 solves: cold starts at lambda in {-1, -10, -1e3}."""
    out = {}
    for lam in (-1.0, -10.0, -1e3):
        cp = replace(CP4, lam=lam)
        out[lam] = minimize_nehari(initial_guess("bumps", grid2048, 0), cp, grid2048, OPTS)
    return out


@pytest.fixture(scope="module")
def sweep2048(grid2048):
    """Criterion-4 sweep: 44-point geometric continuation (ratio ~1.62) to -1e9."""
    return sweep_lambda(geometric_schedule(-1.0, -1e9, 44), CP4, grid2048, OPTS)


def test_criterion_1_geometry_identities():
    t0 = time.time()
    worst_quad = quadrature_dev()
    worst_dual = max(sobolev_dual_dev(N) for N in range(4, 9))
    dt = time.time() - t0
    ok = worst_quad <= 1e-10 and worst_dual <= 1e-10 and dt < 1.0
    report(1, "geometry identities", ok,
           f"quad dev {worst_quad:.2e}, dual dev {worst_dual:.2e}, {dt:.2f}s")
    assert worst_quad <= 1e-10
    assert worst_dual <= 1e-10
    assert dt < 1.0


def test_criterion_2_single_equation_level():
    t0 = time.time()
    errors = {}
    for M in (256, 512, 1024, 2048):
        grid = build_grid(ModelParams(N=4, m=2, n=3, M=M))
        res = minimize_single(initial_guess("bumps", grid, 0).u, 1.0, grid, OPTS)
        assert res.converged
        errors[M] = abs(res.energy - SINGLE_LEVEL) / SINGLE_LEVEL
    dt = time.time() - t0
    within = errors[2048] <= 5e-3
    # order under refinement: with exactness-normalized quadrature the
    # constant solution is represented exactly, so the errors sit at
    # roundoff on every level; a measurable sequence must contract ~4x
    measurable = errors[256] > 1e-12
    if measurable:
        order_ok = errors[512] <= errors[256] / 2.5 and errors[1024] <= errors[512] / 2.5
        order_note = f"errors {[f'{errors[M]:.2e}' for M in (256, 512, 1024, 2048)]}"
    else:
        order_ok = True
        order_note = f"errors at roundoff on all levels (max {max(errors.values()):.2e})"
    ok = within and order_ok and dt < 10.0
    report(2, "single-equation level", ok,
           f"level dev {errors[2048]:.2e} vs 0.5%, {order_note}, {dt:.1f}s")
    assert within
    assert order_ok
    assert dt < 10.0


def test_criterion_3_strict_level_gap(level_solves):
    floor = 1.01 * DOUBLE_LEVEL
    vals = {lam: res.energy for lam, res in level_solves.items()}
    ok = all(res.converged for res in level_solves.values()) and all(
        v > floor for v in vals.values()
    )
    report(3, "strict level gap", ok,
           f"c_lam {[f'{lam:g}: {v:.2f}' for lam, v in vals.items()]} "
           f"all > {floor:.2f}")
    for lam, res in level_solves.items():
        assert res.converged
        assert res.energy > floor


def test_criterion_4_phase_separation(sweep2048):
    res = sweep2048
    assert all(r.status == "ok" for r in res.records)
    assert res.limit_record.status == "ok"
    overlaps = [r.overlap for r in res.records]
    lam_ovl = [r.lambda_overlap for r in res.records]
    overlap_factor = overlaps[-1] / overlaps[0]
    lam_ovl_factor = lam_ovl[-1] / max(lam_ovl)
    gap = abs(res.records[-1].energy - res.limit_record.energy) / res.limit_record.energy
    ok_overlap = overlap_factor <= 1e-3
    ok_lam_ovl = lam_ovl_factor <= 1e-2
    ok_gap = gap <= 1e-2
    # independent of the thresholds, the limit level must dominate the
    # unattained decoupled level strictly
    ok_cinf = res.limit_record.energy > 1.01 * DOUBLE_LEVEL
    report(
        4,
        "phase separation",
        ok_overlap and ok_lam_ovl and ok_gap and ok_cinf,
        f"overlap x{overlap_factor:.2e} (<=1e-3: {ok_overlap}), "
        f"lam*overlap {lam_ovl_factor:.2%} of max (<=1%: {ok_lam_ovl}), "
        f"gap {gap:.2%} (<=1%: {ok_gap}), c_inf {res.limit_record.energy:.2f}",
    )
    assert ok_cinf
    assert ok_overlap, f"overlap fell only by factor {overlap_factor:.3e}"
    # The two assertions below encode the frozen 1% regression factors
    # verbatim.  Both quantities decay like |lambda|^{-1/4}, the interface
    # scale of the segregation regime (gap * |lambda|^{1/4} ~ 0.64 at N=4,
    # mu=1, alpha=beta=2, independent of M), so the gap first reaches 1%
    # near lambda = -1.8e7 and lambda*overlap near -3.8e8; this is why the
    # sweep runs to -1e9, where they read ~0.36% and ~0.76%.
    lam_end = res.records[-1].lam
    assert ok_lam_ovl, (
        f"lambda*overlap only fell to {lam_ovl_factor:.2%} of its maximum at "
        f"lambda={lam_end:.3g} (regression target 1%)"
    )
    assert ok_gap, (
        f"|c_lam - c_inf|/c_inf = {gap:.2%} at lambda={lam_end:.3g} "
        f"(regression target 1%)"
    )


def test_criterion_5_interface_geometry(grid2048, sweep2048):
    w = sweep2048.limit_result.w
    rep = verify_tori(w, grid2048)
    theta0 = rep.interface_theta
    ok_n4 = rep.passed and 0.0 < theta0 < math.pi / 2

    params5 = ModelParams(N=5, m=3, n=3, M=512)
    grid5 = build_grid(params5)
    cp5 = CouplingParams(mu1=1.0, mu2=1.0, alpha=5.0 / 3.0, beta=5.0 / 3.0, lam=-1.0)
    init5 = initial_guess("bumps", grid5, 0)
    res5 = minimize_limit(init5.u - init5.v, cp5, grid5, OPTS)
    theta5 = interface_locate(res5.w, grid5)
    ok_n5 = res5.converged and abs(theta5 - math.pi / 4.0) <= grid5.h
    report(5, "interface geometry", ok_n4 and ok_n5,
           f"N=4: {rep.detail}; N=5 symmetric theta0 {theta5:.6f} "
           f"(pi/4 within one cell of {grid5.h:.4f})")
    assert ok_n4
    assert ok_n5


def test_criterion_6_nehari_invariant_battery(grid2048, level_solves, sweep2048):
    stats = [res.stats for res in level_solves.values()]
    stats += [s for s in sweep2048.stats if s is not None]
    worst_dev = max(s.max_energy_identity_dev for s in stats)
    worst_bound = min(min(s.min_bound_ratio_u, s.min_bound_ratio_v) for s in stats)
    worst_det = min(s.min_det_ratio for s in stats)
    iterates = sum(s.count for s in stats)

    # max-property spot-check: 100 random rescalings around each final pair
    rng = np.random.default_rng(2048)
    max_prop_ok = True
    for lam, res in level_solves.items():
        cp = replace(CP4, lam=lam)
        base = energy(res.pair, cp, grid2048)
        if rescaled_energy_peak(res.pair, cp, grid2048, rng, 100) > base + 1e-9 * abs(base):
            max_prop_ok = False
    ok = (
        worst_dev <= 1e-8
        and worst_bound >= 0.99
        and worst_det >= 0.99
        and max_prop_ok
    )
    report(6, "Nehari invariant battery", ok,
           f"{iterates} iterates: identity dev {worst_dev:.2e}, "
           f"norm-floor ratio {worst_bound:.3f}, det ratio {worst_det:.3f}, "
           f"max property {max_prop_ok}")
    assert worst_dev <= 1e-8
    assert worst_bound >= 0.99
    assert worst_det >= 0.99
    assert max_prop_ok


def test_criterion_7_synchronized_threshold():
    t0 = time.time()
    base = scalar.sync_threshold(1.0, 1.0, 2.0, 2.0, 4, width=1e-8)
    diag_ok = abs(base.value - (-0.5)) <= 1e-6
    empty_below = scalar.sync_solve(
        scalar.SyncInstance(mu1=1, mu2=1, alpha=2, beta=2, lam=base.value - 1e-3, N=4)
    ) == []
    brute_above = scalar.sync_brute_cells(
        scalar.SyncInstance(mu1=1, mu2=1, alpha=2, beta=2, lam=base.value + 1e-2, N=4)
    )
    brute_below = scalar.sync_brute_cells(
        scalar.SyncInstance(mu1=1, mu2=1, alpha=2, beta=2, lam=base.value - 1e-2, N=4)
    )
    scaled = scalar.sync_threshold(4.0, 4.0, 2.0, 2.0, 4, width=1e-8)
    scale_ok = abs(scaled.value - 4.0 * base.value) <= 1e-6
    dt = time.time() - t0
    ok = (
        diag_ok and empty_below and brute_above > 0 and brute_below == 0
        and scale_ok and dt < 60.0
    )
    report(7, "synchronized threshold", ok,
           f"lam* {base.value:.8f} (diag -0.5 to 1e-6: {diag_ok}), "
           f"brute cells above/below {brute_above}/{brute_below}, "
           f"4x scale dev {abs(scaled.value - 4 * base.value):.2e}, {dt:.1f}s")
    assert diag_ok
    assert empty_below
    assert brute_above > 0
    assert brute_below == 0
    assert scale_ok
    assert dt < 60.0


def test_criterion_8_plane_function_suite():
    t0 = time.time()
    canonical = scalar.plane_coeffs(1.0, 1.0, 1.0, 4.0, 2.0, 2.0)
    points, global_ok = scalar.plane_critical_points(canonical)
    ok_canonical = (
        len(points) == 1
        and abs(points[0].s - 1.0) < 1e-7
        and abs(points[0].t - 1.0) < 1e-7
        and points[0].kind == "max"
        and global_ok
    )
    rng = np.random.default_rng(8)
    n_checked = 0
    ok_random = True
    boxes_ok = scalar.plane_box(canonical).ok
    for _ in range(50):
        c = scalar.plane_coeffs(
            float(rng.uniform(0.5, 2.0)),
            float(rng.uniform(0.5, 2.0)),
            float(rng.uniform(0.1, 1.0)),
            4.0,
            2.0,
            2.0,
        )
        box = scalar.plane_box(c)
        boxes_ok &= box.ok
        pts, gmax = scalar.plane_critical_points(c, box, starts=60)
        if all(p.kind == "max" for p in pts):
            n_checked += 1
            ok_random &= (
                len(pts) == 1
                and abs(pts[0].s - 1.0) < 1e-6
                and abs(pts[0].t - 1.0) < 1e-6
                and gmax
            )
    dt = time.time() - t0
    ok = ok_canonical and ok_random and boxes_ok and n_checked >= 45 and dt < 60.0
    report(8, "plane-function suite", ok,
           f"canonical {ok_canonical}, {n_checked}/50 instances verified, "
           f"boxes {boxes_ok}, {dt:.1f}s")
    assert ok_canonical
    assert boxes_ok
    assert ok_random
    assert n_checked >= 45
    assert dt < 60.0


def test_criterion_9_gradient_correctness():
    params = ModelParams(N=4, m=2, n=3, M=128)
    grid = build_grid(params)
    cp = CouplingParams(mu1=1.0, mu2=1.3, alpha=2.0, beta=2.0, lam=-0.7)
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(50):
        pair = PairState(np.exp(cosine_series(grid, rng)), np.exp(cosine_series(grid, rng)))
        direction = PairState(cosine_series(grid, rng), cosine_series(grid, rng))
        worst = max(worst, gradient_fd_dev(pair, direction, cp, grid))
    ok = worst <= 1e-6
    report(9, "gradient correctness", ok, f"max rel dev {worst:.2e} over 50 pairs")
    assert worst <= 1e-6
