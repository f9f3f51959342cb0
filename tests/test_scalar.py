import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from critsep import (
    ConvergenceError,
    CouplingParams,
    DomainError,
    PlaneCoeffs,
    SyncInstance,
    fixed_point_free,
    plane_box,
    plane_coeffs,
    plane_critical_points,
    sync_solve,
    sync_threshold,
)
from critsep.scalar import (
    CriticalPoint,
    _mixed_sign_cells,
    plane_energy,
    plane_grad,
    plane_hess,
    sync_brute_cells,
    sync_residuals,
    verify_box,
)

SYM = dict(mu1=1.0, mu2=1.0, alpha=2.0, beta=2.0, N=4)


def test_sync_instance_validation():
    with pytest.raises(DomainError):
        SyncInstance(mu1=-1.0, mu2=1.0, alpha=2.0, beta=2.0, lam=-1.0, N=4)
    with pytest.raises(DomainError):
        SyncInstance(mu1=1.0, mu2=1.0, alpha=1.5, beta=2.0, lam=-1.0, N=4)
    # 2* = 2N/(N-2) has no value at N = 2
    with pytest.raises(DomainError):
        SyncInstance(mu1=1.0, mu2=1.0, alpha=2.0, beta=2.0, lam=-1.0, N=2)
    # a SyncInstance is coupling constants with a dimension; replace keeps N
    # and validates both again
    inst = SyncInstance(lam=-0.25, **SYM)
    assert isinstance(inst, CouplingParams)
    moved = replace(inst, lam=-0.5)
    assert type(moved) is SyncInstance and (moved.lam, moved.N) == (-0.5, 4)
    with pytest.raises(DomainError, match="must be finite"):
        replace(inst, lam=math.nan)
    with pytest.raises(DomainError, match="for N = 5"):
        replace(inst, N=5)
    with pytest.raises(DomainError):
        sync_threshold(1.0, 1.0, 2.0, 2.0, N=2)
    for width in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(DomainError, match="width must be finite and positive"):
            sync_threshold(1.0, 1.0, 2.0, 2.0, 4, width=width)


def test_sync_solve_diagonal_branch():
    # on the diagonal s = t the system reduces to (mu + lam*alpha) s^{2*-2} = 1
    inst = SyncInstance(lam=-0.25, **SYM)
    roots = sync_solve(inst)
    target = math.sqrt(2.0)
    assert any(
        abs(s - target) < 1e-8 and abs(t - target) < 1e-8 for s, t in roots
    )
    # the symmetric system forces s = t, so the diagonal root is everything
    assert all(abs(s - t) < 1e-8 for s, t in roots)


def test_sync_solve_diagonal_vanishes_at_half():
    inst = SyncInstance(lam=-0.5, **SYM)
    assert sync_solve(inst) == []


def test_sync_solve_residual_certificates():
    rng = np.random.default_rng(5)
    for _ in range(10):
        inst = SyncInstance(
            mu1=float(rng.uniform(0.5, 3.0)),
            mu2=float(rng.uniform(0.5, 3.0)),
            alpha=2.0,
            beta=2.0,
            lam=float(-rng.uniform(0.01, 0.4)),
            N=4,
        )
        for s, t in sync_solve(inst):
            r1, r2 = sync_residuals(inst, s, t)
            assert abs(r1) <= 1e-10 and abs(r2) <= 1e-10


def test_sync_solve_decoupled_limit():
    inst = SyncInstance(mu1=2.0, mu2=5.0, alpha=2.0, beta=2.0, lam=-1e-10, N=4)
    roots = sync_solve(inst)
    s_dec = 2.0 ** (-0.5)
    t_dec = 5.0 ** (-0.5)
    assert any(
        abs(s - s_dec) < 1e-4 and abs(t - t_dec) < 1e-4 for s, t in roots
    )


def test_sync_threshold_symmetric_case():
    bracket = sync_threshold(1.0, 1.0, 2.0, 2.0, 4, width=1e-7)
    assert bracket.width <= 1e-7
    assert bracket.value == pytest.approx(-0.5, abs=1e-6)
    # emptiness just below the bracket
    inst = SyncInstance(lam=bracket.value - 1e-3, **SYM)
    assert sync_solve(inst) == []
    # brute grid scan agrees on both sides of the threshold
    assert sync_brute_cells(SyncInstance(lam=bracket.value + 1e-2, **SYM)) > 0
    assert sync_brute_cells(SyncInstance(lam=bracket.value - 1e-2, **SYM)) == 0


def test_sync_threshold_asymmetric_exists():
    bracket = sync_threshold(1.0, 100.0, 2.0, 2.0, 4, width=1e-4)
    assert bracket.value < 0.0
    above = SyncInstance(mu1=1.0, mu2=100.0, alpha=2.0, beta=2.0,
                         lam=bracket.value + 1e-2, N=4)
    below = SyncInstance(mu1=1.0, mu2=100.0, alpha=2.0, beta=2.0,
                         lam=bracket.value - 1e-2, N=4)
    assert sync_brute_cells(above) > 0
    assert sync_brute_cells(below) == 0


def test_sync_threshold_scale_covariance():
    # scaling (mu1, mu2) by c rescales the threshold by c
    base = sync_threshold(1.0, 1.0, 2.0, 2.0, 4, width=1e-8)
    scaled = sync_threshold(4.0, 4.0, 2.0, 2.0, 4, width=1e-8)
    assert scaled.value == pytest.approx(4.0 * base.value, abs=1e-6)


def test_sync_threshold_stops_at_adjacent_floats():
    # the ends become adjacent floats long before they are 1e-20 apart; the
    # bisection stops there, within rounding of the closed form -0.5
    bracket = sync_threshold(1.0, 1.0, 2.0, 2.0, 4, width=1e-20)
    assert bracket.lam_nonempty == np.nextafter(bracket.lam_empty, 0.0)
    assert max(abs(bracket.lam_empty + 0.5), abs(bracket.lam_nonempty + 0.5)) < 1.2e-16


@pytest.mark.parametrize("mu1, mu2", [(1.0, 1.0), (1.0, 2.0), (1.0, 100.0), (3.0, 0.5), (4.0, 4.0)])
def test_sync_threshold_closed_form_alpha_beta_two(mu1, mu2):
    # for alpha = beta = 2 solutions exist iff 2 lam > -sqrt(mu1 mu2)
    exact = -math.sqrt(mu1 * mu2) / 2.0
    bracket = sync_threshold(mu1, mu2, 2.0, 2.0, 4, width=1e-10)
    assert bracket.width <= 1e-10
    assert bracket.lam_empty <= exact + 1e-12
    assert exact - 1e-12 <= bracket.lam_nonempty


@pytest.mark.parametrize("mu1, mu2, alpha, N", [
    (1.0, 1.0, 1.5, 5), (2.0, 0.7, 1.5, 5), (1.0, 3.0, 1.2, 6), (0.5, 1.0, 1.9, 6),
])
def test_sync_threshold_closed_form_general(mu1, mu2, alpha, N):
    # k_lo = k_max at lam* = -(mu1^alpha mu2^beta / (alpha^alpha beta^beta))^{1/2*}
    beta = 2.0 * N / (N - 2.0) - alpha
    exact = -((mu1**alpha * mu2**beta) / (alpha**alpha * beta**beta)) ** (1.0 / (alpha + beta))
    bracket = sync_threshold(mu1, mu2, alpha, beta, N, width=1e-10)
    assert bracket.lam_empty <= exact + 1e-12
    assert exact - 1e-12 <= bracket.lam_nonempty


@pytest.mark.parametrize("offset", [1e-7, 1e-6, 1e-5])
def test_sync_solve_just_above_threshold(offset):
    # near lam* = -1/sqrt(2) the solution runs off to s ~ 780 / sqrt(offset / 1e-6)
    mu1, mu2, lam = 1.0, 2.0, -1.0 / math.sqrt(2.0) + offset
    inst = SyncInstance(mu1=mu1, mu2=mu2, alpha=2.0, beta=2.0, lam=lam, N=4)
    roots = sync_solve(inst)
    assert len(roots) == 1
    s, t = roots[0]
    # alpha = beta = 2: s^2 = (mu2 - 2 lam) / (mu1 mu2 - 4 lam^2), t^2 likewise
    assert s**2 == pytest.approx((mu2 - 2 * lam) / (mu1 * mu2 - 4 * lam**2), rel=1e-6)
    assert t**2 == pytest.approx((mu1 - 2 * lam) / (mu1 * mu2 - 4 * lam**2), rel=1e-6)
    r1, r2 = sync_residuals(inst, s, t)
    assert max(abs(r1), abs(r2)) <= 1e-10 * mu1 * s**2


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_sync_solve_whose_root_overflows_fails_typed():
    # mu1 = -lam = 1e-300: s = base^(-(N-2)/4) with base ~ 1e-300 fits a
    # float at N = 4 and overflows at N = 8, which must be a ConvergenceError
    tiny = dict(mu1=1e-300, mu2=1.0, lam=-1e-300)
    assert sync_solve(SyncInstance(alpha=2.0, beta=2.0, N=4, **tiny)) == [
        (1e150, 1.7320508075688772)
    ]
    with pytest.raises(ConvergenceError, match="the ratio root overflows"):
        sync_solve(SyncInstance(alpha=4.0 / 3.0, beta=4.0 / 3.0, N=8, **tiny))


def test_sync_solve_needs_repulsive_coupling():
    with pytest.raises(DomainError):
        sync_solve(SyncInstance(lam=0.0, **SYM))


def test_fixed_point_free_cases():
    assert fixed_point_free(1.0, 2.0, -0.5) is True      # boundary included
    assert fixed_point_free(1.0, 2.0, -0.4) is False
    assert fixed_point_free(2.0, 1.5, -1.4) is True      # -mu/alpha = -4/3
    # monotone in lambda: once free, stays free as lambda decreases
    for lam in (-0.5, -0.7, -2.0, -100.0):
        assert fixed_point_free(1.0, 2.0, lam)


def test_plane_coeffs_canonical_instance():
    c = plane_coeffs(1.0, 1.0, 1.0, 4.0, 2.0, 2.0)
    assert c.b1 == pytest.approx(1.0) and c.b2 == pytest.approx(1.0)
    # e(s,t) = s^2 + t^2 - s^4 - t^4 + s^2 t^2 and (1,1) is critical
    assert plane_energy(c, 1.0, 1.0) == pytest.approx(1.0)
    assert plane_energy(c, 2.0, 1.0) == pytest.approx(4 + 1 - 16 - 1 + 4)
    es, et = plane_grad(c, 1.0, 1.0)
    assert abs(float(es)) < 1e-14 and abs(float(et)) < 1e-14
    # 2 a1 - p b1 + d alpha must vanish by construction
    assert 2 * c.a1 - c.p * c.b1 + c.d * c.alpha == pytest.approx(0.0, abs=1e-12)


def test_plane_coeffs_decoupled_limit():
    c = plane_coeffs(1.0, 1.5, 1e-12, 4.0, 2.0, 2.0)
    assert c.b1 == pytest.approx(2.0 * 1.0 / 4.0, rel=1e-9)
    assert c.b2 == pytest.approx(2.0 * 1.5 / 4.0, rel=1e-9)


def test_plane_coeffs_validation():
    with pytest.raises(DomainError):
        plane_coeffs(-1.0, 1.0, 1.0, 4.0, 2.0, 2.0)
    with pytest.raises(DomainError):
        PlaneCoeffs(a1=1, a2=1, b1=5.0, b2=1.0, d=1.0, p=4.0, alpha=2.0, beta=2.0)
    # a non-finite field passes every comparison with NaN: it is named instead
    args = dict(a1=1.0, a2=1.0, d=1.0, p=4.0, alpha=2.0, beta=2.0)
    for name in args:
        for bad in (math.nan, math.inf):
            with pytest.raises(DomainError, match=f"^{name} must be finite"):
                plane_coeffs(**{**args, name: bad})


def test_plane_box_canonical_and_finer_grid():
    # the corners decide the box: 10000 points on each edge find no inward
    # gradient below delta on the inner edges and none above -1 on the outer
    c = plane_coeffs(1.0, 1.0, 1.0, 4.0, 2.0, 2.0)
    box = plane_box(c)
    assert box.ok
    assert box.r < 1.0 < box.R
    assert box.delta > 0.0
    edge = np.linspace(box.r, box.R, 10000)
    (es_r, _), (_, et_r) = plane_grad(c, box.r, edge), plane_grad(c, edge, box.r)
    (es_R, _), (_, et_R) = plane_grad(c, box.R, edge), plane_grad(c, edge, box.R)
    assert min(es_r.min(), et_r.min()) == box.delta
    assert max(es_R.max(), et_R.max()) <= -1.0


def test_plane_box_negative_control():
    # an outer edge below the critical point cannot satisfy the inequalities
    c = plane_coeffs(1.0, 1.0, 1.0, 4.0, 2.0, 2.0)
    bad = verify_box(c, 0.5, 0.9)
    assert not bad.ok


def test_plane_box_coefficient_scaling():
    c = plane_coeffs(1.0, 1.0, 1.0, 4.0, 2.0, 2.0)
    box = plane_box(c)
    scaled = PlaneCoeffs(
        a1=3.0 * c.a1, a2=3.0 * c.a2, b1=3.0 * c.b1, b2=3.0 * c.b2,
        d=3.0 * c.d, p=c.p, alpha=c.alpha, beta=c.beta,
    )
    rep = verify_box(scaled, box.r, box.R)
    assert rep.ok
    assert rep.delta == pytest.approx(3.0 * box.delta, rel=1e-12)


def test_plane_critical_points_canonical():
    c = plane_coeffs(1.0, 1.0, 1.0, 4.0, 2.0, 2.0)
    points, global_ok = plane_critical_points(c)
    assert len(points) == 1
    assert points[0].s == pytest.approx(1.0, abs=1e-8)
    assert points[0].t == pytest.approx(1.0, abs=1e-8)
    assert points[0].kind == "max"
    assert global_ok


def test_plane_critical_points_random_instances():
    rng = np.random.default_rng(11)
    checked = 0
    for _ in range(50):
        c = plane_coeffs(
            float(rng.uniform(0.5, 2.0)),
            float(rng.uniform(0.5, 2.0)),
            float(rng.uniform(0.1, 1.0)),
            4.0,
            2.0,
            2.0,
        )
        points, global_ok = plane_critical_points(c, starts=60)
        if all(pt.kind == "max" for pt in points):
            checked += 1
            assert len(points) == 1
            assert points[0].s == pytest.approx(1.0, abs=1e-7)
            assert points[0].t == pytest.approx(1.0, abs=1e-7)
            assert global_ok
    assert checked >= 45  # the hypothesis holds on almost every draw


def test_plane_critical_points_symmetric_coefficients():
    c = plane_coeffs(1.3, 1.3, 0.6, 4.0, 2.0, 2.0)
    points, _ = plane_critical_points(c, starts=80)
    for pt in points:
        # the critical set is swap-symmetric; here it is the diagonal point
        assert pt.s == pytest.approx(pt.t, abs=1e-9)


def test_plane_energy_decays_along_rays():
    c = plane_coeffs(1.0, 1.0, 1.0, 4.0, 2.0, 2.0)
    box = plane_box(c)
    radius = 10.0 * box.R
    for tau in np.linspace(0.05, 1.0, 8):
        val = float(plane_energy(c, radius, tau * radius))
        assert val < plane_energy(c, 1.0, 1.0) - 1.0


# ----------------------------------------------------- loop references
#
# The per-start and per-cell loops that plane_critical_points and
# sync_brute_cells replaced with frozen and batched evaluation.  The
# arithmetic is unchanged, so the results must compare equal.


def reference_plane_critical_points(c, box, starts=200, max_iter=80, dedup_rel=1e-8):
    """Multi-start Newton with every start iterated max_iter times."""
    g = np.linspace(box.r, box.R, starts)
    s, t = np.meshgrid(g, g)
    s = s.ravel().copy()
    t = t.ravel().copy()
    for _ in range(max_iter):
        es, et = plane_grad(c, s, t)
        ess, ett, est = plane_hess(c, s, t)
        det = ess * ett - est * est
        bad = (det == 0.0) | ~np.isfinite(det)
        det[bad] = 1.0
        ds = -(es * ett - et * est) / det
        dt = -(et * ess - es * est) / det
        ds[bad] = 0.0
        dt[bad] = 0.0
        limit = 0.25 * (box.R - box.r)
        np.clip(ds, -limit, limit, out=ds)
        np.clip(dt, -limit, limit, out=dt)
        s += ds
        t += dt
        s = np.clip(s, 1e-9, 10.0 * box.R)
        t = np.clip(t, 1e-9, 10.0 * box.R)

    es, et = plane_grad(c, s, t)
    scale = max(c.a1, c.a2, c.b1, c.b2, c.d)
    ok = (np.abs(es) <= 1e-9 * scale) & (np.abs(et) <= 1e-9 * scale)
    ok &= (s > 0) & (t > 0)
    pts = sorted(zip(s[ok], t[ok]))
    found = []
    for cand in pts:
        if not any(
            abs(cand[0] - q[0]) <= dedup_rel * max(1.0, abs(q[0]))
            and abs(cand[1] - q[1]) <= dedup_rel * max(1.0, abs(q[1]))
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
    ss, tt = np.meshgrid(gg, gg)
    grid_max = float(plane_energy(c, ss, tt).max())
    e11 = float(plane_energy(c, 1.0, 1.0))
    return points, e11 >= grid_max - 1e-9 * max(1.0, abs(grid_max))


def reference_sync_brute_cells(inst, grid_points=1000, span=(1e-3, 1e3), depth=4, refine=8):
    """Witness cell count with one residual evaluation per refined cell."""
    g = np.geomspace(span[0], span[1], grid_points)
    s, t = np.meshgrid(g, g, indexing="ij")
    r1, r2 = sync_residuals(inst, s, t)
    flags = _mixed_sign_cells(np.sign(r1)) & _mixed_sign_cells(np.sign(r2))
    cells = [
        (g[i], g[i + 1], g[j], g[j + 1]) for i, j in np.argwhere(flags)
    ]
    for _ in range(depth):
        if not cells:
            return 0
        if len(cells) > 200000:
            break
        next_cells = []
        for s0, s1, t0, t1 in cells:
            gs = np.geomspace(s0, s1, refine + 1)
            gt = np.geomspace(t0, t1, refine + 1)
            ss, tt = np.meshgrid(gs, gt, indexing="ij")
            r1, r2 = sync_residuals(inst, ss, tt)
            sub = _mixed_sign_cells(np.sign(r1)) & _mixed_sign_cells(np.sign(r2))
            for i, j in np.argwhere(sub):
                next_cells.append((gs[i], gs[i + 1], gt[j], gt[j + 1]))
        cells = next_cells
    return len(cells)


def _plane_suite_instances(seed, count=50):
    rng = np.random.default_rng(seed)
    return [
        plane_coeffs(
            float(rng.uniform(0.5, 2.0)),
            float(rng.uniform(0.5, 2.0)),
            float(rng.uniform(0.1, 1.0)),
            4.0,
            2.0,
            2.0,
        )
        for _ in range(count)
    ]


def test_plane_critical_points_match_loop_reference():
    # the canonical instance and the criterion-8 instances (seed 8)
    canonical = plane_coeffs(1.0, 1.0, 1.0, 4.0, 2.0, 2.0)
    box = plane_box(canonical)
    assert plane_critical_points(canonical, box) == reference_plane_critical_points(canonical, box)
    for c in _plane_suite_instances(8):
        box = plane_box(c)
        assert plane_critical_points(c, box, starts=60) == reference_plane_critical_points(
            c, box, starts=60
        )


# (mu1, mu2, alpha, N, (grid_points, refine, depth) or () for the defaults).
# With BLOCK_POINTS = 16000 the coarse grids span 66.6 (1000), 4.2 (257),
# 71.4 (1001) and 166.6 (1500) row blocks, and all but the 257-point case
# refine their first level in more than one chunk (197, 197 and 3 cells a
# chunk, against 444 for 257).
_WITNESS_CASES = [
    (1.0, 1.0, 2.0, 4, ()), (1.0, 100.0, 2.0, 4, ()), (1.0, 1.0, 1.5, 5, ()),
    (1.0, 1.0, 1.5, 5, (257, 5, 2)), (1.0, 1.0, 1.5, 5, (1001, 8, 4)),
    (1.0, 1.0, 2.0, 4, (1500, 63, 2)),
]


@pytest.mark.parametrize(
    "mu1, mu2, alpha, N, grid", _WITNESS_CASES,
    ids=["-".join(map(str, case[:4] + case[4])) for case in _WITNESS_CASES],
)
def test_sync_brute_cells_match_loop_reference(mu1, mu2, alpha, N, grid):
    beta = 2.0 * N / (N - 2.0) - alpha
    bracket = sync_threshold(mu1, mu2, alpha, beta, N, width=1e-8)
    kwargs = dict(zip(("grid_points", "refine", "depth"), grid))
    counts = []
    for lam in (bracket.value + 1e-2, bracket.value - 1e-2):
        inst = SyncInstance(mu1=mu1, mu2=mu2, alpha=alpha, beta=beta, lam=lam, N=N)
        counts.append(
            (sync_brute_cells(inst, **kwargs), reference_sync_brute_cells(inst, **kwargs))
        )
    (above, above_ref), (below, below_ref) = counts
    assert above == above_ref and above > 0
    assert below == below_ref == 0


def test_sync_brute_cells_memory_is_bounded():
    # The default 1000 x 1000 coarse grid evaluated in one piece peaked at
    # 54 MiB; in blocks of BLOCK_POINTS points the peak is about 1 MiB.
    alpha, N = 1.5, 5
    beta = 2.0 * N / (N - 2.0) - alpha
    bracket = sync_threshold(1.0, 1.0, alpha, beta, N, width=1e-8)
    inst = SyncInstance(mu1=1.0, mu2=1.0, alpha=alpha, beta=beta, lam=bracket.value + 1e-2, N=N)
    tracemalloc.start()
    try:
        cells = sync_brute_cells(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cells > 0
    assert peak <= 16 * 2**20, f"traced peak {peak / 2**20:.1f} MiB"
