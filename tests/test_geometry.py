import dataclasses
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.integrate import quad

import critsep
from critsep import (
    DimensionError,
    DomainError,
    ModelParams,
    build_grid,
    h1_form,
    integrate,
    orbit_weight,
    prolong,
    sobolev_constant,
    sphere_area,
)


def test_sphere_area_known_values():
    assert sphere_area(1) == pytest.approx(2.0 * math.pi, rel=1e-15)
    assert sphere_area(2) == pytest.approx(4.0 * math.pi, rel=1e-15)
    # Gamma closed form cross-checked against the standard table value
    assert sphere_area(4) == pytest.approx(8.0 * math.pi**2 / 3.0, rel=1e-13)


def test_sphere_area_domain():
    with pytest.raises(DomainError):
        sphere_area(0)
    # Gamma((k+1)/2) overflows a float from k = 343 on
    assert math.isfinite(sphere_area(342))
    with pytest.raises(DomainError, match="unit 343-sphere"):
        sphere_area(343)


def test_model_params_invariants():
    with pytest.raises(DomainError):
        ModelParams(N=3, m=2, n=2, M=64)
    with pytest.raises(DomainError):
        ModelParams(N=4, m=1, n=4, M=64)
    with pytest.raises(DomainError):
        ModelParams(N=4, m=2, n=4, M=64)
    with pytest.raises(DomainError):
        ModelParams(N=4, m=2, n=3, M=8)
    p = ModelParams(N=4, m=2, n=3, M=64)
    assert p.two_star == pytest.approx(4.0)
    assert p.mass == pytest.approx(2.0)


def test_orbit_weight_endpoints_and_domain():
    p = ModelParams(N=4, m=2, n=3, M=64)
    assert orbit_weight(0.0, p) == 0.0
    assert orbit_weight(0.5 * math.pi, p) == 0.0
    with pytest.raises(DomainError):
        orbit_weight(-0.1, p)
    with pytest.raises(DomainError):
        orbit_weight(0.5 * math.pi + 0.1, p)


def test_orbit_weight_integral_matches_sphere_area():
    # int_0^{pi/2} w = |S^4| for the (2,3) split; independent quadrature oracle
    p = ModelParams(N=4, m=2, n=3, M=64)
    val, err = quad(lambda t: orbit_weight(t, p), 0.0, 0.5 * math.pi, epsabs=1e-13)
    assert val == pytest.approx(8.0 * math.pi**2 / 3.0, rel=1e-10)
    assert val == pytest.approx(sphere_area(4), rel=1e-10)


def test_orbit_weight_reflection_symmetry():
    p = ModelParams(N=6, m=3, n=4, M=64)
    ps = ModelParams(N=6, m=4, n=3, M=64)
    rng = np.random.default_rng(3)
    theta = rng.uniform(0.0, 0.5 * math.pi, size=500)
    w = orbit_weight(theta, p)
    w_ref = orbit_weight(0.5 * math.pi - theta, ps)
    # folded evaluation keeps the reflection exact up to the one-ulp round
    # trip of pi/2 - theta
    assert np.max(np.abs(w - w_ref) / np.maximum(w, 1e-300)) < 5e-13
    grid = build_grid(p)
    grid_s = build_grid(ps)
    assert np.allclose(grid.weights, grid_s.weights[::-1], rtol=1e-14, atol=1e-17)


@pytest.mark.parametrize("N", range(4, 9))
def test_quadrature_exactness_all_splits(N):
    for m in range(2, N):
        params = ModelParams(N=N, m=m, n=N + 1 - m, M=64)
        grid = build_grid(params)
        assert np.all(grid.weights >= 0.0)
        assert grid.theta[0] == 0.0 and grid.theta[-1] == pytest.approx(math.pi / 2)
        assert np.all(np.diff(grid.theta) > 0)
        area = sphere_area(N)
        assert integrate(np.ones(grid.size), grid) == pytest.approx(area, rel=1e-10)


def test_integrate_linearity_and_zero():
    grid = build_grid(ModelParams(N=5, m=3, n=3, M=128))
    assert integrate(np.zeros(grid.size), grid) == 0.0
    c = 2.7
    assert integrate(np.full(grid.size, c), grid) == pytest.approx(
        c * sphere_area(5), rel=1e-12
    )
    with pytest.raises(DimensionError):
        integrate(np.ones(5), grid)


def test_h1_form_constant_profile():
    params = ModelParams(N=4, m=2, n=3, M=128)
    grid = build_grid(params)
    c = 1.7
    u = np.full(grid.size, c)
    # derivative term vanishes, mass term integrates exactly
    assert h1_form(u, u, grid) == pytest.approx(
        params.mass * c * c * sphere_area(4), rel=1e-12
    )


def test_h1_form_bilinearity_against_mean_free():
    grid = build_grid(ModelParams(N=4, m=2, n=3, M=128))
    ones = np.ones(grid.size)
    osc = np.cos(2.0 * grid.theta)
    osc = osc - integrate(osc, grid) / sphere_area(4)
    # u1 constant: derivative part drops, so the form reduces to the integral
    assert h1_form(ones, osc, grid) == pytest.approx(
        grid.params.mass * integrate(osc, grid), abs=1e-10
    )
    assert abs(h1_form(ones, osc, grid)) < 1e-10


def test_h1_form_symmetry_and_positivity():
    grid = build_grid(ModelParams(N=4, m=2, n=3, M=64))
    rng = np.random.default_rng(11)
    for _ in range(10):
        u = rng.normal(size=grid.size)
        v = rng.normal(size=grid.size)
        assert h1_form(u, v, grid) == pytest.approx(h1_form(v, u, grid), rel=1e-14)
        assert h1_form(u, u, grid) > 0.0
    assert h1_form(np.zeros(grid.size), np.zeros(grid.size), grid) == 0.0
    # definite even for profiles supported at a single endpoint node
    e0 = np.zeros(grid.size)
    e0[0] = 1.0
    assert h1_form(e0, e0, grid) > 0.0


def test_h1_solve_inverts_operator():
    rng = np.random.default_rng(5)
    for M in (64, 2048, 8192):
        grid = build_grid(ModelParams(N=4, m=2, n=3, M=M))
        x = rng.normal(size=grid.size)
        err = np.max(np.abs(grid.solve_h1(grid.apply_h1(x)) - x))
        assert err <= 1e-10 * np.max(np.abs(x)), M


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_h1_solve_rejects_nonfinite_input(bad):
    grid = build_grid(ModelParams(N=4, m=2, n=3, M=64))
    rhs = np.ones(grid.size)
    rhs[7] = bad
    with pytest.raises(ValueError):
        grid.solve_h1(rhs)


def test_grid_is_a_read_only_value():
    grid = build_grid(ModelParams(N=4, m=2, n=3, M=64))
    with pytest.raises(dataclasses.FrozenInstanceError):
        grid.k_diag = np.zeros(grid.size)
    for name in ("theta", "weights", "midweights", "k_diag", "k_off"):
        with pytest.raises(ValueError):
            getattr(grid, name)[0] = 1.0
    # the operator is the one apply_h1 applies
    x = np.random.default_rng(3).normal(size=grid.size)
    band = grid.k_diag * x
    band[:-1] += grid.k_off * x[1:]
    band[1:] += grid.k_off * x[:-1]
    assert np.allclose(band, grid.apply_h1(x), rtol=1e-13, atol=1e-13 * np.abs(band).max())


def _grid(M, N=4, m=2, n=3):
    return build_grid(ModelParams(N=N, m=m, n=n, M=M))


@pytest.mark.parametrize("coarse_m, fine_m", [(64, 200), (64, 1024), (256, 4096), (17, 40)])
def test_prolong_is_exact_on_affine_profiles(coarse_m, fine_m):
    coarse, fine = _grid(coarse_m), _grid(fine_m)
    for a, b in ((1.0, 0.0), (0.0, 1.0), (-2.5, 3.7)):
        out = prolong(a + b * coarse.theta, coarse, fine)
        assert np.max(np.abs(out - (a + b * fine.theta))) <= 1e-15 * (abs(a) + 2.0 * abs(b))


@pytest.mark.parametrize("M", [63, 64, 512])
@pytest.mark.parametrize("factor", [2, 16])
@pytest.mark.parametrize("N, m, n", [(4, 2, 3), (6, 3, 4)])
def test_prolong_keeps_coincident_nodes_bit_for_bit(M, factor, N, m, n):
    coarse, fine = _grid(M, N, m, n), _grid(factor * M, N, m, n)
    assert np.array_equal(fine.theta[::factor], coarse.theta)
    x = np.random.default_rng(M).normal(size=coarse.size)
    out = prolong(x, coarse, fine)
    assert np.array_equal(out[::factor], x)
    # every other node lies on the chord of its cell
    i = np.arange(fine.size) // factor
    left, right = x[np.minimum(i, M - 1)], x[np.minimum(i + 1, M)]
    assert np.all(out >= np.minimum(left, right)) and np.all(out <= np.maximum(left, right))


def test_prolong_rejects_another_split_and_a_wrong_length():
    coarse = _grid(64)
    for other in (_grid(128, 4, 3, 2), _grid(128, 5, 3, 3)):
        with pytest.raises(DomainError, match="cannot prolong"):
            prolong(np.ones(coarse.size), coarse, other)
    with pytest.raises(DimensionError, match="coarse profile"):
        prolong(np.ones(coarse.size + 1), coarse, _grid(128))


def test_sobolev_constant_values():
    # Talenti closed form at N=4 reduces to 8 pi / sqrt(6)
    assert sobolev_constant(4) == pytest.approx(8.0 * math.pi / math.sqrt(6.0), rel=1e-13)
    with pytest.raises(DomainError):
        sobolev_constant(2)
    # Gamma(N) overflows a float from N = 172 on, and so does a model there
    assert math.isfinite(sobolev_constant(171))
    with pytest.raises(DomainError, match="N = 172"):
        sobolev_constant(172)
    with pytest.raises(DomainError, match="N = 172"):
        ModelParams(N=172, m=2, n=171, M=64)


@pytest.mark.parametrize("N", [4, 5, 6])
def test_sobolev_dual_formulas_agree(N):
    s = sobolev_constant(N)
    kappa = N * (N - 2) / 4.0
    assert s ** (N / 2.0) == pytest.approx(kappa ** (N / 2.0) * sphere_area(N), rel=1e-12)
    # equivalently S^{N/2} / kappa^{N/2} = |S^N|
    assert s ** (N / 2.0) / kappa ** (N / 2.0) == pytest.approx(sphere_area(N), rel=1e-12)


@pytest.mark.parametrize("first", ["critsep.cli", "scipy.linalg"])
def test_lapack_routines_load_without_scipy_linalg(first):
    # geometry loads SciPy's f2py LAPACK extension from its file, so the CLI
    # never runs scipy/linalg/__init__.py; the routines must still be the
    # objects scipy.linalg.lapack hands out, in either import order
    skipped = ("scipy.linalg", "numpy.f2py") if first == "critsep.cli" else ()
    code = f"""
import sys
import {first}
loaded = [m for m in {skipped!r} if m in sys.modules]
assert not loaded, loaded
from critsep import geometry
from scipy.linalg import lapack
for name in ("dgbsv", "dgtsv", "dpttrf", "dpttrs"):
    assert getattr(geometry.lapack, name) is getattr(lapack, name), name
"""
    src = os.path.dirname(os.path.dirname(critsep.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
