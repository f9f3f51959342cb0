import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad

from critsep import (
    DimensionError,
    DomainError,
    ModelParams,
    build_grid,
    h1_form,
    integrate,
    orbit_weight,
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
