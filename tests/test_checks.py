from dataclasses import replace

from critsep import checks, separation, solver

BATTERY = [
    "sphere_area_values",
    "quadrature_exactness",
    "orbit_weight_symmetry",
    "h1_form_properties",
    "sobolev_dual_formula",
    "gradient_finite_difference",
    "nehari_projection",
    "sync_diagonal_closed_form",
    "fixed_point_free_boundary",
    "plane_function_uniqueness",
    "refinement_order",
    "clambda_monotonicity",
    "interface_mu2_drift",
]


def _cap_iterations(monkeypatch, module, name, max_iters):
    """Make every call of module.name stop after max_iters iterations."""
    solve = getattr(module, name)
    monkeypatch.setattr(
        module, name,
        lambda init, cp, grid, opts: solve(init, cp, grid, replace(opts, max_iters=max_iters)),
    )


def test_run_checks_full_battery_passes():
    results = checks.run_checks()
    assert [r.name for r in results] == BATTERY
    assert [r.hard for r in results] == [True] * 11 + [False] * 2
    assert [r.name for r in results if not r.passed] == []


def test_refinement_fails_on_unconverged_solves(monkeypatch):
    _cap_iterations(monkeypatch, solver, "minimize_nehari", 3)
    passed, detail = checks._check_refinement()
    assert not passed
    assert detail.startswith("solve at M=128 not converged")


def test_interface_drift_finding_on_unconverged_limit(monkeypatch):
    _cap_iterations(monkeypatch, solver, "minimize_limit", 2)
    passed, detail = checks._soft_interface_drift()
    assert not passed
    assert detail.startswith("limit solve at mu2=1.0 not converged")


def test_clambda_monotonicity_fails_on_failed_rows(monkeypatch):
    _cap_iterations(monkeypatch, separation, "minimize_nehari", 2)
    passed, detail = checks._soft_clambda_monotone()
    assert not passed
    assert detail.startswith("6 of 6 rows not ok")
