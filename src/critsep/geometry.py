"""Arc reduction of the round N-sphere under a block-rotation symmetry.

The group O(m) x O(n), with m + n = N + 1 and m, n >= 2, acts on the unit
sphere of R^{N+1} = R^m x R^n.  Its orbits are the products
S^{m-1}(cos t) x S^{n-1}(sin t), one for each arc parameter t in [0, pi/2],
so an invariant function is a profile of the single variable t and every
sphere integral collapses to a weighted arc integral with the orbit-volume
weight

    w(t) = |S^{m-1}| |S^{n-1}| cos^{m-1}(t) sin^{n-1}(t).

The weighted H^1 form used throughout carries the conformal mass term
N(N-2)/4.  With that term included, the sphere-side quadratic form of an
invariant profile equals the flat Dirichlet energy of the corresponding
function on R^N obtained through stereographic projection, and the critical
power and mixed-power integrals transfer verbatim.  No point of R^N is ever
evaluated; the conformal factor is absorbed once and for all.

Discretization: uniform nodes on [0, pi/2] including the endpoints.  Nodal
quadrature is trapezoidal with the weights rescaled so that they sum to the
exact sphere area (the raw trapezoid rule is only second order, which would
miss the exactness target for constants).  The derivative part of the H^1
form is assembled from first differences on cell midpoints, which keeps the
form blind to nothing: nodal centered differences would assign zero energy
to the +-1 checkerboard mode and corrupt constrained minimization.
"""

import importlib.machinery
import importlib.util
import math
import os
from dataclasses import dataclass

import numpy as np
import scipy

from .errors import DimensionError, DomainError, NonFiniteError

__all__ = [
    "ModelParams",
    "ReducedGrid",
    "build_grid",
    "critical_exponent",
    "h1_form",
    "h1_gram",
    "integrate",
    "orbit_weight",
    "prolong",
    "sobolev_constant",
    "sphere_area",
]

HALF_PI = 0.5 * np.pi


def _load_flapack():
    """SciPy's f2py LAPACK extension, loaded from its file.

    ``scipy.linalg.lapack`` re-exports the routines of
    ``scipy.linalg._flapack`` unchanged, but importing it runs
    ``scipy/linalg/__init__.py``, which costs more than the rest of
    critsep's imports together.  The extension itself loads in milliseconds
    and hands out the very routine objects ``scipy.linalg.lapack`` holds.
    """
    name = "scipy.linalg._flapack"
    finder = importlib.machinery.FileFinder(
        os.path.join(os.path.dirname(scipy.__file__), "linalg"),
        (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES),
    )
    spec = finder.find_spec(name)
    if spec is None:
        raise ImportError(f"SciPy's LAPACK extension {name} not found", name=name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


lapack = _load_flapack()  # pttrf / pttrs here, gbsv / gtsv in solver


def sphere_area(k: int) -> float:
    """Surface measure of the unit k-sphere, 2 pi^{(k+1)/2} / Gamma((k+1)/2), for 1 <= k <= 342."""
    if k < 1:
        raise DomainError(f"sphere dimension must be >= 1, got {k}")
    try:
        return 2.0 * math.pi ** ((k + 1) / 2.0) / math.gamma((k + 1) / 2.0)
    except OverflowError:
        raise DomainError(f"the area of the unit {k}-sphere overflows a float") from None


def sobolev_constant(N: int) -> float:
    """Best constant of the embedding D^{1,2}(R^N) -> L^{2N/(N-2)}(R^N).

    Closed form pi*N*(N-2)*(Gamma(N/2)/Gamma(N))^{2/N}; it also satisfies
    S^{N/2} = (N(N-2)/4)^{N/2} * |S^N|, which is used as a cross-check.
    Gamma(N) overflows a float from N = 172 on.
    """
    if N < 3:
        raise DomainError(f"Sobolev constant needs N >= 3, got {N}")
    try:
        return math.pi * N * (N - 2) * (math.gamma(N / 2.0) / math.gamma(N)) ** (2.0 / N)
    except OverflowError:
        raise DomainError(f"Sobolev constant overflows a float for N = {N}") from None


def critical_exponent(N: int) -> float:
    """Critical Sobolev exponent 2* = 2N/(N-2)."""
    if N < 3:
        raise DomainError(f"critical exponent needs N >= 3, got {N}")
    return 2.0 * N / (N - 2.0)


@dataclass(frozen=True)
class ModelParams:
    """Dimension N, orbit split (m, n) with m + n = N + 1, and grid size M."""

    N: int
    m: int
    n: int
    M: int

    def __post_init__(self):
        if self.N < 4:
            raise DomainError(f"need N >= 4, got N={self.N}")
        sobolev_constant(self.N)  # DomainError where it overflows
        if self.m < 2 or self.n < 2:
            raise DomainError(f"need m, n >= 2, got m={self.m}, n={self.n}")
        if self.m + self.n != self.N + 1:
            raise DomainError(
                f"need m + n = N + 1, got {self.m} + {self.n} != {self.N} + 1"
            )
        if self.M < 16:
            raise DomainError(f"need at least 16 grid cells, got M={self.M}")

    @property
    def two_star(self) -> float:
        return critical_exponent(self.N)

    @property
    def mass(self) -> float:
        """Conformal mass term N(N-2)/4 of the reduced H^1 form."""
        return self.N * (self.N - 2.0) / 4.0


def orbit_weight(theta, params: ModelParams):
    """Orbit-volume weight |S^{m-1}||S^{n-1}| cos^{m-1}(t) sin^{n-1}(t).

    Evaluation is folded about pi/4 so that swapping (m, n) together with
    t -> pi/2 - t reproduces bitwise-identical values.
    """
    theta = np.asarray(theta, dtype=float)
    if np.any(theta < -1e-12) or np.any(theta > HALF_PI + 1e-12):
        raise DomainError("arc parameter outside [0, pi/2]")
    refl = HALF_PI - theta
    phi = np.minimum(theta, refl)
    lower = theta <= refl
    c = np.where(lower, np.cos(phi), np.sin(phi))
    s = np.where(lower, np.sin(phi), np.cos(phi))
    area = sphere_area(params.m - 1) * sphere_area(params.n - 1)
    out = area * (c ** (params.m - 1) * s ** (params.n - 1))
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class ReducedGrid:
    """Uniform arc grid with normalized orbit-weight quadrature: a value that
    ``build_grid`` makes whole, with fixed fields and read-only arrays.

    ``weights`` are the nodal quadrature weights (trapezoid in the orbit
    weight, rescaled to sum exactly to |S^N|); ``midweights`` sample the
    orbit weight at cell midpoints and drive the stiffness part of the
    H^1 form.  ``k_diag`` and ``k_off`` are the bands of the tridiagonal
    H^1 operator K, where every banded matrix on K starts, and ``ldl`` is
    K's L D L^T factor (LAPACK ``pttrf``), which ``solve_h1`` reuses.
    """

    params: ModelParams
    theta: np.ndarray
    weights: np.ndarray
    midweights: np.ndarray
    h: float
    k_diag: np.ndarray
    k_off: np.ndarray
    ldl: tuple

    @property
    def size(self) -> int:
        return self.theta.size

    def apply_h1(self, u: np.ndarray) -> np.ndarray:
        """Matrix-vector product with the discrete H^1 operator."""
        flux = self.midweights * (u[1:] - u[:-1]) / self.h
        out = self.params.mass * self.weights * u
        out[:-1] -= flux
        out[1:] += flux
        return out

    def solve_h1(self, rhs: np.ndarray) -> np.ndarray:
        """Solve K x = rhs for the discrete H^1 operator K.

        Raises NonFiniteError, a ValueError, when rhs is not finite, and
        DimensionError when it has the wrong length.
        """
        rhs = _check_length(rhs, self, "right-hand side")
        if not np.isfinite(rhs).all():
            raise NonFiniteError("right-hand side must not contain infs or NaNs")
        x, info = lapack.dpttrs(*self.ldl, rhs)
        if info != 0:
            raise ValueError(f"illegal value in argument {-info} of pttrs")
        return x


def build_grid(params: ModelParams) -> ReducedGrid:
    """Uniform grid on [0, pi/2] with exactness-normalized quadrature."""
    M = params.M
    h = HALF_PI / M
    i = np.arange(M + 1)
    # mirror-symmetric node construction: theta[M-i] == pi/2 - theta[i] bitwise
    theta = np.where(i <= M // 2, i * h, HALF_PI - (M - i) * h)
    w = orbit_weight(theta, params)
    q = w * h
    q[0] *= 0.5
    q[-1] *= 0.5
    q *= sphere_area(params.N) / q.sum()
    mid = orbit_weight(0.5 * (theta[:-1] + theta[1:]), params)
    # K: the mass term first, then each cell's stiffness at its two end nodes
    wm = mid / h
    k_diag = params.mass * q
    k_diag[:-1] += wm
    k_diag[1:] += wm
    k_off = -wm
    d, e, info = lapack.dpttrf(k_diag, k_off)
    if info != 0:
        raise np.linalg.LinAlgError(f"H^1 operator not positive definite ({info})")
    for a in (theta, q, mid, k_diag, k_off, d, e):
        a.flags.writeable = False
    return ReducedGrid(params=params, theta=theta, weights=q, midweights=mid, h=h,
                       k_diag=k_diag, k_off=k_off, ldl=(d, e))


def _check_length(values: np.ndarray, grid: ReducedGrid, name: str) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if values.shape != (grid.size,):
        raise DimensionError(
            f"{name} has shape {values.shape}, grid expects ({grid.size},)"
        )
    return values


def prolong(values, coarse: ReducedGrid, fine: ReducedGrid) -> np.ndarray:
    """A profile on coarse, linearly interpolated in theta onto fine.

    Both grids must share (N, m, n); M may differ.  A node of fine that is
    a node of coarse (every k-th node when fine.M = k coarse.M) takes the
    coarse value bit for bit, and affine profiles are kept up to rounding.
    """
    c, f = coarse.params, fine.params
    if (c.N, c.m, c.n) != (f.N, f.m, f.n):
        raise DomainError(
            f"cannot prolong from (N, m, n) = {(c.N, c.m, c.n)} to {(f.N, f.m, f.n)}"
        )
    values = _check_length(values, coarse, "coarse profile")
    return np.interp(fine.theta, coarse.theta, values)


def integrate(values, grid: ReducedGrid) -> float:
    """Weighted arc integral = integral of the invariant extension over S^N."""
    values = _check_length(values, grid, "profile")
    return float(np.dot(grid.weights, values))


def _h1_terms(u1, u2, d1, d2, grid: ReducedGrid) -> float:
    """The H^1 form from two profiles and their first differences d1, d2."""
    stiff = float(np.dot(grid.midweights, d1 * d2)) / grid.h
    mass = grid.params.mass * float(np.dot(grid.weights, u1 * u2))
    return stiff + mass


def h1_form(u1, u2, grid: ReducedGrid) -> float:
    """Weighted H^1 bilinear form with the conformal mass term.

    For u1 == u2 this is the flat-space Dirichlet integral of the profile's
    stereographic counterpart.
    """
    u1 = _check_length(u1, grid, "first profile")
    u2 = _check_length(u2, grid, "second profile")
    return _h1_terms(u1, u2, u1[1:] - u1[:-1], u2[1:] - u2[:-1], grid)


def h1_gram(profiles, grid: ReducedGrid) -> list:
    """Symmetric matrix of h1_form over all pairs of profiles, as nested lists.

    Each profile is differenced once; every entry equals the corresponding
    h1_form value bit for bit.
    """
    profiles = [_check_length(x, grid, "profile") for x in profiles]
    diffs = [x[1:] - x[:-1] for x in profiles]
    n = len(profiles)
    gram = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            gram[i][j] = gram[j][i] = _h1_terms(
                profiles[i], profiles[j], diffs[i], diffs[j], grid
            )
    return gram
