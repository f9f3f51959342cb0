"""Symmetry-reduced variational solver for a competitive critical system.

The package computes positive fully nontrivial minimizers of a weakly
coupled elliptic system with critical growth on R^N by reducing it, through
a block-rotation symmetry, to a weighted one-dimensional problem on the
quarter arc, and follows those minimizers into the segregation regime where
the components separate across a single interface orbit.
"""

from .errors import (
    BracketError,
    CollapseError,
    ConvergenceError,
    DegenerateConstraintError,
    DegenerateInputError,
    DimensionError,
    DomainError,
    TopologyError,
)
from .functional import (
    CouplingParams,
    NehariResiduals,
    PairState,
    energy,
    gradient,
    limit_energy,
    limit_residuals,
    nehari_project,
    residuals,
    single_project,
)
from .geometry import (
    ModelParams,
    ReducedGrid,
    build_grid,
    h1_form,
    integrate,
    orbit_weight,
    sobolev_constant,
    sphere_area,
)
from .scalar import (
    PlaneCoeffs,
    SyncInstance,
    fixed_point_free,
    plane_box,
    plane_coeffs,
    plane_critical_points,
    sync_solve,
    sync_threshold,
)
from .separation import (
    SweepRecord,
    SweepSchedule,
    geometric_schedule,
    interface_locate,
    sweep_lambda,
    verify_tori,
)
from .solver import (
    LimitResult,
    SolveOptions,
    SolveResult,
    initial_guess,
    minimize_limit,
    minimize_nehari,
    minimize_single,
)

__version__ = "0.1.0"
