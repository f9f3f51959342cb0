"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class DimensionError(ValueError):
    """A profile's length does not match the grid it is used with."""


class NonFiniteError(ValueError):
    """An array that must be finite holds an inf or a NaN."""


class DegenerateInputError(ValueError):
    """An input that must be nonzero is numerically zero."""


class DegenerateConstraintError(RuntimeError):
    """Constraint gradients are numerically linearly dependent."""


class ConvergenceError(RuntimeError):
    """An iterative scheme failed to converge."""


class CollapseError(RuntimeError):
    """A solution component collapsed to (numerical) zero during a solve."""


class TopologyError(RuntimeError):
    """A profile does not have the expected sign structure."""

    def __init__(self, message, crossings=None):
        super().__init__(message)
        self.crossings = crossings


class BracketError(RuntimeError):
    """A bisection could not find a bracketing interval."""
