"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: usage and data problems exit 2,
resource caps exit 3, solver non-convergence exits 4.
"""

__all__ = ["BdError", "DomainError", "DataError", "SolverError", "CapError"]


class BdError(Exception):
    """Base class for all package errors."""


class DomainError(BdError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class DataError(BdError, ValueError):
    """Observed data violate a structural requirement (shape, absorption,
    spacing, degeneracy)."""


class SolverError(BdError, RuntimeError):
    """An iterative solver failed to converge or to bracket a root."""


class CapError(BdError, RuntimeError):
    """A configured resource cap (event count, population size, cost bound)
    was exceeded."""
