"""Exception types shared across the package."""


class LocalMemError(Exception):
    """Base class for all package-specific errors."""


class DomainError(LocalMemError, ValueError):
    """An argument is outside the mathematical domain of an operation."""


class ShapeError(LocalMemError, ValueError):
    """Inputs have inconsistent lengths or dimensions."""


class CapacityError(LocalMemError):
    """A request exceeds a configured size guard (e.g. partition count growth)."""


class ConvergenceError(LocalMemError, ArithmeticError):
    """An iterative numerical routine did not converge within its budget."""


class InfeasibleCalibrationError(LocalMemError):
    """No grid point satisfies the error-rate constraint.

    Attributes:
        min_achieved_fwer: smallest family-wise error rate seen on the grid.
    """

    def __init__(self, message: str, min_achieved_fwer: float):
        super().__init__(message)
        self.min_achieved_fwer = min_achieved_fwer


class ConfigError(LocalMemError, ValueError):
    """A run configuration is malformed or violates its schema."""
