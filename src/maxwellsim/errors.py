"""Exception hierarchy shared across the package.

``NumericalGuardError`` and its subclasses mark violations of runtime
numerical guards (failed convergence checks, grid contamination, Fock
truncation overflow).  The CLI maps them to a dedicated exit code,
distinct from configuration and I/O errors.
"""


class MaxwellSimError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(MaxwellSimError):
    """Invalid or incomplete run configuration."""


class ParameterError(MaxwellSimError, ValueError):
    """A library validator rejected a parameter value (a configuration error)."""


class NumericalGuardError(MaxwellSimError):
    """A runtime numerical-safety guard was violated."""


class ConvergenceError(NumericalGuardError):
    """Step-halving check failed: the integration is not converged."""


class BoundaryContaminationError(NumericalGuardError):
    """Wave-packet density reached the edge of the periodic grid."""


class TruncationError(NumericalGuardError):
    """State weight leaked into the top of the truncated Fock space."""


class GridCoverageError(NumericalGuardError):
    """Position grid too small to hold the requested Fock-space state."""
