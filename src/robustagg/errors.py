"""Exception hierarchy shared across the toolkit.

Everything raised on purpose derives from :class:`RobustAggError` so callers
(and the CLI) can catch library failures without swallowing genuine bugs.
"""

from __future__ import annotations


class RobustAggError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(RobustAggError, ValueError):
    """Shapes or lengths of inputs do not match what an operation requires."""


class NumericalError(RobustAggError):
    """A numerical kernel failed (e.g. an eigensolver did not converge)."""

    def __init__(self, message: str, condition_estimate: float | None = None):
        if condition_estimate is not None:
            message = f"{message} (condition estimate {condition_estimate:.3e})"
        super().__init__(message)
        self.condition_estimate = condition_estimate


class NotPositiveDefiniteError(NumericalError, ValueError):
    """A matrix required to be positive definite is not: it has a non-finite
    entry, is not symmetric, or has an eigenvalue that is not > 0."""

    def __init__(self, message: str, eigenvalue: float | None = None):
        if eigenvalue is not None:
            message = f"{message} (offending eigenvalue {eigenvalue:.6e})"
        super().__init__(message)
        self.eigenvalue = eigenvalue


class NonFiniteSumError(NumericalError, ValueError):
    """An exactly rounded sum is beyond the largest double, or its terms
    hold ``inf - inf``, so it has no finite value."""


class SingularMatrixError(NumericalError):
    """A matrix that must be inverted is (numerically) singular."""


class FitError(RobustAggError):
    """Local model fitting failed."""


class RankDeficiencyError(FitError):
    """The design / Hessian is rank deficient."""


class SeparationError(FitError):
    """Logistic fitting detected complete (or quasi-complete) separation."""


class NonConvergenceError(RobustAggError):
    """An iterative solver hit its iteration cap.

    Carries the best iterate seen and its residual so callers can inspect
    how close the solver got.
    """

    def __init__(self, message: str, best=None, residual: float | None = None):
        if residual is not None:
            message = f"{message} (best residual {residual:.3e})"
        super().__init__(message)
        self.best = best
        self.residual = residual


class DecodeError(RobustAggError):
    """A transmitted estimate message could not be decoded."""


class TruncatedMessageError(DecodeError):
    """The message is structurally incomplete (missing fields or values)."""


class ChecksumMismatchError(DecodeError):
    """The message checksum does not match its payload."""


class VersionMismatchError(DecodeError):
    """The message carries an unsupported protocol version tag."""


class ConfigError(RobustAggError, ValueError):
    """A configuration file or override is invalid."""


class StudyError(RobustAggError):
    """A Monte Carlo study failed (too many failed replicates)."""
