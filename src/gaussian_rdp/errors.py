"""Exception hierarchy for the Gaussian rate-distortion-perception library.

All library-specific failures derive from :class:`RdpError` so callers can
catch one base class. Input-domain violations additionally derive from
``ValueError`` and convergence problems from ``RuntimeError``, keeping the
standard-library semantics intact.
"""

from __future__ import annotations

__all__ = [
    "RdpError",
    "DimensionZeroError",
    "NotSymmetricError",
    "NotPsdError",
    "AllComponentsNullError",
    "DomainError",
    "DualDegenerateError",
    "NonPositiveDistortionError",
    "OutOfRangeError",
    "ConvergenceError",
    "LineSearchError",
]


class RdpError(Exception):
    """Base class for all errors raised by this package."""


class DimensionZeroError(RdpError, ValueError):
    """A matrix or spectrum with zero components was supplied."""


class NotSymmetricError(RdpError, ValueError):
    """Matrix entries differ from their transpose beyond tolerance."""


class NotPsdError(RdpError, ValueError):
    """An eigenvalue is negative beyond the configured tolerance."""


class AllComponentsNullError(RdpError, ValueError):
    """Every eigenvalue fell at or below the null threshold."""


class DomainError(RdpError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class DualDegenerateError(DomainError):
    """A stationary map was evaluated at a zero dual multiplier."""


class NonPositiveDistortionError(DomainError):
    """A distortion budget must be strictly positive."""


class OutOfRangeError(DomainError):
    """A scalar argument lies outside its admissible interval."""


class ConvergenceError(RdpError, RuntimeError):
    """An iterative method exhausted its budget; carries diagnostics."""

    def __init__(self, message: str, **diagnostics: object) -> None:
        super().__init__(message)
        self.diagnostics = dict(diagnostics)


class LineSearchError(ConvergenceError):
    """No backtracked or damped step made sufficient progress."""
