"""Shared exception types for the szego package."""

from __future__ import annotations

__all__ = [
    "SzegoError",
    "DomainError",
    "ConvergenceError",
    "VerificationError",
    "CoefficientOverflowError",
]


class SzegoError(Exception):
    """Base class for all library-specific errors."""


class DomainError(SzegoError, ValueError):
    """An argument fell outside an operation's mathematical domain."""


class ConvergenceError(SzegoError, RuntimeError):
    """An iterative solver failed to reach its tolerance.

    The ``residual`` attribute carries how far the solver got, when known;
    for ``find_zeros`` it is the worst backward-error ratio
    |P(w)| / sum_k |b_k| |w|^k over the iterates after the last sweep.
    """

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class VerificationError(SzegoError, RuntimeError):
    """A mathematical consistency check failed."""


class CoefficientOverflowError(SzegoError, OverflowError):
    """A construction produced coefficients outside double-precision range."""
