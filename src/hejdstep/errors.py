"""Exception hierarchy for the hejdstep pricing engine."""

from __future__ import annotations

__all__ = [
    "HejdStepError", "ConfigError", "PoleError",
    "BracketError", "ConvergenceError", "SingularSystemError",
    "NoBoundaryError", "AmbiguousBoundaryError", "OrderError", "BudgetError",
]


class HejdStepError(Exception):
    """Base class for all engine errors (maps to CLI exit code 3)."""


class ConfigError(HejdStepError):
    """Invalid or incomplete model/contract configuration (CLI exit code 2)."""


class PoleError(HejdStepError):
    """Laplace exponent evaluated at (or too close to) a jump-rate pole."""


class BracketError(HejdStepError):
    """No sign change found inside an interlacing bracket; the model
    invariants are violated or the bracket expansion cap was hit."""


class ConvergenceError(HejdStepError):
    """Root polishing did not reach the residual tolerance within the
    iteration budget."""


class SingularSystemError(HejdStepError):
    """Pricing system is numerically singular (condition estimate above the
    cap, or the solved coefficients fail the residual check)."""


class NoBoundaryError(HejdStepError):
    """Smooth-fit residual has no sign change in the search bracket; the
    early-exercise region is empty or degenerate (e.g. zero dividend yield)."""


class AmbiguousBoundaryError(HejdStepError):
    """More than one smooth-fit sign change found; all candidate brackets are
    reported instead of silently picking one."""

    def __init__(self, message: str, brackets: list[tuple[float, float]]):
        super().__init__(message)
        self.brackets = brackets


class OrderError(HejdStepError):
    """Requested inversion order outside the supported range."""


class BudgetError(HejdStepError):
    """Monte-Carlo path/grid budget exceeded."""
