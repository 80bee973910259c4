"""Exception hierarchy shared by all mathieu_kit modules."""

from __future__ import annotations


class MathieuKitError(Exception):
    """Base class for every error raised by this package."""


class InvalidParameterError(MathieuKitError, ValueError):
    """A parameter violates a documented precondition (non-finite, wrong sign, ...)."""


class RangeLimitError(MathieuKitError):
    """Order or argument outside the supported numerical range, or a value that
    leaves double precision."""


class SingularityError(MathieuKitError):
    """Evaluation requested at a genuine singularity of the formula, or a
    solution pair too dependent to be a general solution."""


class AdmissibilityError(MathieuKitError):
    """Bessel index is not an integer within tolerance."""

    def __init__(self, nu: complex, nearest: int, tol: float):
        self.nu = nu
        self.nearest = nearest
        self.tol = tol
        super().__init__(
            f"index nu={nu!r} is not an integer within tol={tol:g} "
            f"(nearest integer {nearest}); pass allow_inadmissible=True to explore"
        )


class MapDomainError(MathieuKitError):
    """Sample lies outside the variable map's valid domain."""


class ConvergenceError(MathieuKitError):
    """Iterative search failed to converge; message carries diagnostics."""


class ResonanceError(MathieuKitError):
    """Undamped drive exactly at a natural frequency; steady state undefined."""


class StiffnessError(MathieuKitError):
    """The stepper cannot go on (step-size underflow, step budget exhausted, an
    initial derivative norm that overflows or a non-finite derivative); carries
    the last good state."""

    def __init__(self, message: str, t_last: float, state_last):
        self.t_last = t_last
        self.state_last = state_last
        super().__init__(f"{message} (last good t={t_last:g})")


class SpanError(MathieuKitError):
    """Time series too short for the requested analysis (flux's demodulation)."""
