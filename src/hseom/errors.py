"""Exceptions and warning categories shared across the package."""


class HseomError(Exception):
    """Base class for errors raised by this package."""


class ConfigError(HseomError):
    """A configuration file or parameter set is invalid.

    Carries optional ``section`` and ``key`` attributes so the CLI can
    point at the offending field.
    """

    def __init__(self, message, section=None, key=None):
        loc = ""
        if section is not None:
            loc = f"[{section}]" + (f" {key}" if key else "")
            message = f"{loc}: {message}"
        super().__init__(message)
        self.section = section
        self.key = key


class NumericalError(HseomError):
    """A numerical procedure failed (non-finite state, quadrature breakdown)."""


class TraceError(NumericalError):
    """The trace of rho_S left 1 by more than the tolerance: dt too coarse.

    ``retry_dt`` is the smaller divisor of the step that a dt^4 error law
    expects to pass: the law of a schedule's fourth-order Magnus step.
    The single Taylor factor of a fixed G keeps that law, which asks for
    at least the refinement its dt^8 law needs, and a step that fails
    lies outside the asymptotic range anyway.
    """

    def __init__(self, message, retry_dt):
        super().__init__(message)
        self.retry_dt = retry_dt


class QuadratureError(NumericalError):
    """Adaptive quadrature did not converge; carries the residual estimate."""

    def __init__(self, message, residual=None):
        if residual is not None:
            message = f"{message} (residual estimate {residual:.3e})"
        super().__init__(message)
        self.residual = residual


class ResourceLimitError(HseomError):
    """A requested computation exceeds the configured memory or size budget."""


class HorizonWarning(UserWarning):
    """The K-term expansion misses alpha(t) over the run's horizon.

    Raised by the command line when the measured relative error of
    sum_k c_k J_k(Omega t) against alpha(t) on [0, horizon] exceeds
    ``cli.EXPANSION_TOL``.
    """


class EquilibrationWarning(UserWarning):
    """Populations were still drifting at the end of an equilibration window."""
