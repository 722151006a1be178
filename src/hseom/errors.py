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
    """The configured K is too small for the simulated time horizon."""


class EquilibrationWarning(UserWarning):
    """Populations were still drifting at the end of an equilibration window."""
