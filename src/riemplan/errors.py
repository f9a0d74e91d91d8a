"""Exception and warning taxonomy shared by the whole package, and ``_notes``,
the artifacts' form of the ResolutionWarning messages that reports keep."""

from __future__ import annotations


class PlannerError(Exception):
    """Base class for all errors raised by this package."""


class ChartDomainError(PlannerError):
    """A point left (or never was in) the chart's validity region."""


class ChartEscapeError(ChartDomainError):
    """A trajectory integration stepped outside the chart domain.

    Carries the first time at which the escape was detected.
    """

    def __init__(self, message: str, escape_time: float):
        super().__init__(message)
        self.escape_time = float(escape_time)


class InjectivityError(PlannerError):
    """Inverse exponential / distance requested outside the injectivity region."""


class NumericalError(PlannerError):
    """A march went nonfinite: a curve's or a field bundle's state left the finite floats."""


class NonconvergenceError(PlannerError):
    """An iterative solve hit its iteration cap.

    ``best`` holds the best iterate found so far, when there is one.
    """

    def __init__(self, message: str, best=None):
        super().__init__(message)
        self.best = best


class CriticalPointError(PlannerError):
    """The shooting map is critical (singular Jacobian) at the current iterate."""


class ConstructionError(PlannerError):
    """``negative_direction`` found no bump width that fits the window and gives a negative value."""


class BasisError(PlannerError):
    """A Galerkin basis is numerically unusable (Gram matrix ill-conditioned)."""


class ConfigError(PlannerError):
    """A scenario configuration is malformed or inconsistent."""


class ResolutionWarning(UserWarning):
    """A grid is too coarse for its purpose: a scan grid to separate nearby
    detections, or error control's largest grid to meet its tolerance."""


def _notes(messages) -> list:
    """ResolutionWarning messages as the artifacts record them, "ResolutionWarning: message"."""
    return [f"{ResolutionWarning.__name__}: {message}" for message in messages]
