"""Exception and warning taxonomy shared by the whole package, and the
recorder that turns ResolutionWarnings into the artifacts' notes."""

from __future__ import annotations

import contextlib
import warnings


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
    """A numerical parameter is unusable (step underflow, degenerate scale)."""


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


@contextlib.contextmanager
def _recorded_warnings():
    """Collect the ResolutionWarnings of the block as "ResolutionWarning: message".

    Yields the list, filled when the block exits, in the form the
    artifacts record; every warning caught is issued again.
    """
    notes = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResolutionWarning)
        yield notes
    for w in caught:
        if issubclass(w.category, ResolutionWarning):
            notes.append(f"{w.category.__name__}: {w.message}")
        warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
