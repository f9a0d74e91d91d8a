"""Obstacle and confinement potentials with covariant derivatives.

A potential is bound to the chart it lives on and exposes three maps, all
broadcasting over leading axes:

    value(x)          scalar, nonnegative
    gradient(x)       metric-raised gradient vector in chart components
    hessian_op(x, X)  nab_X grad V, the covariant Hessian as an operator

For potentials given by a closed form in the chart coordinates the Hessian
comes from (nab dV)_ij = d_i d_j V - Gamma^k_ij d_k V and is exact.  For
radially symmetric bumps composed with Riemannian distance the Hessian of
the squared distance has a closed form on flat and constant-curvature
charts; elsewhere a finite-difference fallback on the gradient field is
used.  ``hessian_op_fd`` is always available as an independent oracle.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .geometry import ManifoldChart

__all__ = [
    "Potential",
    "ZeroPotential",
    "GaussianObstacle",
    "QuadraticWell",
    "SumPotential",
    "ScaledPotential",
    "potential_from_config",
]


def _cot_factor(y):
    """t*cot(t) with t = sqrt(y), continued through y <= 0 as t*coth(t).

    With y = kappa*d^2 this is the transverse eigenvalue of the Hessian of
    half the squared distance on a constant-curvature space.  Both sign
    branches share the power series 1 - y/3 - y^2/45 - 2y^3/945 - ...
    """
    y = np.asarray(y, float)
    small = np.abs(y) < 1e-4
    ys = np.where(small, 1.0, y)
    t = np.sqrt(np.abs(ys))
    with np.errstate(all="ignore"):
        closed = np.where(ys > 0, t / np.tan(t), t / np.tanh(t))
    series = 1.0 - y / 3.0 - y * y / 45.0 - 2.0 * y**3 / 945.0
    return np.where(small, series, closed)


def _cot_deficit(y):
    """(1 - t*cot(t)) / y on the same continuation; -> 1/3 at y = 0."""
    y = np.asarray(y, float)
    small = np.abs(y) < 1e-4
    ys = np.where(small, 1.0, y)
    series = 1.0 / 3.0 + y / 45.0 + 2.0 * y * y / 945.0
    return np.where(small, series, (1.0 - _cot_factor(ys)) / ys)


class Potential:
    """Base potential bound to a chart."""

    def __init__(self, chart: ManifoldChart):
        self.chart = chart

    def value(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def gradient(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def hessian_op(self, x: np.ndarray, X: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def hessian_op_fd(self, x: np.ndarray, X: np.ndarray, h: float = 1e-6) -> np.ndarray:
        """nab_X grad V by central differences of the gradient field.

        (nab_X W)^k = X^j d_j W^k + Gamma(X, W)^k with W = grad V.  Serves
        as the oracle for every analytic ``hessian_op``.
        """
        x = np.asarray(x, float)
        X = np.asarray(X, float)
        n = self.chart.dim
        jac = np.empty(x.shape[:-1] + (n, n))
        for j in range(n):
            e = np.zeros(n)
            e[j] = 1.0
            hj = h * (1.0 + np.abs(x[..., j : j + 1]))
            gp = self.gradient(x + hj * e)
            gm = self.gradient(x - hj * e)
            jac[..., :, j] = (gp - gm) / (2.0 * hj)
        out = np.einsum("...kj,...j->...k", jac, X)
        return out + self.chart.gamma(x, X, self.gradient(x))


class ZeroPotential(Potential):
    """V identically zero; the planner then produces Riemannian cubics."""

    def value(self, x):
        x = np.asarray(x, float)
        return np.zeros(x.shape[:-1])

    def gradient(self, x):
        return np.zeros_like(np.asarray(x, float))

    def hessian_op(self, x, X):
        return np.zeros(np.broadcast(np.asarray(x, float), np.asarray(X, float)).shape)


class _CoordinatePotential(Potential):
    """V given in closed form in the chart coordinates.

    Subclasses provide the coordinate value, the differential dV (a
    covector) and the coordinate second derivative; the covariant pieces
    follow exactly.
    """

    def _cvalue(self, x):
        raise NotImplementedError

    def _cgrad(self, x):
        raise NotImplementedError

    def _chess(self, x):
        raise NotImplementedError

    def value(self, x):
        return self._cvalue(np.asarray(x, float))

    def gradient(self, x):
        x = np.asarray(x, float)
        return self.chart.raise_covector(x, self._cgrad(x))

    def hessian_op(self, x, X):
        x = np.asarray(x, float)
        X = np.asarray(X, float)
        dv = self._cgrad(x)
        # (nab dV)_ij = d_i d_j V - Gamma^k_ij dV_k, then raise the first slot
        nabdv = self._chess(x) - np.einsum(
            "...kij,...k->...ij", self.chart.christoffel(x), dv
        )
        return self.chart.raise_covector(x, np.einsum("...ij,...j->...i", nabdv, X))


class QuadraticWell(_CoordinatePotential):
    """V = k/2 * |x - center|^2 in chart coordinates."""

    def __init__(self, chart, center=None, stiffness: float = 1.0):
        super().__init__(chart)
        if stiffness <= 0:
            raise ConfigError("quadratic well needs stiffness > 0")
        self.center = (
            np.zeros(chart.dim) if center is None else np.asarray(center, float)
        )
        if self.center.shape != (chart.dim,):
            raise ConfigError(
                f"well center must be a {chart.dim}-vector, got shape {self.center.shape}"
            )
        chart.check_point(self.center, "well center")
        self.stiffness = float(stiffness)

    def _cvalue(self, x):
        u = x - self.center
        return 0.5 * self.stiffness * np.einsum("...a,...a->...", u, u)

    def _cgrad(self, x):
        return self.stiffness * (x - self.center)

    def _chess(self, x):
        n = self.chart.dim
        return np.broadcast_to(
            self.stiffness * np.eye(n), x.shape[:-1] + (n, n)
        ).copy()


class GaussianObstacle(Potential):
    """V = A exp(-rho^2 / (2 sigma^2)) around an obstacle center.

    rho is either the Riemannian distance to the center (the default; the
    center's injectivity region must cover the scenario) or the plain
    chart-coordinate distance.  Both choices are smooth and nonnegative on
    the working region; scenario configs record which one is in force.
    """

    def __init__(self, chart, center, amplitude: float, width: float, distance: str = "riemannian"):
        super().__init__(chart)
        if amplitude <= 0:
            raise ConfigError("gaussian obstacle needs amplitude > 0")
        if width <= 0:
            raise ConfigError("gaussian obstacle needs width > 0")
        if distance not in ("riemannian", "chart"):
            raise ConfigError(f"unknown distance mode {distance!r}")
        self.center = np.asarray(center, float)
        if self.center.shape != (chart.dim,):
            raise ConfigError(
                f"obstacle center must be a {chart.dim}-vector, got shape {self.center.shape}"
            )
        chart.check_point(self.center, "obstacle center")
        self.amplitude = float(amplitude)
        self.width = float(width)
        self.distance = distance

    # -- chart-coordinate branch, plain smooth function of x ----------

    def _chart_pieces(self, x):
        u = x - self.center
        r2 = np.einsum("...a,...a->...", u, u)
        e = self.amplitude * np.exp(-0.5 * r2 / self.width**2)
        return u, e

    # -- shared interface ---------------------------------------------

    def value(self, x):
        x = np.asarray(x, float)
        if self.distance == "chart":
            return self._chart_pieces(x)[1]
        d = self.chart.distance(x, self.center)
        return self.amplitude * np.exp(-0.5 * d**2 / self.width**2)

    def gradient(self, x):
        x = np.asarray(x, float)
        s2 = self.width**2
        if self.distance == "chart":
            u, e = self._chart_pieces(x)
            return self.chart.raise_covector(x, -(e / s2)[..., None] * u)
        # grad of d^2/2 is -log_x(center), so grad V points at the center
        logv = self.chart.log(x, self.center)
        d2 = self.chart.inner(x, logv, logv)
        e = self.amplitude * np.exp(-0.5 * d2 / s2)
        return (e / s2)[..., None] * logv

    def hessian_op(self, x, X):
        x = np.asarray(x, float)
        X = np.asarray(X, float)
        s2 = self.width**2
        if self.distance == "chart":
            u, e = self._chart_pieces(x)
            dv = -(e / s2)[..., None] * u
            chess = (e / s2**2)[..., None, None] * np.einsum("...i,...j->...ij", u, u)
            chess -= (e / s2)[..., None, None] * np.eye(self.chart.dim)
            nabdv = chess - np.einsum(
                "...kij,...k->...ij", self.chart.christoffel(x), dv
            )
            return self.chart.raise_covector(
                x, np.einsum("...ij,...j->...i", nabdv, X)
            )
        kappa = self.chart.space_curvature
        if kappa is None:
            return self.hessian_op_fd(x, X)
        logv = self.chart.log(x, self.center)
        d2 = self.chart.inner(x, logv, logv)
        e = self.amplitude * np.exp(-0.5 * d2 / s2)
        lX = self.chart.inner(x, logv, X)
        # Hess(d^2/2)(X) = mu X + kappa*deficit * <X, log> log  (radial part 1)
        y = kappa * d2
        hs = _cot_factor(y)[..., None] * X
        hs += (kappa * _cot_deficit(y) * lX)[..., None] * logv
        return (e / s2**2 * lX)[..., None] * logv - (e / s2)[..., None] * hs


class SumPotential(Potential):
    """Pointwise sum of potentials on a common chart."""

    def __init__(self, terms):
        terms = list(terms)
        if not terms:
            raise ConfigError("sum potential needs at least one term")
        super().__init__(terms[0].chart)
        self.terms = terms

    def value(self, x):
        out = self.terms[0].value(x)
        for p in self.terms[1:]:
            out = out + p.value(x)
        return out

    def gradient(self, x):
        out = self.terms[0].gradient(x)
        for p in self.terms[1:]:
            out = out + p.gradient(x)
        return out

    def hessian_op(self, x, X):
        out = self.terms[0].hessian_op(x, X)
        for p in self.terms[1:]:
            out = out + p.hessian_op(x, X)
        return out


class ScaledPotential(Potential):
    """lam * V for homotopy sweeps; lam >= 0 keeps nonnegativity."""

    def __init__(self, base: Potential, factor: float):
        if factor < 0:
            raise ConfigError("potential scale must be nonnegative")
        super().__init__(base.chart)
        self.base = base
        self.factor = float(factor)

    def value(self, x):
        return self.factor * self.base.value(x)

    def gradient(self, x):
        return self.factor * self.base.gradient(x)

    def hessian_op(self, x, X):
        return self.factor * self.base.hessian_op(x, X)


def potential_from_config(chart, cfg) -> Potential:
    """Build a potential from its config dict (or None for V = 0)."""
    if cfg is None:
        return ZeroPotential(chart)
    if not isinstance(cfg, dict) or "type" not in cfg:
        raise ConfigError("potential config must be an object with a 'type'")
    kind = cfg["type"]
    if kind == "zero":
        return ZeroPotential(chart)
    if kind == "gaussian":
        try:
            center = cfg["center"]
            amp = float(cfg["A"])
            sig = float(cfg["sigma"])
        except KeyError as exc:
            raise ConfigError(f"gaussian potential config missing {exc}") from exc
        mode = cfg.get("distance", "riemannian")
        return GaussianObstacle(chart, center, amp, sig, mode)
    if kind == "quadratic":
        center = cfg.get("center")
        k = float(cfg.get("k", 1.0))
        return QuadraticWell(chart, center, k)
    if kind == "sum":
        terms = cfg.get("terms")
        if not terms:
            raise ConfigError("sum potential config needs nonempty 'terms'")
        return SumPotential([potential_from_config(chart, t) for t in terms])
    raise ConfigError(f"unknown potential type {kind!r}")
