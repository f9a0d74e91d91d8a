"""Obstacle and confinement potentials with covariant derivatives.

A potential is bound to the chart it lives on and exposes three maps, all
broadcasting over leading axes:

    value(x)             scalar, nonnegative
    gradient(x, p)       metric-raised gradient vector in chart components
    hessian_op(x, X, p)  nab_X grad V, the covariant Hessian as an operator

A caller that has evaluated the chart at x passes its ``ChartPoint`` as
p (order 0 for ``gradient``, 1 for ``hessian_op``); on a flat chart no
record is read or built.

The quadratic well and the Gaussian obstacle are both profiles of the
squared distance to a center, and share one pipeline
(``_DistancePotential``): with the chart-coordinate distance the Hessian
comes from (nab dV)_ij = d_i d_j V - Gamma^k_ij d_k V and is exact; with
the Riemannian distance the Hessian of the squared distance has a closed
form on charts with a ``space_curvature``, and elsewhere a
finite-difference fallback on the gradient field is used.
``hessian_op_fd`` is always available as an independent oracle.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .geometry import ChartPoint, ManifoldChart

__all__ = [
    "Potential",
    "ZeroPotential",
    "GaussianObstacle",
    "QuadraticWell",
    "SumPotential",
    "ScaledPotential",
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


# <u, v> and the raised covector w at the points of the ChartPoint p,
# where None stands for the flat g = I
def _inner(p, u, v):
    return np.einsum("...a,...a->...", u, v) if p is None else p.inner(u, v)


def _raise(p, w):
    return w if p is None else p.raise_covector(w)


class Potential:
    """Base potential bound to a chart."""

    def __init__(self, chart: ManifoldChart):
        self.chart = chart

    def value(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def gradient(self, x: np.ndarray, p: ChartPoint | None = None) -> np.ndarray:
        raise NotImplementedError

    def hessian_op(self, x: np.ndarray, X: np.ndarray, p: ChartPoint | None = None) -> np.ndarray:
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

    def gradient(self, x, p=None):
        return np.zeros_like(np.asarray(x, float))

    def hessian_op(self, x, X, p=None):
        return np.zeros(np.broadcast(np.asarray(x, float), np.asarray(X, float)).shape)


class _DistancePotential(Potential):
    """V a profile of the squared distance d^2 from x to ``center``.

    d is the Riemannian distance (``distance="riemannian"``; the center's
    injectivity region must cover the scenario) or the chart-coordinate
    distance |x - center| (``distance="chart"``).  Subclasses give the
    profile as ``_profile(d2, order)``: V at order 0, s = -dV/dr at order
    1 and the pair (s, d^2V/dr^2) at order 2, with r = d^2/2.

    In chart mode V is a plain function of the coordinates, with
    dV = -s u for u = x - center, and the covariant Hessian
    g^-1 (d d V - Gamma . dV) is exact on every chart.  In Riemannian mode
    grad r = -log_x(center), and Hess r has a closed form on charts of
    constant curvature; elsewhere ``hessian_op_fd`` stands in.
    """

    def __init__(self, chart, center, distance: str):
        super().__init__(chart)
        if distance not in ("riemannian", "chart"):
            raise ConfigError(f"unknown distance mode {distance!r}")
        self.center = np.asarray(center, float)
        if self.center.shape != (chart.dim,):
            raise ConfigError(
                f"{type(self).__name__} center must be a {chart.dim}-vector, got shape {self.center.shape}"
            )
        chart.check_point(self.center, f"{type(self).__name__} center")
        self.distance = distance

    def _profile(self, d2, order):
        raise NotImplementedError

    def _offset(self, x):
        """u = x - center and its squared coordinate length."""
        u = x - self.center
        return u, np.einsum("...a,...a->...", u, u)

    def value(self, x):
        x = np.asarray(x, float)
        if self.distance == "chart":
            return self._profile(self._offset(x)[1], 0)
        return self._profile(self.chart.distance(x, self.center) ** 2, 0)

    def _point(self, x, p, order):
        """x's ``ChartPoint`` up to ``order`` (``p`` when given); None on a flat chart."""
        if self.chart.flat:
            return None
        return self.chart.at(x, order) if p is None else p

    def gradient(self, x, p=None):
        x = np.asarray(x, float)
        p = self._point(x, p, 0)
        if self.distance == "chart":
            u, d2 = self._offset(x)
            return _raise(p, -self._profile(d2, 1)[..., None] * u)
        logv = self.chart.log(x, self.center)
        return self._profile(_inner(p, logv, logv), 1)[..., None] * logv

    def hessian_op(self, x, X, p=None):
        x = np.asarray(x, float)
        X = np.asarray(X, float)
        if self.distance == "chart":
            p = self._point(x, p, 1)
            u, d2 = self._offset(x)
            s, c = self._profile(d2, 2)
            # nab dV = d dV - Gamma . dV with dV = -s u
            nabdv = c[..., None, None] * np.einsum("...i,...j->...ij", u, u)
            nabdv -= s[..., None, None] * np.eye(self.chart.dim)
            if p is not None:
                nabdv = nabdv + np.einsum("...kij,...k->...ij", p.Gamma, s[..., None] * u)
            return _raise(p, np.einsum("...ij,...j->...i", nabdv, X))
        kappa = self.chart.space_curvature
        if kappa is None:
            return self.hessian_op_fd(x, X)
        p = self._point(x, p, 0)
        logv = self.chart.log(x, self.center)
        d2 = _inner(p, logv, logv)
        s, c = self._profile(d2, 2)
        lX = _inner(p, logv, X)
        # Hess r (X) = mu X + kappa*deficit * <X, log> log  (radial part 1),
        # the identity on a flat chart
        if p is None:
            hs = X
        else:
            y = kappa * d2
            hs = _cot_factor(y)[..., None] * X
            hs += (kappa * _cot_deficit(y) * lX)[..., None] * logv
        return (c * lX)[..., None] * logv - s[..., None] * hs


class QuadraticWell(_DistancePotential):
    """V = k/2 * |x - center|^2 in chart coordinates."""

    def __init__(self, chart, center=None, stiffness: float = 1.0):
        if stiffness <= 0:
            raise ConfigError("quadratic well needs stiffness > 0")
        super().__init__(chart, np.zeros(chart.dim) if center is None else center, "chart")
        self.stiffness = float(stiffness)

    def _profile(self, d2, order):
        if order == 0:
            return 0.5 * self.stiffness * d2
        # s = -k and d^2V/dr^2 = 0 everywhere; 0-d arrays broadcast against any batch
        s = np.array(-self.stiffness)
        return s if order == 1 else (s, np.array(0.0))


class GaussianObstacle(_DistancePotential):
    """V = A exp(-d^2 / (2 sigma^2)) around an obstacle center.

    Both distance modes are smooth and nonnegative on the working region;
    scenario configs record which one is in force.
    """

    def __init__(self, chart, center, amplitude: float, width: float, distance: str = "riemannian"):
        if amplitude <= 0:
            raise ConfigError("gaussian obstacle needs amplitude > 0")
        if width <= 0:
            raise ConfigError("gaussian obstacle needs width > 0")
        super().__init__(chart, center, distance)
        self.amplitude = float(amplitude)
        self.width = float(width)

    def _profile(self, d2, order):
        s2 = self.width**2
        e = self.amplitude * np.exp(-0.5 * d2 / s2)
        if order == 0:
            return e
        return e / s2 if order == 1 else (e / s2, e / s2**2)


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

    def gradient(self, x, p=None):
        out = self.terms[0].gradient(x, p)
        for term in self.terms[1:]:
            out = out + term.gradient(x, p)
        return out

    def hessian_op(self, x, X, p=None):
        out = self.terms[0].hessian_op(x, X, p)
        for term in self.terms[1:]:
            out = out + term.hessian_op(x, X, p)
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

    def gradient(self, x, p=None):
        return self.factor * self.base.gradient(x, p)

    def hessian_op(self, x, X, p=None):
        return self.factor * self.base.hessian_op(x, X, p)
