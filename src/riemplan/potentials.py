"""Obstacle and confinement potentials with covariant derivatives.

A potential is bound to the chart it lives on and exposes three maps, all
broadcasting over leading axes:

    value(x)             scalar, nonnegative
    gradient(x, p)       metric-raised gradient vector in chart components
    hessian_op(x, X, p)  nab_X grad V, the covariant Hessian as an operator

A caller that has evaluated the chart at x passes its ``ChartPoint`` as
p (order 0 for ``gradient``, 1 for ``hessian_op``); on a flat chart no
record is read or built.

The quadratic well and the Gaussian obstacle are both profiles
V = f(r) of half the squared distance r = d^2/2 to a center, and share one
chain rule (``_DistancePotential``):

    grad V = f' grad r,    nab_X grad V = f'' <grad r, X> grad r + f' Hess r (X).

One hook per potential supplies d^2, grad r and Hess r (X) for the distance
in force: exactly from the coordinates for the chart-coordinate distance;
for the Riemannian distance from ``log`` and a closed form on charts of
constant curvature, and from differences of ``log`` elsewhere.  On a flat
chart the two distances coincide and take the coordinate route.  The
tests hold every ``hessian_op`` to central differences of the gradient
through ``_nabla_fd``, the rule that differences ``log`` elsewhere.
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


def _cot(y):
    """t*cot(t) and (1 - t*cot(t)) / y with t = sqrt(y), continued through y <= 0 as t*coth(t).

    With y = kappa*d^2 these are the transverse eigenvalue of the Hessian of
    half the squared distance on a constant-curvature space and its radial
    deficit.  Near y = 0 both follow the series 1 - y/3 - y^2/45 - 2y^3/945.
    """
    y = np.asarray(y, float)
    small = np.abs(y) < 1e-4
    ys = np.where(small, 1.0, y)
    t = np.sqrt(np.abs(ys))
    with np.errstate(all="ignore"):
        closed = np.where(ys > 0, t / np.tan(t), t / np.tanh(t))
    factor = np.where(small, 1.0 - y / 3.0 - y * y / 45.0 - 2.0 * y**3 / 945.0, closed)
    return factor, np.where(small, 1.0 / 3.0 + y / 45.0 + 2.0 * y * y / 945.0, (1.0 - closed) / ys)


def _nabla_fd(chart, field, x, X, W, h=1e-6):
    """nab_X W for the vector field W = field(x), by central differences.

    (nab_X W)^k = X^j d_j W^k + Gamma(X, W)^k.
    """
    n = chart.dim
    jac = np.empty(x.shape[:-1] + (n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        hj = h * (1.0 + np.abs(x[..., j : j + 1]))
        jac[..., :, j] = (field(x + hj * e) - field(x - hj * e)) / (2.0 * hj)
    return np.einsum("...kj,...j->...k", jac, X) + chart.gamma(x, X, W)


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
    """V = f(r), r = d^2/2, with d the distance from x to ``center``.

    d is the Riemannian distance (``distance="riemannian"``; the center's
    injectivity region must cover the scenario) or the chart-coordinate
    distance |x - center| (``distance="chart"``).  Subclasses give the
    profile as ``_profile(d2, order)``: V at order 0, s = -f'(r) at order 1
    and the pair (s, f''(r)) at order 2.

    One chain rule serves both modes: with w = -grad r,

        grad V = s w,    nab_X grad V = f'' <w, X> w - s Hess r (X),

    and ``_radial`` supplies d^2, w and Hess r (X) (Karcher, Comm. Pure
    Appl. Math. 30, 1977, for Hess r).
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

    def value(self, x):
        x = np.asarray(x, float)
        if self.distance == "chart":
            u = x - self.center
            return self._profile(np.einsum("...a,...a->...", u, u), 0)
        return self._profile(self.chart.distance(x, self.center) ** 2, 0)

    def _radial(self, x, p, X=None):
        """d^2 and w = -grad r at x; given X, also <w, X> and Hess r (X).

        p is x's ``ChartPoint`` when the caller has one.  In chart mode
        r = |u|^2/2 with u = x - center, so w = -g^-1 u and
        Hess r (X) = g^-1 (X - (Gamma . u) X).  In Riemannian mode
        w = log_x(center), and Hess r (X) = mu X + kappa delta <w, X> w
        from ``_cot`` on a chart of constant curvature kappa, or
        -nab_X log_x(center) by differences elsewhere.  On a flat chart
        the two distances coincide, and no record, ``log`` or series is used.
        """
        chart = self.chart
        if chart.flat:
            p = None
        elif p is None:
            p = chart.at(x, 1 if X is not None and self.distance == "chart" else 0)
        if p is None or self.distance == "chart":
            u = x - self.center
            d2 = np.einsum("...a,...a->...", u, u)
            w = -u if p is None else p.raise_covector(-u)
            if X is None:
                return d2, w
            if p is None:
                return d2, w, np.einsum("...a,...a->...", w, X), X
            return d2, w, p.inner(w, X), p.raise_covector(X - p.gamma_adjoint(u, X))
        w = chart.log(x, self.center)
        d2 = p.inner(w, w)
        if X is None:
            return d2, w
        kappa, lX = chart.space_curvature, p.inner(w, X)
        if kappa is None:
            return d2, w, lX, -_nabla_fd(chart, lambda y: chart.log(y, self.center), x, X, w)
        mu, delta = _cot(kappa * d2)
        return d2, w, lX, mu[..., None] * X + (kappa * delta * lX)[..., None] * w

    def gradient(self, x, p=None):
        d2, w = self._radial(np.asarray(x, float), p)
        return self._profile(d2, 1)[..., None] * w

    def hessian_op(self, x, X, p=None):
        d2, w, lX, hX = self._radial(np.asarray(x, float), p, np.asarray(X, float))
        s, c = self._profile(d2, 2)
        return (c * lX)[..., None] * w - s[..., None] * hX


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
        return sum(term.value(x) for term in self.terms)

    def gradient(self, x, p=None):
        return sum(term.gradient(x, p) for term in self.terms)

    def hessian_op(self, x, X, p=None):
        return sum(term.hessian_op(x, X, p) for term in self.terms)


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
