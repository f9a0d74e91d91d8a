"""Coordinate-chart differential geometry.

Everything operates on plain numpy arrays of chart coordinates.  A chart
evaluates its geometry at a stack of points once, ``ManifoldChart.at(x,
order)``, into a ``ChartPoint`` record; every other geometric method
reads that record, and geodesics, distance and transport follow.  Point
and vector arguments broadcast over leading axes; the last axis is always
the coordinate axis.  Index conventions:

    ChartPoint.g        [..., a, b]        g_ab (also ``metric(x)``)
    ChartPoint.ginv     [..., a, b]        g^ab
    ChartPoint.Gamma    [..., k, i, j]     Gamma^k_ij (symmetric in i, j)
    ChartPoint.dGamma   [..., l, k, i, j]  d_l Gamma^k_ij
    ChartPoint.R        [..., l, i, j, k]  R^l_ijk X^i Y^j Z^k = R(X, Y)Z^l

and each covariant derivative of R appends its index (``nR``, ``nnR``).

The curvature endomorphism uses the convention

    R(X, Y)Z = nab_X nab_Y Z - nab_Y nab_X Z - nab_[X,Y] Z

so that on the unit sphere R(X, Y)Z = <Y,Z>X - <X,Z>Y for the round
metric.  Charts are immutable and safe to share between threads.
"""

from __future__ import annotations

import numpy as np

from .. import rk4
from ..errors import ChartDomainError, ChartEscapeError, InjectivityError

# Gauss-Legendre rule on [0, 1] for ManifoldChart._segment_length
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
_GL_NODES, _GL_WEIGHTS = 0.5 * (_GL_NODES + 1.0), 0.5 * _GL_WEIGHTS

__all__ = ["ChartPoint", "ManifoldChart"]


class ChartPoint:
    """A chart's geometry at a stack of points, up to the order given to ``ManifoldChart.at``.

    g and ginv always, Gamma from order 1, dGamma from order 2.  Where
    ``kappa`` (the ``space_curvature``) is None, R, nR and nnR come at
    orders 2, 3 and 4; else R(X, Y)Z = kappa (<Y,Z>X - <X,Z>Y), nabla R = 0.
    A field beyond the order is None.  The contractions below read the
    arrays; a chart's own record may answer them in closed form instead.
    """

    def __init__(self, kappa, g, ginv, Gamma=None, dGamma=None, R=None, nR=None, nnR=None):
        self.kappa, self.g, self.ginv, self.Gamma, self.dGamma = kappa, g, ginv, Gamma, dGamma
        self.R, self.nR, self.nnR = R, nR, nnR

    def lower(self, v):
        return np.einsum("...ab,...b->...a", self.g, v)

    def inner(self, u, v):
        # lowered first, so g = I gives the bits of the plain dot product
        return np.einsum("...a,...a->...", u, self.lower(v))

    def raise_covector(self, w):
        return np.einsum("...ab,...b->...a", self.ginv, w)

    def gamma(self, u, v):
        return np.einsum("...kij,...i,...j->...k", self.Gamma, u, v)

    def gamma_adjoint(self, b, v):
        """The covector (b_k Gamma^k_dj v^j)_d."""
        return np.einsum("...k,...kd->...d", b, np.einsum("...kdj,...j->...kd", self.Gamma, v))

    def dgamma_adjoint(self, b, u, v):
        """The covector (b_k d_d Gamma^k_ij u^i v^j)_d."""
        dGv = np.einsum("...dkij,...j->...dki", self.dGamma, v)
        return np.einsum("...dk,...k->...d", np.einsum("...dki,...i->...dk", dGv, u), b)

    def curvature(self, X, Y, Z):
        k = self.kappa
        if k is None:
            return np.einsum("...lijk,...i,...j,...k->...l", self.R, X, Y, Z)
        gZ = self.lower(Z)
        return k * (np.einsum("...a,...a->...", Y, gZ)[..., None] * X - np.einsum("...a,...a->...", X, gZ)[..., None] * Y)

    def nabla_R(self, W, X, Y, Z):
        if self.kappa is not None:
            return np.zeros(np.broadcast(X, Y, Z).shape)
        return np.einsum("...lijkw,...i,...j,...k,...w->...l", self.nR, X, Y, Z, W)

    def nabla2_R(self, W, X, Y, Z):
        if self.kappa is not None:
            return np.zeros(np.broadcast(X, Y, Z).shape)
        return np.einsum("...lijkwp,...i,...j,...k,...w,...p->...l", self.nnR, X, Y, Z, W, W)


class ManifoldChart:
    """Base chart: every geometric quantity is read off one evaluation, ``at``.

    Subclasses set ``dim`` and ``name`` and implement ``at``; a kernel
    that needs several quantities at the same points calls ``at`` once.
    ``space_curvature`` is the one declaration of the chart's curvature:
    0.0 on a flat chart, the sectional curvature on a space of constant
    curvature, None otherwise.  ``flat`` and ``locally_symmetric`` follow
    from it.
    """

    dim: int = 0
    name: str = ""
    space_curvature: float | None = None

    @property
    def flat(self) -> bool:
        """True when Gamma and R vanish identically on this chart."""
        return self.space_curvature == 0.0

    @property
    def locally_symmetric(self) -> bool:
        """True when nabla R vanishes identically on this chart."""
        return self.space_curvature is not None

    def at(self, x: np.ndarray, order: int) -> ChartPoint:
        """The geometry at the points x up to ``order`` (see ``ChartPoint``)."""
        raise NotImplementedError

    # -- metric layer -------------------------------------------------

    def metric(self, x: np.ndarray) -> np.ndarray:
        return self.at(x, 0).g

    def inner(self, x: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        return self.at(x, 0).inner(u, v)

    def norm(self, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        return np.sqrt(np.maximum(self.inner(x, u, u), 0.0))

    # -- connection and curvature layer -------------------------------

    def gamma(self, x: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Gamma(u, v)^k, the Christoffel contraction used by every ODE here."""
        return self.at(x, 1).gamma(u, v)

    # bench/kernels.py times this kernel by name; every program path reads
    # R off the record of ``at``
    def curvature(
        self, x: np.ndarray, X: np.ndarray, Y: np.ndarray, Z: np.ndarray
    ) -> np.ndarray:
        """R(X, Y)Z at x: k(<Y,Z>X - <X,Z>Y) with k = ``space_curvature``.

        Charts without a constant curvature contract their R tensor.
        """
        if self.flat:
            return np.zeros(np.broadcast(X, Y, Z).shape)
        return self.at(x, 0 if self.locally_symmetric else 2).curvature(X, Y, Z)

    # -- geodesic layer -----------------------------------------------

    def exp(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Endpoint of the geodesic from x with initial velocity v.

        Integrates the geodesic equation with fixed-step classical RK4;
        broadcasts over leading axes.  Raises ChartEscapeError if the
        geodesic leaves the chart domain.
        """
        return _geodesic(self, x, v)[..., 0, :]

    def log(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Initial velocity of the geodesic from x reaching y at time 1.

        Generic implementation: Newton shooting on exp, its Jacobian
        marched with the geodesic.  Charts with a closed form override
        this.  Shooting can reach a longer geodesic than the minimizing one;
        the chart segment from x to y joins them too, so an iterate longer
        than twice that segment, or a result longer than it, raises
        InjectivityError.  The line search halves a step whose geodesic
        leaves the chart; an iterate whose geodesic leaves it, or a line
        search none of whose trials stays inside, raises InjectivityError.
        """
        x = np.asarray(x, float)
        y = np.asarray(y, float)
        if x.ndim != 1 or y.ndim != 1:
            x, y = np.broadcast_arrays(x, y)
            return np.stack(
                [self.log(xi, yi) for xi, yi in zip(x.reshape(-1, self.dim), y.reshape(-1, self.dim))]
            ).reshape(x.shape)
        v = y - x
        scale = 1.0 + float(np.linalg.norm(y))
        segment = self._segment_length(x, y)
        for _ in range(50):
            try:
                u = _geodesic(self, x, v, jacobian=True)
            except ChartEscapeError as exc:
                raise InjectivityError("log-map shooting left the chart") from exc
            r = u[0] - y
            if float(np.linalg.norm(r)) <= 1e-10 * scale:
                # the margin covers exp's RK4 error where the segment is
                # itself a geodesic (8e-9 relative on a sphere2 radius)
                if float(self.norm(x, v)) > segment * (1.0 + 1e-6):
                    raise InjectivityError("log-map shooting reached a non-minimizing geodesic")
                return v
            try:
                dv = np.linalg.solve(u[1 : self.dim + 1].T, -r)
            except np.linalg.LinAlgError as exc:
                raise InjectivityError("log-map shooting became singular") from exc
            # a trial whose geodesic leaves the chart is rejected like one
            # that does not reduce the residual
            t, inside = 1.0, False
            rn = float(np.linalg.norm(r))
            for _ in range(20):
                try:
                    end = self.exp(x, v + t * dv)
                except ChartEscapeError:
                    t *= 0.5
                    continue
                inside = True
                if float(np.linalg.norm(end - y)) < rn:
                    break
                t *= 0.5
            if not inside:
                raise InjectivityError("log-map shooting left the chart on every line-search trial")
            v = v + t * dv
            if float(self.norm(x, v)) > 2.0 * segment:
                raise InjectivityError("log-map shooting reached a non-minimizing geodesic")
        raise InjectivityError("log-map shooting did not converge")

    def _segment_length(self, x: np.ndarray, y: np.ndarray) -> float:
        """g-length of the chart segment from x to y (16-point Gauss-Legendre)."""
        u = y - x
        return float(_GL_WEIGHTS @ self.norm(x + _GL_NODES[:, None] * u, u))

    def distance(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return self.norm(x, self.log(x, y))

    # -- domain layer -------------------------------------------------

    def contains(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, float)
        return np.all(np.isfinite(x), axis=-1)

    def check_point(self, x: np.ndarray, what: str = "point") -> None:
        if not np.all(self.contains(x)):
            raise ChartDomainError(f"{what} outside the {self.name} chart domain")

    def __repr__(self):  # pragma: no cover
        return f"<{type(self).__name__} {self.name!r}>"


def _geodesic(chart, x, v, jacobian=False):
    """RK4 march of the geodesic from q = x, dq/ds = w = v to s = 1.

    The larger of the g-speed and the coordinate speed sets the step
    count, so a chart whose metric is small there still takes as many
    steps as its coordinates move.

    Returns (q, w), shape (..., 2, n), at s = 1; with ``jacobian``,
    (q, Q, w, W) of shape (..., 2 + 2n, n), whose rows Q_j = dq/dv_j and
    W_j = dw/dv_j obey Q' = W, W' = -dGamma[Q](w, w) - 2 Gamma(w, W) from
    Q = 0, W = I.  Raises ChartEscapeError if q leaves the chart.
    """
    x, v = np.broadcast_arrays(np.asarray(x, float), np.asarray(v, float))
    speed = float(np.max(np.maximum(chart.norm(x, v), np.linalg.norm(v, axis=-1)))) if x.size else 0.0
    steps = min(512, max(16, int(48.0 * speed) + 1))
    m = x.shape[-1] if jacobian else 0

    def rhs(u):
        q, w, vel = u[..., 0, :], u[..., m + 1, :], u[..., m + 1 :, :]
        p = chart.at(q, 2 if m else 1)
        acc = -np.einsum("...kij,...i,...rj->...rk", p.Gamma, w, vel)
        if m:
            acc[..., 1:, :] *= 2.0
            acc[..., 1:, :] -= np.einsum("...lkij,...rl,...i,...j->...rk", p.dGamma, u[..., 1 : m + 1, :], w, w)
        return np.concatenate([vel, acc], axis=-2)

    rows = x.shape[:-1] + (m, x.shape[-1])
    u = np.concatenate(
        [x[..., None, :], np.zeros(rows), v[..., None, :], np.broadcast_to(np.eye(m, x.shape[-1]), rows)], axis=-2
    )
    for _ in range(steps):
        u = rk4.step(rhs, u, 1.0 / steps)
    if not np.all(chart.contains(u[..., 0, :])):
        raise ChartEscapeError("geodesic left the chart domain", 1.0)
    return u
