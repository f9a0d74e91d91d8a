"""Coordinate-chart differential geometry.

Everything operates on plain numpy arrays of chart coordinates.  A chart
knows its metric and the metric's coordinate derivative; Christoffel
symbols, curvature, geodesics, distance and transport all follow from
those.  Point and vector arguments broadcast over leading axes; the last
axis is always the coordinate axis.

Index conventions:

    metric(x)[..., a, b]              g_ab
    dmetric(x)[..., l, a, b]          d_l g_ab
    christoffel(x)[..., k, i, j]      Gamma^k_ij   (symmetric in i, j)
    dchristoffel(x)[..., l, k, i, j]  d_l Gamma^k_ij

The curvature endomorphism uses the convention

    R(X, Y)Z = nab_X nab_Y Z - nab_Y nab_X Z - nab_[X,Y] Z

so that on the unit sphere R(X, Y)Z = <Y,Z>X - <X,Z>Y for the round
metric.  Charts are immutable and safe to share between threads.
"""

from __future__ import annotations

import numpy as np

from .. import rk4
from ..errors import ChartDomainError, ChartEscapeError, InjectivityError

# relative step of the finite-difference ``dchristoffel`` fallback
_FD_STEP = 1e-6
# Gauss-Legendre rule on [0, 1] for ManifoldChart._segment_length
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
_GL_NODES, _GL_WEIGHTS = 0.5 * (_GL_NODES + 1.0), 0.5 * _GL_WEIGHTS

__all__ = ["ManifoldChart"]


class ManifoldChart:
    """Base chart: generic coordinate formulas over ``metric``/``dmetric``.

    Subclasses must set ``dim`` and ``name`` and implement ``metric`` and
    ``dmetric``; everything else has a working (if slower) default.
    ``space_curvature`` is the one declaration of the chart's curvature:
    0.0 on a flat chart, the sectional curvature on a space of constant
    curvature, None otherwise.  ``flat`` and ``locally_symmetric`` follow
    from it; a chart that leaves it None must provide ``nabla_R`` and
    ``nabla2_R``.
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

    # -- metric layer -------------------------------------------------

    def metric(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def dmetric(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def metric_inv(self, x: np.ndarray) -> np.ndarray:
        return np.linalg.inv(self.metric(x))

    def inner(self, x: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        return np.einsum("...ab,...a,...b->...", self.metric(x), u, v)

    def norm(self, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        return np.sqrt(np.maximum(self.inner(x, u, u), 0.0))

    def raise_covector(self, x: np.ndarray, w: np.ndarray) -> np.ndarray:
        return np.einsum("...ab,...b->...a", self.metric_inv(x), w)

    # -- connection layer ---------------------------------------------

    def christoffel(self, x: np.ndarray) -> np.ndarray:
        g_inv = self.metric_inv(x)
        dg = self.dmetric(x)
        # S[..., i, j, l] = d_i g_jl + d_j g_il - d_l g_ij
        s = (
            np.einsum("...ijl->...ijl", dg)
            + np.einsum("...jil->...ijl", dg)
            - np.einsum("...lij->...ijl", dg)
        )
        return 0.5 * np.einsum("...kl,...ijl->...kij", g_inv, s)

    def gamma(self, x: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Gamma(u, v)^k, the Christoffel contraction used by every ODE here."""
        return np.einsum("...kij,...i,...j->...k", self.christoffel(x), u, v)

    def dchristoffel(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, float)
        n = self.dim
        out = np.empty(x.shape[:-1] + (n, n, n, n))
        for l in range(n):
            h = _FD_STEP * (1.0 + np.abs(x[..., l : l + 1]))
            e = np.zeros(n)
            e[l] = 1.0
            cp = self.christoffel(x + h * e)
            cm = self.christoffel(x - h * e)
            out[..., l, :, :, :] = (cp - cm) / (2.0 * h[..., None, None])
        return out

    # -- curvature layer ----------------------------------------------

    def curvature(
        self, x: np.ndarray, X: np.ndarray, Y: np.ndarray, Z: np.ndarray
    ) -> np.ndarray:
        """R(X, Y)Z at x: k(<Y,Z>X - <X,Z>Y) with k = ``space_curvature``.

        Charts without a constant curvature take the coordinate formula.
        """
        k = self.space_curvature
        if k is None:
            return self.curvature_from_christoffel(x, X, Y, Z)
        if self.flat:
            return np.zeros(np.broadcast(X, Y, Z).shape)
        return k * (
            self.inner(x, Y, Z)[..., None] * X
            - self.inner(x, X, Z)[..., None] * Y
        )

    def curvature_from_christoffel(
        self, x: np.ndarray, X: np.ndarray, Y: np.ndarray, Z: np.ndarray
    ) -> np.ndarray:
        """R(X, Y)Z from the coordinate formula.

        R^l_kij = d_i G^l_jk - d_j G^l_ik + G^l_im G^m_jk - G^l_jm G^m_ik.
        Works on every chart; the constant-curvature formula is cross-checked
        against this in the test suite.
        """
        dG = self.dchristoffel(x)
        t1 = np.einsum("...iljk,...i,...j,...k->...l", dG, X, Y, Z)
        t2 = np.einsum("...jlik,...i,...j,...k->...l", dG, X, Y, Z)
        gYZ = self.gamma(x, Y, Z)
        gXZ = self.gamma(x, X, Z)
        t3 = self.gamma(x, X, gYZ)
        t4 = self.gamma(x, Y, gXZ)
        return t1 - t2 + t3 - t4

    def nabla_R(self, x, W, X, Y, Z) -> np.ndarray:
        """(nab_W R)(X, Y)Z: exactly zero on the locally symmetric charts that use this default.

        Broadcasts like ``curvature``: x holds chart points on its leading
        axes and W, X, Y, Z broadcast against it.
        """
        if not self.locally_symmetric:
            raise NotImplementedError(f"{self.name} chart does not provide nabla R")
        return np.zeros(np.broadcast(X, Y, Z).shape)

    def nabla2_R(self, x, W, X, Y, Z) -> np.ndarray:
        """(nab^2_{W,W} R)(X, Y)Z along the geodesic through x with speed W.

        Broadcasts like ``nabla_R``; quadratic in W.
        """
        if not self.locally_symmetric:
            raise NotImplementedError(f"{self.name} chart does not provide nabla^2 R")
        return np.zeros(np.broadcast(X, Y, Z).shape)

    # -- geodesic layer -----------------------------------------------

    def exp(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Endpoint of the geodesic from x with initial velocity v.

        Integrates the geodesic equation with fixed-step classical RK4;
        broadcasts over leading axes.  Raises ChartEscapeError if the
        geodesic leaves the chart domain.
        """
        x = np.asarray(x, float)
        v = np.asarray(v, float)
        x, v = np.broadcast_arrays(x, v)
        speed = float(np.max(self.norm(x, v))) if x.size else 0.0
        steps = min(512, max(16, int(48.0 * speed) + 1))
        q = _geodesic(self, x, v, 1.0 / steps, steps)[..., 0, :]
        if not np.all(self.contains(q)):
            raise ChartEscapeError("geodesic left the chart domain", 1.0)
        return q

    def log(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Initial velocity of the geodesic from x reaching y at time 1.

        Generic implementation: Newton shooting on exp with an FD
        Jacobian.  Charts with a closed form override this.  Shooting can
        reach a longer geodesic than the minimizing one; a result longer
        than the chart segment from x to y, a curve that joins them too,
        raises InjectivityError.
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
        for _ in range(50):
            r = self.exp(x, v) - y
            if float(np.linalg.norm(r)) <= 1e-10 * scale:
                # the margin covers exp's RK4 error where the segment is
                # itself a geodesic (8e-9 relative on a sphere2 radius)
                if float(self.norm(x, v)) > self._segment_length(x, y) * (1.0 + 1e-6):
                    raise InjectivityError("log-map shooting reached a non-minimizing geodesic")
                return v
            J = np.empty((self.dim, self.dim))
            for j in range(self.dim):
                e = np.zeros(self.dim)
                e[j] = 1e-6 * (1.0 + abs(v[j]))
                J[:, j] = (self.exp(x, v + e) - self.exp(x, v - e)) / (2.0 * e[j])
            try:
                dv = np.linalg.solve(J, -r)
            except np.linalg.LinAlgError as exc:
                raise InjectivityError("log-map shooting became singular") from exc
            t = 1.0
            rn = float(np.linalg.norm(r))
            for _ in range(20):
                if float(np.linalg.norm(self.exp(x, v + t * dv) - y)) < rn:
                    break
                t *= 0.5
            v = v + t * dv
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


def _geodesic(chart, x, v, h, steps):
    """RK4 march of the geodesic equation from q = x, dq/ds = v.

    Returns the jet stack (q, dq/ds) of shape (..., 2, n) at the last node.
    """

    def rhs(u):
        q, w = u[..., 0, :], u[..., 1, :]
        return np.stack([w, -chart.gamma(q, w, w)], axis=-2)

    u = np.stack([x, v], axis=-2)
    for _ in range(steps):
        u = rk4.step(rhs, u, h)
    return u
