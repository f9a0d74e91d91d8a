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
from ..errors import ChartDomainError, ChartEscapeError, InjectivityError, NumericalError
from .transport import parallel_transport

# Gauss-Legendre rule on [0, 1] for ManifoldChart._segment_length
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
_GL_NODES, _GL_WEIGHTS = 0.5 * (_GL_NODES + 1.0), 0.5 * _GL_WEIGHTS

__all__ = ["ManifoldChart"]


class ManifoldChart:
    """Base chart: generic coordinate formulas over ``metric``/``dmetric``.

    Subclasses must set ``dim``, ``name`` and ``curvature_kind`` and
    implement ``metric``; everything else has a working (if slower)
    default.  ``curvature_kind`` is one of ``"flat"``,
    ``"constant_curvature"``, ``"lie_group_so3"``, ``"generic_numeric"``.
    """

    dim: int = 0
    name: str = ""
    curvature_kind: str = "generic_numeric"
    #: sectional curvature when the space has a constant one, else None
    space_curvature: float | None = None
    #: relative step for finite-difference fallbacks on analytic data
    fd_step: float = 1e-6

    # -- metric layer -------------------------------------------------

    def metric(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def dmetric(self, x: np.ndarray) -> np.ndarray:
        """Coordinate derivative of the metric, central differences by default."""
        x = np.asarray(x, float)
        n = self.dim
        out = np.empty(x.shape[:-1] + (n, n, n))
        for l in range(n):
            h = self.fd_step * (1.0 + np.abs(x[..., l : l + 1]))
            e = np.zeros(n)
            e[l] = 1.0
            gp = self.metric(x + h * e)
            gm = self.metric(x - h * e)
            out[..., l, :, :] = (gp - gm) / (2.0 * h[..., None])
        return out

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
            h = self.fd_step * (1.0 + np.abs(x[..., l : l + 1]))
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
        """R(X, Y)Z at x.  Dispatches on ``curvature_kind``."""
        kind = self.curvature_kind
        if kind == "flat":
            return np.zeros(np.broadcast(X, Y, Z).shape)
        if kind == "constant_curvature":
            k = self.space_curvature
            return k * (
                self.inner(x, Y, Z)[..., None] * X
                - self.inner(x, X, Z)[..., None] * Y
            )
        return self.curvature_from_christoffel(x, X, Y, Z)

    def curvature_from_christoffel(
        self, x: np.ndarray, X: np.ndarray, Y: np.ndarray, Z: np.ndarray
    ) -> np.ndarray:
        """R(X, Y)Z from the coordinate formula.

        R^l_kij = d_i G^l_jk - d_j G^l_ik + G^l_im G^m_jk - G^l_jm G^m_ik.
        Works on every chart; the kind-specific paths are cross-checked
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

    @property
    def locally_symmetric(self) -> bool:
        """True when nabla R vanishes identically on this chart."""
        return self.curvature_kind in ("flat", "constant_curvature", "lie_group_so3")

    # steps for the finite-difference covariant derivatives of R; the
    # second difference needs a much coarser step because the numeric
    # curvature itself carries FD noise that a 1/h^2 factor would amplify
    nabla_step: float = 1e-4
    nabla2_step: float = 1e-2

    def nabla_R(self, x, W, X, Y, Z) -> np.ndarray:
        """(nab_W R)(X, Y)Z.  Exactly zero on locally symmetric charts.

        Broadcasts like ``curvature``: x holds chart points on its leading
        axes and W, X, Y, Z broadcast against it.  Tensorial in W: the
        derivative is differenced along the coordinate basis and then
        contracted with W, so the result is exactly linear in W.
        """
        return self._nabla_R_fd(x, W, X, Y, Z, self.nabla_step, order=1)

    def nabla2_R(self, x, W, X, Y, Z) -> np.ndarray:
        """(nab^2_{W,W} R)(X, Y)Z along the geodesic through x with speed W.

        Broadcasts like ``nabla_R``; quadratic in W, differenced along W.
        """
        return self._nabla_R_fd(x, W, X, Y, Z, self.nabla2_step, order=2)

    def _nabla_R_fd(self, x, W, X, Y, Z, step, order):
        """Differences of parallel-transported curvature over a batch of points.

        Each base point p gets the geodesics through p with velocity
        +-h_p U on the common parameter interval [0, 1], h_p = step (1 + |p|).
        For order 1, U runs over the coordinate basis and the central
        differences are contracted with W; for order 2, U = W and a base
        point is a (point, W) pair.  (X, Y, Z) are transported out along
        every geodesic, R is evaluated at its end and transported back, so
        the whole batch takes one geodesic march and two transport marches.
        """
        if self.locally_symmetric:
            return np.zeros(np.broadcast(X, Y, Z).shape)
        n = self.dim
        x, W, X, Y, Z = (np.asarray(a, float) for a in (x, W, X, Y, Z))
        full = np.broadcast_shapes(x.shape, W.shape, X.shape, Y.shape, Z.shape)
        base = x.shape if order == 1 else np.broadcast_shapes(x.shape, W.shape)
        # the non-singleton axes of the base shape index the base points; the
        # rest of the broadcast shape is a batch of vectors at each point
        axes = [i for i, size in enumerate(base[:-1], len(full) - len(base)) if size > 1]
        front = list(range(len(axes)))
        vecs = np.stack([np.moveaxis(np.broadcast_to(a, full), axes, front) for a in (W, X, Y, Z)])
        P = int(np.prod(base[:-1], dtype=int))
        W, X, Y, Z = vecs.reshape(4, P, -1, n)
        p = np.broadcast_to(x, base).reshape(P, n)
        h = step * (1.0 + np.linalg.norm(p, axis=-1))
        if np.any(h < 1e-12):
            raise NumericalError("covariant-derivative step underflow")
        U = np.eye(n)[:, None, :] if order == 1 else W[None, :, 0]
        vel = np.array([1.0, -1.0])[:, None, None, None] * (h[:, None] * U)
        ss = np.linspace(0.0, 1.0, 9)
        path = _geodesic(self, np.broadcast_to(p, vel.shape), vel, 1.0 / 8, 8, keep=True)
        qs, vs = path[..., 0, :], path[..., 1, :]
        moved = parallel_transport(self, ss, qs, vs, np.stack([X, Y, Z], axis=1)[None, None])
        Rq = self.curvature(qs[-1][..., None, :], *np.moveaxis(moved, 3, 0))
        ends = parallel_transport(self, ss[::-1], qs[::-1], vs[::-1], Rq)
        if order == 1:
            out = np.einsum("kpbl,pbk->pbl", ends[0] - ends[1], W) / (2.0 * h[:, None, None])
        else:
            center = self.curvature(p[:, None, :], X, Y, Z)
            out = (ends[0, 0] - 2.0 * center + ends[1, 0]) / (h**2)[:, None, None]
        return np.moveaxis(out.reshape(vecs.shape[1:]), front, axes)

    # -- geodesic layer -----------------------------------------------

    def exp(self, x: np.ndarray, v: np.ndarray, steps: int | None = None) -> np.ndarray:
        """Endpoint of the geodesic from x with initial velocity v.

        Integrates the geodesic equation with fixed-step classical RK4;
        broadcasts over leading axes.  Raises ChartEscapeError if the
        geodesic leaves the chart domain.
        """
        x = np.asarray(x, float)
        v = np.asarray(v, float)
        x, v = np.broadcast_arrays(x, v)
        if steps is None:
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


def _geodesic(chart, x, v, h, steps, keep=False):
    """RK4 march of the geodesic equation from q = x, dq/ds = v.

    Returns the jet stack (q, dq/ds) of shape (..., 2, n) at the last
    node, or with ``keep`` at every node, stacked along a new first axis.
    """

    def rhs(u):
        q, w = u[..., 0, :], u[..., 1, :]
        return np.stack([w, -chart.gamma(q, w, w)], axis=-2)

    u = np.stack([x, v], axis=-2)
    nodes = [u]
    for _ in range(steps):
        u = rk4.step(rhs, u, h)
        if keep:
            nodes.append(u)
    return np.stack(nodes) if keep else u
