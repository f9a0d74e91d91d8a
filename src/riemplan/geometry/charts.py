"""The built-in analytic charts.

euclidean:<n>   flat R^n
sphere2         unit sphere, stereographic projection from the south pole
                (chart origin = north pole, polar cap around the south
                pole excluded)
hyperbolic2     curvature -1 plane, unit-disk model, radius capped at 0.95
so3             rotation group, axis-angle chart, bi-invariant metric,
                angle capped at pi - 0.2
"""

from __future__ import annotations

import numpy as np

from ..errors import InjectivityError
from . import so3 as _so3
from .base import ManifoldChart

__all__ = ["EuclideanChart", "Sphere2Chart", "Hyperbolic2Chart", "SO3Chart"]


class EuclideanChart(ManifoldChart):
    curvature_kind = "flat"
    space_curvature = 0.0

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("euclidean chart needs dimension >= 1")
        self.dim = int(n)
        self.name = f"euclidean:{n}"

    def metric(self, x):
        x = np.asarray(x, float)
        return np.broadcast_to(np.eye(self.dim), x.shape[:-1] + (self.dim, self.dim)).copy()

    def dmetric(self, x):
        x = np.asarray(x, float)
        n = self.dim
        return np.zeros(x.shape[:-1] + (n, n, n))

    def christoffel(self, x):
        x = np.asarray(x, float)
        n = self.dim
        return np.zeros(x.shape[:-1] + (n, n, n))

    def dchristoffel(self, x):
        x = np.asarray(x, float)
        n = self.dim
        return np.zeros(x.shape[:-1] + (n, n, n, n))

    def gamma(self, x, u, v):
        return np.zeros(np.broadcast(np.asarray(u, float), np.asarray(v, float)).shape)

    def inner(self, x, u, v):
        return np.einsum("...a,...a->...", np.asarray(u, float), np.asarray(v, float))

    def metric_inv(self, x):
        return self.metric(x)

    def exp(self, x, v, steps=None):
        return np.asarray(x, float) + np.asarray(v, float)

    def log(self, x, y):
        return np.asarray(y, float) - np.asarray(x, float)

    def distance(self, x, y):
        return np.linalg.norm(np.asarray(y, float) - np.asarray(x, float), axis=-1)


class _ConformalChart(ManifoldChart):
    """g = e^{2 phi} * I on a disk-like domain; subclasses supply phi."""

    curvature_kind = "constant_curvature"

    def _phi_grad(self, x):
        raise NotImplementedError

    def _phi_hess(self, x):
        raise NotImplementedError

    def _lam(self, x):
        """Conformal factor lambda with g = lambda^2 I."""
        raise NotImplementedError

    def metric(self, x):
        x = np.asarray(x, float)
        lam2 = self._lam(x) ** 2
        return lam2[..., None, None] * np.eye(self.dim)

    def metric_inv(self, x):
        x = np.asarray(x, float)
        lam2 = self._lam(x) ** 2
        return (1.0 / lam2)[..., None, None] * np.eye(self.dim)

    def inner(self, x, u, v):
        u = np.asarray(u, float)
        v = np.asarray(v, float)
        return self._lam(np.asarray(x, float)) ** 2 * np.einsum("...a,...a->...", u, v)

    def dmetric(self, x):
        x = np.asarray(x, float)
        lam2 = self._lam(x) ** 2
        pg = self._phi_grad(x)
        return 2.0 * (lam2[..., None] * pg)[..., :, None, None] * np.eye(self.dim)

    def christoffel(self, x):
        x = np.asarray(x, float)
        pg = self._phi_grad(x)
        n = self.dim
        eye = np.eye(n)
        out = np.einsum("...j,ki->...kij", pg, eye) + np.einsum(
            "...i,kj->...kij", pg, eye
        )
        out -= np.einsum("...k,ij->...kij", pg, eye)
        return out

    def gamma(self, x, u, v):
        u = np.asarray(u, float)
        v = np.asarray(v, float)
        pg = self._phi_grad(np.asarray(x, float))
        pu = np.einsum("...a,...a->...", pg, u)
        pv = np.einsum("...a,...a->...", pg, v)
        uv = np.einsum("...a,...a->...", u, v)
        return pu[..., None] * v + pv[..., None] * u - uv[..., None] * pg

    def dchristoffel(self, x):
        x = np.asarray(x, float)
        ph = self._phi_hess(x)
        n = self.dim
        eye = np.eye(n)
        out = np.einsum("...lj,ki->...lkij", ph, eye) + np.einsum(
            "...li,kj->...lkij", ph, eye
        )
        out -= np.einsum("...lk,ij->...lkij", ph, eye)
        return out


class Sphere2Chart(_ConformalChart):
    """Unit 2-sphere in stereographic coordinates.

    The chart covers everything except a polar cap around the projection
    pole; with the 5.0 radius cap the excluded cap has angular radius
    about 22 degrees.  North pole at the origin, equator at |x| = 1.
    """

    dim = 2
    name = "sphere2"
    space_curvature = 1.0
    radius_cap = 5.0

    def _lam(self, x):
        r2 = np.einsum("...a,...a->...", x, x)
        return 2.0 / (1.0 + r2)

    def _phi_grad(self, x):
        r2 = np.einsum("...a,...a->...", x, x)
        return -2.0 * x / (1.0 + r2)[..., None]

    def _phi_hess(self, x):
        r2 = np.einsum("...a,...a->...", x, x)
        d = 1.0 + r2
        out = -2.0 / d[..., None, None] * np.eye(2)
        out += 4.0 * np.einsum("...i,...j->...ij", x, x) / (d**2)[..., None, None]
        return out

    def contains(self, x):
        x = np.asarray(x, float)
        ok = np.all(np.isfinite(x), axis=-1)
        return ok & (np.einsum("...a,...a->...", x, x) <= self.radius_cap**2)

    # embedding helpers (projection from the south pole (0,0,-1))
    def embed(self, x):
        x = np.asarray(x, float)
        r2 = np.einsum("...a,...a->...", x, x)
        d = 1.0 + r2
        return np.stack(
            [2 * x[..., 0] / d, 2 * x[..., 1] / d, (1.0 - r2) / d], axis=-1
        )

    def _push_to_chart(self, p, w):
        """Differential of the chart map applied to an embedded tangent w at p."""
        z = p[..., 2]
        d = 1.0 + z
        out0 = w[..., 0] / d - p[..., 0] * w[..., 2] / d**2
        out1 = w[..., 1] / d - p[..., 1] * w[..., 2] / d**2
        return np.stack([out0, out1], axis=-1)

    @staticmethod
    def _angle(p, q):
        """Great-circle distance of embedded points."""
        cross = np.cross(p, q)
        return np.arctan2(np.linalg.norm(cross, axis=-1), np.einsum("...a,...a->...", p, q))

    def distance(self, x, y):
        return self._angle(self.embed(np.asarray(x, float)), self.embed(np.asarray(y, float)))

    def log(self, x, y):
        p = self.embed(np.asarray(x, float))
        q = self.embed(np.asarray(y, float))
        d = self._angle(p, q)
        w = q - np.einsum("...a,...a->...", p, q)[..., None] * p
        wn = np.linalg.norm(w, axis=-1)
        if np.any((d > np.pi - 1e-6) | ((wn < 1e-14) & (d > 1e-7))):
            raise InjectivityError("sphere log requested at or past the antipode")
        scale = np.where(wn > 0, d / np.where(wn > 0, wn, 1.0), 0.0)
        return self._push_to_chart(p, scale[..., None] * w)


class Hyperbolic2Chart(_ConformalChart):
    """Curvature -1 plane on the unit disk, radius capped at 0.95."""

    dim = 2
    name = "hyperbolic2"
    space_curvature = -1.0
    radius_cap = 0.95

    def _lam(self, x):
        r2 = np.einsum("...a,...a->...", x, x)
        return 2.0 / (1.0 - r2)

    def _phi_grad(self, x):
        r2 = np.einsum("...a,...a->...", x, x)
        return 2.0 * x / (1.0 - r2)[..., None]

    def _phi_hess(self, x):
        r2 = np.einsum("...a,...a->...", x, x)
        d = 1.0 - r2
        out = 2.0 / d[..., None, None] * np.eye(2)
        out += 4.0 * np.einsum("...i,...j->...ij", x, x) / (d**2)[..., None, None]
        return out

    def contains(self, x):
        x = np.asarray(x, float)
        ok = np.all(np.isfinite(x), axis=-1)
        return ok & (np.einsum("...a,...a->...", x, x) <= self.radius_cap**2)

    def _embed(self, x):
        """Disk point to the standard two-sheeted hyperboloid."""
        r2 = np.einsum("...a,...a->...", x, x)
        d = 1.0 - r2
        x0 = (1.0 + r2) / d
        return np.stack([x0, 2 * x[..., 0] / d, 2 * x[..., 1] / d], axis=-1)

    @staticmethod
    def _ldot(p, q):
        return -p[..., 0] * q[..., 0] + p[..., 1] * q[..., 1] + p[..., 2] * q[..., 2]

    def distance(self, x, y):
        p = self._embed(np.asarray(x, float))
        q = self._embed(np.asarray(y, float))
        c = np.maximum(-self._ldot(p, q), 1.0)
        return np.arccosh(c)

    def log(self, x, y):
        p = self._embed(np.asarray(x, float))
        q = self._embed(np.asarray(y, float))
        pq = self._ldot(p, q)
        d = np.arccosh(np.maximum(-pq, 1.0))
        w = q + pq[..., None] * p
        wn = np.sqrt(np.maximum(self._ldot(w, w), 0.0))
        scale = np.where(wn > 0, d / np.where(wn > 0, wn, 1.0), 0.0)
        w = scale[..., None] * w
        # push the hyperboloid tangent back to disk coordinates
        x0 = p[..., 0]
        out = w[..., 1:] / (1.0 + x0)[..., None]
        out -= p[..., 1:] * (w[..., 0] / (1.0 + x0) ** 2)[..., None]
        return out


class SO3Chart(ManifoldChart):
    """Rotation group in axis-angle coordinates, bi-invariant metric.

    The metric is the pullback of <omega, omega> on body angular
    velocities, g(x) = J_r(x)^T J_r(x) = u(|x|) I + beta(|x|) x x^T.  The
    space is locally symmetric with constant sectional curvature 1/4; the
    curvature endomorphism is evaluated through the Lie-bracket route in
    the body frame, which the tests cross-check against both the
    constant-curvature closed form and the coordinate formula.
    """

    dim = 3
    name = "so3"
    curvature_kind = "lie_group_so3"
    space_curvature = 0.25
    angle_cap = np.pi - 0.2

    def metric(self, x):
        x = np.asarray(x, float)
        theta = np.linalg.norm(x, axis=-1)
        u = _so3.metric_radial(theta)
        beta = _so3.metric_outer(theta)
        out = u[..., None, None] * np.eye(3)
        out += beta[..., None, None] * np.einsum("...i,...j->...ij", x, x)
        return out

    def dmetric(self, x):
        x = np.asarray(x, float)
        theta = np.linalg.norm(x, axis=-1)
        upt = _so3.metric_radial_prime_over_theta(theta)
        bpt = _so3.metric_outer_prime_over_theta(theta)
        beta = _so3.metric_outer(theta)
        eye = np.eye(3)
        xx = np.einsum("...i,...j->...ij", x, x)
        out = np.einsum("...l,ab->...lab", upt[..., None] * x, eye)
        out += np.einsum("...l,...ab->...lab", bpt[..., None] * x, xx)
        out += beta[..., None, None, None] * (
            np.einsum("al,...b->...lab", eye, x) + np.einsum("bl,...a->...lab", eye, x)
        )
        return out

    def curvature(self, x, X, Y, Z):
        x = np.asarray(x, float)
        J = _so3.right_jacobian(x)
        bx = np.einsum("...ab,...b->...a", J, np.asarray(X, float))
        by = np.einsum("...ab,...b->...a", J, np.asarray(Y, float))
        bz = np.einsum("...ab,...b->...a", J, np.asarray(Z, float))
        body = -0.25 * np.cross(np.cross(bx, by), bz)
        return np.einsum("...ab,...b->...a", _so3.right_jacobian_inv(x), body)

    def contains(self, x):
        x = np.asarray(x, float)
        ok = np.all(np.isfinite(x), axis=-1)
        return ok & (np.linalg.norm(x, axis=-1) <= self.angle_cap)

    def log(self, x, y):
        x = np.asarray(x, float)
        y = np.asarray(y, float)
        rel = np.swapaxes(_so3.rodrigues(x), -1, -2) @ _so3.rodrigues(y)
        r = _so3.rotation_log(rel)
        ang = np.linalg.norm(r, axis=-1)
        if np.any(ang >= np.pi - 1e-9):
            raise InjectivityError("so3 log requested at the cut locus")
        return np.einsum("...ab,...b->...a", _so3.right_jacobian_inv(x), r)

    def distance(self, x, y):
        rel = np.swapaxes(_so3.rodrigues(np.asarray(x, float)), -1, -2) @ _so3.rodrigues(
            np.asarray(y, float)
        )
        return np.linalg.norm(_so3.rotation_log(rel), axis=-1)
