"""The built-in analytic charts.

euclidean:<n>   flat R^n
sphere2         unit sphere, stereographic projection from the south pole
                (chart origin = north pole, polar cap around the south
                pole excluded)
hyperbolic2     curvature -1 plane, unit-disk model, radius capped at 0.95
so3             rotation group, axis-angle chart, bi-invariant metric,
                angle capped at pi - 0.2

sphere2 and hyperbolic2 share one closed form for log and distance,
written in chart coordinates (``_ConformalChart``).
"""

from __future__ import annotations

import numpy as np

from ..errors import InjectivityError
from . import so3 as _so3
from .base import ManifoldChart

__all__ = ["EuclideanChart", "Sphere2Chart", "Hyperbolic2Chart", "SO3Chart"]


class EuclideanChart(ManifoldChart):
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

    def exp(self, x, v):
        return np.asarray(x, float) + np.asarray(v, float)

    def log(self, x, y):
        return np.asarray(y, float) - np.asarray(x, float)

    def distance(self, x, y):
        return np.linalg.norm(np.asarray(y, float) - np.asarray(x, float), axis=-1)


class _ConformalChart(ManifoldChart):
    """g = e^{2 phi} * I on a disk-like domain; subclasses supply phi.

    Both subclasses are stereographic charts of a space of constant
    curvature k = ``space_curvature`` = +-1, with e^phi = 2 / (1 + k|x|^2),
    and share one closed form for log and distance in chart coordinates.
    With A = 1 + k|x|^2, B = 1 + k|y|^2, u = y - x and s = |u|^2 / (AB),

        s = sin^2(d/2) on the sphere,  sinh^2(d/2) on the disk,
        log_x(y) = d / sqrt(s |1 - k s|) * A / (2B) * (u + k |u|^2 / A * x).

    The ratio d / sqrt(s |1 - k s|) tends to 2 as s -> 0 and takes that
    value at y = x, so log keeps its relative precision next to the base
    point.  Subclasses give d(s) as ``_arc``; ``log`` raises
    InjectivityError where d exceeds ``_log_cut``.
    """

    _log_cut = np.inf

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

    @staticmethod
    def _arc(s):
        """Geodesic distance d as a function of s."""
        raise NotImplementedError

    def _chord(self, x, y):
        """u = y - x, |u|^2, A and B of the closed form."""
        y = np.asarray(y, float)
        k = self.space_curvature
        u = y - x
        uu = np.einsum("...a,...a->...", u, u)
        A = 1.0 + k * np.einsum("...a,...a->...", x, x)
        B = 1.0 + k * np.einsum("...a,...a->...", y, y)
        return u, uu, A, B

    def distance(self, x, y):
        _, uu, A, B = self._chord(np.asarray(x, float), y)
        return self._arc(uu / (A * B))

    def log(self, x, y):
        x = np.asarray(x, float)
        u, uu, A, B = self._chord(x, y)
        k = self.space_curvature
        s = uu / (A * B)
        d = self._arc(s)
        if (d > self._log_cut).any():
            raise InjectivityError(f"{self.name} log requested at or past the antipode")
        root = np.sqrt(s * np.abs(1.0 - k * s))
        ratio = np.divide(d, root, out=np.full_like(d, 2.0), where=s > 0)
        return (ratio * A / (2.0 * B))[..., None] * (u + (k * uu / A)[..., None] * x)


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
    _log_cut = np.pi - 1e-6

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

    @staticmethod
    def _arc(s):
        # 2 asin(sqrt(s)); this form stays defined where rounding puts s above 1
        return 2.0 * np.arctan2(np.sqrt(s), np.sqrt(np.maximum(1.0 - s, 0.0)))


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

    @staticmethod
    def _arc(s):
        return 2.0 * np.arcsinh(np.sqrt(s))


class SO3Chart(ManifoldChart):
    """Rotation group in axis-angle coordinates, bi-invariant metric.

    The metric is the pullback of <omega, omega> on body angular
    velocities, g(x) = J_r(x)^T J_r(x) = u(|x|) I + beta(|x|) x x^T.  The
    space has constant sectional curvature 1/4 (Milnor, *Curvatures of
    left invariant metrics on Lie groups*, Adv. Math. 1976), so the body
    frame's R(X, Y)Z = -[[X, Y], Z]/4 is the base class's
    constant-curvature formula; the tests cross-check it against the
    coordinate formula.
    """

    dim = 3
    name = "so3"
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
