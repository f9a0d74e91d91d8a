"""The built-in analytic charts.

euclidean:<n>   flat R^n
sphere2         unit sphere, stereographic projection from the south pole
                (chart origin = north pole, polar cap around the south
                pole excluded)
hyperbolic2     curvature -1 plane, unit-disk model, radius capped at 0.95
so3             rotation group, axis-angle chart, bi-invariant metric,
                angle capped at pi - 0.2

sphere2, hyperbolic2 and so3 share the closed-form Gamma of a metric
a(|x|^2) I + b(|x|^2) x x^T (``_radial_christoffel``) and one record,
``_RadialPoint``, that contracts it without building arrays; sphere2 and
hyperbolic2 also share one closed form for log and distance
(``_ConformalChart``).
"""

from __future__ import annotations

import functools

import numpy as np

from ..errors import InjectivityError
from . import so3 as _so3
from .base import ChartPoint, ManifoldChart

__all__ = ["EuclideanChart", "Sphere2Chart", "Hyperbolic2Chart", "SO3Chart"]


class EuclideanChart(ManifoldChart):
    space_curvature = 0.0

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("euclidean chart needs dimension >= 1")
        self.dim = int(n)
        self.name = f"euclidean:{n}"

    def at(self, x, order):
        x = np.asarray(x, float)
        n = self.dim
        eye = np.broadcast_to(np.eye(n), x.shape[:-1] + (n, n)).copy()
        zero = [np.zeros(x.shape[:-1] + (n,) * (k + 3)) for k in range(min(order, 2))]
        return ChartPoint(0.0, eye, eye, *zero)

    def gamma(self, x, u, v):
        return np.zeros(np.broadcast(np.asarray(u, float), np.asarray(v, float)).shape)

    def inner(self, x, u, v):
        return np.einsum("...a,...a->...", np.asarray(u, float), np.asarray(v, float))

    def exp(self, x, v):
        return np.asarray(x, float) + np.asarray(v, float)

    def log(self, x, y):
        return np.asarray(y, float) - np.asarray(x, float)

    def distance(self, x, y):
        return np.linalg.norm(np.asarray(y, float) - np.asarray(x, float), axis=-1)


@functools.cache
def _unit_tensors(n):
    """I, and the d_l-derivatives of the p and q terms of ``_radial_christoffel`` at p = q = 1, [c, l, k, i, j]."""
    eye = np.eye(n)
    dd = eye[:, None, :, None] * eye[:, None, :]  # d_li d_kj
    linear = np.stack([dd + dd.swapaxes(-1, -2), eye[:, :, None, None] * eye])
    eye.flags.writeable = linear.flags.writeable = False
    return eye, linear


def _radial_christoffel(x, p, q, r=None):
    """Gamma^k_ij = p (x_i d_kj + x_j d_ki) + q x_k d_ij + r x_k x_i x_j, r None meaning 0.

    The connection of every metric g = a(s) I + b(s) x x^T with s = |x|^2:
    p = a'/a, q = (b - a')/(a + b s), r = (a b' - 2 a' b)/(a (a + b s)).
    """
    eye = _unit_tensors(x.shape[-1])[0]
    px = (p[..., None] * x)[..., None, None, :] * eye[:, :, None]  # [k, i, j] = p d_ki x_j
    out = px + px.swapaxes(-1, -2)
    out += (q[..., None] * x)[..., :, None, None] * eye
    if r is not None:
        out += (r[..., None] * x)[..., :, None, None] * (x[..., :, None] * x[..., None, :])[..., None, :, :]
    return out


def _radial_dchristoffel(x, coef, dcoef):
    """d_l Gamma^k_ij of ``_radial_christoffel``; dcoef holds the s-derivatives of coef = (p, q, r).

    2 x_l Gamma'^k_ij + p (d_li d_kj + d_lj d_ki) + q d_lk d_ij
    + r (d_lk x_i x_j + d_li x_k x_j + d_lj x_k x_i), Gamma' made of dcoef.
    """
    p, q, r = coef
    e, linear = _unit_tensors(x.shape[-1])
    out = 2.0 * x[..., :, None, None, None] * _radial_christoffel(x, *dcoef)[..., None, :, :, :]
    out += np.einsum("...c,clkij->...lkij", np.stack([p, q], axis=-1), linear)
    if r is not None:
        t = e[:, :, None, None] * (x[..., :, None] * x[..., None, :])[..., None, None, :, :]
        out += r[..., None, None, None, None] * (t + t.swapaxes(-3, -2) + t.swapaxes(-3, -1))
    return out


def _dot(u, v):  # einsum's loop over a 2- or 3-long axis is slower
    out = u[..., 0] * v[..., 0]
    for i in range(1, u.shape[-1]):
        out = out + u[..., i] * v[..., i]
    return out


class _RadialPoint(ChartPoint):
    """The record of a metric g = a I + beta x x^T, with g^-1 = ainv I + binv x x^T.

    It keeps x, those four scalars, the coefficients coef = (p, q, r) of
    ``_radial_christoffel`` from order 1 and their s-derivatives dcoef
    from order 2 (beta, binv, r None meaning 0), and contracts them in
    closed form, O(n) per point; its arrays are built only when read.
    With Gamma' made of dcoef, d_l Gamma^k(u, v) = 2 x_l Gamma'(u, v)^k
    + p (u_l v_k + v_l u_k) + q (u.v) d_lk + r (d_lk (x.u)(x.v) + u_l x_k (x.v) + v_l x_k (x.u)).
    """

    R = nR = nnR = coef = dcoef = None

    def __init__(self, kappa, x, a, beta, ainv, binv):
        self.kappa, self.x, self.a, self.beta, self.ainv, self.binv = kappa, x, a, beta, ainv, binv

    def _radial(self, c0, c1, v=None):
        """c0 I + c1 x x^T as an array, or applied to v."""
        x = self.x
        if v is None:
            out = c0[..., None, None] * _unit_tensors(x.shape[-1])[0]
            return out if c1 is None else out + c1[..., None, None] * (x[..., :, None] * x[..., None, :])
        out = c0[..., None] * v
        return out if c1 is None else out + (c1 * _dot(x, v))[..., None] * x

    g = functools.cached_property(lambda self: self._radial(self.a, self.beta))
    ginv = functools.cached_property(lambda self: self._radial(self.ainv, self.binv))
    Gamma = functools.cached_property(lambda self: None if self.coef is None else _radial_christoffel(self.x, *self.coef))
    dGamma = functools.cached_property(
        lambda self: None if self.dcoef is None else _radial_dchristoffel(self.x, self.coef, self.dcoef)
    )

    def lower(self, v):
        return self._radial(self.a, self.beta, v)

    def raise_covector(self, w):
        return self._radial(self.ainv, self.binv, w)

    def gamma(self, u, v):
        (p, q, r), x = self.coef, self.x
        xu, xv = _dot(x, u), _dot(x, v)
        s = q * _dot(u, v)
        if r is not None:
            s = s + r * xu * xv
        return (p * xu)[..., None] * v + (p * xv)[..., None] * u + s[..., None] * x

    def gamma_adjoint(self, b, v):
        (p, q, r), x = self.coef, self.x
        bx, xv = _dot(b, x), _dot(x, v)
        s = p * _dot(b, v)
        if r is not None:
            s = s + r * bx * xv
        return s[..., None] * x + (p * xv)[..., None] * b + (q * bx)[..., None] * v

    def dgamma_adjoint(self, b, u, v):
        (p, q, r), (dp, dq, dr), x = self.coef, self.dcoef, self.x
        xu, xv, bx, bu, bv, uv = _dot(x, u), _dot(x, v), _dot(b, x), _dot(b, u), _dot(b, v), _dot(u, v)
        t = dp * (xu * bv + xv * bu) + dq * bx * uv  # b Gamma'(u, v)
        cu, cv, cb = p * bv, p * bu, q * uv
        if r is not None:
            t = t + dr * bx * xu * xv
            cu, cv, cb = cu + r * bx * xv, cv + r * bx * xu, cb + r * xu * xv
        return (2.0 * t)[..., None] * x + cu[..., None] * u + cv[..., None] * v + cb[..., None] * b


class _ConformalChart(ManifoldChart):
    """Stereographic chart of a space of constant curvature k = +-1.

    g = a I with a = 4 / (1 + k |x|^2)^2, so in ``_radial_christoffel``
    p = -2k / (1 + k |x|^2), q = -p, r = 0 and p' = -k p / (1 + k |x|^2).
    The closed form for log and distance in chart coordinates: with A = 1 + k|x|^2,
    B = 1 + k|y|^2, u = y - x and s = |u|^2 / (AB),

        s = sin^2(d/2) on the sphere,  sinh^2(d/2) on the disk,
        log_x(y) = d / sqrt(s |1 - k s|) * A / (2B) * (u + k |u|^2 / A * x).

    The ratio d / sqrt(s |1 - k s|) tends to 2 as s -> 0 and takes that
    value at y = x, so log keeps its relative precision next to the base
    point.  Subclasses give d(s) as ``_arc`` and the domain's
    ``radius_cap``; ``log`` raises InjectivityError where d exceeds
    ``_log_cut``.
    """

    _log_cut = np.inf

    def at(self, x, order):
        x = np.asarray(x, float)
        k = self.space_curvature
        d = 1.0 + k * _dot(x, x)
        w = 1.0 / d
        pt = _RadialPoint(k, x, 4.0 * w * w, None, 0.25 * d * d, None)
        p = -2.0 * k * w
        if order > 0:
            pt.coef = (p, -p, None)
        if order > 1:
            dp = -k * w * p
            pt.dcoef = (dp, -dp, None)
        return pt

    def contains(self, x):
        x = np.asarray(x, float)
        ok = np.all(np.isfinite(x), axis=-1)
        return ok & (np.einsum("...a,...a->...", x, x) <= self.radius_cap**2)

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

    @staticmethod
    def _arc(s):
        return 2.0 * np.arcsinh(np.sqrt(s))


class SO3Chart(ManifoldChart):
    """Rotation group in axis-angle coordinates, bi-invariant metric.

    The metric is the pullback of <omega, omega> on body angular
    velocities, g(x) = J_r(x)^T J_r(x) = u I + beta x x^T, u and beta
    power series in |x|^2 (``so3.metric_coefficients``).  The
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

    def at(self, x, order):
        x = np.asarray(x, float)
        u, du, d2u, b, db, d2b = np.moveaxis(_so3.metric_coefficients(_dot(x, x)), -1, 0)
        # u + beta |x|^2 = 1, so g^-1 = (I - beta x x^T) / u and, in
        # _radial_christoffel, q = beta - u' and r = beta' - 2 u' beta / u
        pt = _RadialPoint(self.space_curvature, x, u, b, 1.0 / u, -b / u)
        coef = (du / u, b - du, db - 2.0 * du * b / u)
        if order > 0:
            pt.coef = coef
        if order > 1:
            dp = (d2u - du * coef[0]) / u
            dr = d2b - 2.0 * (d2u * b + du * db) / u + 2.0 * du * du * b / (u * u)
            pt.dcoef = (dp, db - d2u, dr)
        return pt

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
