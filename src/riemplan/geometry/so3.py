"""Rotation-group helpers for the axis-angle chart.

Rotations are parametrized by w in R^3 with |w| the rotation angle; the
series-safe coefficient functions below switch to Taylor expansions for
small angles so every quantity stays smooth through w = 0.
"""

from __future__ import annotations

import numpy as np

_SMALL = 0.1


def hat(w: np.ndarray) -> np.ndarray:
    w = np.asarray(w, float)
    out = np.zeros(w.shape[:-1] + (3, 3))
    out[..., 0, 1] = -w[..., 2]
    out[..., 0, 2] = w[..., 1]
    out[..., 1, 0] = w[..., 2]
    out[..., 1, 2] = -w[..., 0]
    out[..., 2, 0] = -w[..., 1]
    out[..., 2, 1] = w[..., 0]
    return out


def _series(theta, coeffs, closed):
    """Evaluate closed(theta) with a Taylor fallback below the switch angle."""
    theta = np.asarray(theta, float)
    t2 = theta * theta
    small = theta < _SMALL
    with np.errstate(divide="ignore", invalid="ignore"):
        val = np.where(small, 0.0, closed(np.where(small, 1.0, theta)))
    ser = np.zeros_like(theta)
    for c in reversed(coeffs):
        ser = ser * t2 + c
    return np.where(small, ser, val)


def sinc(theta):
    """sin(theta)/theta."""
    return _series(theta, [1.0, -1 / 6, 1 / 120, -1 / 5040], lambda t: np.sin(t) / t)


def cos_coeff(theta):
    """(1 - cos(theta))/theta^2."""
    return _series(
        theta, [0.5, -1 / 24, 1 / 720, -1 / 40320], lambda t: (1 - np.cos(t)) / t**2
    )


# u = (2 - 2 cos theta)/theta^2 = sum_k 2 (-s)^k / (2k+2)! and
# beta = (theta^2 - 2 + 2 cos theta)/theta^4 = sum_k 2 (-s)^k / (2k+4)!
# in s = theta^2, with their first two s-derivatives as the columns;
# 21 terms reach double precision up to theta = 2 pi
_POWERS = np.arange(21)
_FACTORIALS = np.cumprod(np.r_[1.0, np.arange(1.0, 45.0)])
_METRIC_TABLE = np.stack(
    [
        np.pad(np.polynomial.polynomial.polyder(2.0 * (-1.0) ** _POWERS / _FACTORIALS[2 * _POWERS + m], d), (0, d))
        for m in (2, 4)
        for d in range(3)
    ],
    axis=-1,
)


def metric_coefficients(s):
    """u, u', u'', beta, beta', beta'' at s = theta^2 (primes are d/ds), on a last axis.

    The axis-angle metric is g = u I + beta x x^T with s = |x|^2, and
    u + beta s = 1.  Both are entire in s: no switch at small theta.
    """
    # einsum, not a matrix product: a row's bits must not depend on the batch
    return np.einsum("...k,kc->...c", np.power(np.asarray(s, float)[..., None], _POWERS), _METRIC_TABLE)


def inv_jac_coeff(theta):
    """d(theta) with J_r^{-1} = I + hat/2 + d * hat^2."""
    return _series(
        theta,
        [1 / 12, 1 / 720, 1 / 30240],
        lambda t: 1 / t**2 - (1 + np.cos(t)) / (2 * t * np.sin(t)),
    )


def rodrigues(w: np.ndarray) -> np.ndarray:
    """Rotation matrix of the axis-angle vector w."""
    w = np.asarray(w, float)
    theta = np.linalg.norm(w, axis=-1)
    K = hat(w)
    K2 = K @ K
    a = sinc(theta)[..., None, None]
    b = cos_coeff(theta)[..., None, None]
    return np.eye(3) + a * K + b * K2


def rotation_log(R: np.ndarray) -> np.ndarray:
    """Axis-angle vector of a rotation matrix (angle < pi assumed)."""
    R = np.asarray(R, float)
    w = 0.5 * np.stack(
        [
            R[..., 2, 1] - R[..., 1, 2],
            R[..., 0, 2] - R[..., 2, 0],
            R[..., 1, 0] - R[..., 0, 1],
        ],
        axis=-1,
    )
    s = np.linalg.norm(w, axis=-1)
    c = 0.5 * (np.trace(R, axis1=-2, axis2=-1) - 1.0)
    theta = np.arctan2(s, c)
    # theta/sin(theta), safe at 0
    fac = _series(
        theta, [1.0, 1 / 6, 7 / 360, 31 / 15120], lambda t: t / np.sin(t)
    )
    return fac[..., None] * w


def right_jacobian_inv(w: np.ndarray) -> np.ndarray:
    w = np.asarray(w, float)
    theta = np.linalg.norm(w, axis=-1)
    K = hat(w)
    return np.eye(3) + 0.5 * K + inv_jac_coeff(theta)[..., None, None] * (K @ K)
