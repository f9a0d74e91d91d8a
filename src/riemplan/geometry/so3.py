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


def metric_radial(theta):
    """u(theta) = (2 - 2 cos theta)/theta^2, the transverse metric eigenvalue."""
    return _series(
        theta,
        [1.0, -1 / 12, 1 / 360, -1 / 20160],
        lambda t: (2 - 2 * np.cos(t)) / t**2,
    )


def metric_outer(theta):
    """beta(theta) = (theta^2 - 2 + 2 cos theta)/theta^4."""
    return _series(
        theta,
        [1 / 12, -1 / 360, 1 / 20160, -1 / 1814400],
        lambda t: (t * t - 2 + 2 * np.cos(t)) / t**4,
    )


def metric_radial_prime_over_theta(theta):
    """u'(theta)/theta, smooth through zero."""
    return _series(
        theta,
        [-1 / 6, 1 / 90, -1 / 3360, 1 / 226800],
        lambda t: (2 * t * np.sin(t) - 4 + 4 * np.cos(t)) / t**4,
    )


def metric_outer_prime_over_theta(theta):
    """beta'(theta)/theta, smooth through zero."""
    return _series(
        theta,
        [-1 / 180, 1 / 5040, -1 / 302400],
        lambda t: (2 * t - 2 * np.sin(t)) / t**6 * t - 4 * (t * t - 2 + 2 * np.cos(t)) / t**6,
    )


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
