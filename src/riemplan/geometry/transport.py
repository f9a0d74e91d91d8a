"""Parallel transport along sampled curves."""

from __future__ import annotations

import numpy as np

from .. import rk4

__all__ = ["parallel_transport", "transport_frame"]


def _hermite_mid(qa, va, qb, vb, h):
    """Value and derivative of the cubic Hermite interpolant at the midpoint."""
    qm = 0.5 * (qa + qb) + 0.125 * h * (va - vb)
    vm = 1.5 * (qb - qa) / h - 0.25 * (va + vb)
    return qm, vm


def parallel_transport(chart, ts, qs, vs, X0):
    """Transport X0 along the sampled curve (ts, qs, vs), at every sample.

    ts must be strictly monotone (either direction); qs are positions and
    vs coordinate velocities dq/dt at the samples, of shape (K+1, n).  X0
    has shape (B..., n) for any batch B of vectors carried along the
    curve; the result has shape (K+1, B..., n).  One classical RK4 step
    per sample interval, with cubic Hermite midpoint reconstruction of
    the curve.  Transport is linear, X' = B(t) X with B(t) =
    -Gamma(qdot, .), so B is built at every sample and midpoint in one
    ``gamma`` call and the march is by step matrices.
    """
    ts = np.asarray(ts, float)
    qs = np.asarray(qs, float)
    vs = np.asarray(vs, float)
    X0 = np.asarray(X0, float)
    n = qs.shape[-1]
    K = len(ts) - 1
    hs = np.diff(ts)
    qm, vm = _hermite_mid(qs[:-1], vs[:-1], qs[1:], vs[1:], hs[:, None])
    at = np.concatenate([qs, qm])[:, None, :]
    vel = np.concatenate([vs, vm])[:, None, :]
    # column i of B is -Gamma(qdot, e_i)
    B = -chart.gamma(at, vel, np.eye(n)).swapaxes(-1, -2)
    Xs = rk4.march(B[:K], B[K + 1 :], B[1 : K + 1], hs, X0.reshape(-1, n), ts, "transported vector went nonfinite")
    return Xs.reshape((K + 1,) + X0.shape)


def transport_frame(chart, ts, qs, vs):
    """g-orthonormal parallel frame along the curve.

    Returns an array of shape (len(ts), n, n) whose [s, i, :] entry is
    the i-th frame vector at time ts[s].  The frame starts as the rows of
    L^-1 for the Cholesky factor g0 = L L^T (the Gram-Schmidt frame of the
    coordinate basis in the g0 inner product) and stays orthonormal up to
    integrator error because parallel transport is a metric isometry.
    """
    qs = np.asarray(qs, float)
    frame0 = np.linalg.inv(np.linalg.cholesky(chart.metric(qs[0])))
    return parallel_transport(chart, ts, qs, vs, frame0)
