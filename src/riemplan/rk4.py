"""Classical fixed-step RK4, the one integrator of the package.

``step`` is the stage rule on a jet stack (the trajectory ODE, geodesics).
A linear ODE u' = A(t) u with A known at each step's start, midpoint and
end steps exactly by a matrix (``step_matrices``), so ``march`` is a
product of precomputed matrices (Jacobi fields, parallel transport).
See Hairer, Norsett & Wanner, *Solving ODEs I*, II.1.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalError

__all__ = ["step", "step_matrices", "march"]


def step(rhs, u, h):
    """One classical RK4 step of u' = rhs(u); u is any array rhs accepts."""
    k1 = rhs(u)
    k2 = rhs(u + 0.5 * h * k1)
    k3 = rhs(u + 0.5 * h * k2)
    k4 = rhs(u + h * k3)
    return u + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def step_matrices(A0, Am, A1, h):
    """Classical RK4 step of u' = A(t) u as a matrix, batched over steps.

    The stages of a linear ODE are k_i = K_i u with K1 = A0,
    K2 = Am (I + h/2 K1), K3 = Am (I + h/2 K2), K4 = A1 (I + h K3), so the
    step is exactly u <- (I + h/6 (K1 + 2 K2 + 2 K3 + K4)) u.  h is a
    scalar or broadcasts against the matrices.
    """
    eye = np.eye(A0.shape[-1])
    K2 = Am @ (eye + 0.5 * h * A0)
    K3 = Am @ (eye + 0.5 * h * K2)
    K4 = A1 @ (eye + h * K3)
    return eye + (h / 6.0) * (A0 + 2.0 * K2 + 2.0 * K3 + K4)


# step matrices are built this many steps at a time, to bound memory
_CHUNK = 256


def march(A0, Am, A1, h, u, ts, what):
    """States of u' = A(t) u at every node, u first.

    A0, Am, A1 hold the operator at the start, midpoint and end of each of
    the K steps, shape (K, m, m); h is the step (a scalar or one per step);
    u has shape (..., m) for any batch of states; ts are the K+1 node times
    in march order.  Returns shape (K+1,) + u.shape.  Raises NumericalError
    "<what> near t = ..." at the first node whose state is nonfinite, the
    last node included.  Finiteness is checked once per chunk of steps: a
    nonfinite state stays so, and the chunk's first is the march's first.
    """
    hs = np.broadcast_to(np.asarray(h, float), (len(A0),)).reshape((-1,) + (1,) * (A0.ndim - 1))
    states = np.empty((len(A0) + 1,) + u.shape)
    states[0] = u
    for lo in range(0, len(A0), _CHUNK):
        hi = lo + _CHUNK
        phi = step_matrices(A0[lo:hi], Am[lo:hi], A1[lo:hi], hs[lo:hi])
        with np.errstate(over="ignore", invalid="ignore"):
            for k, mat in enumerate(phi.swapaxes(-1, -2), lo + 1):
                u = states[k] = u @ mat
        bad = ~np.isfinite(states[lo + 1 : lo + 1 + len(phi)]).reshape(len(phi), -1).all(axis=1)
        if bad.any():
            raise NumericalError(f"{what} near t = {float(ts[lo + 1 + np.argmax(bad)]):.6g}")
    return states
