"""Classical fixed-step RK4, the one integrator of the package.

``step`` is the stage rule on a jet stack (the trajectory ODE, geodesics).
A linear ODE u' = A(t) u with A known at each step's start, midpoint and
end steps exactly by a matrix (``step_matrices``), so ``march`` is a
product of precomputed matrices, taken by doubling within blocks of steps
(Jacobi fields, parallel transport), and ``propagators`` each block's
whole product (multiple shooting's segments).  See Hairer, Norsett &
Wanner, *Solving ODEs I*, II.1.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalError

__all__ = ["step", "step_matrices", "march", "propagators"]


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
_BLOCK = 16  # steps per block of prefix products; a power of two


def _prefixes(A0, Am, A1, h):
    """Prefix products of the RK4 step matrices within blocks of _BLOCK steps.

    Yields (lo, k, P) per chunk of k <= _CHUNK steps from step lo: the
    step matrices, padded with identities to whole blocks, turned by
    doubling rounds batched over the blocks into each block's prefix
    products P_j = Phi_j ... Phi_1 (Hillis & Steele, CACM 1986), shape
    (blocks, _BLOCK, m, m).  A block's last prefix is its propagator.
    """
    K, m = len(A0), A0.shape[-1]
    hs = np.broadcast_to(np.asarray(h, float), (K,)).reshape((-1,) + (1,) * (A0.ndim - 1))
    for lo in range(0, K, _CHUNK):
        hi = lo + _CHUNK
        phi = step_matrices(A0[lo:hi], Am[lo:hi], A1[lo:hi], hs[lo:hi])
        pad = np.broadcast_to(np.eye(m), (-len(phi) % _BLOCK, m, m))
        P = np.concatenate([phi, pad]).reshape(-1, _BLOCK, m, m)
        with np.errstate(over="ignore", invalid="ignore"):
            for d in [2**r for r in range(_BLOCK.bit_length() - 1)]:
                P[:, d:] = P[:, d:] @ P[:, :-d]
        yield lo, len(phi), P


def _nonfinite(values, ts, what):
    """NumericalError "<what> near t = ..." at the first nonfinite entry of values, one per time in ts."""
    bad = ~np.isfinite(values).reshape(len(values), -1).all(axis=1)
    if bad.any():
        raise NumericalError(f"{what} near t = {float(ts[np.argmax(bad)]):.6g}")


def march(A0, Am, A1, h, u, ts, what):
    """States of u' = A(t) u at every node, u first.

    A0, Am, A1 hold the operator at the start, midpoint and end of each of
    the K steps, shape (K, m, m); h is the step (a scalar or one per step);
    u has shape (..., m) for any batch of states, marched as the rows of one
    matrix; ts are the K+1 node times in march order.  Returns shape
    (K+1,) + u.shape.  A block's states are its first state times each of
    its prefix products (``_prefixes``), and its last starts the next
    block.  Raises NumericalError "<what> near t = ..." at the first node
    whose state is nonfinite, the last node included, checked once per
    chunk: a nonfinite factor makes every later prefix and state nonfinite.
    """
    K, m = len(A0), A0.shape[-1]
    states = np.empty((K + _BLOCK, u.size // m, m))
    states[0] = u.reshape(-1, m)
    for lo, k, P in _prefixes(A0, Am, A1, h):
        with np.errstate(over="ignore", invalid="ignore"):
            for s, prefix in zip(range(lo + 1, lo + k + 1, _BLOCK), P.swapaxes(-1, -2)):
                states[s : s + _BLOCK] = states[s - 1] @ prefix
        _nonfinite(states[lo + 1 : lo + 1 + k], ts[lo + 1 :], what)
    return states[: K + 1].reshape((K + 1,) + u.shape)


def propagators(A0, Am, A1, h, ts, what):
    """The propagator of u' = A(t) u across each block of _BLOCK steps,
    shape (ceil(K / _BLOCK), m, m); arguments and NumericalError as for
    ``march``, checked at the blocks' ends."""
    out = np.concatenate([P[:, -1] for _, _, P in _prefixes(A0, Am, A1, h)])
    _nonfinite(out, ts[np.minimum(np.arange(1, len(out) + 1) * _BLOCK, len(A0))], what)
    return out
