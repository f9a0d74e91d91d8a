"""Independent references that only the tests read.

Each function here restates a quantity the package computes another way,
so a test can hold the program to it: finite differences of the discrete
action and of the potential's gradient, plain gradient descent beside the
oracle's Newton, the coordinate formula for R, the profile matrix of the
spline basis, the index form on sampled admissible fields, the
symplectic form that the field ODE conserves, and the differences of a
shooting segment's map.  No command runs them.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from riemplan.dynamics import Trajectory, _discrete_action, _flow, quadrature_weights
from riemplan.geometry import transport_frame
from riemplan.index import _index_sum, _profile_knots, _spline_basis
from riemplan.jacobi import _basis_flow, _field, _force_block
from riemplan.potentials import _nabla_fd

__all__ = [
    "first_variation",
    "second_variation_fd",
    "descend",
    "hessian_op_fd",
    "curvature_from_christoffel",
    "spline_profiles",
    "AdmissibleField",
    "field_from_profiles",
    "random_field",
    "force",
    "index_form",
    "decompose",
    "symplectic_form",
    "segment_map_jacobian",
]


def first_variation(trajectory: Trajectory, W, eps: float = 1e-5) -> float:
    """dJ in the direction of W, by central differences of ``_discrete_action``.

    W is sampled on the trajectory grid and must vanish together with its
    covariant derivative at both ends; the varied curve t -> exp_q(eps W)
    then keeps the boundary positions and velocities exactly.
    """
    W = np.asarray(W, float)
    if W.shape != trajectory.qs.shape:
        raise ValueError("variation field must be sampled on the trajectory grid")
    chart, potential = trajectory.chart, trajectory.potential
    h = trajectory.h
    sup = float(np.max(chart.norm(trajectory.qs, W))) if W.size else 0.0
    # covariant end derivatives from one-sided differences
    dW0 = (-3.0 * W[0] + 4.0 * W[1] - W[2]) / (2.0 * h) + chart.gamma(
        trajectory.qs[0], trajectory.vs[0], W[0]
    )
    dWT = (3.0 * W[-1] - 4.0 * W[-2] + W[-3]) / (2.0 * h) + chart.gamma(
        trajectory.qs[-1], trajectory.vs[-1], W[-1]
    )
    tol = (1e-10 + 10.0 * h * h) * (1.0 + sup)
    ends = [W[0], W[-1], dW0, dWT]
    if max(float(np.linalg.norm(e)) for e in ends) > tol:
        raise ValueError(
            "variation field must vanish to first covariant order at both ends"
        )
    e = eps / (1.0 + sup)
    qp = chart.exp(trajectory.qs, e * W)
    qm = chart.exp(trajectory.qs, -e * W)
    va, vb = trajectory.vs[0], trajectory.vs[-1]
    jp = _discrete_action(chart, potential, h, qp, va, vb)
    jm = _discrete_action(chart, potential, h, qm, va, vb)
    return (jp - jm) / (2.0 * e)


def descend(fun, u0, gtol, maxiter):
    """Monotone gradient descent with adaptive backtracking on fun(u) ->
    (value, gradient): the reference the oracle's Newton is held to.
    Returns (u, value, gradient, iterations)."""
    u = u0.copy()
    f, g = fun(u)
    step = 1.0
    for it in range(int(maxiter)):
        sup = float(np.max(np.abs(g)))
        if sup <= gtol:
            return u, f, g, it
        for _ in range(60):
            trial = u - step * g
            ft, gt = fun(trial)
            if ft < f - 1e-4 * step * float(np.sum(g * g)):
                u, f, g = trial, ft, gt
                step *= 2.0
                break
            step *= 0.5
        else:
            return u, f, g, it
    return u, f, g, int(maxiter)


def hessian_op_fd(potential, x, X, h: float = 1e-6):
    """nab_X grad V by central differences of the gradient field
    (``potentials._nabla_fd``): the reference for every analytic ``hessian_op``."""
    x = np.asarray(x, float)
    return _nabla_fd(potential.chart, potential.gradient, x, np.asarray(X, float), potential.gradient(x), h)


def curvature_from_christoffel(chart, x, X, Y, Z):
    """R(X, Y)Z at x from the coordinate formula, on every chart:

    R^l_kij = d_i G^l_jk - d_j G^l_ik + G^l_im G^m_jk - G^l_jm G^m_ik.
    """
    p = chart.at(x, 2)
    t1 = np.einsum("...iljk,...i,...j,...k->...l", p.dGamma, X, Y, Z)
    t2 = np.einsum("...jlik,...i,...j,...k->...l", p.dGamma, X, Y, Z)
    return t1 - t2 + p.gamma(X, p.gamma(Y, Z)) - p.gamma(Y, p.gamma(X, Z))


def spline_profiles(ts, T, m):
    """Clamped quintic B-spline profiles vanishing to first order at ends.

    Returns (Phi0, Phi1, Phi2, knots): m rows of profile samples and their
    first two derivatives on ts, which count from the window start; the
    members of the clamped basis (``index._spline_basis``) but its first and last two.
    """
    interior = _profile_knots(T, m)
    vals, first = _spline_basis(ts, T, interior)
    full = np.zeros((3, len(first), m + 4))
    full[:, np.arange(len(first))[:, None], first[:, None] + np.arange(6)] = vals
    return (*full[:, :, 2 : m + 2].transpose(0, 2, 1), interior)


@dataclass
class AdmissibleField:
    """Samples of a variation field and its first two covariant derivatives
    on a trajectory grid.  Admissibility pins X and DX to zero at the ends."""

    ts: np.ndarray
    X: np.ndarray
    dX: np.ndarray
    d2X: np.ndarray

    def __post_init__(self):
        self.ts = np.asarray(self.ts, float)
        self.X = np.asarray(self.X, float)
        self.dX = np.asarray(self.dX, float)
        self.d2X = np.asarray(self.d2X, float)
        if self.X.shape != (len(self.ts),) + self.X.shape[1:]:
            raise ValueError("field samples must align with the time grid")

    def validate(self, trajectory: Trajectory):
        if len(self.ts) != len(trajectory.ts) or not np.allclose(
            self.ts, trajectory.ts, atol=1e-12 * (1.0 + trajectory.T)
        ):
            raise ValueError("field grid does not match the trajectory grid")
        chart = trajectory.chart
        scale = max(float(np.max(chart.norm(trajectory.qs, self.X))), 1e-300)
        ends = max(
            float(chart.norm(trajectory.qs[0], self.X[0])),
            float(chart.norm(trajectory.qs[-1], self.X[-1])),
            float(chart.norm(trajectory.qs[0], self.dX[0])),
            float(chart.norm(trajectory.qs[-1], self.dX[-1])),
        )
        if ends > 1e-12 * scale:
            raise ValueError(
                f"field does not vanish to first order at the ends "
                f"(boundary magnitude {ends:.2e} vs scale {scale:.2e})"
            )


def field_from_profiles(trajectory: Trajectory, P, dP, d2P, frame=None) -> AdmissibleField:
    """Assemble a field from per-direction time profiles in a parallel frame.

    P, dP, d2P have shape (nodes, dim); column i multiplies the i-th frame
    vector.  Parallel frames have vanishing covariant derivative, so the
    covariant field jets are the profile time-derivatives alone.
    """
    if frame is None:
        frame = transport_frame(
            trajectory.chart, trajectory.ts, trajectory.qs, trajectory.vs
        )
    X = np.einsum("si,sia->sa", np.asarray(P, float), frame)
    dX = np.einsum("si,sia->sa", np.asarray(dP, float), frame)
    d2X = np.einsum("si,sia->sa", np.asarray(d2P, float), frame)
    return AdmissibleField(trajectory.ts.copy(), X, dX, d2X)


def random_field(trajectory: Trajectory, rng, modes: int = 4, frame=None) -> AdmissibleField:
    """Smooth random admissible field from squared-sine modes.

    Normalized to unit Sobolev-2 norm so pairings of independent draws sit
    at order one regardless of the window length or mode content.
    """
    ts = trajectory.ts
    T = trajectory.T
    n = trajectory.chart.dim
    P = np.zeros((len(ts), n))
    dP = np.zeros_like(P)
    d2P = np.zeros_like(P)
    for m in range(1, modes + 1):
        c = rng.standard_normal(n) / m**2
        u = np.pi * m * (ts - ts[0]) / T
        w = np.pi * m / T
        P += np.sin(u)[:, None] ** 2 * c
        dP += (w * np.sin(2.0 * u))[:, None] * c
        d2P += (2.0 * w**2 * np.cos(2.0 * u))[:, None] * c
    fld = field_from_profiles(trajectory, P, dP, d2P, frame)
    qw = quadrature_weights(len(ts), trajectory.h)
    qs = trajectory.qs
    h2 = float(
        qw
        @ (
            trajectory.chart.inner(qs, fld.X, fld.X)
            + trajectory.chart.inner(qs, fld.dX, fld.dX)
            + trajectory.chart.inner(qs, fld.d2X, fld.d2X)
        )
    )
    scale = np.sqrt(max(h2, 1e-300))
    fld.X /= scale
    fld.dX /= scale
    fld.d2X /= scale
    return fld


def force(trajectory, X, dX, d2X):
    """F(X, qdot) + potential Hessian at every node of the trajectory grid,
    read off the field grid's operator table at the curve's nodes."""
    table = _force_block(_field(trajectory).nodes[:: trajectory.field_refinement])
    return np.einsum("sij,sj->si", table, np.concatenate([X, dX, d2X], axis=-1))


def index_form(trajectory: Trajectory, X: AdmissibleField, Y: AdmissibleField) -> float:
    """Second-variation pairing of two admissible fields by grid quadrature,
    through the package's one quadrature statement (``index._index_sum``)."""
    X.validate(trajectory)
    Y.validate(trajectory)
    w = quadrature_weights(len(trajectory.ts), trajectory.h)
    fx = force(trajectory, X.X, X.dX, X.d2X)
    return _index_sum(trajectory.chart, trajectory.qs, w, X.d2X, Y.d2X, Y.X, fx)


def decompose(trajectory: Trajectory, X: AdmissibleField, Y: AdmissibleField):
    """Split the pairing into curvature part and potential couplings.

    Returns (I_c, P_plus, P_minus) with I_c + P_plus + P_minus equal to
    index_form(X, Y) under the same quadrature; P_plus / P_minus are the
    symmetrized and antisymmetrized potential Hessian pairings, so
    I(X, Y) - I(Y, X) = 2 P_minus(X, Y) up to quadrature.
    """
    X.validate(trajectory)
    Y.validate(trajectory)
    chart, potential = trajectory.chart, trajectory.potential
    w = quadrature_weights(len(trajectory.ts), trajectory.h)
    qs = trajectory.qs
    hx = potential.hessian_op(qs, X.X)
    hy = potential.hessian_op(qs, Y.X)
    fx = force(trajectory, X.X, X.dX, X.d2X) - hx
    i_c = _index_sum(chart, qs, w, X.d2X, Y.d2X, Y.X, fx)
    yhx = chart.inner(qs, Y.X, hx)
    xhy = chart.inner(qs, X.X, hy)
    p_plus = 0.5 * float(w @ (yhx + xhy))
    p_minus = 0.5 * float(w @ (yhx - xhy))
    return i_c, p_plus, p_minus


def second_variation_fd(trajectory: Trajectory, X: AdmissibleField, Y: AdmissibleField, eps: float = 1e-3) -> float:
    """Mixed finite difference of the discrete action (``dynamics._discrete_action``)
    through a two-parameter pointwise-exponential variation."""
    X.validate(trajectory)
    Y.validate(trajectory)
    chart, potential = trajectory.chart, trajectory.potential
    qs, h = trajectory.qs, trajectory.h
    va, vb = trajectory.vs[0], trajectory.vs[-1]

    def J(r, s):
        qv = chart.exp(qs, r * X.X + s * Y.X)
        return _discrete_action(chart, potential, h, qv, va, vb)

    jpp = J(eps, eps)
    jpm = J(eps, -eps)
    jmp = J(-eps, eps)
    jmm = J(-eps, -eps)
    noise = abs(jpp) * 2.2e-16 / (4.0 * eps * eps)
    if noise > 1e-5:
        warnings.warn(
            f"difference step eps={eps:g} is roundoff-dominated: "
            f"cancellation noise is about {noise:.1e}",
            RuntimeWarning,
            stacklevel=2,
        )
    return float((jpp - jpm - jmp + jmm) / (4.0 * eps * eps))


def symplectic_form(trajectory: Trajectory):
    """omega(X_i, X_j) over the basis bundle from the first node, and the
    bundle's max |<D^3 X_i, X_i>|, the scale omega is measured against.

    The field operator is self-adjoint, so for any two of its solutions
    omega(X, Y) = B(X, Y) - B(Y, X) is constant in t, where

        B(X, Y) = <D3X, Y> + <DX, D2Y> + 2 <DX, R(Y, qdot)qdot> + 2 <X, R(Y, a)qdot>

    with a the curve's covariant acceleration.  The bundle starts with
    X = DX = 0, so omega is 0 there.  Needs a trajectory whose field grid
    is its own (``field_refinement`` 1); returns omega at every node,
    shape (N + 1, 2n, 2n).
    """
    if trajectory.field_refinement != 1:
        raise ValueError("symplectic_form reads the fields at the curve's nodes")
    chart = trajectory.chart
    u = _basis_flow(trajectory, 0).states
    X, dX, d2X, d3X = (u[:, :, None, k] for k in range(4))  # X_i: (S, 2n, 1, n)
    Y, d2Y = u[:, None, :, 0], u[:, None, :, 2]  # Y_j: (S, 1, 2n, n)
    p = chart.at(trajectory.qs[:, None, None], 0 if chart.locally_symmetric else 2)
    v, a = trajectory.vs[:, None, None], trajectory.accs[:, None, None]
    d3XY = p.inner(d3X, Y)
    B = d3XY + p.inner(dX, d2Y) + 2.0 * p.inner(dX, p.curvature(Y, v, v)) + 2.0 * p.inner(X, p.curvature(Y, a, v))
    scale = float(np.max(np.abs(np.diagonal(d3XY, axis1=-2, axis2=-1))))
    return B - B.swapaxes(-1, -2), scale


def segment_map_jacobian(chart, potential, jets, t0, h, steps, rel=1e-6):
    """Central differences of a shooting segment's map: its stored jets
    (q, v, a, j), shape (4, n), to its end jets after ``steps`` RK4 steps
    of h from t0, one shared step rel * (1 + |jets|) in every entry.

    Rows and columns run over the jet levels, then the coordinates, as
    ``jacobi._segment_jacobian``'s blocks do; (4n, 4n).  The perturbed
    segments march as the rows of one ``_flow`` pass.
    """
    u = np.asarray(jets, float).ravel()
    step = rel * (1.0 + float(np.linalg.norm(u)))
    rows = [(x.reshape(jets.shape), t0, h, steps) for e in step * np.eye(u.size) for x in (u + e, u - e)]
    ends = []
    for traj, failure in _flow(chart, potential, rows):
        if failure is not None:
            raise failure
        ends.append(np.concatenate([traj.qs[-1], traj.vs[-1], traj.accs[-1], traj.jerks[-1]]))
    ends = np.array(ends)
    return ((ends[0::2] - ends[1::2]) / (2.0 * step)).T
