"""Linearized perturbation fields along planned trajectories.

A perturbation field X along a solution curve obeys the fourth-order
linear ODE

    D^4 X / dt^4 + F(X, qdot) + nab_X grad V = 0,

where F collects every curvature coupling of the second variation:

    F(X, Y) = (nab^2_Y R)(X, Y)Y + (nab_X R)(nab_Y Y, Y)Y + (nab_{nab_Y Y} R)(X, Y)Y
            + R(R(X, Y)Y, Y)Y + R(X, nab^2_Y Y)Y
            + 2[(nab_Y R)(nab_Y X, Y)Y + (nab_Y R)(X, nab_Y Y)Y + R(nab^2_Y X, Y)Y]
            + 3[(nab_Y R)(X, Y)nab_Y Y + R(X, Y)nab^2_Y Y + R(X, nab_Y Y)nab_Y Y]
            + 4 R(nab_Y X, Y)nab_Y Y

with Y = qdot.  The nab R terms vanish identically on the locally
symmetric built-in charts; numeric charts evaluate them exactly.

The ODE is linear in the field jet u = (X, DX, D2X, D3X), a (..., 4, n)
stack as the curve's jets are, and its coefficients depend only on the
stored curve.  A ``Trajectory`` owns its chart, its potential and its
cached tables, so every function here that analyzes one takes the
trajectory alone.

Fields march on the trajectory's field grid: ``field_refinement``
uniform steps per segment (``Trajectory.field_steps`` in all), so every
curve node is a field node and the curve between nodes is read off
``Trajectory.interpolate``.  On a grid of one step per segment the
march is the curve's own node/midpoint march.  The operator A(t) of
u' = A(t) u is built once per trajectory, at every field node and
field-step midpoint from one chart evaluation (``_field``); the
march multiplies u by RK4 step matrices, their products taken by doubling
within blocks of steps.  A bundle of fields marches as one matrix;
off-node values take one partial step out of the enclosing field node
through the same operator, for any number of times in one call.  The
second-variation forms in ``index`` read F(X, qdot) + nab_X grad V off
``jacobi_operator`` at their quadrature points (``_force_block``), and
shooting in ``bvp`` reads its Jacobian's blocks off the same table
(``_segment_jacobian``); its error control and condition number read the
single-shooting Jacobian off the scan's bundle at the last node
(``shooting_jacobian``).

Solutions vanishing to first covariant order at two distinct times are the
obstruction to local optimality; this module detects such time pairs along
a trajectory.  Shooting, the scan and ``index.negative_direction``, which
builds from a pair an admissible field with negative second variation,
read one scale-free rank test of the bundle (``_rank_test``).
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import rk4
from .dynamics import CurveState, Trajectory
from .errors import ResolutionWarning

__all__ = [
    "BiconjugateReport",
    "F_operator",
    "jacobi_rhs",
    "jacobi_operator",
    "shooting_jacobian",
    "biconjugate_scan",
]


def F_operator(chart, state: CurveState, X, dX, d2X, p=None):
    """The curvature coupling F(X, qdot) of the second variation.

    Linear in (X, dX, d2X); broadcasts field arguments against the state.
    p is state.q's ``ChartPoint`` (to order 4 unless locally symmetric).
    """
    q, v, a, j = state.q, state.v, state.a, state.j
    if p is None:
        p = chart.at(q, 0 if chart.locally_symmetric else 4)
    R = p.curvature
    out = R(R(X, v, v), v, v)
    out = out + R(X, j, v)
    out = out + 2.0 * R(d2X, v, v)
    out = out + 3.0 * (R(X, v, j) + R(X, a, a))
    out = out + 4.0 * R(dX, v, a)
    if not chart.locally_symmetric:
        out = out + p.nabla2_R(v, X, v, v)
        # the five first-derivative terms share one contraction of nabla R
        X, dX, v, a = np.broadcast_arrays(X, dX, v, a)
        D = p.nabla_R(
            np.stack([X, v, v, v, a]), np.stack([a, dX, X, X, X]), np.stack([v, v, a, v, v]), np.stack([v, v, v, a, v])
        )
        out = out + D[0] + D[4] + 2.0 * (D[1] + D[2]) + 3.0 * D[3]
    return out


def jacobi_rhs(chart, potential, state: CurveState, u):
    """Coordinate time-derivatives of field jet stacks u of shape (..., 4, n),
    the levels (X, dX, d2X, d3X) along axis -2, as ``dynamics._rhs_stacked``
    takes the curve's; the batch axes broadcast against the state's.

    F, the potential's Hessian and Gamma read one ``chart.at`` record.  On
    a flat chart F and Gamma vanish and the ODE is X'''' = -Hess V X, so
    only the potential's Hessian is evaluated.
    """
    q, v = state.q, state.v
    X, dX, d2X, d3X = (u[..., i, :] for i in range(4))
    if chart.flat:
        out = dX, d2X, d3X, -potential.hessian_op(q, X)
    else:
        p = chart.at(q, 1 if chart.locally_symmetric else 4)
        force = -F_operator(chart, state, X, dX, d2X, p) - potential.hessian_op(q, X, p)
        out = dX - p.gamma(v, X), d2X - p.gamma(v, dX), d3X - p.gamma(v, d2X), force - p.gamma(v, d3X)
        del p, force  # freed before the stack doubles the levels' memory
    return np.stack(np.broadcast_arrays(*out), axis=-2)


def jacobi_operator(chart, potential, states: CurveState) -> np.ndarray:
    """Matrix A(t) of the field ODE u' = A(t) u at a stack of curve states.

    u is the field 4-jet (X, DX, D2X, D3X) flattened to 4n entries, and
    column c of A is jacobi_rhs applied to the c-th unit jet, so jacobi_rhs
    stays the single definition of the ODE.  The state fields carry one
    leading axis of length S, and every state takes the same broadcast
    call; returns shape (S, 4n, 4n).
    """
    n = chart.dim
    S = len(states.q)
    jets = np.broadcast_to(np.eye(4 * n).reshape(4 * n, 4, n), (S, 4 * n, 4, n))
    pts = [np.asarray(a, float)[:, None] for a in (states.q, states.v, states.a, states.j)]
    return jacobi_rhs(chart, potential, CurveState(states.t, *pts), jets).reshape(S, 4 * n, 4 * n).swapaxes(-1, -2)


@dataclass
class _Field:
    """A trajectory's field grid: its node times and positions, its step,
    and the field operator at every node and step midpoint.  ``start``
    caches the states of the basis bundle launched at the first node
    (``_basis_flow``); not the flow itself, which refers back to the
    trajectory, so a dropped trajectory is freed at once."""

    ts: np.ndarray
    qs: np.ndarray
    h: float
    nodes: np.ndarray
    mids: np.ndarray
    start: np.ndarray | None = None


def _interleave(own, inner, r):
    """Values at the field nodes: each curve node's own value, followed by
    the r - 1 values strictly inside its segment (``inner``, node-major)."""
    N = len(own) - 1
    seg = np.concatenate([own[:-1, None], inner.reshape((N, r - 1) + own.shape[1:])], axis=1)
    return np.concatenate([seg.reshape((N * r,) + own.shape[1:]), own[-1:]])


def _field(trajectory: Trajectory) -> _Field:
    """The trajectory's field grid, built once and cached on it.

    The curve's nodes keep their stored jets; the field nodes inside a
    segment and every midpoint are interpolated, all in one call, and
    the operator takes one ``jacobi_operator`` call at all of them.
    """
    if trajectory._ops is None:
        r, h, ts = trajectory.field_refinement, trajectory.field_h, trajectory.ts
        inner = (ts[:-1, None] + h * np.arange(1, r)).ravel()
        mids = (ts[:-1, None] + h * (np.arange(r) + 0.5)).ravel()
        off = trajectory.jets_at(np.concatenate([inner, mids]))
        K = len(inner)
        at_nodes = _interleave(trajectory.jets, off[:K], r)
        both = np.concatenate([at_nodes, off[K:]])
        A = jacobi_operator(trajectory.chart, trajectory.potential, CurveState(None, *np.moveaxis(both, 1, 0)))
        S = len(at_nodes)
        trajectory._ops = _Field(_interleave(ts, inner, r), at_nodes[:, 0].copy(), h, A[:S], A[S:])
    return trajectory._ops


def _force_block(A):
    """F(., qdot) + nab grad V as matrices on (X, DX, D2X), read off A.

    The D3X row of u' = A u is minus that force on the first three jet
    slots; its Gamma term sits in the D3X column alone.
    """
    n = A.shape[-1] // 4
    return -A[..., 3 * n :, : 3 * n]


def _flat(u):
    return u.reshape(u.shape[:-2] + (-1,))


class _StoredFlow:
    """Field-bundle states at every field node from the anchor node k_lo on.

    Off-node values come from a single partial RK4 step out of the
    enclosing field node, built from the operator at the node and at two
    interpolated curve states, so dense queries keep the integrator's
    order without re-propagating from the anchor.  At a node the step
    matrix of dt = 0 is exactly I, so the node's state comes back as stored.
    """

    def __init__(self, traj: Trajectory, states, k_lo):
        self.traj = traj
        self.states = states
        self.k_lo = k_lo

    def at_time(self, t):
        """Bundle states at a time or an array of times, shape t.shape +
        the bundle's: one interpolation, one ``jacobi_operator`` call and
        one batch of step matrices for all of them."""
        traj, field = self.traj, _field(self.traj)
        t = np.asarray(t, float)
        tt = np.clip(t.ravel(), field.ts[self.k_lo], field.ts[-1])
        k = np.clip(np.floor((tt - field.ts[0]) / field.h).astype(int), self.k_lo, len(field.ts) - 2)
        tk = field.ts[k]
        dt = tt - tk
        u = self.states[k - self.k_lo]
        S = len(tt)
        A = jacobi_operator(
            traj.chart, traj.potential, traj.interpolate(np.concatenate([tk, tk + 0.5 * dt, tt]))
        )
        phi = rk4.step_matrices(A[:S], A[S : 2 * S], A[2 * S :], dt[:, None, None])
        flat = u.reshape(S, -1, phi.shape[-1])
        return (flat @ phi.swapaxes(-1, -2)).reshape(t.shape + u.shape[1:])


def _propagate_bundle(traj: Trajectory, k, u0):
    """March a field bundle from field node k to the grid end, storing every node.

    Its RK4 step matrices, built from the trajectory's operator table, are
    multiplied out in blocks of steps, not one product per step (``rk4.march``).
    """
    field = _field(traj)
    nodes, mids = field.nodes, field.mids
    states = rk4.march(
        nodes[k:-1], mids[k:], nodes[k + 1 :], field.h, _flat(u0), field.ts[k:], "perturbation field blew up"
    )
    return _StoredFlow(traj, states.reshape(states.shape[:-1] + u0.shape[-2:]), k)


def _basis_bundle(n):
    """Initial bundle of the 2n fundamental solutions vanishing to first order."""
    u0 = np.zeros((2 * n, 4, n))
    for i in range(n):
        u0[i, 2, i] = 1.0
        u0[n + i, 3, i] = 1.0
    return u0


def _boundary_matrix(u):
    """2n x 2n matrix whose columns are (X_i, DX_i) of the bundle solutions."""
    return np.concatenate([u[..., 0, :], u[..., 1, :]], axis=-1).swapaxes(-1, -2)


_SIGMA_RATIO = 1e-8


def _rank_test(u, tau, null=False):
    """The biconjugacy test of basis-bundle states u taken tau after their anchor.

    Scales the boundary matrix so that the flat one is [[I/2, I/6], [I, I/2]]
    for every tau (DX rows times tau, y columns over tau^2, z columns over
    tau^3): nothing vanishes at the anchor, and a short window is no rank
    drop.  Returns its determinant and sigma_min/sigma_max; with ``null``
    also its null vector mapped back to the bundle's physical (d2X, d3X)
    coefficients, of unit length, shape (..., 2n).
    """
    n = u.shape[-1]
    tau = np.asarray(tau, float)[..., None]
    rows = np.repeat(np.concatenate([np.ones_like(tau), tau], axis=-1), n, axis=-1)
    cols = np.repeat(np.concatenate([tau**-2, tau**-3], axis=-1), n, axis=-1)
    M = _boundary_matrix(u) * rows[..., :, None] * cols[..., None, :]
    det = np.linalg.det(M)
    if not null:
        sv = np.linalg.svd(M, compute_uv=False)
        return det, sv[..., -1] / sv[..., 0]
    _, sv, vh = np.linalg.svd(M)
    c = vh[..., -1, :] * cols
    return det, sv[..., -1] / sv[..., 0], c / np.linalg.norm(c, axis=-1, keepdims=True)


def _anchor(trajectory: Trajectory, t1):
    """The field node nearest t1 and its time.  A t1 more than 1e-9 h
    outside the trajectory window raises ValueError."""
    field = _field(trajectory)
    ts = field.ts
    slack = 1e-9 * trajectory.h
    if not ts[0] - slack <= t1 <= ts[-1] + slack:
        raise ValueError(f"t1 = {t1:.17g} outside the trajectory window [{ts[0]:.17g}, {ts[-1]:.17g}]")
    k = int(np.clip(np.round((t1 - ts[0]) / field.h), 0, len(ts) - 1))
    return k, float(ts[k])


def _basis_flow(trajectory: Trajectory, k) -> _StoredFlow:
    """The basis bundle launched at field node k, marched to the window end.

    Launched at the first node, it is marched once per trajectory and
    cached: shooting reads its last node, and a scan or a witness from the
    window start reads all of it.
    """
    if k:
        return _propagate_bundle(trajectory, k, _basis_bundle(trajectory.chart.dim))
    field = _field(trajectory)
    if field.start is None:
        field.start = _propagate_bundle(trajectory, 0, _basis_bundle(trajectory.chart.dim)).states
    return _StoredFlow(trajectory, field.start, 0)


def _endpoint_jacobian(trajectory: Trajectory, u) -> np.ndarray:
    """d(q(T), qdot(T)) / d(y, z) from the basis bundle u at the last node."""
    qdot = u[:, 1] - trajectory.chart.gamma(trajectory.qs[-1], trajectory.vs[-1], u[:, 0])
    return np.concatenate([u[:, 0], qdot], axis=1).T


def _jet_map(chart, jets) -> np.ndarray:
    """d(q, v, a, j) / d(X, DX, D2X, D3X) at curve jets (K, 4, n): (K, 4n, 4n).

    A variation with field X moves each stored jet W by D_eps W less
    Gamma(X, W), and D_eps commutes with D_t up to R(X, qdot):

        dq = X,  dv = DX - Gamma(v, X),  da = D2X + R(X, v)v - Gamma(a, X),
        dj = D3X + (nab_v R)(X, v)v + R(DX, v)v + R(X, a)v + 2R(X, v)a - Gamma(j, X).

    Unit lower block triangular, so invertible; the identity on a flat chart.
    """
    K, _, n = jets.shape
    m = 4 * n
    if chart.flat:
        return np.broadcast_to(np.eye(m), (K, m, m))
    X, DX, D2X, D3X = np.eye(m).reshape(m, 4, n).swapaxes(0, 1)
    q, v, a, j = (jets[:, None, i] for i in range(4))
    p = chart.at(q, 1 if chart.locally_symmetric else 3)
    R = p.curvature
    dj = D3X + R(DX, v, v) + R(X, a, v) + 2.0 * R(X, v, a) - p.gamma(j, X)
    if not chart.locally_symmetric:
        dj = dj + p.nabla_R(v, X, v, v)
    cols = np.broadcast_arrays(X, DX - p.gamma(v, X), D2X + R(X, v, v) - p.gamma(a, X), dj)
    return np.stack(cols, axis=-2).reshape(K, m, m).swapaxes(-1, -2)


def _segment_jacobian(trajectory: Trajectory, starts, ends):
    """The blocks of the multiple-shooting Jacobian of a stitched curve, and
    whether the scan's rank test flags its end.

    Segment k runs from its stored jets starts[k] to its end jets ends[k]
    (both (K, 4, n)) over block k of ``rk4.propagators`` on the curve's own
    field grid.  Its block maps jet perturbations at its start to those at
    its end: C(ends[k]) Phi_k C(starts[k])^-1 (``_jet_map``), and for the
    first segment, whose (q, v) is fixed, the (D2X, D3X) columns of
    C(ends[0]) Phi_0.  The table's node at a breakpoint holds the next
    segment's stored jets, so the blocks are exact where the curve has no
    jumps.  The rank test (``_rank_test`` at tau = T) reads the basis
    bundle carried across all blocks, the bundle ``shooting_jacobian`` reads.
    """
    field, n, K = _field(trajectory), trajectory.chart.dim, len(starts)
    nodes, what = field.nodes, "perturbation field blew up"
    Phi = rk4.propagators(nodes[:-1], field.mids, nodes[1:], field.h, field.ts, what)
    C = _jet_map(trajectory.chart, np.concatenate([ends, starts[1:]]))
    into = C[:K] @ Phi
    blocks = [into[0][:, 2 * n :], *(into[1:] @ np.linalg.inv(C[K:]))]
    u = functools.reduce(lambda u, P: P @ u, Phi[1:], Phi[0][:, 2 * n :])
    _, ratio = _rank_test(u.T.reshape(2 * n, 4, n), trajectory.T)
    return blocks, bool(ratio <= _SIGMA_RATIO)


def _field_jacobians(trajectory: Trajectory):
    """The shooting Jacobian on the field grid's M steps and on M/2 steps,
    for the step-doubling estimate of the field grid's error.  The M/2
    march reads the same table: the even field nodes are its steps' ends
    and the odd ones their midpoints, so no operator is built for it."""
    field = _field(trajectory)
    n = trajectory.chart.dim
    nodes = field.nodes
    half = rk4.march(
        nodes[:-2:2], nodes[1::2], nodes[2::2], 2.0 * field.h, _flat(_basis_bundle(n)), field.ts[::2],
        "perturbation field blew up",
    )[-1].reshape(2 * n, 4, n)
    return shooting_jacobian(trajectory), _endpoint_jacobian(trajectory, half)


def shooting_jacobian(trajectory: Trajectory) -> np.ndarray:
    """d(q(T), qdot(T)) / d(y, z) off the scan's field bundle from the first node.

    The bundle marches on the trajectory's field grid.  Field y_i (z_i)
    starts with X = DX = 0 and unit D2X (D3X), so dq = X(T) and
    dqdot = DX(T) - Gamma(qdot(T), X(T)).  Returns the Jacobian, row
    blocks (q; qdot).  Shooting's singularity test is not read here: it
    is the scan's rank test on the bundle ``_segment_jacobian`` carries
    across its blocks.
    """
    return _endpoint_jacobian(trajectory, _basis_flow(trajectory, 0).states[-1])


@dataclass
class BiconjugateReport:
    """Times t2 after the anchor t1 where a nonzero field vanishes to first
    order at both, with the scaled rank test's sigma_min/sigma_max at each
    and the witness: the field's unit (d2X, d3X) at t1.  ``warnings``
    holds the messages of the ResolutionWarnings the scan issued."""

    t1: float
    times: list
    sigma_ratios: list
    witnesses: list
    resolution: float
    warnings: list = field(default_factory=list)

    def __len__(self):
        return len(self.times)

    def to_dict(self):
        return {
            "t1": self.t1,
            "resolution": self.resolution,
            "points": [
                {
                    "t2": t,
                    "sigma_ratio": s,
                    "witness_d2X": w[0].tolist(),
                    "witness_d3X": w[1].tolist(),
                }
                for t, s, w in zip(self.times, self.sigma_ratios, self.witnesses)
            ],
        }


# sections per bracket and refinement round of the scan
_SECTIONS = 16
_ROOT_TOL = 1e-6


def _refine(flow: _StoredFlow, t1, brackets):
    """Shrink every bracket (a, b, sign) to _ROOT_TOL at once; the midpoints.

    Each round splits every open bracket into _SECTIONS equal sections and
    evaluates the rank test at all their ends from one batched ``at_time``
    call.  A sign bracket keeps the first section whose ends differ in the
    sign of the determinant; a dip bracket keeps the two sections around
    its smallest sigma ratio.
    """
    brackets = [[a, b, sign] for a, b, sign in brackets]
    s = np.linspace(0.0, 1.0, _SECTIONS + 1)
    while live := [br for br in brackets if br[1] - br[0] > _ROOT_TOL]:
        ts = np.concatenate([a + (b - a) * s for a, b, _ in live])
        tests = _rank_test(flow.at_time(ts), ts - t1)
        dets, ratios = (v.reshape(len(live), -1) for v in tests)
        for br, x, det, ratio in zip(live, ts.reshape(len(live), -1), dets, ratios):
            if br[2]:
                flips = np.flatnonzero((det[:-1] < 0) != (det[1:] < 0))
                j = flips[0] if len(flips) else min(int(np.argmin(np.abs(det))), _SECTIONS - 1)
                br[0], br[1] = x[j], x[j + 1]
            else:
                j = int(np.argmin(ratio))
                br[0], br[1] = x[max(j - 1, 0)], x[min(j + 1, _SECTIONS)]
    return np.array([0.5 * (a + b) for a, b, _ in brackets])


def biconjugate_scan(trajectory: Trajectory, t1: float | None = None, grid: int | None = None) -> BiconjugateReport:
    """Locate the times t2 > t1 (default t1: the window start) paired with t1 by first-order-vanishing fields.

    The 2n fundamental solutions launched at t1 with unit higher jets give
    a 2n x 2n boundary matrix M(t2); biconjugate times are its rank drops.
    Every test reads M scaled for tau = t2 - t1 as shooting reads it at
    the window end (``_rank_test``: DX rows times tau, y columns over
    tau^2, z columns over tau^3), so the flat matrix is the same for every
    tau; ``sigma_ratios`` are sigma_min/sigma_max of that scaled matrix.

    The bundle marches forward from t1 to the window end on the field
    grid, and the grid constants count its steps: t1 snaps to the nearest
    field node, the first sample is one field step after it, and ``grid``
    spreads that many samples over the field steps.  A determinant sign
    change between two samples brackets a root, and so does a sigma dip
    over the two intervals around a sample whose ratio is at most 1e-8 and
    at most its neighbours', where neither interval changes sign.  All
    brackets are refined together to 1e-6 in t by multisection
    (``_refine``), stepping off the field nodes through the same operator;
    a root is the midpoint of its last bracket, and a dip's root counts
    only if its ratio is at most 1e-8.  A t1 more than 1e-9 h outside the
    trajectory window raises ValueError.
    """
    n = trajectory.chart.dim
    ts = _field(trajectory).ts
    k1, t1 = _anchor(trajectory, ts[0] if t1 is None else t1)
    if grid is not None and grid < 1:
        raise ValueError(f"scan grid must be a positive sample count, got {grid}")
    stride = 1 if grid is None else max(1, trajectory.field_steps // int(grid))

    flow = _basis_flow(trajectory, k1)
    ks = np.arange(k1 + 1, len(ts), stride)
    dets, ratios = _rank_test(flow.states[ks - k1], ts[ks] - t1)
    flips = np.diff(dets < 0)
    # a dip at a sample with one after it: a local minimum of the ratios
    # at most 1e-8, with no sign change on either side
    r = ratios[:-1]
    dips = (r <= _SIGMA_RATIO) & (r <= np.append(np.inf, ratios[:-2])) & (r <= ratios[1:])
    dips &= ~(flips | np.append(False, flips[:-1]))
    brackets = [(ts[ks[i]], ts[ks[i + 1]], True) for i in np.flatnonzero(flips)]
    brackets += [(ts[ks[max(i - 1, 0)]], ts[ks[i + 1]], False) for i in np.flatnonzero(dips)]

    found = []
    if brackets:
        roots = _refine(flow, t1, brackets)
        _, sr, c = _rank_test(flow.at_time(roots), roots - t1, null=True)
        found = [
            (float(root), float(s), (w[:n].copy(), w[n:].copy()))
            for root, (_, _, sign), s, w in zip(roots, brackets, sr, c)
            if sign or s <= _SIGMA_RATIO
        ]

    # dedupe refined roots that met from two brackets
    found.sort(key=lambda e: e[0])
    dedup = []
    tol = max(2e-6, 1e-6 * trajectory.T)
    for entry in found:
        if dedup and entry[0] - dedup[-1][0] < tol:
            dedup[-1] = min(dedup[-1], entry, key=lambda e: e[1])
        else:
            dedup.append(entry)

    h_scan = trajectory.field_h * stride
    times = [e[0] for e in dedup]
    report = BiconjugateReport(t1, times, [e[1] for e in dedup], [e[2] for e in dedup], h_scan)
    if any(w - u < 2.0 * h_scan for u, w in zip(times, times[1:])):
        report.warnings.append("adjacent rank drops closer than two scan steps; rerun with a finer grid")
        warnings.warn(report.warnings[-1], ResolutionWarning, stacklevel=2)
    return report
