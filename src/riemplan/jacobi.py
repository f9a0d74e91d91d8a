"""Linearized perturbation fields along planned trajectories.

A perturbation field X along a solution curve obeys the fourth-order
linear ODE

    D^4 X / dt^4 + F(X, qdot) + nab_X grad V = 0,

where F collects every curvature coupling of the second variation:

    F(X, Y) = (nab^2_Y R)(X, Y)Y + (nab_X R)(nab_Y Y, Y)Y
            + R(R(X, Y)Y, Y)Y + R(X, nab^2_Y Y)Y
            + 2[(nab_Y R)(nab_Y X, Y)Y + (nab_Y R)(X, nab_Y Y)Y + R(nab^2_Y X, Y)Y]
            + 3[(nab_Y R)(X, Y)nab_Y Y + R(X, Y)nab^2_Y Y + R(X, nab_Y Y)nab_Y Y]
            + 4 R(nab_Y X, Y)nab_Y Y

with Y = qdot.  The nab R terms vanish identically on the locally
symmetric built-in charts; numeric charts evaluate them exactly.

The ODE is linear in the field jet u = (X, DX, D2X, D3X), and its
coefficients depend only on the stored curve.  A ``Trajectory`` owns its
chart, its potential and its cached tables, so every function here that
analyzes one takes the trajectory alone.  The operator A(t) of
u' = A(t) u is built once per trajectory, at every node and segment
midpoint from one chart evaluation (``operator_table``); each RK4 step
of the march is the product of u with a precomputed step matrix.  A
bundle of fields marches as one matrix; off-node values take one partial
step out of the enclosing node through the same operator.  The
second-variation forms in ``index`` read F(X, qdot) + nab_X grad V off
the same table, and shooting in ``bvp`` reads its Jacobian off the
scan's bundle at the last node (``shooting_jacobian``).

Solutions vanishing to first covariant order at two distinct times are the
obstruction to local optimality; this module detects such time pairs along
a trajectory and, given one, builds an explicit admissible field with
negative second variation.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import rk4
from .dynamics import CurveState, Trajectory, quadrature_weights
from .errors import ConstructionError, ResolutionWarning
from .geometry import parallel_transport

__all__ = [
    "JacobiState",
    "BiconjugateReport",
    "NegativeDirectionReport",
    "F_operator",
    "jacobi_rhs",
    "jacobi_operator",
    "operator_table",
    "propagate_jacobi",
    "shooting_jacobian",
    "biconjugate_scan",
    "negative_direction",
]


@dataclass
class JacobiState:
    """Covariant 4-jet of a perturbation field; fields may be batched."""

    t: float | np.ndarray
    X: np.ndarray
    dX: np.ndarray
    d2X: np.ndarray
    d3X: np.ndarray


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
        # the four first-derivative terms share one contraction of nabla R
        X, dX, v, a = np.broadcast_arrays(X, dX, v, a)
        D = p.nabla_R(np.stack([X, v, v, v]), np.stack([a, dX, X, X]), np.stack([v, v, a, v]), np.stack([v, v, v, a]))
        out = out + D[0] + 2.0 * (D[1] + D[2]) + 3.0 * D[3]
    return out


def jacobi_rhs(chart, potential, state: CurveState, jac: JacobiState):
    """Coordinate time-derivatives of the field 4-jet (X, dX, d2X, d3X).

    F, the potential's Hessian and Gamma read one ``chart.at`` record.  On
    a flat chart F and Gamma vanish and the ODE is X'''' = -Hess V X, so
    only the potential's Hessian is evaluated.
    """
    q, v = state.q, state.v
    X, dX, d2X, d3X = jac.X, jac.dX, jac.d2X, jac.d3X
    if chart.flat:
        return dX, d2X, d3X, -potential.hessian_op(q, X)
    p = chart.at(q, 1 if chart.locally_symmetric else 4)
    force = -F_operator(chart, state, X, dX, d2X, p) - potential.hessian_op(q, X, p)
    return (
        dX - p.gamma(v, X),
        d2X - p.gamma(v, dX),
        d3X - p.gamma(v, d2X),
        force - p.gamma(v, d3X),
    )


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
    cols = jacobi_rhs(
        chart, potential, CurveState(states.t, *pts),
        JacobiState(states.t, jets[..., 0, :], jets[..., 1, :], jets[..., 2, :], jets[..., 3, :]),
    )
    return np.stack(cols, axis=-2).reshape(S, 4 * n, 4 * n).swapaxes(-1, -2)


def operator_table(trajectory: Trajectory):
    """jacobi_operator at every node and every segment midpoint.

    Built in one call and cached on the trajectory, so the field march,
    its off-node steps and the second-variation forms share one table.
    Returns (nodes, mids) of shapes (N+1, 4n, 4n) and (N, 4n, 4n).
    """
    if trajectory._ops is None:
        mids = trajectory.interpolate(trajectory.ts[:-1] + 0.5 * trajectory.h)
        at_nodes = (trajectory.qs, trajectory.vs, trajectory.accs, trajectory.jerks)
        at_mids = (mids.q, mids.v, mids.a, mids.j)
        both = CurveState(None, *(np.concatenate(ab) for ab in zip(at_nodes, at_mids)))
        A = jacobi_operator(trajectory.chart, trajectory.potential, both)
        S = len(trajectory.ts)
        trajectory._ops = (A[:S], A[S:])
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
    """Field-bundle states at every trajectory node of a covered index range.

    Off-node values come from a single partial RK4 step out of the
    enclosing node, built from the operator at the node and at two
    interpolated curve states, so dense queries keep the integrator's
    order without re-propagating from the anchor.
    """

    def __init__(self, traj: Trajectory, states, k_lo, k_hi):
        self.traj = traj
        self.states = states
        self.k_lo = k_lo
        self.k_hi = k_hi

    def at_time(self, t):
        traj = self.traj
        h = traj.h
        t0 = float(traj.ts[0])
        t = float(np.clip(t, traj.ts[self.k_lo], traj.ts[self.k_hi]))
        k = int(np.clip(np.floor((t - t0) / h), self.k_lo, self.k_hi - 1))
        tk = float(traj.ts[k])
        dt = t - tk
        u = self.states[k - self.k_lo]
        if abs(dt) < 1e-14:
            return u
        A = jacobi_operator(
            traj.chart, traj.potential, traj.interpolate(np.array([tk, tk + 0.5 * dt, t]))
        )
        phi = rk4.step_matrices(A[0], A[1], A[2], dt)
        return (_flat(u) @ phi.T).reshape(u.shape)


def _propagate_bundle(traj: Trajectory, k_anchor, u0, forward=True):
    """March a field bundle from a node to the grid end, storing every node.

    Every step is one product with that segment's RK4 step matrix
    (``rk4.march``), built from the trajectory's operator table.
    """
    nodes, mids = operator_table(traj)
    k = k_anchor
    if forward:
        h, ts = traj.h, traj.ts[k:]
        A0, Am, A1 = nodes[k:-1], mids[k:], nodes[k + 1 :]
    else:
        h, ts = -traj.h, traj.ts[: k + 1][::-1]
        A0, Am, A1 = nodes[1 : k + 1][::-1], mids[:k][::-1], nodes[:k][::-1]
    states = rk4.march(A0, Am, A1, h, _flat(u0), ts, "perturbation field blew up")
    states = states.reshape(states.shape[:-1] + u0.shape[-2:])
    if forward:
        return _StoredFlow(traj, states, k_anchor, traj.segments)
    return _StoredFlow(traj, states[::-1].copy(), 0, k_anchor)


def propagate_jacobi(trajectory: Trajectory, initial: JacobiState) -> JacobiState:
    """Integrate the field ODE over the whole trajectory grid.

    The initial state must sit at the first node; its fields may carry a
    leading batch axis.  Returns node samples of all four jets.
    """
    if abs(float(initial.t) - float(trajectory.ts[0])) > 1e-9 * (1.0 + trajectory.T):
        raise ValueError("initial field state must sit at the trajectory start")
    u0 = np.stack(
        [np.asarray(a, float) for a in (initial.X, initial.dX, initial.d2X, initial.d3X)],
        axis=-2,
    )
    flow = _propagate_bundle(trajectory, 0, u0, forward=True)
    s = np.moveaxis(flow.states, -2, 0)
    return JacobiState(trajectory.ts.copy(), s[0], s[1], s[2], s[3])


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


def shooting_jacobian(trajectory: Trajectory):
    """d(q(T), qdot(T)) / d(y, z) off the scan's field bundle from the first node.

    Field y_i (z_i) starts with X = DX = 0 and unit D2X (D3X), so dq = X(T)
    and dqdot = DX(T) - Gamma(qdot(T), X(T)).  Returns the Jacobian, row
    blocks (q; qdot), and whether the scan's rank test (sigma ratio at most
    1e-8) flags T.  The test reads the boundary matrix in the scan's
    determinant normalization: DX rows times T, y columns over T^2 and z
    columns over T^3, which makes the flat matrix the same for every T, so
    a short window is not mistaken for a rank drop.
    """
    chart = trajectory.chart
    n = chart.dim
    nodes, mids = operator_table(trajectory)
    u = rk4.march(
        nodes[:-1], mids, nodes[1:], trajectory.h, _flat(_basis_bundle(n)), trajectory.ts,
        "perturbation field blew up",
    )[-1].reshape(2 * n, 4, n)
    T = trajectory.T
    M = _boundary_matrix(u) * np.repeat([1.0, T], n)[:, None] * np.repeat([T**-2, T**-3], n)
    sv = np.linalg.svd(M, compute_uv=False)
    X = u[:, 0]
    qdot = u[:, 1] - chart.gamma(trajectory.qs[-1], trajectory.vs[-1], X)
    return np.concatenate([X, qdot], axis=1).T, bool(sv[-1] <= _SIGMA_RATIO * sv[0])


@dataclass
class BiconjugateReport:
    """Detected times where a perturbation field vanishes to first order
    at both the anchor and the detected time."""

    t1: float
    times: list
    sigma_ratios: list
    witnesses: list
    resolution: float

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


def _bisect_sign(f, a, b, fa, fb, tol=1e-6):
    while b - a > tol:
        m = 0.5 * (a + b)
        fm = f(m)
        if fm == 0.0:
            return m
        if (fa < 0) != (fm < 0):
            b, fb = m, fm
        else:
            a, fa = m, fm
    return 0.5 * (a + b)


def _golden_min(f, a, b, tol=1e-6):
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


_SIGMA_RATIO = 1e-8
_EXCLUDE_NODES = 4


def biconjugate_scan(trajectory: Trajectory, t1: float | None = None, grid: int | None = None) -> BiconjugateReport:
    """Locate the times paired with t1 (default: the window start) by first-order-vanishing fields.

    The 2n fundamental solutions launched at t1 with unit higher jets give
    a 2n x 2n endpoint matrix M(t); biconjugate times are its rank drops.
    Both determinant sign changes and dips of sigma_min/sigma_max below
    1e-8 trigger refinement (sign changes by bisection, dips by golden
    section) to 1e-6 in t.  The determinant is normalized by tau^{4n}/12^n
    to remove the forced zero at t1; a window of grid nodes around t1 is
    excluded for the same reason.  Scans run from t1 toward both grid ends;
    each direction is one table march of the 2n-field bundle, and the
    refinement steps off the nodes through the same operator.  A t1 more
    than 1e-9 h outside the trajectory window raises ValueError.
    """
    n = trajectory.chart.dim
    ts = trajectory.ts
    N = trajectory.segments
    t1 = ts[0] if t1 is None else t1
    slack = 1e-9 * trajectory.h
    if not ts[0] - slack <= t1 <= ts[-1] + slack:
        raise ValueError(f"scan time t1 = {t1:.17g} outside the trajectory window [{ts[0]:.17g}, {ts[-1]:.17g}]")
    k1 = int(np.clip(np.round((t1 - ts[0]) / trajectory.h), 0, N))
    t1_eff = float(ts[k1])
    if grid is not None and grid < 1:
        raise ValueError(f"scan grid must be a positive sample count, got {grid}")
    stride = 1 if grid is None else max(1, N // int(grid))

    found = []

    def norm_det(M, tau):
        return np.linalg.det(M) * 12.0**n / tau ** (4 * n)

    for forward in (True, False):
        span = N - k1 if forward else k1
        if span <= _EXCLUDE_NODES:
            continue
        flow = _propagate_bundle(trajectory, k1, _basis_bundle(n), forward)
        ks = (
            np.arange(k1 + _EXCLUDE_NODES, N + 1, stride)
            if forward
            else np.arange(k1 - _EXCLUDE_NODES, -1, -stride)
        )
        M = _boundary_matrix(flow.states[ks - flow.k_lo])
        taus = ts[ks] - t1_eff
        dets = norm_det(M, taus)
        sv = np.linalg.svd(M, compute_uv=False)
        ratios = sv[:, -1] / sv[:, 0]

        def f_det(t):
            return norm_det(_boundary_matrix(flow.at_time(t)), t - t1_eff)

        def f_ratio(t):
            s = np.linalg.svd(_boundary_matrix(flow.at_time(t)), compute_uv=False)
            return s[-1] / s[0]

        for i in range(len(ks) - 1):
            a, b = sorted((float(ts[ks[i]]), float(ts[ks[i + 1]])))
            if (dets[i] < 0) != (dets[i + 1] < 0):
                root = _bisect_sign(f_det, a, b, f_det(a), f_det(b))
                found.append((root, float(f_ratio(root)), flow))
            elif ratios[i] <= _SIGMA_RATIO:
                lo = float(ts[ks[i - 1]]) if i > 0 else a
                hi = float(ts[ks[i + 1]])
                lo, hi = min(lo, hi), max(lo, hi)
                root = _golden_min(f_ratio, lo, hi)
                r = float(f_ratio(root))
                if r <= _SIGMA_RATIO:
                    found.append((root, r, flow))

    # dedupe refined roots that were reached from both triggers
    found.sort(key=lambda e: e[0])
    dedup = []
    tol = max(2e-6, 1e-6 * trajectory.T)
    for root, r, flow in found:
        if dedup and abs(root - dedup[-1][0]) < tol:
            if r < dedup[-1][1]:
                dedup[-1] = (root, r, flow)
            continue
        dedup.append((root, r, flow))

    h_scan = trajectory.h * stride
    times, sigmas, witnesses = [], [], []
    for root, r, flow in dedup:
        M = _boundary_matrix(flow.at_time(root))
        _, _, vh = np.linalg.svd(M)
        c = vh[-1]
        times.append(float(root))
        sigmas.append(float(r))
        witnesses.append((c[:n].copy(), c[n:].copy()))
    for u, w in zip(times, times[1:]):
        if w - u < 2.0 * h_scan:
            warnings.warn(
                "adjacent rank drops closer than two scan steps; "
                "rerun with a finer grid",
                ResolutionWarning,
                stacklevel=2,
            )
            break
    return BiconjugateReport(t1_eff, times, sigmas, witnesses, h_scan)


@dataclass
class NegativeDirectionReport:
    value: float
    delta: float
    eps: float
    t1: float
    t2: float
    ts: np.ndarray
    U: np.ndarray


def _bump_profiles(s):
    """Bump (1-s^2)^2 and the odd companion s(1-s^2)^2 with derivatives in s."""
    w = 1.0 - s * s
    phi = w * w
    dphi = -4.0 * s * w
    d2phi = -4.0 + 12.0 * s * s
    psi = s * w * w
    dpsi = w * (1.0 - 5.0 * s * s)
    d2psi = -12.0 * s + 20.0 * s**3
    return phi, dphi, d2phi, psi, dpsi, d2psi


def _transport_from_end(traj: Trajectory, grid, vecs, from_start):
    """Parallel-transport vectors from one end of a time grid to every node."""
    path = grid if from_start else grid[::-1]
    cs = traj.interpolate(path)
    out = parallel_transport(traj.chart, path, cs.q, cs.v, np.stack(vecs))
    return list(np.moveaxis(out if from_start else out[::-1], 1, 0))


def _segment_nodes(a, b, m=40):
    return np.linspace(a, b, 2 * m + 1)


def negative_direction(trajectory: Trajectory, t1: float, t2: float, delta: float | None = None, eps: float | None = None) -> NegativeDirectionReport:
    """Build an admissible field with negative second variation from a
    detected pair (t1, t2).

    The field is U = X + eps*Y: X is the vanishing witness on [t1, t2]
    extended by zero, and Y places bump corrections at the interior cut
    times so the cross term picks up minus the squared jump of the
    witness jets.  With delta and eps omitted, geometric grids are
    searched and the first negative value wins; explicit values are
    evaluated as-is (eps = 0 returns the witness quadrature residual).
    """
    ts = trajectory.ts
    T_hi = float(ts[-1])
    T_lo = float(ts[0])
    if not (T_lo <= t1 < t2 <= T_hi):
        raise ValueError("need t_lo <= t1 < t2 <= t_hi on the trajectory window")
    chart = trajectory.chart
    n = chart.dim
    k1 = int(np.clip(np.round((t1 - T_lo) / trajectory.h), 0, trajectory.segments))
    t1 = float(ts[k1])
    flow = _propagate_bundle(trajectory, k1, _basis_bundle(n), True)

    M = _boundary_matrix(flow.at_time(t2))
    _, s_svd, vh_svd = np.linalg.svd(M)
    if s_svd[-1] > 1e-4 * s_svd[0]:
        raise ValueError(
            f"({t1:g}, {t2:g}) is not a detected pair: smallest relative "
            f"singular value {s_svd[-1] / s_svd[0]:.2e}"
        )
    c = vh_svd[-1]

    def witness_jets(t):
        return np.einsum("i,i...->...", c, flow.at_time(t))

    # normalize the witness to unit sup norm over [t1, t2]
    ks = np.arange(k1, int(np.floor((t2 - T_lo) / trajectory.h)) + 1)
    Xn = np.einsum("i,ki...->k...", c, flow.states[ks - flow.k_lo])
    sup = float(np.max(chart.norm(trajectory.qs[ks], Xn[:, 0, :])))
    c = c / sup

    jw2 = witness_jets(t2)
    d2U2, d3U2 = jw2[2], jw2[3]
    jw1 = witness_jets(t1)
    d2U1, d3U1 = jw1[2], jw1[3]

    span = t2 - t1
    margin = 2.0 * trajectory.h
    knots = []
    if t1 > T_lo + margin:
        # jets flip orientation at the left cut: the witness starts there
        knots.append((t1, -d3U1, d2U1))
    if t2 < T_hi - margin:
        knots.append((t2, d3U2, -d2U2))
    if not knots:
        raise ConstructionError(
            "both cut times sit at the trajectory boundary; no correction "
            "bump fits inside the window"
        )

    deltas = [delta] if delta is not None else [f * span for f in (0.1, 0.05, 0.025, 0.0125)]
    epses = [eps] if eps is not None else [1e-1, 1e-2, 1e-3, 1e-4]

    def evaluate(dl):
        """Quadrature of the three coefficients of I(X + e Y, X + e Y)."""
        cuts = sorted(
            {T_lo, T_hi, t1, t2}
            | {float(np.clip(tk + s * dl, T_lo, T_hi)) for tk, _, _ in knots for s in (-1, 1)}
        )
        i_xx = i_cross = i_yy = 0.0
        all_ts, all_u = [], []
        for a, b in zip(cuts, cuts[1:]):
            if b - a < 1e-12:
                continue
            has_x = a >= t1 - 1e-12 and b <= t2 + 1e-12
            bump = next(
                (kn for kn in knots if a >= kn[0] - dl - 1e-12 and b <= kn[0] + dl + 1e-12),
                None,
            )
            if not has_x and bump is None:
                continue
            grid = _segment_nodes(a, b)
            w = quadrature_weights(len(grid), grid[1] - grid[0])
            states = trajectory.interpolate(grid)
            Xj = np.zeros((len(grid), 4, n))
            if has_x:
                for i, t in enumerate(grid):
                    Xj[i] = witness_jets(float(t))
            Yj = np.zeros((len(grid), 4, n))
            if bump is not None:
                tk, A, B = bump
                At, Bt = _transport_from_end(
                    trajectory, grid, (A, B), from_start=abs(grid[0] - tk) < 1e-12
                )
                s = (grid - tk) / dl
                phi, dphi, d2phi, psi, dpsi, d2psi = _bump_profiles(s)
                Yj[:, 0] = phi[:, None] * At + dl * psi[:, None] * Bt
                Yj[:, 1] = (dphi[:, None] / dl) * At + dpsi[:, None] * Bt
                Yj[:, 2] = (d2phi[:, None] / dl**2) * At + (d2psi[:, None] / dl) * Bt

            force = _force_block(jacobi_operator(chart, trajectory.potential, states))

            def op(j):
                return np.einsum("sij,sj->si", force, j[:, :3].reshape(len(grid), 3 * n))

            opX = op(Xj) if has_x else np.zeros((len(grid), n))
            opY = op(Yj) if bump is not None else np.zeros((len(grid), n))
            inner = lambda u, v: chart.inner(states.q, u, v)
            i_xx += float(w @ (inner(Xj[:, 2], Xj[:, 2]) + inner(Xj[:, 0], opX)))
            i_cross += float(
                w
                @ (
                    2.0 * inner(Xj[:, 2], Yj[:, 2])
                    + inner(Yj[:, 0], opX)
                    + inner(Xj[:, 0], opY)
                )
            )
            i_yy += float(w @ (inner(Yj[:, 2], Yj[:, 2]) + inner(Yj[:, 0], opY)))
            all_ts.append(grid)
            all_u.append((Xj, Yj))
        return i_xx, i_cross, i_yy, all_ts, all_u

    tried = []
    for dl in deltas:
        if dl <= 0 or any(
            tk - dl < T_lo - 1e-12 or tk + dl > T_hi + 1e-12 for tk, _, _ in knots
        ):
            continue
        if 2.0 * dl >= span:
            continue
        i_xx, i_cross, i_yy, seg_ts, seg_u = evaluate(dl)
        for e in epses:
            val = i_xx + e * i_cross + e * e * i_yy
            tried.append((dl, e, val))
            if (eps is not None and delta is not None) or val < 0.0:
                ts_out = np.concatenate(seg_ts)
                U_out = np.concatenate(
                    [xj[:, 0] + e * yj[:, 0] for xj, yj in seg_u]
                )
                order = np.argsort(ts_out, kind="stable")
                return NegativeDirectionReport(
                    float(val), float(dl), float(e), t1, float(t2),
                    ts_out[order], U_out[order],
                )
    if not tried:
        raise ConstructionError(
            "no feasible bump width: supports must fit strictly inside the window"
        )
    lines = ", ".join(f"(delta={d:.3g}, eps={e:.3g}) -> {v:.3e}" for d, e, v in tried[:8])
    raise ConstructionError(
        f"no negative value on the search grid; best attempts: {lines}"
    )
