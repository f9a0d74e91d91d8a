"""Curve states, the fourth-order trajectory ODE, and the action functional.

The planner's curves solve

    D^3 qdot / dt^3 + R(D qdot/dt, qdot) qdot + grad V(q) = 0,

a fourth-order covariant ODE.  States carry the covariant jets (q, v, a, j)
= (q, qdot, D qdot/dt, D^2 qdot/dt^2); the first-order reduction converts
them to coordinate derivatives through Gamma at the current point:

    q' = v
    v' = a - Gamma(v, v)
    a' = j - Gamma(v, a)
    j' = -R(a, v)v - grad V(q) - Gamma(v, j)

Integration is classical RK4 (``rk4.step``) on a uniform grid whose step
stays fixed through a march, so a given grid gives a deterministic curve.
``integrate_ivp`` takes the step it is given, or T/2000 by default.
``bvp.solve_bvp`` chooses its step count by error control unless it is
given one: it compares passes on N and N/2 steps (step doubling) and
picks N so that the estimate meets a fixed tolerance.

``integrate_ivp`` and ``bvp``'s shooting passes share one march,
``_flow``.  It marches a list of row groups in one loop, one
``_rk4_step`` call per step for all of them (bench/layers.py traces that
call here).  Each group has its own start time, step, step count, stored
head row and failure, and leaves the batch when it finishes or fails.
The right-hand side acts row by row, so a row marched in a batch gets the
same bits as marched alone; a step costs about the same at 5 rows as at
100, so passes that can run together (a shot and its half-grid twin,
the uniqueness probes' sub-window solves) are marched as one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import rk4
from .errors import ChartEscapeError, NumericalError
from .geometry import ManifoldChart
from .potentials import Potential

__all__ = [
    "CurveState",
    "Trajectory",
    "ode_rhs",
    "integrate_ivp",
    "action",
    "first_variation",
    "quadrature_weights",
    "grid_steps",
]


@dataclass
class CurveState:
    """Covariant 4-jet of a curve at one time.

    a and j are the covariant acceleration and jerk, not coordinate
    second/third derivatives.  Fields may carry leading batch axes.
    """

    t: float | np.ndarray
    q: np.ndarray
    v: np.ndarray
    a: np.ndarray
    j: np.ndarray


def ode_rhs(chart, potential, q, v, a, j):
    """Coordinate time-derivatives of (q, v, a, j); broadcasts."""
    jets = np.broadcast_arrays(*(np.asarray(x, float) for x in (q, v, a, j)))
    d = _rhs_stacked(chart, potential, np.stack(jets, axis=-2))
    return d[..., 0, :], d[..., 1, :], d[..., 2, :], d[..., 3, :]


def _rhs_stacked(chart, potential, u):
    """``ode_rhs`` on jet stacks u of shape (..., 4, n), with one Gamma call.

    Gamma(v, .) is evaluated once on the stacked (v, a, j) at the point.
    """
    q, v, a = u[..., 0, :], u[..., 1, :], u[..., 2, :]
    g = chart.gamma(q[..., None, :], v[..., None, :], u[..., 1:, :])
    out = np.empty_like(u)
    out[..., 0, :] = v
    np.subtract(u[..., 2:, :], g[..., :2, :], out=out[..., 1:3, :])
    out[..., 3, :] = -chart.curvature(q, a, v, v) - potential.gradient(q) - g[..., 2, :]
    return out


def _rk4_step(chart, potential, u, h):
    return rk4.step(lambda x: _rhs_stacked(chart, potential, x), u, h)


# cubic Hermite basis on [0, 1]
def _hermite(s):
    s2 = s * s
    s3 = s2 * s
    return 2 * s3 - 3 * s2 + 1, s3 - 2 * s2 + s, -2 * s3 + 3 * s2, s3 - s2


def grid_steps(T: float, h: float | None = None) -> tuple[int, float]:
    """Segment count and adjusted step for a window of length T.

    The count is forced even (composite Simpson runs on the same grid) and
    the step is adjusted to divide T exactly.  With h None the count is
    2000, the fixed default of ``integrate_ivp``, ``biexp`` and
    ``biexp_jacobian``; ``solve_bvp`` does not use it, since it picks its
    own count by error control when no step is given.
    """
    if T <= 0:
        raise ValueError("integration window must have T > 0")
    if h is None:
        h = T / 2000.0
    if h <= 0:
        raise ValueError("step must be positive")
    N = max(2, int(round(T / h)))
    if N % 2:
        N += 1
    return N, T / N


@dataclass
class Trajectory:
    """Uniformly sampled solution curve with covariant jets at the nodes.

    Dense output is cubic Hermite per component using the exact coordinate
    derivatives from the ODE right side, matching the integrator's order.
    Immutable by convention; the lazy caches are derived data only.
    """

    chart: ManifoldChart
    potential: Potential
    ts: np.ndarray
    qs: np.ndarray
    vs: np.ndarray
    accs: np.ndarray
    jerks: np.ndarray
    _node_rhs: tuple | None = field(default=None, repr=False, compare=False)
    _mid: "CurveState | None" = field(default=None, repr=False, compare=False)
    _ops: tuple | None = field(default=None, repr=False, compare=False)

    @property
    def h(self) -> float:
        return float(self.ts[1] - self.ts[0])

    @property
    def T(self) -> float:
        return float(self.ts[-1] - self.ts[0])

    @property
    def segments(self) -> int:
        return len(self.ts) - 1

    def state(self, k: int) -> CurveState:
        return CurveState(float(self.ts[k]), self.qs[k], self.vs[k], self.accs[k], self.jerks[k])

    def node_rhs(self):
        """Coordinate derivatives of all four jet levels at every node."""
        if self._node_rhs is None:
            self._node_rhs = ode_rhs(
                self.chart, self.potential, self.qs, self.vs, self.accs, self.jerks
            )
        return self._node_rhs

    def interpolate(self, t) -> CurveState:
        """Jets at time(s) t; t may leave [ts[0], ts[-1]] by roundoff (1e-9 h) only."""
        t = np.asarray(t, float)
        h = self.h
        slack = 1e-9 * h
        if not np.all((t >= self.ts[0] - slack) & (t <= self.ts[-1] + slack)):
            raise ValueError(
                f"interpolation time outside the trajectory window "
                f"[{self.ts[0]:.17g}, {self.ts[-1]:.17g}]"
            )
        s = (t - self.ts[0]) / h
        k = np.clip(np.floor(s).astype(int), 0, self.segments - 1)
        u = s - k
        h00, h10, h01, h11 = _hermite(u[..., None])
        dqs, dvs, das, djs = self.node_rhs()
        out = []
        for y, dy in ((self.qs, dqs), (self.vs, dvs), (self.accs, das), (self.jerks, djs)):
            out.append(
                h00 * y[k] + h10 * h * dy[k] + h01 * y[k + 1] + h11 * h * dy[k + 1]
            )
        return CurveState(t, *out)

    def midpoints(self) -> CurveState:
        """Jets at the segment midpoints (cached; used by field propagation)."""
        if self._mid is None:
            self._mid = self.interpolate(self.ts[:-1] + 0.5 * self.h)
        return self._mid


def _flow_failure(u, chart, t):
    """The error for a flow batch that went nonfinite or left the chart, else None."""
    if not np.isfinite(u).all():
        return NumericalError(f"nonfinite state at t = {t:.6g}")
    if not chart.contains(u[:, 0]).all():
        return ChartEscapeError("trajectory left the chart domain", t)
    return None


class _Group:
    """One row group of a ``_flow`` march: its rows, grid, head nodes, failure."""

    def __init__(self, u, t0, h, steps):
        self.u, self.t0, self.h, self.steps = u, t0, h, steps
        self.nodes = np.empty((steps + 1,) + u.shape[1:])
        self.nodes[0] = u[0]
        self.failure = None

    def settle(self, u, k, chart, check):
        """Take the group's rows after step k, checking them if ``check``.

        A failed head ends the group (``u`` None); a failure of another
        row keeps the head alone.
        """
        if check:
            t = self.t0 + k * self.h
            err = _flow_failure(u, chart, t)
            if err is not None:
                self.failure = _flow_failure(u[:1], chart, t)
                if self.failure is not None:
                    self.u = None
                    return
                self.failure, u = err, u[:1]
        self.u = u
        self.nodes[k] = u[0]

    def result(self, chart, potential):
        if self.u is None:
            return None, None, self.failure
        nodes = self.nodes
        traj = Trajectory(
            chart, potential, self.t0 + self.h * np.arange(self.steps + 1),
            nodes[:, 0], nodes[:, 1], nodes[:, 2], nodes[:, 3],
        )
        return traj, self.u, self.failure


def _flow(chart, potential, groups):
    """March row groups in one loop, one ``_rk4_step`` call per step.

    ``groups`` lists (u, t0, h, steps): jet stacks u of shape
    (rows, 4, n), each with its own start time, step and step count.
    Returns one (trajectory, u, failure) per group.  Row 0 of a group,
    its head, is stored at every node and returned as a Trajectory, with
    the group's final rows.  A failure of the head (nonfinite, or out of
    the chart) ends the group and returns (None, None, error); a failure
    of any other row drops the group's other rows from the rest of its
    march and is returned as ``failure``, else None.  A group leaves the
    batch when it finishes or fails; the others march on unchanged.
    """
    groups = [_Group(*g) for g in groups]
    live, k = groups, 0
    while live:
        sizes = [len(g.u) for g in live]
        heads = np.cumsum([0] + sizes[:-1]).tolist()
        u = np.concatenate([g.u for g in live])
        h = np.repeat([g.h for g in live], sizes)[:, None, None]
        end = min(g.steps for g in live)
        while True:
            # a module global, so a wrapper on dynamics._rk4_step sees every step
            u = _rk4_step(chart, potential, u, h)
            k += 1
            failed = not (np.isfinite(u).all() and chart.contains(u[:, 0]).all())
            if failed or k == end:
                break
            for g, i in zip(live, heads):
                g.nodes[k] = u[i]
        for g, i, n in zip(live, heads, sizes):
            g.settle(u[i : i + n], k, chart, failed)
        live = [g for g in live if g.u is not None and k < g.steps]
    return [g.result(chart, potential) for g in groups]


def integrate_ivp(chart, potential, initial: CurveState, T: float, h: float | None = None) -> Trajectory:
    """Integrate the trajectory ODE from ``initial`` over a window of length T.

    The step is adjusted to an even number of segments (the action
    quadrature is composite Simpson on the same grid).  Raises
    ChartEscapeError with the escape time if the curve leaves the chart
    domain, NumericalError on nonfinite state.
    """
    N, h = grid_steps(T, h)
    chart.check_point(initial.q, "initial point")
    u = np.stack(
        [np.asarray(a, float) for a in (initial.q, initial.v, initial.a, initial.j)],
        axis=-2,
    )
    if u.ndim != 2:
        raise ValueError("integrate_ivp expects an unbatched initial state")
    [(traj, _, failure)] = _flow(chart, potential, [(u[None], float(initial.t), h, N)])
    if traj is None:
        raise failure
    return traj


def quadrature_weights(n_nodes: int, h: float) -> np.ndarray:
    """Composite Simpson weights on a uniform grid.

    An odd segment count gets a 3/8 tail so the rule keeps fourth-order
    accuracy; a single segment degrades to the trapezoid.
    """
    N = n_nodes - 1
    w = np.zeros(n_nodes)
    if N <= 0:
        return w
    if N == 1:
        w[:] = h / 2.0
        return w
    if N % 2 == 0:
        w[0] = w[-1] = h / 3.0
        w[1:-1:2] = 4.0 * h / 3.0
        w[2:-1:2] = 2.0 * h / 3.0
        return w
    if N == 3:
        w[:] = np.array([3, 9, 9, 3]) * h / 8.0
        return w
    w[: N - 2] += quadrature_weights(N - 2, h)
    w[N - 3 :] += np.array([3, 9, 9, 3]) * h / 8.0
    return w


def action(chart, potential, trajectory: Trajectory) -> float:
    """J = integral of  |a|^2_g / 2 + V(q)  over the trajectory window."""
    qs = trajectory.qs
    integrand = 0.5 * chart.inner(qs, trajectory.accs, trajectory.accs)
    integrand = integrand + potential.value(qs)
    val = float(quadrature_weights(len(qs), trajectory.h) @ integrand)
    return max(val, 0.0)


def _action_from_positions(chart, potential, h, qs, va=None, vb=None):
    """Action of a curve known only through uniform position samples.

    Velocities are central differences (ends either supplied or one-sided
    second order); accelerations are covariant central second differences.
    Shares the Simpson weights with ``action`` so errors cancel in
    variation differences.
    """
    qs = np.asarray(qs, float)
    v = np.empty_like(qs)
    v[1:-1] = (qs[2:] - qs[:-2]) / (2.0 * h)
    v[0] = (-3.0 * qs[0] + 4.0 * qs[1] - qs[2]) / (2.0 * h) if va is None else va
    v[-1] = (3.0 * qs[-1] - 4.0 * qs[-2] + qs[-3]) / (2.0 * h) if vb is None else vb
    qdd = np.empty_like(qs)
    qdd[1:-1] = (qs[2:] - 2.0 * qs[1:-1] + qs[:-2]) / h**2
    qdd[0] = (2.0 * qs[0] - 5.0 * qs[1] + 4.0 * qs[2] - qs[3]) / h**2
    qdd[-1] = (2.0 * qs[-1] - 5.0 * qs[-2] + 4.0 * qs[-3] - qs[-4]) / h**2
    a = qdd + chart.gamma(qs, v, v)
    integrand = 0.5 * chart.inner(qs, a, a) + potential.value(qs)
    return float(quadrature_weights(len(qs), h) @ integrand)


def first_variation(chart, potential, trajectory: Trajectory, W, eps: float = 1e-5) -> float:
    """dJ in the direction of the variation field W, by central differences.

    W is sampled on the trajectory grid and must vanish together with its
    covariant derivative at both ends; the varied curve t -> exp_q(eps W)
    then keeps the boundary positions and velocities exactly.
    """
    W = np.asarray(W, float)
    if W.shape != trajectory.qs.shape:
        raise ValueError("variation field must be sampled on the trajectory grid")
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
    jp = _action_from_positions(chart, potential, h, qp, va, vb)
    jm = _action_from_positions(chart, potential, h, qm, va, vb)
    return (jp - jm) / (2.0 * e)
