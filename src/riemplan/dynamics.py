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

Integration is fixed-step classical RK4, default step T/2000, no
adaptivity: determinism matters more than step control at desk scale, and
step-halving supplies the error estimate in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

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
    dq = v
    dv = a - chart.gamma(q, v, v)
    da = j - chart.gamma(q, v, a)
    dj = -chart.curvature(q, a, v, v) - potential.gradient(q) - chart.gamma(q, v, j)
    return dq, dv, da, dj


def _rhs_stacked(chart, potential, u):
    dq, dv, da, dj = ode_rhs(
        chart, potential, u[..., 0, :], u[..., 1, :], u[..., 2, :], u[..., 3, :]
    )
    return np.stack([dq, dv, da, dj], axis=-2)


def _rk4_step(chart, potential, u, h):
    k1 = _rhs_stacked(chart, potential, u)
    k2 = _rhs_stacked(chart, potential, u + 0.5 * h * k1)
    k3 = _rhs_stacked(chart, potential, u + 0.5 * h * k2)
    k4 = _rhs_stacked(chart, potential, u + h * k3)
    return u + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


# cubic Hermite basis on [0, 1]
def _hermite(s):
    s2 = s * s
    s3 = s2 * s
    return 2 * s3 - 3 * s2 + 1, s3 - 2 * s2 + s, -2 * s3 + 3 * s2, s3 - s2


def grid_steps(T: float, h: float | None = None) -> tuple[int, float]:
    """Segment count and adjusted step for a window of length T.

    The count is forced even (composite Simpson runs on the same grid) and
    the step is adjusted to divide T exactly.  Default step is T/2000.
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


def integrate_ivp(chart, potential, initial: CurveState, T: float, h: float | None = None) -> Trajectory:
    """Integrate the trajectory ODE from ``initial`` over a window of length T.

    The step is adjusted to an even number of segments (the action
    quadrature is composite Simpson on the same grid).  Raises
    ChartEscapeError with the escape time if the curve leaves the chart
    domain, NumericalError on nonfinite state.
    """
    N, h = grid_steps(T, h)
    t0 = float(initial.t)
    chart.check_point(initial.q, "initial point")

    u = np.stack(
        [np.asarray(a, float) for a in (initial.q, initial.v, initial.a, initial.j)],
        axis=-2,
    )
    if u.ndim != 2:
        raise ValueError("integrate_ivp expects an unbatched initial state")
    traj = np.empty((N + 1,) + u.shape)
    traj[0] = u
    for k in range(N):
        u = _rk4_step(chart, potential, u, h)
        if not np.all(np.isfinite(u)):
            raise NumericalError(f"nonfinite state at t = {t0 + (k + 1) * h:.6g}")
        if not np.all(chart.contains(u[..., 0, :])):
            raise ChartEscapeError(
                "trajectory left the chart domain", t0 + (k + 1) * h
            )
        traj[k + 1] = u
    ts = t0 + h * np.arange(N + 1)
    return Trajectory(
        chart, potential, ts, traj[:, 0], traj[:, 1], traj[:, 2], traj[:, 3]
    )


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
