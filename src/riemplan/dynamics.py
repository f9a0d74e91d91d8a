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

Each stage reads Gamma, R and the potential's metric off one evaluation
of the chart at q (``chart.at``).  On a flat chart (``chart.flat``, a
``space_curvature`` of 0) Gamma and R vanish and the system is
q'''' = -grad V(q): the right side is the shift (v, a, j) over
-grad V(q), and the chart is not evaluated.

Integration is classical RK4 (``rk4.step``) on a uniform grid whose step
stays fixed through a march, so a given grid gives a deterministic curve.
``integrate_ivp`` takes the step it is given, or T/2000 by default.
``bvp.solve_bvp`` chooses its step count by error control unless it is
given one: it compares passes on N and N/2 steps (step doubling) and
picks N so that the estimate meets a fixed tolerance.

``integrate_ivp`` and ``bvp``'s shooting passes share one march,
``_flow``.  It marches a list of curves, one row each, in one loop, one
``_rk4_step`` call per step for all of them (bench/layers.py traces that
call here).  Each row has its own start time, step and step count, is
stored at every node, and leaves the batch when it finishes or fails.
The right-hand side acts row by row, so a row marched in a batch gets the
same bits as marched alone; a step costs about the same at 5 rows as at
100, so passes that can run together (a shot and its half-grid twin,
the uniqueness probes' sub-window solves) are marched as one.  The row
of a curve from a given state is stated once, ``_ivp_row``, for
``integrate_ivp`` and the probes' replays in ``bvp``.  Nothing
here linearizes the flow: shooting reads its Jacobian off the Jacobi
field bundle of the stored curve (``jacobi``).

The oracle minimizes the one discrete action, ``_discrete_action``; the
tests' finite-difference variations difference it too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import rk4
from .errors import ChartEscapeError, NumericalError
from .geometry import ManifoldChart
from .potentials import Potential

__all__ = [
    "CurveState",
    "Trajectory",
    "integrate_ivp",
    "action",
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


def _rhs_stacked(chart, potential, u):
    """Coordinate time-derivatives of jet stacks u of shape (..., 4, n), the
    levels (q, v, a, j) along axis -2: one chart evaluation, none on flat charts.

    Gamma(v, .) is contracted once with the stacked (v, a, j) at the point.
    """
    q, v, a = u[..., 0, :], u[..., 1, :], u[..., 2, :]
    out = np.empty_like(u)
    if chart.flat:
        out[..., :3, :] = u[..., 1:, :]
        out[..., 3, :] = -potential.gradient(q)
        return out
    p = chart.at(q, 1 if chart.locally_symmetric else 2)
    g = np.einsum("...kij,...i,...rj->...rk", p.Gamma, v, u[..., 1:, :])
    out[..., 0, :] = v
    np.subtract(u[..., 2:, :], g[..., :2, :], out=out[..., 1:3, :])
    out[..., 3, :] = -p.curvature(a, v, v) - potential.gradient(q, p) - g[..., 2, :]
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
    2000, the fixed default of ``integrate_ivp``; ``solve_bvp`` does not
    use it, since it picks its own count by error control when no step is
    given.
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

    The trajectory owns the chart and potential it solves the ODE for:
    every function that analyzes it (its action, its field bundles, its
    second variation, the oracle's comparisons) reads them here.  Dense
    output is cubic Hermite per component using the exact coordinate
    derivatives from the ODE right side, matching the integrator's order.

    The Jacobi field bundle marches on a field grid of its own:
    ``field_refinement`` uniform steps per segment, so every node is a
    field node and the curve between nodes is read off ``interpolate``.
    It is 1, the curve's own grid, unless error control chose more
    (``bvp.field_grid``); ``dataclasses.replace`` sets it on a copy.
    Immutable by convention; its cached tables (``node_rhs`` and the field
    grid's operator table ``_ops``, built by ``jacobi._field``) are derived
    data only.
    """

    chart: ManifoldChart
    potential: Potential
    ts: np.ndarray
    qs: np.ndarray
    vs: np.ndarray
    accs: np.ndarray
    jerks: np.ndarray
    field_refinement: int = 1
    # not an __init__ argument, so dataclasses.replace starts a new table
    _ops: tuple | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def h(self) -> float:
        return float(self.ts[1] - self.ts[0])

    @property
    def T(self) -> float:
        return float(self.ts[-1] - self.ts[0])

    @property
    def segments(self) -> int:
        return len(self.ts) - 1

    @property
    def field_steps(self) -> int:
        """Steps of the field grid, M = field_refinement * segments."""
        return self.field_refinement * self.segments

    @property
    def field_h(self) -> float:
        """Step of the field grid."""
        return self.h / self.field_refinement

    def state(self, k: int) -> CurveState:
        return CurveState(float(self.ts[k]), self.qs[k], self.vs[k], self.accs[k], self.jerks[k])

    @cached_property
    def node_rhs(self) -> np.ndarray:
        """Coordinate derivatives of the four jet levels at every node, (N+1, 4, n)."""
        jets = np.stack([self.qs, self.vs, self.accs, self.jerks], axis=-2)
        return _rhs_stacked(self.chart, self.potential, jets)

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
        d = self.node_rhs
        out = []
        for i, y in enumerate((self.qs, self.vs, self.accs, self.jerks)):
            dy = d[:, i]
            out.append(
                h00 * y[k] + h10 * h * dy[k] + h01 * y[k + 1] + h11 * h * dy[k + 1]
            )
        return CurveState(t, *out)


def _flow_failure(u, chart, t):
    """The error for a row (4, n) that went nonfinite or left the chart, else None."""
    if not np.isfinite(u).all():
        return NumericalError(f"nonfinite state at t = {t:.6g}")
    if not np.all(chart.contains(u[0])):
        return ChartEscapeError("trajectory left the chart domain", t)
    return None


class _Row:
    """One row of a ``_flow`` march: its grid, its nodes and its failure."""

    def __init__(self, u, t0, h, steps):
        self.t0, self.h, self.steps = t0, h, steps
        self.nodes = np.empty((steps + 1,) + u.shape)
        self.nodes[0] = u
        self.failure = None

    def result(self, chart, potential):
        if self.failure is not None:
            return None, self.failure
        nodes = self.nodes
        traj = Trajectory(
            chart, potential, self.t0 + self.h * np.arange(self.steps + 1),
            nodes[:, 0], nodes[:, 1], nodes[:, 2], nodes[:, 3],
        )
        return traj, None


def _flow(chart, potential, rows):
    """March curves as the rows of one loop, one ``_rk4_step`` call per step.

    ``rows`` lists (u, t0, h, steps): a jet stack u of shape (4, n) with
    its own start time, step and step count.  Returns one
    (trajectory, None) per row, or (None, error) for a row that went
    nonfinite (NumericalError) or left the chart (ChartEscapeError).  A
    row leaves the batch when it finishes or fails; the others march on
    unchanged.
    """
    rows = [_Row(*r) for r in rows]
    live, k = rows, 0
    while live:
        u = np.stack([r.nodes[k] for r in live])
        h = np.array([r.h for r in live])[:, None, None]
        end = min(r.steps for r in live)
        while True:
            # a module global, so a wrapper on dynamics._rk4_step sees every step
            u = _rk4_step(chart, potential, u, h)
            k += 1
            failed = not (np.isfinite(u).all() and chart.contains(u[:, 0]).all())
            if failed or k == end:
                break
            for r, row in zip(live, u):
                r.nodes[k] = row
        for r, row in zip(live, u):
            if failed:
                r.failure = _flow_failure(row, chart, r.t0 + k * r.h)
            r.nodes[k] = row
        live = [r for r in live if r.failure is None and k < r.steps]
    return [r.result(chart, potential) for r in rows]


def _ivp_row(chart, initial: CurveState, T: float, h: float | None = None):
    """The ``_flow`` row (u, t0, h, N) of the curve from ``initial`` over a
    window of length T: its jet stack, start time, step and step count
    (``grid_steps``).  The start must lie in the chart and be unbatched."""
    N, h = grid_steps(T, h)
    chart.check_point(initial.q, "initial point")
    u = np.stack(
        [np.asarray(a, float) for a in (initial.q, initial.v, initial.a, initial.j)],
        axis=-2,
    )
    if u.ndim != 2:
        raise ValueError("integrate_ivp expects an unbatched initial state")
    return u, float(initial.t), h, N


def integrate_ivp(chart, potential, initial: CurveState, T: float, h: float | None = None) -> Trajectory:
    """Integrate the trajectory ODE from ``initial`` over a window of length T.

    The step is adjusted to an even number of segments (the action
    quadrature is composite Simpson on the same grid).  Raises
    ChartEscapeError with the escape time if the curve leaves the chart
    domain, NumericalError on nonfinite state.
    """
    [(traj, failure)] = _flow(chart, potential, [_ivp_row(chart, initial, T, h)])
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


def action(trajectory: Trajectory) -> float:
    """J = integral of  |a|^2_g / 2 + V(q)  over the trajectory window."""
    qs = trajectory.qs
    integrand = 0.5 * trajectory.chart.inner(qs, trajectory.accs, trajectory.accs)
    integrand = integrand + trajectory.potential.value(qs)
    val = float(quadrature_weights(len(qs), trajectory.h) @ integrand)
    return max(val, 0.0)


def _kinematics(h, qs, va, vb):
    """Velocities and covariant accelerations at every node (node axis -2).

    End accelerations are the same central stencil closed with the ghost
    node the central velocity constraint implies (q_{-1} = q_1 - 2h v_a).
    One-sided stencils here are a trap: they leave O(1/h) point residuals
    in the optimality system at any end with nonzero acceleration, and the
    minimizer then undershoots the action by O(h).
    """
    v = np.empty_like(qs)
    v[..., 1:-1, :] = (qs[..., 2:, :] - qs[..., :-2, :]) / (2.0 * h)
    v[..., 0, :] = va
    v[..., -1, :] = vb
    c = np.empty_like(qs)
    c[..., 1:-1, :] = (qs[..., 2:, :] - 2.0 * qs[..., 1:-1, :] + qs[..., :-2, :]) / h**2
    c[..., 0, :] = 2.0 * (qs[..., 1, :] - qs[..., 0, :] - h * va) / h**2
    c[..., -1, :] = 2.0 * (qs[..., -2, :] - qs[..., -1, :] + h * vb) / h**2
    return v, c


def _trapezoid(n_nodes, h):
    w = np.full(n_nodes, h)
    w[0] = w[-1] = 0.5 * h
    return w


def _discrete_action(chart, potential, h, qs, va, vb):
    """Trapezoid sum of |a|^2_g / 2 + V over uniform position samples qs
    with end velocities va, vb, the accelerations from ``_kinematics``."""
    v, c = _kinematics(h, qs, va, vb)
    a = c + chart.gamma(qs, v, v)
    w = _trapezoid(len(qs), h)
    vals = 0.5 * chart.inner(qs, a, a) + potential.value(qs)
    return float(w @ vals)
