"""Direct minimization of a discretized action, independent of the solver.

The path variable is the interior position samples of a uniform grid;
velocity-matching at the ends is imposed by eliminating the first and last
interior nodes against second-order one-sided differences.  Accelerations
are covariant central second differences and the action is a trapezoid sum
of kinetic-plus-potential node values.  Minimization takes damped Newton
steps on a hand-derived analytic gradient of exactly this discrete
functional; the action couples nodes only within two of each other, so
the finite-difference Hessian of that gradient is banded, costs a fixed
number of gradient calls to assemble, and factors in O(N).

Deliberately nothing here touches the shooting machinery: agreement
between the two routes is evidence, disagreement is diagnosis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

# solve_bvp and integrate_ivp stay module attributes: bench/layers.py
# traces them by name here.  The uniqueness probes march in lockstep.
from .bvp import BoundaryData, _integrate, _lockstep, _solve, solve_bvp  # noqa: F401
from .dynamics import CurveState, action as dyn_action, integrate_ivp  # noqa: F401
from .errors import NonconvergenceError, PlannerError

__all__ = [
    "DiscretePath",
    "discrete_action",
    "discrete_gradient",
    "minimize_discrete",
    "compare_with_trajectory",
    "check_uniqueness_props",
]


@dataclass
class DiscretePath:
    """Uniform-grid position samples satisfying the boundary constraints."""

    ts: np.ndarray
    qs: np.ndarray
    boundary: BoundaryData
    action: float | None = None
    grad_sup: float | None = None
    iterations: int | None = None

    @property
    def h(self):
        return float(self.ts[1] - self.ts[0])

    @property
    def segments(self):
        return len(self.ts) - 1

    @classmethod
    def from_free(cls, boundary: BoundaryData, N: int, free: np.ndarray):
        """Assemble the full node array from the free interior block.

        free holds nodes 2..N-2; nodes 1 and N-1 come from the eliminated
        end-velocity constraints, nodes 0 and N are the boundary points.
        """
        N = int(N)
        h = boundary.span / N
        ts = boundary.a + h * np.arange(N + 1)
        n = boundary.q_a.shape[-1]
        qs = np.empty((N + 1, n))
        qs[0] = boundary.q_a
        qs[-1] = boundary.q_b
        qs[2 : N - 1] = np.asarray(free, float).reshape(N - 3, n)
        qs[1] = (2.0 * h * boundary.v_a + 3.0 * qs[0] + qs[2]) / 4.0
        qs[N - 1] = (3.0 * qs[N] + qs[N - 2] - 2.0 * h * boundary.v_b) / 4.0
        return cls(ts, qs, boundary)

    def free_block(self):
        return self.qs[2 : self.segments - 1].copy()


def _node_kinematics(path: DiscretePath):
    """Velocities and covariant accelerations at every node.

    End accelerations are the same central stencil closed with the ghost
    node the central velocity constraint implies (q_{-1} = q_1 - 2h v_a).
    One-sided stencils here are a trap: they leave O(1/h) point residuals
    in the optimality system at any end with nonzero acceleration, and the
    minimizer then undershoots the action by O(h).
    """
    qs, h, bd = path.qs, path.h, path.boundary
    v = np.empty_like(qs)
    v[1:-1] = (qs[2:] - qs[:-2]) / (2.0 * h)
    v[0] = bd.v_a
    v[-1] = bd.v_b
    c = np.empty_like(qs)
    c[1:-1] = (qs[2:] - 2.0 * qs[1:-1] + qs[:-2]) / h**2
    c[0] = 2.0 * (qs[1] - qs[0] - h * bd.v_a) / h**2
    c[-1] = 2.0 * (qs[-2] - qs[-1] + h * bd.v_b) / h**2
    return v, c


def _trapezoid(n_nodes, h):
    w = np.full(n_nodes, h)
    w[0] = w[-1] = 0.5 * h
    return w


def discrete_action(chart, potential, path: DiscretePath) -> float:
    chart.check_point(path.qs, "path node")
    v, c = _node_kinematics(path)
    a = c + chart.gamma(path.qs, v, v)
    w = _trapezoid(len(path.ts), path.h)
    vals = 0.5 * chart.inner(path.qs, a, a) + potential.value(path.qs)
    return float(w @ vals)


def discrete_gradient(chart, potential, path: DiscretePath):
    """Analytic gradient of discrete_action in the free interior block.

    Assembled per node from the difference stencils: the metric pairing of
    the acceleration feeds three neighbors through the second difference,
    two through the velocity entering the quadratic connection term, and
    the node itself through the metric, connection, and potential
    derivatives.  The eliminated nodes pass a quarter of their gradient to
    the adjacent free node.
    """
    qs, h = path.qs, path.h
    N = path.segments
    v, c = _node_kinematics(path)
    G = chart.christoffel(qs)
    a = c + np.einsum("...kij,...i,...j->...k", G, v, v)
    g = chart.metric(qs)
    b = np.einsum("...ab,...b->...a", g, a)
    w = _trapezoid(N + 1, h)

    grad = np.zeros_like(qs)
    wb = w[1:-1, None] * b[1:-1]
    grad[0:-2] += wb / h**2
    grad[1:-1] -= 2.0 * wb / h**2
    grad[2:] += wb / h**2
    C = np.einsum("...c,...cdb,...b->...d", b[1:-1], G[1:-1], v[1:-1])
    wc = w[1:-1, None] * C
    grad[2:] += wc / h
    grad[0:-2] -= wc / h

    dg = chart.dmetric(qs[1:-1])
    dG = chart.dchristoffel(qs[1:-1])
    E = 0.5 * np.einsum("...a,...b,...lab->...l", a[1:-1], a[1:-1], dg)
    E += np.einsum("...ab,...b->...a", g[1:-1], potential.gradient(qs[1:-1]))
    D = np.einsum("...c,...lcij,...i,...j->...l", b[1:-1], dG, v[1:-1], v[1:-1])
    grad[1:-1] += w[1:-1, None] * (E + D)

    for k, sgn in ((0, 1), (N, -1)):
        grad[k + sgn] += 2.0 * w[k] * b[k] / h**2

    red = grad[2 : N - 1].copy()
    red[0] += 0.25 * grad[1]
    red[-1] += 0.25 * grad[N - 1]
    return red


def _banded_hessian(grad, u, n):
    """Centred-difference Hessian of grad at u, in lower banded storage.

    Free node k's gradient reads only nodes k-2..k+2, so columns whose
    nodes are five apart share no row (Curtis, Powell & Reid, 1974): one
    pair of gradient calls per colour (node mod 5, component) recovers all
    of their columns, 10 n calls for any grid.  Each row then takes its
    value from the one column of the colour within two nodes of it; a
    mask on the scalar band alone would keep entries that the other
    columns of the colour contaminate.  The result is symmetrized and
    returned as ab[d, j] = H[j + d, j] for d < 3 n, the layout of
    scipy.linalg.cholesky_banded(lower=True).
    """
    dim = len(u)
    idx = np.arange(dim)
    nodes, comps = idx // n, idx % n
    e = 1e-6 * (1.0 + np.abs(u))
    ab = np.zeros((3 * n, dim))
    for colour in range(5):
        col_node = nodes + (colour - nodes + 2) % 5 - 2
        ok = (col_node >= 0) & (col_node < dim // n)
        rows = idx[ok]
        for comp in range(n):
            step = np.where((nodes % 5 == colour) & (comps == comp), e, 0.0)
            diff = grad(u + step) - grad(u - step)
            cols = col_node[ok] * n + comp
            half = 0.5 * (diff[ok] / (2.0 * e[cols]))
            lo = rows >= cols
            ab[rows[lo] - cols[lo], cols[lo]] += half[lo]
            hi = rows <= cols
            ab[cols[hi] - rows[hi], rows[hi]] += half[hi]
    return ab


def _damped_newton(grad, u, n, gtol, assemblies=8, inner=12):
    """Drive the gradient to gtol with damped Newton steps on a banded Hessian.

    Function values are never compared: action decreases fall under the
    floating floor of the action value (about 1e-16 * |S|) while the
    gradient is still around 1e-4 on fine grids, but the analytic
    gradient stays accurate to ~1e-12, so a step is accepted only when it
    lowers sup|g|.  The Hessian comes from _banded_hessian; its columns
    must be centred, because the one-sided truncation error rivals the
    smallest Hessian eigenvalue on fine grids and fabricates
    indefiniteness.  A ridge shift on the band's diagonal guards
    genuinely indefinite Hessians away from the minimum, and each
    assembled Hessian is reused while it keeps making progress.  Banded
    Cholesky makes each solve O(N).  Returns the point, its gradient and
    the number of accepted steps.
    """
    g = grad(u)
    mu = 0.0
    steps = 0
    for _ in range(assemblies):
        sup = float(np.max(np.abs(g)))
        if sup <= gtol:
            break
        ab = _banded_hessian(grad, u, n)
        scale = float(np.mean(np.abs(ab[0]))) or 1.0
        improved = False
        for _ in range(inner):
            fac = None
            for _ in range(24):
                shifted = ab.copy()
                shifted[0] += mu * scale
                try:
                    fac = scipy.linalg.cholesky_banded(shifted, lower=True, check_finite=False)
                    break
                except (scipy.linalg.LinAlgError, ValueError):
                    mu = max(10.0 * mu, 1e-10)
            if fac is None:
                break
            trial = u - scipy.linalg.cho_solve_banded((fac, True), g, check_finite=False)
            gt = grad(trial)
            if not np.all(np.isfinite(gt)) or float(np.max(np.abs(gt))) >= sup:
                mu = max(10.0 * mu, 1e-10)
                if mu > 1e3:
                    break
                continue
            u, g = trial, gt
            sup = float(np.max(np.abs(g)))
            mu *= 0.25
            steps += 1
            improved = True
            if sup <= gtol:
                break
        if sup <= gtol or not improved:
            break
    return u, g, steps


def _descend(fun, u0, gtol, maxiter):
    """Monotone gradient descent with adaptive backtracking."""
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


def minimize_discrete(chart, potential, boundary: BoundaryData, N: int, seed: DiscretePath | None = None, method: str = "newton", gtol: float = 1e-7, maxiter: float = 1e5) -> DiscretePath:
    """Minimize the discrete action over interior nodes.

    Starts from the cubic Hermite interpolant of the boundary data on the
    N-segment grid unless a seed path is given.  The default "newton"
    method takes damped Newton steps on the banded finite-difference
    Hessian of the analytic gradient (see _damped_newton); "gd" is plain
    gradient descent on the action, the only method maxiter bounds.  Both
    stop at sup-norm gtol; failing to reach it raises with the best path
    attached.  iterations counts accepted Newton steps or descent
    iterations.
    """
    N = int(N)
    if N < 6:
        raise ValueError("need at least six segments to carry the end constraints")
    boundary.validate(chart)

    if seed is not None:
        u = seed.free_block().ravel()
    else:
        h = boundary.span / N
        s = (np.arange(2, N - 1) * h / boundary.span)[:, None]
        tau = boundary.span
        h00 = (1 + 2 * s) * (1 - s) ** 2
        h10 = s * (1 - s) ** 2
        h01 = s * s * (3 - 2 * s)
        h11 = s * s * (s - 1)
        u = (
            h00 * boundary.q_a
            + tau * h10 * boundary.v_a
            + h01 * boundary.q_b
            + tau * h11 * boundary.v_b
        ).ravel()

    if method == "newton":
        def grad(x):
            path = DiscretePath.from_free(boundary, N, x)
            return discrete_gradient(chart, potential, path).ravel()

        u, g, its = _damped_newton(grad, u, boundary.q_a.shape[-1], gtol)
    elif method == "gd":
        def fun(x):
            path = DiscretePath.from_free(boundary, N, x)
            return (
                discrete_action(chart, potential, path),
                discrete_gradient(chart, potential, path).ravel(),
            )

        u, _, g, its = _descend(fun, u, gtol, maxiter)
    else:
        raise ValueError(f"unknown method {method!r}")

    path = DiscretePath.from_free(boundary, N, u)
    path.action = discrete_action(chart, potential, path)
    path.grad_sup = sup = float(np.max(np.abs(g)))
    path.iterations = its
    if sup > gtol:
        raise NonconvergenceError(
            f"gradient sup-norm {sup:.2e} above {gtol:g} after {its} iterations",
            best=path,
        )
    return path


def compare_with_trajectory(chart, potential, path: DiscretePath, trajectory) -> dict:
    """Cross-method agreement between a discrete minimizer and a solved curve.

    The solved curve is sampled onto the path's grid and both actions are
    taken with the discrete functional there, so its O(h^2) discretization
    bias cancels from the gap and what remains measures how far apart the
    two methods actually landed.  The quadrature-grade action of the solved
    curve is reported alongside for reference.
    """
    ts = path.ts
    qs_ref = trajectory.interpolate(ts).q
    sampled = DiscretePath(ts.copy(), qs_ref, path.boundary)
    act_path = discrete_action(chart, potential, path)
    act_ref = discrete_action(chart, potential, sampled)
    return {
        "nodes": int(len(ts)),
        "sup_distance": float(np.max(np.abs(path.qs - qs_ref))),
        "action_discrete": float(act_path),
        "action_reference": float(act_ref),
        "action_gap": float(abs(act_path - act_ref)),
        "action_quadrature": float(dyn_action(chart, potential, trajectory)),
    }


def check_uniqueness_props(chart, potential, trajectory, rng_seed: int = 0) -> dict:
    """Probe restriction and jet-determinism properties of a solved curve.

    (a) Re-solves the boundary problem on random grid-aligned sub-windows
    and measures the sup distance to the stored restriction.  (b) Replays
    the curve from an interior 4-jet toward both ends; solutions are
    determined by any interior jet, forward and (with odd jets flipped)
    backward.  Solver failures mark the report inconclusive, not failed.
    """
    rng = np.random.default_rng(rng_seed)
    ts, qs = trajectory.ts, trajectory.qs
    N = trajectory.segments
    h = trajectory.h
    windows = []
    for _ in range(5):
        span = 2 * int(rng.integers(max(2, N // 16), max(3, N // 4)))
        i = int(rng.integers(0, N - span))
        windows.append((i, i + span))
    # even k keeps both replay windows on even segment counts, so the
    # integrator grid lands exactly on the stored nodes
    k = 2 * int(rng.integers(N // 6, N // 3))
    st = trajectory.state(k)
    rev = CurveState(0.0, st.q, -st.v, st.a, -st.j)

    # every sub-window solve and both replays march in lockstep: one flow
    # pass per Newton round, the replays riding in the first
    solves = [
        _solve(
            chart,
            BoundaryData(qs[i], trajectory.vs[i], qs[j], trajectory.vs[j], a=float(ts[i]), b=float(ts[j])),
            h=h,
        )
        for i, j in windows
    ]
    replays = [
        _integrate(chart, st, float(ts[-1] - ts[k]), h),
        _integrate(chart, rev, float(ts[k] - ts[0]), h),
    ]
    *outcomes, (fwd, ferr), (bwd, berr) = _lockstep(chart, potential, solves + replays)

    probes = []
    conclusive = True
    for (i, j), (res, err) in zip(windows, outcomes):
        entry = {"interval": [float(ts[i]), float(ts[j])]}
        if err is None:
            sup = float(np.max(np.abs(res.trajectory.qs - qs[i : j + 1])))
            entry.update(sup=sup, converged=True, ok=bool(sup <= 1e-6))
        else:
            entry.update(sup=None, converged=False, ok=None, error=str(err))
            conclusive = False
        probes.append(entry)

    for err in (ferr, berr):
        if err is not None:
            raise err
    fsup = float(np.max(np.abs(fwd.qs - qs[k:])))
    bsup = float(np.max(np.abs(bwd.qs - qs[k::-1])))

    ok_probes = [p["ok"] for p in probes if p["ok"] is not None]
    report = {
        "restriction_probes": probes,
        "restriction_pass": bool(ok_probes) and all(ok_probes),
        "jet_time": float(ts[k]),
        "jet_forward_sup": fsup,
        "jet_backward_sup": bsup,
        "jet_pass": bool(fsup <= 1e-7 and bsup <= 1e-7),
        "conclusive": conclusive,
    }
    report["pass"] = report["restriction_pass"] and report["jet_pass"]
    return report
