"""Direct minimization of a discretized action, independent of the solver.

The path variable is the interior position samples of a uniform grid;
velocity-matching at the ends is imposed by eliminating the first and last
interior nodes against second-order one-sided differences.  The action is
``dynamics._discrete_action``, which the finite-difference variations
difference too.  Minimization has one method, damped Newton steps on a
hand-derived analytic gradient of exactly this discrete functional; the
action couples nodes only within two of each other, so the
finite-difference Hessian of that gradient is banded, costs 5 gradient
calls to assemble (each on a stack of probes), and factors in O(N).

Deliberately nothing here touches the shooting machinery (of ``bvp`` only
``BoundaryData`` is read): agreement between the two routes is evidence,
disagreement is diagnosis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# solve_bvp and integrate_ivp stay module attributes: bench/layers.py
# traces them by name here.
from .bvp import BoundaryData, solve_bvp  # noqa: F401
from .dynamics import _discrete_action, _kinematics, _trapezoid, action as dyn_action, integrate_ivp  # noqa: F401
from .errors import NonconvergenceError

__all__ = [
    "DiscretePath",
    "discrete_action",
    "discrete_gradient",
    "minimize_discrete",
    "compare_with_trajectory",
]


@dataclass
class DiscretePath:
    """Uniform-grid position samples satisfying the boundary constraints."""

    ts: np.ndarray
    qs: np.ndarray
    boundary: BoundaryData
    # set by minimize_discrete: iterations counts its accepted Newton steps
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

        free holds nodes 2..N-2, flat or as (N-3, n) rows, or a stack
        (..., (N-3) n) of flat blocks for a stack of paths; nodes 1 and
        N-1 come from the eliminated end-velocity constraints, nodes 0
        and N are the boundary points.
        """
        N = int(N)
        h = boundary.span / N
        ts = boundary.a + h * np.arange(N + 1)
        n = boundary.q_a.shape[-1]
        free = np.asarray(free, float)
        lead = free.shape[:-1] if free.shape[-1] == (N - 3) * n else free.shape[:-2]
        qs = np.empty(lead + (N + 1, n))
        qs[..., 0, :] = boundary.q_a
        qs[..., -1, :] = boundary.q_b
        qs[..., 2 : N - 1, :] = free.reshape(lead + (N - 3, n))
        qs[..., 1, :] = (2.0 * h * boundary.v_a + 3.0 * qs[..., 0, :] + qs[..., 2, :]) / 4.0
        qs[..., N - 1, :] = (3.0 * qs[..., N, :] + qs[..., N - 2, :] - 2.0 * h * boundary.v_b) / 4.0
        return cls(ts, qs, boundary)

    def free_block(self):
        return self.qs[2 : self.segments - 1].copy()


def discrete_action(chart, potential, path: DiscretePath) -> float:
    chart.check_point(path.qs, "path node")
    bd = path.boundary
    return _discrete_action(chart, potential, path.h, path.qs, bd.v_a, bd.v_b)


def discrete_gradient(chart, potential, path: DiscretePath):
    """Analytic gradient of discrete_action in the free interior block.

    Assembled per node from the difference stencils: the metric pairing of
    the acceleration feeds three neighbors through the second difference,
    two through the velocity entering the quadratic connection term, and
    the node itself through the metric, connection, and potential
    derivatives, all read off one evaluation of the chart at the nodes.
    The eliminated nodes pass a quarter of their gradient to the adjacent
    free node.  On a flat chart (Gamma = 0, g = I) only the
    second-difference stencil and the potential gradient remain.

    On a curved chart every term is one of the record's contractions:
    a = c + Gamma(v, v) and b = g a, then b Gamma(., v), b Gamma(., a)
    and b dGamma(v, v), which the radial charts answer in closed form.
    The path's nodes may stack over leading axes, the node axis at -2;
    each path of a stack gets the bits it gets alone.
    """
    qs, h, bd = path.qs, path.h, path.boundary
    N = path.segments
    flat = chart.flat
    v, c = _kinematics(h, qs, bd.v_a, bd.v_b)
    if flat:
        b = c
    else:
        p = chart.at(qs, 2)
        a = c + p.gamma(v, v)
        b = p.lower(a)
    w = _trapezoid(N + 1, h)[:, None]

    grad = np.zeros_like(qs)
    wb = w[1:-1] * b[..., 1:-1, :] / h**2
    grad[..., 0:-2, :] += wb
    grad[..., 1:-1, :] -= 2.0 * wb
    grad[..., 2:, :] += wb
    if flat:
        grad[..., 1:-1, :] += w[1:-1] * potential.gradient(qs[..., 1:-1, :])
    else:
        wc = (w * p.gamma_adjoint(b, v))[..., 1:-1, :]
        grad[..., 2:, :] += wc / h
        grad[..., 0:-2, :] -= wc / h

        # a^a a^b d_l g_ab / 2 = b_m Gamma^m_la a^a, as d_l g_ab = Gamma^m_la g_mb + Gamma^m_lb g_am
        E = p.gamma_adjoint(b, a) + p.lower(potential.gradient(qs, p))
        grad[..., 1:-1, :] += (w * (E + p.dgamma_adjoint(b, v, v)))[..., 1:-1, :]

    for k, sgn in ((0, 1), (N, -1)):
        grad[..., k + sgn, :] += 2.0 * w[k] * b[..., k, :] / h**2

    red = grad[..., 2 : N - 1, :].copy()
    red[..., 0, :] += 0.25 * grad[..., 1, :]
    red[..., -1, :] += 0.25 * grad[..., N - 1, :]
    return red


def _banded_hessian(grad, u, n):
    """Centred-difference Hessian of grad at u, in lower banded storage.

    Free node k's gradient reads only nodes k-2..k+2, so columns whose
    nodes are five apart share no row (Curtis, Powell & Reid, 1974): one
    pair of probes per colour (node mod 5, component) recovers all of
    their columns.  grad takes a stack of points, and each colour's 2 n
    probes go in one call, 5 calls for any grid and any n.  Each row then
    takes its value from the one column of the colour within two nodes
    of it; a mask on the scalar band alone would keep entries that the
    other columns of the colour contaminate.  The result is symmetrized
    and returned as ab[d, j] = H[j + d, j] for d < 3 n, the layout of
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
        steps = np.where((nodes % 5 == colour) & (comps == np.arange(n)[:, None]), e, 0.0)
        probes = grad(np.concatenate([u + steps, u - steps]))
        for comp in range(n):
            diff = probes[comp] - probes[n + comp]
            cols = col_node[ok] * n + comp
            half = 0.5 * (diff[ok] / (2.0 * e[cols]))
            lo = rows >= cols
            ab[rows[lo] - cols[lo], cols[lo]] += half[lo]
            hi = rows <= cols
            ab[cols[hi] - rows[hi], rows[hi]] += half[hi]
    return ab


_ASSEMBLIES, _STEPS_PER_ASSEMBLY = 8, 12  # Hessians per solve, Newton trials per Hessian


def _damped_newton(grad, u, n, gtol):
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
    # imported here: scipy.linalg takes about 0.35 s to load, and only the
    # banded Cholesky below needs it, never plan or verify
    import scipy.linalg

    g = grad(u)
    mu = 0.0
    steps = 0
    for _ in range(_ASSEMBLIES):
        sup = float(np.max(np.abs(g)))
        if sup <= gtol:
            break
        ab = _banded_hessian(grad, u, n)
        scale = float(np.mean(np.abs(ab[0]))) or 1.0
        improved = False
        for _ in range(_STEPS_PER_ASSEMBLY):
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


def minimize_discrete(chart, potential, boundary: BoundaryData, N: int, seed: DiscretePath | None = None, gtol: float = 1e-7) -> DiscretePath:
    """Minimize the discrete action over interior nodes.

    Starts from the cubic Hermite interpolant of the boundary data on the
    N-segment grid unless a seed path is given, and takes damped Newton
    steps on the banded finite-difference Hessian of the analytic
    gradient (see _damped_newton) until the gradient's sup-norm is at
    most gtol.  Failing to reach it raises NonconvergenceError with the
    best path attached.  ``iterations`` counts accepted Newton steps.
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

    def grad(x):
        path = DiscretePath.from_free(boundary, N, x)
        return discrete_gradient(chart, potential, path).reshape(np.shape(x))

    u, g, its = _damped_newton(grad, u, boundary.q_a.shape[-1], gtol)

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


def compare_with_trajectory(path: DiscretePath, trajectory) -> dict:
    """Cross-method agreement between a discrete minimizer and a solved curve.

    The solved curve is sampled onto the path's grid and both actions are
    taken with the discrete functional there, so its O(h^2) discretization
    bias cancels from the gap and what remains measures how far apart the
    two methods actually landed.  The quadrature-grade action of the solved
    curve is reported alongside for reference.  The chart and potential
    are the trajectory's.
    """
    chart, potential = trajectory.chart, trajectory.potential
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
        "action_quadrature": float(dyn_action(trajectory)),
    }
