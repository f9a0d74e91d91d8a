"""Two-point boundary problems: the bi-exponential map and Newton shooting.

The bi-exponential map sends initial covariant acceleration and jerk (y, z)
to the endpoint position and velocity of the trajectory ODE started at
(p, v).  When its differential in (y, z) is invertible, prescribing both
endpoint positions and velocities is a well-posed local problem; the solver
is a damped Newton iteration on that map with a finite-difference Jacobian.

The Newton iteration runs on the discretized flow: residual, Jacobian and
the returned trajectory all share one RK4 grid, so convergence is
measured against the same curve the caller receives.  They also share one
flow pass: each line-search trial integrates the trial (y, z) together with
the 4n perturbations of its central-difference Jacobian, so on a given
grid a solve costs 1 + (line-search trials) passes and nothing is
re-integrated after it converges.

Unless the caller fixes the step, the grid is chosen by error control:
step doubling (Richardson's h^4 estimate) on the seed's endpoint and
Jacobian picks the step count for a relative error of 1e-9, and a miss
at the solution doubles the count and resumes Newton there.  Each pass
then carries its half-grid twin, the same rows on half the steps,
marched as a second row group of the same pass, so the estimate at the
solution costs no pass of its own.  That adds one pilot pass, and one
pass per doubling, to the count above.

A solve is a generator of shooting requests (``_solve``, with Newton in
``_newton``); ``_lockstep`` drives several of them together, marching
the pending requests of all of them as the row groups of one flow pass
per round.  ``solve_bvp`` drives one; the uniqueness probes in
``oracle`` drive their sub-window solves and jet replays at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

# _rk4_step and integrate_ivp stay module attributes: bench/layers.py traces
# them by name here.  The flow itself steps through dynamics._rk4_step (rk4.step).
from .dynamics import CurveState, Trajectory, _flow, _rk4_step, grid_steps, integrate_ivp, action  # noqa: F401
from .errors import (
    ChartEscapeError,
    CriticalPointError,
    NonconvergenceError,
    NumericalError,
    PlannerError,
)

__all__ = [
    "BoundaryData",
    "ShootingResult",
    "hermite_seed",
    "biexp",
    "biexp_jacobian",
    "solve_bvp",
    "continuation_sweep",
    "multi_seed_scan",
]


@dataclass
class BoundaryData:
    """Endpoint positions and velocities on an interval [a, b]."""

    q_a: np.ndarray
    v_a: np.ndarray
    q_b: np.ndarray
    v_b: np.ndarray
    a: float = 0.0
    b: float = 1.0

    def __post_init__(self):
        self.q_a = np.asarray(self.q_a, float)
        self.v_a = np.asarray(self.v_a, float)
        self.q_b = np.asarray(self.q_b, float)
        self.v_b = np.asarray(self.v_b, float)
        if not self.b > self.a:
            raise ValueError("boundary interval needs b > a")

    @property
    def span(self) -> float:
        return float(self.b - self.a)

    def validate(self, chart) -> None:
        chart.check_point(self.q_a, "start point")
        chart.check_point(self.q_b, "end point")


@dataclass
class ShootingResult:
    y: np.ndarray
    z: np.ndarray
    trajectory: Trajectory
    residual: float
    jacobian_condition: float
    iterations: int
    #: segments of the returned trajectory
    steps: int
    #: step-doubling estimate of the relative error at the returned (y, z),
    #: and the tolerance it was held to; both None on a grid the caller fixed
    estimate: float | None
    tol: float | None


def hermite_seed(boundary: BoundaryData) -> tuple[np.ndarray, np.ndarray]:
    """Initial (y, z) from the flat cubic interpolant in chart coordinates.

    Exact on Euclidean charts with V = 0; a serviceable starting point for
    short windows elsewhere.  Gamma and V are deliberately ignored.
    """
    tau = boundary.span
    dq = boundary.q_b - boundary.q_a
    c2 = (3.0 * dq - (2.0 * boundary.v_a + boundary.v_b) * tau) / tau**2
    c3 = (-2.0 * dq + (boundary.v_a + boundary.v_b) * tau) / tau**3
    return 2.0 * c2, 6.0 * c3


def _fd_rows(y, z):
    """Perturbation bundle for the central-difference Jacobian in (y, z).

    Row layout: (y+he_1, y-he_1, ..., z+he_n, z-he_n); one shared step per
    the documented 1e-5 relative rule.
    """
    n = y.size
    step = 1e-5 * (1.0 + float(np.linalg.norm(np.concatenate([y, z]))))
    ys = np.tile(y, (4 * n, 1))
    zs = np.tile(z, (4 * n, 1))
    for i in range(n):
        ys[2 * i, i] += step
        ys[2 * i + 1, i] -= step
        zs[2 * n + 2 * i, i] += step
        zs[2 * n + 2 * i + 1, i] -= step
    return ys, zs, step


@dataclass
class _Shot:
    """One flow pass at a trial (y, z): its endpoint, its curve, its Jacobian."""

    end: np.ndarray
    trajectory: Trajectory
    _jacobian: np.ndarray | None
    _failure: Exception | None
    #: the same (y, z) on half the steps, or that pass's failure
    _twin: "_Shot | Exception | None" = None

    def jacobian(self) -> np.ndarray:
        """d(q(t), qdot(t)) / d(y, z); raises the perturbation bundle's failure."""
        if self._failure is not None:
            raise self._failure
        return self._jacobian

    def twin(self) -> "_Shot":
        """The half-grid twin's shot; raises its trial's failure."""
        if isinstance(self._twin, Exception):
            raise self._twin
        return self._twin


class _Request:
    """One shooting pass: the row groups ``_flow`` marches for it, and the
    ``_Shot`` made of their results.

    The trial (y, z) from (p, v) over [t0, t0 + t] on ``steps`` steps is
    row 0 and is stored at every node; with ``fd`` the 4n rows of its
    ``_fd_rows`` bundle follow.  With ``twin`` the same rows march again
    on steps / 2 at twice the step, as a second group, for the
    step-doubling estimate.
    """

    def __init__(self, p, v, y, z, t, steps, t0=0.0, fd=True, twin=False):
        y = np.asarray(y, float)
        z = np.asarray(z, float)
        n = y.size
        ys, zs, self.step = _fd_rows(y, z) if fd else (np.empty((0, n)), np.empty((0, n)), None)
        u = np.empty((1 + len(ys), 4, n))
        u[:, 0] = p
        u[:, 1] = v
        u[0, 2], u[0, 3] = y, z
        u[1:, 2], u[1:, 3] = ys, zs
        self.groups = [(u, t0, t / steps, steps)]
        if twin:
            self.groups.append((u, t0, t / (steps // 2), steps // 2))

    def finish(self, flows) -> _Shot:
        """The shot from the ``_flow`` results of ``groups``.

        A failure of the trial raises, exactly as a flow of the trial alone
        would.  A perturbation row that goes nonfinite or leaves the chart
        only drops the bundle: its error is kept and raised by
        ``_Shot.jacobian``, so it surfaces only if the caller uses this
        trial's Jacobian.  The twin's failures are kept the same way, for
        ``_Shot.twin``.
        """
        shot = self._shot(*flows[0])
        if len(flows) > 1:
            try:
                shot._twin = self._shot(*flows[1])
            except (ChartEscapeError, NumericalError) as err:
                shot._twin = err
        return shot

    def _shot(self, trajectory, u, failure) -> _Shot:
        if trajectory is None:
            raise failure
        end = np.concatenate([u[0, 0], u[0, 1]])
        jac = None
        if self.step is not None and failure is None:
            vals = np.concatenate([u[1:, 0], u[1:, 1]], axis=1)  # rows: perturbations
            jac = ((vals[0::2] - vals[1::2]) / (2.0 * self.step)).T
        return _Shot(end, trajectory, jac, failure)


def _shoot(chart, potential, p, v, y, z, t, steps, t0=0.0, fd=True) -> _Shot:
    """Integrate the trial (y, z) and, with ``fd``, its ``_fd_rows`` bundle,
    in one pass (see ``_Request``)."""
    req = _Request(p, v, y, z, t, steps, t0, fd)
    return req.finish(_flow(chart, potential, req.groups))


def _lockstep(chart, potential, problems):
    """Drive shooting generators together, one ``_flow`` pass per round.

    Each generator yields a ``_Request`` and is sent its ``_Shot``, or has
    the trial's ChartEscapeError or NumericalError thrown in.  Each round
    marches the pending requests of all live generators as the row groups
    of one pass.  Returns one (value, error) per generator: what it
    returned, or the PlannerError it raised.
    """
    out = [None] * len(problems)
    pending = {}

    def advance(i, resume, *arg):
        try:
            pending[i] = resume(*arg)
        except StopIteration as stop:
            out[i] = (stop.value, None)
        except PlannerError as err:
            out[i] = (None, err)

    for i, gen in enumerate(problems):
        advance(i, gen.send, None)
    while pending:
        batch, pending = pending, {}
        flows = iter(_flow(chart, potential, [g for req in batch.values() for g in req.groups]))
        for i, req in batch.items():
            results = [next(flows) for _ in req.groups]
            try:
                shot = req.finish(results)
            except (ChartEscapeError, NumericalError) as err:
                advance(i, problems[i].throw, err)
            else:
                advance(i, problems[i].send, shot)
    return out


def biexp(chart, potential, p, v, y, z, t, h=None):
    """(q(t), qdot(t)) for the trajectory started at the 4-jet (p, v, y, z)."""
    steps, _ = grid_steps(t, h)
    q, qd = np.split(_shoot(chart, potential, p, v, y, z, t, steps, fd=False).end, 2)
    return q, qd


def biexp_jacobian(chart, potential, p, v, y, z, t, h=None):
    """d(q(t), qdot(t)) / d(y, z) by central finite differences.

    Columns ordered (y_1..y_n, z_1..z_n); row blocks (q; qdot).
    """
    steps, _ = grid_steps(t, h)
    return _shoot(chart, potential, p, v, y, z, t, steps).jacobian()


# Default shooting grid.  The seed is shot at twice _PILOT_STEPS, with its
# twin at _PILOT_STEPS; the step count is then chosen so the step-doubling
# estimate of the relative error of the endpoint and Jacobian meets
# _STEP_TOL, never below the pilot grid, and doubled while the estimate at
# the solution misses it, up to _MAX_STEPS.
_STEP_TOL = 1e-9
_PILOT_STEPS = 32
_MAX_STEPS = 1 << 16


def _predict_steps(steps, estimate):
    """Even step count at which the h^4 law puts an error ``estimate`` made
    on ``steps`` steps at half of _STEP_TOL.

    The factor 2 covers the error's pre-asymptotic fall, slower than h^4
    on coarse grids, so the prediction rarely needs a doubling.
    """
    return 2 * math.ceil(0.5 * steps * (2.0 * estimate / _STEP_TOL) ** 0.25)


def _richardson(fine: _Shot, coarse: _Shot) -> float:
    """Step-doubling estimate of the relative error of ``fine``.

    ``coarse`` is the same (y, z) shot on half the steps.  RK4 errors fall
    as h^4, so the error of the fine shot is about |fine - coarse| / 15
    (Hairer, Norsett & Wanner, Solving ODEs I, II.4).  Both the endpoint
    and the finite-difference Jacobian count: a curve at rest has an exact
    endpoint on any grid while its Jacobian still carries the step error.
    """
    e = np.linalg.norm(fine.end - coarse.end) / (1.0 + np.linalg.norm(fine.end))
    J = fine.jacobian()
    dj = np.linalg.norm(J - coarse.jacobian()) / np.linalg.norm(J)
    return float(max(e, dj) / 15.0)


def _newton(shoot, shot, y, z, target, tol, max_iter):
    """Damped Newton on the endpoint map from (y, z), whose pass is ``shot``.

    A generator: it yields ``shoot(y, z)``, the ``_Request`` of each
    line-search trial on the solve's grid, and is sent the trial's
    ``_Shot``, or has its chart escape or nonfinite state thrown in, which
    halves the step.  Returns (y, z, shot, residual, iterations) at the
    accepted iterate.
    """
    n = y.size
    r = shot.end - target
    rn = float(np.linalg.norm(r))
    best = (rn, y.copy(), z.copy())
    iterations = 0
    for _ in range(max_iter):
        if rn <= tol:
            break
        J = shot.jacobian()
        sv = np.linalg.svd(J, compute_uv=False)
        if sv[-1] < 1e-12 * sv[0]:
            raise CriticalPointError(
                "bi-exponential differential is singular at the current iterate; "
                "the endpoint may be close to biconjugate"
            )
        dyz = np.linalg.solve(J, -r)
        t_step = 1.0
        for _ in range(20):
            y_try = y + t_step * dyz[:n]
            z_try = z + t_step * dyz[n:]
            try:
                trial = yield shoot(y_try, z_try)
            except (ChartEscapeError, NumericalError):
                t_step *= 0.5
                continue
            r_new = trial.end - target
            rn_new = float(np.linalg.norm(r_new))
            if rn_new < rn:
                break
            t_step *= 0.5
        else:
            raise NonconvergenceError(
                "shooting line search stalled",
                best={"y": best[1], "z": best[2], "residual": best[0]},
            )
        y, z, shot, r, rn = y_try, z_try, trial, r_new, rn_new
        iterations += 1
        if rn < best[0]:
            best = (rn, y.copy(), z.copy())
    else:
        raise NonconvergenceError(
            f"shooting did not converge in {max_iter} iterations "
            f"(best residual {best[0]:.3e})",
            best={"y": best[1], "z": best[2], "residual": best[0]},
        )
    return y, z, shot, rn, iterations


def solve_bvp(chart, potential, boundary: BoundaryData, seed=None, h=None, max_iter: int = 50) -> ShootingResult:
    """Damped Newton shooting for the endpoint position/velocity problem.

    The residual stacks the chart-coordinate position mismatch over the
    velocity mismatch.  Globalization is backtracking on the residual
    norm (factor 0.5, at most 20 halvings); a trial that escapes the chart
    only rejects that trial.  Nonconvergence carries the best iterate;
    a singular Jacobian raises CriticalPointError since it is exactly the
    degeneracy that signals possible biconjugacy.

    An explicit ``h`` fixes the grid (``grid_steps``).  With ``h`` None
    the step count is chosen by error control.  Every pass then carries
    its half-grid twin: the same (y, z) on half the steps, marched as a
    second row group of the same pass.  The seed is shot at
    2 * _PILOT_STEPS steps, with its twin at _PILOT_STEPS; the
    step-doubling estimate of the endpoint and Jacobian error
    (``_richardson``) predicts by the h^4 law an even count N that meets
    ``_STEP_TOL`` (``_predict_steps``, at least 2 * _PILOT_STEPS), and
    Newton runs at N.  The estimate at the converged (y, z) is read off
    its pass's twin; above the tolerance, N doubles and Newton resumes
    from there.  ``max_iter`` bounds each Newton run.  The result records
    N, that estimate and the tolerance; the estimate exceeds the
    tolerance only when N would double past ``_MAX_STEPS``.

    Each trial is one pass that also yields the Jacobian and the
    trajectory there, so on a fixed grid a solve makes 1 + (accepted
    trials) + (rejected trials) flow passes: the seed's, then one per
    line-search trial.  Error control adds the pilot pass (which doubles
    as the seed's pass when N = 2 * _PILOT_STEPS) and, on each doubling,
    the seed's pass on the new grid; no pass is made on N/2 alone.
    """
    [(result, error)] = _lockstep(chart, potential, [_solve(chart, boundary, seed, h, max_iter)])
    if error is not None:
        raise error
    return result


def _solve(chart, boundary: BoundaryData, seed=None, h=None, max_iter: int = 50):
    """``solve_bvp`` as a generator of shooting requests, for ``_lockstep``."""
    boundary.validate(chart)
    tau = boundary.span
    target = np.concatenate([boundary.q_b, boundary.v_b])
    tol = 1e-8 * (1.0 + float(np.linalg.norm(target)))

    if seed is None:
        y, z = hermite_seed(boundary)
    else:
        y = np.asarray(seed[0], float).copy()
        z = np.asarray(seed[1], float).copy()

    def shoot(steps, yy, zz):
        return _Request(boundary.q_a, boundary.v_a, yy, zz, tau, steps, boundary.a, twin=h is None)

    def newton(steps, shot, yy, zz):
        return _newton(partial(shoot, steps), shot, yy, zz, target, tol, max_iter)

    if h is not None:
        steps, _ = grid_steps(tau, h)
        shot = yield shoot(steps, y, z)
        y, z, shot, rn, iterations = yield from newton(steps, shot, y, z)
        estimate = step_tol = None
    else:
        step_tol = _STEP_TOL
        steps = 2 * _PILOT_STEPS
        shot = yield shoot(steps, y, z)
        estimate = _richardson(shot, shot.twin())
        steps = min(max(steps, _predict_steps(steps, estimate)), _MAX_STEPS)
        iterations = 0
        while True:
            if shot.trajectory.segments != steps:
                shot = yield shoot(steps, y, z)
            y, z, shot, rn, its = yield from newton(steps, shot, y, z)
            iterations += its
            estimate = _richardson(shot, shot.twin())
            if estimate <= step_tol or 2 * steps > _MAX_STEPS:
                break
            steps *= 2

    sv = np.linalg.svd(shot.jacobian(), compute_uv=False)
    cond = float(sv[0] / sv[-1]) if sv[-1] > 0 else np.inf
    return ShootingResult(y, z, shot.trajectory, rn, cond, iterations, steps, estimate, step_tol)


def _integrate(chart, initial: CurveState, T: float, h=None):
    """``integrate_ivp`` as a one-request generator, for ``_lockstep``."""
    steps, _ = grid_steps(T, h)
    chart.check_point(initial.q, "initial point")
    req = _Request(initial.q, initial.v, initial.a, initial.j, T, steps, float(initial.t), fd=False)
    return (yield req).trajectory


def continuation_sweep(chart, family, boundary: BoundaryData, lams, h=None):
    """Solve along a potential homotopy, warm-starting each stage.

    ``family`` maps a scale value to a Potential; the grid must start at 0
    so the first stage has the reliable flat-seeded V = 0 problem.  Solver
    errors propagate annotated with the failing scale value.
    """
    lams = [float(l) for l in lams]
    if not lams or lams[0] != 0.0:
        raise ValueError("continuation grid must start at 0")
    out = []
    seed = None
    for lam in lams:
        try:
            res = solve_bvp(chart, family(lam), boundary, seed=seed, h=h)
        except PlannerError as exc:
            exc.sweep_lambda = lam
            raise
        out.append(res)
        seed = (res.y, res.z)
    return out


def multi_seed_scan(chart, potential, boundary: BoundaryData, n_seeds: int = 10, rng_seed: int = 0, spread: float = 1.0, h=None):
    """Probe for distinct solutions from scattered seeds; rank by action.

    Seeds are the flat cubic guess plus Gaussian perturbations.  Convergent
    results are deduplicated on (y, z) rounded to 1e-5 granularity and
    returned sorted by increasing action.
    """
    y0, z0 = hermite_seed(boundary)
    scale = spread * (1.0 + float(np.linalg.norm(np.concatenate([y0, z0]))))
    rng = np.random.default_rng(rng_seed)
    seeds = [(y0, z0)]
    for _ in range(max(0, n_seeds - 1)):
        dy, dz = rng.normal(size=(2, chart.dim)) * scale
        seeds.append((y0 + dy, z0 + dz))
    found = {}
    for s in seeds:
        try:
            res = solve_bvp(chart, potential, boundary, seed=s, h=h)
        except PlannerError:
            continue
        key = tuple(
            np.round(np.concatenate([res.y, res.z]) / 1e-5).astype(np.int64).tolist()
        )
        if key not in found:
            found[key] = res
    ranked = [found[k] for k in sorted(found)]
    ranked.sort(key=lambda r: action(chart, potential, r.trajectory))
    return ranked
