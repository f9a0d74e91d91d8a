"""Two-point boundary problems: the bi-exponential map and Newton shooting.

The bi-exponential map sends initial covariant acceleration and jerk (y, z)
to the endpoint position and velocity of the trajectory ODE started at
(p, v).  When its differential in (y, z) is invertible, prescribing both
endpoint positions and velocities is a well-posed local problem; the solver
is a damped Newton iteration on that map.

The differential is the bundle of Jacobi fields vanishing to first order
at the start, read at the end: the bundle whose rank drops the biconjugate
scan looks for (``jacobi.shooting_jacobian``), so a singular shooting
Jacobian and a biconjugate endpoint are one test.  Residual, Jacobian and
returned trajectory all come from one RK4 pass of the trial (y, z), so
convergence is measured against the curve the caller receives; on each
grid a solve costs one pass for its start and one per line-search trial,
and only accepted iterates march their field bundle.

Newton is mesh-sequenced (Ascher, Mattheij & Russell, Numerical
Solution of Boundary Value Problems for ODEs, 1995): it converges on
a coarse grid first, then finishes on the solve's own grid, where one or
two iterations usually remain.  A coarse stage that fails leaves the
solve on the fine grid from the seed, as if it had not run.

Unless the caller fixes the step, two grids are chosen by error
control, each by step doubling (Richardson's h^4 estimate) against one
relative tolerance of 1e-9.  The curve's grid N answers only for the
curve: its estimate takes the endpoint and the Jacobian's dependence on
the curve, the N-curve and its N/2 twin marching their fields on one
common field grid so that the fields' own error cancels.  The field
bundle, a linear ODE marched as matrix products, gets a grid of its own
(``field_grid``): M = r N steps, r chosen by the bundle's estimate on
the N-curve, M against M/2.  The curve's estimate at the solution on
the pilot grid picks N, and a miss at the final solution doubles N and
resumes Newton there.  Each pass carries its half-grid twin, the same (y, z) on
half the steps, marched as a second row of the same pass, so no
estimate costs a pass of its own.  Newton linearizes each iterate on
its own curve's grid; only the result's curve gets its field grid.

A solve is a generator of shooting requests (``_solve``, with Newton in
``_newton``); ``_lockstep`` drives several of them together, marching
the pending requests of all of them as the rows of one flow pass per
round.  ``solve_bvp`` drives one, and the uniqueness probes
(``check_uniqueness_props``) their sub-window solves and replays at once.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from functools import cached_property, partial

import numpy as np

# _rk4_step and integrate_ivp stay module attributes: bench/layers.py traces
# them by name here.  The flow itself steps through dynamics._rk4_step (rk4.step).
from .dynamics import CurveState, Trajectory, _flow, _ivp_row, _rk4_step, grid_steps, integrate_ivp, action  # noqa: F401
from .errors import (
    ChartEscapeError,
    CriticalPointError,
    NonconvergenceError,
    NumericalError,
    PlannerError,
    ResolutionWarning,
)
from .jacobi import _field_jacobians, shooting_jacobian

__all__ = [
    "BoundaryData",
    "ShootingResult",
    "hermite_seed",
    "solve_bvp",
    "field_grid",
    "check_uniqueness_props",
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
    #: Newton iterations, the coarse stage's included
    iterations: int
    #: of those, the iterations on the coarse grid (0 when it did not run
    #: or failed)
    coarse_iterations: int
    #: segments of the returned trajectory
    steps: int
    #: step-doubling estimates of the relative error at the returned (y, z):
    #: of the curve on its ``steps`` (``_richardson``) and of the Jacobian on
    #: the field grid (``field_grid``), and the tolerance both were held to;
    #: all None on a grid the caller fixed
    estimate: float | None
    field_estimate: float | None
    tol: float | None
    #: messages of the ResolutionWarnings the solve issues: an estimate
    #: above ``tol``, where error control stopped at _MAX_STEPS
    warnings: list

    @property
    def field_steps(self) -> int:
        """Steps of the returned trajectory's field grid."""
        return self.trajectory.field_steps

    @property
    def jacobian_condition(self) -> float:
        """sigma_max / sigma_min of the Jacobian at the returned (y, z) on
        the field grid, built on first use: the uniqueness probes never
        read it."""
        sv = np.linalg.svd(shooting_jacobian(self.trajectory)[0], compute_uv=False)
        return float(sv[0] / sv[-1]) if sv[-1] > 0 else np.inf


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


@dataclass
class _Shot:
    """One flow pass at a trial (y, z): its curve, endpoint and Jacobian."""

    trajectory: Trajectory
    #: the same (y, z) on half the steps, or that pass's failure
    _twin: "_Shot | Exception | None" = None

    @property
    def end(self) -> np.ndarray:
        return np.concatenate([self.trajectory.qs[-1], self.trajectory.vs[-1]])

    @cached_property
    def linearization(self):
        """(Jacobian, whether the scan's rank test flags the endpoint),
        off the curve's Jacobi field bundle (``shooting_jacobian``)."""
        return shooting_jacobian(self.trajectory)

    def twin(self) -> "_Shot":
        """The half-grid twin's shot; raises its trial's failure."""
        if isinstance(self._twin, Exception):
            raise self._twin
        return self._twin

    @cached_property
    def fields(self) -> tuple[Trajectory, float]:
        """This curve on its error-controlled field grid, and that grid's
        estimate (``field_grid``)."""
        return field_grid(self.trajectory)

    @cached_property
    def estimate(self) -> float:
        """The curve's step-doubling estimate against its twin (``_richardson``)."""
        return _richardson(self, self.twin())


class _Request:
    """One shooting pass: the rows ``_flow`` marches for it, and the
    ``_Shot`` made of their results.

    ``row`` is one curve, (u, t0, h, steps) as ``_flow`` takes it, stored
    at every node.  With ``twin`` the same jets march again on steps / 2
    at twice the step, for the step-doubling estimate; ``steps`` is then
    even, so the twin spans the same window.
    """

    def __init__(self, row, twin=False):
        self.rows = [row]
        if twin:
            u, t0, h, steps = row
            self.rows.append((u, t0, 2.0 * h, steps // 2))

    def finish(self, flows) -> _Shot:
        """The shot from the ``_flow`` results of ``rows``.

        A failure of the trial raises, exactly as a flow of the trial alone
        would.  The twin's failure is kept for ``_Shot.twin``.
        """
        (trajectory, failure), *twin = flows
        if failure is not None:
            raise failure
        shot = _Shot(trajectory)
        if twin:
            [(trajectory, failure)] = twin
            shot._twin = _Shot(trajectory) if failure is None else failure
        return shot


def _lockstep(chart, potential, problems):
    """Drive shooting generators together, one ``_flow`` pass per round.

    Each generator yields a ``_Request`` and is sent its ``_Shot``, or has
    the trial's ChartEscapeError or NumericalError thrown in.  Each round
    marches the pending requests of all live generators as the rows of
    one pass.  Returns one (value, error) per generator: what it
    returned, or the PlannerError it raised.  A PlannerError that ends a
    whole pass, not one row of it (a potential that cannot be evaluated
    at some row's state), is charged to the generators whose requests
    raise it when marched alone, as if each were driven by itself.
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
        try:
            flows = iter(_flow(chart, potential, [r for req in batch.values() for r in req.rows]))
            marched = {i: [next(flows) for _ in req.rows] for i, req in batch.items()}
        except PlannerError:
            marched = {}
            for i, req in batch.items():
                try:
                    marched[i] = _flow(chart, potential, req.rows)
                except PlannerError as err:
                    problems[i].close()
                    out[i] = (None, err)
        for i, results in marched.items():
            try:
                shot = batch[i].finish(results)
            except (ChartEscapeError, NumericalError) as err:
                advance(i, problems[i].throw, err)
            else:
                advance(i, problems[i].send, shot)
    return out


# bench/layers.py times the Jacobian under this name; no program path calls
# it, and it is in no __all__.  Shooting reads the same bits off its pass.
def biexp_jacobian(chart, potential, p, v, y, z, t, h=None):
    return shooting_jacobian(integrate_ivp(chart, potential, CurveState(0.0, p, v, y, z), t, h))[0]


# Default shooting grid.  The seed is shot at twice _PILOT_STEPS, with its
# twin at _PILOT_STEPS; the step count is then chosen so the step-doubling
# estimate of the curve's relative error meets _STEP_TOL, never below the
# pilot grid, and doubled while the estimate at the solution misses it, up
# to _MAX_STEPS.  The field grid meets the same tolerance, with at most
# _MAX_STEPS steps.
_STEP_TOL = 1e-9
_PILOT_STEPS = 32
_MAX_STEPS = 1 << 16

# What ends a coarse Newton stage and sends the solve on from its seed:
# Newton's own failures, and a coarse pass that could not be marched.
_COARSE_FAILURES = (NonconvergenceError, CriticalPointError, ChartEscapeError, NumericalError)


def _predict_steps(steps, estimate):
    """Even step count at which the h^4 law puts an error ``estimate`` made
    on ``steps`` steps at half of _STEP_TOL.

    The factor 2 covers the error's pre-asymptotic fall, slower than h^4
    on coarse grids, so the prediction rarely needs a doubling.
    """
    return 2 * math.ceil(0.5 * steps * (2.0 * estimate / _STEP_TOL) ** 0.25)


def _richardson(fine: _Shot, coarse: _Shot) -> float:
    """Step-doubling estimate of the relative error of the curve of ``fine``.

    ``coarse`` is the same (y, z) shot on half the steps.  RK4 errors fall
    as h^4, so the error of the fine shot is about |fine - coarse| / 15
    (Hairer, Norsett & Wanner, Solving ODEs I, II.4).  Both the endpoint
    and the Jacobian count, the Jacobian only through the curve it is
    marched along: both shots' bundles march on the fine curve's field
    grid (``_Shot.fields``), the same M steps, so the field grid's own
    error cancels in the difference.  A curve at rest has an exact
    endpoint and an exact Jacobian coefficient on any grid: its estimate
    is 0, whatever its fields need.
    """
    traj, _ = fine.fields
    e = np.linalg.norm(fine.end - coarse.end) / (1.0 + np.linalg.norm(fine.end))
    J = shooting_jacobian(traj)[0]
    twin = replace(coarse.trajectory, field_refinement=traj.field_steps // coarse.trajectory.segments)
    dj = np.linalg.norm(J - shooting_jacobian(twin)[0]) / np.linalg.norm(J)
    return float(max(e, dj) / 15.0)


def field_grid(trajectory: Trajectory) -> tuple[Trajectory, float]:
    """The trajectory on its error-controlled field grid, and that grid's estimate.

    The step-doubling estimate of the Jacobian's relative error on
    M = r N field steps compares the march on M steps with the one on M/2
    steps of the same operator table (``jacobi._field_jacobians``):
    |J_M - J_{M/2}| / |J_M| / 15.  From r = 1, a miss predicts r by the
    h^4 law (``_predict_steps``), then doubles it while the estimate
    misses _STEP_TOL, up to _MAX_STEPS field steps.  The rule reads the
    curve's nodes alone, so a trajectory read back from its CSV gets the
    field grid its solve chose.  Returns a copy of the trajectory with
    that ``field_refinement``, its table built.
    """
    N = trajectory.segments
    r_max = max(1, _MAX_STEPS // N)

    def estimate(r):
        traj = trajectory if r == trajectory.field_refinement else replace(trajectory, field_refinement=r)
        J, J_half = _field_jacobians(traj)
        return traj, float(np.linalg.norm(J - J_half) / np.linalg.norm(J) / 15.0)

    traj, est = estimate(1)
    if est > _STEP_TOL and r_max > 1:
        r = min(max(2, math.ceil(_predict_steps(N, est) / N)), r_max)
        traj, est = estimate(r)
        while est > _STEP_TOL and 2 * r <= r_max:
            r *= 2
            traj, est = estimate(r)
    return traj, est


def _linearize(shot: _Shot) -> np.ndarray:
    """The Jacobian of ``shot``; raises CriticalPointError when the scan's
    rank test flags its end as biconjugate."""
    J, biconjugate = shot.linearization
    if biconjugate:
        raise CriticalPointError(
            "bi-exponential differential is singular at the current iterate; "
            "the endpoint may be close to biconjugate"
        )
    return J


def _newton(shoot, shot, y, z, target, tol, max_iter):
    """Damped Newton on the endpoint map from (y, z), whose pass is ``shot``.

    A generator: it yields ``shoot(y, z)``, the ``_Request`` of each
    line-search trial on its grid, and is sent the trial's
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
        dyz = np.linalg.solve(_linearize(shot), -r)
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
    only rejects that trial.  Nonconvergence carries the best iterate.
    The Jacobian is the Jacobi field bundle of the iterate's curve read at
    the end (``jacobi.shooting_jacobian``); when the scan's rank test,
    normalized for the window length, flags that end as biconjugate,
    Newton raises CriticalPointError.

    Newton is mesh-sequenced: it converges on a coarse grid, held to the
    full tolerance, and then finishes on the solve's grid N.  If the
    coarse stage fails (Newton stalls or meets a critical point there, or
    a coarse pass cannot be marched), Newton runs on N from the seed as
    if that stage had not been tried.  ``max_iter`` bounds each Newton
    run; ``iterations`` counts them all and ``coarse_iterations`` the
    coarse stage's share.

    An explicit ``h`` fixes N (``grid_steps``).  The seed is shot and
    judged on N: a seed that already meets the tolerance returns, and one
    the rank test flags raises CriticalPointError, since the coarse grid
    cannot resolve that test near a biconjugate end.  When
    N > 2 * _PILOT_STEPS the coarse grid is _PILOT_STEPS steps; on
    smaller N there is no coarse stage.

    With ``h`` None the step count is chosen by error control.  Every
    pass then carries its half-grid twin: the same (y, z) on half the
    steps, marched as a second row of the same pass.  The coarse grid is
    the pilot grid, 2 * _PILOT_STEPS steps with its twin at
    _PILOT_STEPS.  The step-doubling estimate of the curve's error at the
    coarse solution (``_richardson``; at the seed if the coarse stage
    failed) predicts by the h^4 law an even count N that meets
    ``_STEP_TOL`` (``_predict_steps``, at least 2 * _PILOT_STEPS).  The
    estimate at the converged (y, z) is read off its pass's twin; above
    the tolerance, N doubles and Newton resumes from there.  The
    returned trajectory carries its field grid (``field_grid``), chosen
    for the same tolerance, and the field bundle behind the estimate and
    ``jacobian_condition`` marches on it.  The result records N, both
    estimates and the tolerance; the curve's estimate exceeds the
    tolerance only when N would double past ``_MAX_STEPS``, the field
    grid's only past ``_MAX_STEPS`` field steps, and either miss issues a
    ResolutionWarning, whose message the result's ``warnings`` keeps.
    With a fixed step the field grid is the curve's own.

    Each trial is one pass that yields the residual and the trajectory
    there, whose field bundle gives the Jacobian when the trial is
    accepted.  So each Newton run makes 1 + (accepted trials) +
    (rejected trials) flow passes on its grid: its start's, then one
    per line-search trial.  A fixed-step solve adds the seed's pass on N
    before its coarse stage; under error control the pilot pass is the
    coarse run's start and is reused on N = 2 * _PILOT_STEPS, each
    doubling adds one start pass on the new grid, and no pass is made on
    N/2 alone.
    """
    [(result, error)] = _lockstep(chart, potential, [_solve(chart, boundary, seed, h, max_iter)])
    if error is not None:
        raise error
    for message in result.warnings:
        warnings.warn(message, ResolutionWarning, stacklevel=2)
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
        u = np.array([boundary.q_a, boundary.v_a, yy, zz], float)
        return _Request((u, boundary.a, tau / steps, steps), twin=h is None)

    def newton(steps, shot, yy, zz):
        return _newton(partial(shoot, steps), shot, yy, zz, target, tol, max_iter)

    coarse_its = 0
    if h is not None:
        steps, _ = grid_steps(tau, h)
        shot = yield shoot(steps, y, z)
        # the seed is judged on the solve's grid, whose rank test the
        # coarse grid cannot resolve near a biconjugate end
        if steps > 2 * _PILOT_STEPS and np.linalg.norm(shot.end - target) > tol:
            _linearize(shot)
            try:
                coarse = yield shoot(_PILOT_STEPS, y, z)
                y, z, _, _, coarse_its = yield from newton(_PILOT_STEPS, coarse, y, z)
            except _COARSE_FAILURES:
                pass
            else:
                shot = yield shoot(steps, y, z)
        y, z, shot, rn, iterations = yield from newton(steps, shot, y, z)
        trajectory = shot.trajectory
        estimate = field_estimate = step_tol = None
        missed = []
    else:
        step_tol = _STEP_TOL
        steps = 2 * _PILOT_STEPS
        shot = yield shoot(steps, y, z)
        try:
            y_c, z_c, coarse, _, its = yield from newton(steps, shot, y, z)
            estimate = coarse.estimate
        except _COARSE_FAILURES:
            estimate = shot.estimate
        else:
            y, z, shot, coarse_its = y_c, z_c, coarse, its
        steps = min(max(steps, _predict_steps(steps, estimate)), _MAX_STEPS)
        iterations = 0
        while True:
            if shot.trajectory.segments != steps:
                shot = yield shoot(steps, y, z)
            y, z, shot, rn, its = yield from newton(steps, shot, y, z)
            iterations += its
            estimate = shot.estimate
            if estimate <= step_tol or 2 * steps > _MAX_STEPS:
                break
            steps *= 2
        trajectory, field_estimate = shot.fields
        missed = [
            f"the {what} estimate {est:.2e} misses the tolerance {step_tol:.0e} on {M} {grid}, "
            f"the most error control takes"
            for what, est, M, grid in (
                ("curve's", estimate, steps, "steps"),
                ("Jacobian's", field_estimate, trajectory.field_steps, "field steps"),
            )
            if est > step_tol
        ]

    return ShootingResult(
        y, z, trajectory, rn, coarse_its + iterations, coarse_its, steps, estimate, field_estimate, step_tol, missed
    )


def _integrate(chart, initial: CurveState, T: float, h=None):
    """``integrate_ivp`` as a one-request generator, for ``_lockstep``."""
    return (yield _Request(_ivp_row(chart, initial, T, h))).trajectory


def check_uniqueness_props(trajectory, rng_seed: int = 0) -> dict:
    """Probe restriction and jet-determinism properties of a solved curve.

    (a) Re-solves the boundary problem on random grid-aligned sub-windows
    and measures the sup distance to the stored restriction.  (b) Replays
    the curve from an interior 4-jet toward both ends; solutions are
    determined by any interior jet, forward and (with odd jets flipped)
    backward.  Solver failures mark the report inconclusive, not failed,
    and so does a grid of fewer than 6 segments, which has no room for
    a sub-window or an interior jet: it gets no probes at all.
    """
    chart, potential = trajectory.chart, trajectory.potential
    ts, qs = trajectory.ts, trajectory.qs
    N = trajectory.segments
    h = trajectory.h
    if N < 6:
        return {
            "restriction_probes": [], "restriction_pass": False, "jet_time": None,
            "jet_forward_sup": None, "jet_backward_sup": None, "jet_pass": False,
            "conclusive": False, "pass": False,
        }
    rng = np.random.default_rng(rng_seed)
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


def multi_seed_scan(
    chart, potential, boundary: BoundaryData, n_seeds: int = 10, rng_seed: int = 0, spread: float = 1.0, h=None,
    max_iter: int = 50,
):
    """Probe for distinct solutions from scattered seeds; rank by action.

    Seeds are the flat cubic guess plus Gaussian perturbations, solved
    together in lockstep (one flow pass per Newton round).  Convergent
    results are deduplicated on (y, z) rounded to 1e-5 granularity and
    returned sorted by increasing action.  ``max_iter`` bounds each seed's
    Newton iterations as in ``solve_bvp``.
    """
    y0, z0 = hermite_seed(boundary)
    scale = spread * (1.0 + float(np.linalg.norm(np.concatenate([y0, z0]))))
    rng = np.random.default_rng(rng_seed)
    seeds = [(y0, z0)]
    for _ in range(max(0, n_seeds - 1)):
        dy, dz = rng.normal(size=(2, chart.dim)) * scale
        seeds.append((y0 + dy, z0 + dz))
    found = {}
    for res, error in _lockstep(chart, potential, [_solve(chart, boundary, s, h, max_iter) for s in seeds]):
        if error is not None:
            continue
        key = tuple(
            np.round(np.concatenate([res.y, res.z]) / 1e-5).astype(np.int64).tolist()
        )
        if key not in found:
            found[key] = res
    ranked = [found[k] for k in sorted(found)]
    ranked.sort(key=lambda r: action(r.trajectory))
    return ranked
