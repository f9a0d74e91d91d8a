"""Two-point boundary problems: the bi-exponential map, inverted by multiple shooting.

The bi-exponential map sends initial covariant acceleration and jerk (y, z)
to the endpoint position and velocity of the trajectory ODE started at
(p, v).  When its differential in (y, z) is invertible, prescribing both
endpoint positions and velocities is a well-posed local problem.

The solver shoots K segments, a breakpoint every _SEGMENT_STEPS = 16
steps of a pass's own grid, K = ceil(N / 16) (Stoer & Bulirsch,
Introduction to Numerical Analysis, 7.3.5; Ascher, Mattheij & Russell,
Numerical Solution of Boundary Value Problems for ODEs, 1995, 4.3).  The
unknowns are (y, z) and the stored 4-jet (q, v, a, j) at each breakpoint,
first from the Hermite cubic; damped Newton drives down the K - 1 jet
jumps stacked over the end mismatch.  A trial is one flow pass whose rows
are the segments, so it costs 16 steps whatever N is, and no row marches
far enough to carry a poor seed out of the chart.  K = 1 is single
shooting on the bi-exponential map.  The Jacobian is block bidiagonal,
each block a segment's field propagator between conversions of
coordinate jets to field jets, read off the stitched curve's one
operator table (``jacobi._segment_jacobian``); Newton solves it by
condensing.  The basis bundle carried across the blocks gives the scan's
rank test at T (``_segment_jacobian`` returns it with the blocks), so a
singular shooting Jacobian and a biconjugate endpoint are one test.
Residual, Jacobian and the returned curve, its segments stitched, come
from one pass of the trial, so convergence is measured against the
curve the caller receives.

Unless the caller fixes the step, two grids are chosen by error
control, each by step doubling (Richardson's h^4 estimate) against one
relative tolerance of 1e-9.  Newton is mesh-sequenced: it converges on
the pilot grid, whose estimate at the solution picks N, then finishes on
N from the pilot curve's jets at N's breakpoints; a miss at the final
solution doubles N and resumes Newton there.  The curve's estimate takes
the endpoint and the Jacobian's dependence on the curve against the
pass's half-grid twin, every segment's jets on half its steps, marched
as more rows of the same pass.  The field bundle gets a grid of its own
(``field_grid``): M = r N steps, r chosen by the bundle's estimate on
the N-curve, M against M/2.  Newton linearizes each iterate on its own
curve's grid; only the result's curve gets its field grid.

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

from . import rk4

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
from .jacobi import _field_jacobians, _segment_jacobian, shooting_jacobian

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
    #: Newton iterations, the pilot grid's included
    iterations: int
    #: of those, the iterations on the pilot grid (0 with a fixed step, or
    #: when that stage failed)
    coarse_iterations: int
    #: steps of the returned trajectory
    steps: int
    #: shooting segments, ceil(steps / _SEGMENT_STEPS), and their largest jump
    segments: int
    max_jump: float
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
        sv = np.linalg.svd(shooting_jacobian(self.trajectory), compute_uv=False)
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
    """One flow pass at a trial: its segments' curves, the residual and the Jacobian."""

    #: the curve of each segment, from its stored jets
    segments: list
    #: the shot of the same jets on half the steps, built when called; it
    #: raises that pass's failure
    twin: partial | None = None

    def __post_init__(self):
        # each segment's stored start jets and its end jets (q, v, a, j), (K, 4, n)
        self.starts, self.ends = (np.array([s.jets[k] for s in self.segments]) for k in (0, -1))
        self.end = self.ends[-1, :2].ravel()  # (q, qdot) at the window end
        self.jumps = self.ends[:-1] - self.starts[1:]  # at the K - 1 breakpoints
        # T^l for the levels l over the window T: jumps of the jets in the
        # time (t - a) / T, so a short window's a and j meet the tolerance
        self.weights = (self.segments[-1].ts[-1] - self.segments[0].ts[0]) ** np.arange(4.0)[:, None]

    def residual(self, target) -> np.ndarray:
        """The weighted jumps stacked over the end mismatch with ``target``."""
        return np.concatenate([(self.jumps * self.weights).ravel(), self.end - target])

    @cached_property
    def trajectory(self) -> Trajectory:
        """The stitched curve: each segment's nodes up to the next one's
        stored jets, the last segment's end closing it."""
        *body, last = self.segments
        ts, jets = (np.concatenate([getattr(s, k)[:-1] for s in body] + [getattr(last, k)]) for k in ("ts", "jets"))
        return Trajectory(last.chart, last.potential, ts, jets)

    @cached_property
    def linearization(self):
        """(blocks of the Jacobian, whether the scan's rank test flags the
        end), off the stitched curve's operator table (``jacobi._segment_jacobian``)."""
        return _segment_jacobian(self.trajectory, self.starts, self.ends)

    @cached_property
    def fields(self) -> tuple[Trajectory, float]:
        """The stitched curve on its error-controlled field grid, and that
        grid's estimate (``field_grid``)."""
        return field_grid(self.trajectory)

    @cached_property
    def estimate(self) -> float:
        """The curve's step-doubling estimate against its twin (``_richardson``)."""
        return _richardson(self, self.twin())


class _Request:
    """One shooting pass: the rows ``_flow`` marches for it, and the
    ``_Shot`` made of their results.

    ``rows`` are the segments, each (u, t0, h, steps) as ``_flow`` takes
    it.  With ``twin`` the same jets march again on steps / 2 at twice the
    step, for the step-doubling estimate; each row's ``steps`` is then
    even.  ``what`` names the pass ("seed", "trial", "start", "replay") in
    the error of a row that fails.
    """

    def __init__(self, rows, twin=False, what="trial"):
        self.rows, self.K = list(rows), len(rows)
        self.where = f"of the {what} pass on {sum(r[3] for r in rows)} steps"
        if twin:
            self.rows += [(u, t0, 2.0 * h, steps // 2) for u, t0, h, steps in rows]

    def _shot(self, flows) -> _Shot:
        for k, (_, failure) in enumerate(flows):
            if failure is not None:
                where = f"in segment {k + 1} of {self.K} {self.where}"
                if isinstance(failure, ChartEscapeError):
                    t = failure.escape_time
                    raise ChartEscapeError(f"trajectory left the chart domain at t = {t:.6g}, {where}", t)
                raise NumericalError(f"{failure}, {where}")
        return _Shot([trajectory for trajectory, _ in flows])

    def finish(self, flows) -> _Shot:
        """The shot from the ``_flow`` results of ``rows``.  A failure of the
        trial raises, its message naming the pass, the segment and the time;
        the twin's raises when ``_Shot.twin`` is called."""
        shot = self._shot(flows[: self.K])
        if flows[self.K :]:
            shot.twin = partial(self._shot, flows[self.K :])
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
    return shooting_jacobian(integrate_ivp(chart, potential, CurveState(0.0, p, v, y, z), t, h))


# Default shooting grid.  The seed is shot at twice _PILOT_STEPS, with its
# twin at _PILOT_STEPS; the step count is then chosen so the step-doubling
# estimate of the curve's relative error meets _STEP_TOL, never below the
# pilot grid, and doubled while the estimate at the solution misses it, up
# to _MAX_STEPS.  The field grid meets the same tolerance, with at most
# _MAX_STEPS steps.
_STEP_TOL = 1e-9
_PILOT_STEPS = 32
_MAX_STEPS = 1 << 16

# What ends Newton on the pilot grid and sends the solve on from its seed:
# Newton's own failures, and a pilot pass that could not be marched.
_COARSE_FAILURES = (NonconvergenceError, CriticalPointError, ChartEscapeError, NumericalError)

# steps per shooting segment: rk4's block, so that on the curve's grid a
# segment's field propagator is one block's product (``rk4.propagators``)
_SEGMENT_STEPS = rk4._BLOCK

# d^l/dt^l t^k = k! / (k - l)! t^(k - l) for the jets l = 0..3 of a quintic
_FALLING = np.array([[math.perm(k, l) for k in range(6)] for l in range(4)], float)
_POWERS = np.maximum(np.arange(6) - np.arange(4)[:, None], 0)


def _predict_steps(steps, estimate):
    """Even step count at which the h^4 law puts an error ``estimate`` made
    on ``steps`` steps at half of _STEP_TOL.

    The factor 2 covers the error's pre-asymptotic fall, slower than h^4
    on coarse grids, so the prediction rarely needs a doubling.
    """
    return 2 * math.ceil(0.5 * steps * (2.0 * estimate / _STEP_TOL) ** (1 / rk4.ORDER))


def _richardson(fine: _Shot, coarse: _Shot) -> float:
    """Step-doubling estimate of the relative error of the curve of ``fine``.

    ``coarse`` is the same jets shot on half the steps.  RK4 errors fall
    as h^4, so the fine shot's error is about |fine - coarse| / 15 (Hairer,
    Norsett & Wanner, Solving ODEs I, II.4).  The endpoint's counts as
    single shooting of (y, z) would see it: each segment's end difference
    carried to the window end by the later segments' blocks, to first
    order.  The Jacobian counts only through the curve it is marched
    along: both stitched curves' bundles march on the fine curve's field
    grid (``_Shot.fields``), so that grid's own error cancels.  A curve at
    rest has an exact endpoint and Jacobian coefficient on any grid: its
    estimate is 0, whatever its fields need.
    """
    traj, _ = fine.fields
    blocks, _ = fine.linearization
    d = (fine.ends - coarse.ends).reshape(len(blocks), -1)
    carried = d[0]
    for block, dk in zip(blocks[1:], d[1:]):
        carried = block @ carried + dk
    e = np.linalg.norm(carried[: fine.end.size]) / (1.0 + np.linalg.norm(fine.end))
    J = shooting_jacobian(traj)
    twin = replace(coarse.trajectory, field_refinement=traj.field_steps // coarse.trajectory.segments)
    dj = np.linalg.norm(J - shooting_jacobian(twin)) / np.linalg.norm(J)
    return float(max(e, dj) / (2**rk4.ORDER - 1))


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
        return traj, float(np.linalg.norm(J - J_half) / np.linalg.norm(J) / (2**rk4.ORDER - 1))

    traj, est = estimate(1)
    if est > _STEP_TOL and r_max > 1:
        r = min(max(2, math.ceil(_predict_steps(N, est) / N)), r_max)
        traj, est = estimate(r)
        while est > _STEP_TOL and 2 * r <= r_max:
            r *= 2
            traj, est = estimate(r)
    return traj, est


def _newton_step(shot: _Shot, target) -> np.ndarray:
    """The Newton step of ``shot``'s residual in the unknowns, by condensing:
    each breakpoint's step is the previous segment's block times its start's
    step, plus its jump, so every step is G (dy, dz) + g, and the end rows,
    single shooting's 2n x 2n system, fix (dy, dz) (Deuflhard, Newton Methods
    for Nonlinear Problems, 2004, 8.1).  Time and memory grow as K.  Raises
    CriticalPointError where the scan's rank test flags the end."""
    blocks, biconjugate = shot.linearization
    if biconjugate:
        raise CriticalPointError(
            "bi-exponential differential is singular at the current iterate; "
            "the endpoint may be close to biconjugate"
        )
    mismatch = shot.end - target
    G, g, starts = blocks[0], np.zeros(len(blocks[0])), []
    for block, jump in zip(blocks[1:], shot.jumps.reshape(-1, len(blocks[0]))):
        starts.append((G, g + jump))
        G, g = block @ G, block @ (g + jump)
    dc = np.linalg.solve(G[: mismatch.size], -mismatch - g[: mismatch.size])
    return np.concatenate([dc, *(G @ dc + g for G, g in starts)])


def _newton(shoot, shot, x, target, tol, max_iter):
    """Damped Newton on the residual from the unknowns x, whose pass is ``shot``.

    x stacks (y, z) over the jets at each breakpoint.  A generator: it
    yields ``shoot(x)``, the ``_Request`` of each line-search trial, and is
    sent the trial's ``_Shot``, or has its chart escape or nonfinite state
    thrown in, which halves the step.  Returns (x, shot, residual,
    iterations) at the accepted iterate.
    """
    n = target.size // 2
    r = shot.residual(target)
    rn = float(np.linalg.norm(r))
    best = {"y": x[:n], "z": x[n : 2 * n], "residual": rn}
    iterations = 0
    for _ in range(max_iter):
        if rn <= tol:
            break
        dx = _newton_step(shot, target)
        t_step, failure = 1.0, None
        for _ in range(20):
            x_try = x + t_step * dx
            try:
                trial = yield shoot(x_try)
            except (ChartEscapeError, NumericalError) as err:
                t_step, failure = 0.5 * t_step, err
                continue
            r_new = trial.residual(target)
            rn_new = float(np.linalg.norm(r_new))
            if rn_new < rn:
                break
            t_step *= 0.5
        else:
            last = f" (the last failed trial: {failure})" if failure else ""
            raise NonconvergenceError("shooting line search stalled" + last, best=best)
        x, shot, r, rn = x_try, trial, r_new, rn_new
        iterations += 1
        if rn < best["residual"]:
            best = {"y": x[:n], "z": x[n : 2 * n], "residual": rn}
    else:
        raise NonconvergenceError(
            f"shooting did not converge in {max_iter} iterations (best residual {best['residual']:.3e})", best=best
        )
    return x, shot, rn, iterations


def _unknowns(boundary: BoundaryData, steps, y, z, curve: Trajectory | None = None) -> np.ndarray:
    """The unknowns on ``steps`` steps: (y, z) over the jets at each
    breakpoint, off ``curve``, a solved pass, or else the quintic in chart
    coordinates from the 4-jet (q_a, v_a, y, z) to (q_b, v_b), for the
    Hermite seed its cubic."""
    tau = boundary.span
    t = (tau / steps) * np.arange(_SEGMENT_STEPS, steps, _SEGMENT_STEPS)
    if curve is not None:
        return np.concatenate([y, z, curve.jets_at(boundary.a + t).ravel()])
    r0 = boundary.q_b - (boundary.q_a + tau * boundary.v_a + tau**2 / 2.0 * y + tau**3 / 6.0 * z)
    r1 = boundary.v_b - (boundary.v_a + tau * y + tau**2 / 2.0 * z)
    c5 = (r1 - 4.0 * r0 / tau) / tau**4
    c = np.array([boundary.q_a, boundary.v_a, y / 2.0, z / 6.0, r0 / tau**4 - tau * c5, c5])
    return np.concatenate([y, z, (_FALLING * t[:, None, None] ** _POWERS @ c).ravel()])


def solve_bvp(chart, potential, boundary: BoundaryData, seed=None, h=None, max_iter: int = 50) -> ShootingResult:
    """Damped Newton multiple shooting for the endpoint position/velocity problem.

    The residual stacks the jet jumps at the breakpoints, their v, a and
    j rows weighted by T, T^2 and T^3 (``_Shot.weights``), over the
    chart-coordinate position and velocity mismatch at the end.
    Globalization is backtracking on its norm (factor 0.5, at most 20
    halvings); a trial that leaves the chart only rejects that trial.
    Nonconvergence carries the best iterate.  When the scan's rank test,
    normalized for the window length, flags the iterate's end as
    biconjugate, Newton raises CriticalPointError.  A seed (y, z) other
    than the Hermite one seeds the breakpoints from the quintic that
    starts with it (``_unknowns``).

    An explicit ``h`` fixes N (``grid_steps``), and Newton runs there from
    the seed.  With ``h`` None error control chooses N: Newton converges on
    the pilot grid, 2 * _PILOT_STEPS steps, each pass carrying its twin;
    the step-doubling estimate there (``_richardson``; at the seed if that
    stage fails) predicts by the h^4 law an even N that meets _STEP_TOL
    (``_predict_steps``, at least the pilot grid), and Newton finishes on
    N, doubling it while the estimate at the solution misses.  The
    returned trajectory carries its field grid (``field_grid``), chosen
    for the same tolerance, on which the field bundle behind the estimate
    and ``jacobian_condition`` marches; with a fixed step it is the
    curve's own.  The result records N, its segment count, the largest
    weighted jump, both estimates and the tolerance; an estimate exceeds
    the tolerance only where N or M would double past _MAX_STEPS, and
    issues a ResolutionWarning, whose message ``warnings`` keeps.
    ``max_iter`` bounds each Newton run; ``iterations`` counts them all
    and ``coarse_iterations`` the pilot grid's share.

    Each Newton run makes one pass for its start and one per line-search
    trial, each of one row per segment (16 steps), and each accepted
    trial builds one operator table.  The pilot pass is reused when N is
    the pilot grid, each new grid adds one start pass, and no pass is
    made on N/2 alone.
    """
    [(result, error)] = _lockstep(chart, potential, [_solve(chart, boundary, seed, h, max_iter)])
    if error is not None:
        raise error
    for message in result.warnings:
        warnings.warn(message, ResolutionWarning, stacklevel=2)
    return result


def _request(chart, boundary: BoundaryData, steps, x, twin=False, what="trial") -> _Request:
    """The pass of the unknowns x on ``steps`` steps, one row per segment; a
    breakpoint outside the chart raises ChartEscapeError as a row would."""
    n = chart.dim
    starts = np.concatenate([boundary.q_a, boundary.v_a, x]).reshape(-1, 4, n)
    lows = range(0, steps, _SEGMENT_STEPS)
    t0 = boundary.a + (boundary.span / steps) * np.array(lows)
    outside = ~chart.contains(starts[:, 0])
    if outside.any():
        k = int(np.argmax(outside))
        where = f"in segment {k + 1} of {len(starts)} of the {what} pass on {steps} steps"
        raise ChartEscapeError(f"breakpoint outside the chart domain at t = {t0[k]:.6g}, {where}", t0[k])
    rows = [(u, t, boundary.span / steps, min(_SEGMENT_STEPS, steps - lo)) for u, t, lo in zip(starts, t0, lows)]
    return _Request(rows, twin, what)


def _solve(chart, boundary: BoundaryData, seed=None, h=None, max_iter: int = 50):
    """``solve_bvp`` as a generator of shooting requests, for ``_lockstep``."""
    boundary.validate(chart)
    tau = boundary.span
    n = chart.dim
    target = np.concatenate([boundary.q_b, boundary.v_b])
    tol = 1e-8 * (1.0 + float(np.linalg.norm(target)))

    y, z = hermite_seed(boundary) if seed is None else (np.asarray(c, float) for c in seed)

    def shoot(steps, x, what="trial"):
        return _request(chart, boundary, steps, x, h is None, what)

    def newton(steps, shot, x):
        return _newton(partial(shoot, steps), shot, x, target, tol, max_iter)

    steps = 2 * _PILOT_STEPS if h is None else grid_steps(tau, h)[0]
    x = _unknowns(boundary, steps, y, z)
    shot = yield shoot(steps, x, "seed")
    coarse_its = 0
    if h is not None:
        x, shot, rn, iterations = yield from newton(steps, shot, x)
        trajectory = shot.trajectory
        estimate = field_estimate = step_tol = None
        missed = []
    else:
        step_tol = _STEP_TOL
        solved = None  # the curve Newton last converged to
        try:
            x_c, coarse, _, its = yield from newton(steps, shot, x)
            estimate = coarse.estimate
        except _COARSE_FAILURES:
            estimate = shot.estimate
        else:
            x, shot, coarse_its, solved = x_c, coarse, its, coarse.trajectory
        steps = min(max(steps, _predict_steps(steps, estimate)), _MAX_STEPS)
        iterations = 0
        while True:
            if shot.trajectory.segments != steps:
                x = _unknowns(boundary, steps, x[:n], x[n : 2 * n], solved)
                shot = yield shoot(steps, x, "start")
            x, shot, rn, its = yield from newton(steps, shot, x)
            solved = shot.trajectory
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

    jumps = np.linalg.norm(shot.jumps * shot.weights, axis=(1, 2))
    return ShootingResult(
        x[:n].copy(), x[n : 2 * n].copy(), trajectory, rn, coarse_its + iterations, coarse_its, steps,
        len(shot.segments), float(jumps.max(initial=0.0)), estimate, field_estimate, step_tol, missed,
    )


def _integrate(chart, initial: CurveState, T: float, h=None):
    """``integrate_ivp`` as a one-request generator, for ``_lockstep``."""
    return (yield _Request([_ivp_row(chart, initial, T, h)], what="replay")).trajectory


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
