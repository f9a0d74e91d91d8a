"""Trajectory ODE integration and the action functional.

Closed-form oracles: flat cubics (the ODE is q'''' = 0 there), the
constant-coefficient linear case q'''' = -q, and geodesics on the round
sphere.  The integrator is fixed-step classical RK4, so flat cubics are
reproduced to roundoff and the linear case shows clean 4th order.
"""

from __future__ import annotations

import inspect
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from riemplan import (
    ChartEscapeError,
    NumericalError,
    CurveState,
    GaussianObstacle,
    QuadraticWell,
    ZeroPotential,
    action,
    integrate_ivp,
    parse_manifold,
)
from riemplan import dynamics
from riemplan.dynamics import grid_steps, quadrature_weights

import references
from references import first_variation

EUC1 = parse_manifold("euclidean:1")
EUC2 = parse_manifold("euclidean:2")
S2 = parse_manifold("sphere2")
H2 = parse_manifold("hyperbolic2")
SO3 = parse_manifold("so3")


def test_grid_steps_even_and_default():
    N, h = grid_steps(2.0)
    assert N == 2000 and abs(h - 0.001) < 1e-15
    N, h = grid_steps(1.0, 0.3)  # 1/0.3 = 3.33 -> 3 -> forced even
    assert N % 2 == 0 and abs(N * h - 1.0) < 1e-15
    with pytest.raises(ValueError):
        grid_steps(0.0)
    with pytest.raises(ValueError):
        grid_steps(1.0, -0.1)


def test_quadrature_weights_orders():
    for n_nodes in (3, 4, 5, 6, 8, 11, 101):
        h = 1.0 / (n_nodes - 1)
        w = quadrature_weights(n_nodes, h)
        t = np.linspace(0.0, 1.0, n_nodes)
        assert abs(w.sum() - 1.0) < 1e-12
        assert abs(w @ t**3 - 0.25) < 1e-12  # Simpson is exact through cubics
    # odd segment count gets the 3/8 tail, staying 4th order
    t = np.linspace(0.0, 1.0, 8)
    w = quadrature_weights(8, 1.0 / 7.0)
    assert abs(w @ t**3 - 0.25) < 1e-12


def test_flat_cubic_exact():
    q0 = np.array([0.1, -0.2])
    v0 = np.array([0.4, 0.3])
    a0 = np.array([-0.5, 1.0])
    j0 = np.array([2.0, -1.5])
    traj = integrate_ivp(EUC2, ZeroPotential(EUC2), CurveState(0.0, q0, v0, a0, j0), 1.0)
    t = traj.ts[:, None]
    exact = q0 + v0 * t + 0.5 * a0 * t**2 + j0 * t**3 / 6.0
    assert np.max(np.abs(traj.qs - exact)) < 1e-10
    assert np.max(np.abs(traj.vs - (v0 + a0 * t + 0.5 * j0 * t**2))) < 1e-10


def linear_well_exact(q0, v0, a0, j0, ts):
    """Closed form of q'''' = -q through the 4x4 companion exponential."""
    A = np.diag(np.ones(3), 1)
    A[3, 0] = -1.0
    u0 = np.array([q0, v0, a0, j0])
    return np.stack([scipy.linalg.expm(A * t) @ u0 for t in ts])


def test_linear_well_closed_form():
    pot = QuadraticWell(EUC1, center=(0.0,), stiffness=1.0)
    st = CurveState(0.0, np.array([0.3]), np.array([-0.2]), np.array([0.5]), np.array([0.1]))
    traj = integrate_ivp(EUC1, pot, st, 1.0)
    exact = linear_well_exact(0.3, -0.2, 0.5, 0.1, traj.ts)
    assert np.max(np.abs(traj.qs[:, 0] - exact[:, 0])) < 1e-6


def test_step_halving_order():
    pot = QuadraticWell(EUC1, center=(0.0,), stiffness=1.0)
    st = CurveState(0.0, np.array([0.3]), np.array([-0.2]), np.array([0.5]), np.array([0.1]))
    errs = []
    for h in (1.0 / 25, 1.0 / 50, 1.0 / 100):
        traj = integrate_ivp(EUC1, pot, st, 1.0, h=h)
        exact = linear_well_exact(0.3, -0.2, 0.5, 0.1, traj.ts)
        errs.append(np.max(np.abs(traj.qs[:, 0] - exact[:, 0])))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) >= 3.7


def test_sphere_geodesic_invariants():
    q0 = np.array([0.2, -0.1])
    v0 = np.array([0.5, 0.3])
    st = CurveState(0.0, q0, v0, np.zeros(2), np.zeros(2))
    traj = integrate_ivp(S2, ZeroPotential(S2), st, 1.5)
    speed = float(S2.norm(q0, v0))
    for k in (300, 900, 2000):
        t = float(traj.ts[k])
        d = float(S2.distance(q0, traj.qs[k]))
        if speed * t <= np.pi / 2:
            assert abs(d - speed * t) < 1e-6
    # acceleration stays zero: geodesics solve the full equation
    assert np.max(np.abs(traj.accs)) < 1e-9
    assert float(action(traj)) < 1e-10


def test_cubic_residual_from_stored_jets():
    # FD of the stored covariant jerk must close the full equation
    st = CurveState(
        0.0, np.array([0.2, -0.1]), np.array([0.4, 0.2]), np.array([0.3, -0.2]), np.array([0.1, 0.5])
    )
    traj = integrate_ivp(S2, ZeroPotential(S2), st, 1.0)
    qs, vs, accs, js = traj.qs, traj.vs, traj.accs, traj.jerks
    h = traj.h
    k = slice(1, -1)
    dj = (js[2:] - js[:-2]) / (2.0 * h) + S2.gamma(qs[k], vs[k], js[k])
    resid = dj + S2.curvature(qs[k], accs[k], vs[k], vs[k])
    assert np.max(np.abs(resid)) < 1e-6


def test_action_flat_hand_integral():
    # q(t) = t^3/6 on [0,1]: the acceleration is t, J = 1/6
    st = CurveState(0.0, np.zeros(1), np.zeros(1), np.zeros(1), np.ones(1))
    traj = integrate_ivp(EUC1, ZeroPotential(EUC1), st, 1.0)
    assert abs(float(action(traj)) - 1.0 / 6.0) < 1e-8


def test_action_nonnegative_with_potential():
    pot = GaussianObstacle(EUC2, (0.5, 0.0), amplitude=1.0, width=0.4)
    st = CurveState(0.0, np.zeros(2), np.array([1.0, 0.0]), np.zeros(2), np.zeros(2))
    traj = integrate_ivp(EUC2, pot, st, 1.0)
    assert float(action(traj)) >= 0.0


def test_midpoint_restart_consistency():
    pot = GaussianObstacle(EUC2, (0.5, 0.2), amplitude=1.0, width=0.5)
    st = CurveState(0.0, np.zeros(2), np.array([1.0, 0.3]), np.array([0.2, -0.4]), np.zeros(2))
    traj = integrate_ivp(EUC2, pot, st, 1.0)
    mid = traj.state(traj.segments // 2)
    second = integrate_ivp(EUC2, pot, mid, 0.5, h=traj.h)
    assert np.max(np.abs(second.qs - traj.qs[traj.segments // 2 :])) < 1e-8


def test_interpolation_consistency():
    pot = QuadraticWell(EUC1, center=(0.0,), stiffness=1.0)
    st = CurveState(0.0, np.array([0.3]), np.array([-0.2]), np.array([0.5]), np.array([0.1]))
    traj = integrate_ivp(EUC1, pot, st, 1.0, h=0.01)
    # node queries reproduce stored samples
    s = traj.interpolate(float(traj.ts[37]))
    assert np.max(np.abs(s.q - traj.qs[37])) < 1e-14
    # off-node queries against the closed form
    t = 0.5037
    exact = linear_well_exact(0.3, -0.2, 0.5, 0.1, [t])[0]
    s = traj.interpolate(t)
    assert abs(float(s.q[0]) - exact[0]) < 1e-7
    # vectorized queries agree with scalar ones
    batch = traj.interpolate(np.array([0.1, 0.5037, 0.93]))
    assert abs(float(batch.q[1, 0]) - float(s.q[0])) < 1e-14


def test_interpolation_rejects_times_outside_window():
    pot = QuadraticWell(EUC1, center=(0.0,), stiffness=1.0)
    st = CurveState(0.5, np.array([0.3]), np.array([-0.2]), np.array([0.5]), np.array([0.1]))
    traj = integrate_ivp(EUC1, pot, st, 1.0, h=0.01)
    lo, hi, h = float(traj.ts[0]), float(traj.ts[-1]), traj.h
    # roundoff-sized overshoot is the end node
    for t, k in ((lo - 0.5e-9 * h, 0), (hi + 0.5e-9 * h, -1)):
        assert np.max(np.abs(traj.interpolate(t).q - traj.qs[k])) < 1e-10
    for t in (lo - 2e-9 * h, hi + 2e-9 * h, lo - 0.3, hi + 0.3, np.nan):
        with pytest.raises(ValueError, match="outside the trajectory window"):
            traj.interpolate(t)
    # one bad time fails the whole batch
    with pytest.raises(ValueError):
        traj.interpolate(np.array([lo + 0.2, hi + 0.3]))


def admissible_bumps(traj, count, rng):
    """Random fields vanishing to second order at both ends, drawn from rng."""
    t = traj.ts
    T = float(t[-1] - t[0])
    out = []
    for _ in range(count):
        w = np.zeros_like(traj.qs)
        for m in range(1, 4):
            c = rng.normal(size=traj.qs.shape[-1])
            w += np.sin(np.pi * m * (t - t[0]) / T)[:, None] ** 2 * c
        out.append(w)
    return out


def test_first_variation_vanishes_on_solutions():
    pot = GaussianObstacle(EUC2, (0.5, 0.2), amplitude=1.0, width=0.5)
    st = CurveState(0.0, np.zeros(2), np.array([1.0, 0.3]), np.array([0.2, -0.4]), np.zeros(2))
    traj = integrate_ivp(EUC2, pot, st, 1.0)
    for w in admissible_bumps(traj, 20, np.random.default_rng(3)):
        sup = float(np.max(EUC2.norm(traj.qs, w)))
        dj = first_variation(traj, w)
        assert abs(dj) <= 1e-4 * (1.0 + sup**2)


def test_first_variation_detects_wrong_potential():
    # a V=0 solution is not critical for the obstacle action
    st = CurveState(0.0, np.zeros(2), np.array([1.0, 0.3]), np.array([0.2, -0.4]), np.zeros(2))
    pot = GaussianObstacle(EUC2, (0.5, 0.2), amplitude=5.0, width=0.3)
    traj = replace(integrate_ivp(EUC2, ZeroPotential(EUC2), st, 1.0), potential=pot)
    vals = [abs(first_variation(traj, w)) for w in admissible_bumps(traj, 5, np.random.default_rng(4))]
    assert max(vals) > 1e-2


def test_first_variation_contracts():
    st = CurveState(0.0, np.zeros(2), np.array([1.0, 0.0]), np.zeros(2), np.zeros(2))
    traj = integrate_ivp(EUC2, ZeroPotential(EUC2), st, 1.0)
    assert first_variation(traj, np.zeros_like(traj.qs)) == 0.0
    with pytest.raises(ValueError):
        first_variation(traj, np.ones_like(traj.qs))


def test_trajectory_analyses_read_its_chart_and_potential():
    # a trajectory carries the chart and potential it solves for, so nothing
    # that analyzes one takes a second pair that could disagree with it
    from riemplan import bvp, index, jacobi, oracle

    found = [references.AdmissibleField.validate]
    for mod in (dynamics, bvp, jacobi, index, oracle, references):
        found += [getattr(mod, name) for name in mod.__all__]
    checked = 0
    for fn in found:
        if not callable(fn):
            continue
        params = inspect.signature(fn).parameters
        if "trajectory" in params:
            checked += 1
            assert not {"chart", "potential"} & set(params), fn.__qualname__
    assert checked >= 15


def test_chart_escape_reports_time():
    st = CurveState(0.0, np.zeros(2), np.array([2.0, 0.0]), np.zeros(2), np.zeros(2))
    with pytest.raises(ChartEscapeError) as err:
        integrate_ivp(H2, ZeroPotential(H2), st, 2.0)
    assert 0.0 < err.value.escape_time <= 2.0


def assert_same_flow(got, ref):
    """Two _flow row results agree bit for bit, failures included."""
    (traj, failure), (traj_ref, failure_ref) = got, ref
    assert (traj is None) == (traj_ref is None)
    if traj is not None:
        for a, b in zip(
            (traj.ts, traj.qs, traj.vs, traj.accs, traj.jerks),
            (traj_ref.ts, traj_ref.qs, traj_ref.vs, traj_ref.accs, traj_ref.jerks),
        ):
            assert np.array_equal(a, b)
    assert type(failure) is type(failure_ref) and str(failure) == str(failure_ref)
    if isinstance(failure, ChartEscapeError):
        assert failure.escape_time == failure_ref.escape_time


@pytest.mark.parametrize("chart", [EUC2, S2, SO3], ids=lambda c: c.name)
def test_row_groups_match_separate_marches(chart):
    # rows of different starts, steps and step counts in one march give
    # the same bits as one march per row
    n = chart.dim
    pot = GaussianObstacle(chart, np.full(n, 0.1), amplitude=1.0, width=0.4)
    rng = np.random.default_rng(5)
    rows = [
        (0.2 * rng.normal(size=(4, n)), t0, h, steps)
        for t0, h, steps in ((0.0, 0.01, 40), (0.3, 0.023, 17), (-1.0, 0.005, 64), (0.0, 0.02, 20))
    ]
    batched = dynamics._flow(chart, pot, rows)
    assert len(batched) == len(rows)
    for row, got in zip(rows, batched):
        [ref] = dynamics._flow(chart, pot, [row])
        assert ref[0].segments == row[3] and ref[1] is None
        assert_same_flow(got, ref)


def test_failed_head_leaves_other_groups_unchanged():
    # on the capped disk: a row that leaves the chart, a row that
    # overflows, and two that stay inside
    V = ZeroPotential(H2)

    def row(v):
        u = np.zeros((4, 2))
        u[0] = [0.5, 0.0]
        u[1] = v
        return u

    rows = [
        (row([1.0, 0.0]), 0.0, 0.2, 16),  # escapes
        (row([0.1, 0.0]), 0.0, 0.1, 30),  # stays inside
        (row([1e300, 0.0]), 0.5, 0.1, 8),  # overflows
        (row([0.0, 0.1]), 1.0, 0.05, 24),  # stays inside
    ]
    with np.errstate(over="ignore", invalid="ignore"):
        batched = dynamics._flow(H2, V, rows)
        refs = [dynamics._flow(H2, V, [r])[0] for r in rows]
    for got, ref in zip(batched, refs):
        assert_same_flow(got, ref)
    (t0, f0), (t1, f1), (t2, f2), (t3, f3) = batched
    assert t0 is None and isinstance(f0, ChartEscapeError)
    assert t1.segments == 30 and f1 is None
    assert t2 is None and isinstance(f2, NumericalError)
    assert t3.segments == 24 and f3 is None


# conftest's flat_obstacle and sphere_obstacle Gaussians, and V = 0 on so3
REVERSIBLE = {
    "euclidean:2": lambda c: GaussianObstacle(c, (0.5, 0.25), amplitude=1.0, width=0.4),
    "sphere2": lambda c: GaussianObstacle(c, (0.6, -0.3), amplitude=1.0, width=0.7),
    "so3": ZeroPotential,
}


@settings(max_examples=30)
@given(name=st.sampled_from(sorted(REVERSIBLE)), data=st.data())
def test_trajectory_ode_is_time_reversible(name, data):
    """t -> -t maps solutions to solutions, flipping v and j and keeping a:
    marched back from its flipped end state, a curve returns to q and -v."""
    chart = parse_manifold(name)
    pot = REVERSIBLE[name](chart)
    n = chart.dim
    q = np.array(data.draw(st.lists(st.floats(-0.5, 0.5), min_size=n, max_size=n)))
    jet = st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)
    v, a, j = np.array(data.draw(st.lists(jet, min_size=3, max_size=3)))
    T = 0.5
    fwd = integrate_ivp(chart, pot, CurveState(0.0, q, v, a, j), T, h=T / 64)
    end = CurveState(0.0, fwd.qs[-1], -fwd.vs[-1], fwd.accs[-1], -fwd.jerks[-1])
    back = integrate_ivp(chart, pot, end, T, h=T / 64)
    assert back.segments == 64
    assert np.max(np.abs(back.qs[-1] - q)) <= 1e-8
    assert np.max(np.abs(back.vs[-1] + v)) <= 1e-8
