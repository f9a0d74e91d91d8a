"""Shooting solver and the endpoint map it inverts.

Flat space with V = 0 is fully closed-form (cubic interpolation), so most
assertions there are at 1e-9.  Curved/obstacle cases are validated by
round trips through the initial-value integrator.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from riemplan import (
    BoundaryData,
    ChartDomainError,
    ChartEscapeError,
    CriticalPointError,
    CurveState,
    GaussianObstacle,
    InjectivityError,
    NonconvergenceError,
    NumericalError,
    ZeroPotential,
    action,
    continuation_sweep,
    integrate_ivp,
    multi_seed_scan,
    parse_manifold,
    solve_bvp,
)
from riemplan import bvp, dynamics, rk4
from riemplan.bvp import hermite_seed
from riemplan.dynamics import grid_steps
from riemplan.jacobi import _basis_bundle, _flat, jacobi_operator, shooting_jacobian

EUC1 = parse_manifold("euclidean:1")
EUC2 = parse_manifold("euclidean:2")
S2 = parse_manifold("sphere2")
H2 = parse_manifold("hyperbolic2")


def biexp(chart, pot, p, v, y, z, t, h=None):
    """(q(t), qdot(t)) of the curve from the 4-jet (p, v, y, z): the bi-exponential map."""
    traj = integrate_ivp(chart, pot, CurveState(0.0, p, v, y, z), t, h)
    return traj.qs[-1], traj.vs[-1]


def biexp_jacobian(chart, pot, p, v, y, z, t, h=None):
    """Its differential in (y, z), read off the curve's field bundle."""
    return shooting_jacobian(integrate_ivp(chart, pot, CurveState(0.0, p, v, y, z), t, h))[0]


def shoot(chart, pot, p, v, y, z, t, steps, t0=0.0):
    """The ``bvp._Shot`` of one single-shooting pass of the trial (y, z) on ``steps`` steps."""
    req = bvp._Request([(np.array([p, v, y, z], float), t0, t / steps, steps)])
    return req.finish(dynamics._flow(chart, pot, req.rows))


def jets(traj, k):
    """The stored 4-jet (q, v, a, j) of a trajectory at node k, (4, n)."""
    return np.array([traj.qs[k], traj.vs[k], traj.accs[k], traj.jerks[k]])


def segment_shot(chart, pot, bd, traj, twin=False):
    """The ``bvp._Shot`` of one multiple-shooting pass on ``traj``'s grid from
    the jets ``traj`` stores at its breakpoints, every _SEGMENT_STEPS nodes."""
    N = traj.segments
    x = np.concatenate([jets(traj, k) for k in range(0, N, bvp._SEGMENT_STEPS)])[2:].ravel()
    req = bvp._request(chart, bd, N, x, twin)
    return req.finish(dynamics._flow(chart, pot, req.rows))


def segment_rows(N):
    """The step counts of the rows of a pass on N steps, twins not included."""
    S = bvp._SEGMENT_STEPS
    return [min(S, N - lo) for lo in range(0, N, S)]


def test_biexp_flat_closed_form():
    p = np.array([0.1, -0.3])
    v = np.array([0.4, 0.2])
    y = np.array([-0.6, 1.1])
    z = np.array([2.0, -0.5])
    t = 0.8
    q, qd = biexp(EUC2, ZeroPotential(EUC2), p, v, y, z, t)
    assert np.max(np.abs(q - (p + v * t + y * t**2 / 2 + z * t**3 / 6))) < 1e-9
    assert np.max(np.abs(qd - (v + y * t + z * t**2 / 2))) < 1e-9


def test_biexp_geodesic_matches_exp():
    p = np.array([0.2, -0.1])
    v = np.array([0.5, 0.3])
    q, _ = biexp(S2, ZeroPotential(S2), p, v, np.zeros(2), np.zeros(2), 1.2)
    assert np.max(np.abs(q - S2.exp(p, 1.2 * v))) < 1e-8


def test_biexp_short_time_limit():
    pot = GaussianObstacle(S2, (0.3, 0.1), amplitude=1.0, width=0.5)
    p = np.array([0.2, -0.1])
    v = np.array([0.5, 0.3])
    y = np.array([0.4, -0.2])
    z = np.array([1.0, 0.7])
    t = 1e-4
    q, qd = biexp(S2, pot, p, v, y, z, t, h=t / 16)
    # (q, qd) -> (p, v); the coordinate-velocity slope is y - Gamma(v, v)
    assert np.max(np.abs(q - p - t * v)) < 1e-6
    assert np.max(np.abs(qd - v - t * (y - S2.gamma(p, v, v)))) < 1e-6


def test_jacobian_flat_closed_form():
    t = 0.7
    J = biexp_jacobian(
        EUC1, ZeroPotential(EUC1), np.array([0.3]), np.array([-0.2]), np.array([0.5]), np.array([0.1]), t
    )
    exact = np.array([[t**2 / 2, t**3 / 6], [t, t**2 / 2]])
    assert np.max(np.abs(J - exact)) < 1e-9
    assert abs(np.linalg.det(J) - t**4 / 12) < 1e-9


def test_jacobian_small_time_determinant():
    pot = GaussianObstacle(EUC2, (0.5, 0.25), amplitude=1.0, width=0.4)
    p = np.array([0.2, 0.1])
    v = np.array([0.4, -0.3])
    y = np.array([0.3, 0.2])
    z = np.array([-0.5, 0.6])
    t = 1e-2
    J = biexp_jacobian(EUC2, pot, p, v, y, z, t, h=t / 64)
    assert abs(np.linalg.det(J) / (t**4 / 12) ** 2 - 1.0) < 1e-2


def test_jacobian_fd_richardson(fd_jacobian):
    # central differences at half the old 1e-5 step agree with the field bundle
    pot = GaussianObstacle(EUC2, (0.5, 0.25), amplitude=1.0, width=0.4)
    p = np.array([0.2, 0.1])
    v = np.array([0.4, -0.3])
    y = np.array([0.3, 0.2])
    z = np.array([-0.5, 0.6])
    t, h = 0.6, 0.6 / 300
    J = biexp_jacobian(EUC2, pot, p, v, y, z, t, h=h)
    J2 = fd_jacobian(EUC2, pot, p, v, y, z, t, h, rel=0.5e-5)
    assert np.max(np.abs(J - J2)) / np.max(np.abs(J)) < 1e-6


# conftest's flat_obstacle and sphere_obstacle Gaussians, and V = 0 on so3,
# each with a start point and velocity
JACOBIAN_CASES = {
    "euclidean:2": (lambda c: GaussianObstacle(c, (0.5, 0.25), amplitude=1.0, width=0.4), (0.2, 0.1), (0.4, -0.3)),
    "sphere2": (lambda c: GaussianObstacle(c, (0.6, -0.3), amplitude=1.0, width=0.7), (-0.8, 0.1), (0.5, 0.2)),
    "so3": (ZeroPotential, (0.1, -0.2, 0.15), (0.4, 0.1, -0.3)),
}


@settings(max_examples=30, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(name=st.sampled_from(sorted(JACOBIAN_CASES)), data=st.data())
def test_jacobian_matches_differences_at_random_shots(fd_jacobian, name, data):
    # the field bundle's Jacobian against central differences of biexp, as
    # in test_jacobian_fd_richardson, at drawn initial (y, z)
    chart = parse_manifold(name)
    factory, p, v = JACOBIAN_CASES[name]
    pot, p, v = factory(chart), np.array(p), np.array(v)
    jet = st.lists(st.floats(-1.0, 1.0), min_size=chart.dim, max_size=chart.dim)
    y, z = np.array(data.draw(st.lists(jet, min_size=2, max_size=2)))
    t, h = 0.6, 0.6 / 128
    J = biexp_jacobian(chart, pot, p, v, y, z, t, h=h)
    J2 = fd_jacobian(chart, pot, p, v, y, z, t, h, rel=0.5e-5)
    assert np.max(np.abs(J - J2)) / np.max(np.abs(J)) < 1e-6


def test_jacobian_matches_converged_differences_on_long_window(scenario, fd_jacobian):
    # on well_top_long the fields grow like e^t over T = 12, so central
    # differences at a 1e-5 step leave the linear range (2.3e-3 relative
    # error); at 1e-7 they have converged and must agree with the bundle
    chart, pot, bd = scenario("well_top_long")
    res = solve_bvp(chart, pot, bd)
    h = bd.span / res.steps
    J = biexp_jacobian(chart, pot, bd.q_a, bd.v_a, res.y, res.z, bd.span, h)
    ref = fd_jacobian(chart, pot, bd.q_a, bd.v_a, res.y, res.z, bd.span, h, rel=1e-7)
    assert np.linalg.norm(J - ref) / np.linalg.norm(ref) < 1e-6
    sv = np.linalg.svd(ref, compute_uv=False)
    assert res.jacobian_condition == pytest.approx(sv[0] / sv[-1], rel=1e-5)


def test_solve_flat_hermite():
    bd = BoundaryData(np.array([0.0, 0.0]), np.array([0.3, -0.2]), np.array([1.0, 0.5]), np.array([-0.1, 0.4]))
    res = solve_bvp(EUC2, ZeroPotential(EUC2), bd)
    y_ref, z_ref = hermite_seed(bd)
    assert np.max(np.abs(res.y - y_ref)) < 1e-9
    assert np.max(np.abs(res.z - z_ref)) < 1e-9
    assert res.iterations == 0  # the seed is already the solution
    assert res.residual <= 1e-8 * (1.0 + np.linalg.norm(np.concatenate([bd.q_b, bd.v_b])))


def test_solve_round_trip_sphere():
    pot = GaussianObstacle(S2, (0.4, 0.2), amplitude=1.0, width=0.6)
    st = CurveState(0.0, np.array([-0.3, 0.1]), np.array([0.5, 0.2]), np.array([0.2, -0.3]), np.array([0.1, 0.4]))
    traj = integrate_ivp(S2, pot, st, 1.0)
    bd = BoundaryData(st.q, st.v, traj.qs[-1], traj.vs[-1], 0.0, 1.0)
    res = solve_bvp(S2, pot, bd)
    scale = 1.0 + float(np.linalg.norm(np.concatenate([st.a, st.j])))
    assert np.max(np.abs(res.y - st.a)) < 1e-7 * scale
    assert np.max(np.abs(res.z - st.j)) < 1e-7 * scale
    # endpoint reproduction
    assert np.max(np.abs(res.trajectory.qs[-1] - bd.q_b)) < 1e-7
    assert np.isfinite(res.jacobian_condition)


def test_short_window_seed_independence():
    pot = GaussianObstacle(S2, (0.4, 0.2), amplitude=1.0, width=0.6)
    st = CurveState(0.0, np.array([-0.3, 0.1]), np.array([0.5, 0.2]), np.array([0.2, -0.3]), np.array([0.1, 0.4]))
    h = 0.5 / 400
    traj = integrate_ivp(S2, pot, st, 0.5, h=h)
    bd = BoundaryData(st.q, st.v, traj.qs[-1], traj.vs[-1], 0.0, 0.5)
    ref = solve_bvp(S2, pot, bd, h=h)
    rng = np.random.default_rng(11)
    seeds = [(ref.y + rng.normal(scale=0.5, size=2), ref.z + rng.normal(scale=0.5, size=2)) for _ in range(10)]
    # the ten solves march in lockstep, one flow pass per Newton round
    for res, error in bvp._lockstep(S2, pot, [bvp._solve(S2, bd, seed, h) for seed in seeds]):
        if error is not None:
            raise error
        assert np.max(np.abs(res.y - ref.y)) < 1e-6
        assert np.max(np.abs(res.z - ref.z)) < 1e-6


def test_short_interval_stays_bounded():
    bd = BoundaryData(np.array([0.1, 0.0]), np.array([0.4, 0.1]), np.array([0.14, 0.01]), np.array([0.4, 0.1]), 0.0, 0.1)
    pot = GaussianObstacle(EUC2, (0.5, 0.25), amplitude=1.0, width=0.4)
    res = solve_bvp(EUC2, pot, bd, h=0.1 / 200)
    cap = 10.0 * (1.0 + max(np.linalg.norm(c) for c in hermite_seed(bd)))
    assert np.linalg.norm(res.y) < cap and np.linalg.norm(res.z) < cap


def test_nonconvergence_carries_best():
    pot = GaussianObstacle(S2, (0.4, 0.2), amplitude=1.0, width=0.6)
    bd = BoundaryData(np.array([-0.3, 0.1]), np.array([0.5, 0.2]), np.array([0.6, -0.2]), np.array([0.1, 0.3]), 0.0, 1.0)
    with pytest.raises(NonconvergenceError) as err:
        solve_bvp(S2, pot, bd, max_iter=1, h=1.0 / 200)
    best = err.value.best
    assert set(best) >= {"y", "z", "residual"}
    assert best["residual"] > 0.0


def test_biconjugate_endpoint_is_a_critical_point(scenario):
    # the rest state on the bump is first biconjugate at the clamped-beam
    # root 4.7300...; the seed's curve toward a nearby endpoint there fails
    # the scan's rank test at T (normalized sigma ratio 1.5e-9), so Newton
    # stops
    chart, pot, _ = scenario("well_top")
    T = 4.730040744863
    bd = BoundaryData(np.zeros(1), np.zeros(1), np.array([1e-3]), np.zeros(1), 0.0, T)
    with pytest.raises(CriticalPointError, match="biconjugate"):
        solve_bvp(chart, pot, bd, h=T / 2000)


def test_biconjugate_endpoint_is_a_critical_point_under_error_control(scenario):
    # the pilot grid cannot resolve the rank test there (normalized sigma
    # ratio 3.3e-9 at 64 steps); the coarse stage's failure leaves the
    # solve on the grid error control picks, where Newton stops as on a
    # fixed one
    chart, pot, _ = scenario("well_top")
    T = 4.730040744863
    bd = BoundaryData(np.zeros(1), np.zeros(1), np.array([1e-3]), np.zeros(1), 0.0, T)
    with pytest.raises(CriticalPointError, match="biconjugate"):
        solve_bvp(chart, pot, bd)


@pytest.mark.parametrize("T", [1e-4, 1e-5])
def test_short_window_is_not_a_critical_point(T):
    # the flat boundary matrix scales like T^2 / 12, so an unnormalized rank
    # test would flag every short window; from a seed off the Hermite guess
    # Newton must run and converge
    bd = BoundaryData(np.zeros(2), np.array([0.3, -0.2]), np.array([0.3 * T, 0.0]), np.array([0.3, -0.2]), 0.0, T)
    y, z = hermite_seed(bd)
    res = solve_bvp(EUC2, ZeroPotential(EUC2), bd, seed=(1.1 * y, 0.9 * z))
    assert res.iterations >= 1 and res.residual < 1e-10


def test_a_chart_escape_says_where(scenario, monkeypatch):
    # the seed's cubic leaves the disk: its second breakpoint is refused
    bd = BoundaryData(np.array([0.5, 0.0]), np.array([4.0, 0.0]), np.array([0.6, 0.0]), np.zeros(2), 0.0, 1.0)
    where = "in segment 2 of 7 of the seed pass on 100 steps"
    with pytest.raises(ChartEscapeError, match=f"^breakpoint outside the chart domain at t = 0.16, {where}$") as err:
        solve_bvp(H2, ZeroPotential(H2), bd, h=0.01)
    assert err.value.escape_time == pytest.approx(0.16)
    # a segment that leaves the chart ends the seed's pass, and only
    # rejects a trial; a line search all of whose trials leave it says so
    chart, pot, bd = scenario("sphere_obstacle")
    flow = bvp._flow

    def escapes_after(passes):
        def flow_escaping(chart, pot, rows):
            passes[0] -= 1
            out = flow(chart, pot, rows)
            escape = (None, ChartEscapeError("trajectory left the chart domain", 0.7))
            return out if passes[0] >= 0 else [escape if k == 2 else o for k, o in enumerate(out)]

        return flow_escaping

    message = "trajectory left the chart domain at t = 0.7, in segment 3 of 7 of the {} pass on 100 steps"
    monkeypatch.setattr(bvp, "_flow", escapes_after([0]))
    with pytest.raises(ChartEscapeError, match=f"^{message.format('seed')}$"):
        solve_bvp(chart, pot, bd, h=bd.span / 100)
    monkeypatch.setattr(bvp, "_flow", escapes_after([1]))
    stalled = rf"line search stalled \(the last failed trial: {message.format('trial')}\)"
    with pytest.raises(NonconvergenceError, match=stalled):
        solve_bvp(chart, pot, bd, h=bd.span / 100)


def test_boundary_validation():
    with pytest.raises(ValueError):
        BoundaryData(np.zeros(2), np.zeros(2), np.ones(2), np.zeros(2), 1.0, 1.0)
    bd = BoundaryData(np.array([0.0, 0.0]), np.zeros(2), np.array([6.0, 0.0]), np.zeros(2))
    with pytest.raises(ChartDomainError):
        solve_bvp(S2, ZeroPotential(S2), bd)


def make_family(chart):
    def family(lam):
        if lam == 0.0:
            return ZeroPotential(chart)
        return GaussianObstacle(chart, (0.5, 0.25), amplitude=lam, width=0.4)

    return family


def test_continuation_constant_family():
    bd = BoundaryData(np.array([0.0, 0.0]), np.array([0.3, -0.2]), np.array([1.0, 0.5]), np.array([-0.1, 0.4]))
    results = continuation_sweep(EUC2, lambda lam: ZeroPotential(EUC2), bd, [0.0, 0.0, 0.0], h=1.0 / 400)
    for res in results[1:]:
        assert np.max(np.abs(res.y - results[0].y)) < 1e-9
        assert np.max(np.abs(res.z - results[0].z)) < 1e-9


def test_continuation_trivial_grid():
    bd = BoundaryData(np.array([0.0, 0.0]), np.array([0.3, -0.2]), np.array([1.0, 0.5]), np.array([-0.1, 0.4]))
    swept = continuation_sweep(EUC2, make_family(EUC2), bd, [0.0], h=1.0 / 400)
    direct = solve_bvp(EUC2, ZeroPotential(EUC2), bd, h=1.0 / 400)
    assert len(swept) == 1
    assert np.max(np.abs(swept[0].y - direct.y)) < 1e-12
    assert np.max(np.abs(swept[0].z - direct.z)) < 1e-12


def test_continuation_growing_obstacle():
    bd = BoundaryData(np.array([0.0, 0.0]), np.array([0.3, -0.2]), np.array([1.0, 0.5]), np.array([-0.1, 0.4]))
    lams = [0.0, 0.5, 1.0, 1.5]
    family = make_family(EUC2)
    results = continuation_sweep(EUC2, family, bd, lams, h=1.0 / 500)
    actions = [float(action(r.trajectory)) for r in results]
    for res in results:
        assert res.residual <= 1e-8 * (1.0 + np.linalg.norm(np.concatenate([bd.q_b, bd.v_b])))
    assert all(a2 > a1 - 1e-12 for a1, a2 in zip(actions, actions[1:]))


def test_continuation_rejects_bad_grid():
    bd = BoundaryData(np.zeros(2), np.zeros(2), np.ones(2), np.zeros(2))
    with pytest.raises(ValueError):
        continuation_sweep(EUC2, make_family(EUC2), bd, [0.5, 1.0])
    with pytest.raises(ValueError):
        continuation_sweep(EUC2, make_family(EUC2), bd, [])


def test_multi_seed_dedup():
    bd = BoundaryData(np.array([0.0, 0.0]), np.array([0.3, -0.2]), np.array([1.0, 0.5]), np.array([-0.1, 0.4]))
    results = multi_seed_scan(EUC2, ZeroPotential(EUC2), bd, n_seeds=8, h=1.0 / 400)
    assert len(results) == 1  # the cubic interpolant is the only solution
    y_ref, z_ref = hermite_seed(bd)
    assert np.max(np.abs(results[0].y - y_ref)) < 1e-6
    assert np.max(np.abs(results[0].z - z_ref)) < 1e-6


@pytest.mark.parametrize("name", ["flat_obstacle", "sphere_obstacle", "rotation"])
def test_solve_returns_its_fused_pass(scenario, fd_jacobian, name):
    # the returned curve is the accepted trial's pass, its segments stitched:
    # each must equal a fresh integration from the jets it stores at its
    # breakpoint, and the jumps between them stay within the tolerance.
    # Its field bundle gives the condition number, and that Jacobian must
    # match central differences of biexp at the returned (y, z)
    chart, pot, bd = scenario(name)
    h = bd.span / 100
    res = solve_bvp(chart, pot, bd, h=h)
    got = res.trajectory
    S = bvp._SEGMENT_STEPS
    assert (got.segments, res.segments) == (100, len(segment_rows(100)))
    weights = bd.span ** np.arange(4.0)[:, None]
    jumps = []
    for lo in range(0, 100, S):
        hi = min(lo + S, 100)
        ref = integrate_ivp(chart, pot, got.state(lo), got.ts[hi] - got.ts[lo], h)
        for a, b in zip((got.ts, got.qs, got.vs, got.accs, got.jerks), (ref.ts, ref.qs, ref.vs, ref.accs, ref.jerks)):
            assert len(b) == hi - lo + 1
            assert np.max(np.abs(a[lo:hi] - b[:-1])) <= 1e-14
        jump = jets(ref, -1) - jets(got, hi)
        if hi < 100:
            jumps.append(np.linalg.norm(jump * weights))
        else:
            assert np.max(np.abs(jump)) <= 1e-14
    tol = 1e-8 * (1.0 + np.linalg.norm(np.concatenate([bd.q_b, bd.v_b])))
    assert abs(res.max_jump - max(jumps)) <= 1e-13 and res.max_jump <= tol
    J = shooting_jacobian(got)[0]
    sv = np.linalg.svd(J, compute_uv=False)
    assert res.jacobian_condition == pytest.approx(sv[0] / sv[-1], rel=1e-12)
    J_fd = fd_jacobian(chart, pot, bd.q_a, bd.v_a, res.y, res.z, bd.span, h)
    # the two linearizations differ by the RK4 error of the fields, here
    # 1.9e-7 relative on sphere_obstacle at 100 steps
    assert np.linalg.norm(J - J_fd) <= 1e-6 * np.linalg.norm(J_fd)


def test_solve_makes_one_flow_pass_per_trial(scenario, monkeypatch):
    calls = [0]
    step = dynamics._rk4_step

    def counted(*args):
        calls[0] += 1
        return step(*args)

    monkeypatch.setattr(dynamics, "_rk4_step", counted)
    for name in ("flat_obstacle", "well_top"):
        chart, pot, bd = scenario(name)
        calls[0] = 0
        h = bd.span / 2000
        res = solve_bvp(chart, pot, bd, h=h)
        steps, _ = grid_steps(bd.span, h)
        # the 125 segments of the grid march as the rows of one pass: a
        # pass costs one segment's 16 steps
        assert (res.steps, res.segments, res.coarse_iterations) == (steps, len(segment_rows(steps)), 0)
        if name == "well_top":
            # the seed converges on the solve's grid: its pass is the only one
            assert res.iterations == 0
            assert calls[0] == bvp._SEGMENT_STEPS
            continue
        # the seed's pass, then one per accepted trial: no line-search
        # rejections here
        assert res.iterations == 2
        assert calls[0] == bvp._SEGMENT_STEPS * (1 + res.iterations)


def test_solve_step_control(scenario, monkeypatch):
    passes = []
    flow = bvp._flow

    def counted(chart, pot, groups):
        passes.append([g[3] for g in groups])  # the step count of each row group
        return flow(chart, pot, groups)

    monkeypatch.setattr(bvp, "_flow", counted)
    floor = 2 * bvp._PILOT_STEPS
    for name in ("flat_obstacle", "well_top"):
        chart, pot, bd = scenario(name)
        passes.clear()
        res = solve_bvp(chart, pot, bd)
        N = res.steps
        assert N % 2 == 0 and N >= floor
        assert res.trajectory.segments == N
        assert res.tol == bvp._STEP_TOL
        assert res.estimate <= res.tol and res.field_estimate <= res.tol
        assert res.field_steps == res.trajectory.field_steps and res.field_steps % N == 0
        # Newton converges on the pilot grid, each pass with its twin, then
        # finishes on N: the coarse solution's pass (none when N is the
        # pilot grid, whose pass is reused) and one per accepted trial,
        # each with its half-grid twin, and none on N/2 alone.  Every pass
        # marches one row per 16-step segment, and each twin row half that
        fine = res.iterations - res.coarse_iterations
        start = 0 if N == floor else 1

        def rows(N):
            return segment_rows(N) + [m // 2 for m in segment_rows(N)]

        assert passes == [rows(floor)] * (1 + res.coarse_iterations) + [rows(N)] * (start + fine)
        if name == "well_top":
            # the seed converges at once on the pilot grid, which is N:
            # the pilot pass is the only one
            assert res.iterations == 0 and len(passes) == 1
        else:
            # the pilot solution's jets, interpolated at N's breakpoints,
            # jump by more than the tolerance: one iteration on N
            assert (res.coarse_iterations, fine) == (2, 1)
        # the recorded estimates are the ones at the returned unknowns: the
        # curve's against its twin on its field grid, and the field grid's
        full = segment_shot(chart, pot, bd, res.trajectory, twin=True)
        assert res.estimate == bvp._richardson(full, full.twin())
        traj, field_estimate = bvp.field_grid(full.trajectory)
        assert (res.field_steps, res.field_estimate) == (traj.field_steps, field_estimate)
        if name == "flat_obstacle":
            assert N <= 256
        else:
            # a curve at rest has an exact endpoint and Jacobian coefficient
            # on any grid: N stays at the floor, and the Jacobian alone asks
            # for more field steps than that
            assert N == floor and res.field_steps > floor

        # an explicit step makes no selection pass, no twin and no coarse
        # stage: the seed's pass on the solve's grid, then one per trial
        passes.clear()
        fixed = solve_bvp(chart, pot, bd, h=bd.span / 100)
        assert fixed.coarse_iterations == 0
        if name == "well_top":
            assert passes == [segment_rows(100)] and fixed.iterations == 0
        else:
            assert fixed.iterations == 2
            assert passes == [segment_rows(100)] * 3
        assert (fixed.steps, fixed.field_steps, fixed.estimate, fixed.field_estimate, fixed.tol) == (
            100, 100, None, None, None
        )


@pytest.mark.parametrize("name", ["well_top", "well_top_long"])
def test_a_curve_at_rest_plans_on_its_pilot_pass(scenario, monkeypatch, name):
    # error control refines the field grid, not the curve, for the
    # Jacobian's sake: one pass of the 64-step pilot grid's four segments,
    # 16 RK4 steps, where one row took 64 and one grid for both 642 and 1,382
    calls = [0]
    step = dynamics._rk4_step

    def counted(*args):
        calls[0] += 1
        return step(*args)

    monkeypatch.setattr(dynamics, "_rk4_step", counted)
    chart, pot, bd = scenario(name)
    res = solve_bvp(chart, pot, bd)
    assert res.steps == 2 * bvp._PILOT_STEPS and calls[0] == bvp._SEGMENT_STEPS
    assert res.field_steps > res.steps and res.field_estimate <= bvp._STEP_TOL


def test_fixed_step_fields_march_on_the_curve_grid(scenario):
    # a fixed step keeps one grid for both: the shooting Jacobian is the
    # node/midpoint march of the curve's own grid, bit for bit
    chart, pot, bd = scenario("sphere_obstacle")
    res = solve_bvp(chart, pot, bd, h=bd.span / 100)
    traj = res.trajectory
    assert res.field_steps == res.steps == traj.segments == 100
    mids = traj.interpolate(traj.ts[:-1] + 0.5 * traj.h)
    states = CurveState(
        None, *(np.concatenate(ab) for ab in zip((traj.qs, traj.vs, traj.accs, traj.jerks), (mids.q, mids.v, mids.a, mids.j)))
    )
    A = jacobi_operator(chart, pot, states)
    nodes, mid_ops = A[:101], A[101:]
    n = chart.dim
    u = rk4.march(nodes[:-1], mid_ops, nodes[1:], traj.h, _flat(_basis_bundle(n)), traj.ts, "blew up")[-1]
    u = u.reshape(2 * n, 4, n)
    J = np.concatenate([u[:, 0], u[:, 1] - chart.gamma(traj.qs[-1], traj.vs[-1], u[:, 0])], axis=1).T
    assert np.array_equal(shooting_jacobian(traj)[0], J)


def _direct_newton(chart, pot, bd, seed, steps, twin=False):
    """Newton on ``steps`` steps from ``seed`` with no coarse stage:
    (x, shot, residual, iterations)."""
    target = np.concatenate([bd.q_b, bd.v_b])
    tol = 1e-8 * (1.0 + np.linalg.norm(target))

    def shoot(x):
        return bvp._request(chart, bd, steps, x, twin)

    def run():
        x = bvp._unknowns(bd, steps, *seed)
        shot = yield shoot(x)
        return (yield from bvp._newton(shoot, shot, x, target, tol, 50))

    [(out, error)] = bvp._lockstep(chart, pot, [run()])
    if error is not None:
        raise error
    return out


def _single_shooting(chart, pot, bd, seed, steps):
    """Damped Newton on the bi-exponential map of one row of ``steps``
    steps, its Jacobian ``shooting_jacobian``: the (y, z) it converges to."""
    target = np.concatenate([bd.q_b, bd.v_b])
    tol = 1e-8 * (1.0 + np.linalg.norm(target))

    def miss(yz):
        traj = integrate_ivp(chart, pot, CurveState(bd.a, bd.q_a, bd.v_a, *np.split(yz, 2)), bd.span, bd.span / steps)
        return traj, np.concatenate([traj.qs[-1], traj.vs[-1]]) - target

    yz = np.concatenate(seed)
    traj, r = miss(yz)
    for _ in range(50):
        if np.linalg.norm(r) <= tol:
            return yz
        step, t = np.linalg.solve(shooting_jacobian(traj)[0], -r), 1.0
        for _ in range(20):
            try:
                trial = miss(yz + t * step)
            except (ChartEscapeError, NumericalError):
                t *= 0.5
                continue
            if np.linalg.norm(trial[1]) < np.linalg.norm(r):
                break
            t *= 0.5
        else:
            raise NonconvergenceError("single shooting stalled")
        yz, (traj, r) = yz + t * step, trial
    raise NonconvergenceError("single shooting did not converge")


def test_mesh_sequencing_step_budget(scenario, monkeypatch):
    # a pass costs one segment's 16 steps.  Under error control Newton
    # converges on the pilot grid and finishes on N: 112 RK4 steps, 1,412
    # with one row per pass; at step 0.02 Newton runs on N alone: 80 steps,
    # 588 with one row and a coarse stage
    calls = [0]
    step = dynamics._rk4_step

    def counted(*args):
        calls[0] += 1
        return step(*args)

    monkeypatch.setattr(dynamics, "_rk4_step", counted)
    chart, pot, bd = scenario("sphere_obstacle")
    for h, budget in ((None, 120), (0.02, 88)):
        calls[0] = 0
        res = solve_bvp(chart, pot, bd, h=h)
        assert (res.coarse_iterations > 0) == (h is None)
        assert calls[0] <= budget


def test_coarse_failure_falls_back_to_the_fine_grid(scenario, monkeypatch):
    # error control: Newton meets a critical point on the pilot grid; N is
    # predicted from the seed's estimate and Newton runs there from the seed
    chart, pot, bd = scenario("flat_obstacle")
    seed = hermite_seed(bd)
    pilot = 2 * bvp._PILOT_STEPS
    req = bvp._request(chart, bd, pilot, bvp._unknowns(bd, pilot, *seed), twin=True)
    start = req.finish(dynamics._flow(chart, pot, req.rows))
    N = bvp._predict_steps(pilot, start.estimate)
    x, shot, rn, its = _direct_newton(chart, pot, bd, seed, N, twin=True)
    estimate = bvp._richardson(shot, shot.twin())
    assert estimate <= bvp._STEP_TOL  # so N does not double
    newton = bvp._newton

    def coarse_critical(shoot, shot, *args):
        if shot.trajectory.segments == pilot:
            raise CriticalPointError("coarse")
        return (yield from newton(shoot, shot, *args))

    monkeypatch.setattr(bvp, "_newton", coarse_critical)
    res = solve_bvp(chart, pot, bd)
    assert (res.steps, res.coarse_iterations, res.iterations, res.estimate) == (N, 0, its, estimate)
    assert np.array_equal(res.y, x[:2]) and np.array_equal(res.z, x[2:4]) and res.residual == rn


SEQUENCING_POT = GaussianObstacle(S2, (0.4, 0.2), amplitude=1.0, width=0.6)
SEQUENCING_START = CurveState(0.0, np.array([-0.3, 0.1]), np.array([0.5, 0.2]), np.array([0.2, -0.3]), np.array([0.1, 0.4]))
SEQUENCING_STEPS = 128


def _sequencing_boundary():
    """The endpoints of SEQUENCING_START's curve over [0, 1] on the fine grid."""
    end = integrate_ivp(S2, SEQUENCING_POT, SEQUENCING_START, 1.0, h=1.0 / SEQUENCING_STEPS)
    return BoundaryData(SEQUENCING_START.q, SEQUENCING_START.v, end.qs[-1], end.vs[-1], 0.0, 1.0)


SEQUENCING_BOUNDARY = _sequencing_boundary()


@settings(max_examples=6)
@given(offset=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4))
def test_multiple_shooting_matches_single_shooting(offset):
    # from a perturbed seed, Newton on the 8 segments of the grid lands on
    # the solution that Newton on one row of it, single shooting on the
    # bi-exponential map, reaches
    bd, start = SEQUENCING_BOUNDARY, SEQUENCING_START
    seed = (start.a + np.array(offset[:2]), start.j + np.array(offset[2:]))
    try:
        single = _single_shooting(S2, SEQUENCING_POT, bd, seed, SEQUENCING_STEPS)
        res = solve_bvp(S2, SEQUENCING_POT, bd, seed=seed, h=1.0 / SEQUENCING_STEPS)
    except (NonconvergenceError, CriticalPointError, ChartEscapeError):
        assume(False)
    assert res.segments == SEQUENCING_STEPS // bvp._SEGMENT_STEPS
    tol = 1e-8 * (1.0 + np.linalg.norm(np.concatenate([bd.q_b, bd.v_b])))
    gap = np.linalg.norm(np.concatenate([res.y, res.z]) - single)
    assert gap <= 10.0 * tol


def test_multi_seed_scan_matches_sequential_solves():
    # the seeds march in lockstep; each must get the bits a solve of its
    # own gives it, also where the potential refuses some seed's curve,
    # which ends the whole pass that curve rides in.  The solutions run
    # along the axis; the fence refuses the seeds whose passes stray from it
    class Fenced(GaussianObstacle):
        def gradient(self, x):
            if np.any(np.abs(x[..., 1]) > 0.05):
                raise InjectivityError("outside the fence")
            return super().gradient(x)

    pot = Fenced(EUC2, (0.5, 0.0), amplitude=2.0, width=0.2)
    bd = BoundaryData(np.zeros(2), np.array([1.0, 0.0]), np.array([1.0, 0.0]), np.array([1.0, 0.0]))
    h, n_seeds = 0.01, 8
    ranked = multi_seed_scan(EUC2, pot, bd, n_seeds=n_seeds, h=h)

    y0, z0 = hermite_seed(bd)
    scale = 1.0 + float(np.linalg.norm(np.concatenate([y0, z0])))
    rng = np.random.default_rng(0)
    seeds = [(y0, z0)] + [(y0 + dy, z0 + dz) for dy, dz in (rng.normal(size=(2, 2)) * scale for _ in range(n_seeds - 1))]
    alone, refused = {}, 0
    for seed in seeds:
        try:
            res = solve_bvp(EUC2, pot, bd, seed=seed, h=h)
        except InjectivityError:
            refused += 1
            continue
        alone.setdefault(tuple(np.round(np.concatenate([res.y, res.z]) / 1e-5).astype(np.int64).tolist()), res)
    assert refused > 0 and alone
    expected = sorted(alone.values(), key=lambda r: action(r.trajectory))
    assert len(ranked) == len(expected)
    for got, want in zip(ranked, expected):
        assert np.array_equal(got.y, want.y) and np.array_equal(got.z, want.z)
        assert (got.iterations, got.coarse_iterations, got.residual) == (want.iterations, want.coarse_iterations, want.residual)


# (chart, potential, p, v, window) of the property test below
ESTIMATE_CASES = {
    "euclidean2-gaussian": (
        EUC2, GaussianObstacle(EUC2, (0.5, 0.25), amplitude=1.0, width=0.4),
        np.array([0.0, 0.0]), np.array([0.3, -0.2]), 1.0,
    ),
    "sphere2": (S2, ZeroPotential(S2), np.array([-0.8, 0.1]), np.array([0.5, 0.2]), 2.0),
}


@settings(max_examples=30)
@given(
    case=st.sampled_from(sorted(ESTIMATE_CASES)),
    yz=st.lists(st.floats(-1.5, 1.5), min_size=4, max_size=4),
)
def test_step_estimate_is_not_optimistic(case, yz):
    # each step-doubling estimate against the actual error it estimates, in
    # the same norm: the curve's, a pass of the four segments of N steps
    # from the jets of the N-step curve against its twin, against a curve
    # 4x finer, the Jacobians of both curves marched on one common field
    # grid; the field grid's on M and M/2 steps against a field grid 4x
    # finer on the same curve
    chart, pot, p, v, T = ESTIMATE_CASES[case]
    y, z = np.array(yz[:2]), np.array(yz[2:])
    N = 2 * bvp._PILOT_STEPS
    try:
        curve, fine = (integrate_ivp(chart, pot, CurveState(0.0, p, v, y, z), T, T / k) for k in (N, 4 * N))
        shot = segment_shot(chart, pot, BoundaryData(p, v, curve.qs[-1], curve.vs[-1], 0.0, T), curve, twin=True)
        estimate = bvp._richardson(shot, shot.twin())
        traj, field_estimate = shot.fields
    except ChartEscapeError:
        assume(False)
    assert len(shot.segments) == 4 and np.array_equal(shot.trajectory.qs, curve.qs)
    r = traj.field_refinement

    def jacobian(trajectory, refinement):
        return shooting_jacobian(replace(trajectory, field_refinement=refinement))[0]

    J, J_fine = jacobian(curve, 4 * r), jacobian(fine, r)
    end = np.concatenate([fine.qs[-1], fine.vs[-1]])
    error = max(
        np.linalg.norm(shot.end - end) / (1.0 + np.linalg.norm(shot.end)),
        np.linalg.norm(J - J_fine) / np.linalg.norm(J),
    )
    assert error / 10.0 <= estimate <= 10.0 * error
    J = shooting_jacobian(traj)[0]
    field_error = np.linalg.norm(J - jacobian(shot.trajectory, 4 * r)) / np.linalg.norm(J)
    assert field_error / 10.0 <= field_estimate <= 10.0 * field_error


def test_cap_touching_shot_has_a_finite_jacobian():
    # a radial geodesic on the capped disk, timed to end exactly on the cap:
    # the trial stays in the chart, and its Jacobian, marched along the
    # trial's own curve, needs no perturbed curve that could leave it
    V = ZeroPotential(H2)
    p, v, y, z = np.array([0.5, 0.0]), np.array([1.0, 0.0]), np.zeros(2), np.zeros(2)
    lo, hi = 0.1, 3.0
    for _ in range(50):
        T = 0.5 * (lo + hi)
        try:
            biexp(H2, V, p, v, y, z, T, h=T / 16)
            lo = T
        except ChartEscapeError:
            hi = T
    T = lo
    q, qd = biexp(H2, V, p, v, y, z, T, h=T / 16)
    shot = shoot(H2, V, p, v, y, z, T, 16)
    assert np.array_equal(shot.end, np.concatenate([q, qd]))
    assert np.array_equal(shot.trajectory.qs[-1], q)
    J = biexp_jacobian(H2, V, p, v, y, z, T, h=T / 16)
    [block], _ = shot.linearization
    assert np.all(np.isfinite(J)) and np.allclose(block[:4], J, rtol=1e-13, atol=1e-15)
    assert np.linalg.matrix_rank(J) == 4
    # seeded at the exact solution: the solve converges at once and reports
    # the condition number of that Jacobian
    bd = BoundaryData(p, v, q, qd, 0.0, T)
    res = solve_bvp(H2, V, bd, seed=(y, z), h=T / 16)
    assert res.iterations == 0 and res.residual == 0.0
    sv = np.linalg.svd(J, compute_uv=False)
    assert res.jacobian_condition == sv[0] / sv[-1]
