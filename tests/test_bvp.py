"""Shooting solver and the endpoint map it inverts.

Flat space with V = 0 is fully closed-form (cubic interpolation), so most
assertions there are at 1e-9.  Curved/obstacle cases are validated by
round trips through the initial-value integrator.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from riemplan import (
    BoundaryData,
    ChartDomainError,
    ChartEscapeError,
    CurveState,
    GaussianObstacle,
    NonconvergenceError,
    ZeroPotential,
    action,
    biexp,
    biexp_jacobian,
    continuation_sweep,
    integrate_ivp,
    multi_seed_scan,
    parse_manifold,
    solve_bvp,
)
from riemplan import bvp, dynamics
from riemplan.bvp import hermite_seed
from riemplan.dynamics import grid_steps

EUC1 = parse_manifold("euclidean:1")
EUC2 = parse_manifold("euclidean:2")
S2 = parse_manifold("sphere2")
H2 = parse_manifold("hyperbolic2")


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


def test_jacobian_fd_richardson():
    # rebuild the stencil at half step; entries must already be settled
    pot = GaussianObstacle(EUC2, (0.5, 0.25), amplitude=1.0, width=0.4)
    p = np.array([0.2, 0.1])
    v = np.array([0.4, -0.3])
    y = np.array([0.3, 0.2])
    z = np.array([-0.5, 0.6])
    t, h = 0.6, 0.6 / 300
    J = biexp_jacobian(EUC2, pot, p, v, y, z, t, h=h)
    step = 0.5 * 1e-5 * (1.0 + float(np.linalg.norm(np.concatenate([y, z]))))
    J2 = np.empty((4, 4))
    for c in range(4):
        dy = np.zeros(2)
        dz = np.zeros(2)
        (dy if c < 2 else dz)[c % 2] = step
        qp, qdp = biexp(EUC2, pot, p, v, y + dy, z + dz, t, h=h)
        qm, qdm = biexp(EUC2, pot, p, v, y - dy, z - dz, t, h=h)
        J2[:, c] = np.concatenate([qp - qm, qdp - qdm]) / (2.0 * step)
    assert np.max(np.abs(J - J2)) / np.max(np.abs(J)) < 1e-6


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
    for _ in range(10):
        seed = (ref.y + rng.normal(scale=0.5, size=2), ref.z + rng.normal(scale=0.5, size=2))
        res = solve_bvp(S2, pot, bd, seed=seed, h=h)
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
    actions = [float(action(EUC2, family(l), r.trajectory)) for l, r in zip(lams, results)]
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
def test_solve_returns_its_fused_pass(scenario, name):
    # the returned curve and condition number come from the accepted trial's
    # pass; they must equal a fresh integration and a fresh Jacobian there
    chart, pot, bd = scenario(name)
    h = bd.span / 100
    res = solve_bvp(chart, pot, bd, h=h)
    ref = integrate_ivp(chart, pot, CurveState(bd.a, bd.q_a, bd.v_a, res.y, res.z), bd.span, h)
    got = res.trajectory
    for a, b in zip(
        (got.ts, got.qs, got.vs, got.accs, got.jerks),
        (ref.ts, ref.qs, ref.vs, ref.accs, ref.jerks),
    ):
        assert a.shape == b.shape
        assert np.max(np.abs(a - b)) <= 1e-14
    sv = np.linalg.svd(
        biexp_jacobian(chart, pot, bd.q_a, bd.v_a, res.y, res.z, bd.span, h), compute_uv=False
    )
    assert res.jacobian_condition == pytest.approx(sv[0] / sv[-1], rel=1e-12)


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
        # the seed's pass, then one per accepted trial: no line-search rejections here
        assert calls[0] == steps * (1 + res.iterations)
        assert res.iterations == (0 if name == "well_top" else 2)


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
        assert res.estimate <= res.tol
        # one pilot pass with its twin comes first; every pass carries its
        # half-grid twin, so none is made on N/2 alone, and the last is on N
        assert passes[0] == [floor, bvp._PILOT_STEPS]
        assert all(p == [p[0], p[0] // 2] for p in passes)
        assert passes[-1] == [N, N // 2]
        if name == "well_top":
            # the seed converges at once: the pilot pass, then the seed's on N
            assert res.iterations == 0 and len(passes) == 2
        # the recorded estimate is the one at the returned (y, z)
        full, half = (
            bvp._shoot(chart, pot, bd.q_a, bd.v_a, res.y, res.z, bd.span, k, bd.a) for k in (N, N // 2)
        )
        assert res.estimate == bvp._richardson(full, half)
        if name == "flat_obstacle":
            assert N <= 256
        else:
            # a curve at rest has an exact endpoint on any grid: its
            # Jacobian alone asks for more than the floor
            assert N > floor

        # an explicit step makes no selection pass and no twin
        passes.clear()
        fixed = solve_bvp(chart, pot, bd, h=bd.span / 100)
        assert passes == [[100]] * (1 + fixed.iterations)
        assert (fixed.steps, fixed.estimate, fixed.tol) == (100, None, None)


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
    # the step-doubling estimate on N and N/2 steps against the actual error
    # of the N-step shot, measured in the same norm against a shot 4x finer
    chart, pot, p, v, T = ESTIMATE_CASES[case]
    y, z = np.array(yz[:2]), np.array(yz[2:])
    N = 2 * bvp._PILOT_STEPS
    try:
        half, shot, fine = (bvp._shoot(chart, pot, p, v, y, z, T, k) for k in (N // 2, N, 4 * N))
        estimate = bvp._richardson(shot, half)
        J, J_fine = shot.jacobian(), fine.jacobian()
    except ChartEscapeError:
        assume(False)
    error = max(
        np.linalg.norm(shot.end - fine.end) / (1.0 + np.linalg.norm(shot.end)),
        np.linalg.norm(J - J_fine) / np.linalg.norm(J),
    )
    assert error / 10.0 <= estimate <= 10.0 * error


def test_perturbation_escape_surfaces_only_with_the_jacobian():
    # a radial geodesic on the capped disk, timed to end exactly on the cap:
    # the trial stays in the chart, a perturbation row leaves it
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
    shot = bvp._shoot(H2, V, p, v, y, z, T, 16)
    assert np.array_equal(shot.end, np.concatenate([q, qd]))
    assert np.array_equal(shot.trajectory.qs[-1], q)
    with pytest.raises(ChartEscapeError):
        shot.jacobian()
    with pytest.raises(ChartEscapeError) as err:
        biexp_jacobian(H2, V, p, v, y, z, T, h=T / 16)
    assert 0.0 < err.value.escape_time <= T
    # seeded at the exact solution: the solve converges at once and then
    # needs the Jacobian for its condition number
    bd = BoundaryData(p, v, q, qd, 0.0, T)
    with pytest.raises(ChartEscapeError):
        solve_bvp(H2, V, bd, seed=(y, z), h=T / 16)
    # no iteration allowed: the Jacobian is never used, so the iteration cap
    # is reported instead of the escape
    with pytest.raises(NonconvergenceError):
        solve_bvp(H2, V, bd, seed=(y, z), h=T / 16, max_iter=0)
