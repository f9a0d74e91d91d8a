"""Direct-minimization oracle.

The discrete action is checked against hand integrals, its analytic
gradient against central differences of the action itself, and the
minimizer against the closed-form flat cubic.  Nothing in this module
may assume the shooting solver is correct; where a solved trajectory
appears, the agreement between the two routes is the thing under test.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from riemplan import (
    BoundaryData,
    ChartDomainError,
    CurveState,
    GaussianObstacle,
    NonconvergenceError,
    PlannerError,
    ZeroPotential,
    action,
    integrate_ivp,
    parse_manifold,
    solve_bvp,
)
from riemplan import bvp, oracle
from riemplan.oracle import (
    DiscretePath,
    _banded_hessian,
    check_uniqueness_props,
    compare_with_trajectory,
    discrete_action,
    discrete_gradient,
    minimize_discrete,
)

RNG = np.random.default_rng(11)

EUC1 = parse_manifold("euclidean:1")
EUC2 = parse_manifold("euclidean:2")
S2 = parse_manifold("sphere2")
SO3 = parse_manifold("so3")

FLAT_BD = BoundaryData((0.0, 0.0), (0.3, -0.2), (1.0, 0.5), (-0.1, 0.4))


def hermite(bd, ts):
    """Closed-form cubic matching the boundary jets, sampled at ts."""
    s = ((np.asarray(ts) - bd.a) / bd.span)[:, None]
    tau = bd.span
    h00 = (1 + 2 * s) * (1 - s) ** 2
    h10 = s * (1 - s) ** 2
    h01 = s * s * (3 - 2 * s)
    h11 = s * s * (s - 1)
    return h00 * bd.q_a + tau * h10 * bd.v_a + h01 * bd.q_b + tau * h11 * bd.v_b


def sampled(bd, N, fn):
    ts = bd.a + (bd.span / N) * np.arange(N + 1)
    return DiscretePath(ts, np.atleast_2d(np.stack([fn(t) for t in ts])), bd)


@functools.cache
def flat_min():
    return minimize_discrete(EUC2, ZeroPotential(EUC2), FLAT_BD, 400)


@functools.cache
def bump_min():
    pot = GaussianObstacle(EUC2, (0.5, 0.25), amplitude=1.0, width=0.4)
    return pot, minimize_discrete(EUC2, pot, FLAT_BD, 64)


def test_from_free_reproduces_end_constraints():
    N = 12
    free = RNG.normal(size=(N - 3, 2))
    p = DiscretePath.from_free(FLAT_BD, N, free)
    h = p.h
    # the eliminated nodes encode second-order one-sided velocity stencils
    va = (-3 * p.qs[0] + 4 * p.qs[1] - p.qs[2]) / (2 * h)
    vb = (3 * p.qs[N] - 4 * p.qs[N - 1] + p.qs[N - 2]) / (2 * h)
    assert np.max(np.abs(va - FLAT_BD.v_a)) < 1e-12
    assert np.max(np.abs(vb - FLAT_BD.v_b)) < 1e-12
    assert np.max(np.abs(p.free_block() - free)) == 0.0
    assert p.segments == N and abs(p.h - 1.0 / N) < 1e-15


def test_straight_line_action_vanishes():
    v = np.array([0.4, -0.2])
    bd = BoundaryData((0.0, 0.0), v, 1.5 * v, v, b=1.5)
    p = sampled(bd, 200, lambda t: t * v)
    assert abs(discrete_action(EUC2, ZeroPotential(EUC2), p)) < 1e-12


def test_sampled_cubic_action_value():
    bd = BoundaryData((0.0,), (0.0,), (1.0 / 6.0,), (0.5,))
    p = sampled(bd, 2000, lambda t: np.array([t**3 / 6.0]))
    val = discrete_action(EUC1, ZeroPotential(EUC1), p)
    assert abs(val - 1.0 / 6.0) < 1e-4


def test_positive_potential_increases_action():
    bd = BoundaryData((0.0,), (0.0,), (1.0 / 6.0,), (0.5,))
    p = sampled(bd, 400, lambda t: np.array([t**3 / 6.0]))
    base = discrete_action(EUC1, ZeroPotential(EUC1), p)
    pot = GaussianObstacle(EUC1, (0.1,), amplitude=0.7, width=0.3)
    assert discrete_action(EUC1, pot, p) > base


def test_node_outside_chart_raises():
    far = np.array([6.0, 0.0])
    bd = BoundaryData((0.0, 0.0), (0.0, 0.0), far, (0.0, 0.0))
    p = sampled(bd, 40, lambda t: t * far)
    with pytest.raises(ChartDomainError):
        discrete_action(S2, ZeroPotential(S2), p)


def fd_gradient(chart, pot, bd, N, free, eps=1e-6):
    base = np.asarray(free, float).ravel()
    g = np.empty_like(base)
    for i in range(base.size):
        up = base.copy()
        up[i] += eps
        dn = base.copy()
        dn[i] -= eps
        g[i] = (
            discrete_action(chart, pot, DiscretePath.from_free(bd, N, up))
            - discrete_action(chart, pot, DiscretePath.from_free(bd, N, dn))
        ) / (2 * eps)
    return g.reshape(np.shape(free))


def test_gradient_matches_fd_flat():
    N = 14
    pot = GaussianObstacle(EUC2, (0.5, 0.25), amplitude=1.0, width=0.4)
    free = hermite(FLAT_BD, FLAT_BD.a + (FLAT_BD.span / N) * np.arange(2, N - 1))
    free = free + 0.1 * RNG.normal(size=free.shape)
    g = discrete_gradient(EUC2, pot, DiscretePath.from_free(FLAT_BD, N, free))
    gf = fd_gradient(EUC2, pot, FLAT_BD, N, free)
    assert np.max(np.abs(g - gf)) < 1e-6 * (1.0 + np.max(np.abs(gf)))


def test_gradient_matches_fd_sphere():
    # curved chart: the metric, connection and their derivatives all enter
    N = 12
    bd = BoundaryData((-0.8, 0.1), (0.5, 0.2), (0.9, 0.4), (0.1, -0.3), b=2.0)
    pot = GaussianObstacle(S2, (0.6, -0.3), amplitude=1.0, width=0.7)
    free = hermite(bd, bd.a + (bd.span / N) * np.arange(2, N - 1))
    free = free + 0.05 * RNG.normal(size=free.shape)
    g = discrete_gradient(S2, pot, DiscretePath.from_free(bd, N, free))
    gf = fd_gradient(S2, pot, bd, N, free)
    assert np.max(np.abs(g - gf)) < 1e-6 * (1.0 + np.max(np.abs(gf)))


# one chart per coordinate count n = 1, 2, 3, with an obstacle so that
# the potential's Hessian enters the band
HESSIAN_CASES = {
    "euclidean1": (EUC1, BoundaryData((0.0,), (0.0,), (0.3,), (0.1,)), (0.25,)),
    "sphere2": (
        S2, BoundaryData((-0.8, 0.1), (0.5, 0.2), (0.9, 0.4), (0.1, -0.3), b=2.0), (0.6, -0.3)
    ),
    "so3": (
        SO3,
        BoundaryData((0.1, -0.2, 0.15), (0.4, 0.1, -0.3), (0.9, 0.3, -0.4), (0.1, -0.2, 0.2), b=1.5),
        (0.5, 0.0, -0.1),
    ),
}


def counted_gradient_at_seed(name, N):
    """Flat-vector gradient callback, its call log, and a perturbed Hermite seed."""
    chart, bd, center = HESSIAN_CASES[name]
    pot = GaussianObstacle(chart, center, amplitude=1.0, width=0.6)
    calls = []

    def grad(x):
        calls.append(1)
        return discrete_gradient(chart, pot, DiscretePath.from_free(bd, N, x)).ravel()

    free = hermite(bd, bd.a + (bd.span / N) * np.arange(2, N - 1))
    u = (free + 0.05 * RNG.normal(size=free.shape)).ravel()
    return grad, calls, u, chart.dim


@pytest.mark.parametrize("name", list(HESSIAN_CASES))
def test_banded_hessian_matches_dense(name):
    grad, _, u, n = counted_gradient_at_seed(name, 16)
    ab = _banded_hessian(grad, u, n)
    # reference: one centred column per coordinate, same step rule
    dim = u.size
    dense = np.empty((dim, dim))
    for i in range(dim):
        e = 1e-6 * (1.0 + abs(u[i]))
        up, um = u.copy(), u.copy()
        up[i] += e
        um[i] -= e
        dense[:, i] = (grad(up) - grad(um)) / (2.0 * e)
    dense = 0.5 * (dense + dense.T)
    nodes = np.arange(dim) // n
    far = np.abs(nodes[:, None] - nodes[None, :]) > 2
    assert np.all(dense[far] == 0.0) and np.all(np.diag(dense) != 0.0)
    full = np.zeros((dim, dim))
    for d in range(3 * n):
        j = np.arange(dim - d)
        full[j + d, j] = full[j, j + d] = ab[d, : dim - d]
        assert np.all(ab[d, dim - d :] == 0.0)
    assert np.array_equal(full, dense)


@pytest.mark.parametrize("N", [48, 96])
@pytest.mark.parametrize("name", list(HESSIAN_CASES))
def test_banded_hessian_gradient_calls_independent_of_grid(name, N):
    grad, calls, u, n = counted_gradient_at_seed(name, N)
    _banded_hessian(grad, u, n)
    assert len(calls) == 10 * n


def test_minimize_flat_recovers_cubic():
    """In flat space with V=0 the unique minimizer is the Hermite cubic."""
    p = flat_min()
    assert p.grad_sup is not None and p.grad_sup <= 1e-7
    sup = np.max(np.abs(p.qs - hermite(FLAT_BD, p.ts)))
    assert sup < 2e-3


def test_minimize_seed_short_circuits():
    p = flat_min()
    again = minimize_discrete(EUC2, ZeroPotential(EUC2), FLAT_BD, 400, seed=p)
    assert again.iterations <= 2
    assert np.max(np.abs(again.qs - p.qs)) < 1e-7


def test_minimize_rejects_tiny_grid():
    with pytest.raises(ValueError, match="six segments"):
        minimize_discrete(EUC2, ZeroPotential(EUC2), FLAT_BD, 5)


def test_minimize_rejects_unknown_method():
    with pytest.raises(ValueError, match="unknown method"):
        minimize_discrete(EUC2, ZeroPotential(EUC2), FLAT_BD, 40, method="cg")
    with pytest.raises(ValueError, match="unknown method"):
        minimize_discrete(EUC2, ZeroPotential(EUC2), FLAT_BD, 40, method="lbfgs")


def test_minimize_iteration_cap_attaches_best():
    pot = GaussianObstacle(EUC2, (0.5, 0.25), amplitude=1.0, width=0.4)
    with pytest.raises(NonconvergenceError) as err:
        minimize_discrete(EUC2, pot, FLAT_BD, 48, method="gd", maxiter=5)
    best = err.value.best
    assert isinstance(best, DiscretePath)
    assert best.iterations == 5
    assert best.grad_sup > 1e-7


def test_gd_agrees_with_quasi_newton():
    bd = BoundaryData((0.0,), (0.0,), (0.3,), (0.1,))
    pot = GaussianObstacle(EUC1, (0.25,), amplitude=0.3, width=0.4)
    a = minimize_discrete(EUC1, pot, bd, 12, method="gd", gtol=1e-5)
    b = minimize_discrete(EUC1, pot, bd, 12, gtol=1e-7)
    assert a.grad_sup <= 1e-5
    assert np.max(np.abs(a.qs - b.qs)) < 1e-4


@pytest.mark.parametrize(
    "name,chart,pot_center,state,T",
    [
        ("flat", EUC2, (0.5, 0.25), ((0.0, 0.0), (0.3, -0.2), (0.2, 0.1), (-0.4, 0.3)), 1.0),
        ("sphere", S2, (0.6, -0.3), ((-0.8, 0.1), (0.5, 0.2), (0.3, -0.1), (0.1, 0.2)), 1.5),
    ],
)
def test_discretization_consistency_order(name, chart, pot_center, state, T):
    """discrete_action(sampled curve) converges to the quadrature action at O(N^-2)."""
    pot = GaussianObstacle(chart, pot_center, amplitude=0.8, width=0.6)
    q, v, acc, j = (np.array(x) for x in state)
    traj = integrate_ivp(chart, pot, CurveState(0.0, q, v, acc, j), T, h=T / 512)
    ref = action(chart, pot, traj)
    bd = BoundaryData(traj.qs[0], traj.vs[0], traj.qs[-1], traj.vs[-1], b=T)
    errs = []
    for N in (64, 128, 256):
        ts = (T / N) * np.arange(N + 1)
        qs = np.stack([traj.interpolate(float(t)).q for t in ts])
        errs.append(abs(discrete_action(chart, pot, DiscretePath(ts, qs, bd)) - ref))
    orders = [np.log2(errs[k] / errs[k + 1]) for k in range(2)]
    assert errs[0] > errs[1] > errs[2]
    assert min(orders) > 1.8


def test_minimizer_beats_random_perturbations():
    pot, p = bump_min()
    base = discrete_action(EUC2, pot, p)
    free = p.free_block()
    for _ in range(20):
        trial = free + 5e-3 * RNG.normal(size=free.shape)
        q = DiscretePath.from_free(FLAT_BD, p.segments, trial)
        assert base <= discrete_action(EUC2, pot, q) + 1e-12


def test_compare_with_trajectory_report():
    pot, p = bump_min()
    traj = solve_bvp(EUC2, pot, FLAT_BD, h=1.0 / 512).trajectory
    rep = compare_with_trajectory(EUC2, pot, p, traj)
    assert rep["nodes"] == p.segments + 1
    assert rep["sup_distance"] < 5e-3
    assert rep["action_gap"] < 1e-3 * (1.0 + abs(rep["action_quadrature"]))
    # sampled-reference action differs from quadrature only by discretization
    assert abs(rep["action_reference"] - rep["action_quadrature"]) < 5e-2


def test_sphere_minimizer_matches_shooting():
    bd = BoundaryData((-0.8, 0.1), (0.5, 0.2), (0.9, 0.4), (0.1, -0.3), b=2.0)
    pot = GaussianObstacle(S2, (0.6, -0.3), amplitude=1.0, width=0.7)
    p = minimize_discrete(S2, pot, bd, 400)
    assert p.grad_sup <= 1e-7
    traj = solve_bvp(S2, pot, bd, h=bd.span / 100).trajectory
    rep = compare_with_trajectory(S2, pot, p, traj)
    assert rep["sup_distance"] <= 5e-3
    assert rep["action_gap"] <= 1e-3


def test_uniqueness_probes_flat_obstacle():
    pot = GaussianObstacle(EUC2, (0.5, 0.25), amplitude=1.0, width=0.4)
    traj = solve_bvp(EUC2, pot, FLAT_BD, h=1.0 / 800).trajectory
    rep = check_uniqueness_props(EUC2, pot, traj)
    assert rep["conclusive"] and rep["pass"]
    assert len(rep["restriction_probes"]) == 5
    assert all(pr["ok"] for pr in rep["restriction_probes"])
    assert rep["jet_forward_sup"] <= 1e-7
    assert rep["jet_backward_sup"] <= 1e-7
    assert 0.0 < rep["jet_time"] < 1.0


def sequential_probes(chart, pot, traj, probes, max_iter):
    """The probe entries of ``probes``' windows from one solve_bvp call each."""
    ts, qs = traj.ts, traj.qs
    out = []
    for pr in probes:
        i, j = (int(np.argmin(np.abs(ts - t))) for t in pr["interval"])
        sub = BoundaryData(qs[i], traj.vs[i], qs[j], traj.vs[j], a=float(ts[i]), b=float(ts[j]))
        try:
            res = solve_bvp(chart, pot, sub, h=traj.h, max_iter=max_iter)
        except PlannerError as exc:
            out.append({"sup": None, "converged": False, "error": str(exc)})
        else:
            out.append({"sup": float(np.max(np.abs(res.trajectory.qs - qs[i : j + 1]))), "converged": True})
    return out


@pytest.mark.parametrize("max_iter", [50, 2])
@pytest.mark.parametrize("case", ["flat_obstacle", "sphere_geodesic"])
def test_lockstep_probes_match_sequential_solves(monkeypatch, case, max_iter):
    # the probes march in lockstep; each entry must be exactly what its own
    # solve gives.  An iteration cap of 2 fails the longer obstacle windows
    # and converges the others
    if case == "flat_obstacle":
        chart, pot = EUC2, GaussianObstacle(EUC2, (0.5, 0.25), amplitude=3.0, width=0.3)
        traj = solve_bvp(chart, pot, FLAT_BD, h=1.0 / 200).trajectory
    else:
        chart, pot = S2, ZeroPotential(S2)
        st = CurveState(0.0, np.array([-0.5, 0.2]), np.array([0.4, 0.1]), np.zeros(2), np.zeros(2))
        traj = integrate_ivp(chart, pot, st, 1.2, h=1.2 / 200)
    monkeypatch.setattr(oracle, "_solve", functools.partial(bvp._solve, max_iter=max_iter))
    probes = check_uniqueness_props(chart, pot, traj, rng_seed=1)["restriction_probes"]
    ref = sequential_probes(chart, pot, traj, probes, max_iter)
    assert [{k: p.get(k) for k in ("sup", "converged", "error")} for p in probes] == [
        {k: r.get(k) for k in ("sup", "converged", "error")} for r in ref
    ]
    if max_iter == 2 and case == "flat_obstacle":
        assert {p["converged"] for p in probes} == {True, False}


def test_uniqueness_probes_sphere_geodesic():
    # a geodesic with zero potential solves the full ODE; its restrictions
    # and jet replays must reproduce it
    st = CurveState(0.0, np.array([-0.5, 0.2]), np.array([0.4, 0.1]),
                    np.zeros(2), np.zeros(2))
    traj = integrate_ivp(S2, ZeroPotential(S2), st, 1.2, h=1.2 / 800)
    rep = check_uniqueness_props(S2, ZeroPotential(S2), traj, rng_seed=4)
    assert rep["conclusive"] and rep["pass"]
