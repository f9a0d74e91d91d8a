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
    NumericChart,
    PlannerError,
    ZeroPotential,
    action,
    integrate_ivp,
    parse_manifold,
    solve_bvp,
)
from riemplan import bvp
from riemplan.dynamics import _kinematics, _trapezoid
from riemplan.bvp import check_uniqueness_props
from riemplan.oracle import (
    DiscretePath,
    _banded_hessian,
    compare_with_trajectory,
    discrete_action,
    discrete_gradient,
    minimize_discrete,
)

from references import descend

EUC1 = parse_manifold("euclidean:1")
EUC2 = parse_manifold("euclidean:2")
S2 = parse_manifold("sphere2")
H2 = parse_manifold("hyperbolic2")
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
    free = np.random.default_rng(11).normal(size=(N - 3, 2))
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
    free = free + 0.1 * np.random.default_rng(12).normal(size=free.shape)
    g = discrete_gradient(EUC2, pot, DiscretePath.from_free(FLAT_BD, N, free))
    gf = fd_gradient(EUC2, pot, FLAT_BD, N, free)
    assert np.max(np.abs(g - gf)) < 1e-6 * (1.0 + np.max(np.abs(gf)))


def test_gradient_matches_fd_sphere():
    # curved chart: the metric, connection and their derivatives all enter
    N = 12
    bd = BoundaryData((-0.8, 0.1), (0.5, 0.2), (0.9, 0.4), (0.1, -0.3), b=2.0)
    pot = GaussianObstacle(S2, (0.6, -0.3), amplitude=1.0, width=0.7)
    free = hermite(bd, bd.a + (bd.span / N) * np.arange(2, N - 1))
    free = free + 0.05 * np.random.default_rng(13).normal(size=free.shape)
    g = discrete_gradient(S2, pot, DiscretePath.from_free(bd, N, free))
    gf = fd_gradient(S2, pot, bd, N, free)
    assert np.max(np.abs(g - gf)) < 1e-6 * (1.0 + np.max(np.abs(gf)))


S2_BD = BoundaryData((-0.8, 0.1), (0.5, 0.2), (0.9, 0.4), (0.1, -0.3), b=2.0)
H2_BD = BoundaryData((-0.4, 0.1), (0.3, 0.2), (0.5, 0.3), (0.1, -0.2))
SO3_BD = BoundaryData((0.1, -0.2, 0.15), (0.4, 0.1, -0.3), (0.9, 0.3, -0.4), (0.1, -0.2, 0.2), b=1.5)


@pytest.mark.parametrize(
    "chart, bd, center", [(H2, H2_BD, (0.1, -0.1)), (SO3, SO3_BD, (0.5, 0.0, -0.1))], ids=["hyperbolic2", "so3"]
)
def test_gradient_matches_fd_hyperbolic_and_so3(chart, bd, center):
    # the disk (conformal, curvature -1) and so3 (r != 0 in the connection)
    N = 12
    pot = GaussianObstacle(chart, center, amplitude=1.0, width=0.6)
    free = hermite(bd, bd.a + (bd.span / N) * np.arange(2, N - 1))
    free = free + 0.05 * np.random.default_rng(16).normal(size=free.shape)
    g = discrete_gradient(chart, pot, DiscretePath.from_free(bd, N, free))
    gf = fd_gradient(chart, pot, bd, N, free)
    assert np.max(np.abs(g - gf)) < 1e-6 * (1.0 + np.max(np.abs(gf)))


def einsum_gradient(chart, potential, path):
    """discrete_gradient as it was written with one einsum of three or four
    operands per term, kept verbatim as the reference for the pairwise form."""
    qs, h, bd = path.qs, path.h, path.boundary
    N = path.segments
    flat = chart.flat
    v, c = _kinematics(h, qs, bd.v_a, bd.v_b)
    if flat:
        b = c
    else:
        p = chart.at(qs, 2)
        G, g = p.Gamma, p.g
        a = c + np.einsum("...kij,...i,...j->...k", G, v, v)
        b = np.einsum("...ab,...b->...a", g, a)
    w = _trapezoid(N + 1, h)

    grad = np.zeros_like(qs)
    wb = w[1:-1, None] * b[1:-1]
    grad[0:-2] += wb / h**2
    grad[1:-1] -= 2.0 * wb / h**2
    grad[2:] += wb / h**2
    if flat:
        grad[1:-1] += w[1:-1, None] * potential.gradient(qs[1:-1])
    else:
        C = np.einsum("...c,...cdb,...b->...d", b[1:-1], G[1:-1], v[1:-1])
        wc = w[1:-1, None] * C
        grad[2:] += wc / h
        grad[0:-2] -= wc / h

        # a^a a^b d_l g_ab / 2 = b_m Gamma^m_la a^a, as d_l g_ab = Gamma^m_la g_mb + Gamma^m_lb g_am
        E = np.einsum("...m,...mla,...a->...l", b[1:-1], G[1:-1], a[1:-1])
        E += np.einsum("...ab,...b->...a", g, potential.gradient(qs, p))[1:-1]
        D = np.einsum("...c,...lcij,...i,...j->...l", b[1:-1], p.dGamma[1:-1], v[1:-1], v[1:-1])
        grad[1:-1] += w[1:-1, None] * (E + D)

    for k, sgn in ((0, 1), (N, -1)):
        grad[k + sgn] += 2.0 * w[k] * b[k] / h**2

    red = grad[2 : N - 1].copy()
    red[0] += 0.25 * grad[1]
    red[-1] += 0.25 * grad[N - 1]
    return red


# the numeric sphere of test_geometry.py: the round metric as an expression table
SPHERE_CONF = "4 / (1 + x0**2 + x1**2)**2"
NUMERIC_S2 = NumericChart(2, [[SPHERE_CONF, "0"], ["0", SPHERE_CONF]], domain_radius=5.0, name="numeric-sphere")
# chart, boundary data, obstacle center and distance mode; the numeric
# chart's generic log is one Newton solve per point, so it measures the
# obstacle in chart distance
CONTRACTION_CASES = {
    "euclidean2": (EUC2, FLAT_BD, (0.5, 0.25), "riemannian"),
    "sphere2": (S2, S2_BD, (0.6, -0.3), "riemannian"),
    "hyperbolic2": (H2, H2_BD, (0.1, -0.1), "riemannian"),
    "so3": (SO3, SO3_BD, (0.5, 0.0, -0.1), "riemannian"),
    "numeric-sphere": (NUMERIC_S2, S2_BD, (0.6, -0.3), "chart"),
}


@pytest.mark.parametrize("name", list(CONTRACTION_CASES))
def test_pairwise_contractions_match_one_call_einsums(name):
    # the same sums in another order: equal up to roundoff on curved
    # charts, and untouched, so bit-equal, on a flat one
    chart, bd, center, mode = CONTRACTION_CASES[name]
    N = 40
    rng = np.random.default_rng(17)
    pot = GaussianObstacle(chart, center, amplitude=1.0, width=0.6, distance=mode)
    seed = hermite(bd, bd.a + (bd.span / N) * np.arange(2, N - 1))
    for _ in range(4):
        path = DiscretePath.from_free(bd, N, seed + 0.05 * rng.normal(size=seed.shape))
        g, ref = discrete_gradient(chart, pot, path), einsum_gradient(chart, pot, path)
        if chart.flat:
            assert np.array_equal(g, ref)
        else:
            assert np.max(np.abs(g - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("name", ["sphere2", "hyperbolic2", "so3"])
def test_radial_gradient_reads_no_record_array(monkeypatch, name):
    # the radial records answer every contraction of the gradient in closed
    # form; reading any of their arrays would be the einsum route back
    chart, bd, center, mode = CONTRACTION_CASES[name]
    N = 40
    pot = GaussianObstacle(chart, center, amplitude=1.0, width=0.6, distance=mode)
    seed = hermite(bd, bd.a + (bd.span / N) * np.arange(2, N - 1))
    path = DiscretePath.from_free(bd, N, seed + 0.05 * np.random.default_rng(19).normal(size=seed.shape))
    ref = einsum_gradient(chart, pot, path)

    def refuse(self):
        raise AssertionError("the gradient read a record array")

    for field in ("g", "ginv", "Gamma", "dGamma"):
        monkeypatch.setattr(type(chart.at(bd.q_a, 2)), field, property(refuse))
    g = discrete_gradient(chart, pot, path)
    assert np.max(np.abs(g - ref)) <= 1e-12 * np.max(np.abs(ref))


STACK_CASES = {**CONTRACTION_CASES, "euclidean1": (EUC1, BoundaryData((0.0,), (0.0,), (0.3,), (0.1,)), (0.25,), "riemannian")}


@pytest.mark.parametrize("name", list(STACK_CASES))
def test_stacked_paths_get_the_bits_of_single_calls(name):
    # the Hessian's probes go in one stacked call, and must not move a bit
    chart, bd, center, mode = STACK_CASES[name]
    N = 24
    pot = GaussianObstacle(chart, center, amplitude=1.0, width=0.6, distance=mode)
    seed = hermite(bd, bd.a + (bd.span / N) * np.arange(2, N - 1)).ravel()
    free = seed + 0.05 * np.random.default_rng(18).normal(size=(2, 3, seed.size))
    g = discrete_gradient(chart, pot, DiscretePath.from_free(bd, N, free))
    assert g.shape == (2, 3, N - 3, chart.dim)
    for i in np.ndindex(2, 3):
        assert np.array_equal(g[i], discrete_gradient(chart, pot, DiscretePath.from_free(bd, N, free[i])))


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
    """Gradient callback on a flat vector or a stack of them, its call log,
    and a perturbed Hermite seed, whose perturbation is the same for every call."""
    chart, bd, center = HESSIAN_CASES[name]
    pot = GaussianObstacle(chart, center, amplitude=1.0, width=0.6)
    calls = []

    def grad(x):
        calls.append(1)
        return discrete_gradient(chart, pot, DiscretePath.from_free(bd, N, x)).reshape(np.shape(x))

    free = hermite(bd, bd.a + (bd.span / N) * np.arange(2, N - 1))
    u = (free + 0.05 * np.random.default_rng(14).normal(size=free.shape)).ravel()
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
    assert len(calls) == 5


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


def test_minimize_iteration_cap_attaches_best():
    # a gtol no grid reaches: Newton stops when its steps stop lowering
    # sup|g| and raises with the best path it found
    pot = GaussianObstacle(EUC2, (0.5, 0.25), amplitude=1.0, width=0.4)
    with pytest.raises(NonconvergenceError) as err:
        minimize_discrete(EUC2, pot, FLAT_BD, 48, gtol=1e-30)
    best = err.value.best
    assert isinstance(best, DiscretePath)
    assert best.iterations >= 1
    assert 1e-30 < best.grad_sup < 1e-7
    assert best.grad_sup == np.max(np.abs(discrete_gradient(EUC2, pot, best)))


def test_gd_agrees_with_quasi_newton():
    # plain gradient descent on the action (references.descend) is the
    # reference Newton is held to
    bd = BoundaryData((0.0,), (0.0,), (0.3,), (0.1,))
    pot = GaussianObstacle(EUC1, (0.25,), amplitude=0.3, width=0.4)
    N = 12

    def fun(x):
        path = DiscretePath.from_free(bd, N, x)
        return discrete_action(EUC1, pot, path), discrete_gradient(EUC1, pot, path).ravel()

    start = hermite(bd, (bd.span / N) * np.arange(N + 1))[2 : N - 1].ravel()
    u, _, g, _ = descend(fun, start, 1e-5, 1e5)
    a = DiscretePath.from_free(bd, N, u)
    b = minimize_discrete(EUC1, pot, bd, N, gtol=1e-7)
    assert np.max(np.abs(g)) <= 1e-5
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
    ref = action(traj)
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
    rng = np.random.default_rng(15)
    for _ in range(20):
        trial = free + 5e-3 * rng.normal(size=free.shape)
        q = DiscretePath.from_free(FLAT_BD, p.segments, trial)
        assert base <= discrete_action(EUC2, pot, q) + 1e-12


def test_compare_with_trajectory_report():
    pot, p = bump_min()
    traj = solve_bvp(EUC2, pot, FLAT_BD, h=1.0 / 512).trajectory
    rep = compare_with_trajectory(p, traj)
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
    rep = compare_with_trajectory(p, traj)
    assert rep["sup_distance"] <= 5e-3
    assert rep["action_gap"] <= 1e-3


def test_uniqueness_probes_flat_obstacle():
    pot = GaussianObstacle(EUC2, (0.5, 0.25), amplitude=1.0, width=0.4)
    traj = solve_bvp(EUC2, pot, FLAT_BD, h=1.0 / 800).trajectory
    rep = check_uniqueness_props(traj)
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
    with monkeypatch.context() as patch:
        # the probes share bvp's _solve with solve_bvp, the reference below
        patch.setattr(bvp, "_solve", functools.partial(bvp._solve, max_iter=max_iter))
        probes = check_uniqueness_props(traj, rng_seed=1)["restriction_probes"]
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
    rep = check_uniqueness_props(traj, rng_seed=4)
    assert rep["conclusive"] and rep["pass"]
