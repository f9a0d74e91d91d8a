"""Perturbation-field propagation and loss-of-rank detection.

The 1-D rest trajectory on top of a unit Gaussian bump is the main
oracle: its linearization is X'''' = X, whose rank-drop times are the
positive roots of cosh(t)cos(t) = 1.  Those roots are frozen here from a
high-precision offline root solve.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from riemplan import rk4
from riemplan import (
    ConstructionError,
    CurveState,
    GaussianObstacle,
    JacobiState,
    NumericalError,
    NumericChart,
    QuadraticWell,
    ResolutionWarning,
    ZeroPotential,
    biconjugate_scan,
    integrate_ivp,
    negative_direction,
    parse_manifold,
    propagate_jacobi,
    verdict,
)
from riemplan.jacobi import F_operator, _propagate_bundle, jacobi_rhs, operator_table

EUC1 = parse_manifold("euclidean:1")
EUC2 = parse_manifold("euclidean:2")
S2 = parse_manifold("sphere2")


# g = exp(2 f) delta with f = 0.1 x0^3 + 0.05 x1^3: not locally symmetric,
# so the curvature-gradient terms participate
WARP = "exp(2*(0.1*x0**3 + 0.05*x1**3))"
WARPED = NumericChart(2, [[WARP, "0"], ["0", WARP]], domain_radius=2.0, name="warped-plane")
WARPED_START = CurveState(
    0.0, np.array([0.1, -0.2]), np.array([0.6, 0.4]), np.array([0.3, -0.1]), np.array([0.2, 0.5])
)

# positive roots of cosh(t)cos(t) = 1
BEAM_ROOTS = (4.730040744863, 7.853204624096, 10.995607838003, 14.137165491223)

RNG = np.random.default_rng(23)


@functools.cache
def bump_rest(T):
    """Rest trajectory balanced on the tip of a unit Gaussian bump."""
    pot = GaussianObstacle(EUC1, (0.0,), amplitude=1.0, width=1.0)
    z = np.zeros(1)
    return pot, integrate_ivp(EUC1, pot, CurveState(0.0, z, z, z, z), T)


@functools.cache
def bump_scan(T):
    pot, traj = bump_rest(T)
    return biconjugate_scan(EUC1, pot, traj)


@functools.cache
def warped_case():
    # chart-coordinate distance keeps the generic-chart log out of the loop
    pot = GaussianObstacle(WARPED, (0.3, 0.1), amplitude=0.8, width=0.5, distance="chart")
    return pot, integrate_ivp(WARPED, pot, WARPED_START, 0.4, h=0.4 / 60)


@functools.cache
def sphere_case():
    pot = GaussianObstacle(S2, (0.4, 0.2), amplitude=1.0, width=0.6)
    st = CurveState(
        0.0, np.array([-0.3, 0.1]), np.array([0.5, 0.2]), np.array([0.2, -0.3]), np.array([0.1, 0.4])
    )
    return pot, st, integrate_ivp(S2, pot, st, 1.0)


def test_f_operator_flat_zero():
    st = CurveState(0.0, RNG.normal(size=(6, 2)), RNG.normal(size=(6, 2)), RNG.normal(size=(6, 2)), RNG.normal(size=(6, 2)))
    out = F_operator(EUC2, st, RNG.normal(size=(6, 2)), RNG.normal(size=(6, 2)), RNG.normal(size=(6, 2)))
    assert np.all(out == 0.0)


def test_f_operator_constant_curvature_reduction():
    q = np.array([0.2, -0.3])
    v, a, j, X, dX, d2X = RNG.normal(size=(6, 2))
    st = CurveState(0.0, q, v, a, j)

    def R(u, w, s):  # unit-curvature closed form at q
        return S2.inner(q, w, s) * u - S2.inner(q, u, s) * w

    expected = (
        R(R(X, v, v), v, v)
        + R(X, j, v)
        + 2.0 * R(d2X, v, v)
        + 3.0 * (R(X, v, j) + R(X, a, a))
        + 4.0 * R(dX, v, a)
    )
    assert np.max(np.abs(F_operator(S2, st, X, dX, d2X) - expected)) < 1e-10


def test_f_operator_linearity():
    q = np.array([0.2, -0.3])
    st = CurveState(0.0, q, *RNG.normal(size=(3, 2)))
    X1, X2, d1, d2, s1, s2 = RNG.normal(size=(6, 2))
    mix = F_operator(S2, st, 0.7 * X1 + X2, 0.7 * d1 + d2, 0.7 * s1 + s2)
    split = 0.7 * F_operator(S2, st, X1, d1, s1) + F_operator(S2, st, X2, d2, s2)
    assert np.max(np.abs(mix - split)) < 1e-12


def test_f_operator_stacks_the_qdot_derivatives():
    # the four first-derivative terms go through one stacked nabla_R call;
    # it must equal the four-call form term by term
    chart = WARPED
    st = WARPED_START
    X, dX, d2X = np.random.default_rng(3).normal(size=(3, 4, 2))
    q, v, a, j = st.q, st.v, st.a, st.j
    R, nR = chart.curvature, chart.nabla_R
    ref = R(q, R(q, X, v, v), v, v) + R(q, X, j, v) + 2.0 * R(q, d2X, v, v)
    ref = ref + 3.0 * (R(q, X, v, j) + R(q, X, a, a)) + 4.0 * R(q, dX, v, a)
    ref = ref + chart.nabla2_R(q, v, X, v, v) + nR(q, X, a, v, v)
    ref = ref + 2.0 * (nR(q, v, dX, v, v) + nR(q, v, X, a, v)) + 3.0 * nR(q, v, X, v, a)
    got = F_operator(chart, st, X, dX, d2X)
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_nabla_R_is_linear_in_the_direction():
    # nabla R is a tensor contracted with W, so it is linear in W to rounding
    x = np.array([0.3, -0.4])
    W1, W2, X, Y, Z = np.random.default_rng(4).normal(size=(5, 2))
    mix = WARPED.nabla_R(x, 0.7 * W1 + W2, X, Y, Z)
    split = 0.7 * WARPED.nabla_R(x, W1, X, Y, Z) + WARPED.nabla_R(x, W2, X, Y, Z)
    assert np.max(np.abs(mix - split)) <= 1e-12 * np.max(np.abs(split))


@pytest.mark.parametrize("which", ["nabla_R", "nabla2_R"])
def test_nabla_R_broadcasts_over_points(which):
    rng = np.random.default_rng(6)
    x = rng.uniform(-0.6, 0.6, size=(4, 2))
    W, X = rng.normal(size=(2, 4, 2))
    Y, Z = rng.normal(size=(2, 2))
    f = getattr(WARPED, which)
    got = f(x, W, X, Y, Z)
    ref = np.stack([f(x[i], W[i], X[i], Y, Z) for i in range(4)])
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_warped_curvature_matches_the_conformal_closed_form():
    # in 2-D, R(X, Y)Z = K (<Y,Z>X - <X,Z>Y) with K = -exp(-2f) lap f; that
    # bracket is parallel, so nab_W R = dK(W) (...) and
    # nab^2_{W,W} R = (d^2 K - Gamma dK)(W, W) (...), conformal Gamma
    rng = np.random.default_rng(8)
    x = rng.uniform(-1.2, 1.2, size=(16, 2))
    W, X, Y, Z = rng.normal(size=(4, 16, 2))
    c = np.array([0.6, 0.3])
    f = 0.1 * x[:, 0] ** 3 + 0.05 * x[:, 1] ** 3
    df = np.stack([0.3 * x[:, 0] ** 2, 0.15 * x[:, 1] ** 2], axis=-1)
    d2f = np.stack([0.6 * x[:, 0], 0.3 * x[:, 1]], axis=-1)  # diagonal of the Hessian
    lap = x @ c
    E = np.exp(-2.0 * f)
    K = -E * lap
    dK = E[:, None] * (2.0 * df * lap[:, None] - c)
    cdf = df[:, :, None] * c
    d2K = E[:, None, None] * (
        -4.0 * lap[:, None, None] * df[:, :, None] * df[:, None, :]
        + 2.0 * (cdf + cdf.swapaxes(1, 2))
        + 2.0 * lap[:, None, None] * (d2f[:, :, None] * np.eye(2))
    )
    # Gamma^k_ij = delta^k_i d_j f + delta^k_j d_i f - delta_ij d_k f
    WW = np.sum(W * W, axis=-1)
    gam_WW = 2.0 * W * np.sum(df * W, axis=-1)[:, None] - WW[:, None] * df
    hess = np.einsum("pij,pi,pj->p", d2K, W, W) - np.sum(dK * gam_WW, axis=-1)
    g = np.exp(2.0 * f)[:, None]
    bracket = g * (np.sum(Y * Z, axis=-1)[:, None] * X - np.sum(X * Z, axis=-1)[:, None] * Y)
    for got, want in (
        (WARPED.curvature(x, X, Y, Z), K[:, None] * bracket),
        (WARPED.nabla_R(x, W, X, Y, Z), np.sum(dK * W, axis=-1)[:, None] * bracket),
        (WARPED.nabla2_R(x, W, X, Y, Z), hess[:, None] * bracket),
    ):
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


def test_propagate_flat_polynomial():
    st = CurveState(0.0, np.zeros(2), np.array([0.4, -0.1]), np.array([0.2, 0.3]), np.array([-0.5, 0.1]))
    traj = integrate_ivp(EUC2, ZeroPotential(EUC2), st, 1.0)
    c = RNG.normal(size=(4, 2))
    out = propagate_jacobi(EUC2, ZeroPotential(EUC2), traj, JacobiState(0.0, c[0], c[1], c[2], c[3]))
    t = traj.ts[:, None]
    exact = c[0] + c[1] * t + c[2] * t**2 / 2 + c[3] * t**3 / 6
    assert np.max(np.abs(out.X - exact)) < 1e-12


def test_propagate_quadratic_well_closed_form():
    pot = QuadraticWell(EUC1, center=(0.0,), stiffness=1.0)
    st = CurveState(0.0, np.array([0.2]), np.array([-0.1]), np.array([0.3]), np.array([0.1]))
    traj = integrate_ivp(EUC1, pot, st, 1.0)
    u0 = np.array([0.5, -0.3, 0.2, 0.4])
    out = propagate_jacobi(EUC1, pot, traj, JacobiState(0.0, u0[:1], u0[1:2], u0[2:3], u0[3:4]))
    A = np.diag(np.ones(3), 1)
    A[3, 0] = -1.0
    exact = np.stack([scipy.linalg.expm(A * t) @ u0 for t in traj.ts])
    assert np.max(np.abs(out.X[:, 0] - exact[:, 0])) < 1e-9


def test_propagate_superposition_and_zero():
    pot, _, traj = sphere_case()
    u1, u2 = RNG.normal(size=(2, 4, 2))
    batch = np.stack([u1, u2, 0.7 * u1 + u2, np.zeros((4, 2))])
    out = propagate_jacobi(
        S2, pot, traj, JacobiState(0.0, batch[:, 0], batch[:, 1], batch[:, 2], batch[:, 3])
    )
    mix = 0.7 * out.X[:, 0] + out.X[:, 1]
    assert np.max(np.abs(out.X[:, 2] - mix)) < 1e-9
    assert np.all(out.X[:, 3] == 0.0)
    assert np.all(out.d3X[:, 3] == 0.0)


def test_propagate_requires_start_time():
    pot, _, traj = sphere_case()
    with pytest.raises(ValueError):
        propagate_jacobi(S2, pot, traj, JacobiState(0.5, np.zeros(2), np.zeros(2), np.zeros(2), np.zeros(2)))


def fd_linearization_gap(fd_jacobian, chart, pot, st, T, h):
    """Sup-norm gap between propagated fields and the FD endpoint Jacobian."""
    traj = integrate_ivp(chart, pot, st, T, h=h)
    n = chart.dim
    J_fd = fd_jacobian(chart, pot, st.q, st.v, st.a, st.j, T, h)
    zero = np.zeros((2 * n, n))
    jets = np.zeros((2 * n, 2, n))
    for i in range(n):
        jets[i, 0, i] = 1.0
        jets[n + i, 1, i] = 1.0
    out = propagate_jacobi(chart, pot, traj, JacobiState(0.0, zero, zero, jets[:, 0], jets[:, 1]))
    X_T = out.X[-1]
    Xdot_T = out.dX[-1] - chart.gamma(traj.qs[-1], traj.vs[-1], X_T)
    J_prop = np.concatenate([X_T, Xdot_T], axis=1).T
    return np.max(np.abs(J_prop - J_fd)) / np.max(np.abs(J_fd))


def test_linearization_matches_fd_sphere(fd_jacobian):
    pot, st, _ = sphere_case()
    assert fd_linearization_gap(fd_jacobian, S2, pot, st, 1.0, None) < 1e-4


def test_linearization_matches_fd_numeric_chart(fd_jacobian):
    # non-symmetric metric: the curvature-gradient terms must participate
    pot, _ = warped_case()
    assert fd_linearization_gap(fd_jacobian, WARPED, pot, WARPED_START, 0.4, 0.4 / 60) < 1e-3


def test_verdict_on_numeric_chart():
    # the Galerkin count builds the operator at every Gauss state of the
    # default basis through the finite-difference nabla R
    pot, traj = warped_case()
    rep = verdict(WARPED, pot, traj)
    assert rep.classification == "candidate"
    assert rep.index_report.index == 0
    assert rep.index_report.kernel_dim == 0


def test_fundamental_system_stays_full_rank():
    pot, _, traj = sphere_case()
    u0 = np.eye(8).reshape(8, 4, 2)
    out = propagate_jacobi(S2, pot, traj, JacobiState(0.0, u0[:, 0], u0[:, 1], u0[:, 2], u0[:, 3]))
    final = np.concatenate([out.X[-1], out.dX[-1], out.d2X[-1], out.d3X[-1]], axis=1)
    sv = np.linalg.svd(final, compute_uv=False)
    assert sv[-1] / sv[0] >= 1e-10


def test_scan_flat_empty():
    st = CurveState(0.0, np.zeros(2), np.array([0.4, -0.1]), np.array([0.2, 0.3]), np.array([-0.5, 0.1]))
    traj = integrate_ivp(EUC2, ZeroPotential(EUC2), st, 1.0)
    report = biconjugate_scan(EUC2, ZeroPotential(EUC2), traj)
    assert len(report) == 0


def test_scan_quadratic_well_empty():
    # X'''' = -X never loses rank, however long the window
    pot = QuadraticWell(EUC1, center=(0.0,), stiffness=1.0)
    st = CurveState(0.0, np.array([0.1]), np.array([0.05]), np.array([-0.02]), np.array([0.01]))
    traj = integrate_ivp(EUC1, pot, st, 6.0)
    assert len(biconjugate_scan(EUC1, pot, traj)) == 0


def test_scan_finds_beam_roots():
    report = bump_scan(12.0)
    assert len(report) == 3
    for found, exact in zip(report.times, BEAM_ROOTS):
        assert abs(found - exact) < 1e-5
    assert all(s < 1e-6 for s in report.sigma_ratios)
    d = report.to_dict()
    assert len(d["points"]) == 3


def test_scan_interior_anchor():
    pot, traj = bump_rest(12.0)
    report = biconjugate_scan(EUC1, pot, traj, t1=2.0)
    # constant coefficients: pairs depend only on |t2 - t1|
    expected = [report.t1 + r for r in BEAM_ROOTS if report.t1 + r < 12.0]
    assert len(report) == len(expected)
    for found, exact in zip(report.times, expected):
        assert abs(found - exact) < 1e-5


def test_scan_witness_repropagation():
    report = bump_scan(12.0)
    for t2, (w2, w3) in zip(report.times, report.witnesses):
        # re-integrate with the detected time as the final grid node
        pot, traj = bump_rest(t2)
        out = propagate_jacobi(EUC1, pot, traj, JacobiState(0.0, np.zeros(1), np.zeros(1), w2, w3))
        sup = float(np.max(np.abs(out.X)))
        gap = abs(float(out.X[-1, 0])) + abs(float(out.dX[-1, 0]))
        assert gap <= 1e-6 * sup


def test_scan_coarse_grid_warns():
    pot, traj = bump_rest(12.0)
    with pytest.warns(ResolutionWarning):
        biconjugate_scan(EUC1, pot, traj, grid=4)


@pytest.mark.parametrize("grid", [0, -3])
def test_scan_rejects_nonpositive_grid(grid):
    pot, traj = bump_rest(12.0)
    with pytest.raises(ValueError, match="positive sample count"):
        biconjugate_scan(EUC1, pot, traj, grid=grid)


def test_negative_direction_first_pair():
    pot, traj = bump_rest(6.0)
    report = bump_scan(6.0)
    assert len(report) == 1
    t2 = report.times[0]
    nd = negative_direction(EUC1, pot, traj, 0.0, t2)
    assert nd.value < 0.0
    assert 0.0 < nd.delta < t2
    assert nd.eps > 0.0
    assert np.all(np.isfinite(nd.U))
    assert nd.ts[0] >= 0.0 and nd.ts[-1] <= 6.0


def test_negative_direction_witness_residual():
    pot, traj = bump_rest(6.0)
    t2 = bump_scan(6.0).times[0]
    nd = negative_direction(EUC1, pot, traj, 0.0, t2, delta=0.3, eps=0.0)
    assert abs(nd.value) < 1e-3


def test_negative_direction_rejects_regular_pair():
    pot, traj = bump_rest(6.0)
    with pytest.raises(ValueError, match="not a detected pair"):
        negative_direction(EUC1, pot, traj, 0.0, 2.0)


def test_negative_direction_rejects_bad_order():
    pot, traj = bump_rest(6.0)
    with pytest.raises(ValueError):
        negative_direction(EUC1, pot, traj, 3.0, 3.0)


def test_negative_direction_needs_interior_room():
    pot = GaussianObstacle(EUC1, (0.0,), amplitude=1.0, width=1.0)
    z = np.zeros(1)
    traj = integrate_ivp(EUC1, pot, CurveState(0.0, z, z, z, z), BEAM_ROOTS[0])
    with pytest.raises(ConstructionError):
        negative_direction(EUC1, pot, traj, 0.0, BEAM_ROOTS[0])


def test_propagate_overflow_reports_blowup():
    pot, traj = bump_rest(800.0)
    with np.errstate(over="ignore"), pytest.raises(NumericalError, match="blew up"):
        propagate_jacobi(EUC1, pot, traj, JacobiState(0.0, np.zeros(1), np.zeros(1), np.ones(1), np.zeros(1)))


def test_bundle_overflow_on_last_step_raises():
    # the rest state makes the field operator constant, so a field from
    # anchor k blows up a fixed number of steps later; anchor it so that
    # the first nonfinite state is the last node
    pot, traj = bump_rest(800.0)
    u0 = np.array([[[1.0], [0.0], [0.0], [0.0]]])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalError, match="blew up") as err:
            _propagate_bundle(EUC1, pot, traj, 0, u0)
        steps = round(float(str(err.value).rsplit("= ", 1)[1]) / traj.h)
        assert steps < traj.segments
        _propagate_bundle(EUC1, pot, traj, traj.segments - steps + 1, u0)
        with pytest.raises(NumericalError, match="blew up") as err:
            _propagate_bundle(EUC1, pot, traj, traj.segments - steps, u0)
    assert float(str(err.value).rsplit("= ", 1)[1]) == pytest.approx(traj.T, rel=1e-5)


@pytest.mark.parametrize("first", [3, 256, 257, 600])
def test_march_reports_the_first_nonfinite_node(first):
    # u' = u multiplies u by one factor per step, so the start value sets the
    # first node to overflow: inside a 256-step chunk, on its last node, on
    # the next chunk's first and on the march's last
    K, h = 600, 0.5
    A = np.ones((K, 1, 1))
    f = rk4.step_matrices(A[0], A[0], A[0], h)[0, 0]
    u0 = np.array([np.finfo(float).max / f ** (first - 0.5)])
    ts = h * np.arange(K + 1)
    with np.errstate(over="ignore"), pytest.raises(NumericalError) as err:
        rk4.march(A, A, A, h, u0, ts, "growth")
    assert str(err.value) == f"growth near t = {ts[first]:.6g}"


# chart, potential factory, initial state, window, segments
MARCH_CASES = {
    "euclidean2": (
        EUC2,
        lambda c: GaussianObstacle(c, (0.5, 0.25), amplitude=1.0, width=0.4),
        ((0.0, 0.0), (0.3, -0.2), (1.0, 0.5), (-0.4, 0.4)),
        1.0,
        40,
    ),
    "sphere2": (
        S2,
        lambda c: GaussianObstacle(c, (0.4, 0.2), amplitude=1.0, width=0.6),
        ((-0.3, 0.1), (0.5, 0.2), (0.2, -0.3), (0.1, 0.4)),
        1.0,
        40,
    ),
    "hyperbolic2": (
        parse_manifold("hyperbolic2"),
        lambda c: GaussianObstacle(c, (0.1, 0.0), amplitude=0.8, width=0.5),
        ((-0.4, 0.1), (0.25, 0.1), (0.1, -0.2), (0.1, 0.2)),
        1.5,
        40,
    ),
    "so3": (
        parse_manifold("so3"),
        ZeroPotential,
        ((0.1, -0.2, 0.15), (0.4, 0.1, -0.3), (0.2, 0.1, 0.1), (-0.1, 0.2, 0.0)),
        1.5,
        40,
    ),
    "numeric": (
        WARPED,
        lambda c: GaussianObstacle(c, (0.3, 0.1), amplitude=0.8, width=0.5, distance="chart"),
        ((0.1, -0.2), (0.6, 0.4), (0.3, -0.1), (0.2, 0.5)),
        0.2,
        20,
    ),
}


@functools.cache
def march_case(name):
    chart, pot, jets, T, N = MARCH_CASES[name]
    pot = pot(chart)
    st = CurveState(0.0, *(np.array(a) for a in jets))
    return chart, pot, integrate_ivp(chart, pot, st, T, h=T / N)


def stagewise_step(chart, pot, u, h, s0, sm, s1):
    """One classical RK4 step of the field ODE, stage by stage from jacobi_rhs."""

    def rhs(s, w):
        jac = JacobiState(s.t, w[..., 0, :], w[..., 1, :], w[..., 2, :], w[..., 3, :])
        return np.stack(jacobi_rhs(chart, pot, s, jac), axis=-2)

    k1 = rhs(s0, u)
    k2 = rhs(sm, u + 0.5 * h * k1)
    k3 = rhs(sm, u + 0.5 * h * k2)
    k4 = rhs(s1, u + h * k3)
    return u + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def rel_gap(got, ref):
    return np.max(np.abs(np.asarray(got) - np.asarray(ref))) / np.max(np.abs(ref))


@pytest.mark.parametrize("name", sorted(MARCH_CASES))
def test_table_march_matches_stagewise_rk4(name):
    chart, pot, traj = march_case(name)
    n, N, h, ts = chart.dim, traj.segments, traj.h, traj.ts
    k0 = N // 2
    u0 = np.random.default_rng(7).normal(size=(3, 4, n))

    ref = [u0]
    for k in range(k0, N):
        mid = traj.interpolate(ts[k] + 0.5 * h)
        ref.append(stagewise_step(chart, pot, ref[-1], h, traj.state(k), mid, traj.state(k + 1)))
    flow = _propagate_bundle(chart, pot, traj, k0, u0, forward=True)
    assert rel_gap(flow.states, ref) <= 1e-12
    # off-node: one partial step out of the enclosing node
    t = ts[N - 1] + 0.37 * h
    s = traj.interpolate(np.array([ts[N - 1], 0.5 * (ts[N - 1] + t), t]))
    parts = [CurveState(s.t[i], s.q[i], s.v[i], s.a[i], s.j[i]) for i in range(3)]
    want = stagewise_step(chart, pot, ref[N - 1 - k0], t - ts[N - 1], *parts)
    assert rel_gap(flow.at_time(t), want) <= 1e-12

    back = [u0]
    for k in range(k0, 0, -1):
        mid = traj.interpolate(ts[k - 1] + 0.5 * h)
        back.append(stagewise_step(chart, pot, back[-1], -h, traj.state(k), mid, traj.state(k - 1)))
    flow = _propagate_bundle(chart, pot, traj, k0, u0, forward=False)
    assert rel_gap(flow.states, back[::-1]) <= 1e-12
    t = ts[0] + 0.61 * h
    s = traj.interpolate(np.array([ts[0], 0.5 * (ts[0] + t), t]))
    parts = [CurveState(s.t[i], s.q[i], s.v[i], s.a[i], s.j[i]) for i in range(3)]
    want = stagewise_step(chart, pot, back[-1], t - ts[0], *parts)
    assert rel_gap(flow.at_time(t), want) <= 1e-12


@pytest.mark.parametrize("name", ["euclidean2", "sphere2", "so3"])
@given(data=st.data())
def test_operator_table_applies_jacobi_rhs(name, data):
    chart, pot, traj = march_case(name)
    n = chart.dim
    k = data.draw(st.integers(0, traj.segments), label="node")
    u = data.draw(
        hnp.arrays(float, (4, n), elements=st.floats(-1e3, 1e3, allow_subnormal=False)),
        label="jets",
    )
    nodes, _ = operator_table(chart, pot, traj)
    want = np.stack(jacobi_rhs(chart, pot, traj.state(k), JacobiState(traj.ts[k], *u)))
    got = nodes[k] @ u.ravel()
    scale = np.max(np.abs(nodes[k]) @ np.abs(u.ravel()))
    assert np.max(np.abs(got - want.ravel())) <= 1e-12 * scale + 1e-300
