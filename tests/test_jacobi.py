"""Perturbation-field propagation and loss-of-rank detection.

The 1-D rest trajectory on top of a unit Gaussian bump is the main
oracle: its linearization is X'''' = X, whose rank-drop times are the
positive roots of cosh(t)cos(t) = 1.  Those roots are frozen here from a
high-precision offline root solve.
"""

from __future__ import annotations

import functools
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from riemplan import dynamics, jacobi, rk4
from riemplan import (
    BoundaryData,
    ChartEscapeError,
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
    solve_bvp,
    verdict,
)
from riemplan.jacobi import F_operator, _basis_bundle, _field, _propagate_bundle, jacobi_operator, jacobi_rhs

from references import segment_map_jacobian, symplectic_form
from test_geometry import numeric_sphere

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


@functools.cache
def bump_rest(T):
    """Rest trajectory balanced on the tip of a unit Gaussian bump."""
    pot = GaussianObstacle(EUC1, (0.0,), amplitude=1.0, width=1.0)
    z = np.zeros(1)
    return pot, integrate_ivp(EUC1, pot, CurveState(0.0, z, z, z, z), T)


@functools.cache
def bump_scan(T):
    pot, traj = bump_rest(T)
    return biconjugate_scan(traj)


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
    rng = np.random.default_rng(23)
    st = CurveState(
        0.0, rng.normal(size=(6, 2)), rng.normal(size=(6, 2)), rng.normal(size=(6, 2)), rng.normal(size=(6, 2))
    )
    out = F_operator(EUC2, st, rng.normal(size=(6, 2)), rng.normal(size=(6, 2)), rng.normal(size=(6, 2)))
    assert np.all(out == 0.0)


def test_f_operator_constant_curvature_reduction():
    rng = np.random.default_rng(23)
    q = np.array([0.2, -0.3])
    v, a, j, X, dX, d2X = rng.normal(size=(6, 2))
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
    rng = np.random.default_rng(23)
    q = np.array([0.2, -0.3])
    st = CurveState(0.0, q, *rng.normal(size=(3, 2)))
    X1, X2, d1, d2, s1, s2 = rng.normal(size=(6, 2))
    mix = F_operator(S2, st, 0.7 * X1 + X2, 0.7 * d1 + d2, 0.7 * s1 + s2)
    split = 0.7 * F_operator(S2, st, X1, d1, s1) + F_operator(S2, st, X2, d2, s2)
    assert np.max(np.abs(mix - split)) < 1e-12


def test_f_operator_stacks_the_qdot_derivatives():
    # the five first-derivative terms go through one stacked nabla_R call;
    # it must equal the five-call form term by term
    chart = WARPED
    st = WARPED_START
    X, dX, d2X = np.random.default_rng(3).normal(size=(3, 4, 2))
    q, v, a, j = st.q, st.v, st.a, st.j
    p = chart.at(q, 4)
    R, nR = chart.curvature, p.nabla_R
    ref = R(q, R(q, X, v, v), v, v) + R(q, X, j, v) + 2.0 * R(q, d2X, v, v)
    ref = ref + 3.0 * (R(q, X, v, j) + R(q, X, a, a)) + 4.0 * R(q, dX, v, a)
    ref = ref + p.nabla2_R(v, X, v, v) + nR(X, a, v, v) + nR(a, X, v, v)
    ref = ref + 2.0 * (nR(v, dX, v, v) + nR(v, X, a, v)) + 3.0 * nR(v, X, v, a)
    got = F_operator(chart, st, X, dX, d2X)
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_nabla_R_is_linear_in_the_direction():
    # nabla R is a tensor contracted with W, so it is linear in W to rounding
    x = np.array([0.3, -0.4])
    W1, W2, X, Y, Z = np.random.default_rng(4).normal(size=(5, 2))
    nR = WARPED.at(x, 3).nabla_R
    mix = nR(0.7 * W1 + W2, X, Y, Z)
    split = 0.7 * nR(W1, X, Y, Z) + nR(W2, X, Y, Z)
    assert np.max(np.abs(mix - split)) <= 1e-12 * np.max(np.abs(split))


@pytest.mark.parametrize("which", ["nabla_R", "nabla2_R"])
def test_nabla_R_broadcasts_over_points(which):
    rng = np.random.default_rng(6)
    x = rng.uniform(-0.6, 0.6, size=(4, 2))
    W, X = rng.normal(size=(2, 4, 2))
    Y, Z = rng.normal(size=(2, 2))

    def f(x, *args):
        return getattr(WARPED.at(x, 4), which)(*args)

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
    p = WARPED.at(x, 4)
    for got, want in (
        (WARPED.curvature(x, X, Y, Z), K[:, None] * bracket),
        (p.nabla_R(W, X, Y, Z), np.sum(dK * W, axis=-1)[:, None] * bracket),
        (p.nabla2_R(W, X, Y, Z), hess[:, None] * bracket),
    ):
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


def test_propagate_flat_polynomial():
    rng = np.random.default_rng(23)
    st = CurveState(0.0, np.zeros(2), np.array([0.4, -0.1]), np.array([0.2, 0.3]), np.array([-0.5, 0.1]))
    traj = integrate_ivp(EUC2, ZeroPotential(EUC2), st, 1.0)
    c = rng.normal(size=(4, 2))
    X = _propagate_bundle(traj, 0, c).states[:, 0]
    t = traj.ts[:, None]
    exact = c[0] + c[1] * t + c[2] * t**2 / 2 + c[3] * t**3 / 6
    assert np.max(np.abs(X - exact)) < 1e-12


def test_propagate_quadratic_well_closed_form():
    pot = QuadraticWell(EUC1, center=(0.0,), stiffness=1.0)
    st = CurveState(0.0, np.array([0.2]), np.array([-0.1]), np.array([0.3]), np.array([0.1]))
    traj = integrate_ivp(EUC1, pot, st, 1.0)
    u0 = np.array([0.5, -0.3, 0.2, 0.4])
    X = _propagate_bundle(traj, 0, u0[:, None]).states[:, 0, 0]
    A = np.diag(np.ones(3), 1)
    A[3, 0] = -1.0
    exact = np.stack([scipy.linalg.expm(A * t) @ u0 for t in traj.ts])
    assert np.max(np.abs(X - exact[:, 0])) < 1e-9


def test_propagate_superposition_and_zero():
    rng = np.random.default_rng(23)
    pot, _, traj = sphere_case()
    u1, u2 = rng.normal(size=(2, 4, 2))
    batch = np.stack([u1, u2, 0.7 * u1 + u2, np.zeros((4, 2))])
    states = _propagate_bundle(traj, 0, batch).states
    X = states[..., 0, :]
    mix = 0.7 * X[:, 0] + X[:, 1]
    assert np.max(np.abs(X[:, 2] - mix)) < 1e-9
    assert np.all(X[:, 3] == 0.0)
    assert np.all(states[:, 3, 3] == 0.0)


def fd_linearization_gap(fd_jacobian, chart, pot, st, T, h):
    """Sup-norm gap between propagated fields and the FD endpoint Jacobian."""
    traj = integrate_ivp(chart, pot, st, T, h=h)
    n = chart.dim
    J_fd = fd_jacobian(chart, pot, st.q, st.v, st.a, st.j, T, h)
    # the fields with X = DX = 0 and unit D2X or D3X at the start
    u = _propagate_bundle(traj, 0, _basis_bundle(n)).states[-1]
    X_T = u[:, 0]
    Xdot_T = u[:, 1] - chart.gamma(traj.qs[-1], traj.vs[-1], X_T)
    J_prop = np.concatenate([X_T, Xdot_T], axis=1).T
    return np.max(np.abs(J_prop - J_fd)) / np.max(np.abs(J_fd))


def test_linearization_matches_fd_sphere(fd_jacobian):
    pot, st, _ = sphere_case()
    assert fd_linearization_gap(fd_jacobian, S2, pot, st, 1.0, None) < 1e-4


def test_linearization_matches_fd_numeric_chart(fd_jacobian):
    # non-symmetric metric: the curvature-gradient terms must participate;
    # without (nab_{nab_Y Y} R)(X, Y)Y in F the gap is 1.8e-5, with it 3.2e-11
    pot, _ = warped_case()
    assert fd_linearization_gap(fd_jacobian, WARPED, pot, WARPED_START, 0.4, 0.4 / 60) < 1e-8


def test_verdict_on_numeric_chart():
    # the Galerkin count builds the operator at every Gauss state of the
    # default basis through the finite-difference nabla R
    pot, traj = warped_case()
    rep = verdict(traj)
    assert rep.classification == "candidate"
    assert rep.index_report.index == 0
    assert rep.index_report.kernel_dim == 0


def test_fundamental_system_stays_full_rank():
    pot, _, traj = sphere_case()
    u0 = np.eye(8).reshape(8, 4, 2)
    final = _propagate_bundle(traj, 0, u0).states[-1].reshape(8, 8)
    sv = np.linalg.svd(final, compute_uv=False)
    assert sv[-1] / sv[0] >= 1e-10


@pytest.mark.parametrize("name", ["euclidean:2", "sphere2", "hyperbolic2", "so3", "numeric-sphere"])
@settings(max_examples=3)
@given(data=st.data())
def test_basis_bundle_conserves_the_symplectic_form(name, data):
    """The field operator is self-adjoint, so omega(X_i, X_j) stays at its
    start value 0 along the basis bundle (``references.symplectic_form``):
    one check of every curvature term of F_operator and of the symmetry of
    the potential's Hessian.  On 256 steps the drift is RK4's, at most
    6.2e-11 of max |<D3X, X>| over 10 random draws per chart.  The numeric sphere's
    Gaussian takes the chart distance: the Riemannian one differences log
    there, whose error would show."""
    chart = numeric_sphere() if name == "numeric-sphere" else parse_manifold(name)
    n = chart.dim
    mode = "chart" if name == "numeric-sphere" else "riemannian"
    pot = GaussianObstacle(chart, np.full(n, 0.1), amplitude=1.0, width=0.6, distance=mode)
    q = np.array(data.draw(st.lists(st.floats(-0.3, 0.3), min_size=n, max_size=n), label="q"))
    jet = st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)
    v, a, j = np.array(data.draw(st.lists(jet, min_size=3, max_size=3), label="jets"))
    try:
        traj = integrate_ivp(chart, pot, CurveState(0.0, q, v, a, j), 0.5, h=0.5 / 256)
    except ChartEscapeError:
        assume(False)
    omega, scale = symplectic_form(traj)
    assert np.max(np.abs(omega)) <= 1e-9 * scale


@pytest.mark.parametrize("name", ["euclidean:2", "sphere2", "hyperbolic2", "so3", "numeric-sphere", "warped-plane"])
@settings(max_examples=3)
@given(data=st.data())
def test_segment_jacobian_matches_differences(name, data):
    """Every block of the multiple-shooting Jacobian, the jet conversions
    at both ends of its segment included, against central differences of
    the segment's map (``references.segment_map_jacobian``), on a curve of
    three segments (16, 16 and 8 steps) with no jumps, whose stitched
    operator table is then every segment's own.  The warped plane is not
    locally symmetric, so its conversions carry the nabla R term; its
    Gaussian and the numeric sphere's take the chart distance."""
    chart = {"numeric-sphere": numeric_sphere(), "warped-plane": WARPED}.get(name) or parse_manifold(name)
    n = chart.dim
    mode = "chart" if isinstance(chart, NumericChart) else "riemannian"
    pot = GaussianObstacle(chart, np.full(n, 0.1), amplitude=1.0, width=0.6, distance=mode)
    q = np.array(data.draw(st.lists(st.floats(-0.3, 0.3), min_size=n, max_size=n), label="q"))
    jet = st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)
    v, a, j = np.array(data.draw(st.lists(jet, min_size=3, max_size=3), label="jets"))
    try:
        traj = integrate_ivp(chart, pot, CurveState(0.0, q, v, a, j), 0.4, h=0.01)
    except ChartEscapeError:
        assume(False)
    lows = np.arange(0, 40, rk4._BLOCK)
    his = np.minimum(lows + rk4._BLOCK, 40)
    starts, ends = (np.array([[traj.qs[k], traj.vs[k], traj.accs[k], traj.jerks[k]] for k in ks]) for ks in (lows, his))
    blocks, _ = jacobi._segment_jacobian(traj, starts, ends)
    assert len(blocks) == 3
    for block, start, lo, hi in zip(blocks, starts, lows, his):
        ref = segment_map_jacobian(chart, pot, start, traj.ts[lo], traj.h, hi - lo)
        if lo == 0:
            ref = ref[:, 2 * n :]  # (q, v) stay fixed at the window start
        assert np.max(np.abs(block - ref)) <= 1e-6 * np.max(np.abs(ref))


def test_scan_flat_empty():
    st = CurveState(0.0, np.zeros(2), np.array([0.4, -0.1]), np.array([0.2, 0.3]), np.array([-0.5, 0.1]))
    traj = integrate_ivp(EUC2, ZeroPotential(EUC2), st, 1.0)
    report = biconjugate_scan(traj)
    assert len(report) == 0


def test_scan_quadratic_well_empty():
    # X'''' = -X never loses rank, however long the window
    pot = QuadraticWell(EUC1, center=(0.0,), stiffness=1.0)
    st = CurveState(0.0, np.array([0.1]), np.array([0.05]), np.array([-0.02]), np.array([0.01]))
    traj = integrate_ivp(EUC1, pot, st, 6.0)
    assert len(biconjugate_scan(traj)) == 0


def test_scan_finds_beam_roots():
    report = bump_scan(12.0)
    assert len(report) == 3
    for found, exact in zip(report.times, BEAM_ROOTS):
        assert abs(found - exact) < 1e-5
    assert all(s < 1e-6 for s in report.sigma_ratios)
    d = report.to_dict()
    assert len(d["points"]) == 3


def test_scan_refines_a_sigma_dip(monkeypatch):
    # on euclidean:2 every beam pair has multiplicity 2: det M touches zero
    # without a sign change, so only a sigma dip can bracket it
    pot = GaussianObstacle(EUC2, (0.0, 0.0), amplitude=1.0, width=1.0)
    rest = BoundaryData((0.0, 0.0), (0.0, 0.0), (0.0, 0.0), (0.0, 0.0), 0.0, 12.0)
    traj = solve_bvp(EUC2, pot, rest).trajectory
    refine, seen = jacobi._refine, []

    def recording(flow, t1, brackets):
        seen.extend(brackets)
        return refine(flow, t1, brackets)

    monkeypatch.setattr(jacobi, "_refine", recording)
    times = biconjugate_scan(traj).times
    assert any(not sign for _, _, sign in seen)
    assert any(abs(t - BEAM_ROOTS[2]) < 1e-5 for t in times)
    assert all(min(abs(t - r) for r in BEAM_ROOTS[:3]) < 1e-5 for t in times)


def test_scan_interior_anchor():
    pot, traj = bump_rest(12.0)
    report = biconjugate_scan(traj, t1=2.0)
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
        u = _propagate_bundle(traj, 0, np.stack([np.zeros(1), np.zeros(1), w2, w3])).states
        sup = float(np.max(np.abs(u[:, 0])))
        gap = abs(float(u[-1, 0, 0])) + abs(float(u[-1, 1, 0]))
        assert gap <= 1e-6 * sup


def test_scan_coarse_grid_warns():
    pot, traj = bump_rest(12.0)
    with pytest.warns(ResolutionWarning):
        biconjugate_scan(traj, grid=4)


@pytest.mark.parametrize("grid", [0, -3])
def test_scan_rejects_nonpositive_grid(grid):
    pot, traj = bump_rest(12.0)
    with pytest.raises(ValueError, match="positive sample count"):
        biconjugate_scan(traj, grid=grid)


@pytest.mark.parametrize("t1", [-3.0, 12.0 + 1e-6])
def test_scan_rejects_t1_outside_window(t1):
    pot, traj = bump_rest(12.0)
    with pytest.raises(ValueError, match="outside the trajectory window"):
        biconjugate_scan(traj, t1=t1)


def test_scan_reports_only_pairs_after_t1(scenario):
    # the scan marches forward from t1: on the planned well_top_long curve
    # the pair that ends at t1 = 6 is not its business
    chart, pot, bd = scenario("well_top_long")
    traj = solve_bvp(chart, pot, bd).trajectory
    report = biconjugate_scan(traj, t1=6.0)
    assert len(report) == 1
    assert abs(report.times[0] - (6.0 + BEAM_ROOTS[0])) < 1e-5
    assert all(t > report.t1 for t in report.times)


@settings(max_examples=30)
@given(
    log_T=st.floats(-5.0, 1.0),
    ends=hnp.arrays(float, (4, 2), elements=st.floats(-1.0, 1.0)),
)
def test_flat_windows_of_any_length_are_candidates(log_T, ends):
    # with V = 0 on a flat chart the scaled boundary matrix is the same for
    # every window length, so neither a short nor a long window drops rank
    T = 10.0**log_T
    res = solve_bvp(EUC2, ZeroPotential(EUC2), BoundaryData(*ends, 0.0, T))
    rep = verdict(res.trajectory)
    assert rep.classification == "candidate"
    assert len(rep.scan_report) == 0


@pytest.mark.parametrize("manifold", ["sphere2", "hyperbolic2", "so3"])
def test_short_curved_window_is_a_candidate(manifold):
    chart = parse_manifold(manifold)
    n, T = chart.dim, 1e-3
    q_a, v = np.linspace(0.1, -0.1, n), np.linspace(0.3, 0.5, n)
    pot = GaussianObstacle(chart, tuple(np.full(n, 0.15)), amplitude=1.0, width=0.5)
    res = solve_bvp(chart, pot, BoundaryData(q_a, v, q_a + T * v, v, 0.0, T))
    assert verdict(res.trajectory).classification == "candidate"


def test_negative_direction_first_pair():
    pot, traj = bump_rest(6.0)
    report = bump_scan(6.0)
    assert len(report) == 1
    t2 = report.times[0]
    nd = negative_direction(traj, 0.0, t2)
    assert nd.value < 0.0
    assert 0.0 < nd.delta < t2
    assert nd.eps > 0.0
    assert np.all(np.isfinite(nd.U))
    assert nd.ts[0] >= 0.0 and nd.ts[-1] <= 6.0


def test_negative_direction_witness_residual():
    pot, traj = bump_rest(6.0)
    t2 = bump_scan(6.0).times[0]
    nd = negative_direction(traj, 0.0, t2, delta=0.3, eps=0.0)
    assert abs(nd.value) < 1e-3


def test_negative_direction_rejects_regular_pair():
    pot, traj = bump_rest(6.0)
    with pytest.raises(ValueError, match="not a detected pair"):
        negative_direction(traj, 0.0, 2.0)


def test_negative_direction_rejects_bad_order():
    pot, traj = bump_rest(6.0)
    with pytest.raises(ValueError):
        negative_direction(traj, 3.0, 3.0)


def test_negative_direction_needs_interior_room():
    pot = GaussianObstacle(EUC1, (0.0,), amplitude=1.0, width=1.0)
    z = np.zeros(1)
    traj = integrate_ivp(EUC1, pot, CurveState(0.0, z, z, z, z), BEAM_ROOTS[0])
    with pytest.raises(ConstructionError):
        negative_direction(traj, 0.0, BEAM_ROOTS[0])


@pytest.mark.parametrize("amplitude", [1e-8, 1.0, 1e4, 1e8])
def test_negative_direction_follows_the_time_scale(amplitude):
    # the beam pair rescaled in time: X'''' = A X has its first pair at
    # A^(-1/4) times the unit one, and the construction scales with it
    pot = GaussianObstacle(EUC1, (0.0,), amplitude=amplitude, width=1.0)
    z = np.zeros(1)
    traj = integrate_ivp(EUC1, pot, CurveState(0.0, z, z, z, z), 6.0 * amplitude**-0.25)
    t2 = biconjugate_scan(traj).times[0]
    nd = negative_direction(traj, 0.0, t2)
    assert nd.value < 0.0
    assert 0.0 < nd.delta < t2
    assert nd.eps > 0.0


def test_negative_direction_far_from_time_zero():
    pot = GaussianObstacle(EUC1, (0.0,), amplitude=1.0, width=1.0)
    z = np.zeros(1)
    traj = integrate_ivp(EUC1, pot, CurveState(1e6, z, z, z, z), 6.0)
    t2 = biconjugate_scan(traj).times[0]
    nd = negative_direction(traj, 1e6, t2)
    assert nd.value < 0.0
    assert np.all((nd.ts >= 1e6) & (nd.ts <= 1e6 + 6.0))


@functools.cache
def gaussian_top(manifold, center):
    """Rest state on the top of a unit Gaussian: the beam pair in every direction."""
    chart = parse_manifold(manifold)
    pot = GaussianObstacle(chart, center, amplitude=1.0, width=1.0)
    z = np.zeros(chart.dim)
    return integrate_ivp(chart, pot, CurveState(0.0, np.array(center), z, z, z), 8.0)


@pytest.mark.parametrize(
    "manifold,center", [("sphere2", (0.3, 0.2)), ("so3", (0.2, -0.1, 0.3)), ("euclidean:2", (0.0, 0.0))]
)
@pytest.mark.parametrize("t1", [0.0, 1.0])
def test_negative_direction_on_curved_charts_and_several_dimensions(manifold, center, t1):
    # t2 is passed, not scanned: the pair is a rank drop of multiplicity n,
    # which the scan misses where n is even; from t1 = 1 both cuts get a bump
    nd = negative_direction(gaussian_top(manifold, center), t1, t1 + BEAM_ROOTS[0])
    assert nd.value < 0.0


def test_negative_direction_eps_minimizes_the_value():
    pot, traj = bump_rest(6.0)
    t2 = bump_scan(6.0).times[0]
    nd = negative_direction(traj, 0.0, t2)
    for f in (0.9, 1.1):
        assert negative_direction(traj, 0.0, t2, delta=nd.delta, eps=f * nd.eps).value >= nd.value
    again = negative_direction(traj, 0.0, t2, delta=nd.delta, eps=nd.eps).value
    assert abs(again - nd.value) <= 1e-12 * abs(nd.value)


def test_propagate_overflow_reports_blowup():
    pot, traj = bump_rest(800.0)
    with np.errstate(over="ignore"), pytest.raises(NumericalError, match="blew up"):
        _propagate_bundle(traj, 0, np.array([[0.0], [0.0], [1.0], [0.0]]))


def test_bundle_overflow_on_last_step_raises():
    # the rest state makes the field operator constant, so a field from
    # anchor k blows up a fixed number of steps later; anchor it so that
    # the first nonfinite state is the last node
    pot, traj = bump_rest(800.0)
    u0 = np.array([[[1.0], [0.0], [0.0], [0.0]]])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalError, match="blew up") as err:
            _propagate_bundle(traj, 0, u0)
        steps = round(float(str(err.value).rsplit("= ", 1)[1]) / traj.h)
        assert steps < traj.segments
        _propagate_bundle(traj, traj.segments - steps + 1, u0)
        with pytest.raises(NumericalError, match="blew up") as err:
            _propagate_bundle(traj, traj.segments - steps, u0)
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


@pytest.mark.parametrize("k", [3, 15, 16, 255, 256])
def test_march_reports_the_end_node_of_a_nan_step(k):
    # a NaN in step k's operator first shows at node k + 1: inside a block of
    # the prefix products, on both sides of a block edge and of a chunk edge
    K, h = 600, 0.01
    A = 0.3 * np.random.default_rng(k).normal(size=(3, K, 4, 4))
    A[0, k, 1, 2] = np.nan
    ts = h * np.arange(K + 1)
    with pytest.raises(NumericalError) as err:
        rk4.march(*A, h, np.ones((3, 4)), ts, "bundle")
    assert str(err.value) == f"bundle near t = {ts[k + 1]:.6g}"


@given(
    m=st.sampled_from([1, 4, 8, 12]),
    K=st.sampled_from([1, 2, 15, 16, 17, 255, 256, 257, 600]),
    batch=st.sampled_from([(), (3,), (2, 3)]),
    seed=st.integers(0, 2**32 - 1),
)
def test_march_matches_the_step_by_step_product(m, K, batch, seed):
    # the prefix products by doubling give the states of u <- u Phi_k^T, one
    # step at a time, for any batch shape of u and across block and chunk edges
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(3, K, m, m)) / np.sqrt(m)
    h = rng.uniform(0.005, 0.02, size=K)
    u = rng.normal(size=batch + (m,))
    got = rk4.march(*A, h, u, np.concatenate([[0.0], np.cumsum(h)]), "field")
    assert got.shape == (K + 1,) + u.shape
    want = [u]
    for phi in rk4.step_matrices(*A, h[:, None, None]):
        want.append(want[-1] @ phi.T)
    scale = np.max(np.abs(want).reshape(K + 1, -1), axis=1)
    assert np.all(np.abs(got - want).reshape(K + 1, -1) <= 1e-12 * scale[:, None])


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
    flow = _propagate_bundle(traj, k0, u0)
    assert rel_gap(flow.states, ref) <= 1e-12
    # off-node: one partial step out of the enclosing node, near the
    # window end and, marched from node 0, near its start
    for k, frac, flow, u in ((N - 1, 0.37, flow, ref[N - 1 - k0]), (0, 0.61, _propagate_bundle(traj, 0, u0), u0)):
        t = ts[k] + frac * h
        s = traj.interpolate(np.array([ts[k], 0.5 * (ts[k] + t), t]))
        parts = [CurveState(s.t[i], s.q[i], s.v[i], s.a[i], s.j[i]) for i in range(3)]
        want = stagewise_step(chart, pot, u, t - ts[k], *parts)
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
    nodes = _field(traj).nodes
    want = np.stack(jacobi_rhs(chart, pot, traj.state(k), JacobiState(traj.ts[k], *u)))
    got = nodes[k] @ u.ravel()
    scale = np.max(np.abs(nodes[k]) @ np.abs(u.ravel()))
    assert np.max(np.abs(got - want.ravel())) <= 1e-12 * scale + 1e-300


def test_one_series_evaluation_per_stage_and_table(monkeypatch):
    # the trajectory stage, the Jacobi operator and the operator table read
    # g, g^-1, Gamma, R and the derivatives of R off one series evaluation
    # of the numeric chart per call
    pot, traj = warped_case()
    calls = []
    tensors = NumericChart._tensors

    def counted(self, x, order):
        calls.append(order)
        return tensors(self, x, order)

    monkeypatch.setattr(NumericChart, "_tensors", counted)
    dynamics._rhs_stacked(WARPED, pot, np.stack([traj.qs, traj.vs, traj.accs, traj.jerks], axis=-2)[3:4])
    assert calls == [2]
    calls.clear()
    jacobi_operator(WARPED, pot, CurveState(traj.ts[:9], traj.qs[:9], traj.vs[:9], traj.accs[:9], traj.jerks[:9]))
    assert calls == [4]
    calls.clear()
    # a copy starts without cached tables: one evaluation for the node
    # derivatives that interpolation reads, one for the operator
    _field(replace(traj))
    assert calls == [2, 4]


def test_replaced_potential_gets_its_own_tables():
    # the tables cached on a trajectory belong to its own chart and
    # potential: a copy with another potential builds them afresh
    chart, pot, traj = march_case("euclidean2")
    nodes = _field(traj).nodes
    other = replace(traj, potential=ZeroPotential(chart))
    want = jacobi_operator(chart, other.potential, CurveState(traj.ts, traj.qs, traj.vs, traj.accs, traj.jerks))
    assert np.allclose(_field(other).nodes, want, rtol=0.0, atol=1e-12)
    assert not np.allclose(nodes, want, rtol=0.0, atol=1e-3)
    assert np.array_equal(other.node_rhs[:, 3], np.zeros_like(traj.qs))
