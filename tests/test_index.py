"""Second-variation quadrature, its FD oracle, and the Galerkin sign count.

The polynomial profile t^2(1-t)^2 on a flat rest trajectory gives the
hand value I = 4/5.  The 1-D Gaussian-bump rest case ties the eigenvalue
counts to the rank-drop times of cosh(t)cos(t) = 1.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest
import scipy.linalg
from scipy.interpolate import BSpline

import riemplan.index
from riemplan import (
    BasisError,
    CurveState,
    GaussianObstacle,
    QuadraticWell,
    ZeroPotential,
    biconjugate_scan,
    extended_index,
    integrate_ivp,
    parse_manifold,
    solve_bvp,
    transport_frame,
    verdict,
)
from riemplan.dynamics import quadrature_weights
from riemplan.index import _galerkin_matrices, _galerkin_points
from riemplan.jacobi import F_operator, _propagate_bundle

from references import (
    AdmissibleField,
    decompose,
    field_from_profiles,
    index_form,
    random_field,
    second_variation_fd,
    spline_profiles,
)

EUC1 = parse_manifold("euclidean:1")
EUC2 = parse_manifold("euclidean:2")
S2 = parse_manifold("sphere2")

FIRST_BEAM_ROOT = 4.730040744863


@functools.cache
def flat_rest(T=1.0):
    z = np.zeros(1)
    return ZeroPotential(EUC1), integrate_ivp(EUC1, ZeroPotential(EUC1), CurveState(0.0, z, z, z, z), T)


@functools.cache
def bump_rest(T):
    pot = GaussianObstacle(EUC1, (0.0,), amplitude=1.0, width=1.0)
    z = np.zeros(1)
    return pot, integrate_ivp(EUC1, pot, CurveState(0.0, z, z, z, z), T)


@functools.cache
def sphere_obstacle():
    pot = GaussianObstacle(S2, (0.4, 0.2), amplitude=1.0, width=0.6)
    st = CurveState(
        0.0, np.array([-0.3, 0.1]), np.array([0.5, 0.2]), np.array([0.2, -0.3]), np.array([0.1, 0.4])
    )
    return pot, integrate_ivp(S2, pot, st, 1.0)


def polynomial_field(traj):
    t = traj.ts
    P = (t**2 * (1.0 - t) ** 2)[:, None]
    dP = (2.0 * t - 6.0 * t**2 + 4.0 * t**3)[:, None]
    d2P = (2.0 - 12.0 * t + 12.0 * t**2)[:, None]
    return field_from_profiles(traj, P, dP, d2P)


def combine(f1, f2, a):
    return AdmissibleField(f1.ts, a * f1.X + f2.X, a * f1.dX + f2.dX, a * f1.d2X + f2.d2X)


def test_index_form_zero_field():
    pot, traj = flat_rest()
    zero = AdmissibleField(traj.ts, np.zeros_like(traj.qs), np.zeros_like(traj.qs), np.zeros_like(traj.qs))
    assert index_form(traj, zero, zero) == 0.0


def test_index_form_hand_integral():
    pot, traj = flat_rest()
    X = polynomial_field(traj)
    assert abs(index_form(traj, X, X) - 0.8) < 1e-8


def test_index_form_bilinear():
    rng = np.random.default_rng(41)
    pot, traj = sphere_obstacle()
    X1 = random_field(traj, rng)
    X2 = random_field(traj, rng)
    Y = random_field(traj, rng)
    lhs = index_form(traj, combine(X1, X2, 0.7), Y)
    rhs = 0.7 * index_form(traj, X1, Y) + index_form(traj, X2, Y)
    assert abs(lhs - rhs) < 1e-10


def test_index_form_grid_mismatch():
    pot, traj = flat_rest()
    _, other = flat_rest(2.0)
    X = polynomial_field(other)
    with pytest.raises(ValueError, match="grid"):
        index_form(traj, X, X)


def test_admissible_field_end_validation():
    pot, traj = flat_rest()
    bad = AdmissibleField(traj.ts, np.ones_like(traj.qs), np.zeros_like(traj.qs), np.zeros_like(traj.qs))
    with pytest.raises(ValueError, match="vanish"):
        index_form(traj, bad, bad)


def test_random_field_unit_sobolev_norm():
    rng = np.random.default_rng(41)
    _, traj = sphere_obstacle()
    from riemplan.dynamics import quadrature_weights

    fld = random_field(traj, rng)
    w = quadrature_weights(len(traj.ts), traj.h)
    qs = traj.qs
    h2 = float(
        w
        @ (
            S2.inner(qs, fld.X, fld.X)
            + S2.inner(qs, fld.dX, fld.dX)
            + S2.inner(qs, fld.d2X, fld.d2X)
        )
    )
    assert abs(h2 - 1.0) < 1e-9


def test_decompose_sums_to_index_form():
    rng = np.random.default_rng(41)
    pot, traj = sphere_obstacle()
    X = random_field(traj, rng)
    Y = random_field(traj, rng)
    i_c, p_plus, p_minus = decompose(traj, X, Y)
    total = index_form(traj, X, Y)
    assert abs(i_c + p_plus + p_minus - total) < 1e-10


def test_decompose_symmetries():
    rng = np.random.default_rng(41)
    pot, traj = sphere_obstacle()
    X = random_field(traj, rng)
    Y = random_field(traj, rng)
    cx, px, mx = decompose(traj, X, Y)
    cy, py, my = decompose(traj, Y, X)
    assert abs(cx - cy) < 1e-10
    assert abs(px - py) < 1e-10
    assert abs(mx + my) < 1e-10
    # diagonal antisymmetric part cancels identically
    _, _, diag = decompose(traj, X, X)
    assert diag == 0.0


def test_decompose_skew_pairing_identity():
    rng = np.random.default_rng(41)
    pot, traj = sphere_obstacle()
    X = random_field(traj, rng)
    Y = random_field(traj, rng)
    _, _, p_minus = decompose(traj, X, Y)
    gap = index_form(traj, X, Y) - index_form(traj, Y, X)
    assert abs(gap - 2.0 * p_minus) < 1e-9


def test_decompose_zero_potential_couplings():
    pot, traj = flat_rest()
    X = polynomial_field(traj)
    i_c, p_plus, p_minus = decompose(traj, X, X)
    assert p_plus == 0.0 and p_minus == 0.0
    assert abs(i_c - 0.8) < 1e-8


def test_fd_matches_hand_integral():
    pot, traj = flat_rest()
    X = polynomial_field(traj)
    fd = second_variation_fd(traj, X, X)
    assert abs(fd - 0.8) < 1e-3


def test_fd_zero_field():
    pot, traj = flat_rest()
    X = polynomial_field(traj)
    zero = AdmissibleField(traj.ts, 0.0 * X.X, 0.0 * X.dX, 0.0 * X.d2X)
    assert abs(second_variation_fd(traj, X, zero)) < 1e-12


def test_fd_matches_index_form_on_sphere():
    rng = np.random.default_rng(41)
    pot, traj = sphere_obstacle()
    X = random_field(traj, rng)
    Y = random_field(traj, rng)
    val = index_form(traj, X, Y)
    fd = second_variation_fd(traj, X, Y)
    assert abs(fd - val) <= 1e-3 * (1.0 + abs(val))


def test_fd_kinked_field_needs_no_knot_correction():
    # D^2 of the field jumps at t = 1/2; the pairing integrand is still L^1
    pot, traj = flat_rest()
    t = traj.ts
    u = np.maximum(0.0, t - 0.5)
    base = t**2 * (1.0 - t) ** 2
    dbase = 2.0 * t - 6.0 * t**2 + 4.0 * t**3
    d2base = 2.0 - 12.0 * t + 12.0 * t**2
    P = (base + 0.8 * u**2 * (1.0 - t) ** 2)[:, None]
    dP = (dbase + 0.8 * (2.0 * u * (1.0 - t) ** 2 - 2.0 * u**2 * (1.0 - t)))[:, None]
    d2P = (d2base + 0.8 * (2.0 * (t > 0.5) * (1.0 - t) ** 2 - 8.0 * u * (1.0 - t) + 2.0 * u**2))[:, None]
    X = field_from_profiles(traj, P, dP, d2P)
    val = index_form(traj, X, X)
    fd = second_variation_fd(traj, X, X)
    assert abs(fd - val) <= 1e-3 * (1.0 + abs(val))


def test_fd_warns_when_roundoff_dominates():
    # rest curves have near-zero action, so use one with J = 1/6
    pot = ZeroPotential(EUC1)
    z = np.zeros(1)
    traj = integrate_ivp(EUC1, pot, CurveState(0.0, z, z, z, np.ones(1)), 1.0)
    X = polynomial_field(traj)
    with pytest.warns(RuntimeWarning, match="roundoff"):
        second_variation_fd(traj, X, X, eps=1e-8)


def test_kernel_field_annihilates_the_pairing():
    # window ending exactly at the first rank-drop time: the witness is an
    # admissible field in the kernel of the pairing
    rng = np.random.default_rng(41)
    pot, traj6 = bump_rest(6.0)
    report = biconjugate_scan(traj6)
    t2 = report.times[0]
    w2, w3 = report.witnesses[0]
    pot, traj = bump_rest(t2)
    u = _propagate_bundle(traj, 0, np.stack([np.zeros(1), np.zeros(1), w2, w3])).states
    X, dX, d2X = u[:, 0].copy(), u[:, 1].copy(), u[:, 2].copy()
    for arr in (X, dX):  # clamp the integrator residual at the ends
        arr[0] = 0.0
        arr[-1] = 0.0
    kern = AdmissibleField(traj.ts, X, dX, d2X)
    for _ in range(5):
        Y = random_field(traj, rng)
        assert abs(index_form(traj, kern, Y)) <= 1e-5


def test_spline_profiles_shapes_and_boundary():
    ts = np.linspace(0.0, 2.0, 401)
    P0, P1, P2, knots = spline_profiles(ts, 2.0, 7)
    assert P0.shape == (7, 401) and len(knots) == 5
    for arr in (P0, P1):
        assert np.max(np.abs(arr[:, 0])) < 1e-12
        assert np.max(np.abs(arr[:, -1])) < 1e-12


def test_spline_profiles_dyadic_nesting_rules():
    ts = np.linspace(0.0, 1.0, 101)
    _, _, _, k3 = spline_profiles(ts, 1.0, 3)
    _, _, _, k5 = spline_profiles(ts, 1.0, 5)
    assert set(np.round(k3, 12)) <= set(np.round(k5, 12))
    with pytest.raises(BasisError):
        spline_profiles(ts, 1.0, 1)


# the ids keep the names of the former (m, dyadic) cases; the knots of all are uniform
@pytest.mark.parametrize(
    "m", [2, 3, 7, 60, 5, 240], ids=["2-False", "3-False", "7-False", "60-False", "5-True", "240"]
)
def test_spline_profiles_match_scipy_bspline(m):
    T = 1.7
    knots = spline_profiles(np.zeros(1), T, m)[3]
    # every knot, both ends among them, and the Galerkin quadrature points
    ts = np.concatenate([[0.0], knots, [T], _galerkin_points(T, knots)[0]])
    spl = BSpline(np.concatenate([np.zeros(6), knots, np.full(6, T)]), np.eye(m + 4)[:, 2:-2], 5)
    ref = (spl(ts).T, spl.derivative()(ts).T, spl.derivative(2)(ts).T)
    for got, want in zip(spline_profiles(ts, T, m)[:3], ref):
        assert got.shape == want.shape == (m, len(ts))
        assert np.all(np.abs(got - want) <= 1e-13 * np.max(np.abs(want), axis=1, keepdims=True))


@pytest.mark.parametrize("bad", ["nan", "indefinite"])
def test_extended_index_rejects_a_bad_mass_matrix(monkeypatch, bad):
    """A mass matrix with a NaN, or an indefinite one of condition 1, is a
    BasisError that names the mass matrix, not a linear-algebra error."""
    pot, traj = flat_rest()

    def broken(trajectory, m):
        B = np.eye(m * trajectory.chart.dim)
        B[1, 1] = np.nan if bad == "nan" else -1.0
        return np.eye(len(B)), B, np.linspace(0.0, trajectory.T, m)[1:-1]

    monkeypatch.setattr(riemplan.index, "_galerkin_matrices", broken)
    with pytest.raises(BasisError, match="mass"):
        extended_index(traj, 6)


@pytest.mark.parametrize("name", ["flat_obstacle", "sphere_obstacle"])
def test_mass_condition_is_the_svd_condition(scenario, monkeypatch, name):
    """The mass matrix is a symmetric positive Gram matrix, so the ratio of
    its extreme eigenvalues is the 2-norm condition number; an indefinite
    one has an infinite condition, not a negative ratio below the cutoff."""
    chart, pot, bd = scenario(name)
    traj = solve_bvp(chart, pot, bd).trajectory
    m = int(np.ceil(120 / chart.dim))
    B = _galerkin_matrices(traj, m)[1]
    assert extended_index(traj, m).mass_condition == pytest.approx(np.linalg.cond(B), rel=1e-9)

    def indefinite(trajectory, m):
        return np.eye(2), np.diag([-1.0, 2.0]), np.zeros(0)

    monkeypatch.setattr(riemplan.index, "_galerkin_matrices", indefinite)
    with pytest.raises(BasisError, match="mass condition inf"):
        extended_index(traj, m)


def test_extended_index_flat_positive():
    pot, traj = flat_rest()
    rep = extended_index(traj, 12)
    assert rep.verdict == "positive_definite"
    assert rep.index == 0 and rep.kernel_dim == 0
    assert rep.extended_index == 0
    assert rep.n_fields == 12
    assert np.all(rep.eigenvalues > 0.0)


def test_extended_index_quadratic_well_positive():
    pot = QuadraticWell(EUC1, center=(0.0,), stiffness=1.0)
    st = CurveState(0.0, np.array([0.1]), np.array([0.05]), np.array([-0.02]), np.array([0.01]))
    traj = integrate_ivp(EUC1, pot, st, 12.0)
    rep = extended_index(traj, 24)
    assert rep.verdict == "positive_definite"
    assert rep.index == 0


def test_extended_index_counts_rank_drops():
    pot, traj3 = bump_rest(3.0)
    assert extended_index(traj3, 20).index == 0
    pot, traj6 = bump_rest(6.0)
    assert extended_index(traj6, 20).index >= 1
    pot, traj9 = bump_rest(9.0)
    assert extended_index(traj9, 24).index >= 2


def test_extended_index_stabilizes():
    pot, traj = bump_rest(6.0)
    counts = [extended_index(traj, m).index for m in (10, 20, 40)]
    assert counts[1] == counts[2]
    assert counts[0] <= counts[1]


def test_extended_index_dyadic_monotone():
    pot, traj = bump_rest(6.0)
    counts = [extended_index(traj, m).index for m in (3, 5, 9, 17)]
    assert all(a <= b for a, b in zip(counts, counts[1:]))


def test_window_start_does_not_matter():
    # V does not depend on time: a window shifted from t = 0 gives the same
    # spectrum, and random fields stay admissible on it
    pot, traj = bump_rest(6.0)
    z = np.zeros(1)
    shifted = integrate_ivp(EUC1, pot, CurveState(1.5, z, z, z, z), 6.0)
    a = extended_index(traj, 20)
    b = extended_index(shifted, 20)
    assert b.index == a.index >= 1
    assert np.max(np.abs(a.eigenvalues - b.eigenvalues)) <= 1e-10
    X = random_field(traj, np.random.default_rng(5))
    Y = random_field(shifted, np.random.default_rng(5))
    assert abs(index_form(shifted, Y, Y) - index_form(traj, X, X)) <= 1e-10


def test_extended_index_profiles_finer_than_grid():
    # far more profiles than grid nodes: the Gram form is integrated at
    # Gauss points, not on the nodes, so it stays as well conditioned as
    # on a fine grid
    pot = ZeroPotential(EUC1)
    z = np.zeros(1)
    coarse = integrate_ivp(EUC1, pot, CurveState(0.0, z, z, z, z), 1.0, h=1.0 / 20)
    _, fine = flat_rest()
    a = extended_index(coarse, 80)
    b = extended_index(fine, 80)
    assert a.verdict == "positive_definite"
    assert a.mass_condition == pytest.approx(b.mass_condition, rel=1e-9)
    assert np.max(np.abs(a.eigenvalues / b.eigenvalues - 1.0)) <= 1e-9


def test_galerkin_count_is_grid_independent(scenario):
    # at 50 steps the node quadrature found 14 spurious negative eigenvalues
    chart, pot, bd = scenario("flat_obstacle")
    reps = [
        verdict(solve_bvp(chart, pot, bd, h=bd.span / N).trajectory)
        for N in (50, 400)
    ]
    for rep in reps:
        assert rep.classification == "candidate"
        assert rep.index_report.index == 0
    coarse, fine = (r.index_report for r in reps)
    assert abs(coarse.mass_condition / fine.mass_condition - 1.0) <= 1e-6
    assert np.max(np.abs(coarse.eigenvalues[:8] / fine.eigenvalues[:8] - 1.0)) <= 1e-6


def test_verdict_flat_candidate():
    # the flat rest state, and a short window on the curved sphere_obstacle curve
    for chart, (pot, traj) in ((EUC1, flat_rest()), (S2, sphere_obstacle())):
        rep = verdict(traj, m=24)
        assert rep.classification == "candidate"
        assert rep.certified_interval == (0.0, 1.0)
        assert rep.index_report.index == 0
        assert len(rep.scan_report.times) == 0
        d = rep.to_dict()
        assert d["classification"] == "candidate"
        assert d["galerkin"]["index"] == 0


def test_verdict_past_first_rank_drop():
    pot, traj = bump_rest(6.0)
    rep = verdict(traj, m=24)
    assert rep.classification == "not_omega_local"
    assert abs(rep.certified_interval[1] - FIRST_BEAM_ROOT) < 1e-5


def galerkin_reference(chart, pot, traj, m):
    """A and B assembled pointwise at the Galerkin quadrature points:
    F_operator per jet slot, one BSpline per profile, one einsum per block."""
    _, _, _, interior = spline_profiles(traj.ts, traj.T, m)
    s, w = _galerkin_points(traj.T, interior)
    cs = traj.interpolate(traj.ts[0] + s)
    ts, qs = cs.t, cs.q
    frame = transport_frame(chart, ts, qs, cs.v)
    g = chart.metric(qs)
    states = CurveState(ts, qs[:, None], cs.v[:, None], cs.a[:, None], cs.j[:, None])
    zero = np.zeros_like(frame)
    f0 = F_operator(chart, states, frame, zero, zero) + pot.hessian_op(qs[:, None], frame)
    f1 = F_operator(chart, states, zero, frame, zero)
    f2 = F_operator(chart, states, zero, zero, frame)

    def pair(tab):
        return np.einsum("sja,sab,sib->sji", frame, g, tab)

    kv = np.concatenate([np.zeros(6), interior, np.full(6, traj.T)])
    P = np.zeros((3, m, len(ts)))
    for k in range(m):
        spl = BSpline(kv, np.eye(m + 4)[k + 2], 5)
        P[0, k], P[1, k], P[2, k] = spl(s), spl.derivative()(s), spl.derivative(2)(s)

    def asm(Pl, Pk, tab):
        return np.einsum("ls,ks,sji->ljki", Pl, Pk, w[:, None, None] * tab)

    Gm = pair(frame)
    A = asm(P[2], P[2], Gm) + asm(P[0], P[0], pair(f0)) + asm(P[0], P[1], pair(f1)) + asm(P[0], P[2], pair(f2))
    B = asm(P[0], P[0], Gm) + asm(P[1], P[1], Gm) + asm(P[2], P[2], Gm)
    dim = m * chart.dim
    A, B = A.reshape(dim, dim), B.reshape(dim, dim)
    return 0.5 * (A + A.T), 0.5 * (B + B.T)


@pytest.mark.parametrize("name", ["flat_obstacle", "well_top", "sphere_curve"])
def test_galerkin_assembly_matches_einsum_reference(scenario, name):
    if name == "sphere_curve":
        # curved: the F tables are not symmetric, so block order shows
        chart = S2
        pot, traj = sphere_obstacle()
    else:
        chart, pot, bd = scenario(name)
        traj = solve_bvp(chart, pot, bd, h=bd.span / 200).trajectory
    m = 30
    A, B, _ = _galerkin_matrices(traj, m)
    A_ref, B_ref = galerkin_reference(chart, pot, traj, m)
    assert np.max(np.abs(A - A_ref)) <= 1e-12 * np.max(np.abs(A_ref))
    assert np.max(np.abs(B - B_ref)) <= 1e-12 * np.max(np.abs(B_ref))

    def counts(ev):
        return int(np.sum(ev < -1e-9)), int(np.sum(np.abs(ev) <= 1e-9))

    evals = np.sort(scipy.linalg.eigh(A_ref, B_ref, eigvals_only=True))
    ref = counts(evals)
    rep = extended_index(traj, m)
    assert (rep.index, rep.kernel_dim) == ref
    assert np.max(np.abs(rep.eigenvalues - evals)) <= 1e-10
    assert ref == {"flat_obstacle": (0, 0), "well_top": (1, 0), "sphere_curve": (0, 0)}[name]


def _curve(scenario, name):
    if name == "sphere_curve":
        return (S2, *sphere_obstacle())
    chart, pot, bd = scenario(name)
    return chart, pot, solve_bvp(chart, pot, bd, h=bd.span / 200).trajectory


@pytest.mark.parametrize(
    "name, m",
    [(name, m) for name in ("flat_obstacle", "sphere_curve") for m in (2, 3, 7)] + [("well_top", 240)],
)
def test_galerkin_band_matches_einsum_reference(scenario, name, m):
    """The span blocks give the dense reference at any m: at m = 2 one knot
    span's 6 local members hold only the 2 profiles, and at m = 240 on
    n = 1 the band is 240 profiles long."""
    chart, pot, traj = _curve(scenario, name)
    A, B, _ = _galerkin_matrices(traj, m)
    A_ref, B_ref = galerkin_reference(chart, pot, traj, m)
    assert A.shape == B.shape == (m * chart.dim,) * 2
    assert np.max(np.abs(A - A_ref)) <= 1e-12 * np.max(np.abs(A_ref))
    assert np.max(np.abs(B - B_ref)) <= 1e-12 * np.max(np.abs(B_ref))
    if m <= 3:
        evals = scipy.linalg.eigh(A_ref, B_ref, eigvals_only=True)
        rep = extended_index(traj, m)
        assert (rep.index, rep.kernel_dim) == (int(np.sum(evals < -1e-9)), int(np.sum(np.abs(evals) <= 1e-9)))


@pytest.mark.parametrize("name", ["flat_obstacle", "sphere_curve", "rotation"])
def test_galerkin_band_is_exactly_zero_off_band(scenario, name):
    """Quintic profiles more than 5 knots apart share no span."""
    chart, pot, traj = _curve(scenario, name)
    m = 20
    A, B, _ = _galerkin_matrices(traj, m)
    prof = np.arange(m * chart.dim) // chart.dim
    far = np.abs(prof[:, None] - prof[None, :]) > 5
    assert np.all(A[far] == 0.0) and np.all(B[far] == 0.0)
