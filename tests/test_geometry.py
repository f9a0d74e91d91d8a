"""Identity suite for the chart layer.

Most checks here are algebraic identities sampled at random points:
curvature symmetries, compatibility of the metric with the connection,
constant-curvature closed forms against the coordinate route, and
transport isometry.  Tolerances are 1e-8/1e-9 on analytic charts and on
the numeric chart, whose derivatives come from exact Taylor series.
Each test draws its data from its own generator, so a test sees the same
inputs alone, under ``-k`` and in the full suite.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from riemplan import (
    ChartDomainError,
    ChartEscapeError,
    ConfigError,
    InjectivityError,
    NumericalError,
    NumericChart,
    parallel_transport,
    parse_manifold,
    transport_frame,
)
from riemplan.geometry import ManifoldChart, Sphere2Chart, base
from riemplan.geometry.charts import _radial_dchristoffel

from references import curvature_from_christoffel

EUC3 = parse_manifold("euclidean:3")
S2 = parse_manifold("sphere2")
H2 = parse_manifold("hyperbolic2")
SO3 = parse_manifold("so3")

ANALYTIC = [EUC3, S2, H2, SO3]


def sample_points(chart, n, rng):
    """Random points comfortably inside the chart's validity region."""
    if chart.name.startswith("euclidean"):
        return rng.normal(size=(n, chart.dim))
    if chart.name == "sphere2":
        r = 2.0
    elif chart.name == "hyperbolic2":
        r = 0.75
    else:
        r = 2.2  # so3, angle cap pi - 0.2
    x = rng.normal(size=(n, chart.dim))
    x *= (r * rng.random((n, 1)) ** (1.0 / chart.dim)) / np.linalg.norm(x, axis=1, keepdims=True)
    return x


SPHERE_CONF = "4 / (1 + x0**2 + x1**2)**2"


def numeric_sphere():
    """The round-sphere metric handed over as an expression table."""
    return NumericChart(2, [[SPHERE_CONF, "0"], ["0", SPHERE_CONF]], domain_radius=5.0, name="numeric-sphere")


@pytest.mark.parametrize("chart", ANALYTIC, ids=lambda c: c.name)
def test_metric_symmetric_positive_definite(chart):
    x = sample_points(chart, 100, np.random.default_rng(1))
    g = chart.metric(x)
    assert np.max(np.abs(g - np.swapaxes(g, -1, -2))) < 1e-14
    assert np.min(np.linalg.eigvalsh(g)) > 0.0


@pytest.mark.parametrize("chart", ANALYTIC, ids=lambda c: c.name)
def test_christoffel_torsion_free(chart):
    x = sample_points(chart, 100, np.random.default_rng(2))
    gam = chart.at(x, 1).Gamma
    assert np.max(np.abs(gam - np.swapaxes(gam, -1, -2))) < 1e-9


@pytest.mark.parametrize(
    "chart,tol",
    [(EUC3, 1e-8), (S2, 1e-8), (H2, 1e-8), (SO3, 1e-8), (numeric_sphere(), 1e-8)],
    ids=lambda c: getattr(c, "name", str(c)),
)
def test_metric_compatibility(chart, tol):
    # d_l g_ab = Gamma^m_la g_mb + Gamma^m_lb g_am, with d g from a
    # five-point central difference of the metric
    rng = np.random.default_rng(3)
    x = sample_points(chart, 100, rng) if chart.name != "numeric-sphere" else sample_points(S2, 20, rng)
    g = chart.metric(x)
    h = 1e-4
    dg = np.stack(
        [
            (8.0 * (chart.metric(x + e) - chart.metric(x - e)) - chart.metric(x + 2 * e) + chart.metric(x - 2 * e))
            / (12.0 * h)
            for e in h * np.eye(chart.dim)
        ],
        axis=-3,
    )
    gam = chart.at(x, 1).Gamma
    rec = np.einsum("...mla,...mb->...lab", gam, g) + np.einsum(
        "...mlb,...am->...lab", gam, g
    )
    assert np.max(np.abs(dg - rec)) < tol


@pytest.mark.parametrize("chart", ANALYTIC + [numeric_sphere()], ids=lambda c: c.name)
def test_connection_derivative_matches_central_differences(chart):
    # dGamma is exact on every chart: the test takes central differences
    # of Gamma itself as the reference; g^-1 inverts g
    rng = np.random.default_rng(15)
    x = sample_points(S2 if chart.name == "numeric-sphere" else chart, 20, rng)
    h = 1e-5
    fd = np.stack(
        [(chart.at(x + h * e, 1).Gamma - chart.at(x - h * e, 1).Gamma) / (2 * h) for e in np.eye(chart.dim)], axis=1
    )
    p = chart.at(x, 2)
    dgam = p.dGamma
    assert dgam.shape == fd.shape
    assert np.max(np.abs(dgam - fd)) <= 1e-7 * np.max(np.abs(dgam))
    assert np.max(np.abs(p.ginv @ p.g - np.eye(chart.dim))) < 1e-13


@pytest.mark.parametrize("chart", [S2, H2], ids=lambda c: c.name)
def test_conformal_connection_derivative_scales_gamma(chart):
    # the record's dGamma takes p' = -k w p; the general radial formula,
    # fed p' = 2 k^2 w^2 directly, is the reference, point by point
    x = sample_points(chart, 200, np.random.default_rng(17))
    k = chart.space_curvature
    w = 1.0 / (1.0 + k * np.einsum("...a,...a->...", x, x))
    p, dp = -2.0 * k * w, 2.0 * k * k * w * w
    ref = _radial_dchristoffel(x, (p, -p, None), (dp, -dp))
    got = chart.at(x, 2).dGamma
    scale = np.max(np.abs(ref), axis=(-4, -3, -2, -1))
    assert np.all(np.max(np.abs(got - ref), axis=(-4, -3, -2, -1)) <= 1e-15 * scale)


@settings(max_examples=30)
@given(name=st.sampled_from(["sphere2", "hyperbolic2", "so3"]), seed=st.integers(0, 2**32 - 1))
def test_radial_contractions_match_the_record_arrays(name, seed):
    # each closed form against the einsum on the arrays its record builds
    # on read, within 1e-13 of the sum of the terms' magnitudes
    chart = parse_manifold(name)
    rng = np.random.default_rng(seed)
    x = sample_points(chart, 8, rng)
    b, u, v = rng.normal(size=(3, 8, chart.dim))
    p = chart.at(x, 2)
    cases = [
        (p.gamma(u, v), "...kij,...i,...j->...k", (p.Gamma, u, v)),
        (p.lower(v), "...ab,...b->...a", (p.g, v)),
        (p.raise_covector(v), "...ab,...b->...a", (p.ginv, v)),
        (p.gamma_adjoint(b, v), "...k,...kdj,...j->...d", (b, p.Gamma, v)),
        (p.dgamma_adjoint(b, u, v), "...k,...dkij,...i,...j->...d", (b, p.dGamma, u, v)),
    ]
    for got, spec, ops in cases:
        scale = np.einsum(spec, *map(np.abs, ops))
        assert np.all(np.abs(got - np.einsum(spec, *ops)) <= 1e-13 * scale), spec


def test_so3_geometry_needs_no_matrix_inverse(monkeypatch):
    # so3 states g^-1 = (I - beta x x^T) / u in closed form
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.inv called")

    monkeypatch.setattr(np.linalg, "inv", refuse)
    rng = np.random.default_rng(16)
    x = sample_points(SO3, 10, rng)
    X, Y, Z = rng.normal(size=(3, 10, 3))
    p = SO3.at(x, 2)
    for out in (p.ginv, p.Gamma, SO3.gamma(x, X, Y), p.dGamma, SO3.curvature(x, X, Y, Z)):
        assert np.all(np.isfinite(out))


@pytest.mark.parametrize("chart", ANALYTIC, ids=lambda c: c.name)
def test_curvature_antisymmetries_and_bianchi(chart):
    rng = np.random.default_rng(4)
    x = sample_points(chart, 50, rng)
    X, Y, Z, W = rng.normal(size=(4, 50, chart.dim))

    def rm(a, b, c, d):
        return chart.inner(x, chart.curvature(x, a, b, c), d)

    assert np.max(np.abs(rm(X, Y, Z, W) + rm(Y, X, Z, W))) < 1e-9
    assert np.max(np.abs(rm(X, Y, Z, W) + rm(X, Y, W, Z))) < 1e-9
    bianchi = (
        chart.curvature(x, X, Y, Z)
        + chart.curvature(x, Y, Z, X)
        + chart.curvature(x, Z, X, Y)
    )
    assert np.max(np.abs(bianchi)) < 1e-9


@pytest.mark.parametrize(
    "chart,kappa", [(S2, 1.0), (H2, -1.0), (SO3, 0.25)], ids=["sphere2", "hyperbolic2", "so3"]
)
def test_constant_curvature_closed_form(chart, kappa):
    rng = np.random.default_rng(5)
    x = sample_points(chart, 30, rng)
    X, Y, Z = rng.normal(size=(3, 30, chart.dim))
    closed = kappa * (
        chart.inner(x, Y, Z)[..., None] * X - chart.inner(x, X, Z)[..., None] * Y
    )
    assert np.max(np.abs(chart.curvature(x, X, Y, Z) - closed)) < 1e-12
    # and the coordinate route from the exact Christoffel derivatives agrees
    coord = curvature_from_christoffel(chart, x, X, Y, Z)
    assert np.max(np.abs(coord - closed)) < 1e-10


def test_orthonormal_curvature_identity():
    # R(e1,e2)e2 = kappa e1 for an orthonormal pair
    for chart, kappa in ((S2, 1.0), (H2, -1.0)):
        x = np.array([0.3, -0.2])
        g = chart.metric(x)
        e1 = np.array([1.0, 0.0]) / np.sqrt(g[0, 0])
        e2 = np.array([0.0, 1.0]) / np.sqrt(g[1, 1])
        out = chart.curvature(x, e1, e2, e2)
        assert np.allclose(out, kappa * e1, atol=1e-12)


def test_so3_curvature_vs_coordinate_route():
    rng = np.random.default_rng(6)
    x = sample_points(SO3, 20, rng)
    X, Y, Z = rng.normal(size=(3, 20, 3))
    lie = SO3.curvature(x, X, Y, Z)
    coord = curvature_from_christoffel(SO3, x, X, Y, Z)
    assert np.max(np.abs(lie - coord)) < 1e-10


def test_so3_sectional_curvature_quarter():
    # bi-invariant metric: sec = 1/4 on every plane
    x = np.array([0.4, -0.1, 0.2])
    g = SO3.metric(x)
    X, Y = np.random.default_rng(7).normal(size=(2, 3))
    sec = float(
        SO3.inner(x, SO3.curvature(x, X, Y, Y), X)
        / (SO3.inner(x, X, X) * SO3.inner(x, Y, Y) - SO3.inner(x, X, Y) ** 2)
    )
    assert abs(sec - 0.25) < 1e-10
    assert np.allclose(g, g.T)


def test_flat_curvature_zero():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(10, 3))
    X, Y, Z = rng.normal(size=(3, 10, 3))
    assert np.max(np.abs(EUC3.curvature(x, X, Y, Z))) == 0.0
    assert np.max(np.abs(EUC3.at(x, 1).Gamma)) == 0.0


@pytest.mark.parametrize("chart", [EUC3, S2, H2, SO3], ids=lambda c: c.name)
def test_nabla_R_zero_on_symmetric_charts(chart):
    assert chart.locally_symmetric
    rng = np.random.default_rng(9)
    x = sample_points(chart, 1, rng)[0]
    W, X, Y, Z = rng.normal(size=(4, chart.dim))
    p = chart.at(x, 4)
    assert np.max(np.abs(p.nabla_R(W, X, Y, Z))) == 0.0
    assert np.max(np.abs(p.nabla2_R(W, X, Y, Z))) == 0.0


def test_numeric_sphere_curvature_and_nabla_R():
    num = numeric_sphere()
    assert not num.locally_symmetric
    x = np.array([0.4, -0.3])
    X, Y, Z, W = np.random.default_rng(10).normal(size=(4, 2))
    # series curvature against the analytic constant-curvature value
    exact = S2.curvature(x, X, Y, Z)
    assert np.max(np.abs(num.curvature(x, X, Y, Z) - exact)) < 1e-12
    # covariant derivative of R vanishes on the round sphere
    p = num.at(x, 4)
    assert np.max(np.abs(p.nabla_R(W, X, Y, Z))) < 1e-12
    assert np.max(np.abs(p.nabla2_R(W, X, Y, Z))) < 1e-12


# every whitelisted function and operator; the floors stay constant on [-1, 1]^2
SERIES_TABLE = [
    [
        "2 + exp(0.3*sin(x0)) + 0.1*cosh(x1) + 0.2*tanh(x0*x1) - 0.1*cos(pi*x0/4)",
        "0.1*abs(x0 - 3)/(2 + x1**2) + 0.05*(x0 + 4)**(0.5*x1) + 0.01*x1*((x0 + 7)//5) + 0.02*((x1 + 7) % (5 + 0.1*x0))",
    ],
    [
        "0.1*abs(x0 - 3)/(2 + x1**2) + 0.05*(x0 + 4)**(0.5*x1) + 0.01*x1*((x0 + 7)//5) + 0.02*((x1 + 7) % (5 + 0.1*x0))",
        "2 + 0.1*log(2 + cos(x0)) + 0.1*sqrt(1 + x1**2) + 0.1*sinh(x0)*tan(0.3*x1) + 0.05*e**(-x1) + 0.01*x0**3",
    ],
]


NUMPY_NAMES = {f: getattr(np, f) for f in ("sin", "cos", "tan", "exp", "log", "sqrt", "sinh", "cosh", "tanh", "abs")}


@settings(max_examples=30)
@given(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)))
def test_series_derivatives_match_central_differences(p):
    # numpy evaluates the table's values; central differences of them are
    # the reference for the series' first and second derivatives
    chart = NumericChart(2, SERIES_TABLE, name="series-table")
    x = np.array(p)
    names = {**NUMPY_NAMES, "pi": np.pi, "e": np.e, "x0": x[0], "x1": x[1]}
    ref = np.array([[eval(e, {"__builtins__": {}}, names) for e in row] for row in SERIES_TABLE])
    assert np.max(np.abs(chart.metric(x) - ref)) <= 1e-14 * np.max(np.abs(ref))
    h = 1e-5
    steps = [h * e for e in np.eye(2)]
    fd_gam = np.stack([(chart.at(x + e, 1).Gamma - chart.at(x - e, 1).Gamma) / (2 * h) for e in steps])
    dgam = chart.at(x, 2).dGamma
    assert np.max(np.abs(dgam - fd_gam)) <= 1e-6 * np.max(np.abs(dgam))
    # R and nabla R through their own series: the coordinate route and the
    # second Bianchi identity (nab_X R)(Y, Z) + (nab_Y R)(Z, X) + (nab_Z R)(X, Y) = 0
    X, Y, Z, U = np.random.default_rng(5).normal(size=(4, 2))
    R = chart.curvature(x, X, Y, Z)
    assert np.max(np.abs(R - curvature_from_christoffel(chart, x, X, Y, Z))) <= 1e-12 * np.max(np.abs(R))
    nR = chart.at(x, 3).nabla_R
    bianchi = nR(X, Y, Z, U) + nR(Y, Z, X, U) + nR(Z, X, Y, U)
    assert np.max(np.abs(bianchi)) <= 1e-12 * np.max(np.abs(nR(X, Y, Z, U)))


# identities that vanish for |x0|, |x1| <= 1, through every whitelisted function and operator;
# ZERO_A varies with x1 and ZERO_B with x0, so an error in either bends the diagonal metric
ZERO_A = (
    "sin(pi*x1)**2 + cos(pi*x1)**2 - 1 + tan(x1)*cos(x1) - sin(x1)"
    " + cosh(x1 - x0)**2 - sinh(x1 - x0)**2 - 1 + tanh(x0*x1)*cosh(x0*x1) - sinh(x0*x1)"
)
ZERO_B = "exp(log(2 + x0)) - x0 - 2 + sqrt(2 + x0*x1)**2 - x0*x1 - 2 + (1 + x0**2)**2.5 - (1 + x0**2)**2*sqrt(1 + x0**2)"
ZERO_C = (
    "abs(x1 - 3) + x1 - 3 + (2 + x1)**(x0 + 1) - (2 + x1)*(2 + x1)**x0 + e**x0 - exp(x0)"
    " + (x0 + 7)//5 - 1 + (x1 + 7) % 5 - x1 - 2 + 1/(1 + x0**2) - (1 + x0**2)**-1"
)


def test_series_identities_give_a_flat_metric():
    # the metric is 3 I written through identities, so every coefficient of
    # its order-4 series beyond the constant cancels: Gamma, R, nabla R and
    # nabla^2 R must vanish to rounding, which checks each rule to order 4
    table = [[f"3 + {ZERO_A}", ZERO_C], [ZERO_C, f"3 + {ZERO_B}"]]
    chart = NumericChart(2, table, name="identities")
    x = np.random.default_rng(1).uniform(-1.0, 1.0, size=(50, 2))
    W, X, Y, Z = np.random.default_rng(2).normal(size=(4, 50, 2))
    assert np.max(np.abs(chart.metric(x) - 3.0 * np.eye(2))) < 1e-13
    p = chart.at(x, 4)
    assert np.max(np.abs(p.Gamma)) < 1e-13
    assert np.max(np.abs(chart.curvature(x, X, Y, Z))) < 1e-13
    assert np.max(np.abs(p.nabla_R(W, X, Y, Z))) < 1e-13
    assert np.max(np.abs(p.nabla2_R(W, X, Y, Z))) < 1e-12


def test_numeric_metric_file_rejects_unknown_keys(tmp_path):
    # the retired finite-difference step "h" would otherwise be ignored silently
    path = tmp_path / "sphere.json"
    table = [[SPHERE_CONF, "0"], ["0", SPHERE_CONF]]
    path.write_text(json.dumps({"dim": 2, "metric": table, "h": 1e-4, "radius": 5.0}))
    with pytest.raises(ConfigError, match="unknown metric file keys .*: h, radius$"):
        parse_manifold(f"numeric:{path}")


@pytest.mark.parametrize(
    "data",
    [
        {"dim": 0, "metric": []},
        {"dim": 2, "metric": "x0"},
        {"dim": 2, "metric": [["1", "0"], ["1"]]},
        {"metric": [["1"]]},
        [1],
    ],
    ids=["dim-0", "not-a-table", "ragged", "no-dim", "not-an-object"],
)
def test_numeric_metric_file_rejects_a_bad_table(tmp_path, data):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ConfigError):
        parse_manifold(f"numeric:{path}")


def test_numeric_metric_file_loads_sphere(tmp_path):
    conf = SPHERE_CONF
    path = tmp_path / "sphere.json"
    path.write_text(json.dumps({"dim": 2, "metric": [[conf, "0"], ["0", conf]], "domain_radius": 5.0}))
    chart = parse_manifold(f"numeric:{path}")
    x = sample_points(S2, 20, np.random.default_rng(11))
    assert np.max(np.abs(chart.metric(x) - S2.metric(x))) < 1e-12


@pytest.mark.parametrize("expr", ["().__class__", "__import__('os')", "x0.real", "[x0][0]", "pi(1)", "x2"])
def test_numeric_metric_file_rejects_non_arithmetic(tmp_path, expr):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dim": 2, "metric": [[expr, "0"], ["0", "1"]]}))
    with pytest.raises(ConfigError):
        parse_manifold(f"numeric:{path}")


def test_exp_euclidean_exact():
    x, v = np.random.default_rng(12).normal(size=(2, 5, 3))
    assert np.allclose(EUC3.exp(x, v), x + v, atol=1e-12)


def test_exp_sphere_pole_to_equator():
    # north pole is the chart origin, the equator lies at |x| = 1
    x = np.zeros(2)
    v = np.array([np.pi / 2, 0.0]) / S2.norm(np.zeros(2), np.array([1.0, 0.0]))
    y = S2.exp(x, v)
    assert abs(np.linalg.norm(y) - 1.0) < 1e-8
    # the closed-form arc length to an exact equator point
    assert abs(float(S2.distance(x, np.array([1.0, 0.0]))) - np.pi / 2) < 1e-10


def test_exp_zero_vector_identity():
    x = np.array([0.2, 0.4])
    assert np.allclose(S2.exp(x, np.zeros(2)), x)


@pytest.mark.parametrize("chart", ANALYTIC, ids=lambda c: c.name)
def test_exp_log_roundtrip_and_small_distance(chart):
    rng = np.random.default_rng(13)
    x = sample_points(chart, 5, rng)
    v = 0.3 * rng.normal(size=(5, chart.dim))
    # the geodesic stays in the chart: every sampled point lies more than
    # 0.5 in g-length inside the chart's domain
    v *= np.minimum(1.0, 0.5 / chart.norm(x, v))[:, None]
    for xi, vi in zip(x, v):
        y = chart.exp(xi, vi)
        assert np.max(np.abs(chart.log(xi, y) - vi)) < 1e-7
        # d(x, exp(x, t v)) = t |v| for small t
        t = 1e-2
        d = float(chart.distance(xi, chart.exp(xi, t * vi)))
        assert abs(d - t * float(chart.norm(xi, vi))) < 1e-6


def test_distance_basics():
    x, y = np.random.default_rng(14).normal(size=(2, 3))
    assert abs(float(EUC3.distance(x, y)) - np.linalg.norm(x - y)) < 1e-10
    assert float(S2.distance(np.array([0.3, 0.1]), np.array([0.3, 0.1]))) == 0.0
    # symmetric within tolerance
    a, b = np.array([0.2, -0.4]), np.array([-0.1, 0.3])
    assert abs(float(S2.distance(a, b)) - float(S2.distance(b, a))) < 1e-8


@pytest.mark.parametrize("chart", [S2, H2], ids=lambda c: c.name)
@pytest.mark.parametrize("size", [1e-6, 1e-9])
def test_log_and_distance_next_to_the_base_point(chart, size):
    # log_x(x + delta) = delta + Gamma(delta, delta)/2 + O(|delta|^3), and the
    # chart segment's length, sqrt(g(delta, delta)) at its midpoint, equals
    # the distance up to O(|delta|^3)
    x = np.array([0.3, -0.2])
    y = x + size * np.array([0.6, 0.8])
    delta = y - x
    want = delta + 0.5 * chart.gamma(x, delta, delta)
    assert np.linalg.norm(chart.log(x, y) - want) < 1e-6 * np.linalg.norm(want)
    length = float(chart.norm(x + 0.5 * delta, delta))
    assert abs(float(chart.distance(x, y)) - length) < 1e-6 * length


# chart -> (radius of the base points, bound).  exp is fixed-step RK4
# (at least 25 steps at g-length 0.5, more where the coordinates move
# faster than g measures), so the round trip carries its truncation
# error: up to about 2e-8 on sphere2 at |x| = 2, 2e-9 on hyperbolic2 and
# 5e-11 on so3 within sample_points' radii; each bound leaves a factor of
# about 3.  The numeric: charts join once the generic log is batched over
# points; until then each draw would cost one Newton solve.
ROUND_TRIP = {"euclidean:2": (3.0, 1e-14), "sphere2": (2.0, 5e-8), "hyperbolic2": (0.75, 5e-9), "so3": (2.2, 2e-10)}


@settings(max_examples=40)
@given(
    name=st.sampled_from(list(ROUND_TRIP)),
    xs=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4),
    vs=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4),
)
def test_exp_log_round_trip(name, xs, vs):
    # v of g-length at most 0.5: log inverts exp, and the geodesic's
    # length is the distance it reaches
    chart = parse_manifold(name)
    n = chart.dim
    radius, tol = ROUND_TRIP[name]
    xdir, vdir = np.array(xs[:n]), np.array(vs[:n])
    assume(np.linalg.norm(xdir) > 1e-3 and np.linalg.norm(vdir) > 1e-3)
    x = radius * abs(xs[n]) * xdir / np.linalg.norm(xdir)
    v = 0.5 * abs(vs[n]) * vdir / float(chart.norm(x, vdir))
    y = chart.exp(x, v)
    assert np.max(np.abs(chart.log(x, y) - v)) <= tol
    assert abs(float(chart.distance(x, y)) - float(chart.norm(x, v))) <= tol


def _disk_point(radius, angle):
    return np.array([radius * np.cos(angle), radius * np.sin(angle)])


@settings(max_examples=20)
@given(
    name=st.sampled_from(["sphere2", "hyperbolic2"]),
    polar=st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4),
)
def test_closed_form_log_matches_generic_shooting(name, polar):
    # the sphere's pairs stay within a quarter circle, where Newton shooting
    # from y - x reaches the minimizing geodesic; the disk needs no bound
    chart, radius = {"sphere2": (S2, 1.5), "hyperbolic2": (H2, 0.6)}[name]
    x = _disk_point(radius * polar[0], 2.0 * np.pi * polar[1])
    y = _disk_point(radius * polar[2], 2.0 * np.pi * polar[3])
    d = float(chart.distance(x, y))
    assert d == pytest.approx(float(chart.distance(y, x)), rel=1e-12, abs=1e-15)
    assume(name == "hyperbolic2" or d <= np.pi / 2)
    v = chart.log(x, y)
    assert float(chart.norm(x, v)) == pytest.approx(d, rel=1e-12, abs=1e-15)
    # the generic route inherits its RK4 exp error: a few 1e-8 relative here
    reference = ManifoldChart.log(chart, x, y)
    assert np.linalg.norm(v - reference) <= 1e-7 * max(np.linalg.norm(reference), 1e-12)


@pytest.mark.parametrize(
    "x, y, minimizing",
    [
        # Newton shooting from y - x reaches a longer geodesic: |v|_g 3.57
        # and 3.34 where the distance is 2.72 and 2.95
        ((-1.243, -0.79), (0.904, 0.246), False),
        ((0.858, -0.059), (-1.419, 0.111), False),
        # it reaches the minimizing one
        ((0.704, -1.159), (-0.326, 0.05), True),
        ((-0.334, -0.359), (1.228, -0.321), True),
        # a radius, where the chart segment is the minimizing geodesic and
        # only exp's RK4 error separates the two lengths
        ((-0.78, -0.26), (1.05, 0.35), True),
    ],
)
def test_generic_log_refuses_a_non_minimizing_geodesic(x, y, minimizing):
    x, y = np.array(x), np.array(y)
    d = float(S2.distance(x, y))
    if not minimizing:
        with pytest.raises(InjectivityError, match="non-minimizing"):
            ManifoldChart.log(S2, x, y)
        return
    v = ManifoldChart.log(S2, x, y)
    assert float(S2.norm(x, v)) == pytest.approx(d, rel=1e-7)


def test_generic_log_gives_up_on_a_runaway_geodesic(monkeypatch):
    # Newton shooting from y - x overshoots to a geodesic of 2.86 times the
    # chart segment's length by its third iterate and only grows from
    # there; the generic log stops there instead of converging on it.  At
    # most 3 Newton iterations: 3 marches carry the Jacobian, and with the
    # line searches fewer than 20 marches run (7 finite-difference
    # iterations made 44)
    calls = []
    march = base._geodesic

    def counted(*args, jacobian=False):
        calls.append(jacobian)
        return march(*args, jacobian=jacobian)

    monkeypatch.setattr(base, "_geodesic", counted)
    with pytest.raises(InjectivityError, match="non-minimizing"):
        ManifoldChart.log(S2, np.array([-0.214, 0.776]), np.array([1.034, -1.087]))
    assert sum(calls) <= 3 and len(calls) < 20


def test_generic_log_rejects_trials_that_leave_the_chart(monkeypatch):
    # on a numeric sphere cut off at radius 1, some line-search trials of
    # this pair leave the chart; they are rejected like any trial without
    # decrease, and shooting reaches the minimizing geodesic, where the
    # first escaping trial used to end log with ChartEscapeError
    num = NumericChart(2, [[SPHERE_CONF, "0"], ["0", SPHERE_CONF]], domain_radius=1.0, name="numeric-sphere")
    escapes = []
    march = base._geodesic

    def counted(*args, **kwargs):
        try:
            return march(*args, **kwargs)
        except ChartEscapeError:
            escapes.append(args[2])
            raise

    monkeypatch.setattr(base, "_geodesic", counted)
    x, y = np.array([0.375, -0.485]), np.array([0.721, 0.574])
    v = ManifoldChart.log(num, x, y)
    assert escapes
    assert np.linalg.norm(v - S2.log(x, y)) <= 1e-7 * np.linalg.norm(v)
    # a pair whose first shot already leaves the chart has no log there
    escapes.clear()
    with pytest.raises(InjectivityError, match="left the chart"):
        ManifoldChart.log(num, np.array([-0.555, -0.012]), np.array([-0.93, 0.181]))
    assert len(escapes) == 1


def _sphere_point_at(x, d):
    """A chart point at distance d from x, built on the embedded sphere."""
    r2 = float(x @ x)
    p = np.array([2.0 * x[0], 2.0 * x[1], 1.0 - r2]) / (1.0 + r2)
    t = np.cross(p, [0.0, 0.0, 1.0])
    t /= np.linalg.norm(t)
    q = np.cos(d) * p + np.sin(d) * t
    return q[:2] / (1.0 + q[2])


def test_sphere_log_guards_the_antipode():
    x = np.array([0.8, -0.5])
    with pytest.raises(InjectivityError):
        S2.log(x, -x / float(x @ x))
    with pytest.raises(InjectivityError):
        S2.log(x, _sphere_point_at(x, np.pi - 1e-7))
    y = _sphere_point_at(x, np.pi - 1e-3)
    v = S2.log(x, y)
    assert np.all(np.isfinite(v))
    d = float(S2.distance(x, y))
    assert abs(d - (np.pi - 1e-3)) < 1e-9
    assert abs(float(S2.norm(x, v)) - d) < 1e-9 * d


@pytest.mark.parametrize("chart", ANALYTIC, ids=lambda c: c.name)
def test_parallel_transport_isometry(chart):
    # frame Gram matrix is constant along a random smooth curve
    n = chart.dim
    t = np.linspace(0.0, 1.0, 200)
    amp = 0.35 if chart.dim == 2 else 0.5
    qs = amp * np.stack(
        [np.sin((k + 1) * t + 0.3 * k) for k in range(n)], axis=1
    )
    if chart.name == "hyperbolic2":
        qs *= 0.5
    vs = np.gradient(qs, t, axis=0)
    frame = transport_frame(chart, t, qs, vs)
    g0 = chart.metric(qs[0])
    gram0 = frame[0] @ g0 @ frame[0].T
    assert np.allclose(gram0, np.eye(n), atol=1e-12)
    gT = chart.metric(qs[-1])
    gramT = frame[-1] @ gT @ frame[-1].T
    assert np.max(np.abs(gramT - gram0)) < 1e-8


def stagewise_transport(chart, ts, qs, vs, X0):
    """X' = -Gamma(v, X) by classical RK4 stage by stage, Hermite midpoints."""
    X = np.array(X0, float)
    out = [X]
    for k in range(len(ts) - 1):
        h = ts[k + 1] - ts[k]
        qa, qb, va, vb = qs[k], qs[k + 1], vs[k], vs[k + 1]
        qm = 0.5 * (qa + qb) + 0.125 * h * (va - vb)
        vm = 1.5 * (qb - qa) / h - 0.25 * (va + vb)
        k1 = -chart.gamma(qa, va, X)
        k2 = -chart.gamma(qm, vm, X + 0.5 * h * k1)
        k3 = -chart.gamma(qm, vm, X + 0.5 * h * k2)
        k4 = -chart.gamma(qb, vb, X + h * k3)
        X = X + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out.append(X)
    return np.stack(out)


@pytest.mark.parametrize("chart", ANALYTIC + [numeric_sphere()], ids=lambda c: c.name)
@pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reversed"])
def test_transport_matches_stagewise_rk4(chart, reverse):
    n = chart.dim
    s = np.linspace(0.0, 1.0, 33)
    ts = s + 0.2 * s * (1.0 - s)  # strictly increasing, not uniform
    amp = 0.3 if chart.name == "hyperbolic2" else 0.6
    phase = 0.3 * np.arange(n)
    qs = amp * np.sin(np.outer(ts, np.arange(1, n + 1)) + phase)
    vs = amp * np.arange(1, n + 1) * np.cos(np.outer(ts, np.arange(1, n + 1)) + phase)
    if reverse:
        ts, qs, vs = ts[::-1], qs[::-1], vs[::-1]
    X0 = np.random.default_rng(11).normal(size=(2, 3, n))
    ref = stagewise_transport(chart, ts, qs, vs, X0)
    got = parallel_transport(chart, ts, qs, vs, X0)
    assert got.shape == (len(ts), 2, 3, n)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
    # the connection turns the vectors, so the comparison is not trivial
    assert np.max(np.abs(ref[-1] - X0)) > 1e-3 or chart.name.startswith("euclidean")


def test_transport_euclidean_constant_and_zero():
    t = np.linspace(0.0, 1.0, 50)
    qs = np.stack([t, t**2, np.sin(t)], axis=1)
    vs = np.gradient(qs, t, axis=0)
    X = np.array([0.3, -1.0, 2.0])
    out = parallel_transport(EUC3, t, qs, vs, X)
    assert np.max(np.abs(out - X)) < 1e-12
    zero = parallel_transport(EUC3, t, qs, vs, np.zeros(3))
    assert np.max(np.abs(zero)) == 0.0
    with np.errstate(invalid="ignore"), pytest.raises(NumericalError, match="nonfinite"):
        parallel_transport(EUC3, t, qs, vs, np.array([np.inf, 0.0, 0.0]))


def test_transport_nonfinite_at_last_node_raises():
    # the chart degenerates at the window end only, so just the last step fails
    t = np.linspace(0.0, 1.0, 40)
    qs = np.stack([0.3 * np.cos(t), 0.3 * np.sin(t)], axis=1)
    vs = np.stack([-0.3 * np.sin(t), 0.3 * np.cos(t)], axis=1)
    qs[-1, 0] = np.nan
    parallel_transport(S2, t[:-1], qs[:-1], vs[:-1], np.eye(2))
    with np.errstate(invalid="ignore"), pytest.raises(NumericalError, match="near t = 1$"):
        parallel_transport(S2, t, qs, vs, np.eye(2))


def test_transport_sphere_quarter_equator():
    # the equator is the unit circle in the chart; param by angle pi/2
    s = np.linspace(0.0, np.pi / 2, 400)
    qs = np.stack([np.cos(s), np.sin(s)], axis=1)
    vs = np.stack([-np.sin(s), np.cos(s)], axis=1)
    frame = transport_frame(S2, s, qs, vs)
    g = S2.metric(qs[-1])
    gram = frame[-1] @ g @ frame[-1].T
    assert np.max(np.abs(gram - np.eye(2))) < 1e-8


def test_chart_domain_errors():
    with pytest.raises(ChartDomainError):
        S2.check_point(np.array([6.0, 0.0]))
    with pytest.raises(ChartDomainError):
        H2.check_point(np.array([0.99, 0.0]))
    with pytest.raises(ChartDomainError):
        SO3.check_point(np.array([3.0, 1.0, 0.0]))
    # geodesic running off the disk edge
    with pytest.raises(ChartEscapeError):
        H2.exp(np.array([0.9, 0.0]), np.array([5.0, 0.0]))


def test_parse_manifold_strings():
    assert parse_manifold("euclidean:4").dim == 4
    assert isinstance(parse_manifold("sphere2"), Sphere2Chart)
    with pytest.raises(Exception):
        parse_manifold("torus7")
