"""Potential fields: values, gradients, Hessian operators, config parsing."""

from __future__ import annotations

import numpy as np
import pytest

from riemplan import (
    ConfigError,
    GaussianObstacle,
    NumericChart,
    QuadraticWell,
    ScaledPotential,
    SumPotential,
    ZeroPotential,
    parse_manifold,
    potential_from_config,
)

from references import hessian_op_fd


EUC2 = parse_manifold("euclidean:2")
S2 = parse_manifold("sphere2")
H2 = parse_manifold("hyperbolic2")
SO3 = parse_manifold("so3")


def gradient_fd(potential, x, h=1e-6):
    """Metric-raised central difference of the value."""
    chart = potential.chart
    n = chart.dim
    dv = np.empty(x.shape)
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        hj = h * (1.0 + np.abs(x[..., j : j + 1]))
        dv[..., j] = (potential.value(x + hj * e) - potential.value(x - hj * e)) / (
            2.0 * hj[..., 0]
        )
    return chart.at(x, 0).raise_covector(dv)


def make_potentials():
    out = [
        ("gauss_flat", GaussianObstacle(EUC2, (0.4, -0.2), amplitude=1.3, width=0.5)),
        ("gauss_sphere", GaussianObstacle(S2, (0.3, 0.2), amplitude=0.9, width=0.6)),
        (
            "gauss_sphere_chart",
            GaussianObstacle(S2, (0.3, 0.2), amplitude=0.9, width=0.6, distance="chart"),
        ),
        ("gauss_hyp", GaussianObstacle(H2, (0.1, -0.05), amplitude=0.7, width=0.4)),
        (
            "gauss_hyp_chart",
            GaussianObstacle(H2, (0.1, -0.05), amplitude=0.7, width=0.4, distance="chart"),
        ),
        ("gauss_so3", GaussianObstacle(SO3, (0.2, -0.1, 0.3), amplitude=0.8, width=0.6)),
        (
            "gauss_so3_chart",
            GaussianObstacle(SO3, (0.2, -0.1, 0.3), amplitude=0.8, width=0.6, distance="chart"),
        ),
        ("well", QuadraticWell(EUC2, center=(0.2, 0.1), stiffness=1.7)),
        ("well_sphere", QuadraticWell(S2, center=(0.3, -0.2), stiffness=1.4)),
        ("well_hyp", QuadraticWell(H2, center=(0.1, 0.05), stiffness=0.8)),
        (
            "sum",
            SumPotential(
                [
                    GaussianObstacle(EUC2, (0.4, 0.0), amplitude=1.0, width=0.3),
                    GaussianObstacle(EUC2, (-0.3, 0.2), amplitude=0.5, width=0.5),
                ]
            ),
        ),
        ("scaled", ScaledPotential(GaussianObstacle(EUC2, (0.1, 0.1), amplitude=1.0, width=0.4), 0.35)),
    ]
    return out


def domain_points(chart, n, rng):
    if chart.name == "sphere2":
        r = 1.5
    elif chart.name == "hyperbolic2":
        r = 0.6
    else:
        r = 1.5
    x = rng.normal(size=(n, chart.dim))
    return x * (r * rng.random((n, 1))) / np.linalg.norm(x, axis=1, keepdims=True)


@pytest.mark.parametrize("name,pot", make_potentials(), ids=lambda p: p if isinstance(p, str) else "")
def test_nonnegative_and_gradient_fd(name, pot):
    x = domain_points(pot.chart, 120, np.random.default_rng(11))
    assert np.min(pot.value(x)) >= 0.0
    g = pot.gradient(x)
    assert np.max(np.abs(g - gradient_fd(pot, x))) < 1e-5


@pytest.mark.parametrize("name,pot", make_potentials(), ids=lambda p: p if isinstance(p, str) else "")
def test_hessian_against_fd_oracle(name, pot):
    rng = np.random.default_rng(12)
    x = domain_points(pot.chart, 60, rng)
    X = rng.normal(size=x.shape)
    hx = pot.hessian_op(x, X)
    assert np.max(np.abs(hx - hessian_op_fd(pot, x, X))) < 2e-5


@pytest.mark.parametrize("name,pot", make_potentials(), ids=lambda p: p if isinstance(p, str) else "")
def test_hessian_symmetry_and_linearity(name, pot):
    rng = np.random.default_rng(13)
    x = domain_points(pot.chart, 40, rng)
    X, Y = rng.normal(size=(2,) + x.shape)
    chart = pot.chart
    lhs = chart.inner(x, pot.hessian_op(x, X), Y)
    rhs = chart.inner(x, pot.hessian_op(x, Y), X)
    assert np.max(np.abs(lhs - rhs)) < 1e-6
    lin = pot.hessian_op(x, 2.5 * X + Y) - 2.5 * pot.hessian_op(x, X) - pot.hessian_op(x, Y)
    assert np.max(np.abs(lin)) < 1e-12


@pytest.mark.parametrize("chart", [EUC2, S2, H2], ids=lambda c: c.name)
def test_gaussian_center_properties(chart):
    pot = GaussianObstacle(chart, (0.4, -0.2), amplitude=1.3, width=0.5)
    c = np.array([0.4, -0.2])
    assert np.max(np.abs(pot.gradient(c))) < 1e-12
    assert abs(float(pot.value(c)) - 1.3) < 1e-14
    # hessian at the center is -(A / sigma^2) I, where log_c(c) = 0
    X = np.array([0.7, -1.1])
    assert np.allclose(pot.hessian_op(c, X), -(1.3 / 0.25) * X, atol=1e-9)


def test_gaussian_riemannian_vs_chart_distance():
    # the two modes agree at the center and differ away from it on S2
    rie = GaussianObstacle(S2, (0.3, 0.2), amplitude=1.0, width=0.5)
    cha = GaussianObstacle(S2, (0.3, 0.2), amplitude=1.0, width=0.5, distance="chart")
    c = np.array([0.3, 0.2])
    assert abs(float(rie.value(c)) - float(cha.value(c))) < 1e-12
    x = np.array([0.9, -0.4])
    assert abs(float(rie.value(x)) - float(cha.value(x))) > 1e-4


@pytest.mark.parametrize("n", [1, 2])
def test_distance_modes_coincide_on_flat_charts(n):
    # on a euclidean chart the Riemannian and the coordinate distance are
    # one function, and both modes take the same route to the same bits
    chart = parse_manifold(f"euclidean:{n}")
    center = np.linspace(0.3, -0.2, n)
    rie, cha = (
        GaussianObstacle(chart, center, amplitude=1.3, width=0.6, distance=d) for d in ("riemannian", "chart")
    )
    x, X = np.random.default_rng(17).normal(size=(2, 50, n))
    assert np.array_equal(rie.gradient(x), cha.gradient(x))
    assert np.array_equal(rie.hessian_op(x, X), cha.hessian_op(x, X))


def test_riemannian_gaussian_on_a_generic_chart():
    # a numeric chart declares no constant curvature, so the Riemannian-
    # distance Hessian takes the generic route (differences of log); on the round
    # sphere handed over as an expression table (test_geometry.py's
    # numeric_sphere) it must give sphere2's closed forms
    conf = "4 / (1 + x0**2 + x1**2)**2"
    num = NumericChart(2, [[conf, "0"], ["0", conf]], domain_radius=5.0, name="numeric-sphere")
    assert num.space_curvature is None
    pot = GaussianObstacle(num, (0.6, -0.3), amplitude=1.0, width=0.7)
    ref = GaussianObstacle(S2, (0.6, -0.3), amplitude=1.0, width=0.7)
    x, X = np.array([-0.2, 0.35]), np.array([0.3, -0.5])
    for got, want in ((pot.gradient(x), ref.gradient(x)), (pot.hessian_op(x, X), ref.hessian_op(x, X))):
        assert np.linalg.norm(got - want) <= 1e-6 * np.linalg.norm(want)


def test_zero_potential():
    z = ZeroPotential(EUC2)
    x, X = np.random.default_rng(14).normal(size=(2, 30, 2))
    assert np.max(np.abs(z.value(x))) == 0.0
    assert np.max(np.abs(z.gradient(x))) == 0.0
    assert np.max(np.abs(z.hessian_op(x, X))) == 0.0


def test_sum_potential_algebra():
    p = GaussianObstacle(EUC2, (0.2, 0.0), amplitude=1.0, width=0.4)
    z = ZeroPotential(EUC2)
    x = domain_points(EUC2, 25, np.random.default_rng(15))
    s = SumPotential([z, p])
    assert np.allclose(s.value(x), p.value(x), atol=1e-15)
    d = SumPotential([p, p])
    assert np.allclose(d.value(x), 2.0 * p.value(x), atol=1e-15)
    with pytest.raises(Exception):
        SumPotential([])


def test_scaled_potential_contracts():
    p = GaussianObstacle(EUC2, (0.0, 0.0), amplitude=1.0, width=0.4)
    s = ScaledPotential(p, 0.5)
    x = domain_points(EUC2, 10, np.random.default_rng(16))
    assert np.allclose(s.value(x), 0.5 * p.value(x))
    with pytest.raises(Exception):
        ScaledPotential(p, -0.1)


def test_quadratic_well_closed_form():
    w = QuadraticWell(EUC2, center=(0.0, 0.0), stiffness=2.0)
    x = np.array([0.3, -0.4])
    assert abs(float(w.value(x)) - 0.25) < 1e-14
    assert np.allclose(w.gradient(x), 2.0 * x)
    X = np.array([1.0, 1.0])
    assert np.allclose(w.hessian_op(x, X), 2.0 * X)


def test_potential_from_config():
    cfg = {
        "type": "sum",
        "terms": [
            {"type": "gaussian", "center": [0.4, 0.0], "A": 1.0, "sigma": 0.3},
            {"type": "quadratic", "center": [0.0, 0.0], "k": 0.5},
        ],
    }
    pot = potential_from_config(EUC2, cfg)
    x = np.array([0.1, 0.2])
    byhand = GaussianObstacle(EUC2, (0.4, 0.0), amplitude=1.0, width=0.3).value(x) + QuadraticWell(
        EUC2, center=(0.0, 0.0), stiffness=0.5
    ).value(x)
    assert abs(float(pot.value(x)) - float(byhand)) < 1e-15
    assert isinstance(potential_from_config(EUC2, None), ZeroPotential)
    assert isinstance(potential_from_config(EUC2, {"type": "zero"}), ZeroPotential)


@pytest.mark.parametrize(
    "bad",
    [
        {"type": "unknown"},
        {"type": "gaussian", "center": [0.0], "A": 1.0, "sigma": 0.3},  # wrong dim
        {"type": "gaussian", "center": [0.0, 0.0], "A": -1.0, "sigma": 0.3},
        {"type": "gaussian", "center": [0.0, 0.0], "A": 1.0, "sigma": 0.0},
        {"type": "gaussian", "center": [9.0, 0.0], "A": 1.0, "sigma": 0.3},  # off chart
        {"type": "sum", "terms": []},
        {"type": "gaussian", "center": [0.0, 0.0], "A": "x", "sigma": 0.3},
        {"type": "gaussian", "center": "ab", "A": 1.0, "sigma": 0.3},
        {"type": "quadratic", "k": "soft"},
        {"type": "gaussian", "center": [0.0, 0.0], "A": float("nan"), "sigma": 0.3},
        {"type": "gaussian", "center": [0.0, 0.0], "A": 1.0, "sigma": float("inf")},
        {"type": "gaussian", "center": [0.0, 0.0], "A": 1.0, "sigma": 0.3, "extra": 3},
        {"type": "gaussian", "center": [0.0, 0.0], "A": 1.0},  # no sigma
        {"type": "gaussian", "center": [0.0, 0.0], "A": 1.0, "sigma": 0.3, "distance": "taxicab"},
        {"type": "sum", "terms": [{"type": "zero"}, {"type": "quadratic", "k": 0}]},
    ],
)
def test_config_rejections(bad):
    chart = S2 if bad.get("center") == [9.0, 0.0] else EUC2
    with pytest.raises(ConfigError):
        potential_from_config(chart, bad)


def test_well_center_null_is_the_origin():
    well = potential_from_config(S2, {"type": "quadratic", "center": None, "k": 2.0})
    assert np.array_equal(well.center, np.zeros(2))
