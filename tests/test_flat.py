"""Flat-chart paths of the trajectory stage, the Jacobi operator and the oracle.

On euclidean charts Gamma, R and the metric derivatives vanish, so the
trajectory right side, the field ODE, the Gaussian's distance Hessian and
the discrete gradient evaluate the potential alone.  These tests check
that those paths are taken (the zero geometry is never asked for, nor is
a point record built, nor ``log`` or the cot series of the Riemannian
distance called) and
that they give the same numbers as the generic formulas run on the same
zero geometry: a euclidean chart that declares itself curved.
"""

from __future__ import annotations

import hypothesis.extra.numpy as hnp
import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given

from riemplan import (
    BoundaryData,
    CurveState,
    GaussianObstacle,
    QuadraticWell,
    SumPotential,
    ZeroPotential,
    potentials,
)
from riemplan.dynamics import _rhs_stacked
from riemplan.geometry.charts import EuclideanChart
from riemplan.jacobi import jacobi_operator, jacobi_rhs
from riemplan.oracle import DiscretePath, discrete_gradient

GEOMETRY = ("at", "gamma", "curvature", "metric")


class ZeroCurvedChart(EuclideanChart):
    """R^n declared as a constant-curvature chart of curvature 0.

    Every chart method is the euclidean one, but the kernels take their
    generic route: Gamma and R calls, the cot factors of the Gaussian's
    Hessian and the full contractions of the discrete gradient.
    """

    flat = False


POTENTIALS = {
    "gaussian": lambda c: GaussianObstacle(c, np.linspace(0.3, -0.2, c.dim), amplitude=1.3, width=0.6),
    "gaussian_chart": lambda c: GaussianObstacle(
        c, np.linspace(-0.1, 0.4, c.dim), amplitude=0.7, width=0.9, distance="chart"
    ),
    "well": lambda c: QuadraticWell(c, np.linspace(0.2, 0.1, c.dim), stiffness=2.5),
    "zero": ZeroPotential,
    "sum": lambda c: SumPotential(
        [POTENTIALS["gaussian"](c), POTENTIALS["well"](c), POTENTIALS["gaussian_chart"](c)]
    ),
}


def floats(shape):
    return hnp.arrays(float, shape, elements=st.floats(-3.0, 3.0, allow_subnormal=False))


def path_of(n, N, free):
    bd = BoundaryData(np.full(n, 0.1), np.full(n, 0.3), np.full(n, 0.9), np.full(n, -0.2), b=1.5)
    return DiscretePath.from_free(bd, N, free)


def kernels(chart, pot, jets, field, path):
    """The four kernels with a flat branch, on one chart and potential.

    jets and field are (S, 4, n) stacks of curve and field 4-jets; the
    field ODE is evaluated on the drawn field and as the operator matrix.
    """
    states = CurveState(None, *np.moveaxis(jets, 1, 0))
    return (
        _rhs_stacked(chart, pot, jets),
        jacobi_rhs(chart, pot, states, field),
        jacobi_operator(chart, pot, states),
        pot.hessian_op(jets[:, 0], field[:, 0]),
        discrete_gradient(chart, pot, path),
    )


@pytest.mark.parametrize("n", [1, 2])
def test_flat_paths_skip_the_zero_geometry(n, monkeypatch):
    chart = EuclideanChart(n)
    pot = POTENTIALS["gaussian"](chart)
    rng = np.random.default_rng(n)

    def refuse(*args, **kwargs):
        raise AssertionError("flat path asked for zero geometry")

    for name in GEOMETRY + ("log",):
        monkeypatch.setattr(chart, name, refuse)
    monkeypatch.setattr(potentials, "_cot", refuse)
    N = 9
    out = kernels(
        chart, pot, rng.normal(size=(5, 4, n)), rng.normal(size=(5, 4, n)),
        path_of(n, N, rng.normal(size=(N - 3, n))),
    )
    shapes = [(5, 4, n), (5, 4, n), (5, 4 * n, 4 * n), (5, n), (N - 3, n)]
    assert [o.shape for o in out] == shapes
    assert all(np.all(np.isfinite(o)) for o in out)


@pytest.mark.parametrize("kind", sorted(POTENTIALS))
@given(data=st.data())
def test_flat_paths_equal_the_generic_formulas(kind, data):
    n = data.draw(st.integers(1, 3), label="n")
    S = data.draw(st.integers(1, 4), label="rows")
    N = data.draw(st.integers(4, 12), label="segments")
    flat, curved = EuclideanChart(n), ZeroCurvedChart(n)
    assert curved.space_curvature == 0.0
    jets = data.draw(floats((S, 4, n)), label="jets")
    field = data.draw(floats((S, 4, n)), label="field")
    free = data.draw(floats((N - 3, n)), label="path")
    args = (jets, field, path_of(n, N, free))
    got = kernels(flat, POTENTIALS[kind](flat), *args)
    want = kernels(curved, POTENTIALS[kind](curved), *args)
    for name, g, w in zip(("rhs", "jacobi_rhs", "jacobi_operator", "hessian", "gradient"), got, want):
        assert np.array_equal(g, w), name
