"""Shared scenario panel.

Boundary-value scenarios that tests draw from by name; ``PANEL`` lists
the default-length ones.  The ``scenario`` fixture builds one's chart,
potential and boundary data; tests solve what they need themselves.
``bench/scenarios/`` copies the boundary data of this panel.
"""

from __future__ import annotations

import pytest

from riemplan import BoundaryData, GaussianObstacle, QuadraticWell, ZeroPotential, parse_manifold

# name -> (manifold, potential factory, q_a, v_a, q_b, v_b, interval)
SCENARIOS = {
    "flat": (
        "euclidean:2",
        ZeroPotential,
        (0.0, 0.0), (0.3, -0.2), (1.0, 0.5), (-0.1, 0.4), (0.0, 1.0),
    ),
    "flat_obstacle": (
        "euclidean:2",
        lambda c: GaussianObstacle(c, (0.5, 0.25), amplitude=1.0, width=0.4),
        (0.0, 0.0), (0.3, -0.2), (1.0, 0.5), (-0.1, 0.4), (0.0, 1.0),
    ),
    "sphere": (
        "sphere2",
        ZeroPotential,
        (-0.8, 0.1), (0.5, 0.2), (0.9, 0.4), (0.1, -0.3), (0.0, 2.0),
    ),
    "sphere_obstacle": (
        "sphere2",
        lambda c: GaussianObstacle(c, (0.6, -0.3), amplitude=1.0, width=0.7),
        (-0.8, 0.1), (0.5, 0.2), (0.9, 0.4), (0.1, -0.3), (0.0, 2.0),
    ),
    "hyperbolic_obstacle": (
        "hyperbolic2",
        lambda c: GaussianObstacle(c, (0.1, 0.0), amplitude=0.8, width=0.5),
        (-0.4, 0.1), (0.25, 0.1), (0.45, -0.15), (0.1, 0.2), (0.0, 1.5),
    ),
    "rotation": (
        "so3",
        ZeroPotential,
        (0.1, -0.2, 0.15), (0.4, 0.1, -0.3), (0.9, 0.3, -0.4), (0.1, -0.2, 0.2),
        (0.0, 1.5),
    ),
    # rest state on top of a bump: V''(0) < 0, so long windows lose optimality
    "well_top": (
        "euclidean:1",
        lambda c: GaussianObstacle(c, (0.0,), amplitude=1.0, width=1.0),
        (0.0,), (0.0,), (0.0,), (0.0,), (0.0, 6.0),
    ),
    "well_top_long": (
        "euclidean:1",
        lambda c: GaussianObstacle(c, (0.0,), amplitude=1.0, width=1.0),
        (0.0,), (0.0,), (0.0,), (0.0,), (0.0, 12.0),
    ),
    # V'' = +1 everywhere: optimality never degrades, however long the window
    "well": (
        "euclidean:1",
        lambda c: QuadraticWell(c, center=(0.0,), stiffness=1.0),
        (0.0,), (0.5,), (0.2,), (-0.1,), (0.0, 6.0),
    ),
}

PANEL = [n for n in SCENARIOS if n != "well_top_long"]


@pytest.fixture
def scenario():
    """``scenario(name)`` -> (chart, potential, BoundaryData) of a SCENARIOS entry."""

    def build(name):
        man, pot, q_a, v_a, q_b, v_b, (a, b) = SCENARIOS[name]
        chart = parse_manifold(man)
        return chart, pot(chart), BoundaryData(q_a, v_a, q_b, v_b, a, b)

    return build
