"""Shared scenario panel.

Boundary-value scenarios that tests draw from by name; ``PANEL`` lists
the default-length ones.  The ``scenario`` fixture builds one's chart,
potential and boundary data; tests solve what they need themselves.
``bench/scenarios/`` copies the boundary data of this panel.

Property tests run under the ``riemplan`` hypothesis profile: examples are
derived from each test's own code, not drawn at random, and no example has
a deadline, so a run is reproducible and free of timing flakes.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from riemplan import BoundaryData, GaussianObstacle, QuadraticWell, ZeroPotential, dynamics, parse_manifold
from riemplan.dynamics import grid_steps

settings.register_profile("riemplan", derandomize=True, deadline=None, database=None)
settings.load_profile("riemplan")

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


@pytest.fixture
def fd_jacobian():
    """``fd_jacobian(chart, potential, p, v, y, z, t, h, rel=1e-5)``: central
    differences in (y, z) of the bi-exponential map, the end (q, qdot) of the
    curve from the 4-jet (p, v, y, z), one shared step rel * (1 + |(y, z)|).

    A reference for the shooting Jacobian (``jacobi.shooting_jacobian``)
    that does not share its linearization: columns (y_1..y_n, z_1..z_n),
    row blocks (q; qdot).  The 4n perturbed curves march as the rows of
    one ``dynamics._flow`` pass, which gives each the bits
    ``integrate_ivp`` gives it alone.
    """

    def jacobian(chart, potential, p, v, y, z, t, h, rel=1e-5):
        yz = np.concatenate([y, z])
        step = rel * (1.0 + float(np.linalg.norm(yz)))
        N, h = grid_steps(t, h)
        rows = [
            (np.array([p, v, *np.split(x, 2)], float), 0.0, h, N)
            for e in step * np.eye(len(yz))
            for x in (yz + e, yz - e)
        ]
        ends = []
        for traj, failure in dynamics._flow(chart, potential, rows):
            if failure is not None:
                raise failure
            ends.append(np.concatenate([traj.qs[-1], traj.vs[-1]]))
        ends = np.array(ends)
        return ((ends[0::2] - ends[1::2]) / (2.0 * step)).T

    return jacobian
