"""Variational trajectory planning with obstacle costs on Riemannian manifolds.

The package integrates a fourth-order covariant trajectory equation, solves
two-point boundary problems for it, and certifies local optimality of the
resulting curves through linearized perturbation analysis, spectral counts on
finite-dimensional field spaces, and an independent discrete minimizer.
"""

from __future__ import annotations

from .errors import (
    BasisError,
    ChartDomainError,
    ChartEscapeError,
    ConfigError,
    ConstructionError,
    CriticalPointError,
    InjectivityError,
    NonconvergenceError,
    NumericalError,
    PlannerError,
    ResolutionWarning,
)
from .geometry import (
    EuclideanChart,
    Hyperbolic2Chart,
    ManifoldChart,
    NumericChart,
    SO3Chart,
    Sphere2Chart,
    numeric_chart_from_file,
    parallel_transport,
    parse_manifold,
    transport_frame,
)
from .potentials import (
    GaussianObstacle,
    Potential,
    QuadraticWell,
    ScaledPotential,
    SumPotential,
    ZeroPotential,
)
from .dynamics import (
    CurveState,
    Trajectory,
    action,
    integrate_ivp,
)
from .bvp import (
    BoundaryData,
    ShootingResult,
    check_uniqueness_props,
    continuation_sweep,
    multi_seed_scan,
    solve_bvp,
)
from .config import potential_from_config
from .jacobi import (
    BiconjugateReport,
    biconjugate_scan,
)
from .index import (
    IndexReport,
    NegativeDirectionReport,
    OptimalityReport,
    extended_index,
    negative_direction,
    verdict,
)
from .oracle import (
    DiscretePath,
    compare_with_trajectory,
    discrete_action,
    discrete_gradient,
    minimize_discrete,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "PlannerError",
    "ChartDomainError",
    "ChartEscapeError",
    "InjectivityError",
    "NumericalError",
    "NonconvergenceError",
    "CriticalPointError",
    "ConstructionError",
    "BasisError",
    "ConfigError",
    "ResolutionWarning",
    "ManifoldChart",
    "EuclideanChart",
    "Sphere2Chart",
    "Hyperbolic2Chart",
    "SO3Chart",
    "NumericChart",
    "numeric_chart_from_file",
    "parse_manifold",
    "parallel_transport",
    "transport_frame",
    "Potential",
    "ZeroPotential",
    "GaussianObstacle",
    "QuadraticWell",
    "SumPotential",
    "ScaledPotential",
    "potential_from_config",
    "CurveState",
    "Trajectory",
    "integrate_ivp",
    "action",
    "BoundaryData",
    "ShootingResult",
    "solve_bvp",
    "check_uniqueness_props",
    "continuation_sweep",
    "multi_seed_scan",
    "BiconjugateReport",
    "NegativeDirectionReport",
    "biconjugate_scan",
    "negative_direction",
    "IndexReport",
    "OptimalityReport",
    "extended_index",
    "verdict",
    "DiscretePath",
    "discrete_action",
    "discrete_gradient",
    "minimize_discrete",
    "compare_with_trajectory",
]
