"""Chart-based Riemannian geometry: metrics, curvature, geodesics, transport."""

from __future__ import annotations

from ..errors import ConfigError
from .base import ChartPoint, ManifoldChart
from .charts import EuclideanChart, Hyperbolic2Chart, SO3Chart, Sphere2Chart
from .numeric import NumericChart, numeric_chart_from_file
from .transport import parallel_transport, transport_frame

__all__ = [
    "ChartPoint",
    "ManifoldChart",
    "EuclideanChart",
    "Sphere2Chart",
    "Hyperbolic2Chart",
    "SO3Chart",
    "NumericChart",
    "numeric_chart_from_file",
    "parallel_transport",
    "transport_frame",
    "parse_manifold",
]


def parse_manifold(spec: str) -> ManifoldChart:
    """Build a chart from its selection string.

    Accepted forms: ``euclidean:<n>``, ``sphere2``, ``hyperbolic2``,
    ``so3``, ``numeric:<metric-file.json>``.
    """
    spec = str(spec).strip()
    if spec.startswith("euclidean:"):
        try:
            n = int(spec.split(":", 1)[1])
        except ValueError as exc:
            raise ConfigError(f"bad euclidean dimension in {spec!r}") from exc
        return EuclideanChart(n)
    if spec == "sphere2":
        return Sphere2Chart()
    if spec == "hyperbolic2":
        return Hyperbolic2Chart()
    if spec == "so3":
        return SO3Chart()
    if spec.startswith("numeric:"):
        return numeric_chart_from_file(spec.split(":", 1)[1])
    raise ConfigError(f"unknown manifold {spec!r}")
