"""User-supplied metrics: everything is finite differences of g.

A numeric chart is built from a callable x -> g(x) (or from a JSON file
of component expressions, see ``numeric_chart_from_file``).  Christoffel
symbols come from central differences of the metric, curvature from the
coordinate formula on differenced Christoffels, and the covariant
derivatives of R from differences of parallel-transported curvature
evaluations.  Tolerances are correspondingly looser than on the analytic
charts.
"""

from __future__ import annotations

import ast
import json
import math
import operator
from typing import Callable

import numpy as np

from ..errors import ConfigError, NumericalError
from .base import ManifoldChart

__all__ = ["NumericChart", "numeric_chart_from_file"]


class NumericChart(ManifoldChart):
    curvature_kind = "generic_numeric"
    space_curvature = None

    def __init__(
        self,
        dim: int,
        metric_fn: Callable[[np.ndarray], np.ndarray],
        domain_radius: float = np.inf,
        h: float = 1e-4,
        name: str = "numeric",
    ):
        if dim < 1:
            raise ValueError("numeric chart needs dimension >= 1")
        if not h > 0:
            raise NumericalError("finite-difference step must be positive")
        if h < 1e-12:
            raise NumericalError("finite-difference step underflow")
        self.dim = int(dim)
        self._metric_fn = metric_fn
        self.domain_radius = float(domain_radius)
        self.fd_step = float(h)
        self.nabla_step = float(h)
        self.name = name

    def metric(self, x):
        x = np.asarray(x, float)
        g = np.asarray(self._metric_fn(x), float)
        if g.shape != x.shape[:-1] + (self.dim, self.dim):
            raise ConfigError(
                f"metric function returned shape {g.shape}, expected "
                f"{x.shape[:-1] + (self.dim, self.dim)}"
            )
        return 0.5 * (g + np.swapaxes(g, -1, -2))

    def contains(self, x):
        x = np.asarray(x, float)
        ok = np.all(np.isfinite(x), axis=-1)
        if math.isinf(self.domain_radius):
            return ok
        return ok & (np.linalg.norm(x, axis=-1) <= self.domain_radius)


_EXPR_NAMES = {
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "sinh": np.sinh,
    "cosh": np.cosh,
    "tanh": np.tanh,
    "abs": np.abs,
    "pi": np.pi,
    "e": np.e,
}


_BINOPS = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.Div: operator.truediv,
    ast.FloorDiv: operator.floordiv,
    ast.Mod: operator.mod,
    ast.Pow: operator.pow,
}
_UNARYOPS = {ast.UAdd: operator.pos, ast.USub: operator.neg}


def _compile_expr(text: str, names: set[str]):
    """Compile one metric expression to a function of the name table.

    Only numeric constants, the given names, arithmetic and unary
    operators, and positional calls to the functions in _EXPR_NAMES are
    accepted; anything else (attribute access, subscripts, other calls)
    raises ConfigError, so a metric file cannot reach the interpreter.
    """

    def build(node):
        if isinstance(node, ast.Constant) and type(node.value) in (int, float):
            return lambda ns, v=node.value: v
        if isinstance(node, ast.Name) and node.id in names:
            return lambda ns, k=node.id: ns[k]
        if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
            op, lhs, rhs = _BINOPS[type(node.op)], build(node.left), build(node.right)
            return lambda ns: op(lhs(ns), rhs(ns))
        if isinstance(node, ast.UnaryOp) and type(node.op) in _UNARYOPS:
            op, arg = _UNARYOPS[type(node.op)], build(node.operand)
            return lambda ns: op(arg(ns))
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and callable(_EXPR_NAMES.get(node.func.id))
            and not node.keywords
        ):
            fn, args = _EXPR_NAMES[node.func.id], [build(a) for a in node.args]
            return lambda ns: fn(*(a(ns) for a in args))
        raise ConfigError(f"metric expression {text!r}: {type(node).__name__} is not allowed")

    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as exc:
        raise ConfigError(f"metric expression {text!r} does not parse: {exc.msg}") from exc
    return build(tree.body)


def _compile_metric(dim: int, rows: list[list[str]]):
    if len(rows) != dim or any(len(r) != dim for r in rows):
        raise ConfigError("metric expression table must be dim x dim")
    names = set(_EXPR_NAMES) | {f"x{i}" for i in range(dim)}
    fns = [[_compile_expr(str(e), names) for e in row] for row in rows]

    def metric_fn(x):
        x = np.asarray(x, float)
        ns = dict(_EXPR_NAMES)
        for i in range(dim):
            ns[f"x{i}"] = x[..., i]
        out = np.empty(x.shape[:-1] + (dim, dim))
        for a in range(dim):
            for b in range(dim):
                out[..., a, b] = fns[a][b](ns)
        return out

    return metric_fn


def numeric_chart_from_file(path: str) -> NumericChart:
    """Load a chart from a JSON metric description.

    Expected keys: ``dim`` (int), ``metric`` (dim x dim table of
    expressions in x0..x{dim-1}), optional ``domain_radius`` and ``h``.
    Expressions are evaluated with numpy semantics; only arithmetic on
    constants, coordinates and the whitelisted functions is accepted.
    """
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read metric file {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"metric file {path!r} is not valid JSON (line {exc.lineno}, column {exc.colno})"
        ) from exc
    try:
        dim = int(data["dim"])
        rows = data["metric"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"metric file {path!r} needs integer 'dim' and 'metric' table") from exc
    fn = _compile_metric(dim, rows)
    return NumericChart(
        dim,
        fn,
        domain_radius=float(data.get("domain_radius", np.inf)),
        h=float(data.get("h", 1e-4)),
        name=f"numeric:{path}",
    )
