"""User-supplied metrics: whitelisted expressions, differentiated exactly.

A numeric chart holds a dim x dim table of metric expressions in x0..x{dim-1}.
Each is evaluated once on truncated multivariate Taylor series about the
query points (Taylor-mode forward differentiation, Griewank & Walther,
*Evaluating Derivatives*, 2nd ed., 2008, ch. 13); g^-1, Gamma, R, nabla R
and nabla^2 R follow exactly, up to rounding, from the coordinate formulas
carried out on the same series.
"""

from __future__ import annotations

import ast
import functools
import itertools
import json
import math

import numpy as np

from ..errors import ConfigError
from .base import ManifoldChart

__all__ = ["NumericChart", "numeric_chart_from_file"]


class _Series:
    """Truncated Taylor series in n variables to total degree ``order``.

    A series is an array whose last axis holds the coefficients c_a of
    f(x + h) = sum_a c_a h^a by degree (1, h_0..h_{n-1}, ...), so a lower
    order is a prefix.  A product gathers the index pairs (I, K) whose
    degrees sum to at most ``order`` and scatters them with the 0/1 matrix
    S; ``d[l]`` maps a series to its x_l-derivative, one order lower.
    """

    def __init__(self, n: int, order: int):
        monos = sorted(
            (a for a in itertools.product(range(order + 1), repeat=n) if sum(a) <= order),
            key=lambda a: (sum(a), [-e for e in a]),
        )
        where = {a: i for i, a in enumerate(monos)}
        pairs = [(i, k) for i, a in enumerate(monos) for k, b in enumerate(monos) if sum(a) + sum(b) <= order]
        self.order, self.size = order, len(monos)
        self.e0 = np.eye(len(monos))[0]
        self.I, self.K = np.array(pairs).T
        self.S = np.zeros((len(pairs), len(monos)))
        for p, (i, k) in enumerate(pairs):
            self.S[p, where[tuple(u + v for u, v in zip(monos[i], monos[k]))]] = 1.0
        self.d = np.zeros((n, len(monos), sum(sum(a) < order for a in monos)))
        for j, a in enumerate(monos[: self.d.shape[-1]]):
            for l in range(n):
                self.d[l, where[a[:l] + (a[l] + 1,) + a[l + 1 :]], j] = a[l] + 1

    def const(self, c):
        return np.asarray(c, float)[..., None] * self.e0

    def mul(self, a, b):
        return (a[..., self.I] * b[..., self.K]) @ self.S

    def contract(self, a, b, spec):
        """``einsum(spec)`` over the tensor indices of a and b, entries multiplied as series."""
        lhs, rhs, out = spec.replace("->", ",").split(",")
        return np.einsum(f"...{lhs}z,...{rhs}z->...{out}z", a[..., self.I], b[..., self.K]) @ self.S

    def grad(self, T):
        """Coordinate derivative of a series tensor, its index appended after T's."""
        return np.einsum("...m,lmk->...lk", T, self.d)

    def taylor(self, a, derivative):
        """f(a) by Taylor's formula about a's constant term t, where derivative(t, k) = f^(k)(t)."""
        t = a[..., 0]
        delta = a - self.const(t)
        # Horner: sum_k f^(k)(t) delta^k / k!
        out = self.const(derivative(t, self.order) / math.factorial(self.order))
        for k in range(self.order - 1, -1, -1):
            out = self.const(derivative(t, k) / math.factorial(k)) + self.mul(delta, out)
        return out

    def power(self, a, p):
        """a**p for an exponent p constant in x (an array over the points)."""

        def derivative(t, k):
            # p (p-1) .. (p-k+1) vanishes for an integer p < k, where t**(p - k) may not exist
            falling = math.prod(p - j for j in range(k))
            return falling * np.power(t, p - k, out=np.zeros(np.broadcast(t, p).shape), where=falling != 0)

        return self.taylor(a, derivative)

    def div(self, a, b):
        return self.mul(a, self.power(b, -1.0))

    def pow(self, a, b):
        """a**b: the power rule for b constant in x, else exp(b log a)."""
        if np.any(b[..., 1:]):
            return _FUNCTIONS["exp"](self, self.mul(b, _FUNCTIONS["log"](self, a)))
        return self.power(a, b[..., 0])


_series = functools.cache(_Series)

# f^(k)(t) of the functions that go through Taylor's formula directly
_DERIVATIVES = {
    "sin": lambda t, k: (np.sin(t), np.cos(t), -np.sin(t), -np.cos(t))[k % 4],
    "cos": lambda t, k: (np.cos(t), -np.sin(t), -np.cos(t), np.sin(t))[k % 4],
    "sinh": lambda t, k: (np.sinh(t), np.cosh(t))[k % 2],
    "cosh": lambda t, k: (np.cosh(t), np.sinh(t))[k % 2],
    "exp": lambda t, k: np.exp(t),
    "log": lambda t, k: np.log(t) if k == 0 else -math.factorial(k - 1) * (-1.0 / t) ** k,
}
_FUNCTIONS = {name: functools.partial(_Series.taylor, derivative=d) for name, d in _DERIVATIVES.items()}
_FUNCTIONS.update(
    sqrt=lambda s, a: s.power(a, 0.5),
    tan=lambda s, a: s.div(_FUNCTIONS["sin"](s, a), _FUNCTIONS["cos"](s, a)),
    tanh=lambda s, a: s.div(_FUNCTIONS["sinh"](s, a), _FUNCTIONS["cosh"](s, a)),
    abs=lambda s, a: np.sign(a[..., :1]) * a,
)

# floor division and remainder take the floor of the quotient as a constant
_OPERATORS = {
    ast.Add: lambda s, a, b: a + b,
    ast.Sub: lambda s, a, b: a - b,
    ast.Mult: _Series.mul,
    ast.Div: _Series.div,
    ast.Pow: _Series.pow,
    ast.FloorDiv: lambda s, a, b: s.const(np.floor(a[..., 0] / b[..., 0])),
    ast.Mod: lambda s, a, b: a - np.floor(a[..., :1] / b[..., :1]) * b,
}


def _compile_expr(text: str, dim: int):
    """Compile one metric expression to a function (series, coordinate series) -> series.

    Only numeric constants, the coordinates x0..x{dim-1}, pi and e,
    arithmetic operators and signs, and one-argument calls to the
    functions in _FUNCTIONS are accepted; anything else (attribute access,
    subscripts, other calls) raises ConfigError, so a metric file cannot
    reach the interpreter.
    """
    coords = {f"x{i}": i for i in range(dim)}

    def build(node):
        if isinstance(node, ast.Constant) and type(node.value) in (int, float):
            return lambda s, xs, v=node.value: s.const(v)
        if isinstance(node, ast.Name) and node.id in coords:
            return lambda s, xs, i=coords[node.id]: xs[..., i, :]
        if isinstance(node, ast.Name) and node.id in ("pi", "e"):
            return lambda s, xs, v=getattr(math, node.id): s.const(v)
        if isinstance(node, ast.BinOp) and type(node.op) in _OPERATORS:
            op, lhs, rhs = _OPERATORS[type(node.op)], build(node.left), build(node.right)
            return lambda s, xs: op(s, lhs(s, xs), rhs(s, xs))
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
            sign, arg = (1.0 if isinstance(node.op, ast.UAdd) else -1.0), build(node.operand)
            return lambda s, xs: sign * arg(s, xs)
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in _FUNCTIONS
            and len(node.args) == 1
            and not node.keywords
        ):
            fn, arg = _FUNCTIONS[node.func.id], build(node.args[0])
            return lambda s, xs: fn(s, arg(s, xs))
        raise ConfigError(f"metric expression {text!r}: {type(node).__name__} is not allowed")

    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as exc:
        raise ConfigError(f"metric expression {text!r} does not parse: {exc.msg}") from exc
    return build(tree.body)


class NumericChart(ManifoldChart):
    """Chart of a metric given as a dim x dim table of expressions in x0..x{dim-1}."""

    curvature_kind = "generic_numeric"

    def __init__(self, dim: int, exprs, domain_radius: float = np.inf, name: str = "numeric"):
        if dim < 1 or not isinstance(exprs, list) or len(exprs) != dim or any(
            not isinstance(row, list) or len(row) != dim for row in exprs
        ):
            raise ConfigError("metric expression table must be dim x dim, dim >= 1")
        self.dim = int(dim)
        self._table = [[str(e) for e in row] for row in exprs]
        # each distinct expression is evaluated once per call
        self._exprs = {e: _compile_expr(e, self.dim) for row in self._table for e in row}
        self.domain_radius = float(domain_radius)
        self.name = name

    def _tensors(self, x, order):
        """g, Gamma, R, nabla R, nabla^2 R about x, as far as ``order`` reaches.

        The k-th is a series of order ``order - k``.  R[..., l, i, j, k, :]
        holds R^l_ijk, R(X, Y)Z^l = R^l_ijk X^i Y^j Z^k; each covariant
        derivative appends its index.
        """
        s = [_series(self.dim, k) for k in range(order + 1)]
        x = np.asarray(x, float)
        # the coordinate series x_l + h_l, stacked on axis -2
        xs = s[-1].const(x)
        xs[..., 1 : 1 + self.dim] += np.eye(self.dim)[:, : s[-1].size - 1]
        value = {e: np.broadcast_to(f(s[-1], xs), xs[..., 0, :].shape) for e, f in self._exprs.items()}
        g = np.stack([np.stack([value[e] for e in row], -2) for row in self._table], -3)
        out = [0.5 * (g + np.swapaxes(g, -2, -3))]
        if order == 0:
            return out
        g, lo = out[0], s[-2]
        dg = s[-1].grad(g)
        # lowered Christoffels Gamma_lij = (d_i g_jl + d_j g_il - d_l g_ij) / 2
        low = np.einsum("...jliz->...lijz", dg) + np.einsum("...iljz->...lijz", dg) - np.einsum("...ijlz->...lijz", dg)
        # g^-1 as the Neumann series sum_k (-g0^-1 dg)^k g0^-1, finite on truncated series
        g0inv = lo.const(np.linalg.inv(g[..., 0]))
        step = -lo.contract(g0inv, g[..., : lo.size] - lo.const(g[..., 0]), "ac,cb->ab")
        ginv = g0inv
        for _ in range(lo.order):
            ginv = g0inv + lo.contract(step, ginv, "ac,cb->ab")
        out.append(0.5 * lo.contract(ginv, low, "kl,lij->kij"))
        if order > 1:
            # A^l_jki = d_i Gamma^l_jk + Gamma^l_im Gamma^m_jk, R^l_ijk = A^l_jki - A^l_ikj
            G = out[1][..., : s[-3].size]
            A = lo.grad(out[1]) + s[-3].contract(G, G, "lim,mjk->ljki")
            out.append(np.einsum("...ljkiz->...lijkz", A) - np.einsum("...likjz->...lijkz", A))
        # nabla T of the (1, r) tensor T = out[-1], index l appended:
        # d_l T^a_b.. + Gamma^a_lm T^m_b.. - sum_i Gamma^m_lb_i T^a_..m..
        for k in range(order - 3, -1, -1):
            hi, lo = s[k + 1], s[k]
            T, gam = out[-1], out[1][..., : lo.size]
            idx = "abcdefgh"[: T.ndim - gam.ndim + 3]
            nabla = hi.grad(T) + lo.contract(gam, T[..., : lo.size], f"aly,y{idx[1:]}->{idx}l")
            for i in range(1, len(idx)):
                nabla = nabla - lo.contract(gam, T[..., : lo.size], f"yl{idx[i]},{idx[:i]}y{idx[i + 1:]}->{idx}l")
            out.append(nabla)
        return out

    def metric(self, x):
        return self._tensors(x, 0)[0][..., 0]

    def dmetric(self, x):
        return np.moveaxis(self._tensors(x, 1)[0][..., 1 : 1 + self.dim], -1, -3)

    def christoffel(self, x):
        return self._tensors(x, 1)[1][..., 0]

    def dchristoffel(self, x):
        return np.moveaxis(self._tensors(x, 2)[1][..., 1 : 1 + self.dim], -1, -4)

    def curvature(self, x, X, Y, Z):
        return np.einsum("...lijk,...i,...j,...k->...l", self._tensors(x, 2)[2][..., 0], X, Y, Z)

    def nabla_R(self, x, W, X, Y, Z):
        nR = self._tensors(x, 3)[3][..., 0]
        return np.einsum("...lijkw,...i,...j,...k,...w->...l", nR, X, Y, Z, W)

    def nabla2_R(self, x, W, X, Y, Z):
        nnR = self._tensors(x, 4)[4][..., 0]
        return np.einsum("...lijkwp,...i,...j,...k,...w,...p->...l", nnR, X, Y, Z, W, W)

    def contains(self, x):
        x = np.asarray(x, float)
        ok = np.all(np.isfinite(x), axis=-1)
        if math.isinf(self.domain_radius):
            return ok
        return ok & (np.linalg.norm(x, axis=-1) <= self.domain_radius)


def numeric_chart_from_file(path: str) -> NumericChart:
    """Load a chart from a JSON object with keys ``dim`` (int), ``metric``
    (dim x dim table of expressions) and optional ``domain_radius``; any
    other key is refused.
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
    if not isinstance(data, dict):
        raise ConfigError(f"metric file {path!r} must hold a JSON object")
    unknown = sorted(set(data) - {"dim", "metric", "domain_radius"})
    if unknown:
        raise ConfigError(f"unknown metric file keys in {path!r}: {', '.join(unknown)}")
    try:
        dim = int(data["dim"])
        radius = float(data.get("domain_radius", np.inf))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"metric file {path!r} needs an integer 'dim' and a numeric 'domain_radius'") from exc
    return NumericChart(dim, data.get("metric"), domain_radius=radius, name=f"numeric:{path}")
