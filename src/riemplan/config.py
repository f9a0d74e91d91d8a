"""Scenario files: JSON schema, validation, command defaults.

A scenario is one self-contained planning problem: which chart, which
potential, the endpoint jets, the time window, and per-command options.
Everything downstream (CLI, batch runs) consumes the loaded Scenario, so
all schema knowledge lives here.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from .bvp import BoundaryData
from .errors import ChartDomainError, ConfigError
from .geometry import ManifoldChart, parse_manifold
from .potentials import GaussianObstacle, Potential, QuadraticWell, SumPotential, ZeroPotential

__all__ = ["Scenario", "load_scenario", "scenario_from_dict", "potential_from_config"]

# the keys each command option block accepts
_BLOCK_KEYS = {
    "solver": ("max_iter", "seeds", "spread", "multi_seed"),
    "verify": ("basis", "grid", "t1"),
    "sweep": ("lambdas",),
    "oracle": ("nodes", "gtol"),
}
_TOP_KEYS = {"manifold", "potential", "boundary", "interval", "step", "seed", "out", *_BLOCK_KEYS}


@dataclass
class Scenario:
    """A validated planning problem plus per-command option blocks."""

    manifold: str
    chart: ManifoldChart
    potential: Potential
    boundary: BoundaryData
    step: float | None = None
    seed: int = 0
    out: Path = Path("out")
    solver: dict = field(default_factory=dict)
    verify: dict = field(default_factory=dict)
    sweep: dict = field(default_factory=dict)
    oracle: dict = field(default_factory=dict)


def _vector(raw, n, where):
    try:
        vec = np.asarray(raw, float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where} must be a list of numbers") from exc
    if vec.shape != (n,):
        raise ConfigError(f"{where} must have {n} components, got shape {vec.shape}")
    if not np.all(np.isfinite(vec)):
        raise ConfigError(f"{where} has nonfinite entries")
    return vec


def _options(raw, where):
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        raise ConfigError(f"{where} must be an object")
    unknown = sorted(set(raw) - set(_BLOCK_KEYS[where]))
    if unknown:
        raise ConfigError(f"{where}.{unknown[0]} must not be set: {where} takes {', '.join(_BLOCK_KEYS[where])}")
    return {key: value for key, value in raw.items() if value is not None}  # null: the default


def _count(raw, where, least, what, most=None):
    """An integer option of at least ``least`` and at most ``most`` if given;
    ``what`` names the lower bound."""
    try:
        value = int(raw)
        exact = not isinstance(raw, bool) and value == float(raw)
    except (TypeError, ValueError, OverflowError):
        exact = False
    if not exact:
        raise ConfigError(f"{where} must be an integer, got {raw!r}")
    if value < least:
        raise ConfigError(f"{where} must be {what}, got {value}")
    if most is not None and value > most:
        raise ConfigError(f"{where} must be at most {most}, got {value}")
    return value


def _real(raw, where, least=None, strict=False, most=None):
    """A finite number, at least ``least`` (above it with ``strict``) and at most ``most`` if given."""
    try:
        value = float(raw)
    except (TypeError, ValueError, OverflowError):
        value = math.nan
    if isinstance(raw, bool) or not math.isfinite(value):
        raise ConfigError(f"{where} must be a finite number, got {raw!r}")
    if least is not None and (value < least or strict and value == least):
        raise ConfigError(f"{where} must be {'above' if strict else 'at least'} {least:g}, got {value:g}")
    if most is not None and value > most:
        raise ConfigError(f"{where} must be at most {most:g}, got {value:g}")
    return value


def _boolean(raw, where):
    """A JSON true or false; strings and numbers are refused, not read by truthiness."""
    if not isinstance(raw, bool):
        raise ConfigError(f"{where} must be true or false, got {raw!r}")
    return raw


def _lambdas(raw, where):
    """A continuation grid: a nonempty list of numbers starting at 0."""
    if isinstance(raw, str):  # the command line's comma-separated grid
        raw = [v for v in raw.split(",") if v]
    if not isinstance(raw, (list, tuple)) or not raw:
        raise ConfigError(f"{where} must be a nonempty list of numbers, got {raw!r}")
    lams = [_real(v, f"{where}[{i}]") for i, v in enumerate(raw)]
    if lams[0] != 0.0:
        raise ConfigError(f"{where} must start at 0, got {lams[0]:g}")
    return lams


# the keys each potential type accepts
_POTENTIAL_KEYS = {
    "zero": {"type"},
    "gaussian": {"type", "center", "A", "sigma", "distance"},
    "quadratic": {"type", "center", "k"},
    "sum": {"type", "terms"},
}


def potential_from_config(chart, cfg, where="potential") -> Potential:
    """Build a potential from its config object (None: V = 0).

    Every error is a ConfigError naming the offending key under ``where``.
    """
    if cfg is None:
        return ZeroPotential(chart)
    if not isinstance(cfg, dict) or "type" not in cfg:
        raise ConfigError(f"{where} must be an object with a 'type'")
    kind = cfg["type"]
    if not isinstance(kind, str) or kind not in _POTENTIAL_KEYS:
        raise ConfigError(f"{where}.type must be one of {', '.join(_POTENTIAL_KEYS)}, got {kind!r}")
    unknown = sorted(set(cfg) - _POTENTIAL_KEYS[kind])
    if unknown:
        raise ConfigError(f"unknown {where} keys for a {kind} potential: {', '.join(unknown)}")

    def center():
        return _vector(cfg["center"], chart.dim, f"{where}.center")

    def positive(key, default=None):
        return _real(cfg.get(key, default), f"{where}.{key}", 0.0, strict=True)

    if kind == "zero":
        return ZeroPotential(chart)
    try:
        if kind == "gaussian":
            missing = sorted({"center", "A", "sigma"} - set(cfg))
            if missing:
                raise ConfigError(f"{where} is missing {', '.join(missing)}")
            mode = cfg.get("distance", "riemannian")
            if mode not in ("riemannian", "chart"):
                raise ConfigError(f"{where}.distance must be 'riemannian' or 'chart', got {mode!r}")
            return GaussianObstacle(chart, center(), positive("A"), positive("sigma"), mode)
        if kind == "quadratic":
            well_center = center() if cfg.get("center") is not None else None
            return QuadraticWell(chart, well_center, positive("k", 1.0))
    except ChartDomainError as exc:
        # the constructors check the center against the chart domain
        raise ConfigError(f"{where}.center must lie in the {chart.name} chart domain") from exc
    terms = cfg.get("terms")
    if not isinstance(terms, list) or not terms:
        raise ConfigError(f"{where}.terms must be a nonempty list of potentials")
    return SumPotential([potential_from_config(chart, t, f"{where}.terms[{i}]") for i, t in enumerate(terms)])


# (block, key, check(raw, where) -> value) for every option a command reads
_CHECKS = (
    ("verify", "grid", partial(_count, least=1, what="a positive sample count")),
    # bounds far past any use (the Galerkin matrices are dense, (m n)^2 with
    # default m = ceil(120 / n); multi-seed builds all its seeds, 10 by default,
    # before any march): basis 2**62 raised from np.linspace, not as a config error
    ("verify", "basis", partial(_count, least=2, what="at least 2 spline profiles", most=1024)),
    ("solver", "max_iter", partial(_count, least=0, what="at least 0")),
    ("solver", "seeds", partial(_count, least=1, what="at least 1", most=1024)),
    ("solver", "spread", partial(_real, least=0.0)),
    ("solver", "multi_seed", _boolean),
    # a million segments is far past any grid the oracle converges on; the
    # bound refuses, before any work, counts whose node arrays numpy cannot
    # allocate (2**70 raised from np.arange, not as a configuration error)
    ("oracle", "nodes", partial(_count, least=6, what="at least 6 segments", most=2**20)),
    ("oracle", "gtol", partial(_real, least=0.0, strict=True)),
    ("sweep", "lambdas", _lambdas),
)


def scenario_from_dict(cfg: dict, step=None, seed=None, out=None, flags=None) -> Scenario:
    """Validate a raw config mapping; keyword overrides win over the file,
    and so do ``flags``, command-line option values by key (None: not
    given).  Every option a command reads is checked here, before any work."""
    if not isinstance(cfg, dict):
        raise ConfigError("scenario config must be a JSON object")
    unknown = sorted(set(cfg) - _TOP_KEYS)
    if unknown:
        raise ConfigError(f"unknown scenario keys: {', '.join(unknown)}")
    for key in ("manifold", "boundary", "interval"):
        if key not in cfg:
            raise ConfigError(f"scenario is missing required key {key!r}")

    chart = parse_manifold(cfg["manifold"])
    potential = potential_from_config(chart, cfg.get("potential"))

    interval = cfg["interval"]
    if not isinstance(interval, (list, tuple)) or len(interval) != 2:
        raise ConfigError("interval must be [a, b]")
    a, b = (_real(x, "interval entry") for x in interval)
    if not b > a:
        raise ConfigError(f"interval needs b > a, got [{a}, {b}]")

    braw = cfg["boundary"]
    if not isinstance(braw, dict):
        raise ConfigError("boundary must be an object")
    missing = sorted({"q_a", "v_a", "q_b", "v_b"} - set(braw))
    if missing:
        raise ConfigError(f"boundary is missing {', '.join(missing)}")
    n = chart.dim
    boundary = BoundaryData(
        q_a=_vector(braw["q_a"], n, "boundary.q_a"),
        v_a=_vector(braw["v_a"], n, "boundary.v_a"),
        q_b=_vector(braw["q_b"], n, "boundary.q_b"),
        v_b=_vector(braw["v_b"], n, "boundary.v_b"),
        a=a,
        b=b,
    )
    boundary.validate(chart)

    if step is None:
        step = cfg.get("step")
    if step is not None:
        step = _real(step, "step", 0.0, strict=True)

    if seed is None:
        seed = cfg.get("seed", 0)
    seed = _count(seed, "seed", 0, "an unsigned 64-bit integer")
    if seed >= 2**64:
        raise ConfigError(f"seed must be an unsigned 64-bit integer, got {seed}")

    out = Path(out if out is not None else cfg.get("out", "out"))

    blocks = {name: _options(cfg.get(name), name) for name in _BLOCK_KEYS}
    flags = flags or {}
    # the scan's left time lies in the window
    for block, key, check in _CHECKS + (("verify", "t1", partial(_real, least=a, most=b)),):
        where = f"{block}.{key}"
        if flags.get(key) is not None:
            blocks[block][key], where = flags[key], f"--{key}"
        if key in blocks[block]:
            blocks[block][key] = check(blocks[block][key], where)

    return Scenario(
        manifold=str(cfg["manifold"]),
        chart=chart,
        potential=potential,
        boundary=boundary,
        step=step,
        seed=seed,
        out=out,
        **blocks,
    )


def load_scenario(path, step=None, seed=None, out=None, flags=None) -> Scenario:
    """Load and validate a scenario JSON file.

    Malformed JSON reports the file, line, and column; schema problems
    report the offending key.  Both surface as ConfigError.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}:{exc.lineno}:{exc.colno}: invalid JSON ({exc.msg})"
        ) from exc
    return scenario_from_dict(cfg, step=step, seed=seed, out=out, flags=flags)
