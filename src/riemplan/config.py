"""Scenario files: JSON schema, validation, command defaults.

A scenario is one self-contained planning problem: which chart, which
potential, the endpoint jets, the time window, and per-command options.
Everything downstream (CLI, batch runs) consumes the loaded Scenario, so
all schema knowledge lives here.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .bvp import BoundaryData
from .errors import ConfigError
from .geometry import ManifoldChart, parse_manifold
from .potentials import Potential, potential_from_config

__all__ = ["Scenario", "load_scenario", "scenario_from_dict"]

_TOP_KEYS = {
    "manifold",
    "potential",
    "boundary",
    "interval",
    "step",
    "seed",
    "out",
    "solver",
    "verify",
    "sweep",
    "oracle",
}


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
    return dict(raw)


def _count(raw, where, least, what):
    """An integer option of at least ``least``; ``what`` names the bound."""
    try:
        value = int(raw)
        exact = not isinstance(raw, bool) and value == float(raw)
    except (TypeError, ValueError, OverflowError):
        exact = False
    if not exact:
        raise ConfigError(f"{where} must be an integer, got {raw!r}")
    if value < least:
        raise ConfigError(f"{where} must be {what}, got {value}")
    return value


def scenario_from_dict(cfg: dict, step=None, seed=None, out=None) -> Scenario:
    """Validate a raw config mapping; keyword overrides win over the file."""
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
    try:
        a, b = float(interval[0]), float(interval[1])
    except (TypeError, ValueError) as exc:
        raise ConfigError("interval entries must be numbers") from exc
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
        step = float(step)
        if not step > 0:
            raise ConfigError(f"step must be positive, got {step}")

    if seed is None:
        seed = cfg.get("seed", 0)
    try:
        seed = int(seed)
    except (TypeError, ValueError) as exc:
        raise ConfigError("seed must be an integer") from exc
    if not 0 <= seed < 2**64:
        raise ConfigError("seed must fit in an unsigned 64-bit integer")

    out = Path(out if out is not None else cfg.get("out", "out"))

    verify = _options(cfg.get("verify"), "verify")
    for key, least, what in (
        ("grid", 1, "a positive sample count"),
        ("basis", 2, "at least 2 spline profiles"),
    ):
        if verify.get(key) is not None:
            verify[key] = _count(verify[key], f"verify.{key}", least, what)

    return Scenario(
        manifold=str(cfg["manifold"]),
        chart=chart,
        potential=potential,
        boundary=boundary,
        step=step,
        seed=seed,
        out=out,
        solver=_options(cfg.get("solver"), "solver"),
        verify=verify,
        sweep=_options(cfg.get("sweep"), "sweep"),
        oracle=_options(cfg.get("oracle"), "oracle"),
    )


def load_scenario(path, step=None, seed=None, out=None) -> Scenario:
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
    return scenario_from_dict(cfg, step=step, seed=seed, out=out)
