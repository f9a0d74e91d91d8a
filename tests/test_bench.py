"""The benchmark's calls into riemplan, checked where a refactor is tested.

``bench/layers.py`` wraps each ``(module, attribute)`` site in ``SPANS``,
and ``bench/kernels.py`` calls the chart and potential kernels directly.
A refactor that renames or deletes a site, or changes a kernel's
signature, breaks the benchmark's runs, so both are exercised here.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from riemplan.config import load_scenario

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_site_resolves():
    layers = load_bench_module("layers")
    sites = [site for group in layers.SPANS.values() for site in group]
    assert sites
    missing = [
        f"{mod}.{attr}" for mod, attr in sites if not callable(getattr(importlib.import_module(mod), attr, None))
    ]
    assert missing == []


def test_kernel_metrics_run_on_the_bench_scenarios(monkeypatch):
    # every kernel is called once, as bench/run.py builds its inputs
    kernels = load_bench_module("kernels")
    monkeypatch.setattr(kernels, "per_call_us", lambda fn: (fn(), 1.0)[1])
    scen = {name: load_scenario(BENCH / "scenarios" / f"{name}.json") for name in ("flat_obstacle", "sphere_obstacle", "rotation")}
    charts = {
        "euclidean2": scen["flat_obstacle"].chart,
        "sphere2": scen["sphere_obstacle"].chart,
        "so3": scen["rotation"].chart,
    }
    metrics = kernels.kernel_metrics(charts, scen["sphere_obstacle"].potential, seed=0)
    assert len(metrics) == 16
    assert all(np.isfinite(v) for v in metrics.values())
