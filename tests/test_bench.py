"""The benchmark's calls into riemplan, checked where a refactor is tested.

``bench/layers.py`` wraps each ``(module, attribute)`` site in ``SPANS``,
and ``bench/kernels.py`` calls the chart and potential kernels directly.
A refactor that renames or deletes a site, or changes a kernel's
signature, breaks the benchmark's runs, so both are exercised here.  So
are ``bench/run.py``'s correctness checks of both workloads: a grid
change that moves a plan off ``bench/reference.json`` or a rank drop off
the beam roots fails here too, and so does a change to which of the
oracle workload's ops pass (its ``ok_frac``).
"""

from __future__ import annotations

import importlib
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np

from riemplan.cli import main
from riemplan.config import load_scenario

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_bench_module(name):
    # registered while it runs, so the dataclasses of bench/run.py resolve
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
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


def test_flat_default_grid_passes_the_bench_checks(tmp_path):
    # the workload's plan and verify --trajectory ops, as bench/run.py builds
    # and checks them: (y, z) and the action within 1e-7 of the reference,
    # the residual, the classification and well_top_long's beam roots
    run = load_bench_module("run")
    ref = json.loads(run.REFERENCE.read_text())["scenarios"]
    ops = run.pass_ops(run.WORKLOADS["flat-default-grid"], tmp_path, 1, ref, {})
    assert [(op.kind, op.scenario) for op in ops] == [
        ("plan", "flat_obstacle"), ("verify", "flat_obstacle"), ("plan", "well_top_long"), ("verify", "well_top_long")
    ]
    for op in ops:
        assert op.check(main(op.argv)) == [], f"{op.kind} {op.scenario}"


def test_discrete_oracle_passes_the_bench_checks(tmp_path):
    # the workload's input plans and oracle-compare ops, as bench/run.py
    # builds and checks them: both N = 400 ops within the bounds, and the
    # N = 800 flat_obstacle op stopped by the known nonconvergence defect
    # that the workload keeps on purpose (exit code 2)
    run = load_bench_module("run")
    ref = json.loads(run.REFERENCE.read_text())["scenarios"]
    work = run.WORKLOADS["discrete-oracle"]
    inputs = {}
    for name in work["inputs"]:
        op = run.plan_op(name, tmp_path / name, 1, ref)
        assert op.check(main(op.argv)) == [], f"plan {name}"
        inputs[name] = tmp_path / name
    ops = run.pass_ops(work, tmp_path / "pass", 1, ref, inputs)
    assert [(op.scenario, op.label) for op in ops] == [
        ("flat_obstacle", "N=400"), ("sphere_obstacle", "N=400"), ("flat_obstacle", "N=800")
    ]
    assert [op.check(main(op.argv)) for op in ops] == [[], [], ["exit code 2, expected 0"]]
