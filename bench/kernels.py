"""Microbenchmarks of the chart and potential kernels the workloads use.

Each kernel is timed at batch 1 and batch 100 (leading axis of 1 or 100
points) on seeded random inputs inside the chart domain.  A timing is the
median over repeats of a loop long enough to dwarf the clock's resolution,
reported per call in microseconds.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

BATCHES = (1, 100)
_REPEATS = 7
_MIN_LOOP_S = 0.02


def per_call_us(fn):
    """Median wall time of one fn() call, in microseconds."""
    fn()
    loops = 1
    while True:
        t0 = perf_counter()
        for _ in range(loops):
            fn()
        if perf_counter() - t0 >= _MIN_LOOP_S:
            break
        loops *= 2
    samples = []
    for _ in range(_REPEATS):
        t0 = perf_counter()
        for _ in range(loops):
            fn()
        samples.append((perf_counter() - t0) / loops)
    return 1e6 * statistics.median(samples)


def kernel_metrics(charts, sphere_potential, seed):
    """Per-call times keyed by metric name.

    ``charts`` maps a short chart name to a chart instance; the potential
    is the sphere2 Gaussian obstacle of the discrete-oracle workload.
    """
    rng = np.random.default_rng(seed)
    out = {}
    for cname, chart in charts.items():
        for b in BATCHES:
            # |x| <= 0.6 sits well inside every chart's domain
            x, u, v, w = 0.6 * rng.uniform(-1.0, 1.0, size=(4, b, chart.dim)) / np.sqrt(chart.dim)
            out[f"geometry.{cname}.gamma_us.b{b}"] = per_call_us(lambda: chart.gamma(x, u, v))
            out[f"geometry.{cname}.curvature_us.b{b}"] = per_call_us(
                lambda: chart.curvature(x, u, v, w)
            )
    chart = sphere_potential.chart
    for b in BATCHES:
        x, X = 0.6 * rng.uniform(-1.0, 1.0, size=(2, b, chart.dim)) / np.sqrt(chart.dim)
        out[f"potentials.gaussian.sphere2.gradient_us.b{b}"] = per_call_us(
            lambda: sphere_potential.gradient(x)
        )
        out[f"potentials.gaussian.sphere2.hessian_op_us.b{b}"] = per_call_us(
            lambda: sphere_potential.hessian_op(x, X)
        )
    return out
