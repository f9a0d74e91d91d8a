"""Span tracing for the benchmark's traced run.

Each span wraps one riemplan function at the module attribute where its
callers look it up (``riemplan.bvp.biexp_jacobian`` is called through the
``bvp`` module's globals, ``solve_bvp`` through ``cli`` and ``oracle``),
so the program itself is not edited.  Spans stay in memory, aggregated by
name as calls, total time and the part of that time covered by child
spans; self time is total minus child.  Outside ``Tracer.installed()``
every attribute holds the original function again.
"""

from __future__ import annotations

import importlib
import statistics
from contextlib import contextmanager
from time import perf_counter

# span name -> module attributes it wraps.  The layer is the name's prefix.
SPANS = {
    "config.load_scenario": [("riemplan.cli", "load_scenario")],
    "cli.trajectory_csv": [
        ("riemplan.cli", "write_trajectory_csv"),
        ("riemplan.cli", "read_trajectory_csv"),
    ],
    "bvp.solve_bvp": [("riemplan.cli", "solve_bvp"), ("riemplan.oracle", "solve_bvp")],
    "bvp.biexp_jacobian": [("riemplan.bvp", "biexp_jacobian")],
    "dynamics.integrate_ivp": [
        ("riemplan.bvp", "integrate_ivp"),
        ("riemplan.oracle", "integrate_ivp"),
    ],
    "dynamics.rk4_step": [("riemplan.bvp", "_rk4_step"), ("riemplan.dynamics", "_rk4_step")],
    "index.verdict": [("riemplan.cli", "verdict")],
    "index.extended_index": [("riemplan.index", "extended_index")],
    "jacobi.biconjugate_scan": [("riemplan.index", "biconjugate_scan")],
    "geometry.transport_frame": [("riemplan.index", "transport_frame")],
    "oracle.check_uniqueness_props": [("riemplan.cli", "check_uniqueness_props")],
    "oracle.minimize_discrete": [("riemplan.cli", "minimize_discrete")],
    "oracle.discrete_gradient": [("riemplan.oracle", "discrete_gradient")],
    "oracle.compare_with_trajectory": [("riemplan.cli", "compare_with_trajectory")],
}

LAYERS = ("cli", "config", "geometry", "dynamics", "bvp", "jacobi", "index", "oracle")


def _count_result(counts, name, out, exc):
    """Counters read off a span's return value (or its NonconvergenceError)."""
    if name == "bvp.solve_bvp" and out is not None:
        counts["newton_iters"] += out.iterations
    elif name == "jacobi.biconjugate_scan" and out is not None:
        counts["rank_drops"] += len(out.times)
    elif name == "index.extended_index" and out is not None:
        counts["galerkin_fields"] += out.n_fields
    elif name == "oracle.minimize_discrete":
        path = out if out is not None else getattr(exc, "best", None)
        if path is not None and path.iterations is not None:
            counts["oracle_iterations"] += path.iterations
        counts["oracle_converged"] += out is not None


class Tracer:
    """In-memory span recorder; one instance per traced pass."""

    def __init__(self):
        self.stats = {}  # name -> [calls, total_s, child_s]
        self.counts = {
            "newton_iters": 0,
            "rank_drops": 0,
            "galerkin_fields": 0,
            "oracle_iterations": 0,
            "oracle_converged": 0,
        }
        self.root_s = 0.0
        self._stack = []

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span called name."""
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        stack.append(0.0)
        out = exc = None
        t0 = perf_counter()
        try:
            out = fn(*args, **kwargs)
            return out
        except Exception as err:
            exc = err
            raise
        finally:
            dur = perf_counter() - t0
            child = stack.pop()
            stats[0] += 1
            stats[1] += dur
            stats[2] += child
            if stack:
                stack[-1] += dur
            else:
                self.root_s += dur
            _count_result(self.counts, name, out, exc)

    def _wrapper(self, name, fn):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every SPANS attribute for the duration of the block."""
        saved = []
        try:
            for name, sites in SPANS.items():
                for mod_name, attr in sites:
                    mod = importlib.import_module(mod_name)
                    fn = getattr(mod, attr)
                    saved.append((mod, attr, fn))
                    setattr(mod, attr, self._wrapper(name, fn))
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    def calls(self, name):
        return self.stats.get(name, [0, 0.0, 0.0])[0]

    def total_s(self, name):
        return self.stats.get(name, [0, 0.0, 0.0])[1]

    def self_s_by_layer(self):
        out = dict.fromkeys(LAYERS, 0.0)
        for name, (_, total, child) in self.stats.items():
            out[name.split(".", 1)[0]] += total - child
        return out


def span_cost_s(loops=20000, repeats=5):
    """Wall time one span adds to a call, measured around a no-op."""

    def noop():
        return None

    wrapped = Tracer()._wrapper("calibrate.noop", noop)
    samples = []
    for _ in range(repeats):
        t0 = perf_counter()
        for _ in range(loops):
            noop()
        t1 = perf_counter()
        for _ in range(loops):
            wrapped()
        t2 = perf_counter()
        samples.append(((t2 - t1) - (t1 - t0)) / loops)
    return max(0.0, statistics.median(samples))
