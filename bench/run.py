"""riemplan benchmark: time to a certified plan, driven through the CLI.

Run from anywhere; paths resolve against this file:

    python3 bench/run.py --workload flat-default-grid --seed 1 --seconds 50 --trace 0

Every command goes through ``riemplan.cli.main`` in this one process, one
after another, with BLAS pinned to one thread.  Seeds derived from the
workload seed are passed to the commands as ``--seed``; they pick the
sub-windows that ``verify``'s uniqueness probes re-solve.  Every operation's output is
checked (see ``check_*``).  Standard output carries an environment line,
one line per operation and, as its last line, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: end-to-end
metrics with ``--trace 0``, per-layer metrics from a traced pass with
``--trace 1``.  End-to-end times are in reference seconds: each wall
time, less the calibration chunks a timer runs inside it, divided by the
slowdown those chunks show (see speed.py).  The line before the result
gives the same figures in wall seconds, and the slowdowns.
bench/NOTES.md explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from time import monotonic, perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SCENARIOS = BENCH / "scenarios"
REFERENCE = BENCH / "reference.json"

BLAS_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

# Why each workload exists is in NOTES.md.
WORKLOADS = {
    "flat-default-grid": {"plan": ["flat_obstacle", "well_top_long"]},
    # N=800 on flat_obstacle hits the known minimize_discrete defect and
    # fails; it stays in on purpose (NOTES.md).
    "discrete-oracle": {
        "inputs": ["flat_obstacle", "sphere_obstacle"],
        "compare": [("flat_obstacle", 400), ("sphere_obstacle", 400), ("flat_obstacle", 800)],
    },
}

SETUP_REPEATS = 3
# fresh interpreters that time the import, beside this process's own import
IMPORT_PROBES = 2
EXIT_OK, EXIT_SOLVER, EXIT_NOT_LOCAL = 0, 2, 4

# plan: |(y, z) - ref| <= REF_RTOL * (1 + |ref|), same for the action
REF_RTOL = 1e-7
# verify: well_top_long loses optimality at the clamped-beam roots
NOT_LOCAL = {"well_top_long"}
BEAM_ROOTS = (4.730040744863, 7.853204624096, 10.995607838003)
ROOT_TOL = 1e-5
# oracle-compare: the CLI's default gtol (no scenario sets one)
ORACLE_GTOL = 1e-7
MAX_SUP_DISTANCE = 5e-3
MAX_ACTION_GAP = 1e-3


def bootstrap():
    """Pin BLAS, put the checkout's sources first, import riemplan.

    Returns the import time.  Exits nonzero when the checkout has no
    riemplan sources, rather than measuring some other installed copy.
    """
    for var in BLAS_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "riemplan" / "__init__.py").is_file():
        sys.exit(f"error: no riemplan sources under {src}")
    sys.path.insert(0, str(src))
    t0 = perf_counter()
    import riemplan.cli

    elapsed = perf_counter() - t0
    if not Path(riemplan.__file__).resolve().is_relative_to(src.resolve()):
        sys.exit(f"error: imported riemplan from {riemplan.__file__}, not {src}")
    return elapsed


def import_probe_s(n):
    """Import times of riemplan.cli in n fresh interpreters, one at a time."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t0 = time.perf_counter(); "
        "import riemplan.cli; print(time.perf_counter() - t0)"
    )
    times = []
    for _ in range(n):
        done = subprocess.run(
            [sys.executable, "-c", code, str(ROOT / "src")],
            capture_output=True,
            text=True,
            check=True,
            timeout=60,
        )
        times.append(float(done.stdout.split()[-1]))
    return times


def environment(args):
    import numpy
    import scipy
    from speed import INTERVAL_S, REF_CHUNK_S

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ[var] for var in BLAS_VARS},
        "speed_interval_s": INTERVAL_S,
        "ref_chunk_s": REF_CHUNK_S,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# -- correctness checks: each returns a list of problems ------------------


def _norm(xs):
    return math.sqrt(sum(x * x for x in xs))


def _read_json(path):
    return json.loads(Path(path).read_text())


def check_plan(name, out, ref, code):
    if code != EXIT_OK:
        return [f"exit code {code}, expected {EXIT_OK}"]
    sol = _read_json(out / "solve.json")
    problems = []
    bd = sol["boundary"]
    tol = 1e-8 * (1.0 + _norm(bd["q_b"] + bd["v_b"]))  # solve_bvp's own rule
    if not sol["residual"] <= tol:
        problems.append(f"residual {sol['residual']:.3e} above solver tolerance {tol:.3e}")
    r = ref[name]
    yz, yz_ref = sol["y"] + sol["z"], r["y"] + r["z"]
    dev = _norm([a - b for a, b in zip(yz, yz_ref)])
    if not dev <= REF_RTOL * (1.0 + _norm(yz_ref)):
        problems.append(f"(y, z) off the reference by {dev:.3e}")
    dev = abs(sol["action"] - r["action"])
    if not dev <= REF_RTOL * (1.0 + abs(r["action"])):
        problems.append(f"action off the reference by {dev:.3e}")
    return problems


def check_verify(name, out, code):
    if name in NOT_LOCAL:
        want_code, want_class = EXIT_NOT_LOCAL, "not_omega_local"
    else:
        want_code, want_class = EXIT_OK, "candidate"
    if code != want_code:
        return [f"exit code {code}, expected {want_code}"]
    rep = _read_json(out / "verdict.json")
    problems = []
    if rep["classification"] != want_class:
        problems.append(f"classification {rep['classification']}, expected {want_class}")
    if want_class == "candidate" and rep.get("uniqueness", {}).get("pass") is not True:
        problems.append("uniqueness probes did not pass")
    if name == "well_top_long":
        times = sorted(p["t2"] for p in rep["rank_drops"]["points"])
        if len(times) != len(BEAM_ROOTS) or any(
            abs(t - r) > ROOT_TOL for t, r in zip(times, BEAM_ROOTS)
        ):
            problems.append(f"rank drops at {times}, expected the beam roots {BEAM_ROOTS}")
    return problems


def check_compare(out, code):
    if code != EXIT_OK:
        return [f"exit code {code}, expected {EXIT_OK}"]
    cmp_ = _read_json(out / "compare.json")
    problems = []
    if not cmp_["grad_sup"] <= ORACLE_GTOL:
        problems.append(f"grad_sup {cmp_['grad_sup']:.3e} above gtol {ORACLE_GTOL:g}")
    if not cmp_["sup_distance"] <= MAX_SUP_DISTANCE:
        problems.append(f"sup_distance {cmp_['sup_distance']:.3e} above {MAX_SUP_DISTANCE:g}")
    if not cmp_["action_gap"] <= MAX_ACTION_GAP:
        problems.append(f"action_gap {cmp_['action_gap']:.3e} above {MAX_ACTION_GAP:g}")
    return problems


# -- operations -----------------------------------------------------------


@dataclass
class Op:
    kind: str  # "plan", "verify" or "oracle-compare"
    scenario: str
    argv: list
    check: object  # exit code -> list of problems
    label: str = ""


def _common(name, out, seed):
    return ["--config", str(SCENARIOS / f"{name}.json"), "--out", str(out), "--seed", str(seed)]


def plan_op(name, out, seed, ref):
    return Op("plan", name, ["plan", *_common(name, out, seed)], partial(check_plan, name, out, ref))


def pass_ops(work, outdir, seed, ref, inputs):
    """The operations of one workload pass, writing under outdir."""
    ops = []
    # each scenario gets its own seed, so the verify probe windows of one
    # pass are drawn independently and their work varies less in sum
    for k, name in enumerate(work.get("plan", ())):
        out = outdir / name
        ops.append(plan_op(name, out, seed + k, ref))
        argv = ["verify", *_common(name, out, seed + k), "--trajectory", str(out / "trajectory.csv")]
        ops.append(Op("verify", name, argv, partial(check_verify, name, out)))
    for name, nodes in work.get("compare", ()):
        out = outdir / f"{name}-N{nodes}"
        argv = [
            "oracle-compare",
            *_common(name, out, seed),
            "--trajectory",
            str(inputs[name] / "trajectory.csv"),
            "--nodes",
            str(nodes),
        ]
        ops.append(Op("oracle-compare", name, argv, partial(check_compare, out), f"N={nodes}"))
    return ops


class Tally:
    """Operation outcomes summed over passes."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0


def run_pass(ops, cli_main, tally, speed, tracer=None):
    """Run ops in order; returns per-kind and total times, raw and rescaled.

    An op fails when its exit code or output check is off.  A solver that
    reports nonconvergence (exit code 2) only fails the op; any other
    mismatch, or a crash, is a wrong result and makes the run incorrect.
    A verify whose plan failed is counted failed without being run.
    Times leave out the calibration chunks that ran inside them; ``wall``
    keeps them in.  Each op's time is rescaled by the slowdown during
    that op, the rest of the pass (the checks) by the slowdown over it.
    """
    raw = {"plan": 0.0, "verify": 0.0, "oracle-compare": 0.0}
    ref = dict(raw)
    failed_plans = set()
    t_pass = monotonic()
    for op in ops:
        tally.attempted += 1
        if op.kind == "verify" and op.scenario in failed_plans:
            tally.failed += 1
            print(f"op verify {op.scenario}: skipped, its plan failed", flush=True)
            continue
        t0 = monotonic()
        try:
            if tracer is None:
                code = cli_main(op.argv)
            else:
                code = tracer.call(f"cli.{op.kind}", cli_main, op.argv)
        except Exception as exc:  # a crash is a wrong result; measure the rest
            code, crash = None, f"crashed: {type(exc).__name__}: {exc}"
        t1 = monotonic()
        dt = t1 - t0 - speed.busy(t0, t1)
        slow = speed.slowdown(t0, t1)
        raw[op.kind] += dt
        ref[op.kind] += dt / slow
        problems = [crash] if code is None else op.check(code)
        if problems:
            tally.failed += 1
            tally.wrong += code != EXIT_SOLVER
            if op.kind == "plan":
                failed_plans.add(op.scenario)
        status = "ok" if not problems else "FAILED: " + "; ".join(problems)
        print(f"op {op.kind} {op.scenario} {op.label} {dt:.3f}s x{slow:.3f} {status}", flush=True)
    t_end = monotonic()
    slow = speed.slowdown(t_pass, t_end)
    total = t_end - t_pass - speed.busy(t_pass, t_end)
    ref["total"] = sum(ref.values()) + (total - sum(raw.values())) / slow
    raw["total"] = total
    for times in (raw, ref):
        times["certify"] = times["verify"] + times["oracle-compare"]
    return {"raw": raw, "ref": ref, "slowdown": slow, "wall": t_end - t_pass}


def prepare(work, outdir, seed, ref, cli_main, load_scenario):
    """One set-up: validate every scenario, plan the oracle's inputs.

    Returns (input directories, [(start, end)] of the input plans).  A
    failed input plan aborts the run: there is nothing valid to measure.
    """
    names = list(work.get("plan", ())) + list(work.get("inputs", ()))
    for name in names:
        load_scenario(SCENARIOS / f"{name}.json")
    inputs, plans = {}, []
    for name in work.get("inputs", ()):
        op = plan_op(name, outdir / name, seed, ref)
        t0 = monotonic()
        code = cli_main(op.argv)
        plans.append((t0, monotonic()))
        problems = op.check(code)
        if problems:
            sys.exit(f"error: planning the {name} input failed: {'; '.join(problems)}")
        inputs[name] = outdir / name
    return inputs, plans


@dataclass
class Context:
    """What the measured passes need from set-up."""

    cli_main: object
    load_scenario: object
    ref: dict
    scratch: Path
    inputs: dict
    speed: object
    # per set-up, under "raw" and "ref" (rescaled): setup_s, import plus
    # set-up, and plan_s, the input plans inside it; and each slowdown
    setup: dict
    tally: Tally = field(default_factory=Tally)

    def ops(self, work, tag, seed):
        return pass_ops(work, self.scratch / tag, seed, self.ref, self.inputs)


def pass_seed(seed, i):
    """Seed of pass i; pass 0 gets the workload seed itself."""
    return (seed + 1_000_003 * i) % 2**64


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(work, args, ctx):
    """Passes that fit in --seconds, at least one; medians over passes.

    Another pass starts only if the median pass so far still fits, so a
    run measures for at most --seconds beyond its first pass.  The
    medians are taken over run_pass's rescaled times and, for the
    line printed before the result, over its raw ones.
    """
    passes = []
    t0 = perf_counter()

    def fits():
        pass_s = statistics.median(p["raw"]["total"] for p in passes)
        return perf_counter() - t0 + pass_s <= args.seconds

    while not passes or fits():
        i = len(passes)
        ops = ctx.ops(work, f"pass{i}", pass_seed(args.seed, i))
        passes.append(run_pass(ops, ctx.cli_main, ctx.tally, ctx.speed))

    figures = {}
    for scale in ("raw", "ref"):
        setups = ctx.setup[scale]

        def med(key):
            return statistics.median(p[scale][key] for p in passes)

        figures[scale] = {
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            # discrete-oracle plans only its inputs, in set-up
            "plan_s": med("plan") if work.get("plan") else statistics.median(s["plan_s"] for s in setups),
            "certify_s": med("certify"),
            "total_s": med("total"),
        }
    slowdown = {"setup": ctx.setup["slowdown"], "passes": [p["slowdown"] for p in passes]}
    print(json.dumps({"raw_wall_s": figures["raw"], "slowdown": slowdown}), flush=True)
    tally = ctx.tally
    return {
        **{name: _metric(value, "s") for name, value in figures["ref"].items()},
        "ok_frac": _metric((tally.attempted - tally.failed) / tally.attempted, "ratio"),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "MB"
        ),
    }


def per_layer(work, args, ctx):
    """One traced pass on the workload seed, then the kernel microbenchmarks.

    Tracing overhead is the span count times the measured cost of one
    span, plus the calibration chunks inside the pass: pass-to-pass noise
    on a shared machine is larger than the overhead, so an extra
    untraced pass would not resolve it.  Per-layer times are wall times.
    """
    from kernels import kernel_metrics
    from layers import LAYERS, Tracer, span_cost_s

    tr = Tracer()
    ops = ctx.ops(work, "traced", pass_seed(args.seed, 0))
    with tr.installed():
        traced = run_pass(ops, ctx.cli_main, ctx.tally, ctx.speed, tracer=tr)

    def secs(name):
        return _metric(tr.total_s(name), "s")

    def count(value):
        return _metric(value, "count")

    def per_call_us(name):
        n = tr.calls(name)
        return _metric(1e6 * tr.total_s(name) / n if n else 0.0, "us")

    c = tr.counts
    minimize_calls = tr.calls("oracle.minimize_discrete")
    m = {
        "geometry.transport_frame_s": secs("geometry.transport_frame"),
        "index.extended_index_s": secs("index.extended_index"),
        "index.galerkin_fields": count(c["galerkin_fields"]),
        "jacobi.biconjugate_scan_s": secs("jacobi.biconjugate_scan"),
        "jacobi.rank_drops": count(c["rank_drops"]),
        "dynamics.steps": count(tr.calls("dynamics.rk4_step")),
        "dynamics.integrate_ivp_s": secs("dynamics.integrate_ivp"),
        "dynamics.step_us": per_call_us("dynamics.rk4_step"),
        "bvp.solve_bvp_calls": count(tr.calls("bvp.solve_bvp")),
        "bvp.solve_bvp_s": secs("bvp.solve_bvp"),
        "bvp.newton_iters": count(c["newton_iters"]),
        "bvp.biexp_jacobian_calls": count(tr.calls("bvp.biexp_jacobian")),
        "bvp.biexp_jacobian_s": secs("bvp.biexp_jacobian"),
        "oracle.check_uniqueness_props_s": secs("oracle.check_uniqueness_props"),
        "oracle.minimize_discrete_s": secs("oracle.minimize_discrete"),
        "oracle.discrete_gradient_calls": count(tr.calls("oracle.discrete_gradient")),
        "oracle.discrete_gradient_us": per_call_us("oracle.discrete_gradient"),
        "oracle.iterations": count(c["oracle_iterations"]),
        "oracle.converged_frac": _metric(
            c["oracle_converged"] / minimize_calls if minimize_calls else 0.0, "ratio"
        ),
        "oracle.compare_with_trajectory_s": secs("oracle.compare_with_trajectory"),
        "config.load_scenario_s": secs("config.load_scenario"),
        "cli.trajectory_csv_s": secs("cli.trajectory_csv"),
        "cli.plan_s": secs("cli.plan"),
        "cli.verify_s": secs("cli.verify"),
        "cli.oracle_compare_s": secs("cli.oracle-compare"),
    }
    self_s = tr.self_s_by_layer()
    for layer in LAYERS:
        m[f"self.{layer}_s"] = _metric(self_s[layer], "s")
    wall = traced["wall"]
    # time inside the pass but outside every span: the checks, and the
    # calibration chunks that ran there
    m["self.bench_s"] = _metric(wall - tr.root_s, "s")
    spans = sum(tr.calls(name) for name in tr.stats)
    overhead = spans * span_cost_s() + (wall - traced["raw"]["total"])
    m["trace.pass_s"] = _metric(wall, "s")
    m["trace.spans"] = count(spans)
    m["trace.overhead_s"] = _metric(overhead, "s")
    m["trace.overhead_frac"] = _metric(overhead / (wall - overhead), "ratio")
    # (trace.pass_s - trace.overhead_s) / trace.slowdown compares with total_s
    m["trace.slowdown"] = _metric(traced["slowdown"], "ratio")
    ctx.speed.close()  # keep the chunks out of the microbenchmarks

    scen = {
        name: ctx.load_scenario(SCENARIOS / f"{name}.json")
        for name in ("flat_obstacle", "sphere_obstacle", "rotation")
    }
    charts = {
        "euclidean2": scen["flat_obstacle"].chart,
        "sphere2": scen["sphere_obstacle"].chart,
        "so3": scen["rotation"].chart,
    }
    for name, us in kernel_metrics(charts, scen["sphere_obstacle"].potential, args.seed).items():
        m[name] = _metric(us, "us")
    return m


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        p.error("--seed must fit in an unsigned 64-bit integer")
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    import_s = bootstrap()
    from riemplan.cli import main as cli_main
    from riemplan.config import load_scenario
    from speed import Speedometer

    print(json.dumps({"env": environment(args)}), flush=True)
    work = WORKLOADS[args.workload]
    ref = _read_json(REFERENCE)["scenarios"]
    out_root = ROOT / ".bench_out"
    out_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_root))
    speed = Speedometer()
    try:
        import_ref = import_s
        if args.trace == 0:
            t0 = monotonic()
            import_s = statistics.median([import_s, *import_probe_s(IMPORT_PROBES)])
            import_ref = import_s / speed.slowdown(t0, monotonic())

        def net(s, e):  # wall time without the chunks in it
            return e - s - speed.busy(s, e)

        setup = {"raw": [], "ref": [], "slowdown": []}
        for i in range(SETUP_REPEATS if args.trace == 0 else 1):
            t0 = monotonic()
            inputs, plans = prepare(work, scratch / f"setup{i}", args.seed, ref, cli_main, load_scenario)
            t1 = monotonic()
            slow = speed.slowdown(t0, t1)
            setup["slowdown"].append(slow)
            setup["raw"].append(
                {"setup_s": import_s + net(t0, t1), "plan_s": sum(net(s, e) for s, e in plans)}
            )
            setup["ref"].append(
                {
                    "setup_s": import_ref + net(t0, t1) / slow,
                    "plan_s": sum(net(s, e) / speed.slowdown(s, e) for s, e in plans),
                }
            )
        ctx = Context(cli_main, load_scenario, ref, scratch, inputs, speed, setup)
        measure = end_to_end if args.trace == 0 else per_layer
        metrics = measure(work, args, ctx)
    finally:
        speed.close()
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            out_root.rmdir()
        except OSError:
            pass
    tally = ctx.tally
    print(
        json.dumps(
            {
                "correct": tally.wrong == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": metrics,
            }
        ),
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
