"""Scenario-driven command line: plan, verify, scan, sweep, oracle-compare.

Every command loads one scenario file, runs its pipeline, and writes plain
data artifacts (CSV/JSON) into the scenario's output directory.  Outputs
are byte-deterministic for a fixed scenario and seed: keys are sorted,
floats are written with fixed formats, and every random draw flows from
the scenario seed.

Exit codes: 0 success (or verdict "candidate"), 1 configuration problems,
2 solver nonconvergence or numerical failure, 3 chart-domain violations,
4 verified "not a local minimizer".
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import warnings
from pathlib import Path

import numpy as np

from .bvp import check_uniqueness_props, continuation_sweep, field_grid, multi_seed_scan, solve_bvp
from .config import load_scenario
from .dynamics import Trajectory, action
from .errors import (
    ChartDomainError,
    ConfigError,
    InjectivityError,
    NonconvergenceError,
    PlannerError,
    ResolutionWarning,
    _recorded_warnings,
)
from .index import verdict
from .jacobi import biconjugate_scan
from .oracle import compare_with_trajectory, minimize_discrete
from .potentials import ScaledPotential

__all__ = ["main"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_SOLVER = 2
EXIT_DOMAIN = 3
EXIT_NOT_LOCAL = 4


# -- artifact writers ---------------------------------------------------


def _write_json(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def write_trajectory_csv(path: Path, trajectory: Trajectory) -> None:
    n = trajectory.qs.shape[1]
    cols = ["t"]
    for tag in ("q", "v", "a", "j"):
        cols += [f"{tag}{i}" for i in range(n)]
    data = np.column_stack(
        [trajectory.ts, trajectory.qs, trajectory.vs, trajectory.accs, trajectory.jerks]
    )
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savetxt(path, data, fmt="%.17g", delimiter=",", header=",".join(cols), comments="")


def read_trajectory_csv(path: Path, chart, potential) -> Trajectory:
    try:
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except OSError as exc:
        raise ConfigError(f"cannot read trajectory {path}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"malformed trajectory CSV {path}: {exc}") from exc
    n = chart.dim
    if data.shape[1] != 1 + 4 * n or data.shape[0] < 3:
        raise ConfigError(
            f"trajectory CSV {path} has shape {data.shape}, expected"
            f" at least 3 rows of {1 + 4 * n} columns for dimension {n}"
        )
    if not np.all(np.isfinite(data)):
        raise ConfigError(f"trajectory CSV {path} has nonfinite entries")
    chart.check_point(data[:, 1 : 1 + n], f"a position of trajectory CSV {path}")
    ts = data[:, 0]
    steps = np.diff(ts)
    if steps.min() <= 0 or np.ptp(steps) > 1e-9 * max(steps.max(), 1.0):
        raise ConfigError(f"trajectory CSV {path} is not on a uniform increasing grid")
    if len(steps) % 2:
        # every grid riemplan writes is even; step doubling halves it
        raise ConfigError(f"trajectory CSV {path} has {len(steps)} segments, expected an even count")
    blocks = [data[:, 1 + k * n : 1 + (k + 1) * n] for k in range(4)]
    return Trajectory(chart, potential, ts, *blocks)


def _solve_payload(result, boundary) -> dict:
    """The solve.json record of one shooting result.

    Keys: ``boundary`` (the problem), ``y`` and ``z`` (the initial
    covariant acceleration and jerk), ``residual``, ``jacobian_condition``,
    ``iterations`` (Newton steps, on every grid), ``action``,
    ``segments``, the multiple-shooting segments the curve was solved in,
    one per 16 steps, and ``max_jump``, the largest jump of the curve's
    jets between them (its v, a and j rows weighted by T, T^2 and T^3, as
    the residual weighs them, so at most ``residual``), and
    ``step_control``: the trajectory's segment count ``steps``;
    ``coarse_iterations``, the share of ``iterations`` Newton took on the
    pilot grid before finishing on ``steps`` (0 with a fixed step, or when
    that stage failed); the step-doubling ``estimate`` of the curve's
    relative error on that grid; ``field_steps``, the steps of the field
    grid the Jacobi fields march on, and its ``field_estimate``, the
    step-doubling estimate of the Jacobian's relative error there; and
    the ``tol`` both estimates were held to.  The estimates and ``tol``
    are null when ``step``/``--step`` fixed the grid, since no grid was
    chosen; ``field_steps`` is then ``steps``.  ``warnings`` lists the
    solve's ResolutionWarnings, an estimate that misses ``tol``, as
    "Category: message", as verdict.json does.
    """
    return {
        "boundary": {
            "q_a": boundary.q_a.tolist(),
            "v_a": boundary.v_a.tolist(),
            "q_b": boundary.q_b.tolist(),
            "v_b": boundary.v_b.tolist(),
            "interval": [boundary.a, boundary.b],
        },
        "y": result.y.tolist(),
        "z": result.z.tolist(),
        "residual": result.residual,
        "jacobian_condition": result.jacobian_condition,
        "iterations": result.iterations,
        "segments": result.segments,
        "max_jump": result.max_jump,
        "action": action(result.trajectory),
        "step_control": {
            "steps": result.steps,
            "coarse_iterations": result.coarse_iterations,
            "estimate": result.estimate,
            "field_steps": result.field_steps,
            "field_estimate": result.field_estimate,
            "tol": result.tol,
        },
        "warnings": _notes(result),
    }


def _notes(result) -> list:
    """A solve's ResolutionWarnings as the artifacts record them, "Category: message"."""
    return [f"{ResolutionWarning.__name__}: {message}" for message in result.warnings]


# -- commands -----------------------------------------------------------


def _plan_trajectory(scenario):
    """Solve the scenario's boundary problem, honoring solver options.

    The solve's ResolutionWarnings are printed once to stderr instead of
    issued; the artifacts record them (``_notes``).
    """
    opts, problem = scenario.solver, (scenario.chart, scenario.potential, scenario.boundary)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ResolutionWarning)
        if opts.get("multi_seed"):
            scan = multi_seed_scan(
                *problem,
                n_seeds=opts.get("seeds", 10),
                rng_seed=scenario.seed,
                spread=opts.get("spread", 1.0),
                h=scenario.step,
                max_iter=opts.get("max_iter", 50),
            )
            if not scan:
                raise NonconvergenceError("no seed of the multi-seed scan converged")
            res = scan[0]
        else:
            res, scan = solve_bvp(*problem, h=scenario.step, max_iter=opts.get("max_iter", 50)), None
    for note in _notes(res):
        print(f"warning: {note}", file=sys.stderr)
    return res, scan


def cmd_plan(scenario, args) -> int:
    res, scan = _plan_trajectory(scenario)
    payload = _solve_payload(res, scenario.boundary)
    if scan is not None:
        payload["solutions"] = [_solve_payload(r, scenario.boundary) for r in scan]
    write_trajectory_csv(scenario.out / "trajectory.csv", res.trajectory)
    _write_json(scenario.out / "solve.json", payload)
    return EXIT_OK


def _obtain_trajectory(scenario, args):
    """The trajectory to work on, stored or planned, and its plan's warnings (``_notes``)."""
    if getattr(args, "trajectory", None):
        traj = read_trajectory_csv(Path(args.trajectory), scenario.chart, scenario.potential)
        a, b = scenario.boundary.a, scenario.boundary.b
        if max(abs(traj.ts[0] - a), abs(traj.ts[-1] - b)) > 1e-9 * traj.h:
            raise ConfigError(
                f"trajectory CSV {args.trajectory} covers [{traj.ts[0]:g}, {traj.ts[-1]:g}],"
                f" not the scenario interval [{a:g}, {b:g}]"
            )
        return traj, []
    res, _ = _plan_trajectory(scenario)
    return res.trajectory, _notes(res)


def _fielded_trajectory(scenario, args):
    """The trajectory to certify, on its field grid.

    A planned one carries the grid its solve chose.  A stored one gets
    the field grid error control derives from its nodes (``field_grid``)
    when the scenario fixes no step, so it certifies on the grid its
    plan chose; with a step its fields march on its own grid.
    """
    traj, notes = _obtain_trajectory(scenario, args)
    if getattr(args, "trajectory", None) and scenario.step is None:
        traj, _ = field_grid(traj)
    return traj, notes


def cmd_verify(scenario, args) -> int:
    traj, notes = _fielded_trajectory(scenario, args)
    report = verdict(traj, m=scenario.verify.get("basis"))
    payload = report.to_dict()
    payload["warnings"] = notes + payload["warnings"]  # the plan's, then the scan's
    if report.classification.startswith("candidate"):
        payload["uniqueness"] = check_uniqueness_props(traj, rng_seed=scenario.seed)
    _write_json(scenario.out / "verdict.json", payload)
    return EXIT_NOT_LOCAL if report.classification == "not_omega_local" else EXIT_OK


def cmd_scan(scenario, args) -> int:
    traj, notes = _fielded_trajectory(scenario, args)
    with _recorded_warnings() as scan_notes:
        report = biconjugate_scan(
            traj, t1=scenario.verify.get("t1"), grid=scenario.verify.get("grid")
        )
    payload = report.to_dict()
    payload["warnings"] = notes + scan_notes  # the plan's, then the scan's
    _write_json(scenario.out / "biconjugate.json", payload)
    return EXIT_OK


def cmd_sweep(scenario, args) -> int:
    lams = scenario.sweep.get("lambdas", [0.0, 0.25, 0.5, 0.75, 1.0])
    base = scenario.potential
    results = continuation_sweep(
        scenario.chart,
        lambda lam: ScaledPotential(base, lam),
        scenario.boundary,
        lams,
        h=scenario.step,
    )
    n = scenario.chart.dim
    cols = ["lambda"]
    cols += [f"y{i}" for i in range(n)]
    cols += [f"z{i}" for i in range(n)]
    cols += ["J", "residual"]
    rows = []
    for lam, res in zip(lams, results):
        rows.append(
            np.concatenate([[lam], res.y, res.z, [action(res.trajectory), res.residual]])
        )
    path = scenario.out / "sweep.csv"
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savetxt(path, np.array(rows), fmt="%.17g", delimiter=",",
               header=",".join(cols), comments="")
    return EXIT_OK


def cmd_oracle_compare(scenario, args) -> int:
    traj, _ = _obtain_trajectory(scenario, args)
    opts = scenario.oracle
    path = minimize_discrete(
        scenario.chart,
        scenario.potential,
        scenario.boundary,
        N=opts.get("nodes", 400),
        gtol=opts.get("gtol", 1e-7),
    )
    payload = compare_with_trajectory(path, traj)
    payload["grad_sup"] = path.grad_sup
    payload["iterations"] = path.iterations
    _write_json(scenario.out / "compare.json", payload)
    return EXIT_OK


_COMMANDS = {
    "plan": cmd_plan,
    "verify": cmd_verify,
    "scan": cmd_scan,
    "sweep": cmd_sweep,
    "oracle-compare": cmd_oracle_compare,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", required=True, help="scenario JSON file")
    shared.add_argument("--out", default=None, help="output directory override")
    shared.add_argument(
        "--step", type=float, default=None,
        help="fixed integrator step; without it (and without a scenario 'step') "
        "the solver chooses the step count by error control",
    )
    shared.add_argument("--seed", type=int, default=None, help="RNG seed override (u64)")

    parser = argparse.ArgumentParser(
        prog="riemplan",
        description="Trajectory planning and local-optimality verification on Riemannian charts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("plan", parents=[shared], help="solve the boundary problem")

    p = sub.add_parser("verify", parents=[shared], help="classify local optimality")
    p.add_argument("--trajectory", default=None, help="existing trajectory.csv to verify")

    p = sub.add_parser("scan", parents=[shared], help="scan for rank-drop pair times")
    p.add_argument("--trajectory", default=None, help="existing trajectory.csv to scan")
    p.add_argument("--t1", type=float, default=None, help="left time of the scanned pairs")
    p.add_argument("--grid", type=int, default=None, help="number of scan samples")

    p = sub.add_parser("sweep", parents=[shared], help="potential-scale continuation sweep")
    p.add_argument("--lambdas", default=None, help="comma-separated scale grid starting at 0")

    p = sub.add_parser("oracle-compare", parents=[shared],
                       help="cross-check the solve against direct discrete minimization")
    p.add_argument("--trajectory", default=None, help="existing trajectory.csv to compare")
    p.add_argument("--nodes", type=int, default=None, help="discrete grid segment count")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        flags = {key: getattr(args, key, None) for key in ("grid", "t1", "nodes", "lambdas")}
        scenario = load_scenario(args.config, step=args.step, seed=args.seed, out=args.out, flags=flags)
        return _COMMANDS[args.command](scenario, args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ChartDomainError, InjectivityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except PlannerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
