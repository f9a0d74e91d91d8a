"""Command line: scenario configs, artifacts, exit codes, determinism.

Commands run in-process through main(argv).  Each test builds its own
scenario file under tmp_path, so artifact directories never collide.
"""

from __future__ import annotations

import json
import warnings

import numpy as np
import pytest

import riemplan.index
from riemplan import ResolutionWarning, parse_manifold
from riemplan.cli import main, read_trajectory_csv, write_trajectory_csv
from riemplan.potentials import ZeroPotential

FLAT = {
    "manifold": "euclidean:2",
    "potential": {"type": "gaussian", "center": [0.5, 0.25], "A": 1.0, "sigma": 0.4},
    "boundary": {
        "q_a": [0.0, 0.0],
        "v_a": [0.3, -0.2],
        "q_b": [1.0, 0.5],
        "v_b": [-0.1, 0.4],
    },
    "interval": [0.0, 1.0],
    "step": 0.0025,
    "verify": {"basis": 24},
    "oracle": {"nodes": 96},
}

# rest state on a potential bump held long enough to lose local optimality
WELL_TOP = {
    "manifold": "euclidean:1",
    "potential": {"type": "gaussian", "center": [0.0], "A": 1.0, "sigma": 1.0},
    "boundary": {"q_a": [0.0], "v_a": [0.0], "q_b": [0.0], "v_b": [0.0]},
    "interval": [0.0, 6.0],
    "step": 0.01,
    "verify": {"basis": 24},
}


WARP = "exp(2*(0.1*x0**3 + 0.05*x1**3))"

# a conformally warped plane, not locally symmetric: verify needs nabla R
WARPED = {
    "potential": {"type": "gaussian", "center": [0.3, 0.1], "A": 0.8, "sigma": 0.5, "distance": "chart"},
    "boundary": {
        "q_a": [0.1, -0.2],
        "v_a": [0.6, 0.4],
        "q_b": [0.35, 0.0],
        "v_b": [0.6, 0.5],
    },
    "interval": [0.0, 0.4],
    "step": 0.01,
    "verify": {"basis": 12},
}


def write_cfg(tmp_path, base=FLAT, name="scenario.json", **over):
    cfg = {**base, **over}
    cfg.setdefault("out", str(tmp_path / "out"))
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return p


def test_plan_writes_artifacts(tmp_path):
    cfg = write_cfg(tmp_path)
    assert main(["plan", "--config", str(cfg)]) == 0
    out = tmp_path / "out"
    data = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1)
    assert data.shape == (401, 9)
    payload = json.loads((out / "solve.json").read_text())
    assert payload["residual"] < 1e-7
    assert payload["action"] > 0.0
    assert payload["boundary"]["interval"] == [0.0, 1.0]


def test_plan_outputs_are_byte_deterministic(tmp_path):
    cfg = write_cfg(tmp_path)
    assert main(["plan", "--config", str(cfg), "--out", str(tmp_path / "d1")]) == 0
    assert main(["plan", "--config", str(cfg), "--out", str(tmp_path / "d2")]) == 0
    for name in ("trajectory.csv", "solve.json"):
        b1 = (tmp_path / "d1" / name).read_bytes()
        b2 = (tmp_path / "d2" / name).read_bytes()
        assert b1 == b2


def test_plan_step_override(tmp_path):
    cfg = write_cfg(tmp_path)
    assert main(["plan", "--config", str(cfg), "--step", "0.005"]) == 0
    data = np.loadtxt(tmp_path / "out" / "trajectory.csv", delimiter=",", skiprows=1)
    assert data.shape[0] == 201


def test_plan_records_step_control(tmp_path):
    # a fixed step records no estimate; without one the solver picks the grid
    fixed = write_cfg(tmp_path, name="fixed.json", out=str(tmp_path / "fixed"))
    free = {k: v for k, v in FLAT.items() if k != "step"}
    chosen = write_cfg(tmp_path, base=free, name="chosen.json", out=str(tmp_path / "chosen"))
    assert main(["plan", "--config", str(fixed)]) == 0
    assert main(["plan", "--config", str(chosen)]) == 0
    got = json.loads((tmp_path / "fixed" / "solve.json").read_text())["step_control"]
    # Newton converges on the coarse grid in two iterations, then finishes on 400 steps
    assert got == {"steps": 400, "coarse_iterations": 2, "estimate": None, "tol": None}
    got = json.loads((tmp_path / "chosen" / "solve.json").read_text())["step_control"]
    data = np.loadtxt(tmp_path / "chosen" / "trajectory.csv", delimiter=",", skiprows=1)
    assert data.shape[0] == got["steps"] + 1
    assert 0.0 <= got["estimate"] <= got["tol"]


def test_trajectory_csv_round_trip(tmp_path):
    cfg = write_cfg(tmp_path)
    assert main(["plan", "--config", str(cfg)]) == 0
    chart = parse_manifold("euclidean:2")
    traj = read_trajectory_csv(
        tmp_path / "out" / "trajectory.csv", chart, ZeroPotential(chart)
    )
    back = tmp_path / "back.csv"
    write_trajectory_csv(back, traj)
    assert back.read_bytes() == (tmp_path / "out" / "trajectory.csv").read_bytes()


def test_verify_flat_is_candidate(tmp_path):
    cfg = write_cfg(tmp_path)
    assert main(["verify", "--config", str(cfg)]) == 0
    payload = json.loads((tmp_path / "out" / "verdict.json").read_text())
    assert payload["classification"] == "candidate"
    assert payload["galerkin"]["verdict"] == "positive_definite"
    assert payload["rank_drops"]["points"] == []
    assert payload["uniqueness"]["pass"] is True
    assert payload["warnings"] == []


def test_verify_records_scan_warnings(tmp_path, monkeypatch):
    scan = riemplan.index.biconjugate_scan

    def coarse_scan(*args, **kwargs):
        warnings.warn("scan grid too coarse", ResolutionWarning)
        return scan(*args, **kwargs)

    monkeypatch.setattr(riemplan.index, "biconjugate_scan", coarse_scan)
    cfg = write_cfg(tmp_path)
    # still issued, and recorded in the artifact
    with pytest.warns(ResolutionWarning, match="too coarse"):
        assert main(["verify", "--config", str(cfg)]) == 0
    payload = json.loads((tmp_path / "out" / "verdict.json").read_text())
    assert payload["warnings"] == ["ResolutionWarning: scan grid too coarse"]
    assert payload["classification"] == "candidate"


def test_verify_accepts_stored_trajectory(tmp_path):
    cfg = write_cfg(tmp_path)
    assert main(["plan", "--config", str(cfg)]) == 0
    csv = tmp_path / "out" / "trajectory.csv"
    rc = main(["verify", "--config", str(cfg), "--trajectory", str(csv)])
    assert rc == 0
    payload = json.loads((tmp_path / "out" / "verdict.json").read_text())
    assert payload["classification"] == "candidate"


def test_numeric_chart_plan_and_verify(tmp_path):
    metric = tmp_path / "warped.json"
    metric.write_text(json.dumps({"dim": 2, "metric": [[WARP, "0"], ["0", WARP]], "domain_radius": 2}))
    cfg = write_cfg(tmp_path, base={**FLAT, **WARPED}, manifold=f"numeric:{metric}")
    assert main(["plan", "--config", str(cfg)]) == 0
    csv = tmp_path / "out" / "trajectory.csv"
    assert main(["verify", "--config", str(cfg), "--trajectory", str(csv)]) == 0
    payload = json.loads((tmp_path / "out" / "verdict.json").read_text())
    assert payload["classification"] == "candidate"
    assert payload["uniqueness"]["pass"] is True


@pytest.mark.parametrize("column", [0, 1], ids=["t", "q0"])
def test_verify_rejects_nonfinite_trajectory(tmp_path, capsys, column):
    cfg = write_cfg(tmp_path, potential=None)
    assert main(["plan", "--config", str(cfg)]) == 0
    lines = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()
    row = lines[5].split(",")
    row[column] = "nan"
    lines[5] = ",".join(row)
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    assert main(["verify", "--config", str(cfg), "--trajectory", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "nonfinite" in err and "bad.csv" in err


def test_verify_rejects_off_chart_trajectory(tmp_path, capsys):
    # the flat plan ends at (1, 0.5), outside the Poincare disk
    cfg = write_cfg(tmp_path, potential=None)
    assert main(["plan", "--config", str(cfg)]) == 0
    disk = write_cfg(
        tmp_path,
        name="disk.json",
        manifold="hyperbolic2",
        potential=None,
        boundary={"q_a": [0.0, 0.0], "v_a": [0.3, -0.2], "q_b": [0.5, 0.25], "v_b": [-0.1, 0.4]},
    )
    csv = tmp_path / "out" / "trajectory.csv"
    assert main(["verify", "--config", str(disk), "--trajectory", str(csv)]) == 3
    err = capsys.readouterr().err
    assert "chart domain" in err and "trajectory.csv" in err


def test_verify_records_its_grid(tmp_path):
    cfg = write_cfg(tmp_path, base=WELL_TOP)
    assert main(["verify", "--config", str(cfg)]) == 4
    grid = json.loads((tmp_path / "out" / "verdict.json").read_text())["grid"]
    # 600 steps of 0.01; six Gauss points on each of the 23 knot spans of 24 profiles
    assert grid == {"segments": 600, "h": pytest.approx(0.01, rel=1e-12), "galerkin_points": 138}


def test_verify_not_local_exits_4(tmp_path):
    cfg = write_cfg(tmp_path, base=WELL_TOP)
    assert main(["verify", "--config", str(cfg)]) == 4
    payload = json.loads((tmp_path / "out" / "verdict.json").read_text())
    assert payload["classification"] == "not_omega_local"
    assert "uniqueness" not in payload


def test_scan_finds_rank_drop_pair(tmp_path):
    cfg = write_cfg(tmp_path, base=WELL_TOP)
    assert main(["scan", "--config", str(cfg)]) == 0
    payload = json.loads((tmp_path / "out" / "biconjugate.json").read_text())
    assert payload["t1"] == 0.0
    times = [pt["t2"] for pt in payload["points"]]
    assert times and abs(times[0] - 4.7300407) < 5e-3


def test_scan_flat_empty_with_t1_flag(tmp_path):
    cfg = write_cfg(tmp_path, potential=None)
    assert main(["scan", "--config", str(cfg), "--t1", "0.25"]) == 0
    payload = json.loads((tmp_path / "out" / "biconjugate.json").read_text())
    assert payload["t1"] == 0.25
    assert payload["points"] == []


@pytest.mark.parametrize("flag, verify", [("0", {}), ("-3", {}), (None, {"grid": 0})])
def test_scan_rejects_nonpositive_grid(tmp_path, capsys, flag, verify):
    cfg = write_cfg(tmp_path, potential=None, verify=verify)
    argv = ["scan", "--config", str(cfg)] + (["--grid", flag] if flag else [])
    assert main(argv) == 1
    assert "positive sample count" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["abc", 0, -2, 2.5])
@pytest.mark.parametrize("command, key", [("scan", "grid"), ("verify", "basis")])
def test_verify_options_must_be_counts(tmp_path, capsys, command, key, value):
    # a configuration error (exit 1) naming the key, before any planning
    cfg = write_cfg(tmp_path, potential=None, verify={key: value})
    assert main([command, "--config", str(cfg)]) == 1
    assert f"error: verify.{key} must be" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, over, flags, key",
    [
        ("plan", {"solver": {"max_iter": -1}}, [], "solver.max_iter"),
        ("plan", {"solver": {"max_iter": "abc"}}, [], "solver.max_iter"),
        ("plan", {"solver": {"multi_seed": True, "seeds": 0}}, [], "solver.seeds"),
        ("plan", {"solver": {"multi_seed": True, "spread": -1.0}}, [], "solver.spread"),
        ("plan", {"solver": {"multi_seed": True, "spread": "nan"}}, [], "solver.spread"),
        ("oracle-compare", {"oracle": {"nodes": 5}}, [], "oracle.nodes"),
        ("oracle-compare", {}, ["--nodes", "3"], "--nodes"),
        ("oracle-compare", {"oracle": {"gtol": 0}}, [], "oracle.gtol"),
        ("oracle-compare", {"oracle": {"gtol": "inf"}}, [], "oracle.gtol"),
        ("oracle-compare", {"oracle": {"method": "bfgs"}}, [], "oracle.method"),
        ("sweep", {"sweep": {"lambdas": [0.0, "abc"]}}, [], "sweep.lambdas[1]"),
        ("sweep", {"sweep": {"lambdas": [0.5, 1.0]}}, [], "sweep.lambdas"),
        ("sweep", {"sweep": {"lambdas": []}}, [], "sweep.lambdas"),
        ("sweep", {}, ["--lambdas", "0,x"], "--lambdas[1]"),
        ("sweep", {}, ["--lambdas", "1,2"], "--lambdas"),
        ("sweep", {}, ["--lambdas", ","], "--lambdas"),
    ],
)
def test_command_options_are_validated(tmp_path, capsys, command, over, flags, key):
    # a configuration error (exit 1) naming the option, before any work
    cfg = write_cfg(tmp_path, **over)
    assert main([command, "--config", str(cfg), *flags]) == 1
    assert f"error: {key} must " in capsys.readouterr().err


def test_verify_on_a_grid_too_short_for_probes(tmp_path):
    # 4 segments leave no room for a sub-window or an interior jet: the
    # uniqueness block is inconclusive and empty, and verify still succeeds
    cfg = write_cfg(tmp_path, potential=None, step=0.25, verify={"basis": 4})
    assert main(["verify", "--config", str(cfg)]) == 0
    payload = json.loads((tmp_path / "out" / "verdict.json").read_text())
    assert payload["classification"] == "candidate"
    uniqueness = payload["uniqueness"]
    assert uniqueness["conclusive"] is False and uniqueness["pass"] is False
    assert uniqueness["restriction_probes"] == []


def test_verify_basis_needs_two_profiles(tmp_path, capsys):
    cfg = write_cfg(tmp_path, potential=None, verify={"basis": 1})
    assert main(["verify", "--config", str(cfg)]) == 1
    assert "at least 2 spline profiles" in capsys.readouterr().err


def test_sweep_rows_match_grid(tmp_path):
    cfg = write_cfg(tmp_path)
    assert main(["sweep", "--config", str(cfg), "--lambdas", "0,0.5,1"]) == 0
    data = np.loadtxt(tmp_path / "out" / "sweep.csv", delimiter=",", skiprows=1)
    assert data.shape == (3, 7)
    assert np.all(np.diff(data[:, 5]) >= 0.0)  # action grows with the obstacle
    assert np.max(data[:, 6]) < 1e-7


def test_single_lambda_sweep_matches_plan(tmp_path):
    cfg = write_cfg(tmp_path)
    assert main(["sweep", "--config", str(cfg), "--lambdas", "0"]) == 0
    row = np.loadtxt(tmp_path / "out" / "sweep.csv", delimiter=",", skiprows=1)
    zero = write_cfg(tmp_path, name="zero.json", potential=None,
                     out=str(tmp_path / "zero_out"))
    assert main(["plan", "--config", str(zero)]) == 0
    payload = json.loads((tmp_path / "zero_out" / "solve.json").read_text())
    assert abs(row[5] - payload["action"]) < 1e-9
    assert np.max(np.abs(row[1:3] - payload["y"])) < 1e-9


def test_oracle_compare_agreement(tmp_path):
    cfg = write_cfg(tmp_path)
    assert main(["oracle-compare", "--config", str(cfg)]) == 0
    payload = json.loads((tmp_path / "out" / "compare.json").read_text())
    assert payload["nodes"] == 97
    assert payload["sup_distance"] < 5e-3
    assert payload["action_gap"] < 1e-3 * (1.0 + abs(payload["action_quadrature"]))
    assert payload["grad_sup"] <= 1e-7


def test_unknown_scenario_key_exits_1(tmp_path, capsys):
    cfg = write_cfg(tmp_path, typo="oops")
    assert main(["plan", "--config", str(cfg)]) == 1
    assert "unknown scenario keys: typo" in capsys.readouterr().err


def test_bad_json_reports_line_and_column(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text('{\n  "manifold": euclidean:2\n}\n')
    assert main(["plan", "--config", str(p)]) == 1
    err = capsys.readouterr().err
    assert "broken.json:2:15: invalid JSON" in err


def test_missing_trajectory_file_exits_1(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    rc = main(["verify", "--config", str(cfg), "--trajectory",
               str(tmp_path / "nope.csv")])
    assert rc == 1
    assert "cannot read trajectory" in capsys.readouterr().err


def test_domain_violation_exits_3(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        manifold="sphere2",
        potential=None,
        boundary={"q_a": [0.0, 0.0], "v_a": [0.1, 0.0],
                  "q_b": [6.0, 0.0], "v_b": [0.0, 0.0]},
    )
    assert main(["plan", "--config", str(cfg)]) == 3
    assert "chart domain" in capsys.readouterr().err


def test_solver_failure_exits_2(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        potential={"type": "gaussian", "center": [0.5, 0.25], "A": 3.0,
                   "sigma": 0.25},
        solver={"max_iter": 1},
    )
    assert main(["plan", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("error:")
