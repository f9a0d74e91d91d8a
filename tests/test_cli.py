"""Command line: scenario configs, artifacts, exit codes, determinism.

Commands run in-process through main(argv).  Each test builds its own
scenario file under tmp_path, so artifact directories never collide.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import riemplan.bvp
import riemplan.cli
import riemplan.index
from conftest import PANEL, SCENARIOS
from riemplan import GaussianObstacle, QuadraticWell, ResolutionWarning, Trajectory, parse_manifold
from riemplan.cli import build_parser, main, read_trajectory_csv, write_trajectory_csv
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


def test_parser_is_built_once_and_survives_a_parse_error(tmp_path, capsys):
    assert build_parser() is build_parser()
    cfg = write_cfg(tmp_path)
    assert main(["plan", "--config", str(cfg), "--out", str(tmp_path / "d1")]) == 0
    with pytest.raises(SystemExit) as exc:
        main(["plan", "--config", str(cfg), "--no-such-flag"])
    assert exc.value.code == 2
    assert "--no-such-flag" in capsys.readouterr().err
    assert main(["plan", "--config", str(cfg), "--out", str(tmp_path / "d2")]) == 0
    assert (tmp_path / "d1" / "solve.json").read_bytes() == (tmp_path / "d2" / "solve.json").read_bytes()


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
    # Newton runs on the 400 steps alone, where the fields march too
    assert got == {
        "steps": 400, "coarse_iterations": 0, "estimate": None, "field_steps": 400, "field_estimate": None, "tol": None
    }
    got = json.loads((tmp_path / "chosen" / "solve.json").read_text())["step_control"]
    data = np.loadtxt(tmp_path / "chosen" / "trajectory.csv", delimiter=",", skiprows=1)
    assert data.shape[0] == got["steps"] + 1
    assert 0.0 <= got["estimate"] <= got["tol"]
    assert 0.0 <= got["field_estimate"] <= got["tol"]
    assert got["field_steps"] % got["steps"] == 0


def panel_config(name):
    """The scenario file of a conftest panel entry, its step left to error control."""
    man, factory, q_a, v_a, q_b, v_b, interval = SCENARIOS[name]
    pot = factory(parse_manifold(man))
    if isinstance(pot, GaussianObstacle):
        spec = {"type": "gaussian", "center": pot.center.tolist(), "A": pot.amplitude, "sigma": pot.width}
    elif isinstance(pot, QuadraticWell):
        spec = {"type": "quadratic", "center": pot.center.tolist(), "k": pot.stiffness}
    else:
        spec = {"type": "zero"}
    bd = {"q_a": list(q_a), "v_a": list(v_a), "q_b": list(q_b), "v_b": list(v_b)}
    return {"manifold": man, "potential": spec, "boundary": bd, "interval": list(interval)}


@pytest.mark.parametrize("name", PANEL)
def test_panel_plans_meet_their_tolerance(tmp_path, name):
    cfg = write_cfg(tmp_path, base=panel_config(name))
    assert main(["plan", "--config", str(cfg)]) == 0
    assert json.loads((tmp_path / "out" / "solve.json").read_text())["warnings"] == []


def rest_to_rest(manifold, center, sigma, q_a, q_b, T):
    """From rest at q_a to rest at q_b over [0, T] across a Gaussian of height 1."""
    zero = [0.0] * len(q_a)
    return {
        "manifold": manifold,
        "potential": {"type": "gaussian", "center": center, "A": 1.0, "sigma": sigma},
        "boundary": {"q_a": q_a, "v_a": zero, "q_b": q_b, "v_b": zero},
        "interval": [0.0, T],
    }


# (scenario, verify's classification).  Marched as one row from the
# Hermite seed, each curve leaves the chart before Newton starts
LONG_WINDOWS = {
    "sphere2-T4": (rest_to_rest("sphere2", [0.3, 0.2], 1.0, [0.6, 0.3], [0.0, 0.1], 4.0), "candidate"),
    "sphere2-T6": (rest_to_rest("sphere2", [0.3, 0.2], 1.0, [0.6, 0.3], [0.0, 0.1], 6.0), "not_omega_local"),
    "hyperbolic2-T6": (
        rest_to_rest("hyperbolic2", [0.1, 0.0], 0.5, [-0.4, 0.1], [0.45, -0.1], 6.0), "not_omega_local"
    ),
    "so3-T6": (rest_to_rest("so3", [0.2, 0.1, 0.0], 1.0, [0.6, 0.3, -0.1], [-0.2, 0.0, 0.1], 6.0), "not_omega_local"),
}


@pytest.mark.parametrize("name", sorted(LONG_WINDOWS))
def test_long_windows_plan(tmp_path, name):
    # the curve marches as 16-step segments from jets at each breakpoint,
    # so no trial marches the whole window from its start
    base, classification = LONG_WINDOWS[name]
    cfg = write_cfg(tmp_path, base=base)
    assert main(["plan", "--config", str(cfg)]) == 0
    solve = json.loads((tmp_path / "out" / "solve.json").read_text())
    steps = solve["step_control"]["steps"]
    assert solve["segments"] == -(-steps // riemplan.bvp._SEGMENT_STEPS) > 1
    assert solve["max_jump"] <= solve["residual"] and solve["warnings"] == []
    code = main(["verify", "--config", str(cfg), "--trajectory", str(tmp_path / "out" / "trajectory.csv")])
    verdict = json.loads((tmp_path / "out" / "verdict.json").read_text())
    assert verdict["classification"] == classification
    assert code == (0 if classification == "candidate" else 4)
    if classification == "candidate":
        assert verdict["uniqueness"]["pass"]


def test_plan_warns_when_error_control_misses_its_tolerance(tmp_path, monkeypatch, capsys):
    """Capped at 64 steps, sphere_obstacle's curve and fields miss 1e-9: the
    plan still exits 0, and solve.json and stderr carry the misses."""
    monkeypatch.setattr(riemplan.bvp, "_MAX_STEPS", 64)
    cfg = write_cfg(tmp_path, base=panel_config("sphere_obstacle"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for out in ("d1", "d2"):
            assert main(["plan", "--config", str(cfg), "--out", str(tmp_path / out)]) == 0
    payload = json.loads((tmp_path / "d1" / "solve.json").read_text())
    assert payload["step_control"]["estimate"] > payload["step_control"]["tol"]
    assert payload["warnings"] and all(w.startswith("ResolutionWarning: the ") for w in payload["warnings"])
    err = capsys.readouterr().err
    assert all(f"warning: {w}" in err for w in payload["warnings"])
    assert (tmp_path / "d1" / "solve.json").read_bytes() == (tmp_path / "d2" / "solve.json").read_bytes()


def test_multi_seed_solutions_carry_their_warnings(tmp_path, monkeypatch):
    monkeypatch.setattr(riemplan.bvp, "_MAX_STEPS", 64)
    free = {k: v for k, v in FLAT.items() if k != "step"}
    cfg = write_cfg(tmp_path, base=free, solver={"multi_seed": True, "seeds": 2})
    assert main(["plan", "--config", str(cfg)]) == 0
    payload = json.loads((tmp_path / "out" / "solve.json").read_text())
    assert payload["warnings"] and payload["solutions"][0]["warnings"] == payload["warnings"]


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


def test_verify_records_its_plans_warnings(tmp_path, monkeypatch, capsys):
    """Capped at 64 steps, sphere_obstacle's plan misses 1e-9: a verify that
    plans lists the misses in verdict.json and prints each once, while a
    verify of the stored plan has nothing to record."""
    monkeypatch.setattr(riemplan.bvp, "_MAX_STEPS", 64)
    cfg = write_cfg(tmp_path, base=panel_config("sphere_obstacle"))
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResolutionWarning)
        assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "v")]) == 0
    notes = json.loads((tmp_path / "v" / "verdict.json").read_text())["warnings"]
    assert any(w.startswith("ResolutionWarning: the Jacobian's estimate") for w in notes)
    err = capsys.readouterr().err
    assert all(err.count(f"warning: {w}") == 1 for w in notes)
    assert main(["plan", "--config", str(cfg), "--out", str(tmp_path / "p")]) == 0
    csv = str(tmp_path / "p" / "trajectory.csv")
    assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "t"), "--trajectory", csv]) == 0
    stored = json.loads((tmp_path / "t" / "verdict.json").read_text())
    assert stored["warnings"] == []
    assert stored["classification"] == json.loads((tmp_path / "v" / "verdict.json").read_text())["classification"]


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


@pytest.mark.parametrize("command", ["verify", "scan", "oracle-compare"])
def test_stored_trajectory_needs_an_even_grid(tmp_path, capsys, command):
    # the flat_obstacle plan resampled onto 81 segments: a config error,
    # not a crash in the half-grid march
    cfg = write_cfg(tmp_path)
    assert main(["plan", "--config", str(cfg)]) == 0
    csv = tmp_path / "out" / "trajectory.csv"
    chart = parse_manifold("euclidean:2")
    traj = read_trajectory_csv(csv, chart, ZeroPotential(chart))
    s = traj.interpolate(np.linspace(0.0, 1.0, 82))
    odd = tmp_path / "odd.csv"
    write_trajectory_csv(odd, Trajectory(chart, traj.potential, s.t, s.q, s.v, s.a, s.j))
    cfg = write_cfg(tmp_path, name="nostep.json", step=None)
    assert main([command, "--config", str(cfg), "--trajectory", str(odd)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "81 segments" in err and "odd.csv" in err


@pytest.mark.parametrize("command", ["verify", "scan"])
def test_stored_trajectory_must_cover_the_interval(tmp_path, capsys, command):
    # a [0, 1] trajectory is not a solution on [0, 2], and t1 = 1.5 lies outside it
    cfg = write_cfg(tmp_path, potential=None)
    assert main(["plan", "--config", str(cfg)]) == 0
    longer = write_cfg(tmp_path, name="long.json", potential=None, interval=[0.0, 2.0])
    csv = tmp_path / "out" / "trajectory.csv"
    argv = [command, "--config", str(longer), "--trajectory", str(csv)]
    assert main(argv + (["--t1", "1.5"] if command == "scan" else [])) == 1
    assert "not the scenario interval [0, 2]" in capsys.readouterr().err


def test_verify_records_its_grid(tmp_path):
    cfg = write_cfg(tmp_path, base=WELL_TOP)
    assert main(["verify", "--config", str(cfg)]) == 4
    grid = json.loads((tmp_path / "out" / "verdict.json").read_text())["grid"]
    # 600 steps of 0.01, where the fields march too; six Gauss points on
    # each of the 23 knot spans of 24 profiles
    assert grid == {"segments": 600, "h": pytest.approx(0.01, rel=1e-12), "field_steps": 600, "galerkin_points": 138}


def test_stored_trajectory_verifies_on_its_planned_field_grid(tmp_path):
    # without a step, verify derives the field grid from the stored nodes
    # by the rule its plan used, so the CSV's bits give the plan's grid,
    # and the scan on it finds the clamped-beam roots
    long_top = {k: v for k, v in WELL_TOP.items() if k != "step"}
    cfg = write_cfg(tmp_path, base=long_top, interval=[0.0, 12.0])
    assert main(["plan", "--config", str(cfg)]) == 0
    out = tmp_path / "out"
    planned = json.loads((out / "solve.json").read_text())["step_control"]
    assert planned["field_steps"] > planned["steps"]
    assert main(["verify", "--config", str(cfg), "--trajectory", str(out / "trajectory.csv")]) == 4
    payload = json.loads((out / "verdict.json").read_text())
    assert payload["grid"]["segments"] == planned["steps"]
    assert payload["grid"]["field_steps"] == planned["field_steps"]
    times = [p["t2"] for p in payload["rank_drops"]["points"]]
    beam_roots = (4.730040744863, 7.853204624096, 10.995607838003)
    assert len(times) == 3 and all(abs(t - r) < 1e-5 for t, r in zip(times, beam_roots))


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


def test_scan_t1_flag_reports_only_later_pairs(tmp_path):
    # the pair (1.27, 6) ends at t1 = 6; only (6, 10.73) starts there
    cfg = write_cfg(tmp_path, base={k: v for k, v in WELL_TOP.items() if k != "step"}, interval=[0.0, 12.0])
    assert main(["scan", "--config", str(cfg), "--t1", "6"]) == 0
    payload = json.loads((tmp_path / "out" / "biconjugate.json").read_text())
    times = [pt["t2"] for pt in payload["points"]]
    assert len(times) == 1 and abs(times[0] - (6.0 + 4.730040744863)) < 1e-5


def test_scan_records_its_warnings(tmp_path, monkeypatch):
    scan = riemplan.cli.biconjugate_scan

    def coarse_scan(*args, **kwargs):
        warnings.warn("scan grid too coarse", ResolutionWarning)
        return scan(*args, **kwargs)

    monkeypatch.setattr(riemplan.cli, "biconjugate_scan", coarse_scan)
    cfg = write_cfg(tmp_path, base=WELL_TOP)
    # still issued, and recorded in the artifact beside the scan's points
    with pytest.warns(ResolutionWarning, match="too coarse"):
        assert main(["scan", "--config", str(cfg)]) == 0
    payload = json.loads((tmp_path / "out" / "biconjugate.json").read_text())
    assert payload["warnings"] == ["ResolutionWarning: scan grid too coarse"]
    assert payload["points"]


def test_scan_records_its_plans_warnings(tmp_path, monkeypatch, capsys):
    """Capped at 64 steps, sphere_obstacle's plan misses 1e-9: a scan that
    plans lists the misses in biconjugate.json and prints each once."""
    monkeypatch.setattr(riemplan.bvp, "_MAX_STEPS", 64)
    cfg = write_cfg(tmp_path, base=panel_config("sphere_obstacle"))
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResolutionWarning)
        assert main(["scan", "--config", str(cfg)]) == 0
    notes = json.loads((tmp_path / "out" / "biconjugate.json").read_text())["warnings"]
    assert any(w.startswith("ResolutionWarning: the Jacobian's estimate") for w in notes)
    err = capsys.readouterr().err
    assert all(err.count(f"warning: {w}") == 1 for w in notes)


@pytest.mark.parametrize("name", PANEL)
def test_panel_scans_record_no_warnings(tmp_path, name):
    # the one key scan gains is its (empty) warnings list
    cfg = write_cfg(tmp_path, base=panel_config(name))
    assert main(["scan", "--config", str(cfg)]) == 0
    payload = json.loads((tmp_path / "out" / "biconjugate.json").read_text())
    assert sorted(payload) == ["points", "resolution", "t1", "warnings"]
    assert payload["warnings"] == []


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
        ("plan", {"potential": {**FLAT["potential"], "A": "x"}}, [], "potential.A"),
        ("plan", {"potential": {**FLAT["potential"], "A": float("nan")}}, [], "potential.A"),
        ("plan", {"potential": {**FLAT["potential"], "sigma": float("inf")}}, [], "potential.sigma"),
        ("plan", {"potential": {**FLAT["potential"], "center": "ab"}}, [], "potential.center"),
        ("plan", {"potential": {"type": "quadratic", "k": "soft"}}, [], "potential.k"),
        (
            "plan",
            {"potential": {"type": "sum", "terms": [{"type": "zero"}, {**FLAT["potential"], "sigma": 0}]}},
            [],
            "potential.terms[1].sigma",
        ),
        ("scan", {}, ["--t1", "5"], "--t1"),
        ("scan", {}, ["--t1", "-3"], "--t1"),
        ("scan", {"verify": {"t1": 1.5}}, [], "verify.t1"),
        # a misspelt key in each option block
        ("oracle-compare", {"oracle": {"node": 96}}, [], "oracle.node"),
        ("plan", {"solver": {"maxiter": 5}}, [], "solver.maxiter"),
        ("scan", {"verify": {"gird": 10}}, [], "verify.gird"),
        ("sweep", {"sweep": {"lambda": [0.0, 1.0]}}, [], "sweep.lambda"),
        # solver.multi_seed is a JSON boolean, not read by truthiness
        ("plan", {"solver": {"multi_seed": "false"}}, [], "solver.multi_seed"),
        ("plan", {"solver": {"multi_seed": 1}}, [], "solver.multi_seed"),
        # a count past 2**20 is refused before the oracle allocates its nodes
        ("oracle-compare", {"oracle": {"nodes": 2**70}}, [], "oracle.nodes"),
        ("oracle-compare", {"oracle": {"nodes": 2**20 + 1}}, [], "oracle.nodes"),
        ("oracle-compare", {}, ["--nodes", str(2**70)], "--nodes"),
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


def test_plan_and_verify_never_import_scipy(tmp_path):
    """A fresh interpreter plans and verifies without loading scipy; only
    oracle-compare's banded Cholesky brings in scipy.linalg."""
    cfg = str(write_cfg(tmp_path))
    csv = str(tmp_path / "out" / "trajectory.csv")
    code = f"""
import sys
from riemplan.cli import main
assert main(["plan", "--config", {cfg!r}]) == 0
assert main(["verify", "--config", {cfg!r}, "--trajectory", {csv!r}]) == 0
assert "scipy" not in sys.modules, sorted(m for m in sys.modules if m.startswith("scipy"))
assert main(["oracle-compare", "--config", {cfg!r}, "--nodes", "40"]) == 0
assert "scipy.linalg" in sys.modules
assert "scipy.interpolate" not in sys.modules
"""
    src = str(Path(riemplan.index.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr


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


def test_multi_seed_scan_honours_max_iter(tmp_path, capsys):
    # the scan's first seed is solve_bvp's Hermite seed: one Newton
    # iteration is as short of a solution here as in the single solve
    cfg = write_cfg(
        tmp_path,
        potential={"type": "gaussian", "center": [0.5, 0.25], "A": 3.0,
                   "sigma": 0.25},
        solver={"max_iter": 1, "multi_seed": True, "seeds": 1},
    )
    assert main(["plan", "--config", str(cfg)]) == 2
    assert "no seed of the multi-seed scan converged" in capsys.readouterr().err
