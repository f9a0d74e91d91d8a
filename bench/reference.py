"""Regenerate bench/reference.json: fine-grid solutions of every planned scenario.

    python3 bench/reference.py

Each scenario the benchmark plans is solved through ``riemplan plan`` with
a step FINER times smaller than the one the benchmark uses (the scenario's
``step``, else the default T/2000).  The benchmark checks each plan's
(y, z) and action against these values at run.REF_RTOL.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import run

FINER = 8


def main():
    run.bootstrap()
    from riemplan.cli import main as cli_main
    from riemplan.config import load_scenario

    names = sorted(
        {n for w in run.WORKLOADS.values() for n in list(w.get("plan", ())) + list(w.get("inputs", ()))}
    )
    out = {}
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        for name in names:
            cfg = run.SCENARIOS / f"{name}.json"
            sc = load_scenario(cfg)
            step = sc.step if sc.step is not None else sc.boundary.span / 2000.0
            fine = step / FINER
            argv = ["plan", "--config", str(cfg.relative_to(run.ROOT)), "--step", repr(fine), "--out", str(Path(tmp) / name)]
            code = cli_main(argv)
            if code != 0:
                sys.exit(f"error: {' '.join(argv)} exited {code}")
            sol = json.loads((Path(tmp) / name / "solve.json").read_text())
            out[name] = {
                "benchmark_step": step,
                "reference_step": fine,
                "command": "riemplan " + " ".join(argv[:5]),
                "y": sol["y"],
                "z": sol["z"],
                "action": sol["action"],
                "residual": sol["residual"],
            }
            print(f"{name}: step {fine:g}, action {sol['action']!r}", flush=True)
    doc = {
        "regenerate": "python3 bench/reference.py",
        "finer": FINER,
        "scenarios": out,
    }
    run.REFERENCE.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
