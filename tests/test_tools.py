"""Smoke runs of the measurement scripts in ``tools/``.

``rollout_phases.py`` and ``cli_phases.py`` wrap private functions of the
package by name (``_kernels._flush``, ``_fill_free``, ``_potential``,
``_integrate``, ``simulate._trajectory``, ``cli.simulate`` and
``cli._write_outputs``), so renaming one breaks them; these runs, the
smallest each script takes, notice that.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"

ROLLOUT_PHASES = ["pre-loop", "loop", "flushes", "_fill_free", "_potential",
                  "stall tail and t", "_trajectory", "other"]
CLI_PHASES = ["interpreter start", "numpy import", "package import", "other set-up",
              "rollouts", "csv/report writes", "rest of main", "main to exit", "total"]


def run_tool(tmp_path, script, *args):
    env = {**os.environ, "TMPDIR": str(tmp_path), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, str(TOOLS / script), *args, "--json"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout)


@pytest.mark.parametrize("workload", ["sweep_fig2", "sweep_overlap"])
def test_rollout_phases_reports_every_phase(tmp_path, workload):
    out = run_tool(tmp_path, "rollout_phases.py", "--workload", workload,
                   "--starts", "1", "--reps", "1")
    assert (out["workload"], out["starts"], out["reps"]) == (workload, 1, 1)
    (tree,) = out["trees"]
    assert list(tree["phases"]) == ROLLOUT_PHASES
    assert all(math.isfinite(v) for v in tree["phases"].values())
    assert tree["total"] > 0.0


def test_cli_phases_reports_every_phase(tmp_path):
    out = run_tool(tmp_path, "cli_phases.py", "--children", "1")
    assert out["children"] == 1
    (tree,) = out["trees"]
    assert list(tree["median"]) == CLI_PHASES
    assert all(math.isfinite(v) for v in tree["median"].values())
    assert tree["median"]["total"] > 0.0
