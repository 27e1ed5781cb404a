"""The benchmark harness still runs against the package: short smoke runs.

``perfbench/run.py`` drives the package through its public names, the CLI
flags and ``apf_rcbf.BACKEND``, and checks every output it produces (exit
codes, CSV read-back bit-equal to an in-process ``simulate``).  The sweep
workloads also use ``Scenario.packed()``, ``classify_safety`` and positional
``ControllerSpec(kind, sigma, gamma)``.  A rename or a removed option that the
harness relies on fails here, not only in a full benchmark run.  No timing is
asserted.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def smoke_run(workload, tmp_path):
    """``perfbench/run.py --smoke`` on ``workload``, run from a copy of
    ``perfbench/`` and ``src/`` under ``tmp_path``: run.py writes its results
    into ``perfbench/out/`` of the tree it runs from, so the checkout's own
    result files stay as they are."""
    skip = shutil.ignore_patterns("__pycache__", "out")
    for part in ("perfbench", "src"):
        shutil.copytree(ROOT / part, tmp_path / part, ignore=skip)
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
           "--seconds", "1", "--trace", "1", "--smoke"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stderr[-2000:]


def test_fig2_cli_smoke_run_is_correct(tmp_path):
    smoke_run("fig2_cli", tmp_path)


@pytest.mark.parametrize("workload", ["sweep_fig2", "sweep_overlap"])
def test_sweep_smoke_run_is_correct(workload, tmp_path):
    smoke_run(workload, tmp_path)
