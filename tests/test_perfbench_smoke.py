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
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_fig2_cli_smoke_run_is_correct():
    cmd = [sys.executable, "perfbench/run.py", "--workload", "fig2_cli", "--seed", "0",
           "--seconds", "1", "--trace", "1", "--smoke"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stderr[-2000:]


@pytest.mark.parametrize("workload", ["sweep_fig2", "sweep_overlap"])
def test_sweep_smoke_run_is_correct(workload):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
           "--seconds", "1", "--trace", "1", "--smoke"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stderr[-2000:]
