"""Smoke runs of the measurement scripts in ``tools/``.

``rollout_phases.py`` and ``cli_phases.py`` wrap private functions of the
package by name (``_kernels._flush``, ``_fill_free``, ``_potential``,
``_integrate``, ``simulate._trajectory``, ``cli.main``, ``cli.simulate`` and
``cli._write_outputs``), and ``rollout_phases.py`` tallies the trace of
``_integrate`` by its tags (``_kernels.FULL``, ``FREE`` and ``STRETCH``), so
renaming one breaks them; these runs, the smallest each script takes,
notice that.  ``rollout_digest.py``'s digest of ``_kernels.bind`` is pinned.
"""

import contextlib
import io
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
    evals, full, free, budget = (tree[f"{key}evaluations_per_start"]
                                 for key in ("", "full_", "free_", "budgeted_"))
    assert 0 < full < evals
    # every evaluation is full, free by the ball test or in a stretch of
    # free steps, and the stretches run a share of the free ones
    assert full + free + budget == evals
    assert 0 < budget <= evals - full


def test_rollout_phases_counts_the_budgeted_evaluations(tmp_path):
    """The printed traffic line of a tree names its budgeted evaluations next
    to the full ones, with the numbers of the JSON report."""
    args = ["--workload", "sweep_fig2", "--starts", "1", "--reps", "1"]
    (tree,) = run_tool(tmp_path, "rollout_phases.py", *args)["trees"]
    env = {**os.environ, "TMPDIR": str(tmp_path), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, str(TOOLS / "rollout_phases.py"), *args],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    evals, full, budget = (tree[f"{key}evaluations_per_start"]
                           for key in ("", "full_", "budgeted_"))
    assert proc.stdout.splitlines()[-1] == (
        f"  [0] {evals:,.1f} ({full:,.1f} full, {full / evals:.1%}; "
        f"{budget:,.1f} budgeted, {budget / evals:.1%})")


def test_cli_phases_reports_every_phase(tmp_path):
    out = run_tool(tmp_path, "cli_phases.py", "--children", "1")
    assert out["children"] == 1
    (tree,) = out["trees"]
    assert list(tree["median"]) == CLI_PHASES
    assert all(math.isfinite(v) for v in tree["median"].values())
    assert tree["median"]["total"] > 0.0


def test_rollout_digest_pins_the_single_state_door(monkeypatch):
    """The third digest evaluates ``bind`` for every packing of the grid at
    states inside obstacles, in live shells and where g_att is 0, and prints
    its counts and digest after the rollout digests (not run here, they take
    about 20 s); it is pinned, so a change to ``point``'s bits fails here."""
    monkeypatch.syspath_prepend(str(TOOLS))
    import rollout_digest

    monkeypatch.setattr(rollout_digest, "digest_grid", lambda *args: None)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert rollout_digest.main([]) == 0
    assert out.getvalue().splitlines()[-2:] == [
        "bind states: 77640 (inside an obstacle 4480, with a live row 8240, g_att 0 840)",
        "sha256 of bind: 84bdb916867bd3a70c1ce7e647a61492ded1fade0eadc45ce6c40cc6f62aee70"]


def test_code_lines_counts_every_module(tmp_path):
    """One line per module of the package, each a positive count, and a
    total that is their sum."""
    src = TOOLS.parent / "src"
    proc = subprocess.run([sys.executable, str(TOOLS / "code_lines.py"), str(src)],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr[-2000:]
    *modules, total = [line.split() for line in proc.stdout.splitlines()]
    assert sorted(name for name, _ in modules) == sorted(
        p.stem for p in (src / "apf_rcbf").glob("*.py"))
    assert all(int(count) > 0 for _, count in modules)
    assert total[0] == "total" and int(total[1]) == sum(int(count) for _, count in modules)


def test_code_lines_skips_comments_blank_lines_and_docstrings(tmp_path):
    """Docstrings, comments and blank lines are not code; every line of any
    other string, and of a bracketed continuation, is."""
    sys.path.insert(0, str(TOOLS))
    try:
        from code_lines import code_lines
    finally:
        sys.path.remove(str(TOOLS))
    source = ('"""Module\n\ndocstring."""\n'
              "# a comment\n"
              "\n"
              "def f(x):  # trailing\n"
              '    """Function docstring."""\n'
              '    template = """line one\n'
              'line two"""\n'
              "    return (x +\n"
              "            1)\n")
    assert code_lines(source) == 5
