"""The equivalence suite: one kernel pass, no simulator, and a gap that a
one-ulp-scale change to the filter correction moves."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import apf_rcbf
import apf_rcbf.verify
from apf_rcbf import _kernels as _k
from apf_rcbf.verify import equivalence_suite

ROOT = Path(__file__).resolve().parents[1]

# the filter correction in the controller that _kernels.bind returns
CORRECTION = "grep = -(phi / dd)"


def test_equivalence_suite_runs_the_kernel_once(arena, monkeypatch):
    """The fixed equivalence filter and the generalized controller with the
    unit pair are one packing, so the grid goes through the kernel once and
    both report lines carry its gap."""
    calls = []
    real = _k._eval_controls

    def spy(xs, ys, model):
        calls.append(model)
        return real(xs, ys, model)

    monkeypatch.setattr(_k, "_eval_controls", spy)
    res = equivalence_suite(arena, nx=20, ny=20)
    assert len(calls) == 1
    special, generalized = res.lines[1], res.lines[2]
    assert special.split("=")[1] == generalized.split("=")[1]
    assert res.passed


def test_verify_imports_no_simulator(package_imports):
    """The suites take the unit packing from ``clf``; the rollout module is
    not part of the grid check."""
    assert "simulate" not in package_imports(apf_rcbf.verify)


def test_scaled_correction_fails_verify(tmp_path):
    """The README's mutation check, on a copy of the package: scaling the
    filter correction by (1 + 2**-30) makes ``verify --suite equivalence``
    report the gap 8.277212e-01, print FAIL and exit 1."""
    src = Path(apf_rcbf.__file__).resolve().parent
    copy = tmp_path / "apf_rcbf"
    shutil.copytree(src, copy, ignore=shutil.ignore_patterns("__pycache__"))
    sources = {path: path.read_text(encoding="utf-8") for path in copy.glob("*.py")}
    hits = [path for path, text in sources.items() for _ in range(text.count(CORRECTION))]
    assert len(hits) == 1
    path = hits[0]
    path.write_text(sources[path].replace(CORRECTION, CORRECTION + " * (1.0 + 2.0 ** -30)"),
                    encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(tmp_path)}
    proc = subprocess.run(
        [sys.executable, "-m", "apf_rcbf", "verify", "fig2.json", "--suite", "equivalence"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, proc.stderr[-2000:]
    assert "8.277212e-01" in proc.stdout
    assert "FAIL" in proc.stdout


def test_run_suites_dispatches_every_name(arena, monkeypatch):
    """Each suite name, from any iterable, runs its suite with the scenario
    and seed it takes, in the order given; an unknown name raises
    ``ValueError`` before any suite runs, wherever it stands among the
    names."""
    calls = []
    for fn in ("equivalence_suite", "gradient_suite", "oracle_suite"):
        monkeypatch.setattr(apf_rcbf.verify, fn,
                            lambda *args, fn=fn, **kwargs: calls.append((fn, args, kwargs)) or fn)
    assert apf_rcbf.verify.SUITE_NAMES == ("equivalence", "gradients", "oracle")
    results = apf_rcbf.verify.run_suites(arena, iter(("oracle", "equivalence", "gradients")),
                                         seed=5)
    assert results == ["oracle_suite", "equivalence_suite", "gradient_suite"]
    assert calls == [("oracle_suite", (), {"seed": 5}), ("equivalence_suite", (arena,), {}),
                     ("gradient_suite", (arena,), {"seed": 5})]
    calls.clear()
    for names in (("equivalence", "grid"), ("oracle", "gradients", "grid"), ("grid", "oracle")):
        with pytest.raises(ValueError, match="unknown suite: 'grid'"):
            apf_rcbf.verify.run_suites(arena, names)
    assert calls == []


def test_run_suites_runs_each_suite_in_process(arena):
    """The real suites, each called through ``run_suites`` by name, report
    the lines that ``apf-rcbf verify fig2.json --seed 3`` prints, as
    recorded in ``perfbench/verify_reference.json``."""
    results = apf_rcbf.verify.run_suites(arena, apf_rcbf.verify.SUITE_NAMES, seed=3)
    assert [r.name for r in results] == list(apf_rcbf.verify.SUITE_NAMES)
    assert all(r.passed for r in results)
    reference = json.loads((ROOT / "perfbench" / "verify_reference.json").read_text("utf-8"))
    assert [line for r in results for line in r.lines] == reference["3"]
