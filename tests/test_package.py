"""The package as a fresh interpreter sees it: what ``import apf_rcbf`` and
``apf-rcbf run`` load, and the names the package namespace offers."""

import os
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import apf_rcbf
from apf_rcbf import cli

SRC = Path(apf_rcbf.__file__).resolve().parent.parent
OUTPUTS = ("gamma1.csv", "gamma2.csv", "gamma3.csv", "metrics.json", "report.txt")


def _python(args, src=SRC, **kwargs):
    """Run ``python <args>`` in a fresh interpreter that imports the package
    from ``src``."""
    path = os.pathsep.join(p for p in (str(src), os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120, **kwargs)


def _imported(log):
    """The modules named by a ``-X importtime`` log."""
    return {line.rsplit("|", 1)[1].strip() for line in log.splitlines()
            if line.startswith("import time:") and "|" in line}


def test_run_loads_neither_the_filter_nor_the_oracle(tmp_path):
    """``python -m apf_rcbf run fig2.json`` exits 0 without importing
    ``qp`` or ``rcbf``, and writes the bytes an in-process ``cli.main`` does."""
    proc = _python(["-X", "importtime", "-m", "apf_rcbf", "run", "fig2.json",
                    "--output-dir", str(tmp_path / "child")], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr[-2000:]
    loaded = _imported(proc.stderr)
    assert {"apf_rcbf.simulate", "apf_rcbf.cli", "apf_rcbf.verify"} <= loaded
    assert not loaded & {"apf_rcbf.qp", "apf_rcbf.rcbf"}

    assert cli.main(["run", "fig2.json", "--output-dir", str(tmp_path / "parent")]) == 0
    for name in OUTPUTS:
        child = (tmp_path / "child" / name).read_bytes()
        assert child == (tmp_path / "parent" / name).read_bytes(), name
    assert sorted(p.name for p in (tmp_path / "child").iterdir()) == sorted(OUTPUTS)


NAMESPACE_CHECK = textwrap.dedent("""
    import sys
    import types

    import apf_rcbf
    import apf_rcbf.cli

    lazy = {"apf_rcbf.qp", "apf_rcbf.rcbf"}
    assert not lazy & set(sys.modules), sorted(lazy & set(sys.modules))
    assert isinstance(apf_rcbf.simulate, types.FunctionType), apf_rcbf.simulate

    listed = set(dir(apf_rcbf))
    for name in apf_rcbf.__all__:
        getattr(apf_rcbf, name)
        assert name in listed, name
    assert lazy <= set(sys.modules)

    assert apf_rcbf.rcbf is sys.modules["apf_rcbf.rcbf"]
    assert apf_rcbf.qp is sys.modules["apf_rcbf.qp"]
    assert apf_rcbf.qp.solve_projection is apf_rcbf.solve_projection
    assert apf_rcbf.rcbf.GammaSelector is apf_rcbf.GammaSelector
    assert {"qp", "rcbf"} <= listed
    try:
        apf_rcbf.no_such_name
    except AttributeError as exc:
        assert "no_such_name" in str(exc), exc
    else:
        raise AssertionError("an unknown name resolved")
    assert not hasattr(apf_rcbf, "no_such_name")

    star = {}
    exec("from apf_rcbf import *", star)
    assert set(apf_rcbf.__all__) <= set(star), set(apf_rcbf.__all__) - set(star)
    assert isinstance(star["simulate"], types.FunctionType)
    print("ok")
""")


def test_namespace_resolves_every_name_in_a_fresh_interpreter():
    """Importing the package and its CLI loads neither ``qp`` nor ``rcbf``;
    every ``__all__`` name resolves and is listed by ``dir``, ``simulate``
    stays the function, the two modules work as attributes, an unknown name
    raises ``AttributeError``, and ``from apf_rcbf import *`` binds all."""
    proc = _python(["-c", NAMESPACE_CHECK])
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout == "ok\n"


def test_import_error_in_a_lazy_module_propagates(tmp_path):
    """A lazy module that fails to import raises its ``ImportError`` on first
    access to one of its names, not an ``AttributeError`` that hides it."""
    copy = tmp_path / "apf_rcbf"
    shutil.copytree(SRC / "apf_rcbf", copy, ignore=shutil.ignore_patterns("__pycache__"))
    qp = copy / "qp.py"
    qp.write_text(qp.read_text(encoding="utf-8") + "\nraise ImportError('qp is broken')\n",
                  encoding="utf-8")
    check = textwrap.dedent("""
        import apf_rcbf
        apf_rcbf.simulate
        for name in ("solve_projection", "qp"):
            try:
                getattr(apf_rcbf, name)
            except ImportError as exc:
                assert str(exc) == "qp is broken", exc
            else:
                raise AssertionError(name)
        print("ok")
    """)
    proc = _python(["-c", check], src=tmp_path)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout == "ok\n"
