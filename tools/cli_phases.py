"""Print where the time of ``python -m apf_rcbf run fig2.json`` goes.

Each child is a fresh ``python -X importtime`` that runs the package as
``-m apf_rcbf run fig2.json`` does (through ``runpy``, so ``cli.entry`` ends
it), with timers wrapped around ``cli.main``, the rollouts (``simulate``) and
the output writes (``_write_outputs``).  The phases, each the median over the
children of one tree, in ms:

  interpreter start   spawn to the child's first statement
  numpy import        numpy's cumulative import time (-X importtime)
  package import      the package's imports, numpy's excluded (-X importtime)
  other set-up        the child's first statement to ``main``, less both imports
  rollouts            the ``simulate`` calls
  csv/report writes   ``_write_outputs``: the CSVs, metrics.json, report.txt
  rest of main        the rest of ``main``: parse, config, scenario, report
  main to exit        ``main`` returning to the reaped end of the child
  total               spawn to the reaped end of the child

Run it from a checkout, giving one or more source trees::

    python3 tools/cli_phases.py [--children N] [--json] [SRC ...]

``SRC`` defaults to this checkout's ``src``.  With several trees the
children alternate between them, in turn order reversed every other round.
Each tree's ``apf_rcbf`` is copied without ``__pycache__`` and the children
run with ``PYTHONDONTWRITEBYTECODE=1``, so every child compiles the package
from source as the benchmark's children do; numpy's installed bytecode is
used as usual.  -X importtime itself adds a little to the import phases.  The
child's and this process's times are read from ``CLOCK_MONOTONIC``, which
all processes share (Unix).  Pin the command to one CPU (``taskset -c 1``)
for steadier numbers.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ARGV = ["run", "fig2.json", "--output-dir", "out"]
PHASES = ("interpreter start", "numpy import", "package import", "other set-up",
          "rollouts", "csv/report writes", "rest of main", "main to exit", "total")

# The child: wrap the timers around the package's functions, then run it as
# ``-m apf_rcbf`` would.  json is imported only once main has returned, and
# then the package has already loaded it.
CHILD = """
import time
t_first = time.clock_gettime(time.CLOCK_MONOTONIC)
import runpy
import sys
from apf_rcbf import cli

spent = {"rollouts": 0.0, "writes": 0.0}

def timed(fn, key):
    def wrapper(*args, **kwargs):
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        try:
            return fn(*args, **kwargs)
        finally:
            spent[key] += time.clock_gettime(time.CLOCK_MONOTONIC) - t0
    return wrapper

def timed_main(argv=None, main=cli.main):
    t_main = time.clock_gettime(time.CLOCK_MONOTONIC)
    code = main(argv)
    t_return = time.clock_gettime(time.CLOCK_MONOTONIC)
    import json
    sys.stderr.write("PHASES " + json.dumps(dict(
        spent, first=t_first, main=t_main, returned=t_return, code=code)) + "\\n")
    return code

cli.simulate = timed(cli.simulate, "rollouts")
cli._write_outputs = timed(cli._write_outputs, "writes")
cli.main = timed_main
sys.argv = ["apf-rcbf", *sys.argv[1:]]
runpy.run_module("apf_rcbf", run_name="__main__", alter_sys=True)
"""


def import_times(log):
    """``(numpy, package)`` import times in s from a ``-X importtime`` log:
    numpy's cumulative time, and that of the top-level ``apf_rcbf`` imports
    less numpy's where numpy loaded inside one of them.  The log prints each
    import after the imports it made."""
    numpy = package = nested = 0.0
    for line in log.splitlines():
        if not line.startswith("import time:") or line.endswith("imported package"):
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip(" ")) - 1) // 2
        name = name.strip()
        if name == "numpy":
            numpy = nested = int(cumulative) * 1e-6
        if depth == 0:
            if name.split(".")[0] == "apf_rcbf":
                package += int(cumulative) * 1e-6 - nested
            nested = 0.0
    return numpy, package


def one_child(src, work):
    """The phases of one child run on the package copied under ``src``, in s."""
    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    t_spawn = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", CHILD, *ARGV], cwd=work,
                          env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True, timeout=120)
    t_end = time.clock_gettime(time.CLOCK_MONOTONIC)
    marks = [line for line in proc.stderr.splitlines() if line.startswith("PHASES ")]
    if proc.returncode != 0 or len(marks) != 1:
        raise RuntimeError(f"child exited {proc.returncode}: {proc.stderr[-2000:]}")
    m = json.loads(marks[0][len("PHASES "):])
    numpy, package = import_times(proc.stderr)
    in_main = m["returned"] - m["main"]
    return dict(zip(PHASES, (
        m["first"] - t_spawn, numpy, package, m["main"] - m["first"] - numpy - package,
        m["rollouts"], m["writes"], in_main - m["rollouts"] - m["writes"],
        t_end - m["returned"], t_end - t_spawn)))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", nargs="*", default=[str(ROOT / "src")],
                        help="source trees holding apf_rcbf (default: this checkout's src)")
    parser.add_argument("--children", type=int, default=20, help="children per tree")
    parser.add_argument("--json", action="store_true", help="print one JSON object")
    args = parser.parse_args()
    if args.children < 1:
        parser.error("--children must be at least 1")

    with tempfile.TemporaryDirectory(prefix="cli-phases-") as tmp:
        trees = []
        for i, src in enumerate(args.src):
            copy = Path(tmp) / f"src{i}"
            shutil.copytree(Path(src) / "apf_rcbf", copy / "apf_rcbf",
                            ignore=shutil.ignore_patterns("__pycache__"))
            (Path(tmp) / f"work{i}").mkdir()
            trees.append((copy, Path(tmp) / f"work{i}"))
        runs = [[] for _ in trees]
        for r in range(args.children):
            order = range(len(trees)) if r % 2 == 0 else reversed(range(len(trees)))
            for i in order:
                runs[i].append(one_child(*trees[i]))

    medians = [{p: statistics.median(run[p] for run in tree) * 1e3 for p in PHASES}
               for tree in runs]
    if args.json:
        print(json.dumps({"children": args.children, "unit": "ms",
                          "trees": [{"src": src, "median": med}
                                    for src, med in zip(args.src, medians)]}, indent=2))
        return
    print(f"median of {args.children} children per tree, ms")
    for i, src in enumerate(args.src):
        print(f"  [{i}] {src}")
    print(f"{'phase':<20}" + "".join(f"{f'[{i}]':>10}" for i in range(len(args.src))))
    for p in PHASES:
        print(f"{p:<20}" + "".join(f"{med[p]:>10.1f}" for med in medians))


if __name__ == "__main__":
    main()
