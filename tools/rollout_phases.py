"""Print where the time of a sweep workload's ``simulate`` calls goes.

Runs the rollouts of perfbench's ``sweep_fig2`` or ``sweep_overlap`` (its
cells and its seeded starts, from ``perfbench/workloads.py``) in this
process, with timers wrapped around module functions at call time; the
source is not edited.  The phases of one ``simulate`` call, which add up to
the call:

  pre-loop          ``simulate`` up to ``_kernels._integrate``: validation,
                    packing, the x0 checks, the record allocation
  loop              ``_integrate`` less the four phases below: binding, the
                    stepping loop, the loop's own flush calls' wrappers
  flushes           every ``_kernels._flush`` call, the one after the loop too
  _fill_free        ``_kernels._fill_free``
  _potential        ``_kernels._potential``, the ``V`` column
  stall tail and t  ``_integrate`` after ``_potential`` returns: the copies
                    of a stalled run's last row and the ``t`` column
  _trajectory       ``simulate._trajectory``, the column copies
  other             ``simulate`` after ``_trajectory`` returns

Each rollout (one start in one cell) runs ``--reps`` times per tree; a
phase's time is its minimum over the repetitions, taken per rollout, and
the table sums those minima over the rollouts and divides by the starts: ms
per start, with each phase's share of their sum.  With several trees every
repetition runs each tree in turn, the order reversed every other round.
Each tree's package is loaded under its own module name, so the trees run
side by side in one interpreter.

Run it from a checkout, giving one or more source trees::

    python3 tools/rollout_phases.py [--workload W] [--starts N] [--reps R]
        [--seed S] [--json] [SRC ...]

``SRC`` defaults to this checkout's ``src``.  The wrappers add a few tenths
of a microsecond per wrapped call, most of it to ``loop``.  Pin the command
to one CPU (``taskset -c 1``) for steadier numbers.
"""

import argparse
import importlib
import importlib.util
import itertools
import json
import logging
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402  (perfbench's workload inputs)

PHASES = ("pre-loop", "loop", "flushes", "_fill_free", "_potential", "stall tail and t",
          "_trajectory", "other")
# the kernel functions whose calls are timed as a phase of their own
KERNEL_PHASES = {"_flush": "flushes", "_fill_free": "_fill_free", "_potential": "_potential"}


def load_tree(src, name):
    """The ``apf_rcbf`` package under ``src``, imported as module ``name``."""
    init = Path(src) / "apf_rcbf" / "__init__.py"
    spec = importlib.util.spec_from_file_location(name, init,
                                                  submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


class Timers:
    """Wraps one tree's functions; ``spent`` holds the phases of the last call."""

    def __init__(self, package):
        self.sim = importlib.import_module(package.__name__ + ".simulate")
        kern = importlib.import_module(package.__name__ + "._kernels")
        clock = time.perf_counter
        self.spent = dict.fromkeys(PHASES, 0.0)
        marks = {}

        def timed(fn, phase):
            def wrapper(*args):
                t0 = clock()
                try:
                    return fn(*args)
                finally:
                    marks["kernel end"] = t1 = clock()
                    self.spent[phase] += t1 - t0
            return wrapper

        for attr, phase in KERNEL_PHASES.items():
            setattr(kern, attr, timed(getattr(kern, attr), phase))
        integrate = kern._integrate
        trajectory = self.sim._trajectory

        def integrate_timed(*args):
            marks["integrate"] = t0 = clock()
            try:
                return integrate(*args)
            finally:
                t1 = clock()
                tail = t1 - marks["kernel end"]
                self.spent["stall tail and t"] = tail
                self.spent["loop"] = (t1 - t0 - tail - sum(
                    self.spent[p] for p in KERNEL_PHASES.values()))

        def trajectory_timed(*args):
            t0 = clock()
            try:
                return trajectory(*args)
            finally:
                marks["trajectory end"] = t1 = clock()
                self.spent["_trajectory"] = t1 - t0

        kern._integrate = integrate_timed
        self.sim._trajectory = trajectory_timed
        self.marks = marks

    def run(self, scenario, spec, cfg, x0):
        """One ``simulate`` call; returns its phases in s."""
        spent = self.spent
        for phase in PHASES:
            spent[phase] = 0.0
        clock = time.perf_counter
        t0 = clock()
        self.sim.simulate(scenario, spec, cfg, x0)
        t1 = clock()
        spent["pre-loop"] = self.marks["integrate"] - t0
        spent["other"] = t1 - self.marks["trajectory end"]
        return dict(spent)


def workload_inputs(package, src, workload):
    """``(scenario, cells)`` of ``workload`` built from ``package``."""
    if workload == "sweep_fig2":
        scenario = package.load_scenario(
            str(Path(src) / "apf_rcbf" / "data" / "fig2_scenario.json"))
    else:
        scenario = package.validate_scenario(
            package.scenario_from_dict(workloads.OVERLAP_SCENARIO))
    return scenario, workloads.sweep_cells(package)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", nargs="*", default=[str(ROOT / "src")],
                        help="source trees holding apf_rcbf (default: this checkout's src)")
    parser.add_argument("--workload", default="sweep_overlap",
                        choices=("sweep_fig2", "sweep_overlap"))
    parser.add_argument("--starts", type=int, default=10, help="starts of the sweep")
    parser.add_argument("--reps", type=int, default=5, help="repetitions of each rollout")
    parser.add_argument("--seed", type=int, default=11, help="the sweep's start seed")
    parser.add_argument("--json", action="store_true", help="print one JSON object")
    args = parser.parse_args()
    if args.starts < 1 or args.reps < 1:
        parser.error("--starts and --reps must be at least 1")

    # the negative-tightening WARNINGs of the filtered cells, once per call
    logging.disable(logging.WARNING)
    packages = [load_tree(src, f"apf_rcbf_tree{i}") for i, src in enumerate(args.src)]
    trees = [(Timers(package), *workload_inputs(package, src, args.workload))
             for package, src in zip(packages, args.src)]
    starts = list(itertools.islice(workloads.sweep_starts(
        packages[0], trees[0][1], workloads.SWEEP_BOUNDS[args.workload], args.seed),
        args.starts))

    totals = [dict.fromkeys(PHASES, 0.0) for _ in trees]
    rounds = 0
    for x0 in starts:
        for c in range(len(trees[0][2])):
            best = [dict.fromkeys(PHASES, float("inf")) for _ in trees]
            for _ in range(args.reps):
                order = range(len(trees)) if rounds % 2 == 0 else reversed(range(len(trees)))
                rounds += 1
                for i in order:
                    timers, scen, cells = trees[i]
                    cell = cells[c]
                    for phase, s in timers.run(scen, cell.spec, cell.cfg, x0).items():
                        if s < best[i][phase]:
                            best[i][phase] = s
            for total, low in zip(totals, best):
                for phase in PHASES:
                    total[phase] += low[phase]
    per_start = [{p: total[p] / len(starts) * 1e3 for p in PHASES} for total in totals]

    if args.json:
        print(json.dumps({
            "workload": args.workload, "starts": len(starts), "reps": args.reps,
            "seed": args.seed, "unit": "ms per start, sum of per-rollout minima",
            "trees": [{"src": src, "phases": {p: round(v, 4) for p, v in ms.items()},
                       "total": round(sum(ms.values()), 4)}
                      for src, ms in zip(args.src, per_start)]}, indent=1))
        return
    print(f"{args.workload}, seed {args.seed}: {len(starts)} starts x {len(trees[0][2])} cells, "
          f"minimum of {args.reps} repetitions per rollout, ms per start (share)")
    for i, src in enumerate(args.src):
        print(f"  [{i}] {src}")
    print(f"{'phase':<18}" + "".join(f"{f'[{i}]':>18}" for i in range(len(trees))))
    sums = [sum(ms.values()) for ms in per_start]
    for p in PHASES:
        print(f"{p:<18}" + "".join(f"{ms[p]:>10.3f} ({ms[p] / s:5.1%})"
                                   for ms, s in zip(per_start, sums)))
    print(f"{'total':<18}" + "".join(f"{s:>10.3f} {'':>7}" for s in sums))


if __name__ == "__main__":
    main()
