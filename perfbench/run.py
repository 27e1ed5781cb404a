#!/usr/bin/env python3
"""apf-rcbf benchmark: end-to-end and per-module metrics for one workload.

Run from the root of a checkout (the package is imported from ./src):

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --quick

One run measures one workload for S seconds as a closed loop with one
client, checks every output, prints a table of every metric with its unit
and sample count, writes the full result to perfbench/out/, and prints as its
last line a JSON object with the keys correct, attempted, failed and metrics.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 the run
records spans around each call into the package and reports the per-module
ones.  --quick runs every workload briefly in both modes and checks only
that each result matches the schema in BENCHMARK.json; it gates no timing.
Workloads and metrics are described in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import re
import resource
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np

from reference import REFERENCE_CHILD_S, child_reference_s
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_CHILDREN = 7

# name -> unit; the definitions are in perfbench/README.md
END_TO_END = {
    "setup_s": "s",
    "latency_ms_p50": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PROBES = {
    "fields.apf_control_us": "us",
    "fields.f_rep_us": "us",
    "fields.u_rep_us": "us",
    "clf.nominal_control_us": "us",
    "rcbf.generalized_control_us": "us",
    "rcbf.safety_filter_us": "us",
    "qp.solve_projection_us": "us",
    "verify.oracle_us_per_case": "us",
    "verify.equivalence_us_per_state": "us",
    "verify.gradients_us_per_state": "us",
    "simulate.steps_per_s": "1/s",
    "simulate.write_csv_us_per_row": "us",
    "simulate.read_csv_us_per_row": "us",
}
PER_LAYER = {
    **PROBES,
    "cli.import_s": "s",
    "scenario.load_s": "s",
    "simulate.steps_per_rollout": "count",
    "simulate.control_evals_per_rollout": "count",
    "simulate.csv_bytes_per_row": "B",
    "simulate.reached_goal_share": "ratio",
    "simulate.timeout_share": "ratio",
    "simulate.domain_error_share": "ratio",
    "simulate.filter_active_share": "ratio",
    "simulate.max_step": "length",
    "simulate.swept_clearance_min": "length",
    "simulate.negative_gamma_share": "ratio",
    "simulate.unsafe_goal_share": "ratio",
    "trace.spans_per_op": "count",
    "trace.overhead_share": "ratio",
    "trace.latency_ms_p50": "ms",
}


def fail(message):
    sys.stderr.write(f"perfbench: {message}\n")
    sys.exit(2)


def import_package():
    sys.path.insert(0, str(SRC))
    import apf_rcbf

    if Path(apf_rcbf.__file__).resolve().parent != (SRC / "apf_rcbf").resolve():
        fail(f"imported apf_rcbf from {apf_rcbf.__file__}, not from {SRC}")
    return apf_rcbf


def load_1m():
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            return float(fh.read().split()[0])
    except OSError:
        return None


def source_digest():
    h = hashlib.sha256()
    for path in sorted(p for p in (SRC / "apf_rcbf").rglob("*") if p.is_file()
                       and "__pycache__" not in p.parts):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def environment(ar):
    return {
        "backend": ar.BACKEND,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "commit": commit(),
        "src_sha256": source_digest(),
    }


def measure_setup(workload, children, work):
    """Median of ``children`` cold set-ups, each in a fresh interpreter:
    ``{name: (scaled to the reference speed, as measured)}``."""
    runs = []
    refs = [child_reference_s(work)]
    for _ in range(children):
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), str(SRC), workload],
                              cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-300:]}")
        runs.append(json.loads(proc.stdout.splitlines()[-1]))
        refs.append(child_reference_s(work))
    for r in runs:
        if Path(r["module"]).resolve().parent != (SRC / "apf_rcbf").resolve():
            raise RuntimeError(f"set-up probe imported {r['module']}")
    # each set-up is scaled by the reference children just before and after it
    factors = [2.0 * REFERENCE_CHILD_S / (a + b) for a, b in zip(refs, refs[1:])]
    return {key: (median([r[key] * f for r, f in zip(runs, factors)]),
                  median([r[key] for r in runs]))
            for key in ("setup_s", "import_s", "load_s")}


def median(values):
    return percentile(values, 50)


def percentile(values, q):
    return float(np.percentile(np.asarray(values, dtype=float), q)) if values else 0.0


def end_to_end(tally, setup, ar_rss_kb, n_setup):
    """``{name: (value, sample count, as measured)}``; each operation time is
    scaled to the reference host speed around it (see reference.py)."""
    ops = tally.op_s
    scaled = [t * f for t, f in zip(ops, tally.op_factor)]
    rss_kb = max(tally.child_rss_kb) if tally.child_rss_kb else ar_rss_kb
    return {
        "setup_s": (setup["setup_s"][0], n_setup, setup["setup_s"][1]),
        "latency_ms_p50": (percentile(scaled, 50) * 1e3, len(ops), percentile(ops, 50) * 1e3),
        "ops_per_s": (len(ops) / sum(scaled) if ops else 0.0, len(ops),
                      len(ops) / sum(ops) if ops else 0.0),
        "peak_rss_mb": (rss_kb / 1024.0, len(tally.child_rss_kb) or 1, None),
    }


def per_layer(tally, setup, probes, tracer, span_cost, loop_s, n_setup, factor):
    """``{name: (value, sample count[, as measured])}``; unit costs are scaled
    to the reference host speed like the end-to-end times.  The fingerprints
    are per rollout, per row or per operation, over the first operations of
    the loop only (``Tally.fingerprint_ops``), so they do not grow with the
    number of operations a faster host or package finishes."""
    t = tally
    n = t.rollouts

    def per(count, total):
        return count / total if total else 0.0

    values = {name: (v / factor if PROBES[name] == "1/s" else v * factor, None, v)
              for name, v in probes.items()}
    scaled = [s * f for s, f in zip(t.op_s, t.op_factor)]
    values.update({
        "cli.import_s": (setup["import_s"][0], n_setup, setup["import_s"][1]),
        "scenario.load_s": (setup["load_s"][0], n_setup, setup["load_s"][1]),
        "simulate.steps_per_rollout": (per(t.steps, n), n),
        "simulate.control_evals_per_rollout": (per(t.control_evals, n), n),
        "simulate.csv_bytes_per_row": (per(t.csv_bytes, t.samples), t.samples),
        "simulate.reached_goal_share": (per(t.terminals["reached_goal"], n), n),
        "simulate.timeout_share": (per(t.terminals["timeout"], n), n),
        "simulate.domain_error_share": (per(t.terminals["domain_error"], n), n),
        "simulate.filter_active_share": (per(t.filter_active_samples, t.samples), t.samples),
        "simulate.max_step": (t.max_step, n),
        "simulate.swept_clearance_min": (t.swept_clearance_min if n else 0.0, n),
        "simulate.negative_gamma_share": (per(t.negative_gamma_runs, n), n),
        "simulate.unsafe_goal_share": (per(t.unsafe_goal_runs, n), n),
        "trace.spans_per_op": (per(len(tracer.spans), t.attempted), t.attempted),
        "trace.overhead_share": (per(len(tracer.spans) * span_cost, loop_s), len(tracer.spans)),
        "trace.latency_ms_p50": (median(scaled) * 1e3, len(scaled), median(t.op_s) * 1e3),
    })
    return values


def print_table(title, values, units):
    print(title)
    for name, (value, count, *measured) in values.items():
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        samples = f"n={count}" if count is not None else ""
        raw = f"measured {measured[0]:.6g}" if measured and measured[0] is not None else ""
        print(f"  {name:<34} {shown:>14} {units[name]:<6} {samples:<8} {raw}")


def print_self_times(tracer, loop_s):
    rows = sorted(tracer.self_times().items(), key=lambda kv: -kv[1][1])
    modules = {}
    for name, (_, total) in rows:
        module = name.split(".")[0]
        modules[module] = modules.get(module, 0.0) + total
    print(f"self time per span over {loop_s:.3f} s of traced loop:")
    for name, (count, total) in rows:
        print(f"  {name:<24} {total:10.4f} s  {100 * total / loop_s:6.2f} %  n={count}")
    print("self time per module:")
    for module, total in sorted(modules.items(), key=lambda kv: -kv[1]):
        print(f"  {module:<24} {total:10.4f} s  {100 * total / loop_s:6.2f} %")
    return {name: {"count": c, "self_s": s} for name, (c, s) in rows}, modules


def pin_to_one_cpu():
    """Keep this process and the children it starts on one CPU: the two
    vCPUs of a shared VM have slow phases of their own, and a reference
    sample only tells the speed of the core it ran on."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def run_once(args):
    load_start = load_1m()
    cpu = pin_to_one_cpu()
    ar = import_package()
    from loops import LOOPS, Run
    from probes import run_probes
    from spans import span_cost_s

    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    work.mkdir()
    try:
        n_setup = 1 if args.smoke else SETUP_CHILDREN
        setup = measure_setup(args.workload, n_setup, work)
        run = Run(ar, ROOT, work, args.workload, args.seed, args.seconds, bool(args.trace),
                  args.smoke)
        LOOPS[args.workload](run)
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if args.trace:
            probes = run_probes(ar, args.workload, args.seed, work)
            run.gauge.sample()
            span_cost = span_cost_s()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    tally = run.tally
    tracer = run.tracer
    env = environment(ar)
    env.update(cpu=cpu, load_1m_start=load_start, load_1m_end=load_1m())
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}  backend {env['backend']}")
    print("env " + json.dumps(env))
    print(f"operations: {tally.attempted} attempted, {tally.failed} failed, "
          f"error_rate {tally.failed / max(tally.attempted, 1):.6g}; "
          f"loop {run.loop_s:.3f} s")
    for msg in tally.failures:
        print(f"  failure: {msg}")
    result = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "attempted": tally.attempted,
              "failed": tally.failed, "failures": tally.failures, "loop_s": run.loop_s}
    factor = run.gauge.factor()
    result["speed_factor"] = factor
    unit_s = run.gauge.unit_s
    print(f"host speed: reference median {unit_s / factor * 1e3:.4f} ms over "
          f"{len(run.gauge.samples)} samples; times are scaled by {factor:.4f} to the "
          f"reference speed ({unit_s * 1e3:g} ms)")
    if args.trace:
        values = per_layer(tally, setup, probes, tracer, span_cost, run.loop_s, n_setup, factor)
        print_table("per-module metrics:", values, PER_LAYER)
        spans, modules = print_self_times(tracer, run.loop_s)
        print(f"tracing overhead, estimated: {len(tracer.spans)} spans x "
              f"{span_cost * 1e6:.3f} us = {100 * values['trace.overhead_share'][0]:.4f} % "
              f"of the traced loop; measured: trace.latency_ms_p50 against latency_ms_p50 "
              f"of the untraced run")
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.write(spans_path)
        result.update(self_time_per_span=spans, self_time_per_module=modules,
                      spans_file=str(spans_path.relative_to(ROOT)))
        units = PER_LAYER
    else:
        values = end_to_end(tally, setup, rss_kb, n_setup)
        print_table("end-to-end metrics:", values, END_TO_END)
        units = END_TO_END
        if tally.rollout_s:
            print(f"per rollout, as measured: {len(tally.rollout_s)} simulate calls, "
                  f"{len(tally.rollout_s) / sum(tally.rollout_s):.6g} rollouts/s, "
                  f"p50 {percentile(tally.rollout_s, 50) * 1e3:.6g} ms, "
                  f"p95 {percentile(tally.rollout_s, 95) * 1e3:.6g} ms")
        print(f"fingerprint of the first {min(tally.attempted, tally.fingerprint_ops)} "
              f"operations: {tally.unsafe_goal_runs} of {tally.rollouts} rollouts reached the "
              f"goal through an obstacle; {tally.negative_gamma_runs} runs had a negative "
              f"tightening")
    result["metrics"] = {k: {"value": v, "unit": units[k], "samples": n,
                             "measured": m[0] if m and m[0] is not None else v}
                         for k, (v, n, *m) in values.items()}
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    print(json.dumps({
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v[0], "unit": units[k]} for k, v in values.items()},
    }))


# ------------------------------------------------------------------ quick

_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
_UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check_benchmark_json(spec):
    """Problems with BENCHMARK.json: its format rules, and agreement with this file."""
    problems = []
    if set(spec) != {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}:
        problems.append(f"top-level keys {sorted(spec)}")
    names = [w["name"] for w in spec["workloads"]]
    if not set(names) <= set(WORKLOADS) or len(set(names)) != len(names) \
            or any(set(w) != {"name", "why"} or len(w["why"]) > 200 for w in spec["workloads"]):
        problems.append(f"workloads {names}")
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    if e2e.keys() != END_TO_END.keys() or any(e2e[k]["unit"] != END_TO_END[k] for k in e2e):
        problems.append("end_to_end does not match run.END_TO_END")
    for m in spec["end_to_end"]:
        if set(m) != {"name", "unit", "better", "bound"} or not 0 < m["bound"] <= 0.25:
            problems.append(f"end_to_end entry {m}")
    layer = {m["name"]: m for m in spec["per_layer"]}
    if layer.keys() != PER_LAYER.keys() or any(layer[k]["unit"] != PER_LAYER[k] for k in layer):
        problems.append("per_layer does not match run.PER_LAYER")
    for m in spec["end_to_end"] + spec["per_layer"]:
        if not _NAME.match(m["name"]) or not _UNIT.match(m["unit"]) \
                or m["better"] not in ("higher", "lower"):
            problems.append(f"metric entry {m}")
    if not 1 <= spec["run_seconds"] <= 60 or not isinstance(spec["run_seconds"], int):
        problems.append("run_seconds")
    return problems


def check_result(line, expected):
    """Problems with one result line against the expected ``{metric: unit}``."""
    try:
        res = json.loads(line)
    except json.JSONDecodeError as exc:
        return [f"last line is not JSON: {exc}"]
    problems = []
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        return [f"keys {sorted(res)}"]
    if res["correct"] is not True:
        problems.append("correct is not true")
    for key in ("attempted", "failed"):
        if not isinstance(res[key], int) or isinstance(res[key], bool):
            problems.append(f"{key} is not a whole number")
    if isinstance(res["attempted"], int) and res["attempted"] < 1:
        problems.append("attempted < 1")
    if set(res["metrics"]) != set(expected):
        problems.append(f"metric names differ: {sorted(set(res['metrics']) ^ set(expected))}")
    for name, m in res["metrics"].items():
        value = m.get("value") if isinstance(m, dict) else None
        if set(m) != {"value", "unit"} or m["unit"] != expected.get(name) \
                or not isinstance(value, (int, float)) or isinstance(value, bool) \
                or not math.isfinite(value):
            problems.append(f"metric {name}: {m}")
    return problems


def quick():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = [f"BENCHMARK.json: {p}" for p in check_benchmark_json(spec)]
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
                   "--seconds", "1", "--trace", str(trace), "--smoke"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
            lines = proc.stdout.strip().splitlines()
            found = check_result(lines[-1], expected[trace]) if lines else ["no output"]
            if proc.returncode != 0:
                found.append(f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}")
            status = "ok" if not found else "FAIL"
            print(f"quick {workload:<14} trace {trace}: {status}")
            problems += [f"{workload} trace {trace}: {p}" for p in found]
    for p in problems:
        print(f"  {p}")
    print(json.dumps({"schema_ok": not problems, "problems": len(problems)}))
    return 0 if not problems else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="run every workload briefly and check the result schema only")
    parser.add_argument("--smoke", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so a running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "apf_rcbf" / "__init__.py").is_file():
        fail(f"no package sources at {SRC / 'apf_rcbf'}; run from a checkout of the repository")
    if args.quick:
        return quick()
    if args.workload is None:
        parser.error("--workload is required")
    run_once(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
