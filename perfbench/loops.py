"""The measured loops of the four workloads, with their output checks.

Each workload is a closed loop with one client: the next operation starts
only after the previous one has finished and been checked.  An operation is
one CLI child from spawn to exit (``fig2_cli``, ``verify_suites``), or one
sweep start: the 16 ``simulate`` calls of every cell from one start state,
timed as the sum of those calls.  Only operations that finished and passed
their checks contribute a latency; any exception or failed check counts as a
failed operation.

With a tracer the CLI workloads call in-process the same public functions
that ``cmd_run`` / ``cmd_verify`` call, in the same order, so the spans can
attribute time to modules.
"""

from __future__ import annotations

import json
import logging
import os
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from reference import REFERENCE_CHILD_S, SpeedGauge, child_reference_s
from spans import NullTracer, Tracer
from workloads import (CLI_WORKLOADS, FIG2_CONFIG, FINGERPRINT_OPS, SWEEP_BOUNDS, VERIFY_SEEDS,
                       sweep_cells, sweep_scenario, sweep_starts)

CHILD_TIMEOUT_S = 150.0
# A sweep start samples the host speed again between its rollouts once this
# much rollout time has passed since the last sample: the host changes speed
# within the seconds that one overlap start takes.
RESAMPLE_S = 0.2
NEGATIVE_GAMMA_TEXT = "tightening term evaluated negative"
TRAJECTORY_FIELDS = ("t", "x", "u", "h_min", "V", "phi")


@dataclass
class Tally:
    """What one run measured and counted."""

    op_s: list = field(default_factory=list)
    # per operation: [(seconds, index of the speed sample taken before them)]
    op_parts: list = field(default_factory=list)
    op_factor: list = field(default_factory=list)
    rollout_s: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    child_rss_kb: list = field(default_factory=list)
    # fingerprints of the first ``fingerprint_ops`` operations only
    fingerprint_ops: int = 0
    rollouts: int = 0
    steps: int = 0
    control_evals: int = 0
    samples: int = 0
    filter_active_samples: int = 0
    terminals: dict = field(default_factory=lambda: {
        "reached_goal": 0, "timeout": 0, "domain_error": 0})
    unsafe_goal_runs: int = 0
    max_step: float = 0.0
    swept_clearance_min: float = float("inf")
    negative_gamma_runs: int = 0
    csv_bytes: int = 0

    def fail(self, what):
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(str(what))

    def fingerprinting(self):
        """Whether the operation under way is one that is fingerprinted."""
        return self.attempted <= self.fingerprint_ops

    def add_trajectory(self, tr, integrator, centers, radii):
        """Fingerprint one rollout from its recorded samples."""
        if not self.fingerprinting():
            return
        n = tr.n_samples
        self.rollouts += 1
        self.terminals[tr.terminal] += 1
        self.samples += n
        self.steps += max(n - 1, 0)
        # One control evaluation per recorded sample, three more per RK4 step
        # (exact except for the stage that ends a domain_error run).
        self.control_evals += n + (3 * max(n - 1, 0) if integrator == "rk4" else 0)
        if n and tr.phi.shape[1]:
            self.filter_active_samples += int(np.count_nonzero((tr.phi > 0.0).any(axis=1)))
        swept = float(np.min(tr.h_min)) if n else float("inf")
        if n > 1:
            seg = np.diff(tr.x, axis=0)
            seg_len2 = np.einsum("ij,ij->i", seg, seg)
            self.max_step = max(self.max_step, float(np.sqrt(seg_len2.max())))
            safe_len2 = np.where(seg_len2 > 0.0, seg_len2, 1.0)
            for center, radius in zip(centers, radii):
                rel = tr.x[:-1] - center
                s = np.clip(-np.einsum("ij,ij->i", rel, seg) / safe_len2, 0.0, 1.0)
                s[seg_len2 == 0.0] = 0.0
                closest = rel + s[:, None] * seg
                dist = np.sqrt(np.einsum("ij,ij->i", closest, closest)) - radius
                swept = min(swept, float(dist.min()))
        self.swept_clearance_min = min(self.swept_clearance_min, swept)
        if tr.terminal == "reached_goal" and swept < 0.0:
            self.unsafe_goal_runs += 1


class _CountWarnings(logging.Handler):
    """Counts the once-per-run negative-tightening WARNING of ``simulate``."""

    def __init__(self, tally):
        super().__init__(logging.WARNING)
        self.tally = tally

    def emit(self, record):
        if NEGATIVE_GAMMA_TEXT in record.getMessage() and self.tally.fingerprinting():
            self.tally.negative_gamma_runs += 1


def route_package_logs(handler):
    """Send the package's log records to ``handler`` only, off the console."""
    logger = logging.getLogger("apf_rcbf")
    logger.handlers[:] = [handler]
    logger.propagate = False


def spawn(cmd, env, cwd, out_path, err_path):
    """Run one child to completion: ``(exit code, wall seconds, max RSS kB)``."""
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=cwd)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss


def same_bits(a, b):
    """Trajectories equal bit for bit, terminal status included."""
    if a.terminal != b.terminal:
        return False
    for name in TRAJECTORY_FIELDS:
        x, y = getattr(a, name), getattr(b, name)
        if x.shape != y.shape or x.tobytes() != y.tobytes():
            return False
    return True


class Run:
    """Shared state of one benchmark run."""

    def __init__(self, ar, root, work, workload, seed, seconds, traced, smoke):
        self.ar = ar
        self.root = root
        self.work = work
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.tracer = Tracer(f"{workload}-seed{seed}-{os.getpid()}") if traced else NullTracer()
        self.smoke = smoke
        self.tally = Tally(fingerprint_ops=1 if smoke else FINGERPRINT_OPS[workload])
        self.env = dict(os.environ)
        src = str(root / "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")
        # a CLI child runs in a fresh interpreter, and so does the child reference
        if workload in CLI_WORKLOADS and not traced:
            self.gauge = SpeedGauge(REFERENCE_CHILD_S, lambda: child_reference_s(work))
        else:
            self.gauge = SpeedGauge()
        self.loop_s = 0.0
        self.sample_index = None
        route_package_logs(logging.NullHandler())

    def sample_speed(self):
        """Sample the host speed; time measured from now on is scaled by
        this sample and the next."""
        self.sample_index = self.gauge.sample()

    def record_op(self, parts):
        """Record a finished operation as ``[(seconds, sample index)]``."""
        self.tally.op_s.append(sum(s for s, _ in parts))
        self.tally.op_parts.append(parts)

    def loop(self, op):
        """Call ``op()`` until the run's time is spent (at least once; a
        traced run at least as often as it fingerprints), counting the
        package's warnings of the measured operations only.
        The host speed is sampled before each operation and after the last."""
        route_package_logs(_CountWarnings(self.tally))
        t0 = time.perf_counter()
        try:
            while True:
                self.sample_speed()
                op()
                if time.perf_counter() - t0 >= self.seconds and not (
                        self.traced and self.tally.attempted < self.tally.fingerprint_ops):
                    break
        finally:
            self.gauge.sample()
            self.loop_s = time.perf_counter() - t0
            route_package_logs(logging.NullHandler())
            f = self.gauge.bracket_factor
            self.tally.op_factor = [sum(s * f(i) for s, i in parts) / sum(s for s, _ in parts)
                                    for parts in self.tally.op_parts]

    def guarded(self, op):
        def call():
            try:
                op()
            except Exception as exc:  # any exception is a failed operation
                self.tally.fail(f"{type(exc).__name__}: {exc}")
        return call

    def cli(self, args, name):
        out = self.work / f"{name}.stdout"
        err = self.work / f"{name}.stderr"
        rc, wall, rss_kb = spawn([sys.executable, "-m", "apf_rcbf", *args],
                                 self.env, self.root, out, err)
        self.tally.child_rss_kb.append(rss_kb)
        stderr = err.read_text(encoding="utf-8", errors="replace")
        if self.tally.fingerprinting():
            self.tally.negative_gamma_runs += stderr.count(NEGATIVE_GAMMA_TEXT)
        if rc != 0:
            raise RuntimeError(f"exit code {rc}: {stderr.strip()[-300:]}")
        return out.read_bytes(), wall


# --------------------------------------------------------------- fig2_cli

def run_fig2_cli(run):
    ar = run.ar
    from apf_rcbf import cli

    cfg = cli.load_run_config(cli.resolve_config_path(FIG2_CONFIG))
    scenario = ar.load_scenario(cfg.scenario_path)
    refs = {name: ar.simulate(scenario, spec, cfg.sim, cfg.x0) for name, spec in cfg.controllers}
    centers, radii, _ = scenario.packed()
    out_dir = run.work / "fig2-out"
    span = run.tracer.span
    t = run.tally

    def op():
        shutil.rmtree(out_dir, ignore_errors=True)
        t.attempted += 1
        if run.traced:
            t0 = time.perf_counter()
            with span("op"):
                _fig2_in_process(ar, cli, out_dir, span)
            wall = time.perf_counter() - t0
        else:
            _, wall = run.cli(["run", FIG2_CONFIG, "--output-dir", str(out_dir)], "fig2_cli")
        with span("bench.check"):
            for name, ref in refs.items():
                path = out_dir / f"{name}.csv"
                with span("simulate.read_csv"):
                    back = ar.read_trajectory_csv(path, ref.terminal)
                if not same_bits(back, ref):
                    raise AssertionError(f"{name}.csv differs from an in-process simulate")
                if t.fingerprinting():
                    t.csv_bytes += path.stat().st_size
                t.add_trajectory(back, cfg.sim.integrator, centers, radii)
        run.record_op([(wall, run.sample_index)])

    run.loop(run.guarded(op))
    shutil.rmtree(out_dir, ignore_errors=True)


def _load_in_process(ar, cli, argv, span):
    """The steps ``apf-rcbf <argv>`` takes before its command runs."""
    with span("cli.parse_args"):
        args = cli.build_parser().parse_args(argv)
    with span("cli.load_config"):
        cfg = cli.load_run_config(cli.resolve_config_path(args.config))
    with span("scenario.load"):
        scenario = ar.load_scenario(cfg.scenario_path)
    return args, cfg, scenario


def _fig2_in_process(ar, cli, out_dir, span):
    """What ``apf-rcbf run fig2.json --output-dir <out_dir>`` does, in order."""
    _, cfg, scenario = _load_in_process(
        ar, cli, ["run", FIG2_CONFIG, "--output-dir", str(out_dir)], span)
    out_dir.mkdir(parents=True, exist_ok=True)
    results = {}
    for name, spec in cfg.controllers:
        with span("simulate.rollout"):
            tr = ar.simulate(scenario, spec, cfg.sim, cfg.x0)
        with span("simulate.write_csv"):
            ar.write_trajectory_csv(tr, out_dir / f"{name}.csv")
        with span("simulate.metrics"):
            results[name] = asdict(ar.metrics(tr))
    with span("cli.report"):
        with open(out_dir / "metrics.json", "w", encoding="utf-8") as fh:
            json.dump(results, fh, indent=2)


# ---------------------------------------------------------- verify_suites

def verify_reference(run):
    """The report lines recorded for this run's ``--seed``, one list per suite."""
    with open(run.root / "perfbench" / "verify_reference.json", encoding="utf-8") as fh:
        ref = json.load(fh)
    seed = run.seed % VERIFY_SEEDS
    lines = ref[str(seed)]
    if run.smoke:  # the equivalence suite alone: it is the only one under a few seconds
        lines = [line for line in lines if line.startswith("[equivalence]")]
    return seed, lines


def run_verify_suites(run):
    ar = run.ar
    from apf_rcbf import cli, verify

    seed, ref_lines = verify_reference(run)
    expected = "".join(line + "\n" for line in ref_lines).encode("utf-8")
    suites = ("equivalence",) if run.smoke else verify.SUITE_NAMES
    args = ["verify", FIG2_CONFIG, "--seed", str(seed)]
    if run.smoke:
        args += ["--suite", "equivalence"]
    span = run.tracer.span
    t = run.tally

    def op():
        t.attempted += 1
        if run.traced:
            t0 = time.perf_counter()
            with span("op"):
                lines = _verify_in_process(ar, cli, verify, args, span)
            wall = time.perf_counter() - t0
            stdout = "".join(line + "\n" for line in lines).encode("utf-8")
        else:
            stdout, wall = run.cli(args, "verify_suites")
        with span("bench.check"):
            if stdout != expected:
                raise AssertionError("verify output differs from the reference lines "
                                     f"for seed {seed}")
            for name in suites:
                if f"[{name}] PASS".encode() not in stdout:
                    raise AssertionError(f"suite {name} did not pass")
        run.record_op([(wall, run.sample_index)])

    run.loop(run.guarded(op))


def _verify_in_process(ar, cli, verify, argv, span):
    """What ``apf-rcbf verify fig2.json --seed <seed>`` does, in order."""
    args, _, scenario = _load_in_process(ar, cli, argv, span)
    names = verify.SUITE_NAMES if args.suite == "all" else (args.suite,)
    lines = []
    for name in names:
        with span(f"verify.{name}"):
            res, = verify.run_suites(scenario, (name,), seed=args.seed)
        lines.extend(res.lines)
    return lines


# ----------------------------------------------------------------- sweeps

def run_sweep(run):
    ar = run.ar
    scenario = sweep_scenario(ar, run.workload)
    cells = sweep_cells(ar)
    starts = sweep_starts(ar, scenario, SWEEP_BOUNDS[run.workload], run.seed)
    centers, radii, _ = scenario.packed()
    span = run.tracer.span
    t = run.tally

    def one_start():
        x0 = next(starts)
        t.attempted += 1
        parts, busy = [], 0.0
        first = {}
        with span("op"):
            for cell in cells:
                if busy >= RESAMPLE_S:
                    parts.append((busy, run.sample_index))
                    busy = 0.0
                    run.sample_speed()
                where = f"{cell.controller} {cell.cfg.integrator} dt={cell.cfg.dt} x0={x0.tolist()}"
                t0 = time.perf_counter()
                try:
                    with span("simulate.rollout"):
                        tr = ar.simulate(scenario, cell.spec, cell.cfg, x0)
                except Exception as exc:
                    raise RuntimeError(f"{where}: {type(exc).__name__}: {exc}") from exc
                t.rollout_s.append(time.perf_counter() - t0)
                busy += t.rollout_s[-1]
                with span("bench.check"):
                    t.add_trajectory(tr, cell.cfg.integrator, centers, radii)
                    if cell.controller in ("apf", "gamma3"):
                        key = (cell.cfg.integrator, cell.cfg.dt)
                        other = first.setdefault(key, tr)
                        if other is not tr and not same_bits(other, tr):
                            raise AssertionError(f"apf and gamma3 rollouts differ: {where}")
        parts.append((busy, run.sample_index))
        run.record_op(parts)

    run.loop(run.guarded(one_start))


LOOPS = {
    "fig2_cli": run_fig2_cli,
    "verify_suites": run_verify_suites,
    "sweep_fig2": run_sweep,
    "sweep_overlap": run_sweep,
}
