"""Command-line front end: simulate configured controllers or run the suites.

``apf-rcbf run <config>`` rolls out every controller named in the config,
writing one trajectory CSV per controller plus ``metrics.json`` and
``report.txt`` into the output directory.  ``apf-rcbf verify <config>
[--suite NAME]`` runs the numerical property suites and reports max observed
errors against their tolerances.

A ``run`` process imports only the rollout path (``scenario``, ``clf``,
``_kernels``, ``simulate``): ``verify`` is imported by the verify command
alone, and the field formulas, the filter and the QP oracle not at all.
:func:`entry`, the ``apf-rcbf`` command, ends the process without the
interpreter's teardown; :func:`main` is the in-process entry.

Exit codes: 0 success; 1 a run ended in ``domain_error`` (a state touched an
obstacle or a control was not finite) or a suite failed (verify); 2
unreadable/invalid configuration or unwritable output; 3 the scenario violates
its invariants (each violation is listed).
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import json
import math
import os
import shutil
import sys
import tempfile
from dataclasses import asdict, dataclass
from functools import partial
from importlib import resources
from pathlib import Path

import numpy as np

from .clf import GammaSelector, SigmaSelector
from .errors import ConfigError, ScenarioValidationError
from .scenario import Scenario, _vec2, load_scenario, refuse_booleans
from .simulate import (ControllerSpec, SimConfig, metrics, simulate,
                       write_trajectory_csv)

_RUN_KEYS = {"scenario_path", "controllers", "sim", "x0", "output_dir", "seed"}
_CONTROLLER_KEYS = {"name", "kind", "sigma", "gamma"}
_SIM_KEYS = {"dt", "t_max", "goal_tolerance", "integrator"}


@dataclass(frozen=True)
class RunConfig:
    scenario_path: Path
    scenario_ref: str  # scenario_path as the config gives it, for the report
    controllers: tuple  # of (name, ControllerSpec)
    sim: SimConfig
    x0: np.ndarray
    output_dir: Path
    seed: int


def resolve_config_path(arg: str, base: Path = Path(), kind: str = "config") -> Path:
    """The path ``arg`` read from the directory ``base`` (an absolute one as
    it is), or, for a bare file name not found there, the bundled file of
    that name; ``ConfigError`` naming the ``kind`` of file otherwise."""
    given = Path(arg)
    if (base / given).exists():
        return base / given
    if str(given) == given.name:  # bare name: try the bundled files
        bundled = Path(str(resources.files("apf_rcbf").joinpath("data", given.name)))
        if bundled.exists():
            return bundled
    raise ConfigError(f"{kind} file not found: {arg}")


def _parse_table(data, what: str):
    if not isinstance(data, dict) or set(data) != {"x", "y"}:
        raise ConfigError(f"{what} table must be an object with 'x' and 'y' arrays")
    return data["x"], data["y"]


# Per selector: its JSON parameter key, the kinds that take it, and its
# class, whose constructor takes (kind, parameter, table) and checks them.
_SELECTORS = {"sigma": ("coef", ("scaled_value", "scaled_norm"), SigmaSelector),
              "gamma": ("lambda", ("scaled_special",), GammaSelector)}


def _parse_selector(data, what: str):
    param, param_kinds, cls = _SELECTORS[what]
    if not isinstance(data, dict) or "kind" not in data:
        raise ConfigError(f"{what} selector must be an object with a 'kind'")
    kind = data["kind"]
    extra = set(data) - {"kind", param, "table"}
    if extra:
        raise ConfigError(f"unknown {what} selector key(s): {sorted(extra)}")
    if not isinstance(kind, str):
        raise ConfigError(f"unknown {what} selector kind: {kind!r}")
    if kind in param_kinds and param not in data:
        raise ConfigError(f"{what} selector {kind!r} requires {param!r}")
    value = data[param] if kind in param_kinds else None
    table = None
    if kind == "custom" and "table" in data:
        table = _parse_table(data["table"], what)
    try:
        return cls(kind, value, table)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def parse_sigma(data) -> SigmaSelector:
    return _parse_selector(data, "sigma")


def parse_gamma(data) -> GammaSelector:
    return _parse_selector(data, "gamma")


def parse_controller(entry) -> tuple:
    if not isinstance(entry, dict):
        raise ConfigError("controller entries must be objects")
    unknown = set(entry) - _CONTROLLER_KEYS
    if unknown:
        raise ConfigError(f"unknown controller key(s): {sorted(unknown)}")
    if "name" not in entry or "kind" not in entry:
        raise ConfigError("controller entries require 'name' and 'kind'")
    name = entry["name"]
    # the name becomes the file name of the controller's trajectory CSV
    if (not isinstance(name, str) or name in ("", ".", "..")
            or any(sep in name for sep in ("/", os.sep, "\0"))):
        raise ConfigError(f"controller name must be a single file name, got {name!r}")
    sigma = parse_sigma(entry["sigma"]) if "sigma" in entry else None
    gamma = parse_gamma(entry["gamma"]) if "gamma" in entry else None
    try:
        spec = ControllerSpec(entry["kind"], sigma_sel=sigma, gamma_sel=gamma)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return name, spec


def _check_seed(seed):
    """The seed of a config or of ``verify --seed``, if a nonnegative integer."""
    if type(seed) is not int or seed < 0:
        raise ConfigError(f"seed must be a nonnegative integer, got {seed!r}")
    return seed


def load_run_config(path: Path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config document must be a JSON object")
    refuse_booleans(data, "config")
    unknown = set(data) - _RUN_KEYS
    if unknown:
        raise ConfigError(f"unknown config key(s): {sorted(unknown)}")
    for key in ("scenario_path", "controllers", "x0"):
        if key not in data:
            raise ConfigError(f"config key {key!r} is required")
    for key in ("scenario_path", "output_dir"):
        if not isinstance(data.get(key, ""), str):
            raise ConfigError(f"{key} must be a string, got {data[key]!r}")

    controllers = data["controllers"]
    if not isinstance(controllers, list) or not controllers:
        raise ConfigError("no controllers configured")
    parsed = tuple(parse_controller(entry) for entry in controllers)
    names = [name for name, _ in parsed]
    if len(set(names)) != len(names):
        raise ConfigError(f"controller names must be unique, got {names}")

    sim_data = data.get("sim", {})
    if not isinstance(sim_data, dict):
        raise ConfigError("'sim' must be an object")
    unknown = set(sim_data) - _SIM_KEYS
    if unknown:
        raise ConfigError(f"unknown sim key(s): {sorted(unknown)}")
    try:
        sim = SimConfig(**sim_data)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid sim config: {exc}") from exc

    try:
        x0 = _vec2(data["x0"], "x0")
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    seed = _check_seed(data.get("seed", 0))
    scenario_path = resolve_config_path(data["scenario_path"], path.parent, "scenario")

    return RunConfig(
        scenario_path=scenario_path,
        scenario_ref=data["scenario_path"],
        controllers=parsed,
        sim=sim,
        x0=x0,
        output_dir=Path(data.get("output_dir", "apf-rcbf-out")),
        seed=seed,
    )


def _load_scenario_checked(path: Path) -> Scenario:
    try:
        return load_scenario(path)
    except ScenarioValidationError:
        raise
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot load scenario: {exc}") from exc


def _jsonable_metrics(m) -> dict:
    """The fields of a ``TrajectoryMetrics``, non-finite values as null."""
    return {k: v if v is not None and math.isfinite(v) else None for k, v in asdict(m).items()}


def _write_text(path: Path, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _write_outputs(out_dir: Path, outputs) -> None:
    """Write ``outputs``, ``(file name, write(path))`` pairs, into ``out_dir``.

    Every file is first written into a staging directory inside ``out_dir``
    and moved into place only once all of them are written and none of
    their names is taken by a directory, so a failure leaves any file of an
    earlier run as it was.  On an OSError the staging directory and the
    directories this call made are removed, and the error is re-raised."""
    made_dirs = [d for d in (out_dir, *out_dir.parents) if not d.exists()]
    stage = None
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        stage = Path(tempfile.mkdtemp(prefix=".apf-rcbf-", dir=out_dir))
        for name, write in outputs:
            write(stage / name)
        for name, _ in outputs:
            if (out_dir / name).is_dir():
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR),
                                        str(out_dir / name))
        for name, _ in outputs:
            os.replace(stage / name, out_dir / name)
        stage.rmdir()
    except OSError:
        if stage is not None:
            shutil.rmtree(stage, ignore_errors=True)
        for d in made_dirs:  # innermost first
            with contextlib.suppress(OSError):
                d.rmdir()
        raise


def cmd_run(args) -> int:
    config_path = resolve_config_path(args.config)
    cfg = load_run_config(config_path)
    scenario = _load_scenario_checked(cfg.scenario_path)
    out_dir = Path(args.output_dir) if args.output_dir else cfg.output_dir

    # every rollout runs before anything is written: a controller that
    # simulate refuses leaves no partial output
    results = []
    for name, spec in cfg.controllers:
        try:
            tr = simulate(scenario, spec, cfg.sim, cfg.x0)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        results.append((name, tr, metrics(tr)))

    lines = [f"scenario: {cfg.scenario_ref}",
             f"x0: [{cfg.x0[0]:g}, {cfg.x0[1]:g}]   dt: {cfg.sim.dt:g}   "
             f"integrator: {cfg.sim.integrator}   t_max: {cfg.sim.t_max:g}",
             "",
             f"{'controller':<16} {'terminal':<14} {'t_goal':>8} {'path_len':>9} "
             f"{'min_clear':>10} {'oscillation':>12}"]
    for name, tr, m in results:
        t_goal = f"{m.time_to_goal:.3f}" if m.time_to_goal is not None else "-"
        min_clear = f"{m.min_clearance:.4f}" if math.isfinite(m.min_clearance) else "-"
        lines.append(f"{name:<16} {tr.terminal:<14} {t_goal:>8} {m.path_length:>9.4f} "
                     f"{min_clear:>10} {m.oscillation:>12.4f}")
    report = "\n".join(lines) + "\n"
    metrics_json = json.dumps({name: _jsonable_metrics(m) for name, _, m in results},
                              indent=2) + "\n"
    outputs = [(f"{name}.csv", partial(write_trajectory_csv, tr)) for name, tr, _ in results]
    outputs += [("metrics.json", partial(_write_text, text=metrics_json)),
                ("report.txt", partial(_write_text, text=report))]
    try:
        _write_outputs(out_dir, outputs)
    except OSError as exc:
        raise ConfigError(f"cannot write output: {exc}") from exc
    sys.stdout.write(report)
    sys.stdout.write(f"\nwrote {len(results)} trajectories to {out_dir}\n")

    if any(tr.terminal == "domain_error" for _, tr, _ in results):
        return 1
    return 0


def cmd_verify(args) -> int:
    from .verify import SUITE_NAMES, run_suites

    config_path = resolve_config_path(args.config)
    cfg = load_run_config(config_path)
    scenario = _load_scenario_checked(cfg.scenario_path)
    seed = _check_seed(args.seed) if args.seed is not None else cfg.seed
    names = SUITE_NAMES if args.suite == "all" else (args.suite,)
    results = run_suites(scenario, names, seed=seed)
    for res in results:
        for line in res.lines:
            sys.stdout.write(line + "\n")
        sys.stderr.write(f"[{res.name}] elapsed {res.elapsed:.2f} s\n")
    return 0 if all(res.passed for res in results) else 1


def _suite_name(value: str) -> str:
    """``value`` if it names a suite of ``verify`` or is ``all``: the
    ``--suite`` check, made when the verify command parses, so that no other
    command imports ``verify``."""
    from .verify import SUITE_NAMES

    choices = SUITE_NAMES + ("all",)
    if value not in choices:
        raise argparse.ArgumentTypeError(
            f"invalid choice: {value!r} (choose from {', '.join(map(repr, choices))})")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="apf-rcbf",
        description="Potential-field navigation with barrier-filtered controllers: "
                    "simulate configured controllers or verify the numerical properties.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate every configured controller")
    p_run.add_argument("config", help="run config JSON (or the name of a bundled one)")
    p_run.add_argument("--output-dir", default=None, help="override the config's output_dir")
    p_run.set_defaults(func=cmd_run)

    p_ver = sub.add_parser("verify", help="run the numerical property suites")
    p_ver.add_argument("config", help="run config JSON (or the name of a bundled one)")
    p_ver.add_argument("--suite", type=_suite_name, default="all",
                       help="one suite of verify, or all (the default)")
    p_ver.add_argument("--seed", type=int, default=None, help="override the config's seed")
    p_ver.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except ScenarioValidationError as exc:
        sys.stderr.write("invalid scenario:\n")
        for violation in exc.violations:
            sys.stderr.write(f"  - {violation}\n")
        return 3


def entry():
    """The ``apf-rcbf`` command: :func:`main` on ``sys.argv``, then the end
    of the process with its code.

    Every output is written and closed by then, so once stdout and stderr
    are flushed the process ends with ``os._exit`` and skips the
    interpreter's teardown (module clean-up, final collections, atexit
    hooks).  Should a flush fail (say, the reader closed stdout), ``sys.exit``
    leaves the report and the exit status to the interpreter, as a normal
    exit does.  In-process callers, and tools that report at exit such as
    coverage or cProfile, call :func:`main` instead."""
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except Exception:
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    entry()
