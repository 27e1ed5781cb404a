"""Command-line behaviour: config parsing, output files, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from apf_rcbf import cli, read_trajectory_csv
from apf_rcbf.errors import ConfigError

SRC = Path(cli.__file__).resolve().parent.parent


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return path


def crash_scenario():
    """Head-on setup the unfiltered stabilizer cannot survive."""
    return {
        "goal": [4.0, 0.0],
        "obstacles": [{"center": [2.0, 0.0], "radius": 0.5, "rho0": 0.2}],
        "k_att": 1.0, "k_rep": 1.0, "alpha_gain": 1.0,
    }


def without(doc, key):
    """A copy of the object ``doc`` without ``key``."""
    return {k: v for k, v in doc.items() if k != key}


def run_config(scenario_path, **overrides):
    doc = {
        "scenario_path": str(scenario_path),
        "controllers": [
            {"name": "pure", "kind": "apf"},
            {"name": "filtered", "kind": "generalized",
             "sigma": {"kind": "grad_norm_squared"},
             "gamma": {"kind": "scaled_special", "lambda": 1.0}},
        ],
        "sim": {"dt": 0.01, "t_max": 40.0, "goal_tolerance": 0.05,
                "integrator": "rk4"},
        "x0": [-2.0, 0.0],
    }
    doc.update(overrides)
    return doc


# ------------------------------------------------------------------ paths


def test_resolve_existing_path(tmp_path):
    p = write_json(tmp_path / "cfg.json", {})
    assert cli.resolve_config_path(str(p)) == p


def test_resolve_bundled_name():
    p = cli.resolve_config_path("fig2.json")
    assert p.exists()
    assert p.name == "fig2.json"


def test_resolve_missing():
    with pytest.raises(ConfigError, match="config file not found"):
        cli.resolve_config_path("no-such-config.json")
    with pytest.raises(ConfigError, match="config file not found"):
        cli.resolve_config_path("some/dir/fig2.json")  # not a bare name


# -------------------------------------------------------------- selectors


def test_parse_sigma_kinds():
    assert cli.parse_sigma({"kind": "grad_norm_squared"}).kind == "grad_norm_squared"
    sel = cli.parse_sigma({"kind": "scaled_value", "coef": 2.0})
    assert sel.coefficient == 2.0
    sel = cli.parse_sigma({"kind": "scaled_norm", "coef": 1.5})
    assert sel.coefficient == 1.5
    sel = cli.parse_sigma({"kind": "custom",
                           "table": {"x": [0.0, 1.0], "y": [0.0, 2.0]}})
    assert sel.kind == "custom"


# The id of a row names the rule it checks; the message pins what is said.
@pytest.mark.parametrize("doc,msg", [
    pytest.param("nope", r"^sigma selector must be a JSON object, got 'nope'$",
                 id="nope-must be an object with a 'kind'"),
    pytest.param({}, r"^missing sigma selector key\(s\): \['kind'\]$",
                 id="doc1-must be an object with a 'kind'"),
    ({"kind": "grad_norm_squared", "zeta": 1}, "unknown sigma selector key"),
    pytest.param({"kind": "scaled_value"},
                 "^scaled_value sigma selector requires a positive coefficient, got None$",
                 id="doc3-requires 'coef'"),
    ({"kind": "custom"}, "requires a table"),
    pytest.param({"kind": "custom", "table": {"x": [0, 1]}},
                 r"^missing sigma table key\(s\): \['y'\]$", id="doc5-'x' and 'y'"),
    ({"kind": "banana"}, "unknown sigma selector kind"),
    ({"kind": "scaled_value", "coef": -2.0}, "positive"),
    ({"kind": ["custom"]}, "unknown sigma selector kind"),
    # a key set to null is given, not missing
    pytest.param({"kind": "grad_norm_squared", "coef": None},
                 r"^sigma selector 'grad_norm_squared' takes no coefficient, got None$",
                 id="grad_norm_squared-null-coef"),
    pytest.param({"kind": "custom", "coef": None, "table": {"x": [0, 1], "y": [0, 1]}},
                 r"^sigma selector 'custom' takes no coefficient, got None$",
                 id="custom-null-coef"),
    pytest.param({"kind": "scaled_value", "coef": None},
                 "^scaled_value sigma selector requires a positive coefficient, got None$",
                 id="scaled_value-null-coef"),
])
def test_parse_sigma_rejects(doc, msg):
    with pytest.raises(ConfigError, match=msg):
        cli.parse_sigma(doc)


def test_parse_gamma_kinds():
    assert cli.parse_gamma({"kind": "zero"}).kind == "zero"
    sel = cli.parse_gamma({"kind": "scaled_special", "lambda": 8.0})
    assert sel.lam == 8.0
    sel = cli.parse_gamma({"kind": "custom",
                           "table": {"x": [0.0, 0.2], "y": [0.0, 0.1]}})
    assert sel.kind == "custom"


@pytest.mark.parametrize("doc,msg", [
    pytest.param({"kind": "scaled_special"},
                 "^scaled_special gamma selector requires a positive lambda, got None$",
                 id="doc0-requires 'lambda'"),
    ({"kind": "zero", "lam": 1}, "unknown gamma selector key"),
    ({"kind": "what"}, "unknown gamma selector kind"),
    pytest.param({"kind": "custom", "table": [0, 1]},
                 r"^gamma table must be a JSON object, got \[0, 1\]$", id="doc3-'x' and 'y'"),
    ({"kind": ["custom"]}, "unknown gamma selector kind"),
    # a key set to null is given, not missing
    pytest.param({"kind": "zero", "lambda": None},
                 r"^gamma selector 'zero' takes no lambda, got None$", id="zero-null-lambda"),
    pytest.param({"kind": "custom", "lambda": None, "table": {"x": [0, 1], "y": [0, 1]}},
                 r"^gamma selector 'custom' takes no lambda, got None$", id="custom-null-lambda"),
    pytest.param({"kind": "scaled_special", "lambda": None},
                 "^scaled_special gamma selector requires a positive lambda, got None$",
                 id="scaled_special-null-lambda"),
])
def test_parse_gamma_rejects(doc, msg):
    with pytest.raises(ConfigError, match=msg):
        cli.parse_gamma(doc)


def test_parse_controller_rejects():
    with pytest.raises(ConfigError, match=r"^controller must be a JSON object, got \['apf'\]$"):
        cli.parse_controller(["apf"])
    with pytest.raises(ConfigError, match="unknown controller key"):
        cli.parse_controller({"name": "a", "kind": "apf", "speed": 9})
    with pytest.raises(ConfigError, match=r"^missing controller key\(s\): \['name'\]$"):
        cli.parse_controller({"kind": "apf"})
    # selector rules surface as config errors, not bare ValueErrors
    with pytest.raises(ConfigError, match="takes no selectors"):
        cli.parse_controller({"name": "a", "kind": "apf",
                              "sigma": {"kind": "grad_norm_squared"}})
    with pytest.raises(ConfigError, match="requires sigma_sel"):
        cli.parse_controller({"name": "a", "kind": "nominal_only"})


# ------------------------------------------------------------- run config


def test_load_run_config_defaults(tmp_path):
    scen = write_json(tmp_path / "scen.json", crash_scenario())
    cfg_path = write_json(tmp_path / "cfg.json", run_config("scen.json"))
    cfg = cli.load_run_config(cfg_path)
    assert cfg.scenario_path == scen  # relative to the config file
    assert [name for name, _ in cfg.controllers] == ["pure", "filtered"]
    assert cfg.sim.dt == 0.01
    np.testing.assert_array_equal(cfg.x0, [-2.0, 0.0])
    assert str(cfg.output_dir) == "apf-rcbf-out"
    assert cfg.seed == 0


def test_load_run_config_bundled_scenario_fallback(tmp_path):
    cfg_path = write_json(tmp_path / "cfg.json", run_config("fig2_scenario.json"))
    cfg = cli.load_run_config(cfg_path)
    assert cfg.scenario_path.exists()
    assert cfg.scenario_path.name == "fig2_scenario.json"
    assert "data" in cfg.scenario_path.parts


@pytest.mark.parametrize("mutate,msg", [
    (lambda d: d.update(extra=1), "unknown config key"),
    pytest.param(lambda d: d.pop("scenario_path"),
                 r"^missing config key\(s\): \['scenario_path'\]$",
                 id="<lambda>-'scenario_path' is required"),
    pytest.param(lambda d: d.pop("controllers"), r"^missing config key\(s\): \['controllers'\]$",
                 id="<lambda>-'controllers' is required"),
    pytest.param(lambda d: d.pop("x0"), r"^missing config key\(s\): \['x0'\]$",
                 id="<lambda>-'x0' is required"),
    (lambda d: d.update(controllers=[]), "no controllers configured"),
    (lambda d: d.update(controllers="apf"), "no controllers configured"),
    (lambda d: d.update(controllers=d["controllers"] + [d["controllers"][0]]),
     "names must be unique"),
    pytest.param(lambda d: d.update(sim=[1]), r"^sim must be a JSON object, got \[1\]$",
                 id="<lambda>-'sim' must be an object"),
    (lambda d: d["sim"].update(step=0.1), "unknown sim key"),
    (lambda d: d["sim"].update(dt=1.0), "invalid sim config"),
    (lambda d: d.update(x0=[1.0]), "x0 must be a finite 2-vector"),
    (lambda d: d.update(x0=[1.0, None]), "x0 must be a finite 2-vector"),
    (lambda d: d.update(scenario_path="gone.json"), "scenario file not found"),
])
def test_load_run_config_rejects(tmp_path, mutate, msg):
    write_json(tmp_path / "scen.json", crash_scenario())
    doc = run_config("scen.json")
    mutate(doc)
    cfg_path = write_json(tmp_path / "cfg.json", doc)
    with pytest.raises(ConfigError, match=msg):
        cli.load_run_config(cfg_path)


def test_load_run_config_bad_documents(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{oops")
    with pytest.raises(ConfigError, match="not valid JSON"):
        cli.load_run_config(p)
    p2 = tmp_path / "list.json"
    p2.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="must be a JSON object"):
        cli.load_run_config(p2)
    with pytest.raises(ConfigError, match="cannot read config"):
        cli.load_run_config(tmp_path / "absent.json")


# ------------------------------------------------------------ subcommands


def test_run_command_end_to_end(tmp_path, capsys):
    cfg_path = write_json(
        tmp_path / "cfg.json",
        run_config("fig2_scenario.json", output_dir=str(tmp_path / "out")))
    rc = cli.main(["run", str(cfg_path)])
    assert rc == 0
    out = tmp_path / "out"

    stdout = capsys.readouterr().out
    assert "wrote 2 trajectories" in stdout
    assert "pure" in stdout and "filtered" in stdout

    with open(out / "metrics.json", encoding="utf-8") as fh:
        doc = json.load(fh)
    assert set(doc) == {"pure", "filtered"}
    for entry in doc.values():
        assert set(entry) == {"path_length", "min_clearance",
                              "time_to_goal", "oscillation"}
        assert entry["time_to_goal"] is not None  # both reach the goal
        assert entry["min_clearance"] > 0

    report = (out / "report.txt").read_text()
    assert report in stdout
    assert "reached_goal" in report

    tr = read_trajectory_csv(out / "pure.csv", terminal="reached_goal")
    assert tr.n_samples > 10
    assert tr.phi.shape[1] == 3


def test_run_command_output_dir_override(tmp_path, capsys):
    cfg_path = write_json(
        tmp_path / "cfg.json",
        run_config("fig2_scenario.json", output_dir=str(tmp_path / "ignored"),
                   sim={"dt": 0.01, "t_max": 0.5}))
    override = tmp_path / "elsewhere"
    rc = cli.main(["run", str(cfg_path), "--output-dir", str(override)])
    assert rc == 0
    assert (override / "pure.csv").exists()
    assert not (tmp_path / "ignored").exists()


def test_run_outputs_do_not_depend_on_where_the_config_lives(tmp_path, capsys):
    """The same config and scenario in two directories, each run by its
    absolute path: report.txt names the scenario as the config gives it, so
    every output file is byte-identical."""
    outputs = []
    for place in ("a", "deeper/b"):
        where = tmp_path / place
        where.mkdir(parents=True)
        write_json(where / "scen.json", crash_scenario())
        write_json(where / "cfg.json",
                   run_config("scen.json", sim={"dt": 0.01, "t_max": 2.0}, x0=[-1.0, 1.0]))
        assert cli.main(["run", str(where / "cfg.json"), "--output-dir", str(where / "out")]) == 0
        outputs.append({p.name: p.read_bytes() for p in (where / "out").iterdir()})
    assert outputs[0] == outputs[1]
    assert sorted(outputs[0]) == ["filtered.csv", "metrics.json", "pure.csv", "report.txt"]
    assert outputs[0]["report.txt"].startswith(b"scenario: scen.json\n")


def test_run_command_domain_error_exit_code(tmp_path, capsys):
    write_json(tmp_path / "scen.json", crash_scenario())
    doc = run_config("scen.json",
                     controllers=[{"name": "blind", "kind": "nominal_only",
                                   "sigma": {"kind": "grad_norm_squared"}}],
                     sim={"dt": 0.05, "t_max": 10.0, "goal_tolerance": 0.05,
                          "integrator": "euler"},
                     x0=[0.0, 0.0],
                     output_dir=str(tmp_path / "out"))
    cfg_path = write_json(tmp_path / "cfg.json", doc)
    rc = cli.main(["run", str(cfg_path)])
    assert rc == 1
    assert "domain_error" in capsys.readouterr().out
    with open(tmp_path / "out" / "metrics.json", encoding="utf-8") as fh:
        assert json.load(fh)["blind"]["time_to_goal"] is None


def test_exit_code_2_for_config_trouble(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text("{oops")
    assert cli.main(["run", str(p)]) == 2
    assert capsys.readouterr().err.startswith("error:")

    assert cli.main(["run", "never-there.json"]) == 2

    # starting inside an obstacle is a configuration problem, not a crash
    write_json(tmp_path / "scen.json", crash_scenario())
    doc = run_config("scen.json", x0=[2.0, 0.1],
                     output_dir=str(tmp_path / "out"))
    cfg_path = write_json(tmp_path / "cfg.json", doc)
    assert cli.main(["run", str(cfg_path)]) == 2
    assert "strictly outside" in capsys.readouterr().err


@pytest.mark.parametrize("command, mutate_cfg, mutate_scen", [
    ("run", lambda c: c.update(x0=["a", 0]), None),
    ("run", lambda c: c.update(seed="x"), None),
    ("verify", lambda c: c.update(seed="x"), None),
    ("run", lambda c: c.update(seed=True), None),
    ("run", lambda c: c.update(seed=3.7), None),
    ("run", lambda c: c["controllers"].append(
        {"name": "nominal", "kind": "nominal_only",
         "sigma": {"kind": "scaled_value", "coef": [1]}}), None),
    ("run", lambda c: c["controllers"][1]["gamma"].update({"lambda": {"a": 1}}), None),
    ("run", None, lambda s: s["obstacles"][0].update(radius=[0.5])),
    ("run", None, lambda s: s.update(k_att=None)),
    ("run", None, lambda s: s.update(obstacles=5)),
    ("run", None, lambda s: s.update(obstacles=None)),
    ("run", None, lambda s: s.update(obstacles=1.5)),
    ("run", None, lambda s: s.update(obstacles={})),
], ids=["x0-string", "seed-string", "verify-seed-string", "seed-bool", "seed-float",
        "coef-list", "lambda-object", "radius-list", "k_att-null", "obstacles-int",
        "obstacles-null", "obstacles-float", "obstacles-object"])
def test_exit_code_2_for_mistyped_value(tmp_path, capsys, command, mutate_cfg, mutate_scen):
    """A value of the wrong type in a config or scenario is a configuration
    error, not a crash (exit 1 means a rollout ended in domain_error)."""
    scen = crash_scenario()
    cfg = run_config("scen.json")
    if mutate_scen:
        mutate_scen(scen)
    if mutate_cfg:
        mutate_cfg(cfg)
    write_json(tmp_path / "scen.json", scen)
    rc = cli.main([command, str(write_json(tmp_path / "cfg.json", cfg))])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("mutate_cfg, mutate_scen", [
    (None, lambda s: s.update(goal={"x": 1})),
    (lambda c: c["controllers"][1].update(
        sigma={"kind": "custom", "table": {"x": [0, {"a": 1}], "y": [0, 1]}}), None),
    (lambda c: c["controllers"].append(
        {"name": "nominal", "kind": "nominal_only",
         "sigma": {"kind": "scaled_value", "coef": float("inf")}}), None),
    (lambda c: c.update(scenario_path="no_such_dir/fig2_scenario.json"), None),
    (lambda c: c.update(output_dir={"a": [1, 2]}), None),
    (lambda c: c.update(output_dir=7), None),
    (lambda c: c.update(scenario_path=7), None),
    (lambda c: c.update(scenario_path=["scen.json"]), None),
    (None, lambda s: s.update(goal=["5", "0"])),
    (None, lambda s: s["obstacles"][0].update(radius="0.5")),
    (None, lambda s: s.update(k_att="1")),
    (lambda c: c.update(x0=["-2", "0"]), None),
    (lambda c: c["sim"].update(dt="0.01"), None),
    (lambda c: c["controllers"][1]["gamma"].update({"lambda": "8"}), None),
    (lambda c: c.update(output_dir=""), None),
    # each JSON object of the two documents: not an object, an unknown key,
    # a missing key (no key of sim is required)
    (None, lambda s: [s]),
    (None, lambda s: s.update(extra=1)),
    (None, lambda s: without(s, "k_rep")),
    (None, lambda s: s.update(obstacles=[[2.0, 0.0, 0.5, 0.2]])),
    (None, lambda s: s["obstacles"][0].update(color="red")),
    (None, lambda s: s.update(obstacles=[without(s["obstacles"][0], "rho0")])),
    (lambda c: [c], None),
    (lambda c: c.update(extra=1), None),
    (lambda c: without(c, "x0"), None),
    (lambda c: c.update(controllers=["apf"]), None),
    (lambda c: c["controllers"][0].update(speed=9), None),
    (lambda c: c.update(controllers=[without(c["controllers"][0], "name")]), None),
    (lambda c: c.update(sim=[0.01]), None),
    (lambda c: c["sim"].update(step=0.1), None),
    (lambda c: c["controllers"][1].update(gamma="scaled_special"), None),
    (lambda c: c["controllers"][1]["gamma"].update(zeta=1), None),
    (lambda c: c["controllers"][1].update(gamma={"lambda": 1.0}), None),
    (lambda c: c["controllers"][1].update(sigma={"kind": "custom", "table": [[0, 0], [1, 1]]}),
     None),
    (lambda c: c["controllers"][1].update(
        sigma={"kind": "custom", "table": {"x": [0, 1], "y": [0, 1], "z": [0, 1]}}), None),
    (lambda c: c["controllers"][1].update(sigma={"kind": "custom", "table": {"x": [0, 1]}}),
     None),
    # a key that the selector's kind does not take
    (lambda c: c["controllers"][1].update(gamma={"kind": "zero", "lambda": 5}), None),
    (lambda c: c["controllers"][1].update(
        gamma={"kind": "scaled_special", "lambda": 1, "table": {"x": [0, 1], "y": [0, 1]}}),
     None),
    (lambda c: c["controllers"][1].update(
        sigma={"kind": "scaled_value", "coef": 2, "table": "garbage"}), None),
    (lambda c: c["controllers"][1].update(gamma={"kind": "zero", "lambda": None}), None),
    (lambda c: c["controllers"][1]["sigma"].update(coef=None), None),
], ids=["goal-object", "sigma-table-object", "coef-infinity", "scenario-in-missing-dir",
        "output-dir-object", "output-dir-number", "scenario-path-number",
        "scenario-path-list", "goal-strings", "radius-string", "k_att-string",
        "x0-strings", "dt-string", "lambda-string", "output-dir-empty",
        "scenario-not-object", "scenario-unknown-key", "scenario-missing-key",
        "obstacle-not-object", "obstacle-unknown-key", "obstacle-missing-key",
        "config-not-object", "config-unknown-key", "config-missing-key",
        "controller-not-object", "controller-unknown-key", "controller-missing-key",
        "sim-not-object", "sim-unknown-key",
        "selector-not-object", "selector-unknown-key", "selector-missing-key",
        "table-not-object", "table-unknown-key", "table-missing-key",
        "zero-with-lambda", "scaled_special-with-table", "scaled_value-with-table",
        "zero-with-null-lambda", "grad_norm_squared-with-null-coef"])
def test_refused_input_is_one_error_line_and_no_output(tmp_path, capsys, monkeypatch,
                                                       mutate_cfg, mutate_scen):
    """A goal or table entry that is no number, an infinite coefficient
    (Python's json reads ``Infinity``), a scenario path into a missing
    directory (only a bare file name falls back to the bundled file), an
    output directory or scenario path that is no string or is empty, a
    number written as a string, a JSON object of either document that is no
    object or has an unknown or missing key, and a selector key that its
    kind does not take end with exit 2 and one ``error:`` line, before any
    output is written.  A mutation edits its document in place or returns
    the document to write instead."""
    monkeypatch.chdir(tmp_path)
    scen = crash_scenario()
    cfg = run_config("scen.json", output_dir=str(tmp_path / "out"))
    if mutate_scen:
        scen = mutate_scen(scen) or scen
    if mutate_cfg:
        cfg = mutate_cfg(cfg) or cfg
    write_json(tmp_path / "scen.json", scen)
    rc = cli.main(["run", str(write_json(tmp_path / "cfg.json", cfg))])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "scen.json"]


@pytest.mark.parametrize("mutate_cfg, mutate_scen, error", [
    (lambda c: c["controllers"].append({"name": "third", "kind": "apf", "speed": 9}), None,
     "controller 2: unknown controller key(s): ['speed']"),
    (lambda c: c["controllers"][1].pop("name"), None,
     "controller 1: missing controller key(s): ['name']"),
    (lambda c: c["controllers"][1]["gamma"].update({"lambda": None}), None,
     "controller 1: scaled_special gamma selector requires a positive lambda, got None"),
    (None, lambda s: s["obstacles"].append({"center": [2.0, 2.0], "radius": "0.5",
                                            "rho0": 0.2}),
     "cannot load scenario: obstacle 1: radius must be a finite number, got '0.5'"),
    (None, lambda s: s["obstacles"][0].update(center=[2.0, None]),
     "cannot load scenario: obstacle 0: obstacle center must be a finite 2-vector, "
     "got [2.0, None]"),
], ids=["third-controller-key", "second-controller-name", "second-controller-lambda",
        "second-obstacle-radius", "first-obstacle-center"])
def test_refusals_name_their_entry(tmp_path, capsys, mutate_cfg, mutate_scen, error):
    """A refusal inside one controller entry or one obstacle names the
    entry by its index in the document's array."""
    scen = crash_scenario()
    cfg = run_config("scen.json", output_dir=str(tmp_path / "out"))
    if mutate_scen:
        mutate_scen(scen)
    if mutate_cfg:
        mutate_cfg(cfg)
    write_json(tmp_path / "scen.json", scen)
    assert cli.main(["run", str(write_json(tmp_path / "cfg.json", cfg))]) == 2
    assert capsys.readouterr().err == f"error: {error}\n"


def test_empty_output_dir_flag_is_refused(tmp_path, capsys, monkeypatch):
    """``--output-dir ""`` would be the working directory, not the config's
    output directory: exit 2, one ``error:`` line, and nothing written."""
    monkeypatch.chdir(tmp_path)
    write_json(tmp_path / "scen.json", crash_scenario())
    cfg_path = write_json(tmp_path / "cfg.json",
                          run_config("scen.json", output_dir=str(tmp_path / "out")))
    assert cli.main(["run", str(cfg_path), "--output-dir", ""]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --output-dir must be a nonempty string, got ''\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "scen.json"]


def test_scenario_path_is_read_from_the_config_directory(tmp_path, capsys):
    """A relative scenario path is read from the config's directory, an
    absolute one as it is; a bare name missing there is the bundled file."""
    (tmp_path / "sub").mkdir()
    scen = write_json(tmp_path / "sub" / "scen.json", crash_scenario())
    for given in ("sub/scen.json", str(scen)):
        cfg = cli.load_run_config(write_json(tmp_path / "cfg.json", run_config(given)))
        assert cfg.scenario_path == scen and cfg.scenario_ref == given
    with pytest.raises(ConfigError, match="scenario file not found: sub/fig2_scenario.json"):
        cli.load_run_config(write_json(tmp_path / "cfg.json",
                                       run_config("sub/fig2_scenario.json")))


@pytest.mark.parametrize("mutate_cfg, mutate_scen, where", [
    (lambda c: c["controllers"][1]["gamma"].update({"lambda": True}), None,
     "config['controllers'][1]['gamma']['lambda']"),
    (lambda c: c["sim"].update(t_max=True), None, "config['sim']['t_max']"),
    (lambda c: c.update(x0=[True, 0.0]), None, "config['x0'][0]"),
    (None, lambda s: s.update(k_att=True), "scenario['k_att']"),
    (None, lambda s: s["obstacles"][0].update(radius=True), "scenario['obstacles'][0]['radius']"),
    (None, lambda s: s["obstacles"][0].update(center=[2.0, False]),
     "scenario['obstacles'][0]['center'][1]"),
], ids=["lambda", "sim-t_max", "x0", "k_att", "radius", "center"])
def test_exit_code_2_for_boolean_value(tmp_path, capsys, mutate_cfg, mutate_scen, where):
    """No config or scenario field is a boolean, so ``true`` or ``false`` is
    refused (exit 2, no output) rather than read as 1.0 or 0.0."""
    scen = crash_scenario()
    cfg = run_config("scen.json", output_dir=str(tmp_path / "out"))
    if mutate_scen:
        mutate_scen(scen)
    if mutate_cfg:
        mutate_cfg(cfg)
    write_json(tmp_path / "scen.json", scen)
    assert cli.main(["run", str(write_json(tmp_path / "cfg.json", cfg))]) == 2
    assert f"{where} must not be a boolean" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_exit_code_2_for_unwritable_output_dir(tmp_path, capsys):
    """An output directory that cannot be made is a configuration error, not
    a traceback with exit 1 (which means a rollout ended in domain_error)."""
    write_json(tmp_path / "scen.json", crash_scenario())
    cfg_path = write_json(tmp_path / "cfg.json", run_config("scen.json"))
    (tmp_path / "file").write_text("")
    rc = cli.main(["run", str(cfg_path), "--output-dir", str(tmp_path / "file" / "sub")])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: cannot write output: ")
    assert captured.out == ""


def test_failed_write_removes_what_the_run_created(tmp_path, capsys):
    """A write that fails partway (``gamma2.csv`` is a directory) exits 2
    and leaves no partial output: ``gamma1.csv``, written before it, is
    removed, and what was already in the directory is left as it was."""
    out = tmp_path / "out"
    (out / "gamma2.csv").mkdir(parents=True)
    (out / "keep.txt").write_text("mine", encoding="utf-8")
    rc = cli.main(["run", "fig2.json", "--output-dir", str(out)])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: cannot write output: ")
    assert captured.out == ""
    assert sorted(p.name for p in out.iterdir()) == ["gamma2.csv", "keep.txt"]
    assert (out / "keep.txt").read_text(encoding="utf-8") == "mine"
    assert not any((out / "gamma2.csv").iterdir())


def test_failed_write_keeps_the_files_of_an_earlier_run(tmp_path, capsys):
    """Outputs are staged and moved into place only once all are written:
    with ``gamma2.csv`` a directory, ``gamma1.csv`` from an earlier run keeps
    its bytes, and no staging directory is left behind."""
    out = tmp_path / "out"
    (out / "gamma2.csv").mkdir(parents=True)
    (out / "gamma1.csv").write_text("old run", encoding="utf-8")
    rc = cli.main(["run", "fig2.json", "--output-dir", str(out)])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err == (f"error: cannot write output: [Errno 21] Is a directory: "
                            f"'{out / 'gamma2.csv'}'\n")
    assert captured.out == ""
    assert sorted(p.name for p in out.iterdir()) == ["gamma1.csv", "gamma2.csv"]
    assert (out / "gamma1.csv").read_text(encoding="utf-8") == "old run"


def test_successful_write_replaces_an_earlier_run(tmp_path, capsys):
    """A run over an earlier one replaces its files and leaves no staging
    directory."""
    out = tmp_path / "out"
    out.mkdir()
    (out / "gamma1.csv").write_text("old run", encoding="utf-8")
    assert cli.main(["run", "fig2.json", "--output-dir", str(out)]) == 0
    capsys.readouterr()
    assert sorted(p.name for p in out.iterdir()) == [
        "gamma1.csv", "gamma2.csv", "gamma3.csv", "metrics.json", "report.txt"]
    assert (out / "gamma1.csv").read_text(encoding="utf-8").startswith("t,x,y,ux,uy,h_min,V")


def test_exit_code_2_for_lambda_that_can_overflow(tmp_path, capsys):
    """A scaled-special lambda above ``scenario.max_lambda`` (2**704 for the
    radius-0.5 obstacle here) is refused before any run: exit 2, no output."""
    write_json(tmp_path / "scen.json", crash_scenario())
    cfg = run_config("scen.json", output_dir=str(tmp_path / "out"))
    cfg["controllers"] = [cfg["controllers"][1]]
    cfg["controllers"][0]["gamma"]["lambda"] = 1e300
    assert cli.main(["run", str(write_json(tmp_path / "cfg.json", cfg))]) == 2
    assert capsys.readouterr().err == (
        "error: scaled_special lambda 1e+300 exceeds 8.42e+211 for obstacle 0, where "
        "lambda*|F_rep|^2 can overflow at the smallest clearance\n")
    assert not (tmp_path / "out" / "filtered.csv").exists()


def test_exit_code_2_for_nominal_only_with_gamma(tmp_path, capsys):
    """A ``nominal_only`` entry runs unfiltered, so a ``gamma`` in it is a
    configuration error, not a silently ignored key."""
    write_json(tmp_path / "scen.json", crash_scenario())
    cfg = run_config("scen.json", output_dir=str(tmp_path / "out"))
    cfg["controllers"] = [{"name": "nominal", "kind": "nominal_only",
                           "sigma": {"kind": "grad_norm_squared"},
                           "gamma": {"kind": "zero"}}]
    assert cli.main(["run", str(write_json(tmp_path / "cfg.json", cfg))]) == 2
    assert capsys.readouterr().err == (
        "error: controller 0: nominal_only controller takes no gamma_sel\n")
    assert not (tmp_path / "out").exists()


def test_run_writes_nothing_when_a_later_controller_is_refused(tmp_path, capsys):
    """Every rollout runs before the output directory is made: an apf run
    followed by a lambda that simulate refuses leaves no partial output."""
    write_json(tmp_path / "scen.json", crash_scenario())
    cfg = run_config("scen.json", output_dir=str(tmp_path / "out"))
    cfg["controllers"][1]["gamma"]["lambda"] = 1e300
    assert cli.main(["run", str(write_json(tmp_path / "cfg.json", cfg))]) == 2
    assert "exceeds" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name", ["a/b", "../escape", "", 7, ".", "..", "nul\0byte"],
                         ids=["slash", "parent-escape", "empty", "int", "dot", "dotdot", "nul"])
def test_controller_name_must_be_a_single_file_name(tmp_path, capsys, name):
    """The name becomes ``<output_dir>/<name>.csv``: anything but one plain
    file name is a configuration error, and nothing is written."""
    write_json(tmp_path / "scen.json", crash_scenario())
    cfg = run_config("scen.json", output_dir=str(tmp_path / "out"))
    cfg["controllers"][0]["name"] = name
    assert cli.main(["run", str(write_json(tmp_path / "cfg.json", cfg))]) == 2
    assert capsys.readouterr().err == (
        f"error: controller 0: controller name must be a single file name, got {name!r}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "scen.json"]


def test_verify_seed_override_follows_config_seed_rule(capsys):
    """``verify --seed`` takes the config's seed rule: a negative seed is a
    configuration error, not a crash inside the random generator."""
    rc = cli.main(["verify", "fig2.json", "--suite", "gradients", "--seed", "-1"])
    assert rc == 2
    assert capsys.readouterr().err == "error: seed must be a nonnegative integer, got -1\n"


def test_verify_of_a_covered_box_is_a_configuration_error(tmp_path, capsys):
    """An obstacle that covers the whole verify box leaves the gradient
    suite no state to check: one ``error:`` line and exit 2, nothing on
    stdout."""
    scenario = {**crash_scenario(), "goal": [100.0, 0.0],
                "obstacles": [{"center": [3.0, 2.0], "radius": 20.0, "rho0": 0.2}]}
    write_json(tmp_path / "scen.json", scenario)
    cfg_path = write_json(tmp_path / "cfg.json", run_config("scen.json", x0=[-30.0, 0.0]))
    assert cli.main(["verify", str(cfg_path), "--suite", "gradients"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: no gradient state found: 10000 random states in a row")
    assert err.count("\n") == 1


def test_exit_code_3_for_invalid_scenario(tmp_path, capsys):
    bad = crash_scenario()
    bad["k_att"] = -1.0
    bad["obstacles"][0]["radius"] = 0.0
    write_json(tmp_path / "scen.json", bad)
    cfg_path = write_json(tmp_path / "cfg.json", run_config("scen.json"))
    rc = cli.main(["run", str(cfg_path)])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("invalid scenario:")
    assert err.count("  - ") >= 2  # every violation is listed


def test_exit_code_3_for_radius_below_float_floor(tmp_path, capsys):
    """A 1e-150 arena used to crash the kernel with ZeroDivisionError two ulps
    outside the obstacle; it is now an invalid scenario."""
    tiny = crash_scenario()
    tiny["goal"] = [1.0, 0.0]
    tiny["obstacles"] = [{"center": [0.0, 0.0], "radius": 1e-150, "rho0": 1e-150}]
    write_json(tmp_path / "scen.json", tiny)
    x = float(np.nextafter(np.nextafter(1e-150, 1.0), 1.0))
    cfg = run_config("scen.json", x0=[x, 0.0],
                     sim={"dt": 0.01, "t_max": 1.0, "goal_tolerance": 1e-151})
    rc = cli.main(["run", str(write_json(tmp_path / "cfg.json", cfg))])
    assert rc == 3
    assert "radius below 3.01e-36" in capsys.readouterr().err


def test_verify_command_single_suite(capsys):
    rc = cli.main(["verify", "fig2.json", "--suite", "equivalence"])
    assert rc == 0
    captured = capsys.readouterr()
    assert "[equivalence]" in captured.out
    assert "PASS" in captured.out
    assert "FAIL" not in captured.out
    assert "elapsed" in captured.err


def test_argparse_rejects_unknown_suite(capsys):
    """``--suite`` is checked against ``verify.SUITE_NAMES`` when the verify
    command parses, with argparse's own exit code and message."""
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["verify", "fig2.json", "--suite", "nope"])
    assert excinfo.value.code == 2
    assert capsys.readouterr().err.endswith(
        "error: argument --suite: invalid choice: 'nope' "
        "(choose from 'equivalence', 'gradients', 'oracle', 'all')\n")


def _child(args, cwd, stdout):
    """``python <args>`` in a fresh interpreter that imports the package from
    ``SRC``, its stderr a pipe, both streams block-buffered as a shell pipe
    makes them."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, stdout=stdout,
                          stderr=subprocess.PIPE, timeout=120)


def test_entry_exits_with_main_code(tmp_path, monkeypatch, capsys):
    """``entry`` ends the process with the code of ``main``, 0 to 3, and what
    the child printed to its pipes is complete: the bytes ``main`` writes in
    process."""
    write_json(tmp_path / "scen.json", crash_scenario())
    bad = crash_scenario()
    bad["k_att"] = -1.0
    write_json(tmp_path / "bad.json", bad)
    configs = {
        0: run_config("scen.json", x0=[-1.0, 1.0],
                      controllers=[{"name": "pure", "kind": "apf"}]),
        1: run_config("scen.json", x0=[0.0, 0.0],
                      controllers=[{"name": "blind", "kind": "nominal_only",
                                    "sigma": {"kind": "grad_norm_squared"}}],
                      sim={"dt": 0.05, "t_max": 10.0, "integrator": "euler"}),
        3: run_config("bad.json"),
    }
    for side in ("child", "main"):
        (tmp_path / side).mkdir()
    monkeypatch.chdir(tmp_path / "main")
    for code in (0, 1, 2, 3):
        cfg = (str(write_json(tmp_path / f"cfg{code}.json", configs[code]))
               if code in configs else "never-there.json")
        argv = ["run", cfg, "--output-dir", f"out{code}"]
        child = _child(["-m", "apf_rcbf", *argv], tmp_path / "child", subprocess.PIPE)
        assert cli.main(argv) == code
        captured = capsys.readouterr()
        assert child.returncode == code, child.stderr[-2000:]
        assert child.stdout.decode() == captured.out
        assert child.stderr.decode() == captured.err
        assert (code in (0, 1)) == bool(captured.out)


def test_entry_with_stdout_closed_exits_as_the_interpreter_does(tmp_path):
    """When the reader has closed stdout, ``entry``'s flush fails and the
    interpreter's normal exit reports it: the status and stderr of a child
    that returns ``main``'s code through ``sys.exit``."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        argv = ["run", "fig2.json", "--output-dir", "out"]
        child = _child(["-m", "apf_rcbf", *argv], tmp_path, write_end)
        plain = f"import sys; from apf_rcbf.cli import main; sys.exit(main({argv!r}))"
        reference = _child(["-c", plain], tmp_path, write_end)
    finally:
        os.close(write_end)
    assert reference.returncode not in (0, 1)
    assert (child.returncode, child.stderr) == (reference.returncode, reference.stderr)
    assert b"BrokenPipeError" in child.stderr


def test_zero_sample_run_writes_and_reads_back_an_empty_trajectory(tmp_path, capsys):
    """A run whose first control overflows ends in ``domain_error`` with no
    sample: the CSV is its header alone, and reading it back gives empty
    columns of the right shapes without numpy's empty-input warning."""
    write_json(tmp_path / "scen.json", {
        "goal": [0.0, 0.0],
        "obstacles": [{"center": [5.0, 5.0], "radius": 1.0, "rho0": 0.5}],
        "k_att": 1e300, "k_rep": 1.0, "alpha_gain": 1.0,
    })
    cfg = run_config("scen.json", output_dir=str(tmp_path / "out"), x0=[1e10, 0.0],
                     controllers=[{"name": "pure", "kind": "apf"}],
                     sim={"dt": 0.01, "t_max": 1.0, "integrator": "euler"})
    assert cli.main(["run", str(write_json(tmp_path / "cfg.json", cfg))]) == 1
    assert "pure             domain_error" in capsys.readouterr().out
    csv = tmp_path / "out" / "pure.csv"
    assert csv.read_text() == "t,x,y,ux,uy,h_min,V,phi_1\n"
    tr = read_trajectory_csv(csv, terminal="domain_error")
    assert tr.n_samples == 0
    assert (tr.x.shape, tr.u.shape, tr.h_min.shape, tr.V.shape, tr.phi.shape) == (
        (0, 2), (0, 2), (0,), (0,), (0, 1))
