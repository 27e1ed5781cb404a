"""Closed-loop rollouts against hand-stepped integrators, plus metrics and CSV."""

import logging
import math
from collections import deque
import sys
import tracemalloc

import numpy as np
import pytest

from apf_rcbf import (
    ControllerSpec,
    GammaSelector,
    Obstacle,
    Scenario,
    SigmaSelector,
    Trajectory,
    apf_control,
    f_rep,
    metrics,
    nominal_control,
    read_trajectory_csv,
    rho,
    simulate,
    write_trajectory_csv,
)
from apf_rcbf.simulate import CSV_BLOCK_ROWS, csv_header
from conftest import OVERLAP

SQ = SigmaSelector.grad_norm_squared()


def spec_nominal():
    return ControllerSpec("nominal_only", sigma_sel=SQ)


@pytest.fixture(scope="module")
def single():
    return Scenario(goal=[4.0, 0.0],
                    obstacles=(Obstacle([2.0, 0.0], 0.5, 0.2),))


def test_controller_spec_validation():
    with pytest.raises(ValueError, match="unknown controller kind"):
        ControllerSpec("pid")
    with pytest.raises(ValueError, match="requires sigma_sel"):
        ControllerSpec("nominal_only")
    with pytest.raises(ValueError, match="requires sigma_sel"):
        ControllerSpec("generalized", gamma_sel=GammaSelector.zero())
    with pytest.raises(ValueError, match="requires gamma_sel"):
        ControllerSpec("generalized", sigma_sel=SQ)
    with pytest.raises(ValueError, match="takes no selectors"):
        ControllerSpec("apf", sigma_sel=SQ)
    with pytest.raises(ValueError, match="takes no selectors"):
        ControllerSpec("special_filter", gamma_sel=GammaSelector.zero())
    ControllerSpec("apf")
    ControllerSpec("special_filter")
    ControllerSpec("generalized", sigma_sel=SQ, gamma_sel=GammaSelector.zero())


def test_nominal_only_refuses_a_gamma_selector():
    """The unfiltered stabilizer has no tightening to apply: a Gamma given to
    it would be dropped, so it is refused."""
    with pytest.raises(ValueError, match="takes no gamma_sel"):
        ControllerSpec("nominal_only", sigma_sel=SQ, gamma_sel=GammaSelector.zero())


def test_controller_spec_refuses_swapped_selectors():
    """A selector in the other's place fails when the spec is built: a Gamma
    as sigma would otherwise pack as the sigma of its kind code, and run a
    different controller."""
    with pytest.raises(ValueError, match="sigma selector must be a SigmaSelector"):
        ControllerSpec("nominal_only", GammaSelector.scaled_special(3.0))
    with pytest.raises(ValueError, match="sigma selector must be a SigmaSelector"):
        ControllerSpec("generalized", GammaSelector.zero(), SigmaSelector.grad_norm_squared())
    with pytest.raises(ValueError, match="gamma selector must be a GammaSelector or None"):
        ControllerSpec("generalized", SQ, SQ)


def test_sim_config_validation():
    from apf_rcbf import SimConfig
    with pytest.raises(ValueError, match="dt must lie"):
        SimConfig(dt=0.0)
    with pytest.raises(ValueError, match="dt must lie"):
        SimConfig(dt=0.1)
    with pytest.raises(ValueError, match="t_max must be positive"):
        SimConfig(t_max=0.0)
    with pytest.raises(ValueError, match="goal_tolerance must be positive"):
        SimConfig(goal_tolerance=-1.0)
    with pytest.raises(ValueError, match="integrator must be one of"):
        SimConfig(integrator="rk45")
    cfg = SimConfig()
    assert (cfg.dt, cfg.t_max, cfg.goal_tolerance, cfg.integrator) == \
        (0.01, 40.0, 0.05, "rk4")


def test_sim_config_reads_its_numbers(single):
    """dt and goal_tolerance are finite positive numbers, t_max a positive
    one: text, NaN and an infinite tolerance are refused with the pinned
    prefixes, and the fields are stored as floats.  An infinite t_max is
    read, and ``simulate`` refuses it by record size."""
    from apf_rcbf import SimConfig
    for kwargs, prefix in [({"dt": "0.01"}, "dt must lie"), ({"dt": math.nan}, "dt must lie"),
                           ({"dt": math.inf}, "dt must lie"),
                           ({"t_max": "40"}, "t_max must be positive"),
                           ({"t_max": math.nan}, "t_max must be positive"),
                           ({"goal_tolerance": math.inf}, "goal_tolerance must be positive"),
                           ({"goal_tolerance": "0.05"}, "goal_tolerance must be positive"),
                           ({"integrator": ["rk4"]}, "integrator must be one of")]:
        with pytest.raises(ValueError, match=f"^{prefix}"):
            SimConfig(**kwargs)
    cfg = SimConfig(dt=np.float32(0.03125), t_max=np.int64(2), goal_tolerance=1)
    assert [type(v) for v in (cfg.dt, cfg.t_max, cfg.goal_tolerance)] == [float] * 3
    assert (cfg.dt, cfg.t_max, cfg.goal_tolerance) == (0.03125, 2.0, 1.0)
    with pytest.raises(ValueError, match="would record more than"):
        simulate(single, spec_nominal(), SimConfig(t_max=math.inf), [-2.0, 0.0])


def test_simulate_rejects_bad_start(single):
    from apf_rcbf import SimConfig
    for bad in ([np.nan, 0.0], object()):
        with pytest.raises(ValueError, match="finite 2-vector"):
            simulate(single, spec_nominal(), SimConfig(), bad)
    with pytest.raises(ValueError, match="strictly outside"):
        simulate(single, spec_nominal(), SimConfig(), [2.0, 0.1])
    with pytest.raises(ValueError, match="smaller than the smallest obstacle radius"):
        simulate(single, spec_nominal(), SimConfig(goal_tolerance=0.5), [0.0, 0.0])


def test_simulate_start_errors_keep_their_messages(single):
    """simulate reads x0 as a finite 2-vector, and its messages print x0 as
    it was given."""
    from apf_rcbf import SimConfig
    for bad, shown in (([np.nan, 0.0], "[nan, 0.0]"),
                       ([0.0, 0.0, 1.0], "[0.0, 0.0, 1.0]"),
                       ([[0.0], [0.0]], "[[0.0], [0.0]]"),
                       ((np.inf, 1.0), "(inf, 1.0)"),
                       (np.array([1.0, np.inf]), "array([ 1., inf])"),
                       ({"x": 1.0}, "{'x': 1.0}"),
                       ([0.0, {"a": 1}], "[0.0, {'a': 1}]"),
                       (deque(["1", "0"]), "deque(['1', '0'])")):
        with pytest.raises(ValueError) as err:
            simulate(single, spec_nominal(), SimConfig(), bad)
        assert str(err.value) == f"x0 must be a finite 2-vector, got {shown}"
    with pytest.raises(ValueError) as err:
        simulate(single, spec_nominal(), SimConfig(), np.array([2.5, 0.0]))
    assert str(err.value) == "x0 must lie strictly outside every obstacle (clearance 0)"


def test_simulate_reads_the_start_clearance_with_the_nan_rule(single, monkeypatch):
    """The start's clearance is classify_safety's, NaN rule included, and a
    NaN clearance is refused as not strictly outside."""
    from apf_rcbf import SimConfig, scenario
    sim = sys.modules["apf_rcbf.simulate"]
    assert sim._min_clearance is scenario._min_clearance
    monkeypatch.setattr(sim, "_min_clearance", lambda px, py, obstacles: math.nan)
    with pytest.raises(ValueError, match=r"strictly outside every obstacle \(clearance nan\)"):
        simulate(single, spec_nominal(), SimConfig(), [0.0, 0.0])


def test_simulate_validates_scenario():
    from apf_rcbf import ScenarioValidationError, SimConfig
    bad = Scenario(goal=[1, 0], k_att=-1.0)
    with pytest.raises(ScenarioValidationError):
        simulate(bad, spec_nominal(), SimConfig(), [0.0, 0.0])


def test_simulate_rejects_radius_below_float_floor():
    """An obstacle of radius 1e-150 and a start two ulps outside it: the
    clearance squares to 0.0, so the run is refused instead of crashing."""
    from apf_rcbf import ScenarioValidationError, SimConfig
    tiny = Scenario(goal=[1.0, 0.0], obstacles=(Obstacle([0.0, 0.0], 1e-150, 1e-150),))
    x0 = [math.nextafter(math.nextafter(1e-150, 1.0), 1.0), 0.0]
    with pytest.raises(ScenarioValidationError, match="radius below"):
        simulate(tiny, ControllerSpec("apf"), SimConfig(goal_tolerance=1e-151), x0)


@pytest.mark.parametrize("t_max", [1e12, math.inf])
def test_simulate_refuses_oversized_record_before_allocating(single, monkeypatch, t_max):
    from apf_rcbf import SimConfig

    def no_alloc(*args, **kwargs):
        raise AssertionError("allocated")

    monkeypatch.setattr(np, "empty", no_alloc)
    with pytest.raises(ValueError, match="shorten t_max or raise dt"):
        simulate(single, spec_nominal(), SimConfig(dt=0.004, t_max=t_max), [0.0, 0.0])


def test_euler_matches_hand_stepping():
    """Three Euler steps of the pure stabilizer, replayed with bare floats."""
    from apf_rcbf import SimConfig
    s = Scenario(goal=[3.0, 5.0], k_att=1.5)
    cfg = SimConfig(dt=0.02, t_max=0.06, goal_tolerance=1e-3, integrator="euler")
    tr = simulate(s, spec_nominal(), cfg, [1.0, 2.0])
    assert tr.terminal == "timeout"
    assert tr.n_samples == 4  # samples at t = 0, 0.02, 0.04, 0.06

    xx, yy = 1.0, 2.0
    for k in range(4):
        ex, ey = xx - 3.0, yy - 5.0
        ux, uy = -(1.5 * ex), -(1.5 * ey)
        assert tr.t[k] == k * 0.02
        assert (tr.x[k, 0], tr.x[k, 1]) == (xx, yy)
        assert (tr.u[k, 0], tr.u[k, 1]) == (ux, uy)
        assert tr.V[k] == 0.5 * 1.5 * (ex * ex + ey * ey)
        assert tr.h_min[k] == np.inf  # no obstacles anywhere
        xx = xx + 0.02 * ux
        yy = yy + 0.02 * uy


def test_rk4_matches_hand_stepping():
    """One RK4 step of the obstacle-free stabilizer, all four stages by hand."""
    from apf_rcbf import SimConfig
    s = Scenario(goal=[2.0, -1.0], k_att=2.0)
    cfg = SimConfig(dt=0.03, t_max=0.03, goal_tolerance=1e-6, integrator="rk4")
    tr = simulate(s, spec_nominal(), cfg, [0.5, 0.5])
    assert tr.n_samples == 2

    def f(px, py):
        return -(2.0 * (px - 2.0)), -(2.0 * (py - -1.0))

    dt = 0.03
    xx, yy = 0.5, 0.5
    k1x, k1y = f(xx, yy)
    k2x, k2y = f(xx + 0.5 * dt * k1x, yy + 0.5 * dt * k1y)
    k3x, k3y = f(xx + 0.5 * dt * k2x, yy + 0.5 * dt * k2y)
    k4x, k4y = f(xx + dt * k3x, yy + dt * k3y)
    nx = xx + (dt / 6.0) * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
    ny = yy + (dt / 6.0) * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)
    assert (tr.x[1, 0], tr.x[1, 1]) == (nx, ny)


def _step_apf(scenario, integrator, dt, n_max, x0):
    """Every sample of an apf run, stepped with the public ``apf_control`` on
    Python floats in the integrator's expression order, with no early exit."""
    xx, yy = x0
    ts, xs, us = [], [], []
    for k in range(n_max + 1):
        ux, uy = apf_control([xx, yy], scenario).tolist()
        ts.append(k * dt)
        xs.append((xx, yy))
        us.append((ux, uy))
        if integrator == "euler":
            xx, yy = xx + dt * ux, yy + dt * uy
            continue
        kx = sx = ux
        ky = sy = uy
        for c, w in ((0.5, 2.0), (0.5, 2.0), (1.0, 1.0)):
            kx, ky = apf_control([xx + c * dt * kx, yy + c * dt * ky], scenario).tolist()
            sx = sx + w * kx
            sy = sy + w * ky
        xx, yy = xx + (dt / 6.0) * sx, yy + (dt / 6.0) * sy
    return np.array(ts), np.array(xs), np.array(us)


@pytest.mark.parametrize("integrator", ["euler", "rk4"])
def test_stalled_run_matches_stepping_to_t_max(integrator):
    """A run that stops moving is still every step of the integrator: the
    recorded times, states and controls equal real stepping bit for bit over
    the whole horizon."""
    from apf_rcbf import SimConfig
    cfg = SimConfig(dt=0.004, t_max=40.0, goal_tolerance=0.05, integrator=integrator)
    tr = simulate(OVERLAP, ControllerSpec("apf"), cfg, [0.0, 0.1])
    assert (tr.terminal, tr.n_samples) == ("timeout", 10001)
    ts, xs, us = _step_apf(OVERLAP, integrator, 0.004, 10000, (0.0, 0.1))
    assert np.array_equal(tr.x[-1], tr.x[-2])  # the run did stall
    assert tr.t.tobytes() == ts.tobytes()
    assert tr.x.tobytes() == xs.tobytes()
    assert tr.u.tobytes() == us.tobytes()


def test_reached_goal_immediately():
    from apf_rcbf import SimConfig
    s = Scenario(goal=[1.0, 1.0])
    tr = simulate(s, spec_nominal(), SimConfig(goal_tolerance=0.05), [1.0, 0.96])
    assert tr.terminal == "reached_goal"
    assert tr.n_samples == 1
    assert metrics(tr).time_to_goal == 0.0


def test_reached_goal_converges():
    from apf_rcbf import SimConfig
    s = Scenario(goal=[1.0, 1.0])
    tr = simulate(s, spec_nominal(), SimConfig(), [-2.0, 3.0])
    assert tr.terminal == "reached_goal"
    assert np.hypot(*(tr.x[-1] - s.goal)) < 0.05
    # exponential approach: distance shrinks monotonically
    dists = np.hypot(tr.x[:, 0] - 1.0, tr.x[:, 1] - 1.0)
    assert np.all(np.diff(dists) < 0)


def test_timeout_sample_count():
    from apf_rcbf import SimConfig
    s = Scenario(goal=[100.0, 0.0])
    cfg = SimConfig(dt=0.01, t_max=0.05, goal_tolerance=0.01)
    tr = simulate(s, spec_nominal(), cfg, [0.0, 0.0])
    assert tr.terminal == "timeout"
    assert tr.n_samples == 6  # n_max + 1 samples, t = 0 .. t_max
    assert tr.t[-1] == pytest.approx(0.05, abs=1e-15)


def test_domain_error_when_blind_controller_hits_obstacle(single):
    """The unfiltered stabilizer drives straight through the obstacle; the
    rollout must stop at the last state with positive clearance."""
    from apf_rcbf import SimConfig
    cfg = SimConfig(dt=0.05, t_max=10.0, goal_tolerance=0.05, integrator="euler")
    tr = simulate(single, spec_nominal(), cfg, [0.0, 0.0])
    assert tr.terminal == "domain_error"
    assert np.all(tr.h_min > 0)
    assert tr.n_samples >= 2
    # while the filtered controller sails around^W bounces off safely
    tr_apf = simulate(single, ControllerSpec("apf"), cfg, [0.0, 0.0])
    assert tr_apf.terminal != "domain_error"
    assert np.all(tr_apf.h_min > 0)


def test_rk4_stage_domain_checks(single):
    """A stage state inside the obstacle aborts even if full steps stay out."""
    from apf_rcbf import SimConfig
    cfg = SimConfig(dt=0.05, t_max=10.0, goal_tolerance=0.05, integrator="rk4")
    tr = simulate(single, spec_nominal(), cfg, [0.0, 0.0])
    assert tr.terminal == "domain_error"
    assert np.all(tr.h_min > 0)


@pytest.mark.parametrize("integrator", ["euler", "rk4"])
def test_non_finite_control_ends_the_run_with_a_domain_error(integrator):
    """A control that is not finite would make every later state NaN, so the
    run stops at that sample, unrecorded, as at a nonpositive clearance.
    With k_att = 1e200, a scaled-value sigma of 1e308 overflows with
    |F_att|^2 at the start, so u_nom is inf / inf = NaN there; the apf
    stabilizer is -F_att, finite at the start, and its step lands about
    4e198 from the goal, where F_att itself overflows.  A scaled-value sigma
    of 1e308 gives a finite but huge first control whose step lands about
    1e306 from the goal, where sigma overflows."""
    from apf_rcbf import SimConfig
    cfg = SimConfig(dt=0.01, t_max=0.05, integrator=integrator)
    obstacles = (Obstacle([2.0, 1.5], 0.5, 0.4),)
    huge = Scenario(goal=[4.0, 0.0], obstacles=obstacles, k_att=1e200)
    spec = ControllerSpec("generalized", sigma_sel=SigmaSelector.scaled_value(1e308),
                          gamma_sel=GammaSelector.zero())
    tr = simulate(huge, spec, cfg, (0.0, 0.0))
    assert (tr.terminal, tr.n_samples) == ("domain_error", 0)
    assert metrics(tr).min_clearance == math.inf
    tr = simulate(huge, ControllerSpec("apf"), cfg, (0.0, 0.0))
    assert (tr.terminal, tr.n_samples) == ("domain_error", 1)
    assert tr.u.tobytes() == np.array([[4e200, -0.0]]).tobytes()
    tr = simulate(Scenario(goal=[4.0, 0.0], obstacles=obstacles), spec, cfg, (2.5, 0.0))
    assert (tr.terminal, tr.n_samples) == ("domain_error", 1)
    assert np.all(np.isfinite(tr.u)) and metrics(tr).min_clearance == tr.h_min[0]


def test_filtered_run_warns_on_negative_tightening(caplog):
    """A tiny scaled-special coefficient drives the tightening negative on the
    approach — and is too weak to keep the discrete rollout out of the
    obstacle.  The post-run warning is the diagnostic for exactly this."""
    s = Scenario(goal=[7.0, 0.0], obstacles=(Obstacle([0.0, 0.0], 0.5, 0.2),))
    from apf_rcbf import SimConfig
    spec = ControllerSpec("generalized", sigma_sel=SQ,
                          gamma_sel=GammaSelector.scaled_special(1e-3))
    cfg = SimConfig(dt=0.01, t_max=5.0, goal_tolerance=0.05)
    with caplog.at_level(logging.WARNING, logger="apf_rcbf.simulate"):
        tr = simulate(s, spec, cfg, [-0.75, 0.0])
    msgs = [r.getMessage() for r in caplog.records
            if "evaluated negative" in r.getMessage()]
    assert len(msgs) == 1
    assert "generalized" in msgs[0]
    assert tr.terminal == "domain_error"
    assert np.all(tr.h_min > 0)  # samples stop at the last safe state


def test_apf_run_never_warns_about_tightening(single, caplog):
    from apf_rcbf import SimConfig
    cfg = SimConfig(dt=0.01, t_max=10.0, goal_tolerance=0.05)
    with caplog.at_level(logging.WARNING, logger="apf_rcbf.simulate"):
        simulate(single, ControllerSpec("apf"), cfg, [0.0, 0.0])
    assert not [r for r in caplog.records if "tightening" in r.getMessage()]


def test_recorded_phi_matches_term_recomputation(single):
    """phi columns must be recomputable from the recorded states."""
    from apf_rcbf import SimConfig
    cfg = SimConfig(dt=0.01, t_max=10.0, goal_tolerance=0.05)
    spec = ControllerSpec("generalized", sigma_sel=SQ,
                          gamma_sel=GammaSelector.zero())
    tr = simulate(single, spec, cfg, [0.0, 0.4])
    obs = single.obstacles[0]
    n_active = 0
    for k in range(tr.n_samples):
        x = tr.x[k]
        h = rho(x, obs)
        d = f_rep(x, obs, single)
        u_nom = nominal_control(x, single, SQ)
        phi_expected = -single.alpha_gain * h + float(d @ u_nom)
        assert tr.phi[k, 0] == pytest.approx(phi_expected, rel=1e-12, abs=1e-12)
        if tr.phi[k, 0] > 0:
            n_active += 1
    assert tr.terminal == "reached_goal"
    assert n_active > 0  # the filter actually had to intervene on this route


def test_recorded_u_matches_controller(single):
    from apf_rcbf import SimConfig
    cfg = SimConfig(dt=0.02, t_max=10.0, goal_tolerance=0.05)
    tr = simulate(single, ControllerSpec("apf"), cfg, [0.0, 0.3])
    for k in range(0, tr.n_samples, 7):
        np.testing.assert_array_equal(tr.u[k], apf_control(tr.x[k], single))


def test_metrics_straight_line():
    from apf_rcbf import SimConfig
    s = Scenario(goal=[5.0, 0.0])
    tr = simulate(s, spec_nominal(), SimConfig(), [0.0, 0.0])
    m = metrics(tr)
    assert m.time_to_goal == tr.t[-1]
    assert m.oscillation == 0.0
    travelled = 5.0 - np.hypot(*(tr.x[-1] - s.goal))
    assert m.path_length == pytest.approx(travelled, rel=1e-9)
    assert m.min_clearance == math.inf


def test_metrics_right_angle_turn():
    t = np.array([0.0, 1.0, 2.0])
    x = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
    tr = Trajectory(t=t, x=x, u=np.zeros((3, 2)), h_min=np.full(3, 0.7),
                    V=np.zeros(3), phi=np.zeros((3, 0)), terminal="timeout")
    m = metrics(tr)
    assert m.path_length == pytest.approx(2.0, rel=1e-15)
    assert m.oscillation == pytest.approx(np.pi / 2, rel=1e-12)
    assert m.min_clearance == 0.7
    assert m.time_to_goal is None


def test_metrics_ignores_stationary_tail():
    x = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
    tr = Trajectory(t=np.arange(4.0), x=x, u=np.zeros((4, 2)),
                    h_min=np.ones(4), V=np.zeros(4), phi=np.zeros((4, 0)),
                    terminal="timeout")
    assert metrics(tr).oscillation == 0.0
    assert metrics(tr).path_length == pytest.approx(1.0)


def test_trajectory_rejects_unknown_terminal():
    with pytest.raises(ValueError, match="unknown terminal status"):
        Trajectory(t=np.zeros(1), x=np.zeros((1, 2)), u=np.zeros((1, 2)),
                   h_min=np.zeros(1), V=np.zeros(1), phi=np.zeros((1, 0)),
                   terminal="finished")


def test_csv_header_names():
    assert csv_header(0) == "t,x,y,ux,uy,h_min,V"
    assert csv_header(2) == "t,x,y,ux,uy,h_min,V,phi_1,phi_2"


def test_csv_round_trip_is_exact(single, tmp_path):
    """%.17g serialization must reproduce every float64 bit for bit."""
    from apf_rcbf import SimConfig
    cfg = SimConfig(dt=0.01, t_max=2.0, goal_tolerance=0.05)
    tr = simulate(single, ControllerSpec("apf"), cfg, [0.0, 0.3])
    path = tmp_path / "run.csv"
    write_trajectory_csv(tr, path)
    back = read_trajectory_csv(path, terminal=tr.terminal)
    assert back.terminal == tr.terminal
    np.testing.assert_array_equal(back.t, tr.t)
    np.testing.assert_array_equal(back.x, tr.x)
    np.testing.assert_array_equal(back.u, tr.u)
    np.testing.assert_array_equal(back.h_min, tr.h_min)
    np.testing.assert_array_equal(back.V, tr.V)
    np.testing.assert_array_equal(back.phi, tr.phi)
    header = path.read_text().splitlines()[0]
    assert header == "t,x,y,ux,uy,h_min,V,phi_1"


@pytest.mark.parametrize("case", ["arena-goal", "obstacle-free", "overlap-stall"])
def test_trajectory_columns_are_owned_read_only_copies(arena, tmp_path, case):
    """Every array of a trajectory, simulated or read back from its CSV, is
    a read-only, C-contiguous array that owns its memory, so a run that ends
    long before t_max keeps no reference to its whole preallocated record."""
    from apf_rcbf import SimConfig
    scenario, x0 = {
        "arena-goal": (arena, [-2.0, 0.5]),
        "obstacle-free": (Scenario(goal=[1.0, 0.0]), [0.0, -0.5]),
        "overlap-stall": (OVERLAP, [0.0, 0.1]),
    }[case]
    cfg = SimConfig(dt=0.01, t_max=40.0, goal_tolerance=0.05)
    m = len(scenario.obstacles)
    tr = simulate(scenario, ControllerSpec("apf"), cfg, x0)
    n = tr.n_samples
    if case == "overlap-stall":
        assert (tr.terminal, n) == ("timeout", 4001)
    else:
        assert tr.terminal == "reached_goal" and n < 1000
    path = tmp_path / "run.csv"
    write_trajectory_csv(tr, path)
    for run in (tr, read_trajectory_csv(path, tr.terminal)):
        shapes = {"t": (n,), "x": (n, 2), "u": (n, 2), "h_min": (n,), "V": (n,),
                  "phi": (n, m)}
        for name, shape in shapes.items():
            arr = getattr(run, name)
            assert arr.shape == shape and arr.dtype == np.float64, name
            assert not arr.flags.writeable and arr.flags.c_contiguous, name
            assert arr.base is None, name


@pytest.mark.parametrize("n", [0, 1, 10_001])
@pytest.mark.parametrize("m", [0, 1, 3])
def test_trajectory_columns_are_bitwise_copies_of_the_record(m, n):
    """Each column of ``_trajectory`` is an owned, C-contiguous, read-only
    copy of its record columns, bit for bit (random bit patterns, NaN
    payloads included), from the leading rows of a taller record, as
    simulate passes it."""
    from apf_rcbf.simulate import _trajectory
    bits = np.random.default_rng(10 * m + n).integers(0, 2 ** 64, size=(n + 3, 7 + m),
                                                      dtype=np.uint64)
    tr = _trajectory(bits.view(np.float64)[:n], "timeout")
    for name, cols in (("t", 0), ("x", slice(1, 3)), ("u", slice(3, 5)), ("h_min", 5),
                       ("V", 6), ("phi", slice(7, None))):
        arr = getattr(tr, name)
        want = bits[:n, cols]
        assert arr.shape == want.shape and arr.dtype == np.float64, name
        assert arr.base is None and arr.flags.c_contiguous and not arr.flags.writeable, name
        assert np.array_equal(arr.view(np.uint64), want), name


@pytest.mark.parametrize("m, n", [
    pytest.param(0, 9, id="0"),
    pytest.param(2, 9, id="2"),
    *(pytest.param(2, n, id=f"2-{n}") for n in (
        0, 1, CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS, CSV_BLOCK_ROWS + 1, 2 * CSV_BLOCK_ROWS + 3)),
])
def test_csv_row_format_matches_per_value_format(tmp_path, m, n):
    """Each row is written with one '%.17g' format; its bytes equal the
    per-value f'{v:.17g}' join, also for signed zeros, infinities, NaN,
    subnormals and the extreme doubles, which no rollout records, and on
    either side of every block boundary of the writer."""
    special = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -2.2250738585072014e-308,
               1.7976931348623157e308, 0.1, -1e-300, 123456789.0, 1.0 / 3.0]
    rng = np.random.default_rng(3)
    values = np.concatenate([special * 4, rng.standard_normal(7 * 9) * 10.0 ** rng.integers(
        -300, 300, 7 * 9)])
    data = np.resize(values, (n, 7 + m))
    tr = Trajectory(t=data[:, 0], x=data[:, 1:3], u=data[:, 3:5], h_min=data[:, 5],
                    V=data[:, 6], phi=data[:, 7:], terminal="timeout")
    path = tmp_path / "run.csv"
    write_trajectory_csv(tr, path)
    expected = csv_header(m) + "\n" + "".join(
        ",".join(f"{v:.17g}" for v in row) + "\n" for row in data.tolist())
    assert path.read_bytes() == expected.encode()


def test_csv_writer_rejects_columns_of_different_lengths(tmp_path):
    """A block is cut from every column by row range, so a column longer or
    shorter than ``t`` is refused before anything is written."""
    data = np.zeros((5, 8))
    for name, col in (("x", np.zeros((4, 2))), ("phi", np.zeros((7, 1))), ("V", np.zeros(6))):
        cols = dict(t=data[:, 0], x=data[:, 1:3], u=data[:, 3:5], h_min=data[:, 5],
                    V=data[:, 6], phi=data[:, 7:])
        cols[name] = col
        tr = Trajectory(**cols, terminal="timeout")
        with pytest.raises(ValueError, match="differ in length"):
            write_trajectory_csv(tr, tmp_path / "run.csv")
    assert not (tmp_path / "run.csv").exists()


def test_csv_writer_memory_does_not_grow_with_the_record(tmp_path):
    """Writing a record holds one block of rows as Python floats and text at
    a time: the tracemalloc peak stays below four blocks' worth of floats
    for records of 5 and 40 blocks alike (all rows at once would take about
    six times the record)."""
    width = 10
    bound = 4 * CSV_BLOCK_ROWS * width * 32  # a float object and its pointer
    for blocks in (5, 40):
        n = blocks * CSV_BLOCK_ROWS
        data = np.random.default_rng(blocks).random((n, width))
        tr = Trajectory(t=data[:, 0], x=data[:, 1:3], u=data[:, 3:5], h_min=data[:, 5],
                        V=data[:, 6], phi=data[:, 7:], terminal="timeout")
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            write_trajectory_csv(tr, tmp_path / "run.csv")
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < bound, (blocks, peak)


def test_csv_reader_rejects_foreign_header(tmp_path):
    path = tmp_path / "other.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError, match="unexpected trajectory CSV header"):
        read_trajectory_csv(path, terminal="timeout")


@pytest.mark.parametrize("margins", ["phi_2", "phi_1,phi_3", "phi_1,phi_1", "phi_1,"])
def test_csv_reader_rejects_a_header_other_than_csv_header(tmp_path, margins):
    """Only ``csv_header(m)`` names margins: misnumbered, repeated or empty
    margin columns are refused."""
    path = tmp_path / "other.csv"
    path.write_text(f"t,x,y,ux,uy,h_min,V,{margins}\n" + ",".join(["1"] * 9) + "\n")
    with pytest.raises(ValueError, match="unexpected trajectory CSV header"):
        read_trajectory_csv(path, terminal="timeout")


@pytest.mark.parametrize("m, width", [(2, 8), (1, 9), (0, 8), (1, 7)],
                         ids=["fewer-margins", "more-margins", "margin-without-header", "none"])
def test_csv_reader_rejects_rows_not_as_wide_as_the_header(tmp_path, m, width):
    """A body whose rows do not hold 7 + m values under ``csv_header(m)``
    is refused, not read as another m or cut to the header."""
    path = tmp_path / "other.csv"
    path.write_text(csv_header(m) + "\n" + (",".join(["0.5"] * width) + "\n") * 3)
    with pytest.raises(ValueError, match="unexpected trajectory CSV rows"):
        read_trajectory_csv(path, terminal="timeout")
