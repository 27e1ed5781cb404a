"""Acceptance gate: the eight numerical claims this package stands on.

Each criterion measures first, prints one ``[acceptance N] ... -- PASS/FAIL``
verdict line, then asserts.  Run ``pytest tests/test_acceptance.py -v -s`` to
see every line; without ``-s`` pytest shows them only for failing criteria.
"""

import math
import time

import numpy as np
import pytest

from apf_rcbf import (
    ControllerSpec,
    HalfSpaceConstraint,
    Scenario,
    SigmaSelector,
    SimConfig,
    alpha_bar,
    apf_control,
    check_clf_decrease,
    clf_terms,
    cli,
    f_att,
    f_rep,
    load_scenario,
    metrics,
    nominal_control,
    rho,
    simulate,
    solve_projection,
    u_rep,
)
from apf_rcbf.verify import equivalence_suite, gradient_suite, oracle_suite

BOUNDS = ((-3.0, 9.0), (-2.0, 6.0))
SQ = SigmaSelector.grad_norm_squared()


def _verdict(num, label, detail, ok):
    state = "PASS" if ok else "FAIL"
    print(f"[acceptance {num}] {label}: {detail} -- {state}")


@pytest.fixture(scope="module", autouse=True)
def warm_kernels(arena):
    """Run the timed code paths once so timed criteria measure compute only,
    not first-call costs such as imports."""
    equivalence_suite(arena, nx=4, ny=4)
    simulate(arena, ControllerSpec("apf"),
             SimConfig(dt=0.01, t_max=0.02, goal_tolerance=0.05), [-2.0, 0.0])
    alpha_bar(0.1, arena)


@pytest.fixture(scope="module")
def fig2_cfg():
    cfg = cli.load_run_config(cli.resolve_config_path("fig2.json"))
    return cfg, load_scenario(cfg.scenario_path)


def _sample_states(rng, n, exclude_goal=None, eps=1e-3):
    xs = np.column_stack([rng.uniform(BOUNDS[0][0], BOUNDS[0][1], n),
                          rng.uniform(BOUNDS[1][0], BOUNDS[1][1], n)])
    if exclude_goal is not None:
        while True:
            close = np.hypot(xs[:, 0] - exclude_goal[0],
                             xs[:, 1] - exclude_goal[1]) < eps
            if not close.any():
                return xs
            xs[close, 0] = rng.uniform(BOUNDS[0][0], BOUNDS[0][1], close.sum())
            xs[close, 1] = rng.uniform(BOUNDS[1][0], BOUNDS[1][1], close.sum())
    return xs


def test_01_grid_controller_equivalence(arena):
    res = equivalence_suite(arena)  # 200 x 200 over BOUNDS, 1e-3 exclusions
    ok = res.max_error <= 1e-9 and res.elapsed <= 5.0
    _verdict(1, "grid equivalence",
             f"max controller gap {res.max_error:.3e} (tol 1e-09) "
             f"in {res.elapsed:.2f} s (budget 5 s)", ok)
    assert res.max_error <= 1e-9
    assert res.elapsed <= 5.0


def test_02_projection_against_enumeration_oracle():
    res = oracle_suite(n=100000, seed=0)
    ok = res.max_error <= 1e-9 and res.elapsed <= 10.0
    _verdict(2, "closed-form projection vs active-set oracle",
             f"max gap {res.max_error:.3e} (tol 1e-09) over 100000 instances "
             f"in {res.elapsed:.2f} s (budget 10 s)", ok)
    assert res.max_error <= 1e-9
    assert res.elapsed <= 10.0


def test_03_field_gradients_match_finite_differences(arena):
    res = gradient_suite(arena, n=10000, seed=0)
    ok = res.max_error <= 1e-5
    _verdict(3, "potential gradients vs central differences",
             f"max relative error {res.max_error:.3e} (tol 1e-05) "
             f"on 10000 states per potential", ok)
    assert res.max_error <= 1e-5


def test_04_barrier_reciprocal_identity(arena):
    rng = np.random.default_rng(0)
    n = 10000
    worst_rel = 0.0
    worst_dir = -np.inf
    for i in range(n):
        obs = arena.obstacles[i % len(arena.obstacles)]
        off = rng.uniform(1e-3, obs.influence_margin - 1e-3)
        ang = rng.uniform(0.0, 2.0 * np.pi)
        x = obs.center + (obs.radius + off) * np.array([np.cos(ang), np.sin(ang)])
        h = rho(x, obs)  # the clearance both factors actually see
        prod = u_rep(x, obs, arena) * alpha_bar(h, arena)
        worst_rel = max(worst_rel, abs(prod - 1.0))
        d = f_rep(x, obs, arena)
        worst_dir = max(worst_dir, -arena.alpha_gain * h - float(d @ d))
    grid = np.linspace(0.0, 0.2, 1000, endpoint=False)
    vals = np.array([alpha_bar(g, arena) for g in grid])
    increasing = bool(np.all(np.diff(vals) > 0.0))
    ok = worst_rel <= 1e-12 and worst_dir < 0.0 and increasing
    _verdict(4, "reciprocal barrier identity",
             f"max |B*alpha - 1| {worst_rel:.3e} (tol 1e-12), "
             f"worst barrier margin under -F_rep {worst_dir:.3e} (< 0), "
             f"alpha strictly increasing on 1000-point grid: {increasing}", ok)
    assert worst_rel <= 1e-12
    assert worst_dir < 0.0
    assert increasing


def test_05_stabilizer_decrease_and_min_norm(arena):
    selectors = (SQ,
                 SigmaSelector("scaled_value", coefficient=2.0),
                 SigmaSelector("scaled_norm", coefficient=1.0))
    states = _sample_states(np.random.default_rng(0), 10000,
                            exclude_goal=arena.goal)
    worst_decrease = -np.inf
    worst_qp_gap = 0.0
    exact_mismatches = 0
    for sel in selectors:
        for x in states:
            u = nominal_control(x, arena, sel)
            worst_decrease = max(worst_decrease,
                                 check_clf_decrease(x, u, arena, sel))
            terms = clf_terms(x, arena, sel)
            sol = solve_projection([0.0, 0.0],
                                   [HalfSpaceConstraint(terms.a_tilde, terms.b)])
            worst_qp_gap = max(worst_qp_gap,
                               float(np.hypot(*(u - sol.u_star))))
            if sel.kind == "grad_norm_squared" and not np.array_equal(
                    u, -f_att(x, arena)):
                exact_mismatches += 1
    ok = (worst_decrease <= 1e-12 and worst_qp_gap <= 1e-9
          and exact_mismatches == 0)
    _verdict(5, "tightened decrease condition",
             f"worst margin {worst_decrease:.3e} (tol 1e-12), "
             f"max gap to projection {worst_qp_gap:.3e} (tol 1e-09), "
             f"squared-norm tightening off by {exact_mismatches} states from "
             f"exact -F_att (3 x 10000 states)", ok)
    assert worst_decrease <= 1e-12
    assert worst_qp_gap <= 1e-9
    assert exact_mismatches == 0


def test_06_three_tightenings_reach_goal_safely(fig2_cfg):
    cfg, scenario = fig2_cfg
    t0 = time.perf_counter()
    runs = {name: simulate(scenario, spec, cfg.sim, cfg.x0)
            for name, spec in cfg.controllers}
    elapsed = time.perf_counter() - t0
    ms = {name: metrics(tr) for name, tr in runs.items()}
    all_reached = all(tr.terminal == "reached_goal" for tr in runs.values())
    all_clear = all(m.min_clearance > 0.0 for m in ms.values())
    osc = {name: m.oscillation for name, m in ms.items()}
    ordered = osc["gamma2"] > osc["gamma1"] and osc["gamma3"] > osc["gamma1"]
    ok = all_reached and all_clear and ordered and elapsed <= 30.0
    _verdict(6, "tightening comparison runs",
             f"all reached goal: {all_reached}, min clearance > 0: {all_clear}, "
             f"oscillation zero/strong/unit {osc['gamma1']:.4f}/"
             f"{osc['gamma2']:.4f}/{osc['gamma3']:.4f} "
             f"in {elapsed:.1f} s (budget 30 s)", ok)
    assert all_reached
    assert all_clear
    assert ordered
    assert elapsed <= 30.0


def _descent_rollout(scenario, sim, x0):
    """The potential-descent law stepped by its field formulas: the public
    ``apf_control`` on Python floats, in the integrator's expression order,
    recording each sample before the goal test.  Returns ``(terminal, x, u)``."""
    gx, gy = scenario.goal.tolist()
    stages = {"euler": (), "rk4": ((0.5, 2.0), (0.5, 2.0), (1.0, 1.0))}[sim.integrator]
    step = sim.dt / (1.0 + sum(w for _, w in stages))
    xx, yy = (float(v) for v in x0)
    xs, us = [], []
    terminal = "timeout"
    for _ in range(int(round(sim.t_max / sim.dt)) + 1):
        ux, uy = apf_control([xx, yy], scenario).tolist()
        xs.append((xx, yy))
        us.append((ux, uy))
        if math.sqrt((xx - gx) * (xx - gx) + (yy - gy) * (yy - gy)) < sim.goal_tolerance:
            terminal = "reached_goal"
            break
        kx = sx = ux
        ky = sy = uy
        for c, w in stages:
            kx, ky = apf_control([xx + c * sim.dt * kx, yy + c * sim.dt * ky],
                                 scenario).tolist()
            sx = sx + w * kx
            sy = sy + w * ky
        xx, yy = xx + step * sx, yy + step * sy
    return terminal, np.array(xs), np.array(us)


def test_07_rollout_of_filter_equals_potential_descent(fig2_cfg):
    cfg, scenario = fig2_cfg
    spec_unit = dict(cfg.controllers)["gamma3"]
    tr_filter = simulate(scenario, spec_unit, cfg.sim, cfg.x0)
    terminal, x_apf, u_apf = _descent_rollout(scenario, cfg.sim, cfg.x0)
    same_shape = (tr_filter.terminal == terminal
                  and tr_filter.n_samples == len(x_apf))
    if same_shape:
        gap_x = float(np.max(np.abs(tr_filter.x - x_apf)))
        gap_u = float(np.max(np.abs(tr_filter.u - u_apf)))
    else:
        gap_x = gap_u = np.inf
    ok = same_shape and gap_x <= 1e-9 and gap_u <= 1e-9
    _verdict(7, "full-run equivalence",
             f"same terminal/samples: {same_shape}, max state gap {gap_x:.3e}, "
             f"max control gap {gap_u:.3e} (tol 1e-09, "
             f"{len(x_apf)} samples)", ok)
    assert same_shape
    assert gap_x <= 1e-9
    assert gap_u <= 1e-9


def test_08_obstacle_free_stabilizer_always_converges():
    scenario = Scenario(goal=[7.0, 3.2])
    cfg = SimConfig(dt=0.01, t_max=40.0, goal_tolerance=0.05, integrator="rk4")
    spec = ControllerSpec("nominal_only", sigma_sel=SQ)
    rng = np.random.default_rng(0)
    n_reached = 0
    worst_rise = -np.inf
    for _ in range(20):
        x0 = [rng.uniform(BOUNDS[0][0], BOUNDS[0][1]),
              rng.uniform(BOUNDS[1][0], BOUNDS[1][1])]
        tr = simulate(scenario, spec, cfg, x0)
        if tr.terminal == "reached_goal":
            n_reached += 1
        if tr.n_samples > 1:
            worst_rise = max(worst_rise, float(np.max(np.diff(tr.V))))
    ok = n_reached == 20 and worst_rise <= 1e-9
    _verdict(8, "obstacle-free stabilization",
             f"{n_reached}/20 starts reached the goal, "
             f"worst potential increase {worst_rise:.3e} (tol 1e-09)", ok)
    assert n_reached == 20
    assert worst_rise <= 1e-9
