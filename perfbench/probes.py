"""Per-module unit costs, timed from outside through each module's public API.

Every traced run probes every module the same way, with inputs drawn from
the run's seed and the workload's scenario, so a per-module number has one
meaning on all workloads; which end-to-end metric it moves depends on the
workload (see ``perfbench/README.md``).  Each per-call cost is the median
over five blocks of calls.
"""

from __future__ import annotations

import time

import numpy as np

from workloads import SWEEP_BOUNDS, load_inputs

BLOCKS = 5


def _per_call_us(fn, args_list):
    costs = []
    for _ in range(BLOCKS):
        t0 = time.perf_counter()
        for args in args_list:
            fn(*args)
        costs.append((time.perf_counter() - t0) / len(args_list))
    return float(np.median(costs)) * 1e6


def _timed(fn, repeats=1):
    """Median wall time of ``repeats`` calls, and the last call's result."""
    walls = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        walls.append(time.perf_counter() - t0)
    return float(np.median(walls)), out


def run_probes(ar, workload, seed, work, n_calls=400, n_oracle=2000, grid=60,
               n_gradients=200):
    """Return ``{metric name: value}`` for the per-module unit costs."""
    from apf_rcbf import verify

    rng = np.random.default_rng(seed)
    scenario, _, x0 = load_inputs(ar, workload)
    bounds = SWEEP_BOUNDS.get(workload, SWEEP_BOUNDS["sweep_fig2"])
    # every other state lies inside an influence shell, where the repulsive
    # terms and the filter are live
    states = verify.gradient_states(scenario, n_calls, rng, bounds=bounds)
    obstacles = scenario.obstacles
    nearest = [min(range(len(obstacles)), key=lambda i: ar.rho(x, obstacles[i]))
               for x in states]
    grad = ar.SigmaSelector.grad_norm_squared()
    lam8 = ar.GammaSelector.scaled_special(8.0)
    out = {}

    out["fields.apf_control_us"] = _per_call_us(
        ar.apf_control, [(x, scenario) for x in states])
    out["fields.f_rep_us"] = _per_call_us(
        ar.f_rep, [(x, obstacles[i], scenario) for x, i in zip(states, nearest)])
    out["fields.u_rep_us"] = _per_call_us(
        ar.u_rep, [(x, obstacles[i], scenario) for x, i in zip(states, nearest)])
    out["clf.nominal_control_us"] = _per_call_us(
        ar.nominal_control, [(x, scenario, grad) for x in states])
    out["rcbf.generalized_control_us"] = _per_call_us(
        ar.generalized_control, [(x, scenario, grad, lam8) for x in states])

    # single-constraint projections drawn like the oracle suite draws them
    u_noms = rng.normal(0.0, 2.0, size=(n_calls, 2))
    offsets = rng.uniform(-2.0, 2.0, size=n_calls)
    normals = rng.normal(0.0, 1.0, size=(n_calls, 2))
    terms = [ar.RcbfTerms(B=0.0, h=0.0, c=float(c), d=d, gamma=0.0, c_tilde=float(c))
             for c, d in zip(offsets, normals)]
    out["rcbf.safety_filter_us"] = _per_call_us(
        ar.safety_filter, list(zip(u_noms, terms)))
    cons = [[ar.HalfSpaceConstraint(float(c), d)] for c, d in zip(offsets, normals)]
    out["qp.solve_projection_us"] = _per_call_us(
        ar.solve_projection, list(zip(u_noms, cons)))

    wall, _ = _timed(lambda: verify.oracle_suite(n=n_oracle, seed=seed))
    out["verify.oracle_us_per_case"] = wall / n_oracle * 1e6
    wall, _ = _timed(lambda: verify.equivalence_suite(scenario, nx=grid, ny=grid))
    kept = verify.grid_states(scenario, nx=grid, ny=grid)[0].shape[0]
    out["verify.equivalence_us_per_state"] = wall / max(kept, 1) * 1e6
    wall, _ = _timed(lambda: verify.gradient_suite(scenario, n=n_gradients, seed=seed))
    out["verify.gradients_us_per_state"] = wall / n_gradients * 1e6

    # an RK4 rollout at the fig2 step size with the lambda = 8 filter from the
    # workload's first-call state, then its CSV written and read back; each
    # the median of three
    cfg = ar.SimConfig(dt=0.004, t_max=40.0, goal_tolerance=0.05, integrator="rk4")
    spec = ar.ControllerSpec("generalized", grad, lam8)
    wall, tr = _timed(lambda: ar.simulate(scenario, spec, cfg, x0), repeats=3)
    out["simulate.steps_per_s"] = tr.n_samples / wall
    path = work / "probe.csv"
    wall, _ = _timed(lambda: ar.write_trajectory_csv(tr, path), repeats=3)
    out["simulate.write_csv_us_per_row"] = wall / tr.n_samples * 1e6
    wall, _ = _timed(lambda: ar.read_trajectory_csv(path, tr.terminal), repeats=3)
    out["simulate.read_csv_us_per_row"] = wall / tr.n_samples * 1e6
    path.unlink()
    return out
