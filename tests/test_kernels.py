"""The scalar kernels: Python floats in the hot loop, the shared idle-shell
terms, the buffered record, and the stationary fill.

Arithmetic on ``np.float64`` scalars gives the same bits as on ``float`` but
costs about four times as much, so a numpy scalar leaking back into the model
would slow every rollout silently.  These checks catch that by type, without
timing anything.
"""

import itertools
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apf_rcbf import (ControllerSpec, GammaSelector, Obstacle, Scenario, SigmaSelector,
                      SimConfig, simulate)
from apf_rcbf import _kernels as _k

# obstacles given as numpy arrays and numpy scalars on purpose
SCENARIO = Scenario(goal=np.array([4.0, 0.0]),
                    obstacles=(Obstacle(np.array([2.0, 0.0]), np.float64(0.5), 0.4),
                               Obstacle([2.0, 1.6], 0.5, np.float32(0.25))),
                    k_att=np.float64(1.5), k_rep=2, alpha_gain=np.float32(0.5))

SIGMAS = (SigmaSelector.grad_norm_squared(), SigmaSelector.scaled_value(0.7),
          SigmaSelector.scaled_norm(1.3), SigmaSelector.custom([0.0, 1.0, 5.0], [0.0, 0.5, 2.0]))
GAMMAS = (GammaSelector.zero(), GammaSelector.scaled_special(2.0),
          GammaSelector.custom([0.0, 0.1, 0.3], [0.5, 0.2, 0.0]))

PACKINGS = ([pytest.param(_k.pack_controller(s, g), id=f"sigma{i}-gamma{j}")
             for (i, s), (j, g) in itertools.product(enumerate(SIGMAS), enumerate(GAMMAS))]
            + [pytest.param(_k.pack_controller(s, filtered=False), id=f"sigma{i}-unfiltered")
               for i, s in enumerate(SIGMAS)]
            + [pytest.param(_k.pack_controller(), id="apf")])

# inside the first obstacle's shell, outside every shell, inside the first obstacle
STATES = ((1.3, 0.1), (-1.0, -2.0), (2.1, 0.0))


def test_packings_cover_every_selector_kind():
    kinds = {(p.values[0][0], p.values[0][1], p.values[0][5]) for p in PACKINGS}
    assert {(2, s, g) for s in range(4) for g in range(3)} <= kinds
    assert {(1, s) for s in range(4)} <= {(c, s) for c, s, _ in kinds}


@pytest.mark.parametrize("packing", PACKINGS)
def test_pack_model_unboxes_every_scalar(packing):
    model = _k.pack_model(SCENARIO, packing)
    (gx, gy, obstacles, k_att, k_rep, alpha_gain,
     ckind, skind, scoef, stx, sty, gkind, glam, gtx, gty) = model
    assert type(obstacles) is tuple and len(obstacles) == 2
    assert all(type(obs) is tuple and len(obs) == 4 for obs in obstacles)
    scalars = [gx, gy, *itertools.chain(*obstacles), k_att, k_rep, alpha_gain, scoef, glam]
    assert [type(v) for v in scalars] == [float] * len(scalars)
    assert [type(v) for v in (ckind, skind, gkind)] == [int] * 3
    assert obstacles == ((2.0, 0.0, 0.5, 0.4), (2.0, 1.6, 0.5, 0.25))
    assert (gx, gy, k_att, k_rep, alpha_gain) == (4.0, 0.0, 1.5, 2.0, 0.5)


@pytest.mark.parametrize("packing", PACKINGS)
@pytest.mark.parametrize("state", STATES)
def test_control_point_returns_floats(packing, state):
    phis = np.empty(2)
    out = _k._control_point(*state, _k.pack_model(SCENARIO, packing), phis)
    assert [type(v) for v in out] == [float] * 4


def test_control_point_exercises_every_branch():
    """The states above really reach the active filter, the idle shell and the
    obstacle interior, so the type checks cover every return path."""
    model = _k.pack_model(SCENARIO, _k.pack_controller(SIGMAS[3], GAMMAS[2]))
    phis = np.empty(2)
    _, _, hmin, ming = _k._control_point(*STATES[0], model, phis)
    assert 0.0 < hmin < 0.4 and math.isfinite(ming)
    _, _, hmin, _ = _k._control_point(*STATES[1], model, phis)
    assert hmin > 0.4
    _, _, hmin, _ = _k._control_point(*STATES[2], model, phis)
    assert hmin < 0.0 and math.isnan(phis[0])


def test_rollout_states_stay_floats(monkeypatch):
    """numpy-typed start, step and tolerance are unboxed before the loop, so
    every state the rollout evaluates is a Python float."""
    seen = set()
    control_point = _k._control_point

    def spy(x, y, model, phis):
        seen.add((type(x), type(y)))
        return control_point(x, y, model, phis)

    monkeypatch.setattr(_k, "_control_point", spy)
    cfg = SimConfig(dt=np.float64(0.01), t_max=0.5, goal_tolerance=np.float64(0.05))
    tr = simulate(SCENARIO, ControllerSpec("apf"), cfg, np.array([1.0, 0.2]))
    assert tr.n_samples == 51 and tr.h_min.min() < 0.4  # crossed a live shell
    assert seen == {(float, float)}


# A state that repeats itself under a step is a stall: the rest of the run is
# filled in without stepping.  These stubs stand in for the controller so the
# fill and its bookkeeping can be checked against exact counts.

def _rollout(model, n_max, integ, x0, dt=0.01):
    """Runs ``_integrate`` (``integ`` 0 = Euler, 1 = RK4) into a fresh record;
    returns its result, the seven base columns and the margins."""
    rec = np.full((n_max + 1, 7 + len(model[2])), -1.0)
    stages = ((), _k.RK4_STAGES)[integ]
    out = _k._integrate(*x0, model, dt, n_max, 1e-3, stages, rec)
    return out, list(rec[:, :7].T), rec[:, 7:]


FAR_GOAL = _k.pack_model(Scenario(goal=[100.0, 0.0],
                                  obstacles=(Obstacle([50.0, 50.0], 0.5, 0.4),)),
                         _k.pack_controller())


def test_signed_zero_step_is_not_stationary(monkeypatch):
    """-0.0 + dt * 0.0 is +0.0: equal under ``==`` but a different state,
    where the controller may answer differently, so the step is taken."""
    def stub(x, y, model, phis):
        phis[0] = 0.5
        if math.copysign(1.0, y) < 0.0:
            return 0.0, 0.0, 1.0, math.inf
        return 1.0, 0.0, 1.0, math.inf

    monkeypatch.setattr(_k, "_control_point", stub)
    (n, status, _, _), (ts, xs, ys, uxs, uys, _, _), _ = _rollout(FAR_GOAL, 5, 0, (0.0, -0.0))
    assert (n, status) == (6, _k.TIMEOUT)
    assert math.copysign(1.0, ys[0]) < 0.0 and math.copysign(1.0, ys[1]) > 0.0
    assert (uxs[0], uxs[1]) == (0.0, 1.0)
    assert xs.tolist() == [0.0, 0.0, 0.01, 0.02, 0.03, 0.04]


@pytest.mark.parametrize("integ, expected", [(0, 41), (1, 41 + 3 * 40)])
def test_stationary_fill_counts_every_skipped_evaluation(monkeypatch, integ, expected):
    """A state that never moves and a tightening that is always negative:
    the count covers n_max + 1 samples plus, for RK4, three stages in each of
    the n_max steps, exactly as stepping every sample would."""
    calls = []

    def stub(x, y, model, phis):
        calls.append((x, y))
        phis[0] = 0.25
        return 0.0, 0.0, 2.0, -3.0

    monkeypatch.setattr(_k, "_control_point", stub)
    out, (ts, xs, ys, uxs, uys, hs, vs), phis = _rollout(FAR_GOAL, 40, integ, (1.0, 2.0))
    assert out == (41, _k.TIMEOUT, -3.0, expected)
    assert len(calls) == (1 if integ == 0 else 4)  # only the first step is taken
    assert ts.tolist() == [k * 0.01 for k in range(41)]
    assert set(xs.tolist()) == {1.0} and set(ys.tolist()) == {2.0}
    assert set(uxs.tolist()) == set(uys.tolist()) == {0.0} and set(hs.tolist()) == {2.0}
    assert set(vs.tolist()) == {vs[0]} and set(phis[:, 0].tolist()) == {0.25}


def test_stalled_rollout_stops_evaluating(monkeypatch):
    """The overlap apf run stands still from step 199 on; after that step
    the remaining 9,801 samples of its 10,001 cost no evaluation."""
    count = 0
    control_point = _k._control_point

    def spy(x, y, model, phis):
        nonlocal count
        count += 1
        return control_point(x, y, model, phis)

    monkeypatch.setattr(_k, "_control_point", spy)
    overlap = Scenario(goal=[5.0, 0.0], obstacles=(Obstacle([2.0, 0.6], 0.5, 0.4),
                                                   Obstacle([2.0, -0.6], 0.5, 0.4)))
    cfg = SimConfig(dt=0.004, t_max=40.0, goal_tolerance=0.05, integrator="rk4")
    tr = simulate(overlap, ControllerSpec("apf"), cfg, [0.0, 0.1])
    assert (tr.terminal, tr.n_samples) == ("timeout", 10001)
    assert count <= 4 * (199 + 2)


# The general per-obstacle expressions: every shell forms d = F_rep, |d|^2
# and d.u_nom, with d = (0, 0) on an idle shell, and runs one margin formula.
# The kernel shares the idle-shell terms across obstacles and reuses |F_att|^2
# as the grad-norm-squared sigma; its bits must stay these.

def _reference_control_point(x, y, model, phis):
    (gx, gy, obstacles, k_att, k_rep, alpha_gain,
     ckind, skind, scoef, stx, sty, gkind, glam, gtx, gty) = model
    bx = k_att * (x - gx)
    by = k_att * (y - gy)
    bb = bx * bx + by * by
    sig = _k._sigma_value(x, y, gx, gy, k_att, skind, scoef, stx, sty)
    gatt = -(sig / bb) if bb > 0.0 else 0.0
    unx = gatt * bx
    uny = gatt * by
    ux, uy, hmin, ming = unx, uny, math.inf, math.inf
    for i, (cx, cy, r, rho0) in enumerate(obstacles):
        ox = x - cx
        oy = y - cy
        dist = math.sqrt(ox * ox + oy * oy)
        rho = dist - r
        if rho < hmin:
            hmin = rho
        if rho <= 0.0:
            phis[i] = math.nan
            continue
        if rho >= rho0:
            dx = dy = dd = 0.0
        else:
            coef = -(k_rep / (rho * rho)) * (1.0 / rho - 1.0 / rho0) / dist
            dx = coef * ox
            dy = coef * oy
            dd = dx * dx + dy * dy
        alphah = alpha_gain * rho
        if ckind == 1:
            phis[i] = -alphah + (dx * unx + dy * uny)
            continue
        if gkind == 1:
            gam = glam * dd + alphah - (dx * unx + dy * uny)
            phi = glam * dd
        elif gkind == 0:
            gam = 0.0
            phi = -alphah + (dx * unx + dy * uny)
        else:
            gam = float(np.interp(rho, gtx, gty))
            phi = (-alphah + gam) + (dx * unx + dy * uny)
        if gam < ming:
            ming = gam
        phis[i] = phi
        if phi > 0.0 and dd > 0.0:
            grep = -(phi / dd)
            ux += grep * dx
            uy += grep * dy
    return ux, uy, hmin, ming


def _bits(values):
    return [struct.pack("<d", v) for v in values]


_coords = st.floats(-3.0, 3.0)
_sigma_sels = st.one_of(
    st.just(SIGMAS[0]), st.just(SIGMAS[3]),
    # 1e308 overflows sigma to inf, so u_nom turns non-finite
    st.sampled_from([0.7, 1e308]).map(SigmaSelector.scaled_value),
    st.sampled_from([1.3, 1e308]).map(SigmaSelector.scaled_norm))
_gamma_sels = st.one_of(st.just(GAMMAS[0]), st.just(GAMMAS[2]),
                        st.floats(1e-3, 100.0).map(GammaSelector.scaled_special))


@st.composite
def _model_and_state(draw):
    """Up to three obstacles and a state placed relative to one of them:
    inside it, in its shell, beyond it, or (``edge``) with the shell's rho0
    set to the state's computed clearance, so that rho == rho0 exactly.  A
    huge attractive gain overflows |F_att|^2 and makes u_nom NaN."""
    obstacles = [[draw(_coords), draw(_coords), draw(st.floats(0.1, 1.0)),
                  draw(st.floats(0.05, 1.0))] for _ in range(draw(st.integers(1, 3)))]
    j = draw(st.integers(0, len(obstacles) - 1))
    cx, cy, r, rho0 = obstacles[j]
    angle = draw(st.floats(0.0, 2.0 * math.pi))
    s = draw(st.floats(0.0, r + 2.0 * rho0))
    x = cx + s * math.cos(angle)
    y = cy + s * math.sin(angle)
    if draw(st.booleans()):
        clearance = math.sqrt((x - cx) * (x - cx) + (y - cy) * (y - cy)) - r
        if clearance > 0.0:
            obstacles[j][3] = clearance
    packing = _k.pack_controller(draw(_sigma_sels), draw(_gamma_sels),
                                 filtered=draw(st.booleans()))
    k_att = draw(st.sampled_from([0.5, 1.0, 2.5, 1e200]))
    model = (draw(_coords), draw(_coords), tuple(map(tuple, obstacles)), k_att,
             draw(st.floats(0.1, 5.0)), draw(st.floats(0.1, 5.0)), *packing)
    return model, x, y


@settings(max_examples=400, deadline=None)
@given(_model_and_state())
def test_control_point_is_bitwise_the_general_expressions(case):
    model, x, y = case
    m = len(model[2])
    phis, ref_phis = [0.0] * m, [0.0] * m
    out = _k._control_point(x, y, model, phis)
    ref = _reference_control_point(x, y, model, ref_phis)
    assert _bits(out) == _bits(ref)
    assert _bits(phis) == _bits(ref_phis)


def test_reference_cases_reach_every_branch():
    """Fixed cases through the paths the property test draws at random:
    rho == rho0 for every controller kind, and a NaN u_nom on an idle and a
    live shell."""
    for packing in [p.values[0] for p in PACKINGS]:
        # 2.75 - 2.0 - 0.5 == 0.25 exactly: the state sits on the shell edge
        model = (4.0, 0.0, ((2.0, 0.0, 0.5, 0.25),), 1.5, 2.0, 0.5, *packing)
        phis, ref_phis = [0.0], [0.0]
        out = _k._control_point(2.75, 0.0, model, phis)
        assert _bits(out) == _bits(_reference_control_point(2.75, 0.0, model, ref_phis))
        assert _bits(phis) == _bits(ref_phis)
    # |F_att|^2 overflows, so u_nom is NaN; the first shell is live, the
    # second idle, and the zero tightening's margins carry d.u_nom
    scenario = Scenario(goal=[4.0, 0.0], k_att=1e200,
                        obstacles=(Obstacle([2.0, 0.0], 0.5, 0.4), Obstacle([0.0, 3.0], 0.5, 0.4)))
    for gamma in GAMMAS:
        model = _k.pack_model(scenario, _k.pack_controller(SIGMAS[0], gamma))
        phis, ref_phis = [0.0, 0.0], [0.0, 0.0]
        out = _k._control_point(1.3, 0.1, model, phis)
        assert math.isnan(out[0])
        assert _bits(out) == _bits(_reference_control_point(1.3, 0.1, model, ref_phis))
        assert _bits(phis) == _bits(ref_phis)
    assert math.isnan(phis[0]) and math.isnan(phis[1])


# The record is collected in a Python list and written by row slices, so a
# record array of any memory layout is filled, and rows past the run are left.

@pytest.mark.parametrize("layout", ["fortran", "strided"])
@pytest.mark.parametrize("case", ["overlap-stall", "fig2-goal"])
def test_record_of_any_layout_is_filled(layout, case, arena):
    if case == "overlap-stall":  # stands still from step 199; 114-row chunks
        scenario = Scenario(goal=[5.0, 0.0], obstacles=(Obstacle([2.0, 0.6], 0.5, 0.4),
                                                        Obstacle([2.0, -0.6], 0.5, 0.4)))
        x0, n_max, expected = (0.0, 0.1), 500, (501, _k.TIMEOUT)
    else:  # 103-row chunks, the goal reached mid-chunk
        scenario, x0, n_max, expected = arena, (-2.0, 0.0), 2000, (1388, _k.REACHED_GOAL)
    model = _k.pack_model(scenario, _k.pack_controller())
    width = 7 + len(scenario.obstacles)
    ref = np.full((n_max + 1, width), -1.0)
    out = _k._integrate(*x0, model, 0.004, n_max, 0.05, _k.RK4_STAGES, ref)
    assert out[:2] == expected
    if layout == "fortran":
        rec = np.asfortranarray(np.full((n_max + 1, width), -1.0))
    else:
        base = np.full((2 * (n_max + 1), width), -1.0)
        rec = base[::2]
    assert not rec.flags.c_contiguous
    assert _k._integrate(*x0, model, 0.004, n_max, 0.05, _k.RK4_STAGES, rec) == out
    assert _bits(rec.ravel().tolist()) == _bits(ref.ravel().tolist())
    assert (rec[out[0]:] == -1.0).all()
    if layout == "strided":
        assert (base[1::2] == -1.0).all()
