"""The scalar kernels: Python floats in the hot loop, the shared idle-shell
terms, the buffered record, and the stationary fill.

Arithmetic on ``np.float64`` scalars gives the same bits as on ``float`` but
costs about four times as much, so a numpy scalar leaking back into the model
would slow every rollout silently.  These checks catch that by type, without
timing anything.
"""

import collections
import dataclasses
import itertools
import math
import struct
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from apf_rcbf import (ControllerSpec, GammaSelector, Obstacle, Scenario, SigmaSelector,
                      SimConfig, simulate)
from apf_rcbf import _kernels as _k
from apf_rcbf.rcbf import UNIT_GAMMA, UNIT_SIGMA
from conftest import OVERLAP, shifted

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
            + [pytest.param(_k.pack_controller(s, None), id=f"sigma{i}-unfiltered")
               for i, s in enumerate(SIGMAS)]
            + [pytest.param(_k.pack_controller(UNIT_SIGMA, UNIT_GAMMA), id="apf")])

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
    out = _k.bind(_k.pack_model(SCENARIO, packing))(*state, phis)
    assert [type(v) for v in out] == [float] * 4


def test_control_point_exercises_every_branch():
    """The states above really reach the active filter, the idle shell and the
    obstacle interior, so the type checks cover every return path."""
    point = _k.bind(_k.pack_model(SCENARIO, _k.pack_controller(SIGMAS[3], GAMMAS[2])))
    phis = np.empty(2)
    _, _, hmin, ming = point(*STATES[0], phis)
    assert 0.0 < hmin < 0.4 and math.isfinite(ming)
    _, _, hmin, _ = point(*STATES[1], phis)
    assert hmin > 0.4
    _, _, hmin, _ = point(*STATES[2], phis)
    assert hmin < 0.0 and math.isnan(phis[0])


def _fly_nothing_free(mp):
    """Makes ``_integrate`` fly nothing free (it reads ``_free_above`` at
    call time), so every evaluation calls the bound closure."""
    mp.setattr(_k, "_free_above", lambda model: math.inf)


def test_rollout_states_stay_floats(monkeypatch):
    """numpy-typed start, step and tolerance are unboxed before the loop, so
    every state the rollout evaluates is a Python float (nothing flies free,
    so the spy sees every state)."""
    seen = set()
    bind = _k.bind

    def spy_bind(model):
        point = bind(model)

        def spy(x, y, *args):
            seen.add((type(x), type(y)))
            return point(x, y, *args)
        return spy

    monkeypatch.setattr(_k, "bind", spy_bind)
    _fly_nothing_free(monkeypatch)
    cfg = SimConfig(dt=np.float64(0.01), t_max=0.5, goal_tolerance=np.float64(0.05))
    tr = simulate(SCENARIO, ControllerSpec("apf"), cfg, np.array([1.0, 0.2]))
    assert tr.n_samples == 51 and tr.h_min.min() < 0.4  # crossed a live shell
    assert seen == {(float, float)}


# A state that repeats itself under a step is a stall: the rest of the run is
# filled in without stepping.  These stubs stand in for the controller so the
# fill and its bookkeeping can be checked against exact counts; nothing flies
# free, so every evaluation calls them.

def _rollout(model, n_max, integ, x0, dt=0.01):
    """Runs ``_integrate`` (``integ`` 0 = Euler, 1 = RK4) into a fresh record;
    returns its result, the seven base columns and the margins."""
    rec = np.full((n_max + 1, 7 + len(model[2])), -1.0)
    stages = ((), _k.RK4_STAGES)[integ]
    out = _k._integrate(*x0, model, dt, n_max, 1e-3, stages, rec)
    return out, list(rec[:, :7].T), rec[:, 7:]


FAR_GOAL = _k.pack_model(Scenario(goal=[100.0, 0.0],
                                  obstacles=(Obstacle([50.0, 50.0], 0.5, 0.4),)),
                         _k.pack_controller(UNIT_SIGMA, UNIT_GAMMA))


def test_signed_zero_step_is_not_stationary(monkeypatch):
    """-0.0 + dt * 0.0 is +0.0: equal under ``==`` but a different state,
    where the controller may answer differently, so the step is taken."""
    def stub(x, y, phis, *stage):
        phis[0] = 0.5
        if math.copysign(1.0, y) < 0.0:
            return 0.0, 0.0, 1.0, math.inf
        return 1.0, 0.0, 1.0, math.inf

    monkeypatch.setattr(_k, "bind", lambda model: stub)
    _fly_nothing_free(monkeypatch)
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

    def stub(x, y, phis, *stage):
        calls.append((x, y))
        phis[0] = 0.25
        return 0.0, 0.0, 2.0, -3.0

    monkeypatch.setattr(_k, "bind", lambda model: stub)
    _fly_nothing_free(monkeypatch)
    out, (ts, xs, ys, uxs, uys, hs, vs), phis = _rollout(FAR_GOAL, 40, integ, (1.0, 2.0))
    assert out == (41, _k.TIMEOUT, -3.0, expected)
    assert len(calls) == (1 if integ == 0 else 4)  # only the first step is taken
    assert ts.tolist() == [k * 0.01 for k in range(41)]
    assert set(xs.tolist()) == {1.0} and set(ys.tolist()) == {2.0}
    assert set(uxs.tolist()) == set(uys.tolist()) == {0.0} and set(hs.tolist()) == {2.0}
    assert set(vs.tolist()) == {vs[0]} and set(phis[:, 0].tolist()) == {0.25}


def test_stalled_rollout_stops_evaluating(monkeypatch):
    """The overlap apf run stands still from step 199 on; after that step
    the remaining 9,801 samples of its 10,001 cost no evaluation (nothing
    flies free, so the spy counts every evaluation)."""
    count = 0
    bind = _k.bind

    def spy_bind(model):
        point = bind(model)

        def spy(*args):
            nonlocal count
            count += 1
            return point(*args)
        return spy

    monkeypatch.setattr(_k, "bind", spy_bind)
    _fly_nothing_free(monkeypatch)
    cfg = SimConfig(dt=0.004, t_max=40.0, goal_tolerance=0.05, integrator="rk4")
    tr = simulate(OVERLAP, ControllerSpec("apf"), cfg, [0.0, 0.1])
    assert (tr.terminal, tr.n_samples) == ("timeout", 10001)
    assert count <= 4 * (199 + 2)


# The general per-obstacle expressions: every shell forms d = F_rep, |d|^2
# and d.u_nom, with d = (0, 0) on an idle shell, and runs one margin formula.
# The kernel shares the idle-shell terms across obstacles and takes sigma /
# |F_att|^2 as 1 for the grad-norm-squared sigma (so u_nom = -F_att, also
# where |F_att|^2 overflows); its bits must stay these.

def _reference_control_point(x, y, model, phis, rows=None):
    (gx, gy, obstacles, k_att, k_rep, alpha_gain,
     ckind, skind, scoef, stx, sty, gkind, glam, gtx, gty) = model
    bx = k_att * (x - gx)
    by = k_att * (y - gy)
    bb = bx * bx + by * by
    sig = _k._sigma_value(x, y, gx, gy, k_att, skind, scoef, stx, sty)
    gatt = (-1.0 if skind == 0 else -(sig / bb)) if bb > 0.0 else 0.0
    if rows is not None:
        rows[-1] = gatt
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
            if rows is not None:
                rows[i] = (dx, dy, dd)
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
    huge attractive gain overflows |F_att|^2: u_nom is -F_att for the
    grad-norm-squared sigma, and NaN for a 1e308 scaled value, whose sigma
    overflows too."""
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
    sigma, gamma, filtered = draw(_sigma_sels), draw(_gamma_sels), draw(st.booleans())
    packing = _k.pack_controller(sigma, gamma if filtered else None)
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
    out = _k.bind(model)(x, y, phis)
    ref = _reference_control_point(x, y, model, ref_phis)
    assert _bits(out) == _bits(ref)
    assert _bits(phis) == _bits(ref_phis)


@settings(max_examples=400, deadline=None)
@given(_model_and_state())
def test_rows_buffer_reports_the_evaluation_and_changes_nothing(case):
    """``bind(model, rows)`` returns and records what ``bind(model)`` does,
    and fills ``rows`` with each live shell's ``(dx, dy, |d|^2)`` and g_att,
    leaving the other slots as they were."""
    model, x, y = case
    m = len(model[2])
    phis, row_phis = [0.0] * m, [0.0] * m
    unset = (-7.0, -7.0, -7.0)
    rows, ref_rows = [unset] * m + [-7.0], [unset] * m + [-7.0]
    out = _k.bind(model)(x, y, phis)
    assert _bits(_k.bind(model, rows)(x, y, row_phis)) == _bits(out)
    assert _bits(row_phis) == _bits(phis)
    _reference_control_point(x, y, model, [0.0] * m, ref_rows)
    assert _bits(rows[m:]) == _bits(ref_rows[m:])
    assert [_bits(row) for row in rows[:m]] == [_bits(row) for row in ref_rows[:m]]


def test_single_state_door_passes_rows_and_rollouts_pass_none(monkeypatch, arena):
    """``control`` hands its ``rows`` to ``bind``; a rollout and the grid
    bind without one."""
    calls = []
    bind = _k.bind

    def spy(model, *args, **kwargs):
        calls.append((args, kwargs))
        return bind(model, *args, **kwargs)

    monkeypatch.setattr(_k, "bind", spy)
    packing = _k.pack_controller(SigmaSelector.scaled_value(2.0), GammaSelector.zero())
    rows = [(0.0, 0.0, 0.0)] * 3 + [0.0]
    _k.control([2.0, 3.95], arena, packing, rows)
    assert calls == [((rows,), {})] and rows[3] < 0.0
    calls.clear()
    cfg = SimConfig(dt=0.02, t_max=1.0)
    for spec in (ControllerSpec("apf"), ControllerSpec("nominal_only", UNIT_SIGMA),
                 ControllerSpec("generalized", SigmaSelector.scaled_value(2.0), UNIT_GAMMA)):
        simulate(arena, spec, cfg, [-2.0, 0.5])
    _k._eval_controls(np.array([0.0, 2.0]), np.array([3.7, 3.95]),
                      _k.pack_model(arena, packing))
    assert calls == [((), {})] * 4


def test_reference_cases_reach_every_branch():
    """Fixed cases through the paths the property test draws at random:
    rho == rho0 for every controller kind, and a NaN u_nom on an idle and a
    live shell, where sigma and |F_att|^2 both overflow."""
    for packing in [p.values[0] for p in PACKINGS]:
        # 2.75 - 2.0 - 0.5 == 0.25 exactly: the state sits on the shell edge
        model = (4.0, 0.0, ((2.0, 0.0, 0.5, 0.25),), 1.5, 2.0, 0.5, *packing)
        phis, ref_phis = [0.0], [0.0]
        out = _k.bind(model)(2.75, 0.0, phis)
        assert _bits(out) == _bits(_reference_control_point(2.75, 0.0, model, ref_phis))
        assert _bits(phis) == _bits(ref_phis)
    # sigma and |F_att|^2 overflow, so u_nom is inf / inf = NaN; the first
    # shell is live, the second idle, and the zero tightening's margins
    # carry d.u_nom
    scenario = Scenario(goal=[4.0, 0.0], k_att=1e200,
                        obstacles=(Obstacle([2.0, 0.0], 0.5, 0.4), Obstacle([0.0, 3.0], 0.5, 0.4)))
    for gamma in GAMMAS:
        model = _k.pack_model(scenario, _k.pack_controller(SigmaSelector.scaled_value(1e308),
                                                          gamma))
        phis, ref_phis = [0.0, 0.0], [0.0, 0.0]
        out = _k.bind(model)(1.3, 0.1, phis)
        assert math.isnan(out[0])
        assert _bits(out) == _bits(_reference_control_point(1.3, 0.1, model, ref_phis))
        assert _bits(phis) == _bits(ref_phis)
    assert math.isnan(phis[0]) and math.isnan(phis[1])


# the real binder and free radius, for spies that wrap them while patched
_BIND = _k.bind
_FREE_R2 = _k._free_r2


def _freeze(model):
    return (*model[:2], tuple(map(tuple, model[2])), *model[3:])


def test_stage_skips_nothing_where_a_clearance_may_overflow():
    """2**515 from the obstacle the sample's squared distance overflows and
    its clearance reads inf.  The sigma table's last value makes u_nom =
    (-2**517, -0) there, so RK4's first stage lands on the obstacle's center:
    the rollout must still find it."""
    sigma = SigmaSelector.custom([0.0, 1.0], [0.0, 2.0 ** 517])
    model = (0.0, 0.0, ((0.0, 0.0, 0.5, 0.4),), 2.0 ** -515, 1.0, 1.0,
             *_k.pack_controller(sigma, None))
    ux, _, hmin, _ = _k.bind(model)(2.0 ** 515, 0.0, [0.0])
    assert (ux, hmin) == (-2.0 ** 517, math.inf)
    rec = np.full((2, 8), -1.0)
    out = _k._integrate(2.0 ** 515, 0.0, model, 0.5, 1, 0.05, _k.RK4_STAGES, rec)
    assert out[:2] == (1, _k.DOMAIN_ERROR)


# Free flight: a sample or stage whose computed squared distance q from the
# base -- the last sample evaluated in full -- is below the base's squared
# free radius r2 evaluates the stabilizer alone, inline in ``_integrate``.
# The checks replay the rule as the module docstring documents it: wherever
# it flies free, a full evaluation of the same state must find every
# clearance above the free threshold, the same control bits and no negative
# tightening, and a free sample's row, filled after the run, must hold its
# bits.  The kernel must call the bound closure at exactly the states the
# replay evaluates in full.

_UNSET = -1234.5

# one evaluation of a replayed run: the state, the stage index (None for a
# sample), its squared distance from the base and the base's squared free
# radius, u_nom where it flies free (else None), the full evaluation's
# output, and the base
_Eval = collections.namedtuple("_Eval", "state stage q r2 u full base")


def _corner(obstacles):
    """max_i(|c_i|_1 + r_i) plus the 2**-450 floor of the docstring's s."""
    return max((abs(cx) + abs(cy) + abs(r) for cx, cy, r, _ in obstacles),
               default=0.0) + 2.0 ** -450


def _documented_r2(hmin, bx, by, model):
    """The squared free radius of a base, as the module docstring defines it."""
    free_above = _k._free_above(model)
    s = abs(bx) + abs(by) + _corner(model[2])
    if not (hmin > free_above and s < 2.0 ** 500):
        return -1.0
    rad = (hmin - free_above) - 2.0 ** -40 * s
    return rad * rad * (1.0 - 2.0 ** -40) if rad > 0.0 else -1.0


def _q(state, base):
    """The squared distance of ``state`` from ``base``, as the kernel forms it."""
    ex, ey = state[0] - base[0], state[1] - base[1]
    return ex * ex + ey * ey


def _nominal(model):
    """The stabilizer of ``model`` alone: its unfiltered packing, bound."""
    return _BIND((*model[:6], 1, *model[7:11], 0, 0.0, None, None))


def _free_u(nominal, m, q, r2, x, y):
    """The documented free test of an evaluation at ``(x, y)`` whose squared
    distance from its base is ``q``: u_nom if it flies free, else None."""
    if not q < r2:
        return None
    u = nominal(x, y, [0.0] * m)[:2]
    return u if 0.0 * u[0] + 0.0 * u[1] == 0.0 else None


def _replay(model, x0, dt, n_max, stages):
    """``_integrate``'s loop (goal tolerance 0.05) with the free rule as the
    module docstring documents it, every state also evaluated in full: one
    ``_Eval`` per evaluation the kernel makes, in its order.  It reads
    ``_free_above`` and ``_free_r2`` from the module, as the kernel does."""
    m = len(model[2])
    point, nominal = _BIND(model), _nominal(model)
    gx, gy = model[:2]
    free_above, corner = _k._free_above(model), _corner(model[2])
    step = dt / (1.0 + sum(w for _, w in stages))
    evals = []
    base, r2 = (0.0, 0.0), -1.0
    xx, yy = x0
    for k in range(n_max + 1):
        q = _q((xx, yy), base)
        u = _free_u(nominal, m, q, r2, xx, yy)
        full = point(xx, yy, [0.0] * m)
        evals.append(_Eval((xx, yy), None, q, r2, u, full, base))
        if u is None:
            u = full[:2]
            if full[2] <= 0.0 or not (math.isfinite(u[0]) and math.isfinite(u[1])):
                break
            base, r2 = (xx, yy), _k._free_r2(full[2], xx, yy, free_above, corner)
        if math.sqrt((xx - gx) * (xx - gx) + (yy - gy) * (yy - gy)) < 0.05 or k == n_max:
            break
        kx = sx = u[0]
        ky = sy = u[1]
        for j, (c, w) in enumerate(stages):
            px, py = xx + c * dt * kx, yy + c * dt * ky
            q = _q((px, py), base)
            v = _free_u(nominal, m, q, r2, px, py)
            full = point(px, py, [0.0] * m)
            evals.append(_Eval((px, py), j, q, r2, v, full, base))
            if v is None:
                v = full[:2]
                if full[2] <= 0.0:
                    return evals
            kx, ky = v
            sx, sy = sx + w * kx, sy + w * ky
        nx, ny = xx + step * sx, yy + step * sy
        if (nx == xx and ny == yy and math.copysign(1.0, nx) == math.copysign(1.0, xx)
                and math.copysign(1.0, ny) == math.copysign(1.0, yy)):
            break
        xx, yy = nx, ny
    return evals


def _capped(mp, cap):
    """Patches ``_free_r2`` to give at most ``cap``: a smaller radius is
    still sound, so the run keeps its states, and only its decisions move."""
    mp.setattr(_k, "_free_r2", lambda *args: min(_FREE_R2(*args), cap))


def _spied_run(model, x0, dt, n_max, stages, cap=None):
    """``_integrate`` (goal tolerance 0.05) with a spy on the bound closure,
    and the free radius capped at ``cap`` if given.  Returns the run's
    output and record and the states where it called the closure."""
    calls = []

    def spy_bind(model):
        point = _BIND(model)

        def spy(x, y, phis):
            phis[:] = [_UNSET] * len(phis)
            out = point(x, y, phis)
            assert _UNSET not in phis  # a full evaluation writes every margin
            calls.append((x, y))
            return out
        return spy

    rec = np.full((n_max + 1, 7 + len(model[2])), -1.0)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_k, "bind", spy_bind)
        if cap is not None:
            _capped(mp, cap)
        out = _k._integrate(*x0, model, dt, n_max, 0.05, stages, rec)
    return out, rec, calls


def _same_decisions(model, x0, dt, n_max, stages, cap=None):
    """Runs the kernel and the replay, the free radius capped at ``cap`` if
    given: the kernel must call the closure at exactly the states the replay
    evaluates in full.  Returns the replay, and the run's output and
    record."""
    with pytest.MonkeyPatch.context() as mp:
        if cap is not None:
            _capped(mp, cap)
        evals = _replay(model, x0, dt, n_max, stages)
    out, rec, calls = _spied_run(model, x0, dt, n_max, stages, cap)
    assert _bits(itertools.chain(*calls)) == _bits(
        itertools.chain(*(e.state for e in evals if e.u is None)))
    return evals, out, rec


def _full_run(model, x0, dt, n_max, stages):
    """The same run with nothing flying free, so every evaluation runs every
    shell: its output and record."""
    rec = np.full((n_max + 1, 7 + len(model[2])), -1.0)
    with pytest.MonkeyPatch.context() as mp:
        _fly_nothing_free(mp)
        out = _k._integrate(*x0, model, dt, n_max, 0.05, stages, rec)
    return out, rec


def _clearances(x, y, model):
    """Every obstacle's clearance at ``(x, y)``, as the kernel computes it."""
    if not model[2]:
        return []
    return _k._idle_clearances(np.array([x]), np.array([y]), model[2])[:, 0].tolist()


def _check_free(model, x, y, u):
    """Checks the control ``u`` of a free evaluation at ``(x, y)`` against
    the full one: every clearance above the free threshold (so above every
    rho0), the same control bits, a tightening that is never negative (so
    neither counted nor the run's minimum), and the row ``_fill_free``
    writes for a free sample there."""
    m = len(model[2])
    phis = [0.0] * m
    full = _BIND(model)(x, y, phis)
    rhos = _clearances(x, y, model)
    assert _bits([min(rhos)]) == _bits([full[2]])
    assert all(rho > _k._free_above(model) for rho in rhos)
    assert _bits(u) == _bits(full[:2])
    assert full[3] >= 0.0
    rec = np.full((1, 7 + m), -1.0)
    rec[0, 1:6] = x, y, u[0], u[1], math.nan
    _k._fill_free(rec, 1, model)
    assert _bits(rec[0, 7:].tolist()) == _bits(phis)
    assert _bits([rec[0, 5]]) == _bits([full[2]])


def _check_free_rollout(model, x0, dt, n_max, stages):
    """Checks a run against the replay of the documented rule: every free
    evaluation against the full one, the kernel's decisions against the
    replay's, and the whole run against one that evaluates every shell at
    every state.  Returns the replay."""
    evals, out, rec = _same_decisions(model, x0, dt, n_max, stages)
    for e in evals:
        if e.u is not None:
            assert e.q < e.r2
            _check_free(model, *e.state, e.u)
    full_out, full = _full_run(model, x0, dt, n_max, stages)
    assert full_out == out
    assert _bits(full.ravel().tolist()) == _bits(rec.ravel().tolist())
    return evals


def _free_counts(evals):
    """The numbers of free samples and of free stages."""
    free = [e.stage is not None for e in evals if e.u is not None]
    return len(free) - sum(free), sum(free)


def _check_threshold(model, x0, dt, stages, evals, samples):
    """Caps the free radius at the ``q`` of free evaluations (samples, or
    stages) whose ``q`` is above that of every earlier free sample, so those
    stay free and the base stays: with the cap one ulp above ``q`` the
    evaluation flies free, at ``q`` not (the test is a strict <), and the
    kernel must follow the replay both times.  This pins the kernel's base
    and squared distance to the documented ones to the last bit of ``q``."""
    q_free, testable = -math.inf, []
    for i, e in enumerate(evals):
        if e.u is None:
            continue
        if e.q > q_free and (e.stage is None) == samples:
            testable.append(i)
        if e.stage is None:
            q_free = max(q_free, e.q)
    assert testable
    # the first, the middle and the last of them
    chosen = sorted({testable[0], testable[len(testable) // 2], testable[-1]})
    for i in chosen:
        q = evals[i].q
        n_max = sum(e.stage is None for e in evals[:i + 1])
        for cap, flies in ((math.nextafter(q, math.inf), True), (q, False)):
            moved, *_ = _same_decisions(model, x0, dt, n_max, stages, cap)
            assert _bits([moved[i].q, moved[i].r2]) == _bits([q, cap])
            assert (moved[i].u is not None) == flies


@pytest.mark.parametrize("dt", [0.004, 0.02])
@pytest.mark.parametrize("spec", [ControllerSpec("apf"),
                                  ControllerSpec("generalized", sigma_sel=UNIT_SIGMA,
                                                 gamma_sel=GammaSelector.zero()),
                                  ControllerSpec("generalized", sigma_sel=SIGMAS[1],
                                                 gamma_sel=GammaSelector.scaled_special(8.0)),
                                  ControllerSpec("nominal_only", sigma_sel=SIGMAS[2])],
                         ids=["apf", "zero", "special8", "nominal"])
@pytest.mark.parametrize("where", ["fig2", "overlap"])
def test_rollout_passes_each_stage_its_reach_and_skips_nothing_that_counts(
        where, spec, dt, arena):
    """Every stage flies free exactly where its squared distance from the
    base and the base's free radius say, to the last bit of that distance,
    every evaluation that does not fly free runs every shell, and the run
    equals one that evaluates every shell at every stage, record and return
    alike."""
    scenario, x0 = (arena, (-2.0, 0.0)) if where == "fig2" else (OVERLAP, (0.0, 0.1))
    model = _k.pack_model(scenario, spec.packing())
    evals = _check_free_rollout(model, x0, dt, 400, _k.RK4_STAGES)
    assert _free_counts(evals)[1] > 0
    _check_threshold(model, x0, dt, _k.RK4_STAGES, evals, samples=False)


def _reference_rollout(x0, model, dt, n_max, goal_tol):
    """``_integrate``'s RK4 loop on ``_reference_control_point``, with every
    shell evaluated at every state and no stationary fill, returning the
    smallest negative tightening (+inf if none); also returns whether that
    minimum was first reached at a stage."""
    gx, gy, obstacles, k_att = model[:4]
    phis = [0.0] * len(obstacles)
    rows, ming, negcount, at_stage = [], math.inf, 0, False
    xx, yy = x0
    for k in range(n_max + 1):
        ux, uy, hmin, mg = _reference_control_point(xx, yy, model, phis)
        if mg < 0.0:
            negcount += 1
            if mg < ming:
                ming, at_stage = mg, False
        if hmin <= 0.0:
            return (len(rows), _k.DOMAIN_ERROR, ming, negcount), rows, at_stage
        dd2 = (xx - gx) * (xx - gx) + (yy - gy) * (yy - gy)
        rows.append([k * dt, xx, yy, ux, uy, hmin, 0.5 * k_att * dd2, *phis])
        if math.sqrt(dd2) < goal_tol:
            return (len(rows), _k.REACHED_GOAL, ming, negcount), rows, at_stage
        if k == n_max:
            break
        kx = sx = ux
        ky = sy = uy
        for c, w in _k.RK4_STAGES:
            kx, ky, hk, mgk = _reference_control_point(xx + c * dt * kx, yy + c * dt * ky,
                                                       model, [0.0] * len(obstacles))
            if mgk < 0.0:
                negcount += 1
                if mgk < ming:
                    ming, at_stage = mgk, True
            if hk <= 0.0:
                return (len(rows), _k.DOMAIN_ERROR, ming, negcount), rows, at_stage
            sx = sx + w * kx
            sy = sy + w * ky
        xx = xx + dt / 6.0 * sx
        yy = yy + dt / 6.0 * sy
    return (len(rows), _k.TIMEOUT, ming, negcount), rows, at_stage


def test_far_idle_table_shell_sets_the_minimum_and_is_never_skipped():
    """A Gamma table with a narrow negative dip at clearance 5.2: the shell
    of the obstacle behind the start is idle all run, and its table value at
    a stage state is the run's smallest negative tightening.  The raw return
    and record equal the reference loop's, which evaluates that shell at
    every stage."""
    scenario = Scenario(goal=[4.0, 0.0], obstacles=(Obstacle([1.0, 1.0], 0.5, 0.4),
                                                    Obstacle([-6.0, 0.0], 0.5, 0.4)))
    knots = [0.0, 5.0, 5.2, 5.4, 20.0]
    # GammaSelector refuses a negative value; the kernel's table slot takes it
    packing = (*_k.pack_controller(UNIT_SIGMA, GammaSelector.custom(knots, [1.0] * 5))[:-1],
               np.array([1.0, 1.0, -0.05, 1.0, 1.0]))
    model = _k.pack_model(scenario, packing)
    n_max = 2000
    rec = np.full((n_max + 1, 9), -1.0)
    out = _k._integrate(-2.0, 0.0, model, 0.004, n_max, 0.05, _k.RK4_STAGES, rec)
    ref, rows, at_stage = _reference_rollout((-2.0, 0.0), model, 0.004, n_max, 0.05)
    assert out == ref
    # the near shell's clearance stays below 5, where the table is 1
    assert out[1] == _k.REACHED_GOAL and -0.05 <= out[2] < 0.0 and out[3] > 0 and at_stage
    assert _bits(rec[:out[0]].ravel().tolist()) == _bits(np.ravel(rows).tolist())


@pytest.mark.parametrize("gamma", [GammaSelector.zero(), GammaSelector.scaled_special(100.0)],
                         ids=["zero", "special100"])
def test_run_without_a_negative_tightening_returns_inf_and_zero(gamma, arena):
    """The run's minimum is that of its negative tightenings only: a fig2 run
    from inside a live shell (clearance 0.15, rho0 0.2) whose tightenings
    are all >= 0 (lambda 100 is above the arena's largest lambda*) returns
    +inf and 0, flying free and with nothing free alike."""
    model = _k.pack_model(arena, _k.pack_controller(UNIT_SIGMA, gamma))
    x0 = (-0.4, 0.85)
    out, rec, calls = _spied_run(model, x0, 0.004, 3000, _k.RK4_STAGES)
    assert out[1] == _k.REACHED_GOAL and rec[0, 5] < 0.2
    assert len(calls) < out[0]  # most evaluations flew free
    assert out[2:] == (math.inf, 0)
    full_out, full = _full_run(model, x0, 0.004, 3000, _k.RK4_STAGES)
    assert full_out == out
    assert _bits(full.ravel().tolist()) == _bits(rec.ravel().tolist())


@settings(max_examples=300, deadline=None)
@given(hmin=st.one_of(st.floats(0.0, 3.0), st.floats()), bx=st.floats(-10.0, 10.0),
       by=st.one_of(st.floats(-10.0, 10.0), st.sampled_from([1e6, 2.0 ** 499, -2.0 ** 500])),
       rho0=st.floats(0.01, 2.0))
# rad <= 0 by one slack, nothing but the floor, and the span at its limit
@example(hmin=0.4 + 2.0 ** -40 * (3.5 + 2.0 ** -450), bx=0.0, by=0.0, rho0=0.4)
@example(hmin=math.nan, bx=0.0, by=0.0, rho0=0.4)
@example(hmin=3.0, bx=2.0 ** 500 - 3.5, by=0.0, rho0=0.4)
def test_free_r2_is_the_documented_radius(hmin, bx, by, rho0):
    model = (0.0, 0.0, ((1.0, -2.0, 0.5, rho0), (-3.0, 0.5, 0.25, 0.2)), 1.0, 1.0, 1.0,
             *_k.pack_controller(UNIT_SIGMA, UNIT_GAMMA))
    r2 = _k._free_r2(hmin, bx, by, _k._free_above(model), _corner(model[2]))
    assert _bits([r2]) == _bits([_documented_r2(hmin, bx, by, model)])
    assert r2 == -1.0 or r2 > 0.0 or r2 == 0.0  # never NaN
    event("free" if r2 > 0.0 else "none")


# The lemma at single states: a base near the shells, at the origin or near
# +-1e6, with every rho0 moved to within a few ulps of the base's smallest
# clearance less the distance to the state, and the state moved onto the
# free radius that leaves; the state and its ulp neighbours are each checked.

@st.composite
def _free_case(draw):
    """A model, a base sample clear of the shells or near one, and a state
    at distance ``dist`` from it, aimed at the nearest obstacle's center or
    drawn.  Every sigma and gamma kind, the unfiltered packing, arenas near
    1e6 and non-finite u_nom are drawn; with ``edge`` set, every rho0 is
    moved to within a few ulps of the base's smallest clearance less
    ``dist`` and the rounding slack, and the state onto the free radius."""
    ox, oy = draw(st.sampled_from([0.0, 1e6, -1e6])), draw(st.sampled_from([0.0, 1e6]))
    obstacles = [[ox + draw(_coords), oy + draw(_coords), draw(st.floats(0.1, 1.0)),
                  draw(st.floats(0.05, 1.0))] for _ in range(draw(st.integers(1, 3)))]
    cx, cy, r, rho0 = obstacles[draw(st.integers(0, len(obstacles) - 1))]
    angle = draw(st.floats(0.0, 2.0 * math.pi))
    radius = draw(st.floats(r + 1e-3, r + rho0 + 3.0))
    base = (cx + radius * math.cos(angle), cy + radius * math.sin(angle))
    dist = draw(st.sampled_from([0.0, 1e-12, 1e-3, 0.05, 0.3, 1.0]))
    aim = draw(st.one_of(st.none(), st.floats(0.0, 2.0 * math.pi)))
    edge = draw(st.one_of(st.none(), st.integers(-3, 3)))
    sigma, gamma = draw(_sigma_sels), draw(_gamma_sels)
    filtered = draw(st.sampled_from([True, True, True, False]))
    model = [ox + draw(_coords), oy + draw(_coords), obstacles,
             draw(st.sampled_from([0.5, 1.0, 2.5, 1e200])),
             draw(st.floats(0.1, 5.0)), draw(st.floats(0.0, 5.0)),
             *_k.pack_controller(sigma, gamma if filtered else None)]
    return model, base, dist, aim, edge


def _unit_free_case(center, edge, k_att=1.0, dist=0.15, sigma=UNIT_SIGMA):
    """A fixed free-flight case for the unit pair (or ``sigma`` with the
    unit tightening): one obstacle of radius 0.5 at ``center``, approached
    head on from 2 to its right."""
    model = [center[0] + 9.0, center[1], [[*center, 0.5, 0.4]], k_att, 1.0, 1.0,
             *_k.pack_controller(sigma, UNIT_GAMMA)]
    return model, (center[0] + 2.0, center[1]), dist, None, edge


def _state_at(model, base, dist, aim):
    """The state ``dist`` from ``base``, toward the nearest obstacle's center
    (``aim`` None) or at the angle ``aim``."""
    if aim is None:
        rhos = _clearances(*base, model)
        cx, cy, *_ = model[2][rhos.index(min(rhos))]
        aim = math.atan2(cy - base[1], cx - base[0])
    return base[0] + dist * math.cos(aim), base[1] + dist * math.sin(aim)


@settings(max_examples=500, deadline=None)
@given(_free_case())
@example(_unit_free_case((0.0, 0.0), None))
# rho0 one ulp either side of the edge, at 1e6 and at the origin
@example(_unit_free_case((1e6, 1e6), -1))
@example(_unit_free_case((1e6, 1e6), 1))
@example(_unit_free_case((0.0, 0.0), -1, dist=1e-3))
# |F_att|^2 overflows: u_nom is -F_att, finite, for the unit sigma, and NaN
# for a 1e308 scaled-value sigma, whose value overflows too: never free
@example(_unit_free_case((0.0, 0.0), None, k_att=1e200))
@example(_unit_free_case((0.0, 0.0), None, k_att=1e200,
                         sigma=SigmaSelector.scaled_value(1e308)))
def test_free_path_matches_the_full_evaluation(case):
    """The lemma: wherever a state's squared distance from a base is below
    the base's free radius, every clearance computed there is above the free
    threshold, and where u_nom is finite as well the full evaluation agrees
    with the free one (``_check_free``).  The kernel follows the rule: the
    replay checks below compare its every decision with it."""
    model, base, dist, aim, edge = case
    m = len(model[2])
    *_, hbase, _ = _BIND(_freeze(model))(*base, [0.0] * m)
    if not hbase > 0.0:
        return  # no step follows a sample where the controller is undefined
    x, y = _state_at(model, base, dist, aim)
    if edge is not None:
        rho0 = hbase - math.sqrt(_q((x, y), base)) - 2.0 ** -40 * (
            abs(base[0]) + abs(base[1]) + _corner(model[2]))
        if rho0 > 0.0:
            for _ in range(abs(edge)):
                rho0 = math.nextafter(rho0, math.copysign(math.inf, edge))
            for obs in model[2]:
                obs[3] = rho0
    model = _freeze(model)
    free_above = _k._free_above(model)
    r2 = _k._free_r2(hbase, *base, free_above, _corner(model[2]))
    if edge is not None and r2 > 0.0:
        x, y = _state_at(model, base, math.sqrt(r2), aim)  # on the radius itself
    nominal = _nominal(model)
    free = 0
    for sx, sy in itertools.product((-1, 0, 1), repeat=2):
        px = math.nextafter(x, sx * math.inf) if sx else x
        py = math.nextafter(y, sy * math.inf) if sy else y
        if not _q((px, py), base) < r2:
            continue
        assert all(rho > free_above for rho in _clearances(px, py, model))
        u = _free_u(nominal, m, _q((px, py), base), r2, px, py)
        if u is not None:
            free += 1
            _check_free(model, px, py, u)
    event("free" if free else "evaluated")


def test_free_path_needs_finite_u_nom_and_no_table():
    """Clear of every shell by far, the second sample of an Euler run flies
    free for the unit pair.  A Gamma table, the scaled-special tightening
    with a negative alpha_gain (whose tightening alpha_gain * rho the
    clearance does not bound below), a rho0 of 0 and an arena without
    obstacles never fly free; nor does a u_nom that is not finite
    (``test_non_finite_u_nom_never_flies_free``)."""
    def free(model):
        model = _freeze(model)
        out, _, calls = _spied_run(model, (2.0, 0.0), 0.01, 1, ())
        assert out[0] == 2
        flies = len(calls) == 1
        assert flies == (_k._free_above(model) < math.inf)
        return flies

    model, *_ = _unit_free_case((0.0, 0.0), None)
    assert free(model)
    table = model[:6] + list(_k.pack_controller(UNIT_SIGMA, GAMMAS[2]))
    assert not free(table)
    assert not free([*model[:5], -1.0, *model[6:]])
    assert not free([*model[:2], [[0.0, 0.0, 0.5, 0.0]], *model[3:]])
    assert not free([*model[:2], [], *model[3:]])


@pytest.mark.parametrize("stages", [(), ((1.0, 1.0),)], ids=["sample", "stage"])
@pytest.mark.parametrize("sigma, k_att, x0, dt", [
    # sigma = 1e300 * V overflows once the step, 2.8 times the offset back
    # across the goal, lands 2.7e4 from it: u_nom = -inf * b
    (SigmaSelector.scaled_value(1e300), 1.0, (1.5e4, 0.0), 5.6e-300),
    # b itself overflows there: u_nom = -b = (inf, -0)
    (UNIT_SIGMA, 1e208, (1e100, 0.0), 2.8e-208),
], ids=["sigma", "grad"])
def test_non_finite_u_nom_never_flies_free(sigma, k_att, x0, dt, stages):
    """A finite first control whose step (or stage) lands, far clear of the
    only shell, where u_nom is not finite: the kernel evaluates that state
    in full, as the replay does, and the run ends with a domain error
    after one sample."""
    model = (0.0, 0.0, ((0.0, 1e102, 0.5, 0.4),), k_att, 1.0, 1.0,
             *_k.pack_controller(sigma, GammaSelector.zero()))
    evals, out, rec = _same_decisions(model, x0, dt, 3, stages)
    assert out[:2] == (1, _k.DOMAIN_ERROR) and np.isfinite(rec[0, 3:5]).all()
    late = evals[1]  # the next sample, or the stage
    assert late.u is None and late.q < late.r2
    assert not np.isfinite(late.full[:2]).all()
    assert _full_run(model, x0, dt, 3, stages)[0] == out


@pytest.mark.parametrize("integ", [0, 1], ids=["euler", "rk4"])
@pytest.mark.parametrize("dt", [0.004, 0.02])
@pytest.mark.parametrize("spec", [ControllerSpec("apf"),
                                  ControllerSpec("generalized", sigma_sel=UNIT_SIGMA,
                                                 gamma_sel=GAMMAS[2])],
                         ids=["apf", "table"])
@pytest.mark.parametrize("where", ["fig2", "fig2+1e6", "overlap"])
def test_rollout_passes_each_evaluation_its_chain(where, spec, dt, integ, arena):
    """Every evaluation is decided on the documented base and free radius:
    the last sample evaluated in full, and the radius its smallest clearance
    gives above every rho0 it may leave out (a Gamma table's threshold is
    +inf, so it never flies free).  The decisions of free samples (Euler) or
    stages (RK4) are pinned to the last bit of their squared distance from
    the base."""
    shift = 1e6 if where == "fig2+1e6" else 0.0
    scenario = OVERLAP if where == "overlap" else shifted(arena, shift)
    x0 = (0.0, 0.1) if where == "overlap" else (0.5 + shift, 1.5 + shift)
    model = _k.pack_model(scenario, spec.packing())
    stages = ((), _k.RK4_STAGES)[integ]
    evals = _check_free_rollout(model, x0, dt, 600, stages)
    free = _free_counts(evals)[0]
    assert (free > 0) == (spec.kind == "apf")
    if free:
        _check_threshold(model, x0, dt, stages, evals, samples=not stages)


@pytest.mark.parametrize("integ", [0, 1], ids=["euler", "rk4"])
@pytest.mark.parametrize("dt", [0.004, 0.02])
@pytest.mark.parametrize("spec, x0", [
    (ControllerSpec("apf"), (0.5, 1.5)),
    (ControllerSpec("generalized", sigma_sel=UNIT_SIGMA, gamma_sel=GammaSelector.zero()),
     (-2.0, 0.0)),
    (ControllerSpec("generalized", sigma_sel=SIGMAS[1],
                    gamma_sel=GammaSelector.scaled_special(8.0)), (6.0, 5.5)),
    (ControllerSpec("nominal_only", sigma_sel=SIGMAS[2]), (-3.0, 5.0)),
], ids=["apf", "zero", "value-special8", "norm-nominal"])
@pytest.mark.parametrize("shift", [0.0, 1e6], ids=["fig2", "fig2+1e6"])
def test_rollout_flies_free_and_keeps_every_bit(shift, spec, x0, dt, integ, arena):
    """fig2 runs, and the same arena translated by 1e6, where the rounding
    slack of each radius is larger than most steps: samples and stages fly
    free, each one equal to its full evaluation, and the run equals one that
    evaluates every shell everywhere."""
    model = _k.pack_model(shifted(arena, shift), spec.packing())
    stages = ((), _k.RK4_STAGES)[integ]
    samples, stage_count = _free_counts(_check_free_rollout(
        model, (x0[0] + shift, x0[1] + shift), dt, int(40.0 / dt), stages))
    assert samples > 0 and (stage_count > 0 or not stages)


@settings(max_examples=60, deadline=None)
@given(_free_case(), st.sampled_from([(), _k.RK4_STAGES]), st.sampled_from([0.004, 0.02, 0.05]))
def test_any_rollout_keeps_every_bit_in_free_flight(case, stages, dt):
    model, base, *_ = case
    model = _freeze(model)
    *_, hbase, _ = _BIND(model)(*base, [0.0] * len(model[2]))
    if not hbase > 0.0:
        return
    samples, stage_count = _free_counts(_check_free_rollout(model, base, dt, 150, stages))
    event(f"free samples: {min(samples, 1)}, free stages: {min(stage_count, 1)}")


# The inline stabilizer: ``_integrate`` forms u_nom for a free evaluation
# with the closure's bits.  A stub closure
# evaluates the first sample with clearance 1000, and with the threshold at
# 0.5 every evaluation within about 999 of it whose u_nom is finite flies
# free.

def _stub_run(model, x0, slope, dt, stages):
    """A one-step ``_integrate`` run (goal tolerance 0, threshold 0.5) whose
    first sample the stub gives the control ``slope``; returns the record
    and the states where it called the stub."""
    calls = []

    def stub(x, y, phis):
        calls.append((x, y))
        return (*slope, 1e3, math.inf) if len(calls) == 1 else (0.0, 0.0, 1.0, math.inf)

    rec = np.full((2, 7 + len(model[2])), -1.0)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_k, "bind", lambda model: stub)
        mp.setattr(_k, "_free_above", lambda model: 0.5)
        _k._integrate(*x0, model, dt, 1, 0.0, stages, rec)
    return rec, calls


def _free_sample(model, x, y):
    """The state an Euler step of 1 reaches at ``(x, y)`` -- from a zero of
    each coordinate's sign, so x + 0 is x; (0, 0) from (1, 1) -- and the
    control ``_integrate`` records there, or None if it called the closure."""
    x0, slope = (math.copysign(0.0, x), math.copysign(0.0, y)), (x, y)
    if x == y == 0.0:
        x0, slope = (1.0, 1.0), (-1.0, -1.0)
    rec, calls = _stub_run(model, x0, slope, 1.0, ())
    return tuple(rec[1, 1:3].tolist()), (None if len(calls) > 1 else tuple(rec[1, 3:5].tolist()))


def _free_stage(model, x, y):
    """The next sample of a one-stage step (c 1, w 1, dt 2) from ``(x, y)``,
    whose slope there is a zero of each coordinate's sign, so the stage
    state is ``(x, y)`` itself and the next sample is ``(x, y)`` plus the
    stage's control; None if it called the closure at the stage."""
    x0 = (x, y)
    rec, calls = _stub_run(model, x0, (math.copysign(0.0, x), math.copysign(0.0, y)),
                           2.0, ((1.0, 1.0),))
    if len(calls) > 1 and _bits(calls[1]) == _bits(x0):
        return None
    return tuple(rec[1, 1:3].tolist())


_offsets = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -2.5]), st.floats(-10.0, 10.0))


@settings(max_examples=300, deadline=None)
@given(x=_offsets, y=_offsets, goal=st.tuples(_offsets, _offsets), at_goal=st.booleans(),
       k_att=st.sampled_from([1e-170, 1e-160, 0.5, 1.0, 1e154, 1e200, 1e308]),
       sigma=st.one_of(_sigma_sels, st.just(SigmaSelector.scaled_value(1e-300))),
       gamma=st.one_of(st.none(), _gamma_sels))
# |b|^2 = 0 at the goal, subnormal (1e-160 * 1), overflowed (1e200 * 4), b
# itself overflowed (1e308 * 4), and +-0 offsets on one axis
@example(x=1.0, y=2.0, goal=(1.0, 2.0), at_goal=False, k_att=1.0, sigma=SIGMAS[0], gamma=None)
@example(x=1.0, y=0.0, goal=(0.0, 0.0), at_goal=False, k_att=1e-160, sigma=SIGMAS[0],
         gamma=GAMMAS[1])
@example(x=0.0, y=0.0, goal=(4.0, 0.0), at_goal=False, k_att=1e200, sigma=SIGMAS[0],
         gamma=GAMMAS[1])
@example(x=0.0, y=0.0, goal=(4.0, 0.0), at_goal=False, k_att=1e308, sigma=SIGMAS[0],
         gamma=GAMMAS[1])
@example(x=-0.0, y=3.0, goal=(0.0, 0.0), at_goal=False, k_att=1.0, sigma=SIGMAS[2],
         gamma=GAMMAS[0])
@example(x=-0.0, y=-0.0, goal=(4.0, 0.0), at_goal=False, k_att=1.0,
         sigma=SigmaSelector.scaled_value(1e308), gamma=GAMMAS[1])
def test_inline_u_nom_is_the_closures(x, y, goal, at_goal, k_att, sigma, gamma):
    """Every sigma kind, with |b|^2 zero, subnormal or overflowed, +-0
    offsets from the goal and a 1e308 sigma scale: a free sample's control
    and a free stage's slope are ``bind(model)(x, y, phis)[:2]`` bit for
    bit (the only shell is far away and idle), and an evaluation flies free
    exactly where that is finite."""
    if at_goal:
        goal = (x, goal[1])
    model = (*goal, ((1e3, 1e3, 0.5, 0.4),), k_att, 1.0, 1.0, *_k.pack_controller(sigma, gamma))
    point = _BIND(model)
    state, u = _free_sample(model, x, y)
    ref = point(*state, [0.0])[:2]
    finite = math.isfinite(ref[0]) and math.isfinite(ref[1])
    assert (u is not None) == finite
    if finite:
        assert _bits(u) == _bits(ref)
    ref = point(x, y, [0.0])[:2]
    finite = math.isfinite(ref[0]) and math.isfinite(ref[1])
    nxt = _free_stage(model, x, y)
    assert (nxt is not None) == finite
    if finite:
        zx, zy = math.copysign(0.0, x), math.copysign(0.0, y)
        assert _bits(nxt) == _bits([x + 1.0 * (zx + 1.0 * ref[0]), y + 1.0 * (zy + 1.0 * ref[1])])
    event(f"finite: {finite}")


def test_free_rows_carry_the_sign_of_a_zero_margin():
    """With alpha_gain 0 the zero tightening's idle margin is -0.0 + d.u_nom:
    -0.0 where both components of u_nom are negative, +0.0 where one is not.
    A filled row must carry the sign the kernel gives, which -(alpha * rho)
    alone would not."""
    signs = []
    for goal in ((-6.0, -6.0), (9.0, -6.0)):
        model = (*goal, ((0.0, 0.0, 0.5, 0.4), (0.0, 5.0, 0.5, 0.4)), 1.0, 1.0, 0.0,
                 *_k.pack_controller(UNIT_SIGMA, GAMMAS[0]))
        phis = [0.0, 0.0]
        ux, uy, hmin, _ = _k.bind(model)(3.0, 0.0, phis)
        rec = np.full((1, 9), -1.0)
        rec[0, 1:6] = 3.0, 0.0, ux, uy, math.nan
        _k._fill_free(rec, 1, model)
        assert _bits(rec[0, 7:].tolist()) == _bits(phis) and rec[0, 5] == hmin
        signs.append(math.copysign(1.0, phis[0]))
    assert signs == [-1.0, 1.0]


# The record is collected in a Python list and written by row slices, so a
# record array of any memory layout is filled, and rows past the run are left.

@pytest.mark.parametrize("layout", ["fortran", "strided"])
@pytest.mark.parametrize("case", ["overlap-stall", "fig2-goal"])
def test_record_of_any_layout_is_filled(layout, case, arena):
    if case == "overlap-stall":  # stands still from step 199; 114-row chunks
        scenario = OVERLAP
        x0, n_max, expected = (0.0, 0.1), 500, (501, _k.TIMEOUT)
    else:  # 103-row chunks, the goal reached mid-chunk
        scenario, x0, n_max, expected = arena, (-2.0, 0.0), 2000, (1388, _k.REACHED_GOAL)
    model = _k.pack_model(scenario, _k.pack_controller(UNIT_SIGMA, UNIT_GAMMA))
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


def _in_layout(values, layout):
    """A copy of the 2-D ``values`` in a record of ``layout``: "c",
    "fortran", or "strided" (every other row of a base twice as tall, whose
    other rows hold -1.0); returns the record and its base."""
    if layout == "c":
        rec = values.copy()
    elif layout == "fortran":
        rec = np.asfortranarray(values)
    else:
        base = np.full((2 * values.shape[0], values.shape[1]), -1.0)
        base[::2] = values
        return base[::2], base
    return rec, rec


# Bit patterns a flush must store as they are: +-0, +-inf, the extreme
# subnormals, quiet NaNs (one with a payload) and signalling NaNs
SPECIAL_BITS = (0x0000000000000000, 0x8000000000000000, 0x7FF0000000000000,
                0xFFF0000000000000, 0x0000000000000001, 0x800FFFFFFFFFFFFF,
                0x7FF8000000000000, 0xFFF8000000000123, 0x7FF0000000000001,
                0xFFF4000000000ABC)


@pytest.mark.parametrize("layout", ["c", "fortran", "strided"])
def test_flush_writes_every_bit_verbatim(layout):
    """Each special value stands in every buffered column, x, y, ux, uy,
    h_min and both margins, and reaches the record with its bits; a row
    ``hms`` does not name gets h_min NaN, and nothing else of the record
    moves (``V`` aside, which the caller writes after the loop)."""
    vals = [struct.unpack("<d", struct.pack("<Q", b))[0] for b in SPECIAL_BITS]
    assert _bits(vals) == [struct.pack("<Q", b) for b in SPECIAL_BITS]
    nv = len(vals)
    row, n, width = 5, 12, 9
    full = [0, 1, 2, 4, 5, 6, 7, 9, 10, 11]  # every value in every column of hms
    smp, hms = [], []
    for i in range(n):
        smp += [vals[(i + j) % nv] for j in range(4)]
    for t, i in enumerate(full):
        hms += (row + i, vals[t], 0.0, vals[(t + 1) % nv], vals[(t + 2) % nv])
    before = np.arange(20.0 * width).reshape(20, width)
    rec, base = _in_layout(before, layout)
    want = [list(r) for r in before.tolist()]
    for i in range(n):
        want[row + i][1:5] = smp[4 * i:4 * i + 4]
        want[row + i][5] = math.nan
    for t, i in enumerate(full):
        want[row + i][5:] = hms[5 * t + 1:5 * t + 5]
    assert _k._flush(rec, row, smp, hms) == row + n
    assert smp == [] and hms == []
    got = rec.tolist()
    for r in range(20):
        for c in range(width):
            if c == 5 and row <= r < row + n and r - row not in full:
                assert math.isnan(got[r][c])
            elif not (c == 6 and r - row in full):
                assert _bits([got[r][c]]) == _bits([want[r][c]]), (r, c)
    if layout == "strided":
        assert (base[1::2] == -1.0).all()


@pytest.mark.parametrize("layout", ["c", "fortran", "strided"])
@pytest.mark.parametrize("tail", [1, 2, 3, 4, 7, 8, 9, 15, 16, 17, 63, 64, 65, 1023, 1025])
def test_repeat_row_is_the_row_by_row_copy(tail, layout):
    """The doubling block copy of a stall's last row onto the tail equals
    copying the row onto each tail row in turn, bit for bit (random bit
    patterns, NaN payloads included), at every tail length where the last
    block is cut short or not, and leaves the rows around it alone."""
    k, width = 3, 9
    n = k + 1 + tail
    bits = np.random.default_rng(tail).integers(0, 2 ** 64, size=(n + 4, width),
                                                 dtype=np.uint64)
    rec, base = _in_layout(bits.view(np.float64), layout)
    want = bits.copy()
    for j in range(k + 1, n):
        want[j] = want[k]
    _k._repeat_row(rec, k, n)
    assert np.array_equal(np.array(rec).view(np.uint64), want)
    if layout == "strided":
        assert (base[1::2] == -1.0).all()


@pytest.mark.parametrize("layout", ["fortran", "strided"])
@pytest.mark.parametrize("tail", [1, 2, 3, 7, 9, 17, 33])
def test_stall_tail_is_the_row_by_row_definition(tail, layout):
    """The overlap run of test_record_of_any_layout_is_filled stands still
    from step 199: with n_max = 199 + tail every row past it repeats row 199
    but for t, which is k * dt, and the rows before it are the C-ordered
    run's."""
    n_max = 199 + tail
    model = _k.pack_model(OVERLAP, _k.pack_controller(UNIT_SIGMA, UNIT_GAMMA))
    ref = np.full((n_max + 1, 9), -1.0)
    out = _k._integrate(0.0, 0.1, model, 0.004, n_max, 0.05, _k.RK4_STAGES, ref)
    assert out[:2] == (n_max + 1, _k.TIMEOUT)
    rec, base = _in_layout(np.full((n_max + 1, 9), -1.0), layout)
    assert _k._integrate(0.0, 0.1, model, 0.004, n_max, 0.05, _k.RK4_STAGES, rec) == out
    got = rec.tolist()
    assert got[198][1:] != got[199][1:]
    for k in range(200, n_max + 1):
        assert _bits(got[k][1:]) == _bits(got[199][1:])
        assert _bits([got[k][0]]) == _bits([k * 0.004])
    assert _bits(rec.ravel().tolist()) == _bits(ref.ravel().tolist())
    if layout == "strided":
        assert (base[1::2] == -1.0).all()


# The loop records x, y and the control of each sample; t and V are formed
# after it, array-at-a-time.  On free rows, full rows and the rows a stall
# fills alike they must be the scalar k * dt and 0.5 * k_att * dd2, bit for
# bit, overflow included, and no floating-point warning may escape.

def _classified_rollout(model, x0, dt, n_max, stages, goal_tol):
    """Runs ``_integrate`` with warnings as errors and a spy on the closure;
    returns the result, the record and the row kinds: "full" for a sample
    the closure evaluated, "free" for one it did not, "stall" past the
    first step that repeated its state."""
    calls = set()

    def spy_bind(m):
        point = _BIND(m)

        def spy(x, y, phis):
            calls.add((x, y))
            return point(x, y, phis)
        return spy

    rec = np.full((n_max + 1, 7 + len(model[2])), -1.0)
    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        warnings.simplefilter("error")
        mp.setattr(_k, "bind", spy_bind)
        out = _k._integrate(*x0, model, dt, n_max, goal_tol, stages, rec)
    xy = [tuple(p) for p in rec[:out[0], 1:3].tolist()]
    kinds = []
    for k, p in enumerate(xy):
        if kinds and (kinds[-1] == "stall" or p == xy[k - 1]):
            kinds.append("stall")
        else:
            kinds.append("full" if p in calls else "free")
    return out, rec, kinds


def _check_scalar_columns(model, dt, rec, n):
    """t and V of the first ``n`` rows against the scalar expressions."""
    gx, gy, k_att = model[0], model[1], model[3]
    ts, vs = [], []
    for k, (x, y) in enumerate(rec[:n, 1:3].tolist()):
        ddx = x - gx
        ddy = y - gy
        ts.append(k * dt)
        vs.append(0.5 * k_att * (ddx * ddx + ddy * ddy))
    assert _bits(rec[:n, 0].tolist()) == _bits(ts)
    assert _bits(rec[:n, 6].tolist()) == _bits(vs)
    return vs


@pytest.mark.parametrize("integ", [0, 1], ids=["euler", "rk4"])
@pytest.mark.parametrize("k_att", [None, 1.3], ids=["k_att", "k_att1.3"])
@pytest.mark.parametrize("shift", [0.0, 1e6, -1e6], ids=["fig2", "fig2+1e6", "fig2-1e6"])
def test_t_and_v_are_the_scalar_expressions_on_every_row(shift, k_att, integ, arena):
    """With no goal tolerance the apf run from (-2, 0) closes on the goal
    until a step no longer moves the state, so it has free rows, full rows
    and a stall tail.  A k_att of 1.3 (the arena's is 1) makes a regrouped
    V, such as 0.5 k_att dx^2 + 0.5 k_att dy^2, round differently."""
    scenario = dataclasses.replace(shifted(arena, shift), k_att=k_att or arena.k_att)
    model = _k.pack_model(scenario, _k.pack_controller(UNIT_SIGMA, UNIT_GAMMA))
    stages = ((), _k.RK4_STAGES)[integ]
    out, rec, kinds = _classified_rollout(model, (-2.0 + shift, shift), 0.02, 2000, stages, 0.0)
    assert out[:2] == (2001, _k.TIMEOUT)
    assert set(kinds) == {"free", "full", "stall"}
    _check_scalar_columns(model, 0.02, rec, out[0])


@pytest.mark.parametrize("k_att, n_max, expected", [
    (1.0, 5, ("full",) * 6),  # halves the state each step, V inf throughout
    (0.0, 5, ("full",) + ("stall",) * 5),  # u = 0: stalls at once, V = 0 * inf
])
def test_v_overflows_as_the_scalar_does(k_att, n_max, expected):
    """|x - g|^2 overflows at 1e200 from the goal: V is inf, or NaN where
    k_att is 0, with the scalar's bits, and no warning escapes.  A state that
    far from the obstacle never flies free (its span reaches the limit)."""
    model = (0.0, 0.0, ((0.0, 0.0, 0.5, 0.4),), k_att, 1.0, 1.0,
             *_k.pack_controller(UNIT_SIGMA, UNIT_GAMMA))
    out, rec, kinds = _classified_rollout(model, (1e200, 1e200), 0.5, n_max, (), 0.05)
    assert out[:2] == (n_max + 1, _k.TIMEOUT) and tuple(kinds) == expected
    vs = _check_scalar_columns(model, 0.5, rec, out[0])
    assert all(math.isinf(v) for v in vs) if k_att else all(math.isnan(v) for v in vs)


def test_loop_buffers_stay_within_a_chunk(monkeypatch):
    """The loop buffers at most one chunk of samples, whatever the horizon.
    overlap gamma2 Euler dt 0.02 from (0, 0.1) creeps on without stalling
    and evaluates about two samples in three in full, so both buffers fill.
    Under tracemalloc, ``rec`` allocated before, the peak up to the last
    flush -- the loop's; t, V and the free rows are formed after it -- stays
    below one chunk of record rows held as Python floats and copied once
    into an array, at n_max 5,000 and 50,000 alike.  The same call runs
    once before tracing, so that ``struct``'s format cache and the float
    free list are warm and the peak does not depend on the tests run
    before this one."""
    flush = _k._flush
    peak = 0

    def spy(*args):
        nonlocal peak
        peak = tracemalloc.get_traced_memory()[1]  # the peak only grows
        return flush(*args)

    monkeypatch.setattr(_k, "_flush", spy)
    model = _k.pack_model(OVERLAP, _k.pack_controller(
        UNIT_SIGMA, GammaSelector.scaled_special(8.0)))
    width = 9
    rows = -(-_k.RECORD_CHUNK_FLOATS // width)
    bound = rows * width * (8 + sys.getsizeof(1.0) + 8)
    for n_max in (5_000, 50_000):
        rec = np.empty((n_max + 1, width))
        _k._integrate(0.0, 0.1, model, 0.02, n_max, 0.05, (), rec)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = _k._integrate(0.0, 0.1, model, 0.02, n_max, 0.05, (), rec)
        finally:
            tracemalloc.stop()
        assert out[:2] == (n_max + 1, _k.TIMEOUT)
        assert peak - base < bound


# The goal test compares the squared distance with q* =
# _goal_threshold(goal_tol), which must classify every double as
# sqrt(q) < goal_tol does.

@pytest.mark.parametrize("goal_tol", [5e-324, 1e-161, 1e-155, 0.05, 0.3, 1e150, 1e300, math.inf])
def test_goal_threshold_classifies_as_the_square_root(goal_tol, monkeypatch):
    """At q*, one ulp below and one ulp above it, and at +-0, the smallest
    subnormal, inf and NaN, ``q < q*`` is ``sqrt(q) < goal_tol``; the walk
    that finds q* makes at most three ``math.nextafter`` calls."""
    nextafter = math.nextafter
    calls = []

    def spy(a, b):
        calls.append(a)
        return nextafter(a, b)

    monkeypatch.setattr(math, "nextafter", spy)
    q_star = _k._goal_threshold(goal_tol)
    monkeypatch.undo()
    assert len(calls) <= 3
    for q in (q_star, nextafter(q_star, 0.0), nextafter(q_star, math.inf),
              0.0, -0.0, 5e-324, math.inf, math.nan):
        assert (q < q_star) == (math.sqrt(q) < goal_tol), q
    # q* is the least double that reaches goal_tol
    assert math.sqrt(q_star) >= goal_tol > math.sqrt(nextafter(q_star, 0.0))


@settings(max_examples=300, deadline=None)
@given(goal_tol=st.floats(min_value=5e-324, allow_infinity=True, allow_nan=False),
       q=st.floats(min_value=0.0, allow_infinity=True, allow_nan=False))
def test_goal_threshold_matches_any_square_root_test(goal_tol, q):
    q_star = _k._goal_threshold(goal_tol)
    for v in (q, q_star, math.nextafter(q_star, 0.0), math.nextafter(q_star, math.inf)):
        assert (v < q_star) == (math.sqrt(v) < goal_tol)


@pytest.mark.parametrize("goal_tol", [0.0, -0.0, -1.0, -math.inf, math.nan])
def test_goal_threshold_without_a_positive_tolerance_never_fires(goal_tol):
    q_star = _k._goal_threshold(goal_tol)
    assert _bits([q_star]) == _bits([0.0])
    assert not any(q < q_star for q in (0.0, -0.0, 5e-324, 1.0, math.inf, math.nan))


def _state_with_q(q):
    """A state ``(x, y)`` whose squared distance from the origin, as the
    kernel forms it, is the double ``q``."""
    x = math.sqrt(q)
    for _ in range(8):
        a = x * x
        if a <= q:
            y = math.sqrt(q - a)  # q - a is exact, the two being this close
            if a + y * y == q:
                return x, y
        x = math.nextafter(x, 0.0)
    raise AssertionError(q)


@pytest.mark.parametrize("goal_tol", [0.05, 0.3, 1e-155, 1e150])
def test_rollout_reaches_the_goal_exactly_where_the_square_root_does(goal_tol):
    """One-sample runs from states whose squared distance from the goal is
    q* or the double below it: the run reaches the goal exactly where
    ``sqrt(q) < goal_tol``, so the boundary is the strict square-root test
    to the last ulp."""
    q_star = _k._goal_threshold(goal_tol)
    model = (0.0, 0.0, (), 1.0, 1.0, 1.0, *_k.pack_controller(UNIT_SIGMA, None))
    for q, reached in ((q_star, False), (math.nextafter(q_star, 0.0), True)):
        assert (math.sqrt(q) < goal_tol) == reached
        rec = np.full((1, 7), -1.0)
        out = _k._integrate(*_state_with_q(q), model, 0.01, 0, goal_tol, (), rec)
        assert out[:2] == (1, _k.REACHED_GOAL if reached else _k.TIMEOUT)


# u_nom = -b on a free evaluation: _integrate against a loop that calls the
# bound closure at every sample and stage, where |b|^2 overflows, where it
# underflows to 0 near the goal, and where a state coordinate equals the
# goal's with signed zeros.

def _point_rollout(model, x0, dt, n_max, goal_tol, stages):
    """``_integrate``'s documented loop with ``bind(model)`` called at every
    sample and stage, the goal test ``sqrt(q) < goal_tol``, no buffering,
    free flight or stationary fill.  Returns the run's output and rows, and
    the evaluations ``(x, y, stage)`` up to the end of the first step that
    returns its own state (``stage`` None for a sample): those the kernel
    makes."""
    gx, gy, obstacles, k_att = model[:4]
    point, m = _BIND(model), len(obstacles)
    step = dt / (1.0 + sum(w for _, w in stages))
    rows, evals, ming, neg = [], [], math.inf, 0
    stall = None
    status = _k.TIMEOUT
    xx, yy = x0
    for k in range(n_max + 1):
        phis = [0.0] * m
        ux, uy, hmin, mg = point(xx, yy, phis)
        evals.append((xx, yy, None))
        if mg < 0.0:
            neg, ming = neg + 1, min(ming, mg)
        if hmin <= 0.0 or not (math.isfinite(ux) and math.isfinite(uy)):
            status = _k.DOMAIN_ERROR
            break
        dx, dy = xx - gx, yy - gy
        rows.append([k * dt, xx, yy, ux, uy, hmin, 0.5 * k_att * (dx * dx + dy * dy), *phis])
        if math.sqrt(dx * dx + dy * dy) < goal_tol:
            status = _k.REACHED_GOAL
            break
        if k == n_max:
            break
        kx = sx = ux
        ky = sy = uy
        for j, (c, w) in enumerate(stages):
            px, py = xx + c * dt * kx, yy + c * dt * ky
            kx, ky, hk, mgk = point(px, py, [0.0] * m)
            evals.append((px, py, j))
            if mgk < 0.0:
                neg, ming = neg + 1, min(ming, mgk)
            if hk <= 0.0:
                status = _k.DOMAIN_ERROR
                break
            sx, sy = sx + w * kx, sy + w * ky
        else:
            nx, ny = xx + step * sx, yy + step * sy
            if stall is None and _bits([nx, ny]) == _bits([xx, yy]):
                stall = len(evals)
            xx, yy = nx, ny
            continue
        break
    return (len(rows), status, ming, neg), rows, evals[:stall]


def _free_evaluations(evals, calls):
    """The numbers of free samples and free stages: the evaluations the
    kernel made without calling the closure, given the states it called it
    at, in order (they must be a subsequence of ``evals``)."""
    free, j = [0, 0], 0
    for x, y, stage in evals:
        if j < len(calls) and _bits(calls[j]) == _bits([x, y]):
            j += 1
        else:
            free[stage is not None] += 1
    assert j == len(calls)
    return tuple(free)


_FAR = ((3.0, 3.0, 0.5, 0.4),)
_UNFILTERED = _k.pack_controller(UNIT_SIGMA, None)
_ZERO = _k.pack_controller(UNIT_SIGMA, GammaSelector.zero())
_SPECIAL = _k.pack_controller(UNIT_SIGMA, GammaSelector.scaled_special(8.0))


@pytest.mark.parametrize("integ", [0, 1], ids=["euler", "rk4"])
@pytest.mark.parametrize("case", [
    # |b|^2 overflows at every state (k_att 1e200, a step of 1e-202), so
    # every free evaluation takes the generic u_nom and its finiteness test
    pytest.param(((0.0, 0.0, _FAR, 1e200, 1.0, 1.0, *_SPECIAL), (1.0, 0.5), 1e-202, 300, 0.05,
                  True), id="k_att-1e200"),
    # an arena at 1e155, where |b|^2 overflows for the first ~100 samples;
    # the span of a base is beyond the free radius's limit, so the closure
    # forms every control, -b and (-1.0) * b alike
    pytest.param(((1e155, 1e155, ((1e155 + 3.0, 1e155 + 3.0, 0.5, 0.4),), 1.0, 1.0, 1.0,
                   *_ZERO), (0.0, 0.0), 0.02, 300, 0.05, False), id="arena-1e155"),
    # |b|^2 underflows to 0 near the goal while the squared distance does
    # not (k_att 1e-100, step 5e99): u_nom turns +-0 and the run stalls
    pytest.param(((0.0, 0.0, _FAR, 1e-100, 1.0, 1.0, *_ZERO), (1e-50, -2e-50), 5e99, 400,
                  1e-300, True), id="underflow-stall"),
    # |b|^2 subnormal, then 0, where the squared distance underflows with
    # it: goal_tol 1e-300 is reached where it does
    pytest.param(((0.0, 0.0, _FAR, 1.0, 1.0, 1.0, *_UNFILTERED), (1e-150, 3e-151), 0.5, 600,
                  1e-300, True), id="underflow-goal"),
    # x == g on one axis with signed zeros: -0 - -0 is +0, so u_nom's x is
    # -0 at every sample and stage, and the state's x stays -0 only while
    # every slope of a step is -0
    pytest.param(((-0.0, 0.0, _FAR, 1.0, 1.0, 1.0, *_SPECIAL), (-0.0, -2.0), 0.02, 300, 0.05,
                  True), id="x-equals-goal"),
    pytest.param(((0.0, -0.0, _FAR, 1.0, 1.0, 1.0, *_UNFILTERED), (1.5, -0.0), 0.02, 300, 0.05,
                  True), id="y-equals-goal"),
    # starting on the goal with goal_tol 0 (q* 0): b = +-0, u_nom = +-0,
    # a stall from the first step
    pytest.param(((0.0, -0.0, _FAR, 1.0, 1.0, 1.0, *_ZERO), (-0.0, 0.0), 0.02, 50, 0.0,
                  False), id="on-goal"),
])
def test_free_u_nom_is_the_closures_at_the_edges(case, integ):
    """Each run equals the loop that calls the bound closure at every
    sample and stage: rows, sample count, status, and the negative count and
    minimum, bit for bit; where the case says so, samples (Euler) or stages
    (RK4) fly free."""
    model, x0, dt, n_max, goal_tol, flies = case
    stages = ((), _k.RK4_STAGES)[integ]
    ref_out, rows, evals = _point_rollout(model, x0, dt, n_max, goal_tol, stages)
    calls = []

    def spy_bind(model):
        point = _BIND(model)

        def spy(x, y, phis):
            calls.append((x, y))
            return point(x, y, phis)
        return spy

    rec = np.full((n_max + 1, 7 + len(model[2])), -1.0)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_k, "bind", spy_bind)
        out = _k._integrate(*x0, model, dt, n_max, goal_tol, stages, rec)
    assert _bits(out[2:3]) == _bits(ref_out[2:3])
    assert out[:2] == ref_out[:2] and out[3] == ref_out[3]
    assert _bits(rec[:out[0]].ravel().tolist()) == _bits(itertools.chain(*rows))
    samples, stage_count = _free_evaluations(evals, calls)
    assert (samples if not stages else stage_count) > 0 or not flies
