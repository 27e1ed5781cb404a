"""The scalar kernels run on Python floats: no numpy scalar enters the hot loop.

Arithmetic on ``np.float64`` scalars gives the same bits as on ``float`` but
costs about four times as much, so a numpy scalar leaking back into the model
would slow every rollout silently.  These checks catch that by type, without
timing anything.
"""

import itertools
import math

import numpy as np
import pytest

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
