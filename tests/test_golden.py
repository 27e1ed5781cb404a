"""Golden rollouts: the exact CSV bytes of fixed runs, pinned by sha256.

The equivalence checks compare controllers with each other, so they would
still pass if every controller drifted the same way.  These digests pin the
absolute bits of whole rollouts, CSV formatting included, so a refactor of the
kernels or of the serialization cannot change a single output bit unnoticed.

Interpolation-table selectors are left out on purpose: they route through
``np.interp``, whose last bits are not promised across numpy versions.
"""

import hashlib
import logging

import pytest

from apf_rcbf import (ControllerSpec, GammaSelector, Obstacle, Scenario, SigmaSelector,
                      SimConfig, simulate, write_trajectory_csv)

SQ = SigmaSelector.grad_norm_squared()

SPECS = {
    "apf": ControllerSpec("apf"),
    "gamma1": ControllerSpec("generalized", sigma_sel=SQ, gamma_sel=GammaSelector.zero()),
    "gamma2": ControllerSpec("generalized", sigma_sel=SQ,
                             gamma_sel=GammaSelector.scaled_special(8.0)),
    "gamma3": ControllerSpec("generalized", sigma_sel=SQ,
                             gamma_sel=GammaSelector.scaled_special(1.0)),
    "nominal": ControllerSpec("nominal_only", sigma_sel=SQ),
    "gamma_0.05": ControllerSpec("generalized", sigma_sel=SQ,
                                 gamma_sel=GammaSelector.scaled_special(0.05)),
}

# two obstacles whose influence shells overlap in the gap between them, so
# two filter corrections are live at once
OVERLAP = Scenario(goal=[5.0, 0.0],
                   obstacles=(Obstacle([2.0, 0.6], 0.5, 0.4),
                              Obstacle([2.0, -0.6], 0.5, 0.4)))

# one obstacle straight ahead of a blind stabilizer: an RK4 stage state lands
# inside it and the run ends with domain_error
SINGLE = Scenario(goal=[4.0, 0.0], obstacles=(Obstacle([2.0, 0.0], 0.5, 0.2),))

# one obstacle on the start-goal axis: the attractive and repulsive fields
# balance in front of it and the state stops moving (a stall)
AXIS = Scenario(goal=[5.0, 0.0], obstacles=(Obstacle([2.0, 0.0], 0.5, 0.4),))

FIG2_X0 = (-2.0, 0.0)

# (arena, controller, integrator, dt, t_max, x0) -> (terminal, sha256 of CSV)
GOLDEN = {
    ("fig2", "apf", "euler", 0.004, 40.0, (-2.0, 0.0)):
        ("reached_goal", "c96b23c1c49e664bf7037c3b34d3af45c76efc6471c0bb9e82b8266618e71eba"),
    ("fig2", "apf", "euler", 0.02, 40.0, (-2.0, 0.0)):
        ("reached_goal", "65e1128db66a338fb7dcc815b42fbfe6af63685a1309c05414b8feac213cad7f"),
    ("fig2", "apf", "rk4", 0.004, 40.0, (-2.0, 0.0)):
        ("reached_goal", "33acdc7801be46e7f2a648e4faafcb24858d95b5b1188991e4a14bdd72deaa44"),
    ("fig2", "apf", "rk4", 0.02, 40.0, (-2.0, 0.0)):
        ("reached_goal", "3e3d613556c74a670fb3009756e5794e0983869ed9e02605c7f1ddd33c75edea"),
    ("fig2", "gamma1", "euler", 0.004, 40.0, (-2.0, 0.0)):
        ("reached_goal", "6e5bf745c3600f57951e2fe63509778dc34ee5d67d81553637c9b2434c154283"),
    ("fig2", "gamma1", "euler", 0.02, 40.0, (-2.0, 0.0)):
        ("reached_goal", "f86ee967d605ba4be4c5fe6b62b7e300435443c4cc1997bb6fb80bfd4f20bb7b"),
    ("fig2", "gamma1", "rk4", 0.004, 40.0, (-2.0, 0.0)):
        ("reached_goal", "70ee5340f4ee6d97a2c69af74d11d8650743a489774f2cd8a00d7c0e7007889c"),
    ("fig2", "gamma1", "rk4", 0.02, 40.0, (-2.0, 0.0)):
        ("reached_goal", "5bf4fd7c8bb0a988b0b4e1eb982136c9ac2626387aaeea23f82a30a20040bbe9"),
    ("fig2", "gamma2", "euler", 0.004, 40.0, (-2.0, 0.0)):
        ("reached_goal", "3f6c87341d477899ed95c1ed6c57a8b28b0200261b8486d215394e486c6b28db"),
    ("fig2", "gamma2", "euler", 0.02, 40.0, (-2.0, 0.0)):
        ("reached_goal", "1d46b9f1c3c84e39d8b72aaacd8ff9b6ef8f0e28fc2070fc87b2eedf7141774e"),
    ("fig2", "gamma2", "rk4", 0.004, 40.0, (-2.0, 0.0)):
        ("reached_goal", "0e0bd5c5651803095b639723da4383be973b5b22f9e5905168925f19487e406e"),
    ("fig2", "gamma2", "rk4", 0.02, 40.0, (-2.0, 0.0)):
        ("reached_goal", "f58a280fc18a6e47939729371f3831ab4aa524a4dfd47e16175d214765f248f1"),
    ("fig2", "gamma3", "euler", 0.004, 40.0, (-2.0, 0.0)):
        ("reached_goal", "c96b23c1c49e664bf7037c3b34d3af45c76efc6471c0bb9e82b8266618e71eba"),
    ("fig2", "gamma3", "euler", 0.02, 40.0, (-2.0, 0.0)):
        ("reached_goal", "65e1128db66a338fb7dcc815b42fbfe6af63685a1309c05414b8feac213cad7f"),
    ("fig2", "gamma3", "rk4", 0.004, 40.0, (-2.0, 0.0)):
        ("reached_goal", "33acdc7801be46e7f2a648e4faafcb24858d95b5b1188991e4a14bdd72deaa44"),
    ("fig2", "gamma3", "rk4", 0.02, 40.0, (-2.0, 0.0)):
        ("reached_goal", "3e3d613556c74a670fb3009756e5794e0983869ed9e02605c7f1ddd33c75edea"),
    ("overlap", "apf", "rk4", 0.004, 40.0, (0.0, 0.1)):
        ("timeout", "23ce691713091ee8f1350ac6e315e45c2b0c994dbca2cd1d53f1d5199660d529"),
    ("overlap", "gamma1", "rk4", 0.004, 40.0, (0.0, 0.1)):
        ("reached_goal", "3e05e2e114c5460baab276c4f9831235ef3db8a08771048f2fb000053cc6ed89"),
    ("single", "nominal", "rk4", 0.05, 10.0, (0.0, 0.0)):
        ("domain_error", "66a62b2137b5be007fb606474a187aec6d3c2fa48c2ede0059ab3c497fe85912"),
    # stalls: the state is bitwise constant from some step on (the step that
    # first repeats its state is noted), up to t_max
    ("overlap", "apf", "euler", 0.02, 40.0, (0.0, 0.1)):  # from step 68
        ("timeout", "7ab40a5a3781dad8d9d6c412d7bf0a746e4a5f1812c9b569834a6bfd3288fe47"),
    ("overlap", "gamma2", "rk4", 0.004, 40.0, (0.0, 0.1)):  # from step 111
        ("timeout", "1d5b41c6754e3ca50d8483b03f97d4479ed928e99f7a5adb32db9548154212cb"),
    ("overlap", "gamma3", "euler", 0.004, 40.0, (0.0, 0.1)):  # from step 181
        ("timeout", "db9f5609d4f55cea95c41bd0591e70c71c3aa41b2beb091f73291f8b09e532ca"),
    ("axis", "gamma_0.05", "rk4", 0.004, 40.0, (0.0, 0.0)):  # from step 182
        ("timeout", "5cad994439a6068ee74735ea551ccc3a54db0f0187786477ac1682336d79adc0"),
    # creeps to t_max without ever repeating its state
    ("overlap", "gamma2", "euler", 0.02, 40.0, (0.0, 0.1)):
        ("timeout", "c2e44417d7cfab9f8b26e29179943118a76a940cd280e0d81a0803a689fbe3b3"),
}

# (arena, controller, integrator, dt, t_max, x0) -> the negative-tightening WARNING
WARNINGS = {
    ("overlap", "gamma3", "rk4", 0.004, 40.0, (0.0, 0.1)):
        "tightening term evaluated negative at 86 control evaluations (min -1.702e+00) "
        "during the generalized run; the filter corrections are unaffected",
    ("axis", "gamma_0.05", "rk4", 0.004, 40.0, (0.0, 0.0)):
        "tightening term evaluated negative at 150 control evaluations (min -6.919e+01) "
        "during the generalized run; the filter corrections are unaffected",
}


def _scenario(name, arena):
    return {"fig2": arena, "overlap": OVERLAP, "single": SINGLE, "axis": AXIS}[name]


def _simulate(case, arena):
    scen, ctrl, integrator, dt, t_max, x0 = case
    cfg = SimConfig(dt=dt, t_max=t_max, goal_tolerance=0.05, integrator=integrator)
    return simulate(_scenario(scen, arena), SPECS[ctrl], cfg, x0)


@pytest.mark.parametrize("case", sorted(GOLDEN), ids=lambda c: "-".join(map(str, c)))
def test_golden_rollout(case, arena, tmp_path):
    tr = _simulate(case, arena)
    path = tmp_path / "run.csv"
    write_trajectory_csv(tr, path)
    assert (tr.terminal, hashlib.sha256(path.read_bytes()).hexdigest()) == GOLDEN[case]


@pytest.mark.parametrize("case", sorted(WARNINGS), ids=lambda c: "-".join(map(str, c)))
def test_golden_negative_tightening_warning(case, arena, caplog):
    with caplog.at_level(logging.WARNING, logger="apf_rcbf.simulate"):
        _simulate(case, arena)
    assert [r.getMessage() for r in caplog.records] == [WARNINGS[case]]
