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
from apf_rcbf import _kernels as _k
from conftest import OVERLAP, shifted

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
    "value_special": ControllerSpec("generalized", sigma_sel=SigmaSelector.scaled_value(0.7),
                                    gamma_sel=GammaSelector.scaled_special(2.0)),
    "norm_zero": ControllerSpec("generalized", sigma_sel=SigmaSelector.scaled_norm(1.3),
                                gamma_sel=GammaSelector.zero()),
    "norm_nominal": ControllerSpec("nominal_only", sigma_sel=SigmaSelector.scaled_norm(1.3)),
}

# one obstacle straight ahead of a blind stabilizer: an RK4 stage state lands
# inside it and the run ends with domain_error
SINGLE = Scenario(goal=[4.0, 0.0], obstacles=(Obstacle([2.0, 0.0], 0.5, 0.2),))

# one obstacle on the start-goal axis: the attractive and repulsive fields
# balance in front of it and the state stops moving (a stall)
AXIS = Scenario(goal=[5.0, 0.0], obstacles=(Obstacle([2.0, 0.0], 0.5, 0.4),))

FIG2_X0 = (-2.0, 0.0)

# the fig2 arena translated by FAR_SHIFT along both axes: every state is near
# 1e6, where the rounding slack of a free radius, 2**-40 of the state's
# size, is larger than most steps
FAR_SHIFT = 1e6


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
    # The rollout kernel writes its record in chunks of whole rows: 103 rows
    # with three obstacles, 114 with two, 128 with one.  These runs end one
    # row before, at and after a chunk boundary (102-104 and 227-229 rows),
    # stall on the last row of a chunk (the fill then copies a row written by
    # a flush), or hit an obstacle mid-chunk (470 rows).
    ("fig2", "apf", "rk4", 0.004, 0.404, (-2.0, 0.0)):
        ("timeout", "cf8dbc7d18a4c50c63c8d71b89966abcd0dcb82fa0010f2bd853e0a57d99a3d6"),
    ("fig2", "apf", "rk4", 0.004, 0.408, (-2.0, 0.0)):
        ("timeout", "d6f70e98d07781864c2d54bfb2963785377c548ea32381c4c2b36cf24b7f282a"),
    ("fig2", "apf", "rk4", 0.004, 0.412, (-2.0, 0.0)):
        ("timeout", "e45482b7a73a9f954c2a565326cca57b90b5542d1d43aa1e4e4700c0200503f2"),
    ("overlap", "gamma2", "euler", 0.02, 4.52, (0.0, 0.1)):
        ("timeout", "fb829a98b684db858950b22871053a2928542a3cdc2a57e73f285b39745b276f"),
    ("overlap", "gamma2", "euler", 0.02, 4.54, (0.0, 0.1)):
        ("timeout", "6cbbdf2e4a23ccb9e92bdf392380e5f2443b14a92cb3b2fbc7e122b45852b6ec"),
    ("overlap", "gamma2", "euler", 0.02, 4.56, (0.0, 0.1)):
        ("timeout", "1c7bbdbec485f6b84c87e5574d90732f281d3099075511012065e28cd0be5002"),
    ("overlap", "gamma2", "rk4", 0.004, 40.0, (-3.0, 0.1)):  # from step 227
        ("timeout", "08867ca5e0c846ade00d66c4a2d4f6499218bc26f61fe4f4a469f0e5d290eeaf"),
    ("axis", "apf", "rk4", 0.004, 40.0, (0.4, 0.0)):  # from step 127
        ("timeout", "5aed676acd054b42ec581ca240f40df2d62cca81373dad61f72d0e971b3d9628"),
    ("single", "nominal", "euler", 0.001, 10.0, (0.0, 0.0)):
        ("domain_error", "59f3c3bf99c5d1749ed8f8701abafa56dc4aa274a25a7b76ecece9c07715a6e6"),
    # Free flight: from (0.5, 1.5) the run leaves the first obstacle behind,
    # clear of every shell, then heads into the third obstacle's shell (RK4
    # at dt 0.02 samples 0.0008 outside its edge, with stages inside it).
    ("fig2", "apf", "euler", 0.004, 40.0, (0.5, 1.5)):
        ("reached_goal", "0d9ce8545d8ec3f539d291b4ff4855427c97056de2840f741ade4950837623a9"),
    ("fig2", "apf", "euler", 0.02, 40.0, (0.5, 1.5)):
        ("reached_goal", "61bb767098667a5c2156b20f7619a3c9f4bd64abc5dd954d6f0bf0ba5885278a"),
    ("fig2", "apf", "rk4", 0.004, 40.0, (0.5, 1.5)):
        ("reached_goal", "cf428b27e5a641e9dc4e3d453b858a7a550cda33e2371bdc3ff4680ec898aa99"),
    ("fig2", "apf", "rk4", 0.02, 40.0, (0.5, 1.5)):
        ("reached_goal", "39d0835202e386519e540e6fa9e119a6f01cec46ca1cead409c6899bf3095f1f"),
    ("fig2", "gamma1", "rk4", 0.02, 40.0, (0.5, 1.5)):
        ("reached_goal", "e125f69edbadb35a7afed7d85e954007a7a775f7e45d6997cb81231c1d1cc251"),
    ("fig2_far", "apf", "rk4", 0.004, 40.0, (-2.0 + FAR_SHIFT, FAR_SHIFT)):
        ("reached_goal", "0e010388385e9066a0ea7cfdc1778ec2654762f43765d44b622816f79bf49dc6"),
    ("fig2_far", "gamma2", "euler", 0.02, 40.0, (0.5 + FAR_SHIFT, 1.5 + FAR_SHIFT)):
        ("reached_goal", "e01f915be925b4864d29ed87d4ad7b079e2af1d13d01da17f26927d6865f948e"),
    ("fig2_far", "gamma1", "rk4", 0.02, 40.0, (0.5 + FAR_SHIFT, 1.5 + FAR_SHIFT)):
        ("reached_goal", "7d93da1f200ca0c5a8ea2537211cd6bb15235a6dfd229882a3fdb9d57f7fa49e"),
    ("fig2", "value_special", "rk4", 0.004, 40.0, (0.5, 1.5)):
        ("reached_goal", "e60a51307acd37b7fd62b01a98eace3127647a66eda7cf019f219187d1878ccb"),
    ("fig2", "value_special", "euler", 0.02, 40.0, (-2.0, 0.0)):
        ("reached_goal", "3a2d205ff0ddf064f5a635cf161a9af1506cf6a966a2c1eaa15fc59a6172021e"),
    ("fig2", "norm_zero", "rk4", 0.004, 40.0, (0.5, 1.5)):
        ("reached_goal", "bfd582f874f9193618292b713971c0a90576c41a1b6cb94813b4c15cb203a701"),
    ("fig2", "norm_nominal", "euler", 0.004, 40.0, (-3.0, 5.0)):
        ("reached_goal", "992c4e0af6544761ad02adc4e60e35e6dbf1b00291cc7ed3fb1c8a7bc7ee7e2d"),
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
    if name == "fig2_far":
        return shifted(arena, FAR_SHIFT)
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


def test_chunk_cases_sit_on_chunk_boundaries():
    """The record is flushed once a chunk's floats are buffered, so a chunk
    holds ceil(RECORD_CHUNK_FLOATS / (7 + m)) rows: the row counts the chunk
    cases above are placed around."""
    assert [-(-_k.RECORD_CHUNK_FLOATS // (7 + m)) for m in (3, 2, 1)] == [103, 114, 128]


@pytest.mark.parametrize("case", sorted(WARNINGS), ids=lambda c: "-".join(map(str, c)))
def test_golden_negative_tightening_warning(case, arena, caplog):
    with caplog.at_level(logging.WARNING, logger="apf_rcbf.simulate"):
        _simulate(case, arena)
    assert [r.getMessage() for r in caplog.records] == [WARNINGS[case]]
