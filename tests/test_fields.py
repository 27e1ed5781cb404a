"""Potentials, gradients, and the combined controller against hand oracles.

The finite-difference checks here deliberately re-derive the gradients from
the potential *values* with steps chosen in the test, so a sign or factor slip
in the analytic gradients cannot hide.
"""

import math

import numpy as np
import pytest

from apf_rcbf import (
    InsideObstacleError,
    Obstacle,
    Scenario,
    alpha_bar,
    apf_control,
    attractive_field,
    f_att,
    f_rep,
    repulsive_field,
    rho,
    u_att,
    u_rep,
)


@pytest.fixture(scope="module")
def single():
    """One obstacle on the x-axis between start and goal."""
    return Scenario(goal=[7.0, 0.0],
                    obstacles=(Obstacle([0.0, 0.0], 0.5, 0.2),))


def test_attractive_hand_values(single):
    # quadratic bowl: value (k/2) dist^2, gradient k (x - goal)
    x = [0.6, 0.0]
    dist = 6.4
    assert u_att(x, single) == pytest.approx(0.5 * dist * dist, rel=1e-15)
    np.testing.assert_allclose(f_att(x, single), [-6.4, 0.0], rtol=1e-15)
    assert u_att(single.goal, single) == 0.0
    np.testing.assert_array_equal(f_att(single.goal, single), [0.0, 0.0])


def test_attractive_scales_with_gain():
    s = Scenario(goal=[0.0, 0.0], k_att=3.0)
    x = [2.0, -1.0]
    assert u_att(x, s) == pytest.approx(0.5 * 3.0 * 5.0, rel=1e-15)
    np.testing.assert_allclose(f_att(x, s), [6.0, -3.0], rtol=1e-15)


def test_repulsive_hand_values(single):
    # at clearance rho = 0.1 with rho0 = 0.2:
    #   value  = 0.5 (1/0.1 - 1/0.2)^2 = 12.5
    #   |grad| = (1/0.1^2)(1/0.1 - 1/0.2) = 500, pointing toward the obstacle
    obs = single.obstacles[0]
    x = [0.6, 0.0]
    assert u_rep(x, obs, single) == pytest.approx(12.5, rel=1e-12)
    grad = f_rep(x, obs, single)
    np.testing.assert_allclose(grad, [-500.0, 0.0], rtol=1e-12)


def test_combined_control_hand_value(single):
    # attractive pull 6.4 toward the goal plus repulsive push 500 away from
    # the obstacle, collinear here: |u| = 506.4 pointing along +x
    u = apf_control([0.6, 0.0], single)
    np.testing.assert_allclose(u, [506.4, 0.0], rtol=1e-12)


def test_repulsive_vanishes_outside_influence(single):
    # N.B. [0.7, 0.0] would NOT qualify: 0.7 - 0.5 rounds below 0.2, leaving
    # the state a hair inside the shell.  These clearances are exact.
    obs = single.obstacles[0]
    for x in ([0.75, 0.0], [0.9, 0.0], [5.0, 5.0]):
        assert u_rep(x, obs, single) == 0.0
        np.testing.assert_array_equal(f_rep(x, obs, single), [0.0, 0.0])


def test_repulsive_vanishes_exactly_on_the_shell_boundary():
    # radius and margin chosen so  |x - c| - r == rho0  without rounding
    s = Scenario(goal=[7.0, 0.0], obstacles=(Obstacle([0.0, 0.0], 0.5, 0.25),))
    obs = s.obstacles[0]
    assert rho([0.75, 0.0], obs) == obs.influence_margin
    assert u_rep([0.75, 0.0], obs, s) == 0.0
    np.testing.assert_array_equal(f_rep([0.75, 0.0], obs, s), [0.0, 0.0])


def test_repulsive_undefined_inside(single):
    obs = single.obstacles[0]
    for x in ([0.0, 0.0], [0.3, 0.0], [0.5, 0.0]):  # center, interior, surface
        with pytest.raises(InsideObstacleError, match="repulsive potential undefined"):
            u_rep(x, obs, single)
        with pytest.raises(InsideObstacleError):
            f_rep(x, obs, single)
        with pytest.raises(InsideObstacleError):
            apf_control(x, single)


def test_field_eval_bundles(single):
    obs = single.obstacles[0]
    x = [0.65, 0.05]
    att = attractive_field(x, single)
    assert att.value == u_att(x, single)
    np.testing.assert_array_equal(att.gradient, f_att(x, single))
    rep = repulsive_field(x, obs, single)
    assert rep.value == u_rep(x, obs, single)
    np.testing.assert_array_equal(rep.gradient, f_rep(x, obs, single))


def _fd_gradient(func, x, deltas):
    out = np.empty(2)
    for j in range(2):
        hi = np.array(x, dtype=float)
        lo = np.array(x, dtype=float)
        hi[j] += deltas[j]
        lo[j] -= deltas[j]
        out[j] = (func(hi) - func(lo)) / (2.0 * deltas[j])
    return out


def test_attractive_gradient_finite_differences(rng):
    s = Scenario(goal=[1.5, -2.0], k_att=2.5)
    for _ in range(300):
        x = rng.uniform(-8, 8, size=2)
        fd = _fd_gradient(lambda p: u_att(p, s), x, 1e-6 * (1.0 + np.abs(x)))
        grad = f_att(x, s)
        assert np.linalg.norm(fd - grad) <= 1e-6 * max(1.0, np.linalg.norm(grad))


def test_repulsive_gradient_finite_differences(single, rng):
    """FD step scales with clearance: the potential varies on that scale."""
    obs = single.obstacles[0]
    for _ in range(300):
        theta = rng.uniform(0, 2 * np.pi)
        r = obs.radius + rng.uniform(1e-3, obs.influence_margin - 1e-3)
        x = obs.center + r * np.array([np.cos(theta), np.sin(theta)])
        h = rho(x, obs)
        fd = _fd_gradient(lambda p: u_rep(p, obs, single), x, (1e-6 * h, 1e-6 * h))
        grad = f_rep(x, obs, single)
        rel = np.linalg.norm(fd - grad) / max(1.0, np.linalg.norm(grad))
        assert rel <= 1e-5


def test_combined_is_exact_superposition(arena, rng):
    """apf_control must equal -f_att - sum of f_rep bitwise, not approximately.

    The controller kernel repeats f_rep's expressions in f_rep's order and
    accumulates in the same order, so any drift here means the two diverged.
    """
    count = 0
    while count < 500:
        x = rng.uniform((-3, -2), (9, 6))
        if any(rho(x, obs) <= 0 for obs in arena.obstacles):
            continue
        count += 1
        expected = -f_att(x, arena)
        for obs in arena.obstacles:
            expected = expected - f_rep(x, obs, arena)
        np.testing.assert_array_equal(apf_control(x, arena), expected)


def test_alpha_bar_hand_value(single):
    # (2/k)(rho0 h/(rho0-h))^2 at h = 0.1, rho0 = 0.2 -> 2*(0.02/0.1)^2 = 0.08
    assert alpha_bar(0.1, single) == pytest.approx(0.08, rel=1e-12)
    assert alpha_bar(0.0, single) == 0.0


def test_alpha_bar_reciprocal_identity(single, rng):
    """U_rep * alpha_bar == 1 on the influence shell (reciprocal barrier)."""
    obs = single.obstacles[0]
    for _ in range(500):
        theta = rng.uniform(0, 2 * np.pi)
        h = rng.uniform(1e-3, obs.influence_margin - 1e-3)
        x = obs.center + (obs.radius + h) * np.array([np.cos(theta), np.sin(theta)])
        product = u_rep(x, obs, single) * alpha_bar(rho(x, obs), single)
        assert abs(product - 1.0) <= 1e-12


def test_alpha_bar_strictly_increasing(single):
    hs = np.linspace(0.0, 0.2, 1000, endpoint=False)
    vals = np.array([alpha_bar(h, single) for h in hs])
    assert np.all(np.diff(vals) > 0)


def test_alpha_bar_domain_errors(single):
    with pytest.raises(ValueError, match=r"h must lie in \[0, rho0\)"):
        alpha_bar(-0.01, single)
    with pytest.raises(ValueError, match=r"h must lie in \[0, rho0\)"):
        alpha_bar(0.2, single)


def test_alpha_bar_margin_resolution():
    empty = Scenario(goal=[1, 1])
    with pytest.raises(ValueError, match="no obstacles"):
        alpha_bar(0.05, empty)
    assert alpha_bar(0.05, empty, rho0=0.2) == pytest.approx(
        2.0 * (0.2 * 0.05 / 0.15) ** 2, rel=1e-12)

    mixed = Scenario(goal=[9, 9], obstacles=(
        Obstacle([0, 0], 0.5, 0.2), Obstacle([3, 0], 0.5, 0.3)))
    with pytest.raises(ValueError, match="different influence margins"):
        alpha_bar(0.05, mixed)
    assert alpha_bar(0.05, mixed, rho0=0.3) > 0


def test_multiple_overlapping_influence_regions():
    """Corrections from every active obstacle superpose in the control."""
    s = Scenario(goal=[10.0, 0.0], obstacles=(
        Obstacle([0.0, 0.6], 0.5, 0.3), Obstacle([0.0, -0.6], 0.5, 0.3)))
    x = [0.0, 0.0]  # clearance 0.1 to both, pushes cancel by symmetry
    u = apf_control(x, s)
    assert u[1] == pytest.approx(0.0, abs=1e-9)
    assert u[0] == pytest.approx(10.0, rel=1e-12)  # pull toward the goal survives

    x_off = [0.0, 0.05]  # nearer the upper obstacle: net push downward
    u_off = apf_control(x_off, s)
    assert u_off[1] < 0
