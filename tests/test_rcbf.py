"""Barrier terms, the closed-form filter, and the combined filtered controllers."""

import logging
import math

import numpy as np
import pytest

import apf_rcbf.rcbf as rcbf_mod
from apf_rcbf import (
    GammaSelector,
    InfeasibleConstraintError,
    InsideObstacleError,
    NegativeGammaError,
    Obstacle,
    RcbfTerms,
    Scenario,
    SigmaSelector,
    apf_control,
    f_att,
    f_rep,
    generalized_control,
    nominal_control,
    rcbf_terms,
    rho,
    safety_filter,
    sigma_value,
    special_filter_control,
    u_rep,
)


@pytest.fixture(scope="module")
def single():
    return Scenario(goal=[7.0, 0.0],
                    obstacles=(Obstacle([0.0, 0.0], 0.5, 0.2),))


@pytest.fixture(autouse=True)
def fresh_warning_state():
    rcbf_mod._warned_negative_gamma.clear()
    yield
    rcbf_mod._warned_negative_gamma.clear()


def test_gamma_selector_validation():
    with pytest.raises(ValueError, match="unknown gamma selector kind"):
        GammaSelector("linear")
    with pytest.raises(ValueError, match="positive lambda"):
        GammaSelector("scaled_special")
    with pytest.raises(ValueError, match="positive lambda"):
        GammaSelector.scaled_special(0.0)
    with pytest.raises(ValueError, match="requires a table"):
        GammaSelector("custom")
    with pytest.raises(ValueError, match="nonnegative"):
        GammaSelector.custom([0.0, 0.1], [0.5, -0.1])
    with pytest.raises(ValueError, match=">= 0"):
        GammaSelector.custom([-0.1, 0.1], [0.5, 0.5])
    assert GammaSelector.zero().kind == "zero"
    assert GammaSelector.scaled_special(8.0).lam == 8.0


def test_terms_pieces(single):
    obs = single.obstacles[0]
    x = [0.6, 0.0]
    u_nom = -f_att(x, single)
    terms = rcbf_terms(x, obs, single, u_nom, GammaSelector.zero())
    assert terms.B == u_rep(x, obs, single)
    assert terms.h == rho(x, obs)
    assert terms.c == -single.alpha_gain * terms.h
    np.testing.assert_array_equal(terms.d, f_rep(x, obs, single))
    assert terms.gamma == 0.0
    assert terms.c_tilde == terms.c


def test_terms_scaled_special_hand_value(single):
    # at clearance 0.1: |d| = 500 toward the obstacle, u_nom = (6.4, 0), so
    # gamma = 1*500^2 + 0.1 - (-500*6.4) = 253200.1
    obs = single.obstacles[0]
    x = [0.6, 0.0]
    u_nom = -f_att(x, single)
    terms = rcbf_terms(x, obs, single, u_nom, GammaSelector.scaled_special(1.0))
    assert terms.gamma == pytest.approx(253200.1, rel=1e-9)
    assert terms.c_tilde == pytest.approx(253200.0, rel=1e-9)


def test_terms_custom_interpolates(single):
    obs = single.obstacles[0]
    sel = GammaSelector.custom([0.0, 0.1, 0.2], [0.5, 0.2, 0.0])
    x = [0.65, 0.0]  # clearance 0.15 -> halfway between 0.2 and 0.0
    terms = rcbf_terms(x, obs, single, [0.0, 0.0], sel)
    assert terms.gamma == pytest.approx(0.1, rel=1e-12)


def test_terms_negative_gamma_is_hard_error(single):
    # heading at the obstacle with a tiny lambda drives the tightening negative
    obs = single.obstacles[0]
    x = [-0.6, 0.0]
    u_nom = -f_att(x, single)  # points at goal, i.e. straight at the obstacle
    sel = GammaSelector.scaled_special(1e-3)
    with pytest.raises(NegativeGammaError, match="negative"):
        rcbf_terms(x, obs, single, u_nom, sel)


def test_terms_inside_obstacle(single):
    with pytest.raises(InsideObstacleError):
        rcbf_terms([0.1, 0.0], single.obstacles[0], single, [0, 0],
                   GammaSelector.zero())


def test_filter_inactive_returns_nominal():
    terms = RcbfTerms(B=1.0, h=0.2, c=-0.2, d=np.array([1.0, 0.0]),
                      gamma=0.0, c_tilde=-0.2)
    u_nom = np.array([0.1, 0.5])
    u, diag = safety_filter(u_nom, terms)
    np.testing.assert_array_equal(u, u_nom)
    assert not diag.active
    assert diag.phi == pytest.approx(-0.1, rel=1e-15)
    np.testing.assert_array_equal(diag.correction, [0.0, 0.0])
    assert math.isnan(diag.g_att)


def test_filter_active_projects_onto_boundary():
    terms = RcbfTerms(B=1.0, h=0.1, c=-0.1, d=np.array([2.0, 0.0]),
                      gamma=0.5, c_tilde=0.4)
    u, diag = safety_filter([0.0, 0.0], terms)
    np.testing.assert_allclose(u, [-0.2, 0.0], rtol=1e-15)
    assert diag.active
    assert diag.phi == pytest.approx(0.4, rel=1e-15)
    assert diag.g_rep == pytest.approx(-0.1, rel=1e-15)
    # lands exactly on the constraint boundary
    assert terms.c_tilde + float(terms.d @ u) == pytest.approx(0.0, abs=1e-15)


def test_filter_infeasible():
    bad = RcbfTerms(B=1.0, h=0.1, c=-0.1, d=np.zeros(2), gamma=0.4, c_tilde=0.3)
    with pytest.raises(InfeasibleConstraintError, match="infeasible"):
        safety_filter([1.0, 1.0], bad)
    # zero row with nonpositive offset imposes nothing
    ok = RcbfTerms(B=1.0, h=0.1, c=-0.1, d=np.zeros(2), gamma=0.0, c_tilde=-0.1)
    u, diag = safety_filter([1.0, 1.0], ok)
    np.testing.assert_array_equal(u, [1.0, 1.0])
    assert math.isnan(diag.g_rep)


def test_filter_output_satisfies_constraint(rng):
    """Filtered control never violates the half space it was projected onto."""
    for _ in range(500):
        d = rng.normal(size=2)
        c_tilde = rng.uniform(-2, 2)
        terms = RcbfTerms(B=1.0, h=0.1, c=c_tilde, d=d, gamma=0.0, c_tilde=c_tilde)
        u_nom = rng.normal(scale=3, size=2)
        u, diag = safety_filter(u_nom, terms)
        assert c_tilde + float(d @ u) <= 1e-10
        if not diag.active:
            np.testing.assert_array_equal(u, u_nom)


def test_special_filter_equals_combined_field_controller(arena, rng):
    """The unit-scale tightened filter reproduces the potential-field control
    bitwise, active or not."""
    count = 0
    while count < 500:
        x = rng.uniform((-3, -2), (9, 6))
        if any(rho(x, obs) <= 0 for obs in arena.obstacles):
            continue
        count += 1
        np.testing.assert_array_equal(special_filter_control(x, arena),
                                      apf_control(x, arena))


def test_generalized_decomposition(arena, rng):
    """u equals the nominal part plus the per-obstacle corrections exactly."""
    sigma = SigmaSelector.scaled_value(2.0)
    gamma = GammaSelector.custom([0.0, 0.05, 0.2], [0.02, 0.01, 0.0])
    count = 0
    while count < 300:
        x = rng.uniform((-3, -2), (9, 6))
        if any(rho(x, obs) <= 0 for obs in arena.obstacles):
            continue
        count += 1
        u, diags = generalized_control(x, arena, sigma, gamma)
        assert len(diags) == len(arena.obstacles)
        rebuilt = nominal_control(x, arena, sigma).copy()
        for diag in diags:
            rebuilt = rebuilt + diag.correction
        np.testing.assert_array_equal(u, rebuilt)
        for diag in diags:
            assert diag.active == (diag.phi > 0.0)
            if not diag.active:
                np.testing.assert_array_equal(diag.correction, [0.0, 0.0])


def test_generalized_zero_gamma_filters_less_than_unit(single):
    """Gamma = 0 keeps the bare barrier margin, so where the stabilizer is
    already retreating from the obstacle it stays inactive — while the unit
    scaled-special tightening corrects at every state inside the shell."""
    sigma = SigmaSelector.grad_norm_squared()
    x = [0.6, 0.1]  # inside the shell; the goal pull points away from it
    u_zero, diag_zero = generalized_control(x, single, sigma, GammaSelector.zero())
    u_unit, diag_unit = generalized_control(
        x, single, sigma, GammaSelector.scaled_special(1.0))
    assert diag_zero[0].phi < 0.0 < diag_unit[0].phi
    assert not diag_zero[0].active
    assert diag_unit[0].active
    np.testing.assert_array_equal(u_zero, nominal_control(x, single, sigma))
    np.testing.assert_array_equal(u_unit, apf_control(x, single))


@pytest.mark.parametrize("gamma", [GammaSelector.zero(), GammaSelector.scaled_special(1.0)],
                         ids=["zero", "scaled_special"])
def test_generalized_outside_every_shell_reports_zero_rows(arena, gamma):
    """Outside every influence shell each row F_rep is zero: no obstacle is
    active, none corrects, the repulsive gain is undefined (NaN), and the
    control is the stabilizer's own, bit for bit."""
    sigma = SigmaSelector.grad_norm_squared()
    x = [-2.0, 0.0]
    assert all(rho(x, obs) > obs.influence_margin for obs in arena.obstacles)
    u, diags = generalized_control(x, arena, sigma, gamma)
    assert len(diags) == len(arena.obstacles)
    for diag in diags:
        assert not diag.active
        np.testing.assert_array_equal(diag.correction, [0.0, 0.0])
        assert math.isnan(diag.g_rep)
        assert diag.g_att == diags[0].g_att
    np.testing.assert_array_equal(u, nominal_control(x, arena, sigma))


def test_generalized_matches_term_level_route(single, rng):
    """Fused controller against the rcbf_terms + safety_filter composition at
    well-conditioned states (one obstacle, so no superposition subtleties)."""
    sigma = SigmaSelector.grad_norm_squared()
    obs = single.obstacles[0]
    count = 0
    while count < 200:
        x = rng.uniform((-2, -2), (4, 2))
        h = rho(x, obs)
        if not 0.02 < h < obs.influence_margin - 0.02:
            continue
        u_nom = nominal_control(x, single, sigma)
        sel = GammaSelector.scaled_special(1.0)
        try:
            terms = rcbf_terms(x, obs, single, u_nom, sel)
        except NegativeGammaError:
            continue
        count += 1
        u_ref, _ = safety_filter(u_nom, terms)
        u, _ = generalized_control(x, single, sigma, sel)
        scale = max(1.0, float(np.linalg.norm(u_ref)))
        assert float(np.linalg.norm(u - u_ref)) <= 1e-9 * scale


def test_negative_gamma_warning_is_rate_limited(single, caplog):
    sigma = SigmaSelector.grad_norm_squared()
    sel = GammaSelector.scaled_special(1e-3)
    x = [-0.6, 0.0]
    with caplog.at_level(logging.WARNING, logger="apf_rcbf.rcbf"):
        generalized_control(x, single, sigma, sel)
        generalized_control(x, single, sigma, sel)
    records = [r for r in caplog.records if "evaluated negative" in r.message]
    assert len(records) == 1
    # a different selector gets its own (single) warning
    with caplog.at_level(logging.WARNING, logger="apf_rcbf.rcbf"):
        generalized_control(x, single, sigma, GammaSelector.scaled_special(2e-3))
    records = [r for r in caplog.records if "evaluated negative" in r.message]
    assert len(records) == 2
    # the control itself is unaffected by the warning path
    u, diags = generalized_control(x, single, sigma, sel)
    assert np.all(np.isfinite(u))


def test_lambda_that_can_overflow_the_margin_is_rejected():
    """At the radius floor, one ulp outside the obstacle on the axis, |F_rep|^2
    is about 2**1020, so lam = 16 overflowed lam |F_rep|^2 and returned
    [inf, nan] (and a rollout recorded NaN states).  ``generalized_control``
    and ``simulate`` refuse every lam above ``max_lambda`` up front; the
    largest accepted lam, 4.0 here, gives a finite control at that state."""
    from apf_rcbf import ControllerSpec, SimConfig, simulate
    from apf_rcbf.scenario import max_lambda, min_radius

    r = min_radius(1.0)
    scen = Scenario(goal=[1.0, 0.0], obstacles=(Obstacle([0.0, 0.0], r, 0.5),), k_rep=1.0)
    x = [math.nextafter(r, 1.0), 0.0]
    sigma = SigmaSelector.grad_norm_squared()
    assert max_lambda(1.0, r) == 4.0
    for lam in (1.0, 4.0):
        u, _ = generalized_control(x, scen, sigma, GammaSelector.scaled_special(lam))
        assert np.isfinite(u).all()
    for lam in (math.nextafter(4.0, 5.0), 8.0, 16.0, 32.0):
        with pytest.raises(ValueError, match="can overflow"):
            generalized_control(x, scen, sigma, GammaSelector.scaled_special(lam))
    spec = ControllerSpec("generalized", sigma_sel=sigma,
                          gamma_sel=GammaSelector.scaled_special(32.0))
    with pytest.raises(ValueError, match=r"^scaled_special lambda 32.0 exceeds 4 for obstacle 0"):
        simulate(scen, spec, SimConfig(dt=0.01, t_max=0.05, goal_tolerance=1e-40), x)
    # the other tightenings carry no lam and are not checked
    for gamma in (GammaSelector.zero(), GammaSelector.custom([0.0, 1.0], [0.0, 1.0])):
        generalized_control(x, scen, sigma, gamma)
