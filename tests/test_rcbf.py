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
from conftest import OVERLAP, shifted


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
    for bad in (math.inf, math.nan, object()):
        with pytest.raises(ValueError, match="positive lambda"):
            GammaSelector.scaled_special(bad)
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


def test_equivalence_survives_an_overflowed_attractive_norm():
    """k_att * |x - goal| = 4e200 overflows |F_att|^2, but the
    grad-norm-squared stabilizer is -F_att exactly (sigma / |F_att|^2 = 1),
    so the filter and the nominal controller still give the field route's
    control, bit for bit, instead of NaN."""
    s = Scenario(goal=[4.0, 0.0], obstacles=(Obstacle([2.0, 1.5], 0.5, 0.4),), k_att=1e200)
    expected = np.array([4e200, -0.0])
    for u in (apf_control([0.0, 0.0], s), special_filter_control([0.0, 0.0], s),
              nominal_control([0.0, 0.0], s, SigmaSelector.grad_norm_squared())):
        assert u.tobytes() == expected.tobytes()


def test_generalized_reports_the_unit_gain_where_the_attractive_norm_overflows():
    """At x = (2e154, 1) |F_att|^2 overflows, and the grad-norm-squared
    stabilizer is -F_att there as in the kernel: sigma / |F_att|^2 is 1, so
    every row reports g_att = -1, not inf / inf."""
    s = Scenario(goal=[0.0, 0.0], obstacles=(Obstacle([5.0, 0.0], 0.5, 0.2),))
    x = [2e154, 1.0]
    u, diags = generalized_control(x, s, SigmaSelector.grad_norm_squared(),
                                   GammaSelector.scaled_special(1.0))
    assert u.tobytes() == (-f_att(x, s)).tobytes() == np.array([-2e154, -1.0]).tobytes()
    assert [diag.g_att for diag in diags] == [-1.0]
    assert not diags[0].active and math.isnan(diags[0].g_rep)


@pytest.mark.parametrize("x", [[0.5, 0.0], [0.1, 0.0]], ids=["surface", "inside"])
def test_filtered_controllers_refuse_a_state_on_or_inside_an_obstacle(single, x):
    """The filter divides by the clearance, so both filtered controllers
    raise at h <= 0; the unfiltered stabilizer is defined there."""
    sigma = SigmaSelector.grad_norm_squared()
    with pytest.raises(InsideObstacleError, match="repulsive potential undefined"):
        special_filter_control(x, single)
    with pytest.raises(InsideObstacleError, match="repulsive potential undefined"):
        generalized_control(x, single, sigma, GammaSelector.zero())
    np.testing.assert_array_equal(nominal_control(x, single, sigma), -f_att(x, single))


def test_negative_unit_gamma_warning_from_special_filter(single, caplog):
    """Near the outer edge of the shell, heading at the obstacle, lambda* =
    (d.u_nom - alpha h) / |d|^2 exceeds 1, so the unit tightening is
    negative there; special_filter_control logs it once and still returns
    the potential-field control."""
    x = [-0.699, 0.0]
    obs = single.obstacles[0]
    d = f_rep(x, obs, single)
    lam_star = (float(d @ -f_att(x, single)) - rho(x, obs)) / float(d @ d)
    assert 0.0 < rho(x, obs) < obs.influence_margin and lam_star > 1.0
    with caplog.at_level(logging.WARNING, logger="apf_rcbf.rcbf"):
        for _ in range(2):
            np.testing.assert_array_equal(special_filter_control(x, single),
                                          apf_control(x, single))
    records = [r for r in caplog.records if "evaluated negative" in r.message]
    assert len(records) == 1
    assert "in special_filter_control" in records[0].message
    assert "('scaled_special', 1.0)" in records[0].message


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


def test_zero_row_with_positive_margin_raises_on_both_routes(single):
    """Beyond the shell (clearance 0.3 >= rho0 0.2) the row F_rep is zero,
    and a custom Gamma of 1 above alpha_gain h = 0.3 leaves the margin phi =
    0.7 positive: no control satisfies the constraint, so the fused
    controller and the term-level route both raise."""
    sigma = SigmaSelector.grad_norm_squared()
    gamma = GammaSelector.custom([0.0, 1.0], [1.0, 1.0])
    x = [0.0, 0.8]
    obs = single.obstacles[0]
    assert rho(x, obs) >= obs.influence_margin
    with pytest.raises(InfeasibleConstraintError, match="infeasible"):
        generalized_control(x, single, sigma, gamma)
    terms = rcbf_terms(x, obs, single, nominal_control(x, single, sigma), gamma)
    with pytest.raises(InfeasibleConstraintError, match="infeasible"):
        safety_filter(nominal_control(x, single, sigma), terms)


def test_row_whose_square_underflows_is_a_zero_row():
    """|d|^2 = 1e-340 underflows to 0 while d.u_nom = 1e30 makes the margin
    positive: the closed form has no correction to apply, so it raises
    instead of returning u_nom marked active."""
    terms = RcbfTerms(B=1.0, h=0.1, c=-1.0, d=np.array([1e-170, 0.0]), gamma=0.0,
                      c_tilde=-1.0)
    with pytest.raises(InfeasibleConstraintError, match="infeasible"):
        safety_filter([1e200, 0.0], terms)


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


def _over_bound(lam, bound):
    return (f"scaled_special lambda {lam!r} exceeds {bound:.3g} for obstacle 0, where "
            "lambda*|F_rep|^2 can overflow at the smallest clearance")


def test_every_kernel_route_refuses_an_over_bound_lambda(arena, monkeypatch):
    """The lam bound lives in ``_kernels.pack_model``, which every kernel route
    packs through, so each refuses with the same message: the single-state
    controllers, every rollout kind with a Gamma, and the grid suite."""
    from apf_rcbf import ControllerSpec, SimConfig, simulate
    from apf_rcbf import _kernels as _k
    from apf_rcbf.verify import equivalence_suite

    sigma = SigmaSelector.grad_norm_squared()
    # an unvalidated radius one binade below the floor: max_lambda is 2**-4
    below = 2.0 ** -119
    tiny = Scenario(goal=[1.0, 0.0], obstacles=(Obstacle([0.0, 0.0], below, 0.5),))
    x = [math.nextafter(below, 1.0), 0.0]
    with pytest.raises(ValueError) as exc:
        special_filter_control(x, tiny)
    assert str(exc.value) == _over_bound(1.0, 2.0 ** -4)
    with pytest.raises(ValueError) as exc:
        generalized_control(x, tiny, sigma, GammaSelector.scaled_special(0.125))
    assert str(exc.value) == _over_bound(0.125, 2.0 ** -4)

    # a validated scenario never bounds the unit lam below 1; with the bound
    # patched to 0.5 every route that carries lam = 1 refuses
    monkeypatch.setattr(_k, "max_lambda", lambda k_rep, radius: 0.5)
    unit = GammaSelector.scaled_special(1.0)
    cfg = SimConfig(dt=0.01, t_max=0.05)
    refused = [lambda: special_filter_control([-2.0, 0.0], arena),
               lambda: generalized_control([-2.0, 0.0], arena, sigma, unit),
               lambda: equivalence_suite(arena, nx=4, ny=4)]
    refused += [lambda spec=spec: simulate(arena, spec, cfg, [-2.0, 0.0])
                for spec in (ControllerSpec("apf"), ControllerSpec("special_filter"),
                             ControllerSpec("generalized", sigma, unit))]
    for route in refused:
        with pytest.raises(ValueError) as exc:
            route()
        assert str(exc.value) == _over_bound(1.0, 0.5)
    # the routes without a lam are not checked
    simulate(arena, ControllerSpec("nominal_only", sigma), cfg, [-2.0, 0.0])
    for gamma in (GammaSelector.zero(), GammaSelector.custom([0.0, 1.0], [0.0, 1.0])):
        simulate(arena, ControllerSpec("generalized", sigma, gamma), cfg, [-2.0, 0.0])
        generalized_control([-2.0, 0.0], arena, sigma, gamma)


def _reference_generalized(x, scenario, sigma_sel, gamma_sel):
    """``(u, diagnostics)`` of ``generalized_control`` as it was computed
    before the kernel reported its rows: the control from the kernel, then
    F_att, sigma, the g_att rule and every F_rep evaluated a second time from
    the field formulas, each diagnostic as a ``(phi, active, correction,
    g_att, g_rep)`` tuple."""
    from apf_rcbf import _kernels as _k

    u, _, _, phis = _k.control(x, scenario, _k.pack_controller(sigma_sel, gamma_sel))
    b = f_att(x, scenario)
    bb = float(b[0]) * float(b[0]) + float(b[1]) * float(b[1])
    if bb > 0.0:
        g_att = -1.0 if sigma_sel.kind == "grad_norm_squared" else -(
            sigma_value(x, scenario, sigma_sel) / bb)
    else:
        g_att = 0.0
    diagnostics = []
    for i, obs in enumerate(scenario.obstacles):
        d = f_rep(x, obs, scenario)
        dd = float(d[0]) * float(d[0]) + float(d[1]) * float(d[1])
        phi = float(phis[i])
        if dd == 0.0 and phi > 0.0:
            raise InfeasibleConstraintError("infeasible")
        g_rep = -(phi / dd) if dd > 0.0 else math.nan
        active = phi > 0.0
        correction = g_rep * d if active and dd > 0.0 else np.zeros(2)
        diagnostics.append((phi, active, correction, g_att, g_rep))
    return u, diagnostics


def _bits(*values):
    return np.array(values, dtype=np.float64).tobytes()


_REPORT_SIGMAS = (SigmaSelector.grad_norm_squared(), SigmaSelector.scaled_value(2.0),
                  SigmaSelector.scaled_norm(0.5),
                  SigmaSelector.custom([0.0, 1.0, 6.0], [0.0, 0.4, 3.0]))
_REPORT_GAMMAS = (GammaSelector.zero(), GammaSelector.scaled_special(1.0),
                  GammaSelector.scaled_special(8.0),
                  GammaSelector.custom([0.0, 0.1, 0.3], [0.5, 0.2, 0.0]))


def _report_states(scenario, shift, rng):
    """Random states around the obstacles, the goal, an overflowed
    |F_att|^2, each obstacle's center, each shell's edge (on it and one ulp
    either side, on the axis) and a NaN coordinate."""
    gx, gy = scenario.goal.tolist()
    states = [tuple(p) for p in rng.uniform((-1.0, -1.5), (6.0, 1.5), size=(40, 2)) + shift]
    states += [(gx, gy), (2e154, 1.0), (math.nan, 1.0 + shift)]
    for obs in scenario.obstacles:
        cx, cy = obs.center.tolist()
        edge = cx - (obs.radius + obs.influence_margin)
        states += [(cx, cy), (edge, cy), (math.nextafter(edge, -math.inf), cy),
                   (math.nextafter(edge, math.inf), cy)]
    return states


@pytest.mark.parametrize("shift", [0.0, 1e6], ids=["origin", "offset"])
@pytest.mark.parametrize("which", ["fig2", "overlap"])
def test_generalized_reports_the_kernels_evaluation_bit_for_bit(arena, which, shift):
    """Every output of ``generalized_control``, u and each diagnostic field,
    has the bits of the second computation from the field formulas it once
    made, over every sigma kind against the zero tightening, lam = 1, lam =
    8 and a table; states it refuses, it refuses alike."""
    scenario = shifted(arena if which == "fig2" else OVERLAP, shift)
    states = _report_states(scenario, shift, np.random.default_rng(7))
    seen = set()
    for sigma in _REPORT_SIGMAS:
        for gamma in _REPORT_GAMMAS:
            for x in states:
                try:
                    ref_u, ref = _reference_generalized(x, scenario, sigma, gamma)
                except (InsideObstacleError, InfeasibleConstraintError) as exc:
                    with pytest.raises(type(exc)):
                        generalized_control(x, scenario, sigma, gamma)
                    seen.add(type(exc).__name__)
                    continue
                u, diags = generalized_control(x, scenario, sigma, gamma)
                assert u.tobytes() == ref_u.tobytes()
                assert len(diags) == len(ref)
                for diag, (phi, active, correction, g_att, g_rep) in zip(diags, ref):
                    assert diag.active is active
                    assert diag.correction.tobytes() == correction.tobytes()
                    assert _bits(diag.phi, diag.g_att, diag.g_rep) == _bits(phi, g_att, g_rep)
                    seen.add(("active" if active else "inactive",
                              "g_att 0" if g_att == 0.0 else "g_att"))
    # the set reaches a refusal, the goal's zero gain and live corrections
    assert {"InsideObstacleError", ("active", "g_att"), ("inactive", "g_att 0")} <= seen


def test_generalized_computes_nothing_a_second_time(arena, monkeypatch):
    """The gains and rows come from the kernel's own evaluation: no field
    formula and no sigma evaluation runs in ``generalized_control``."""
    import apf_rcbf.clf as clf_mod
    import apf_rcbf.fields as fields_mod

    calls = []

    def spy(name):
        def refused(*args, **kwargs):
            calls.append(name)
            raise AssertionError(f"generalized_control called {name}")
        return refused

    for name, value in vars(fields_mod).items():
        if callable(value) and getattr(value, "__module__", None) == fields_mod.__name__:
            monkeypatch.setattr(fields_mod, name, spy(name))
            if hasattr(rcbf_mod, name):
                monkeypatch.setattr(rcbf_mod, name, spy(name))
    monkeypatch.setattr(clf_mod, "sigma_value", spy("sigma_value"))
    monkeypatch.setattr(rcbf_mod, "sigma_value", spy("sigma_value"), raising=False)
    sigma = SigmaSelector.scaled_value(2.0)
    for x in ([1.0, 3.7], [-2.0, 0.0], [2.0, 3.95]):
        for gamma in (GammaSelector.zero(), GammaSelector.scaled_special(1.0)):
            generalized_control(x, arena, sigma, gamma)
    assert calls == []
