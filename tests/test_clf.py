"""Tightened decrease condition, sigma selectors, and the min-norm stabilizer."""

import math

import numpy as np
import pytest

from apf_rcbf import (
    HalfSpaceConstraint,
    Scenario,
    SigmaSelector,
    check_clf_decrease,
    clf_terms,
    f_att,
    nominal_control,
    sigma_value,
    solve_projection,
    u_att,
)


@pytest.fixture(scope="module")
def plain():
    return Scenario(goal=[7.0, 3.2])


def test_selector_validation():
    with pytest.raises(ValueError, match="unknown sigma selector kind"):
        SigmaSelector("quadratic")
    with pytest.raises(ValueError, match="positive coefficient"):
        SigmaSelector("scaled_value")
    with pytest.raises(ValueError, match="positive coefficient"):
        SigmaSelector.scaled_norm(-1.0)
    with pytest.raises(ValueError, match="positive coefficient"):
        SigmaSelector.scaled_value(0.0)
    for bad in (math.inf, math.nan, object()):
        with pytest.raises(ValueError, match="positive coefficient"):
            SigmaSelector.scaled_value(bad)


def test_custom_table_validation():
    with pytest.raises(ValueError, match="requires a table"):
        SigmaSelector("custom")
    with pytest.raises(ValueError, match=r"start at \(0, 0\)"):
        SigmaSelector.custom([0.5, 1.0], [0.1, 0.2])
    with pytest.raises(ValueError, match="positive away from the goal"):
        SigmaSelector.custom([0.0, 1.0, 2.0], [0.0, 0.5, 0.0])
    with pytest.raises(ValueError, match="strictly increasing"):
        SigmaSelector.custom([0.0, 1.0, 1.0], [0.0, 0.5, 0.7])
    with pytest.raises(ValueError, match="finite"):
        SigmaSelector.custom([0.0, np.inf], [0.0, 1.0])
    with pytest.raises(ValueError, match=">= 2 points"):
        SigmaSelector.custom([0.0], [0.0])
    for bad in ({"x": 1.0}, object(), [0.0, {"a": 1}]):
        with pytest.raises(ValueError, match="knots must be finite numbers"):
            SigmaSelector.custom(bad, [0.0, 1.0])
        with pytest.raises(ValueError, match="values must be finite numbers"):
            SigmaSelector.custom([0.0, 1.0], bad)
    sel = SigmaSelector.custom([0.0, 1.0, 5.0], [0.0, 2.0, 3.0])
    assert sel.kind == "custom"
    assert not sel.table[0].flags.writeable


def test_sigma_values_against_formulas(plain, rng):
    sq = SigmaSelector.grad_norm_squared()
    val = SigmaSelector.scaled_value(2.0)
    nrm = SigmaSelector.scaled_norm(1.0)
    for _ in range(300):
        x = rng.uniform(-10, 10, size=2)
        b = f_att(x, plain)
        assert sigma_value(x, plain, sq) == float(b[0]) * float(b[0]) + float(b[1]) * float(b[1])
        assert sigma_value(x, plain, val) == pytest.approx(
            2.0 * u_att(x, plain), rel=1e-15)
        dist = np.hypot(x[0] - 7.0, x[1] - 3.2)
        assert sigma_value(x, plain, nrm) == pytest.approx(dist, rel=1e-14)


def test_sigma_custom_interpolates_and_clamps(plain):
    sel = SigmaSelector.custom([0.0, 2.0, 4.0], [0.0, 1.0, 5.0])
    goal = plain.goal
    # on a knot, between knots (linear), and clamped beyond the last knot
    assert sigma_value(goal + [2.0, 0.0], plain, sel) == pytest.approx(1.0, rel=1e-15)
    assert sigma_value(goal + [3.0, 0.0], plain, sel) == pytest.approx(3.0, rel=1e-15)
    assert sigma_value(goal + [100.0, 0.0], plain, sel) == pytest.approx(5.0, rel=1e-15)
    assert sigma_value(goal, plain, sel) == 0.0


def test_sigma_positive_definite_about_goal(plain, rng):
    selectors = [
        SigmaSelector.grad_norm_squared(),
        SigmaSelector.scaled_value(2.0),
        SigmaSelector.scaled_norm(1.0),
        SigmaSelector.custom([0.0, 1.0], [0.0, 3.0]),
    ]
    for sel in selectors:
        assert sigma_value(plain.goal, plain, sel) == 0.0
        for _ in range(100):
            x = plain.goal + rng.uniform(0.01, 10) * _unit(rng)
            assert sigma_value(x, plain, sel) > 0.0


def _unit(rng):
    theta = rng.uniform(0, 2 * np.pi)
    return np.array([np.cos(theta), np.sin(theta)])


def test_clf_terms_structure(plain):
    sel = SigmaSelector.scaled_value(2.0)
    x = [1.0, -2.0]
    terms = clf_terms(x, plain, sel)
    assert terms.a == 0.0
    np.testing.assert_array_equal(terms.b, f_att(x, plain))
    assert terms.a_tilde == terms.a + terms.sigma
    assert terms.sigma == sigma_value(x, plain, sel)


def test_nominal_is_negative_gradient_for_squared_norm(plain, rng):
    """sigma = |b|^2 makes the min-norm control exactly -F_att (not approx)."""
    sel = SigmaSelector.grad_norm_squared()
    for _ in range(300):
        x = rng.uniform(-10, 10, size=2)
        np.testing.assert_array_equal(nominal_control(x, plain, sel), -f_att(x, plain))


def test_nominal_closed_form(plain, rng):
    for sel in (SigmaSelector.scaled_value(2.0), SigmaSelector.scaled_norm(1.0)):
        for _ in range(200):
            x = rng.uniform(-10, 10, size=2)
            b = f_att(x, plain)
            bb = float(b[0]) ** 2 + float(b[1]) ** 2
            expected = -(sigma_value(x, plain, sel) / bb) * b
            np.testing.assert_allclose(nominal_control(x, plain, sel), expected,
                                       rtol=1e-14, atol=0)


def test_nominal_zero_at_goal(plain):
    for sel in (SigmaSelector.grad_norm_squared(), SigmaSelector.scaled_norm(3.0)):
        np.testing.assert_array_equal(nominal_control(plain.goal, plain, sel),
                                      [0.0, 0.0])


def test_decrease_condition_holds_under_nominal(plain, rng):
    selectors = [
        SigmaSelector.grad_norm_squared(),
        SigmaSelector.scaled_value(2.0),
        SigmaSelector.scaled_norm(1.0),
        SigmaSelector.custom([0.0, 1.0, 20.0], [0.0, 0.5, 4.0]),
    ]
    for sel in selectors:
        for _ in range(200):
            x = rng.uniform(-10, 10, size=2)
            u = nominal_control(x, plain, sel)
            assert check_clf_decrease(x, u, plain, sel) <= 1e-12


def test_decrease_condition_detects_violation(plain):
    sel = SigmaSelector.scaled_value(2.0)
    x = [0.0, 0.0]
    # zero control cannot satisfy the tightened condition away from the goal
    assert check_clf_decrease(x, [0.0, 0.0], plain, sel) > 0
    # driving uphill is worse
    assert check_clf_decrease(x, f_att(x, plain), plain, sel) > 0


def test_nominal_matches_projection_oracle(plain, rng):
    """The stabilizer is the projection of u = 0 onto sigma + b.u <= 0."""
    selectors = [SigmaSelector.grad_norm_squared(), SigmaSelector.scaled_norm(1.0)]
    for sel in selectors:
        for _ in range(200):
            x = rng.uniform(-10, 10, size=2)
            terms = clf_terms(x, plain, sel)
            sol = solve_projection(
                [0.0, 0.0], [HalfSpaceConstraint(terms.a_tilde, terms.b)])
            assert sol.feasible
            u = nominal_control(x, plain, sel)
            assert float(np.max(np.abs(u - sol.u_star))) <= 1e-9
