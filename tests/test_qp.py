"""Exhaustive active-set projection solver: hand cases, KKT checks, optimality."""

import numpy as np
import pytest

from apf_rcbf import (
    HalfSpaceConstraint,
    sample_feasibility_check,
    solve_projection,
)
from apf_rcbf.qp import FEASIBILITY_TOL, MAX_CONSTRAINTS


def hs(offset, nx, ny):
    return HalfSpaceConstraint(offset, [nx, ny])


def test_constraint_validation():
    with pytest.raises(ValueError, match="2-vector"):
        HalfSpaceConstraint(0.0, [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="finite"):
        HalfSpaceConstraint(0.0, [np.nan, 1.0])
    c = hs(1.0, 0.5, -0.5)
    assert not c.normal.flags.writeable
    assert c.offset == 1.0


def test_unconstrained_returns_nominal():
    sol = solve_projection([3.0, -4.0], [])
    np.testing.assert_array_equal(sol.u_star, [3.0, -4.0])
    assert sol.active_set == ()
    assert sol.kkt_residual == 0.0
    assert sol.feasible


def test_inactive_constraint_keeps_nominal():
    # u_x <= 1 written as  -1 + u_x <= 0; nominal already inside
    sol = solve_projection([0.5, 2.0], [hs(-1.0, 1.0, 0.0)])
    np.testing.assert_array_equal(sol.u_star, [0.5, 2.0])
    assert sol.active_set == ()


def test_active_halfspace_projection():
    sol = solve_projection([2.0, 0.0], [hs(-1.0, 1.0, 0.0)])
    np.testing.assert_allclose(sol.u_star, [1.0, 0.0], atol=1e-15)
    assert sol.active_set == (0,)
    assert sol.kkt_residual <= 1e-12
    assert sol.feasible


def test_vertex_of_two_halfspaces():
    # u_x <= 0 and u_y <= 0 from (1, 1): the corner at the origin
    sol = solve_projection([1.0, 1.0], [hs(0.0, 1.0, 0.0), hs(0.0, 0.0, 1.0)])
    np.testing.assert_allclose(sol.u_star, [0.0, 0.0], atol=1e-15)
    assert sol.active_set == (0, 1)


def test_singular_active_pairs_are_skipped():
    """Enumeration reaches the singular pair (0, 1) here and must step over it:
    every singleton fails feasibility, so the solver has to continue to the
    independent pair (0, 2)."""
    cons = [hs(0.0, 1.0, 0.0), hs(0.0, 2.0, 0.0), hs(0.0, 0.0, 1.0)]
    sol = solve_projection([1.0, 1.0], cons)
    np.testing.assert_allclose(sol.u_star, [0.0, 0.0], atol=1e-15)
    assert sol.active_set == (0, 2)
    assert sol.feasible


def test_infeasible_intersection():
    # u_x <= -1 and u_x >= 1 cannot both hold
    sol = solve_projection([0.0, 0.0], [hs(1.0, 1.0, 0.0), hs(1.0, -1.0, 0.0)])
    assert not sol.feasible
    assert np.all(np.isnan(sol.u_star))
    assert sol.active_set == ()
    assert sol.kkt_residual == np.inf


@pytest.mark.parametrize("u_nom, cons", [
    ([1.0, 2.0], [hs(np.nan, 1.0, 0.0)]),
    # a NaN residual after a violated one: the whole primal check reads NaN
    ([0.0, 0.0], [hs(1.0, 0.0, 1.0), hs(np.nan, 1.0, 0.0)]),
    ([0.0, 0.0], [hs(np.nan, 1.0, 0.0), hs(1.0, 0.0, 1.0)]),
    ([-2.5, 0.5], []),
], ids=["nan-offset", "nan-after-violated", "nan-before-violated", "no-constraints"])
def test_nan_offset_and_empty_list_keep_nominal(u_nom, cons):
    """A NaN residual fails no comparison, so the empty active set is accepted
    with the nominal control and a zero KKT residual, as for no constraints."""
    sol = solve_projection(u_nom, cons)
    assert sol.u_star.tobytes() == np.array(u_nom).tobytes()
    assert sol.active_set == ()
    assert sol.kkt_residual == 0.0
    assert sol.feasible


def test_enumeration_stops_at_pairs(monkeypatch):
    """The control lives in R^2, so the Gram matrix of three or more normals
    is singular and the condition check rejects it: only the 8 + 28 sets of
    one or two of 8 constraints reach the check, here where none is
    accepted (2^8 - 1 = 255 would be every nonempty set)."""
    calls = []
    cond = np.linalg.cond

    def spy(a):
        calls.append(len(a))
        return cond(a)

    monkeypatch.setattr(np.linalg, "cond", spy)
    cons = [hs(1.0, 1.0, 0.0), hs(1.0, -1.0, 0.0)] * (MAX_CONSTRAINTS // 2)
    sol = solve_projection([0.0, 0.0], cons)
    assert not sol.feasible
    assert len(calls) <= 36 and max(calls) == 2


def test_constraint_count_limit():
    cons = [hs(-10.0, 1.0, 0.0)] * (MAX_CONSTRAINTS + 1)
    with pytest.raises(ValueError, match="at most"):
        solve_projection([0.0, 0.0], cons)


def test_deterministic_tie_break():
    # two identical constraints active at the optimum: smallest set, then lex
    cons = [hs(0.0, 1.0, 0.0), hs(0.0, 1.0, 0.0)]
    sol = solve_projection([1.0, 0.0], cons)
    assert sol.active_set == (0,)
    again = solve_projection([1.0, 0.0], cons)
    assert again.active_set == sol.active_set
    np.testing.assert_array_equal(again.u_star, sol.u_star)


def test_sample_feasibility_check():
    cons = [hs(-1.0, 1.0, 0.0), hs(-1.0, 0.0, 1.0)]
    assert sample_feasibility_check([0.0, 0.0], cons)
    assert sample_feasibility_check([1.0, 1.0], cons)  # boundary counts
    assert not sample_feasibility_check([1.1, 0.0], cons)
    assert sample_feasibility_check([5.0, 5.0], [])


def _random_feasible_problem(rng, m):
    """Constraints guaranteed non-empty: all half spaces contain ``anchor``."""
    anchor = rng.normal(scale=2.0, size=2)
    cons = []
    for _ in range(m):
        n = rng.normal(size=2)
        while np.linalg.norm(n) < 1e-6:
            n = rng.normal(size=2)
        slack = rng.uniform(0.0, 1.5)
        cons.append(HalfSpaceConstraint(-(n @ anchor) - slack, n))
    return anchor, cons


def test_random_problems_satisfy_kkt(rng):
    for _ in range(300):
        m = int(rng.integers(0, 5))
        anchor, cons = _random_feasible_problem(rng, m)
        u_nom = rng.normal(scale=3.0, size=2)
        sol = solve_projection(u_nom, cons)
        assert sol.feasible
        assert sample_feasibility_check(sol.u_star, cons)
        assert sol.kkt_residual <= 1e-8


def test_random_problems_are_optimal(rng):
    """No feasible point may be closer to the nominal than the solution.

    Candidate points are rejection-sampled from a cloud around the anchor and
    the solution itself, which probes the boundary region where a wrong
    active set would show up.
    """
    for _ in range(100):
        m = int(rng.integers(1, 5))
        anchor, cons = _random_feasible_problem(rng, m)
        u_nom = rng.normal(scale=3.0, size=2)
        sol = solve_projection(u_nom, cons)
        best = float(np.linalg.norm(sol.u_star - u_nom))
        for _ in range(60):
            center = anchor if rng.uniform() < 0.5 else sol.u_star
            cand = center + rng.normal(scale=0.7, size=2)
            if sample_feasibility_check(cand, cons):
                dist = float(np.linalg.norm(cand - u_nom))
                assert dist >= best - 1e-7


def test_projection_distance_monotone_in_constraints(rng):
    """Adding a constraint can only push the projection farther from nominal."""
    for _ in range(100):
        anchor, cons = _random_feasible_problem(rng, 3)
        u_nom = rng.normal(scale=3.0, size=2)
        d2 = float(np.linalg.norm(solve_projection(u_nom, cons[:2]).u_star - u_nom))
        d3 = float(np.linalg.norm(solve_projection(u_nom, cons).u_star - u_nom))
        assert d3 >= d2 - 1e-9


def test_feasibility_tolerance_is_tight():
    """The margin comparison is inclusive at exactly the tolerance.

    The constraint offset is zero so the margin arithmetic below is exact —
    an offset like -1.0 would absorb the tiny violation into rounding."""
    cons = [hs(0.0, 1.0, 0.0)]  # u_x <= 0
    assert sample_feasibility_check([FEASIBILITY_TOL, 0.0], cons)
    assert not sample_feasibility_check([2 * FEASIBILITY_TOL, 0.0], cons)
    assert sample_feasibility_check([-5.0, 3.0], cons)
