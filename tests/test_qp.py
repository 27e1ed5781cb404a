"""Exhaustive active-set projection solver: hand cases, KKT checks, optimality."""

from collections import deque

import numpy as np
import pytest

from apf_rcbf import (
    HalfSpaceConstraint,
    sample_feasibility_check,
    solve_projection,
)
from apf_rcbf.qp import FEASIBILITY_TOL, MAX_CONSTRAINTS, solve_projection_many


def hs(offset, nx, ny):
    return HalfSpaceConstraint(offset, [nx, ny])


def test_constraint_validation():
    with pytest.raises(ValueError, match="2-vector"):
        HalfSpaceConstraint(0.0, [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="finite"):
        HalfSpaceConstraint(0.0, [np.nan, 1.0])
    for bad in ({"x": 1.0}, object(), "1", deque(["1", "0"]), 1j):
        with pytest.raises(ValueError, match="normal must be a finite 2-vector"):
            HalfSpaceConstraint(0.0, bad)
        with pytest.raises(ValueError, match="offset must be a number"):
            HalfSpaceConstraint(bad, [1.0, 0.0])
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


# solve_projection_many: the same numpy calls on stacks of problems, one
# active set at a time; every output must equal solving each problem alone.

def _same_solution(sol, u, active, kkt, feasible):
    assert sol.u_star.tobytes() == np.asarray(u).tobytes()
    assert (sol.active_set, sol.feasible) == (active, feasible)
    assert (np.array(sol.kkt_residual).tobytes() == np.array(kkt).tobytes()
            or np.isnan(sol.kkt_residual) and np.isnan(kkt))


def _problems(rng, k, m, kind):
    u = rng.normal(0.0, 2.0, (k, 2))
    offsets = rng.uniform(-2.0, 2.0, (k, m))
    if kind == "gaussian":
        normals = rng.normal(0.0, 1.0, (k, m, 2))
        offsets[rng.random((k, m)) < 0.02] = np.nan
    elif kind == "integer":  # zeros, repeated and parallel normals, exact ties
        normals = rng.integers(-2, 3, (k, m, 2)).astype(float)
        offsets = rng.integers(-2, 3, (k, m)).astype(float)
        u = rng.integers(-2, 3, (k, 2)).astype(float)
    else:  # every normal parallel: pairs are singular
        normals = rng.normal(0.0, 1.0, (k, 1, 2)) * rng.choice([-2.0, -1.0, 0.5, 1.0], (k, m, 1))
    return u, offsets, normals


@pytest.mark.parametrize("kind", ["gaussian", "integer", "parallel"])
@pytest.mark.parametrize("m", range(MAX_CONSTRAINTS + 1))
def test_stacked_solver_equals_the_scalar_one(m, kind, rng):
    u, offsets, normals = _problems(rng, 150, m, kind)
    u_star, active, kkt, feasible = solve_projection_many(u, offsets, normals)
    for i in range(len(u)):
        sol = solve_projection(u[i], [hs(offsets[i, j], *normals[i, j]) for j in range(m)])
        _same_solution(sol, u_star[i], active[i], kkt[i], feasible[i])


def test_stacked_solver_keeps_the_scalar_pins():
    """The hand cases above, solved as one stack per constraint count."""
    cases = [
        ([0.5, 2.0], [(-1.0, 1.0, 0.0)]),
        ([2.0, 0.0], [(-1.0, 1.0, 0.0)]),
        ([1.0, 2.0], [(np.nan, 1.0, 0.0)]),
        ([1.0, 1.0], [(0.0, 1.0, 0.0), (0.0, 0.0, 1.0)]),
        ([0.0, 0.0], [(1.0, 1.0, 0.0), (1.0, -1.0, 0.0)]),
        ([0.0, 0.0], [(1.0, 0.0, 1.0), (np.nan, 1.0, 0.0)]),
        ([0.0, 0.0], [(np.nan, 1.0, 0.0), (1.0, 0.0, 1.0)]),
        ([1.0, 0.0], [(0.0, 1.0, 0.0), (0.0, 1.0, 0.0)]),
        ([1.0, 1.0], [(0.0, 1.0, 0.0), (0.0, 2.0, 0.0), (0.0, 0.0, 1.0)]),
        ([3.0, -4.0], []),
    ]
    for m in sorted({len(c) for _, c in cases}):
        group = [(u, c) for u, c in cases if len(c) == m]
        u_star, active, kkt, feasible = solve_projection_many(
            [u for u, _ in group], [[o for o, _, _ in c] for _, c in group],
            [[(x, y) for _, x, y in c] for _, c in group])
        for i, (u, c) in enumerate(group):
            sol = solve_projection(u, [hs(*row) for row in c])
            _same_solution(sol, u_star[i], active[i], kkt[i], feasible[i])
    assert active[-1] == (0, 2) and not u_star.flags.writeable


def test_stacked_solver_stops_at_pairs(monkeypatch):
    """As test_enumeration_stops_at_pairs: only the sets of one or two
    constraints reach the condition check, one stacked call each."""
    calls = []
    cond = np.linalg.cond

    def spy(a):
        calls.append(a.shape)
        return cond(a)

    monkeypatch.setattr(np.linalg, "cond", spy)
    k = 5
    offsets = np.ones((k, MAX_CONSTRAINTS))
    normals = np.tile([(1.0, 0.0), (-1.0, 0.0)], (k, MAX_CONSTRAINTS // 2, 1))
    u_star, _, kkt, feasible = solve_projection_many(np.zeros((k, 2)), offsets, normals)
    assert not feasible.any() and np.isnan(u_star).all() and (kkt == np.inf).all()
    assert len(calls) == 36 and {s[1] for s in calls} == {1, 2} and {s[0] for s in calls} == {k}


def test_singular_stack_is_solved_one_problem_at_a_time():
    """A stacked solve raises for the whole stack if one matrix is singular:
    the others are then solved alone and the singular one is flagged."""
    from apf_rcbf.qp import _solve_each
    a = np.array([[[2.0, 0.0], [0.0, 4.0]], [[1.0, 1.0], [1.0, 1.0]], [[1.0, 2.0], [3.0, 4.0]]])
    b = np.array([[2.0, 8.0], [1.0, 1.0], [1.0, 1.0]])
    x, solved = _solve_each(a, b)
    assert solved.tolist() == [True, False, True]
    for i in (0, 2):
        assert x[i].tobytes() == np.linalg.solve(a[i], b[i]).tobytes()


@pytest.mark.parametrize("which", ["u_noms", "offsets", "normals"])
@pytest.mark.parametrize("bad", [lambda a: a.astype(str).tolist(), lambda a: a.astype(str),
                                 lambda a: np.array(a.astype(str), dtype=object),
                                 lambda a: np.full(a.shape, None)],
                         ids=["text-lists", "string-array", "object-strings", "object-none"])
def test_stacked_solver_reads_only_numbers(which, bad):
    """Each array is read as numbers or refused with a ``ValueError``: a
    problem written as text is not solved."""
    arrays = {"u_noms": np.array([[1.0, 2.0]]), "offsets": np.array([[0.5]]),
              "normals": np.array([[[1.0, 0.0]]])}
    assert solve_projection_many(*arrays.values())[3].tolist() == [True]
    arrays[which] = bad(arrays[which])
    with pytest.raises(ValueError, match=f"{which} must be numbers, got "):
        solve_projection_many(*arrays.values())


def test_stacked_solver_constraint_count_limit():
    with pytest.raises(ValueError, match="at most"):
        solve_projection_many(np.zeros((1, 2)), np.zeros((1, MAX_CONSTRAINTS + 1)),
                              np.zeros((1, MAX_CONSTRAINTS + 1, 2)))


@pytest.mark.parametrize("offsets, normals", [
    ([[1.0, 2.0]], [[[1.0, 0.0]], [[0.0, 1.0]]]),
    (np.ones(2), [[[1.0, 0.0]], [[0.0, 1.0]]]),
    ([[1.0], [2.0]], [1.0, 0.0, 0.0, 1.0]),
    ([[1.0], [2.0]], [[1.0, 0.0], [0.0, 1.0]]),
], ids=["one-row-of-two", "flat-offsets", "flat-normals", "normals-without-m"])
def test_stacked_solver_refuses_misshapen_problems(offsets, normals):
    """Two problems of one constraint each are (2, 1) offsets and (2, 1, 2)
    normals; any other shape is refused, not read as other problems."""
    u_noms = np.zeros((2, 2))
    assert solve_projection_many(u_noms, [[1.0], [2.0]],
                                 [[[1.0, 0.0]], [[0.0, 1.0]]])[3].tolist() == [True, True]
    which = "offsets" if np.shape(offsets) != (2, 1) else "normals"
    with pytest.raises(ValueError, match=f"{which} must have shape "):
        solve_projection_many(u_noms, offsets, normals)
