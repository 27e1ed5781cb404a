"""Small exact QP solver used as an independent oracle for the closed forms.

Solves  min 1/2 |u - u_nom|^2  subject to  offset_i + normal_i . u <= 0  by
enumerating the candidate active sets of at most two constraints (u is in
R^2, so three or more normals have a singular Gram matrix, which the
condition check rejects): 1 + m + m(m-1)/2 sets for m constraints, each
solved in closed form, returning the first KKT-consistent feasible one.  For
a convex QP any KKT point is the unique minimizer, so enumeration order — by
active-set size, then lexicographic — only breaks ties among equivalent
representations and makes the reported active set deterministic.

Deliberately no iterative solver and no external dependency: the whole point
is an oracle whose correctness is an enumeration argument, not a convergence
argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .scenario import _as_array, _as_number, _as_point, _vec2

FEASIBILITY_TOL = 1e-10
MULTIPLIER_TOL = 1e-12
CONDITION_LIMIT = 1e12
MAX_CONSTRAINTS = 8


@dataclass(frozen=True)
class HalfSpaceConstraint:
    """Half space  offset + normal . u <= 0."""

    offset: float
    normal: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "normal", _vec2(self.normal, "normal"))
        object.__setattr__(self, "offset", _as_number(self.offset, "offset must be a number"))


@dataclass(frozen=True)
class QpSolution:
    u_star: np.ndarray
    active_set: tuple
    kkt_residual: float
    feasible: bool


def _max_nan(values):
    """``max(0.0, *values)``, but NaN as soon as any value is NaN.

    The bookkeeping runs on a handful of Python floats, where this beats a
    numpy reduction; unlike the builtin ``max`` it propagates NaN the way
    ``np.max`` does, whatever the position of the NaN.
    """
    out = 0.0
    for v in values:
        if v != v:
            return v
        if v > out:
            out = v
    return out


def solve_projection(u_nom, constraints) -> QpSolution:
    """Exact minimizer of 1/2 |u - u_nom|^2 over the half-space intersection.

    ``feasible=False`` (with NaN ``u_star``) when the intersection is empty.
    """
    u_nom = np.array(_as_point(u_nom))
    m = len(constraints)
    if m > MAX_CONSTRAINTS:
        raise ValueError(f"at most {MAX_CONSTRAINTS} constraints supported, got {m}")
    offsets = np.array([c.offset for c in constraints], dtype=np.float64)
    normals = np.array([c.normal for c in constraints], dtype=np.float64).reshape(m, 2)

    for size in range(min(m, 2) + 1):
        for subset in combinations(range(m), size):
            if size == 0:
                u = u_nom.copy()
                lams = []
                stationarity = 0.0
                complementarity = 0.0
            else:
                idx = list(subset)
                N = normals[idx]
                A = N @ N.T
                with np.errstate(all="ignore"):
                    cond = np.linalg.cond(A)
                if not np.isfinite(cond) or cond > CONDITION_LIMIT:
                    continue
                try:
                    lam = np.linalg.solve(A, offsets[idx] + N @ u_nom)
                except np.linalg.LinAlgError:
                    continue
                lams = lam.tolist()
                if any(v < -MULTIPLIER_TOL for v in lams):
                    continue
                u = u_nom - N.T @ lam
                stationarity = float(np.linalg.norm((u - u_nom) + N.T @ lam))
                complementarity = _max_nan(
                    abs(v * r) for v, r in zip(lams, (offsets[idx] + N @ u).tolist()))
            primal = _max_nan((offsets + normals @ u).tolist() if m else ())
            if primal > FEASIBILITY_TOL:
                continue
            dual = _max_nan(-v for v in lams)
            kkt = max(stationarity, complementarity, primal, dual, 0.0)
            u.setflags(write=False)
            return QpSolution(u_star=u, active_set=subset, kkt_residual=kkt, feasible=True)

    u = np.full(2, np.nan)
    u.setflags(write=False)
    return QpSolution(u_star=u, active_set=(), kkt_residual=np.inf, feasible=False)


def _max_nan_rows(values):
    """:func:`_max_nan` of each row of the 2-D array ``values``."""
    return np.max(values, axis=1, initial=0.0)


def _solve_each(a, b):
    """``np.linalg.solve`` on each matrix of the stack ``a`` with the vector
    in the same row of ``b``; returns the solutions and a mask of the
    matrices that were not singular."""
    try:
        return np.linalg.solve(a, b[..., None])[..., 0], np.ones(len(a), dtype=bool)
    except np.linalg.LinAlgError:
        pass
    x = np.empty(b.shape)
    solved = np.ones(len(a), dtype=bool)
    for i in range(len(a)):
        try:
            x[i] = np.linalg.solve(a[i], b[i])
        except np.linalg.LinAlgError:
            solved[i] = False
    return x, solved


def solve_projection_many(u_noms, offsets, normals):
    """:func:`solve_projection` for ``k`` problems of ``m`` constraints each,
    given as arrays ``u_noms`` (k, 2), ``offsets`` (k, m) and ``normals``
    (k, m, 2).  Returns ``(u_star, active_sets, kkt_residuals, feasible)``:
    arrays of shape (k, 2), (k,) and (k,) and a list of k tuples.

    It makes :func:`solve_projection`'s numpy calls on stacks, one active set
    at a time in the same order, over the problems that no earlier set has
    solved: the same LAPACK and BLAS routines on the same operands, so the
    results are those of solving each problem alone.  A stack whose solve
    meets a singular matrix is solved one problem at a time, and a singular
    problem skips the set, as there.
    """
    u_noms = _as_array(u_noms, "u_noms must be numbers").reshape(-1, 2)
    k = len(u_noms)
    offsets = _as_array(offsets, "offsets must be numbers").reshape(k, -1)
    m = offsets.shape[1]
    if m > MAX_CONSTRAINTS:
        raise ValueError(f"at most {MAX_CONSTRAINTS} constraints supported, got {m}")
    normals = _as_array(normals, "normals must be numbers").reshape(k, m, 2)

    u_star = np.full((k, 2), np.nan)
    active_sets = [()] * k
    kkt = np.full(k, np.inf)
    feasible = np.zeros(k, dtype=bool)
    todo = np.arange(k)
    for size in range(min(m, 2) + 1):
        for subset in combinations(range(m), size):
            if todo.size == 0:
                break
            idx = list(subset)
            cand = todo
            u_nom = u_noms[cand]
            if size == 0:
                u = u_nom.copy()
                lam = np.empty((cand.size, 0))
                stationarity = complementarity = np.zeros(cand.size)
            else:
                N = normals[cand][:, idx]
                A = N @ N.transpose(0, 2, 1)
                with np.errstate(all="ignore"):
                    cond = np.linalg.cond(A)
                ok = np.isfinite(cond) & ~(cond > CONDITION_LIMIT)
                cand, u_nom, N, A = cand[ok], u_nom[ok], N[ok], A[ok]
                rhs = offsets[cand][:, idx] + (N @ u_nom[:, :, None])[..., 0]
                lam, ok = _solve_each(A, rhs)
                ok &= ~(lam < -MULTIPLIER_TOL).any(axis=1)
                cand, u_nom, N, lam = cand[ok], u_nom[ok], N[ok], lam[ok]
                NT = N.transpose(0, 2, 1)
                u = u_nom - (NT @ lam[:, :, None])[..., 0]
                resid = (u - u_nom) + (NT @ lam[:, :, None])[..., 0]
                # norm's x.dot(x), one dot per problem
                stationarity = np.sqrt((resid[:, None, :] @ resid[:, :, None])[:, 0, 0])
                complementarity = _max_nan_rows(
                    np.abs(lam * (offsets[cand][:, idx] + (N @ u[:, :, None])[..., 0])))
            if m:
                primal = _max_nan_rows(offsets[cand] + (normals[cand] @ u[:, :, None])[..., 0])
            else:
                primal = np.zeros(cand.size)
            ok = ~(primal > FEASIBILITY_TOL)
            dual = _max_nan_rows(-lam)
            # the builtin max over (stationarity, ..., 0.0): NaN only first
            res = stationarity
            for part in (complementarity, primal, dual, np.zeros(cand.size)):
                res = np.where(part > res, part, res)
            done = cand[ok]
            u_star[done] = u[ok]
            kkt[done] = res[ok]
            feasible[done] = True
            for i in done.tolist():
                active_sets[i] = subset
            todo = np.setdiff1d(todo, done, assume_unique=True)
    u_star.setflags(write=False)
    return u_star, active_sets, kkt, feasible


def sample_feasibility_check(u, constraints) -> bool:
    """True iff every constraint is satisfied at ``u`` within tolerance."""
    ux, uy = _as_point(u)
    for c in constraints:
        if c.offset + float(c.normal[0]) * ux + float(c.normal[1]) * uy > FEASIBILITY_TOL:
            return False
    return True
