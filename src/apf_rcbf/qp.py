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
        normal = np.asarray(self.normal, dtype=np.float64)
        if normal.shape != (2,):
            raise ValueError(f"normal must be a 2-vector, got shape {normal.shape}")
        if not np.all(np.isfinite(normal)):
            raise ValueError("normal must be finite")
        normal.setflags(write=False)
        object.__setattr__(self, "normal", normal)
        object.__setattr__(self, "offset", float(self.offset))


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
    u_nom = np.asarray(u_nom, dtype=np.float64)
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


def sample_feasibility_check(u, constraints) -> bool:
    """True iff every constraint is satisfied at ``u`` within tolerance."""
    u = np.asarray(u, dtype=np.float64)
    for c in constraints:
        if c.offset + float(c.normal[0]) * float(u[0]) + float(c.normal[1]) * float(u[1]) \
                > FEASIBILITY_TOL:
            return False
    return True
