"""Barrier side: reciprocal-barrier conditions and the closed-form safety filter.

On the influence shell of an obstacle the repulsive potential B = U_rep blows
up toward the surface, which makes it a reciprocal barrier for the clearance
h = rho.  For the single integrator the barrier condition

    c(x) + d(x) . u <= 0,     c = -alpha_gain * h,   d = F_rep,

keeps the shell forward-invariant, and tightening c to c~ = c + Gamma with a
nonnegative Gamma preserves that guarantee.  The minimally-invasive filter

    u = u_nom                         when phi = c~ + d.u_nom <= 0
    u = u_nom - (phi/|d|^2) d         when phi > 0

is the closed-form solution of projecting u_nom onto the constraint.  The
``scaled_special`` tightening Gamma = lam |d|^2 + alpha_gain h - d.u_nom makes
phi collapse to exactly lam |d|^2, so the filtered controller superposes
corrections of exactly -lam F_rep per active obstacle; at lam = 1 with the
squared-gradient-norm stabilizer this reproduces the potential-field
controller identically.

The tightening selectors, :class:`GammaSelector` with :class:`SigmaSelector`,
and the unit pair ``UNIT_SIGMA``, ``UNIT_GAMMA``, ``UNIT_PACKING`` live in
:mod:`apf_rcbf.clf`, so a rollout never loads this module; they are
re-exported here.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels as _k
from .clf import UNIT_GAMMA, UNIT_PACKING, UNIT_SIGMA, GammaSelector, SigmaSelector
from .errors import InfeasibleConstraintError, NegativeGammaError
from .fields import f_rep, u_rep
from .scenario import Obstacle, Scenario, _as_point, rho

logger = logging.getLogger(__name__)

NEGATIVE_GAMMA_MSG = "Gamma selector produced negative value"
INFEASIBLE_MSG = "constraint infeasible at state"

# selector keys already warned about; cleared by tests
_warned_negative_gamma = set()


def _warn_negative_gamma(lam, min_gamma, where):
    """Log (once per lam per process) that a scaled-special tightening went
    negative; the zero and table ones never do.

    A negative evaluated Gamma means the tightened-condition certificate does
    not hold at that state; the filter itself stays feasible and its output
    is unaffected, so controllers keep running rather than aborting a
    simulation mid-flight.  Term-level evaluation via :func:`rcbf_terms`
    treats the same condition as a hard error.
    """
    key = ("scaled_special", lam)
    if key in _warned_negative_gamma:
        return
    _warned_negative_gamma.add(key)
    logger.warning(
        "Gamma selector %s evaluated negative (min %.3e) %s; "
        "filter output is unaffected but the tightening certificate fails there",
        key, min_gamma, where)


@dataclass(frozen=True)
class RcbfTerms:
    """Barrier condition pieces at one state for one obstacle."""

    B: float
    h: float
    c: float
    d: np.ndarray
    gamma: float
    c_tilde: float


@dataclass(frozen=True)
class FilterDiagnostics:
    """What the filter saw and did: margin, activity, and applied gains.

    ``g_att``/``g_rep`` are the attractive/repulsive gains of the combined
    controller form; they are NaN in contexts where the corresponding
    decomposition does not apply (e.g. ``g_att`` for a bare filter call).
    """

    phi: float
    active: bool
    correction: np.ndarray
    g_att: float
    g_rep: float


def rcbf_terms(x, obs: Obstacle, scenario: Scenario, u_nom, sel: GammaSelector) -> RcbfTerms:
    """Evaluate the (tightened) barrier condition pieces term by term.

    Unlike the fused controllers, this evaluates Gamma from its definition,
    and enforces Gamma >= 0 as a hard error.
    """
    B = u_rep(x, obs, scenario)  # raises on or inside the obstacle
    h = rho(x, obs)
    c = -scenario.alpha_gain * h
    d = f_rep(x, obs, scenario)
    ux, uy = _as_point(u_nom)
    if sel.kind == "zero":
        gamma = 0.0
    elif sel.kind == "scaled_special":
        dd = float(d[0]) * float(d[0]) + float(d[1]) * float(d[1])
        du = float(d[0]) * ux + float(d[1]) * uy
        gamma = sel.lam * dd + scenario.alpha_gain * h - du
    else:
        gtx, gty = sel.table
        gamma = float(np.interp(h, gtx, gty))
    if gamma < 0.0:
        raise NegativeGammaError(NEGATIVE_GAMMA_MSG)
    return RcbfTerms(B=B, h=h, c=c, d=d, gamma=gamma, c_tilde=c + gamma)


def _diagnostics(phi, row, g_att):
    """One constraint's diagnostics from its row ``(dx, dy, dd = |d|^2)``:
    active when phi > 0, gain g_rep = -phi/dd (NaN for a zero row, dd = 0),
    and the correction g_rep d, applied only when active on a nonzero row.
    Raises for a zero row (also one whose |d|^2 underflows) with a positive
    margin: no control fits."""
    dx, dy, dd = row
    if dd == 0.0 and phi > 0.0:
        raise InfeasibleConstraintError(INFEASIBLE_MSG)
    g_rep = -(phi / dd) if dd > 0.0 else math.nan
    active = phi > 0.0
    correction = np.array([g_rep * dx, g_rep * dy]) if active and dd > 0.0 else np.zeros(2)
    return FilterDiagnostics(phi=phi, active=active, correction=correction,
                             g_att=g_att, g_rep=g_rep)


def safety_filter(u_nom, terms: RcbfTerms):
    """Project ``u_nom`` onto the tightened barrier constraint (closed form).

    Returns ``(u, FilterDiagnostics)``; raises when the constraint admits no
    control at all (zero row with positive margin).
    """
    ux, uy = _as_point(u_nom)
    dx, dy = float(terms.d[0]), float(terms.d[1])
    dd = dx * dx + dy * dy
    phi = terms.c_tilde + dx * ux + dy * uy
    diag = _diagnostics(phi, (dx, dy, dd), math.nan)
    u = np.array([ux, uy])
    return (u + diag.correction if diag.active else u), diag


def special_filter_control(x, scenario: Scenario) -> np.ndarray:
    """Safety-filtered stabilizer with the unit scaled-special tightening.

    Equals the combined potential-field controller at every state outside the
    obstacles: -F_att where no obstacle is active, -F_att - sum F_rep_i
    otherwise.
    """
    u, _, ming, _ = _k.control(x, scenario, UNIT_PACKING)
    if ming < 0.0:
        _warn_negative_gamma(UNIT_GAMMA.lam, ming, "in special_filter_control")
    return u


def generalized_control(x, scenario: Scenario, sigma_sel: SigmaSelector,
                        gamma_sel: GammaSelector):
    """Filtered stabilizer with selectable tightenings on both sides.

    The stabilizer is u_nom = g_att F_att with g_att = -sigma/|F_att|^2, and
    each obstacle whose constraint margin phi is positive contributes the
    correction g_rep F_rep with g_rep = -phi/|F_rep|^2, superposed onto
    u_nom.  Returns ``(u, per-obstacle FilterDiagnostics tuple)``.

    Like :func:`safety_filter`, raises on a zero row with a positive margin
    (a custom Gamma above alpha_gain h beyond the shell); a rollout there
    runs on, since kernels never raise, and the row takes no correction.
    The gains and rows are the kernel's own, read from its ``rows`` buffer.
    """
    rows = [(0.0, 0.0, 0.0)] * len(scenario.obstacles) + [0.0]  # an idle row stays zero
    u, _, ming, phis = _k.control(x, scenario, _k.pack_controller(sigma_sel, gamma_sel), rows)
    if ming < 0.0:
        _warn_negative_gamma(gamma_sel.lam, ming, "in generalized_control")
    g_att = rows[-1]
    return u, tuple(_diagnostics(phi, row, g_att) for phi, row in zip(phis.tolist(), rows))
