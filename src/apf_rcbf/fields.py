"""Attractive/repulsive potentials, their gradients, and the combined controller.

The attractive potential is the quadratic bowl  U_att = (k_att/2)|x - goal|^2
with gradient  F_att = k_att (x - goal).  Each obstacle contributes

    U_rep = (k_rep/2) (1/rho - 1/rho0)^2   for 0 < rho < rho0,   0 otherwise,

where rho is the clearance to the obstacle surface, with gradient

    F_rep = -(k_rep/rho^2) (1/rho - 1/rho0) (x - c)/|x - c|.

The combined controller commands  u = -F_att - sum_i F_rep_i  (gradient
descent on the total potential).  ``alpha_bar`` is the explicit class-K
function whose reciprocal is the repulsive potential on the influence shell:
U_rep(h) * alpha_bar(h) = 1 for 0 < h < rho0, which is what qualifies U_rep
as a reciprocal barrier there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import INSIDE_OBSTACLE_MSG, InsideObstacleError
from .scenario import Obstacle, Scenario, _as_point


@dataclass(frozen=True)
class FieldEval:
    """A potential value and its gradient at one point."""

    value: float
    gradient: np.ndarray


def u_att(x, scenario: Scenario) -> float:
    px, py = _as_point(x)
    gx, gy = scenario.goal.tolist()
    dx = px - gx
    dy = py - gy
    return 0.5 * scenario.k_att * (dx * dx + dy * dy)


def f_att(x, scenario: Scenario) -> np.ndarray:
    px, py = _as_point(x)
    gx, gy = scenario.goal.tolist()
    return np.array([scenario.k_att * (px - gx), scenario.k_att * (py - gy)])


def _offset(x, obs: Obstacle):
    """``(ox, oy, |x - c|, rho)`` at ``x``; raises on or inside ``obs``."""
    px, py = _as_point(x)
    cx, cy = obs.center.tolist()
    ox = px - cx
    oy = py - cy
    dist = math.sqrt(ox * ox + oy * oy)
    rho = dist - obs.radius
    if rho <= 0.0:
        raise InsideObstacleError(INSIDE_OBSTACLE_MSG)
    return ox, oy, dist, rho


def u_rep(x, obs: Obstacle, scenario: Scenario) -> float:
    _, _, _, rho = _offset(x, obs)
    rho0 = obs.influence_margin
    if rho >= rho0:
        return 0.0
    q = 1.0 / rho - 1.0 / rho0
    return 0.5 * scenario.k_rep * q * q


def f_rep(x, obs: Obstacle, scenario: Scenario) -> np.ndarray:
    """The repulsive force F_rep.  The controller ``_kernels.bind`` returns
    repeats these expressions in this order, so the unit scaled-special
    filter equals apf_control = -f_att - sum f_rep bit for bit."""
    ox, oy, dist, rho = _offset(x, obs)
    rho0 = obs.influence_margin
    if rho >= rho0:
        return np.array([0.0, 0.0])
    coef = -(scenario.k_rep / (rho * rho)) * (1.0 / rho - 1.0 / rho0) / dist
    return np.array([coef * ox, coef * oy])


def attractive_field(x, scenario: Scenario) -> FieldEval:
    return FieldEval(u_att(x, scenario), f_att(x, scenario))


def repulsive_field(x, obs: Obstacle, scenario: Scenario) -> FieldEval:
    return FieldEval(u_rep(x, obs, scenario), f_rep(x, obs, scenario))


def apf_control(x, scenario: Scenario) -> np.ndarray:
    """Combined potential-field control  u = -F_att - sum_i F_rep_i.

    Computed from the field formulas, obstacle by obstacle, and not by the
    controller kernel: it is the descent law that the filtered stabilizer
    with the unit scaled-special tightening is checked against.
    """
    u = -f_att(x, scenario)
    for obs in scenario.obstacles:
        u = u - f_rep(x, obs, scenario)
    return u


def alpha_bar(h: float, scenario: Scenario, rho0: float | None = None) -> float:
    """Class-K reciprocal of the repulsive potential on the influence shell.

        alpha_bar(h) = (2/k_rep) (rho0 h / (rho0 - h))^2,   0 <= h < rho0

    When the scenario's obstacles share a common influence margin it is used
    automatically; otherwise (or for an obstacle-free scenario) pass ``rho0``.
    """
    if rho0 is None:
        margins = {obs.influence_margin for obs in scenario.obstacles}
        if not margins:
            raise ValueError("scenario has no obstacles; pass rho0 explicitly")
        if len(margins) > 1:
            raise ValueError(
                "obstacles have different influence margins; pass rho0 explicitly")
        (rho0,) = margins
    h = float(h)
    if not 0.0 <= h < rho0:
        raise ValueError(f"h must lie in [0, rho0): got h={h}, rho0={rho0}")
    rho0 = float(rho0)
    q = rho0 * h / (rho0 - h)
    return (2.0 / scenario.k_rep) * q * q
