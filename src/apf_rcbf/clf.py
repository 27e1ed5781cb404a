"""Stabilizing (Lyapunov) side: tightened decrease condition and min-norm control.

The attractive potential doubles as a Lyapunov function V for the single
integrator, giving drift term a = 0 and input term b = F_att.  Requiring

    a + sigma(x) + b(x) . u <= 0

with a tightening sigma that is positive away from the goal turns the
non-strict QP constraint into a strict decrease condition.  The min-norm
control subject to it has the closed form

    u = -(sigma / |b|^2) b        (u = 0 at the goal),

which reduces to exactly -F_att for the sigma = |b|^2 selector.

Both tightening selectors live here, :class:`SigmaSelector` for this
condition and :class:`GammaSelector` for the barrier condition of
:mod:`apf_rcbf.rcbf`, with the unit pair ``UNIT_SIGMA``, ``UNIT_GAMMA`` and its
kernel packing ``UNIT_PACKING``; a rollout needs them and nothing of ``rcbf``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels as _k
from .scenario import Scenario, _as_point, _finite, _finite_array

_SIGMA_KINDS = {"grad_norm_squared": 0, "scaled_value": 1, "scaled_norm": 2, "custom": 3}
_GAMMA_KINDS = {"zero": 0, "scaled_special": 1, "custom": 2}


def _freeze_table(xs, ys, name):
    xs = _finite_array(xs, f"{name} table knots must be finite numbers")
    ys = _finite_array(ys, f"{name} table values must be finite numbers")
    if xs.ndim != 1 or xs.shape != ys.shape or xs.size < 2:
        raise ValueError(f"{name} table needs matching 1-d knot/value arrays (>= 2 points)")
    if not np.all(np.diff(xs) > 0):
        raise ValueError(f"{name} table knots must be strictly increasing")
    return xs, ys


@dataclass(frozen=True)
class SigmaSelector:
    """Choice of tightening term sigma(x) for the decrease condition.

    Kinds: ``grad_norm_squared`` (sigma = |b|^2), ``scaled_value``
    (sigma = coefficient * V), ``scaled_norm`` (sigma = coefficient *
    |x - goal|), and ``custom`` (linear interpolation over distance to goal;
    clamped at the table ends).
    """

    kind: str
    coefficient: float | None = None
    table: tuple | None = None

    def __post_init__(self):
        if self.kind not in _SIGMA_KINDS:
            raise ValueError(f"unknown sigma selector kind: {self.kind!r}")
        if self.kind in ("scaled_value", "scaled_norm"):
            object.__setattr__(self, "coefficient", _finite(
                self.coefficient, f"{self.kind} selector requires a positive coefficient",
                positive=True))
        if self.kind == "custom":
            if self.table is None:
                raise ValueError("custom sigma selector requires a table")
            xs, ys = _freeze_table(self.table[0], self.table[1], "sigma")
            # positive definiteness in distance-to-goal: zero exactly at 0,
            # positive at every other knot (interpolation preserves this)
            if xs[0] != 0.0 or ys[0] != 0.0:
                raise ValueError("sigma table must start at (0, 0)")
            if not np.all(ys[1:] > 0.0):
                raise ValueError("sigma table values must be positive away from the goal")
            object.__setattr__(self, "table", (xs, ys))

    @classmethod
    def grad_norm_squared(cls):
        return cls("grad_norm_squared")

    @classmethod
    def scaled_value(cls, coefficient: float):
        return cls("scaled_value", coefficient=coefficient)

    @classmethod
    def scaled_norm(cls, coefficient: float):
        return cls("scaled_norm", coefficient=coefficient)

    @classmethod
    def custom(cls, distances, values):
        return cls("custom", table=(distances, values))

    def packed(self):
        skind = _SIGMA_KINDS[self.kind]
        scoef = self.coefficient if self.coefficient is not None else 1.0
        stx, sty = self.table if self.kind == "custom" else (None, None)
        return skind, scoef, stx, sty


@dataclass(frozen=True)
class GammaSelector:
    """Choice of tightening term Gamma(x) for the barrier condition.

    Kinds: ``zero``, ``scaled_special`` (Gamma = lam |d|^2 + alpha_gain h -
    d.u_nom with lam > 0), and ``custom`` (interpolation over clearance h,
    nonnegative values, clamped at the table ends).
    """

    kind: str
    lam: float | None = None
    table: tuple | None = None

    def __post_init__(self):
        if self.kind not in _GAMMA_KINDS:
            raise ValueError(f"unknown gamma selector kind: {self.kind!r}")
        if self.kind == "scaled_special":
            object.__setattr__(self, "lam", _finite(
                self.lam, "scaled_special selector requires a positive lambda", positive=True))
        if self.kind == "custom":
            if self.table is None:
                raise ValueError("custom gamma selector requires a table")
            xs, ys = _freeze_table(self.table[0], self.table[1], "gamma")
            if xs[0] < 0.0:
                raise ValueError("gamma table knots are clearances and must be >= 0")
            if not np.all(ys >= 0.0):
                raise ValueError("gamma table values must be nonnegative")
            object.__setattr__(self, "table", (xs, ys))

    @classmethod
    def zero(cls):
        return cls("zero")

    @classmethod
    def scaled_special(cls, lam: float):
        return cls("scaled_special", lam=lam)

    @classmethod
    def custom(cls, clearances, values):
        return cls("custom", table=(clearances, values))

    def packed(self):
        gkind = _GAMMA_KINDS[self.kind]
        glam = self.lam if self.lam is not None else 0.0
        gtx, gty = self.table if self.kind == "custom" else (None, None)
        return gkind, glam, gtx, gty


# The unit pair, under which the filtered stabilizer is the combined
# potential-field controller; ``apf`` and ``special_filter`` run its packing.
UNIT_SIGMA = SigmaSelector.grad_norm_squared()
UNIT_GAMMA = GammaSelector.scaled_special(1.0)
UNIT_PACKING = _k.pack_controller(UNIT_SIGMA, UNIT_GAMMA)


@dataclass(frozen=True)
class ClfTerms:
    a: float
    b: np.ndarray
    sigma: float
    a_tilde: float


def sigma_value(x, scenario: Scenario, sel: SigmaSelector) -> float:
    px, py = _as_point(x)
    skind, scoef, stx, sty = sel.packed()
    return float(_k._sigma_value(px, py, float(scenario.goal[0]), float(scenario.goal[1]),
                                 scenario.k_att, skind, scoef, stx, sty))


def clf_terms(x, scenario: Scenario, sel: SigmaSelector) -> ClfTerms:
    """Decrease-condition terms at ``x``: a = 0, b = F_att, tightened a + sigma."""
    from .fields import f_att  # a rollout does not load the field module

    b = f_att(x, scenario)
    sigma = sigma_value(x, scenario, sel)
    a = 0.0
    return ClfTerms(a=a, b=b, sigma=sigma, a_tilde=a + sigma)


def nominal_control(x, scenario: Scenario, sel: SigmaSelector) -> np.ndarray:
    """Min-norm control meeting the tightened decrease condition.

    Solves  min |u|^2  s.t.  sigma + b.u <= 0  in closed form:
    u = -(sigma/|b|^2) b, and u = 0 at the goal where both sides vanish.
    """
    return _k.control(x, scenario, _k.pack_controller(sel, None))[0]


def check_clf_decrease(x, u, scenario: Scenario, sel: SigmaSelector) -> float:
    """Tightened decrease margin  a + sigma + b.u  (nonpositive = satisfied)."""
    terms = clf_terms(x, scenario, sel)
    ux, uy = _as_point(u)
    return terms.a_tilde + float(terms.b[0]) * ux + float(terms.b[1]) * uy
