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

# Per selector kind: its kernel code and the field it takes, if any.
_SIGMA_KINDS = {"grad_norm_squared": (0, None), "scaled_value": (1, "coefficient"),
                "scaled_norm": (2, "coefficient"), "custom": (3, "table")}
_GAMMA_KINDS = {"zero": (0, None), "scaled_special": (1, "lam"), "custom": (2, "table")}

# The default of a selector's parameter and table: not given.  A given None
# is a value, refused by a kind that takes no such field, so that a JSON key
# set to null is not read as a missing one.
NOT_GIVEN = object()


def _takes(sel, name: str, kinds: dict, param: str, label: str):
    """The field that ``sel``'s kind takes, per ``kinds``: its ``param``
    (called ``label`` in messages), ``"table"`` or None.  ``ValueError`` for
    a kind not in ``kinds``, and for a ``param`` or table given to a kind
    that does not take it, None included; a field not given becomes None."""
    if not isinstance(sel.kind, str) or sel.kind not in kinds:
        raise ValueError(f"unknown {name} selector kind: {sel.kind!r}")
    takes = kinds[sel.kind][1]
    for attr, what in ((param, label), ("table", "table")):
        value = getattr(sel, attr)
        if value is NOT_GIVEN:
            object.__setattr__(sel, attr, None)
        elif attr != takes:
            raise ValueError(f"{name} selector {sel.kind!r} takes no {what}, got {value!r}")
    return takes


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
    coefficient: float | None = NOT_GIVEN
    table: tuple | None = NOT_GIVEN

    def __post_init__(self):
        takes = _takes(self, "sigma", _SIGMA_KINDS, "coefficient", "coefficient")
        if takes == "coefficient":
            object.__setattr__(self, "coefficient", _finite(
                self.coefficient, f"{self.kind} sigma selector requires a positive coefficient",
                positive=True))
        if takes == "table":
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
        skind = _SIGMA_KINDS[self.kind][0]
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
    lam: float | None = NOT_GIVEN
    table: tuple | None = NOT_GIVEN

    def __post_init__(self):
        takes = _takes(self, "gamma", _GAMMA_KINDS, "lam", "lambda")
        if takes == "lam":
            object.__setattr__(self, "lam", _finite(
                self.lam, "scaled_special gamma selector requires a positive lambda",
                positive=True))
        if takes == "table":
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
        gkind = _GAMMA_KINDS[self.kind][0]
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
