"""Workspace description: goal, circular obstacles, gains, and validation.

A scenario is a goal position plus a list of circular obstacles, each with a
radius and an influence margin (the shell around the obstacle inside which
the repulsive field is nonzero), together with the attractive/repulsive gains
and the linear class-K gain used by the barrier condition.

Constructors only coerce types and reject non-finite numbers; the semantic
invariants (positive gains and radii, goal outside every influence region)
are checked by :func:`validate_scenario`, which reports *all* violations at
once.  This split lets property tests build deliberately broken scenarios and
assert on the report.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ScenarioValidationError

BOUNDARY_TOL = 1e-9


def _ceil_log2(v: float) -> int:
    """ceil(log2(|v|)) for a nonzero float ``v``, exactly."""
    mant, exp = math.frexp(abs(v))  # |v| in [2**(exp - 1), 2**exp)
    return exp - 1 if mant == 0.5 else exp


def min_radius(k_rep: float) -> float:
    """Smallest obstacle radius at which the kernels' repulsive terms stay
    finite under the repulsive gain ``k_rep > 0``.

    Outside an obstacle of radius r in [2**e, 2**(e + 1)) a computed
    clearance rho = dist - r is either 0 or at least ulp(r) = 2**(e - 52),
    because dist > r is a float at least one ulp above r.  The repulsive
    gradient F_rep has magnitude up to k_rep / rho**3, and the filter divides
    by its square |F_rep|**2 = dx*dx + dy*dy.  That square stays below
    2**1022, short of overflow, when k_rep / ulp(r)**3 <= 2**511; the floor is
    the smallest power of two 2**e meeting this, 2**-118 (about 3.0e-36) for
    k_rep = 1, growing as k_rep**(1/3).  It lies far above the radius below
    which rho * rho underflows to 0.0 (about 1e-146 for any gain).

    Above the floor two products can still overflow: lam * |F_rep|**2, the
    scaled-special margin, at large lam (bounded by :func:`max_lambda`), and
    F_rep . u_nom at extreme coordinates or gains.
    """
    ulp_exp = -((511 - _ceil_log2(k_rep)) // 3)  # ceil((ceil_log2 - 511) / 3)
    return math.ldexp(1.0, ulp_exp + 52)


def max_lambda(k_rep: float, radius: float) -> float:
    """Largest scaled-special ``lam`` for which the margin lam * |F_rep|**2
    stays finite outside an obstacle of ``radius`` under the gain ``k_rep``.

    As in :func:`min_radius`, a positive computed clearance is at least
    ulp(radius) = 2**u, so |F_rep| < k_rep / rho**3 <= 2**(K - 3u) with
    K = ceil(log2(k_rep)), and |F_rep|**2 < 2**(2K - 6u).  A lam of at most
    2**(1022 - 2K + 6u) keeps lam * |F_rep|**2 below 2**1022, the two bits
    short of overflow (2**1024) that min_radius leaves for the rounding of
    the computed square.  The bound is that power of two, +inf past the
    float range.  At the radius floor it is at least 1 (4.0 for k_rep = 1,
    where lam = 16 overflows one ulp outside the obstacle); a radius of 0.5
    with k_rep = 1 allows lam up to 2**704.
    """
    ulp_exp = math.frexp(math.ulp(radius))[1] - 1
    exp = 1022 - 2 * _ceil_log2(k_rep) + 6 * ulp_exp
    return math.ldexp(1.0, exp) if exp < 1024 else math.inf


_SCENARIO_KEYS = {"goal", "obstacles", "k_att", "k_rep", "alpha_gain"}
_OBSTACLE_KEYS = {"center", "radius", "rho0"}


def refuse_booleans(doc, name: str) -> None:
    """Raise ``ConfigError`` naming a ``true`` or ``false`` in the JSON
    document ``doc`` called ``name``: no scenario or run config field is a
    boolean, and ``float`` would read one as 1.0 or 0.0."""
    stack = [(doc, name)]
    while stack:
        value, where = stack.pop()
        if isinstance(value, bool):
            raise ConfigError(f"{where} must not be a boolean, got {json.dumps(value)}")
        if isinstance(value, (dict, list)):
            pairs = value.items() if isinstance(value, dict) else enumerate(value)
            stack += [(v, f"{where}[{k!r}]") for k, v in pairs]


# The readers of every value from outside the package: each refusal is a
# ValueError whose message is the reader's ``refusal`` and what was given.
# Each reads through :func:`_as_array`, the one rule for what is a number.

def _as_array(value, refusal: str) -> np.ndarray:
    """``value`` as numpy reads it, as a float64 array (``value`` itself
    where it is one), finite or not: booleans, integers, reals, and object
    arrays of values that convert to floats.  Refused is text, which
    ``float`` and numpy would parse: what numpy reads as strings, a
    bytearray, which it reads as uint8, and an object array holding a str or
    bytes; also None, which numpy reads as NaN, and complex numbers."""
    try:
        arr = np.asarray(value)
        kind = arr.dtype.kind
        if (kind in "fib" or kind == "u" and not isinstance(value, bytearray)
                or kind == "O" and not any(v is None or isinstance(v, (str, bytes, bytearray))
                                           for v in arr.flat)):
            return arr.astype(float, copy=False)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValueError(f"{refusal}, got {value!r}")


def _as_number(value, refusal: str) -> float:
    """``value`` as a float, finite or not."""
    arr = _as_array(value, refusal)
    if arr.ndim:
        raise ValueError(f"{refusal}, got {value!r}")
    return float(arr)


def _finite(value, refusal: str, positive: bool = False) -> float:
    """``value`` as a finite float, a positive one if ``positive``."""
    out = _as_number(value, refusal)
    if not math.isfinite(out) or (positive and not out > 0.0):
        raise ValueError(f"{refusal}, got {out!r}")
    return out


def _finite_array(value, refusal: str, shape=None) -> np.ndarray:
    """``value`` as a new read-only float64 array of finite entries, of
    ``shape`` if one is given."""
    arr = np.array(_as_array(value, refusal))
    if (shape is not None and arr.shape != shape) or not np.all(np.isfinite(arr)):
        raise ValueError(f"{refusal}, got {arr!r}")
    arr.setflags(write=False)
    return arr


def _vec2(value, name: str) -> np.ndarray:
    return _finite_array(value, f"{name} must be a finite 2-vector", (2,))


def _as_point(x) -> list:
    """``x`` as a list of two floats, finite or not; ``ValueError`` unless
    it is a 2-vector of numbers.  Every public state or control argument of
    the package is read through here."""
    arr = _as_array(x, "expected a 2-vector of numbers")
    if arr.shape != (2,):
        raise ValueError(f"expected a 2-vector, got shape {arr.shape}")
    return arr.tolist()


@dataclass(frozen=True)
class Obstacle:
    """Circular obstacle with an influence shell of width ``influence_margin``."""

    center: np.ndarray
    radius: float
    influence_margin: float

    def __post_init__(self):
        object.__setattr__(self, "center", _vec2(self.center, "obstacle center"))
        for attr in ("radius", "influence_margin"):
            object.__setattr__(self, attr, _finite(
                getattr(self, attr), f"{attr} must be a finite number"))

    @property
    def rho0(self) -> float:
        return self.influence_margin


@dataclass(frozen=True)
class Scenario:
    goal: np.ndarray
    obstacles: tuple = ()
    k_att: float = 1.0
    k_rep: float = 1.0
    alpha_gain: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "goal", _vec2(self.goal, "goal"))
        object.__setattr__(self, "obstacles", tuple(self.obstacles))
        for i, obs in enumerate(self.obstacles):
            if not isinstance(obs, Obstacle):
                raise ValueError(f"obstacle {i} must be an Obstacle, got {obs!r}")
        for gain in ("k_att", "k_rep", "alpha_gain"):
            object.__setattr__(self, gain, _finite(
                getattr(self, gain), f"{gain} must be a finite number"))

    def packed(self):
        """New read-only float64 arrays: centers (m, 2), radii (m,), rho0s (m,)."""
        m = len(self.obstacles)
        centers = np.empty((m, 2), dtype=np.float64)
        radii = np.empty(m, dtype=np.float64)
        rho0s = np.empty(m, dtype=np.float64)
        for i, obs in enumerate(self.obstacles):
            centers[i] = obs.center
            radii[i] = obs.radius
            rho0s[i] = obs.influence_margin
        for arr in (centers, radii, rho0s):
            arr.setflags(write=False)
        return centers, radii, rho0s


@dataclass(frozen=True)
class SafeSetSample:
    """Signed clearance at a point, with interior/boundary classification."""

    h: float
    in_interior: bool = field(init=False)
    on_boundary: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "h", _as_number(self.h, "h must be a number"))
        object.__setattr__(self, "in_interior", self.h > 0.0)
        object.__setattr__(self, "on_boundary", abs(self.h) <= BOUNDARY_TOL)


def _clearance(px, py, obs: Obstacle) -> float:
    """:func:`rho` at the point ``(px, py)``."""
    cx, cy = obs.center.tolist()
    ox = px - cx
    oy = py - cy
    return math.sqrt(ox * ox + oy * oy) - obs.radius


def rho(x, obs: Obstacle) -> float:
    """Signed distance from ``x`` to the obstacle surface (negative inside)."""
    return _clearance(*_as_point(x), obs)


def _min_clearance(px, py, obstacles) -> float:
    """Smallest :func:`rho` of ``obstacles`` at the point ``(px, py)``: +inf
    when there are none, and NaN, as :func:`rho` gives, when a coordinate is
    NaN.  An infinite coordinate gives +inf."""
    if math.isnan(px) or math.isnan(py):
        return math.nan
    h = math.inf
    for obs in obstacles:
        c = _clearance(px, py, obs)
        if c < h:
            h = c
    return h


def classify_safety(x, scenario: Scenario) -> SafeSetSample:
    """Minimum clearance over all obstacles (+inf when there are none, NaN
    at a NaN coordinate, which is neither interior nor on the boundary)."""
    return SafeSetSample(_min_clearance(*_as_point(x), scenario.obstacles))


def scenario_violations(scenario: Scenario) -> list:
    violations = []
    if scenario.k_att <= 0.0:
        violations.append("k_att must be positive")
    if scenario.k_rep <= 0.0:
        violations.append("k_rep must be positive")
    if scenario.alpha_gain <= 0.0:
        violations.append("alpha_gain must be positive")
    floor = min_radius(scenario.k_rep) if scenario.k_rep > 0.0 else 0.0
    for i, obs in enumerate(scenario.obstacles):
        if obs.radius <= 0.0:
            violations.append(f"obstacle {i}: radius must be positive")
        elif obs.radius < floor:
            violations.append(f"obstacle {i}: radius below {floor:.3g}, where |F_rep|^2 "
                              "can overflow at the smallest clearance")
        if obs.influence_margin <= 0.0:
            violations.append(f"obstacle {i}: influence_margin must be positive")
    for i, obs in enumerate(scenario.obstacles):
        if obs.radius > 0.0 and obs.influence_margin > 0.0:
            if rho(scenario.goal, obs) < obs.influence_margin:
                violations.append(f"goal inside influence region (obstacle {i})")
    return violations


def validate_scenario(scenario: Scenario) -> Scenario:
    """Return the scenario unchanged, or raise listing every violated invariant."""
    violations = scenario_violations(scenario)
    if violations:
        raise ScenarioValidationError(violations)
    return scenario


def scenario_from_dict(data: dict) -> Scenario:
    if not isinstance(data, dict):
        raise ValueError("scenario document must be a JSON object")
    refuse_booleans(data, "scenario")
    unknown = set(data) - _SCENARIO_KEYS
    if unknown:
        raise ValueError(f"unknown scenario key(s): {sorted(unknown)}")
    missing = _SCENARIO_KEYS - set(data)
    if missing:
        raise ValueError(f"missing scenario key(s): {sorted(missing)}")
    if not isinstance(data["obstacles"], list):
        raise ValueError(f"obstacles must be an array, got {data['obstacles']!r}")
    obstacles = []
    for i, entry in enumerate(data["obstacles"]):
        if not isinstance(entry, dict):
            raise ValueError(f"obstacle {i} must be an object")
        unknown = set(entry) - _OBSTACLE_KEYS
        if unknown:
            raise ValueError(f"obstacle {i}: unknown key(s): {sorted(unknown)}")
        missing = _OBSTACLE_KEYS - set(entry)
        if missing:
            raise ValueError(f"obstacle {i}: missing key(s): {sorted(missing)}")
        obstacles.append(Obstacle(entry["center"], entry["radius"], entry["rho0"]))
    scenario = Scenario(
        goal=data["goal"],
        obstacles=tuple(obstacles),
        k_att=data["k_att"],
        k_rep=data["k_rep"],
        alpha_gain=data["alpha_gain"],
    )
    return validate_scenario(scenario)


def scenario_to_dict(scenario: Scenario) -> dict:
    return {
        "goal": scenario.goal.tolist(),
        "obstacles": [
            {"center": obs.center.tolist(), "radius": obs.radius, "rho0": obs.influence_margin}
            for obs in scenario.obstacles
        ],
        "k_att": scenario.k_att,
        "k_rep": scenario.k_rep,
        "alpha_gain": scenario.alpha_gain,
    }


def load_scenario(path) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return scenario_from_dict(data)


def save_scenario(scenario: Scenario, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scenario_to_dict(scenario), fh, indent=2)
        fh.write("\n")
