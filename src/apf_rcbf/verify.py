"""Numerical property suites: equivalence grid, gradient checks, oracle sweep.

Each suite returns a :class:`SuiteResult` whose ``lines`` are fully
deterministic for a given seed (timings are kept out of them on purpose, so
reports are byte-reproducible).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import _kernels as _k
from .clf import UNIT_PACKING
from .scenario import Scenario, rho
from .fields import apf_control, f_att, f_rep, u_att, u_rep

DEFAULT_BOUNDS = ((-3.0, 9.0), (-2.0, 6.0))
EXCLUSION_BAND = 1e-3
# gradient_states draws at most this many candidates for one state
MAX_DRAWS = 10000
EQUIVALENCE_TOL = ORACLE_TOL = 1e-9
GRADIENT_TOL = 1e-5
GRADIENT_STEP = 1e-6  # relative to the length scale of each potential


@dataclass(frozen=True)
class SuiteResult:
    name: str
    lines: tuple
    max_error: float
    passed: bool
    elapsed: float


def grid_states(scenario: Scenario, nx=200, ny=200):
    """Workspace grid over :data:`DEFAULT_BOUNDS` minus the states where the
    compared controllers differ by construction or are undefined.

    Excluded: obstacle interiors, an :data:`EXCLUSION_BAND` around each
    obstacle surface and influence boundary (the repulsive branch switches
    there), and that ball around the goal (a removable singularity).
    """
    gx = np.linspace(DEFAULT_BOUNDS[0][0], DEFAULT_BOUNDS[0][1], nx)
    gy = np.linspace(DEFAULT_BOUNDS[1][0], DEFAULT_BOUNDS[1][1], ny)
    xx, yy = np.meshgrid(gx, gy)
    xs = xx.ravel()
    ys = yy.ravel()
    keep = np.ones(xs.shape[0], dtype=bool)
    for obs in scenario.obstacles:
        rho = np.sqrt((xs - obs.center[0]) ** 2 + (ys - obs.center[1]) ** 2) - obs.radius
        keep &= rho > EXCLUSION_BAND
        keep &= np.abs(rho - obs.influence_margin) > EXCLUSION_BAND
    dg = np.sqrt((xs - scenario.goal[0]) ** 2 + (ys - scenario.goal[1]) ** 2)
    keep &= dg > EXCLUSION_BAND
    return np.ascontiguousarray(xs[keep]), np.ascontiguousarray(ys[keep])


def equivalence_suite(scenario: Scenario, nx=200, ny=200) -> SuiteResult:
    """Max pointwise gap between the potential-field controller and the
    filtered stabilizer with the unit pair, over the masked workspace grid.

    The potential-field control comes from the field formulas
    (:func:`apf_control`), the filter from the controller kernel.  The fixed
    equivalence filter and the generalized controller with the unit
    scaled-special tightening are the same packing, ``UNIT_PACKING``, so the
    kernel runs once and its gap is reported on both of their lines.
    ``ValueError`` where the grid keeps no state, as where the obstacles
    cover :data:`DEFAULT_BOUNDS`: a gap over no state would pass vacuously.
    """
    t0 = time.perf_counter()
    (x_lo, x_hi), (y_lo, y_hi) = DEFAULT_BOUNDS
    xs, ys = grid_states(scenario, nx=nx, ny=ny)
    if not xs.size:
        raise ValueError(
            f"no grid state kept: every state of the {nx}x{ny} grid lies inside an obstacle "
            f"or within {EXCLUSION_BAND:g} of a surface, an influence boundary or the goal")
    u_apf = np.array([apf_control(x, scenario) for x in np.column_stack([xs, ys])])
    aux, auy = u_apf.reshape(-1, 2).T
    ux, uy = _k._eval_controls(xs, ys, _k.pack_model(scenario, UNIT_PACKING))
    max_error = float(np.max(np.hypot(aux - ux, auy - uy), initial=0.0))
    elapsed = time.perf_counter() - t0
    passed = max_error <= EQUIVALENCE_TOL
    lines = (
        f"[equivalence] grid {nx}x{ny} on "
        f"[{x_lo:g},{x_hi:g}]x[{y_lo:g},{y_hi:g}], "
        f"{xs.shape[0]} states kept",
        f"[equivalence] max |u_apf - u_special|     = {max_error:.6e} "
        f"(tol {EQUIVALENCE_TOL:.1e})",
        f"[equivalence] max |u_apf - u_generalized| = {max_error:.6e} "
        f"(tol {EQUIVALENCE_TOL:.1e})",
        f"[equivalence] {'PASS' if passed else 'FAIL'}",
    )
    return SuiteResult("equivalence", lines, max_error, passed, elapsed)


def _central_fd(func, x, scales):
    """Central difference with explicit per-coordinate steps ``scales``.

    The step must track the length scale the function actually varies on: the
    attractive potential varies on the coordinate scale, but the repulsive
    potential varies on the clearance scale, and stepping it by coordinate
    magnitude at small clearance makes the truncation term (~2 delta^2/rho^2)
    swamp the comparison.
    """
    fd = np.empty(2)
    for j in range(2):
        delta = scales[j]
        hi = x.copy()
        lo = x.copy()
        hi[j] += delta
        lo[j] -= delta
        fd[j] = (func(hi) - func(lo)) / (2.0 * delta)
    return fd


def gradient_states(scenario: Scenario, n, rng, bounds=DEFAULT_BOUNDS):
    """Random states with every clearance at least :data:`EXCLUSION_BAND`
    away from both 0 and the influence margin; half are drawn inside the
    influence shells where the repulsive field is live, from each shell
    wider than twice the band in turn (the others hold no such state).
    ``ValueError`` once :data:`MAX_DRAWS` candidates in a row are refused,
    as where the obstacles cover ``bounds``."""
    states = np.empty((n, 2))
    obstacles = scenario.obstacles
    shells = [obs for obs in obstacles if obs.influence_margin > 2.0 * EXCLUSION_BAND]
    for count in range(n):
        for _ in range(MAX_DRAWS):
            if shells and count % 2 == 0:
                obs = shells[(count // 2) % len(shells)]
                theta = rng.uniform(0.0, 2.0 * np.pi)
                r = obs.radius + rng.uniform(EXCLUSION_BAND,
                                             obs.influence_margin - EXCLUSION_BAND)
                cand = np.array([obs.center[0] + r * np.cos(theta),
                                 obs.center[1] + r * np.sin(theta)])
            else:
                cand = np.array([rng.uniform(*bounds[0]), rng.uniform(*bounds[1])])
            if all(_clear_of_bands(cand, obs) for obs in obstacles):
                break
        else:
            raise ValueError(
                f"no gradient state found: {MAX_DRAWS} random states in a row lay inside "
                f"an obstacle or within {EXCLUSION_BAND:g} of a surface or an influence "
                "boundary")
        states[count] = cand
    return states


def _clear_of_bands(x, obs):
    """Whether the clearance of ``x`` from ``obs`` is at least
    :data:`EXCLUSION_BAND` away from both 0 and the influence margin."""
    rho = np.hypot(x[0] - obs.center[0], x[1] - obs.center[1]) - obs.radius
    return not (rho < EXCLUSION_BAND or abs(rho - obs.influence_margin) < EXCLUSION_BAND)


def gradient_suite(scenario: Scenario, n=10000, seed=0) -> SuiteResult:
    """Central finite differences of the potentials against their analytic
    gradients; error is measured relative to max(1, |gradient|)."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    states = gradient_states(scenario, n, rng)
    max_att = 0.0
    max_rep = 0.0
    for x in states:
        coord_scales = (GRADIENT_STEP * (1.0 + abs(float(x[0]))),
                        GRADIENT_STEP * (1.0 + abs(float(x[1]))))
        fd = _central_fd(lambda p: u_att(p, scenario), x, coord_scales)
        grad = f_att(x, scenario)
        err = float(np.linalg.norm(fd - grad)) / max(1.0, float(np.linalg.norm(grad)))
        if err > max_att:
            max_att = err
        for obs in scenario.obstacles:
            clearance = rho(x, obs)
            rep_scales = (GRADIENT_STEP * clearance, GRADIENT_STEP * clearance)
            fd = _central_fd(lambda p: u_rep(p, obs, scenario), x, rep_scales)
            grad = f_rep(x, obs, scenario)
            err = float(np.linalg.norm(fd - grad)) / max(1.0, float(np.linalg.norm(grad)))
            if err > max_rep:
                max_rep = err
    elapsed = time.perf_counter() - t0
    max_error = max(max_att, max_rep)
    passed = max_error <= GRADIENT_TOL
    lines = (
        f"[gradients] {n} states, seed {seed}, central differences "
        f"(step {GRADIENT_STEP:.0e} scaled)",
        f"[gradients] max rel error attractive = {max_att:.6e} (tol {GRADIENT_TOL:.1e})",
        f"[gradients] max rel error repulsive  = {max_rep:.6e} (tol {GRADIENT_TOL:.1e})",
        f"[gradients] {'PASS' if passed else 'FAIL'}",
    )
    return SuiteResult("gradients", lines, max_error, passed, elapsed)


def oracle_suite(n=100000, seed=0) -> SuiteResult:
    """Closed-form filter against the enumeration QP on random
    single-constraint projections.  The filter under test runs one instance
    at a time; the QP solves them all as one stack
    (:func:`solve_projection_many`, bitwise :func:`solve_projection`).
    The QP and the filter are imported here, their only user in this module,
    so importing ``verify`` (as ``apf-rcbf verify`` does for its other
    suites) loads neither."""
    from .qp import solve_projection_many
    from .rcbf import RcbfTerms, safety_filter

    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    u_noms = rng.normal(0.0, 2.0, size=(n, 2))
    offsets = rng.uniform(-2.0, 2.0, size=n)
    normals = rng.normal(0.0, 1.0, size=(n, 2))
    u_closed = np.empty((n, 2))
    for i in range(n):
        offset = float(offsets[i])
        terms = RcbfTerms(B=0.0, h=0.0, c=offset, d=normals[i], gamma=0.0,
                          c_tilde=offset)
        u_closed[i], _ = safety_filter(u_noms[i], terms)
    u_star = solve_projection_many(u_noms, offsets[:, None], normals[:, None, :])[0]
    errs = np.max(np.abs(u_closed - u_star), axis=1, initial=0.0) if n else np.zeros(0)
    # the largest error, a NaN one counting as none
    max_error = float(np.max(errs, where=~np.isnan(errs), initial=0.0))
    elapsed = time.perf_counter() - t0
    passed = max_error <= ORACLE_TOL
    lines = (
        f"[oracle] {n} random single-constraint projections, seed {seed}",
        f"[oracle] max |u_closed_form - u_qp| = {max_error:.6e} (tol {ORACLE_TOL:.1e})",
        f"[oracle] {'PASS' if passed else 'FAIL'}",
    )
    return SuiteResult("oracle", lines, max_error, passed, elapsed)


# name -> the suite run on (scenario, seed), in the order ``all`` runs them
_SUITES = {"equivalence": lambda scenario, seed: equivalence_suite(scenario),
           "gradients": lambda scenario, seed: gradient_suite(scenario, seed=seed),
           "oracle": lambda scenario, seed: oracle_suite(seed=seed)}
SUITE_NAMES = tuple(_SUITES)


def run_suites(scenario: Scenario, names, seed=0):
    """The suites ``names``, in order; every name is checked before any runs."""
    names = tuple(names)
    for name in names:
        if name not in _SUITES:
            raise ValueError(f"unknown suite: {name!r}")
    return [_SUITES[name](scenario, seed) for name in names]
