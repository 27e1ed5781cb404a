"""Closed-loop rollout of the single integrator and trajectory bookkeeping.

The plant is  xdot = u  with u produced by one of four controller kinds:

* ``apf``            — gradient descent on the combined potential
* ``nominal_only``   — the min-norm stabilizer, obstacles ignored
* ``special_filter`` — the stabilizer filtered with the unit scaled-special
  tightening (pointwise equal to ``apf``)
* ``generalized``    — the stabilizer filtered with selectable tightenings

Samples are recorded before each step: time, state, the control applied at
that state, the minimum clearance, the attractive potential value, and one
constraint margin per obstacle.  A run ends by reaching the goal ball, by
exhausting the horizon, or with ``domain_error`` the moment the state (or an
RK4 stage state) touches an obstacle, where the repulsive terms stop being
defined, or the control at a sample is not finite; samples up to the last
valid state are kept.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels as _k
from .clf import UNIT_PACKING, GammaSelector, SigmaSelector
from .scenario import Scenario, _as_number, _finite, _min_clearance, _vec2, validate_scenario

logger = logging.getLogger(__name__)

CONTROLLER_KINDS = ("apf", "nominal_only", "special_filter", "generalized")
# Runge--Kutta stage tables: Euler has no stage after the first
INTEGRATORS = {"euler": (), "rk4": _k.RK4_STAGES}
TERMINAL_NAMES = {_k.REACHED_GOAL: "reached_goal",
                  _k.TIMEOUT: "timeout",
                  _k.DOMAIN_ERROR: "domain_error"}

CSV_BASE_COLUMNS = ("t", "x", "y", "ux", "uy", "h_min", "V")

# Most floats one run may preallocate for its record, (t_max/dt + 1) rows of
# 7 + m columns: 2**25 floats, 256 MiB, ~3.4 million rows with three
# obstacles.  The bundled configs record at most 10,001 rows of 10 floats.
MAX_RECORD_FLOATS = 2 ** 25

# write_trajectory_csv formats this many rows per block
CSV_BLOCK_ROWS = 1024


@dataclass(frozen=True)
class ControllerSpec:
    """Which controller to run, with its tightening selectors where required."""

    kind: str
    sigma_sel: SigmaSelector | None = None
    gamma_sel: GammaSelector | None = None

    def __post_init__(self):
        if self.kind not in CONTROLLER_KINDS:
            raise ValueError(f"unknown controller kind: {self.kind!r}")
        if self.kind in ("nominal_only", "generalized") and self.sigma_sel is None:
            raise ValueError(f"{self.kind} controller requires sigma_sel")
        if self.kind == "generalized" and self.gamma_sel is None:
            raise ValueError("generalized controller requires gamma_sel")
        if self.kind == "nominal_only" and self.gamma_sel is not None:
            raise ValueError("nominal_only controller takes no gamma_sel")
        if self.kind in ("apf", "special_filter"):
            if self.sigma_sel is not None or self.gamma_sel is not None:
                raise ValueError(f"{self.kind} controller takes no selectors")
        self.packing()  # a selector of the wrong class is refused here

    def packing(self):
        """Kernel packing tuple; ``apf`` and ``special_filter`` are the unit pair."""
        if self.kind in ("apf", "special_filter"):
            return UNIT_PACKING
        return _k.pack_controller(self.sigma_sel, self.gamma_sel)


@dataclass(frozen=True)
class SimConfig:
    dt: float = 0.01
    t_max: float = 40.0
    goal_tolerance: float = 0.05
    integrator: str = "rk4"

    def __post_init__(self):
        dt = _finite(self.dt, "dt must lie in (0, 0.05]", positive=True)
        if not dt <= 0.05:
            raise ValueError(f"dt must lie in (0, 0.05], got {dt!r}")
        # an infinite t_max is read; simulate refuses it by record size
        t_max = _as_number(self.t_max, "t_max must be positive")
        if not t_max > 0.0:
            raise ValueError(f"t_max must be positive, got {t_max!r}")
        object.__setattr__(self, "dt", dt)
        object.__setattr__(self, "t_max", t_max)
        object.__setattr__(self, "goal_tolerance", _finite(
            self.goal_tolerance, "goal_tolerance must be positive and finite", positive=True))
        if not isinstance(self.integrator, str) or self.integrator not in INTEGRATORS:
            raise ValueError(f"integrator must be one of {sorted(INTEGRATORS)}, "
                             f"got {self.integrator!r}")


@dataclass(frozen=True)
class Trajectory:
    """Column-wise sample record of one run plus its terminal status."""

    t: np.ndarray
    x: np.ndarray
    u: np.ndarray
    h_min: np.ndarray
    V: np.ndarray
    phi: np.ndarray
    terminal: str

    def __post_init__(self):
        if self.terminal not in TERMINAL_NAMES.values():
            raise ValueError(f"unknown terminal status: {self.terminal!r}")

    @property
    def n_samples(self) -> int:
        return self.t.shape[0]


@dataclass(frozen=True)
class TrajectoryMetrics:
    path_length: float
    min_clearance: float
    time_to_goal: float | None
    oscillation: float


def _columns(rec, lo, hi):
    """An owned, C-contiguous copy of columns ``lo .. hi - 1`` of ``rec``,
    one column at a time: numpy copies a column of a row-major record as one
    strided run, and a block of columns a few elements per row."""
    out = np.empty((rec.shape[0], hi - lo))
    for j in range(lo, hi):
        out[:, j - lo] = rec[:, j]
    return out


def _trajectory(rec, terminal: str) -> Trajectory:
    """Read-only column copies of ``rec``, whose rows are the CSV rows."""
    cols = [rec[:, 0].copy(), _columns(rec, 1, 3), _columns(rec, 3, 5), rec[:, 5].copy(),
            rec[:, 6].copy(), _columns(rec, 7, rec.shape[1])]
    for arr in cols:
        arr.setflags(write=False)
    return Trajectory(*cols, terminal=terminal)


def simulate(scenario: Scenario, ctrl: ControllerSpec, cfg: SimConfig, x0) -> Trajectory:
    """Roll out the closed loop from ``x0`` until goal, timeout, or crash."""
    validate_scenario(scenario)
    model = _k.pack_model(scenario, ctrl.packing())
    px, py = _vec2(x0, "x0").tolist()
    h0 = _min_clearance(px, py, scenario.obstacles)
    if not h0 > 0.0:
        raise ValueError(
            f"x0 must lie strictly outside every obstacle (clearance {h0:.6g})")
    if scenario.obstacles:
        r_min = min(obs.radius for obs in scenario.obstacles)
        if not cfg.goal_tolerance < r_min:
            raise ValueError(
                f"goal_tolerance ({cfg.goal_tolerance}) must be smaller than the "
                f"smallest obstacle radius ({r_min})")

    m = len(scenario.obstacles)
    steps = cfg.t_max / cfg.dt
    if (steps + 1.0) * (7 + m) > MAX_RECORD_FLOATS:
        raise ValueError(
            f"t_max / dt = {steps:.6g} steps would record more than "
            f"{MAX_RECORD_FLOATS} floats ({7 + m} per sample); shorten t_max or "
            "raise dt")
    n_max = int(round(steps))
    rec = np.empty((n_max + 1, 7 + m))

    n, status, ming, negcount = _k._integrate(
        px, py, model, cfg.dt, n_max, cfg.goal_tolerance, INTEGRATORS[cfg.integrator], rec)
    if negcount and ctrl.kind in ("special_filter", "generalized"):
        # The pure potential-field packing shares the kernel but advertises no
        # tightening, so the certificate diagnostic would only confuse there.
        logger.warning(
            "tightening term evaluated negative at %d control evaluations "
            "(min %.3e) during the %s run; the filter corrections are unaffected",
            negcount, ming, ctrl.kind)
    return _trajectory(rec[:n], TERMINAL_NAMES[status])


def metrics(tr: Trajectory) -> TrajectoryMetrics:
    """Path length, worst clearance, arrival time, and total heading change.

    Oscillation sums absolute heading changes between consecutive displacement
    segments longer than 1e-12 (so a stationary tail contributes nothing);
    each change is wrapped to (-pi, pi].
    """
    dx = np.diff(tr.x, axis=0)
    seg_len = np.sqrt(dx[:, 0] ** 2 + dx[:, 1] ** 2)
    path_length = float(np.sum(seg_len))
    min_clearance = float(np.min(tr.h_min)) if tr.n_samples else math.inf
    time_to_goal = float(tr.t[-1]) if (tr.terminal == "reached_goal" and tr.n_samples) else None

    moving = seg_len > 1e-12
    headings = np.arctan2(dx[moving, 1], dx[moving, 0])
    if headings.size >= 2:
        dtheta = np.diff(headings)
        dtheta = np.mod(dtheta + np.pi, 2.0 * np.pi) - np.pi
        oscillation = float(np.sum(np.abs(dtheta)))
    else:
        oscillation = 0.0
    return TrajectoryMetrics(path_length=path_length, min_clearance=min_clearance,
                             time_to_goal=time_to_goal, oscillation=oscillation)


def csv_header(n_obstacles: int) -> str:
    return ",".join(CSV_BASE_COLUMNS + tuple(f"phi_{i + 1}" for i in range(n_obstacles)))


def write_trajectory_csv(tr: Trajectory, path) -> None:
    """Plain CSV, one row per sample, '.' decimal separator, %.17g floats.

    Rows are formatted :data:`CSV_BLOCK_ROWS` at a time, so the Python floats
    in memory at once are one block's, whatever the length of the record."""
    # '%.17g' % v is f'{v:.17g}' byte for byte, and one format per block of
    # rows is cheaper than one per row
    line = ",".join(["%.17g"] * (7 + tr.phi.shape[1])) + "\n"
    n = tr.n_samples
    if any(col.shape[0] != n for col in (tr.x, tr.u, tr.h_min, tr.V, tr.phi)):
        raise ValueError("trajectory columns differ in length")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(csv_header(tr.phi.shape[1]) + "\n")
        for lo in range(0, n, CSV_BLOCK_ROWS):
            hi = min(lo + CSV_BLOCK_ROWS, n)
            rows = np.column_stack([tr.t[lo:hi], tr.x[lo:hi], tr.u[lo:hi], tr.h_min[lo:hi],
                                    tr.V[lo:hi], tr.phi[lo:hi]])
            fh.write(line * (hi - lo) % tuple(rows.ravel().tolist()))


def read_trajectory_csv(path, terminal: str) -> Trajectory:
    """Load a trajectory CSV written by :func:`write_trajectory_csv`.

    The CSV stores samples only, so the terminal status must be supplied.
    ``ValueError`` unless the header is :func:`csv_header` of some m and
    every row holds its 7 + m values.
    """
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        m = header.count(",") - 6
        if header != csv_header(m):
            raise ValueError(f"unexpected trajectory CSV header: {header!r}")
        # a run without a sample writes the header alone, and loadtxt warns
        # on an empty body, so an empty body is not handed to it
        body = fh.tell()
        if not fh.read(1):
            return _trajectory(np.empty((0, 7 + m)), terminal)
        fh.seek(body)
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.shape[1] != 7 + m:
        raise ValueError(f"unexpected trajectory CSV rows of {data.shape[1]} values "
                         f"under the header {header!r}")
    return _trajectory(data, terminal)
