"""Host speed reference, so end-to-end times track the program, not the host.

On a shared machine the same code runs up to 2x slower for stretches of
seconds to minutes, so raw wall times of two runs differ by more than any
useful regression bound.  Each run therefore also times a fixed reference
between its operations and reports its times scaled to the reference speed:

    reported = measured * unit / reference time

where the reference time of an operation is the mean of the samples taken
just before and just after it, and that of a per-run figure (unit costs) is
the median of the run's samples.

There are two references, one for each kind of operation:

- in-process work (the sweeps, the traced loops, the per-module probes) is
  scaled by ``reference_s``, six reference rollouts in the measuring process,
  in units of ``REFERENCE_S``;
- work in a fresh interpreter (a CLI child, a set-up child) is scaled by
  ``child_reference_s``, a fresh interpreter that imports numpy and runs
  three reference rollouts, each followed by a ``%.17g`` text write, in
  units of ``REFERENCE_CHILD_S``.  Interpreter start and imports do not
  slow down in the host's slow phases as much as a rollout does, so a
  rollout alone over-corrects the times of fresh interpreters.

The reference is the kind of work the package's hot path does, written here
once and never changed: an RK4 rollout of the potential-field controller on
the fig2 arena in scalar Python, reading obstacle data from and writing
samples to numpy arrays.  It uses no package code, so a change to the
package cannot move it.  It is a rollout, not a synthetic loop of arithmetic,
numpy element access and formatting, because such a loop has slow phases of
its own that the package's code does not share.
"""

from __future__ import annotations

import math
import subprocess
import sys
import time

import numpy as np

# Median reference time on the 2-vCPU VM the benchmark was defined on
# (Python 3.11, numpy 2.4) in its fast phases.  It only sets the unit, so that
# reported times read close to real seconds there.
REFERENCE_S = 0.0045
# Likewise for the reference child, spawn to exit.
REFERENCE_CHILD_S = 0.19

_GOAL = (7.0, 3.2)
_CENTERS = np.array([[-0.4, 1.5], [2.0, 3.3], [4.5, 2.5]])
_RADII = np.array([0.5, 0.5, 0.5])
_RHO0S = np.array([0.2, 0.2, 0.2])
_DT = 0.02
_STEPS = 2000
_ROWS = 1400


def _control(x, y, phis):
    gx, gy = _GOAL
    ux = -(x - gx)
    uy = -(y - gy)
    hmin = math.inf
    for i in range(_CENTERS.shape[0]):
        ox = x - _CENTERS[i, 0]
        oy = y - _CENTERS[i, 1]
        dist = math.sqrt(ox * ox + oy * oy)
        rho = dist - _RADII[i]
        if rho < hmin:
            hmin = rho
        rho0 = _RHO0S[i]
        if rho <= 0.0 or rho >= rho0:
            phis[i] = 0.0
            continue
        coef = -(1.0 / (rho * rho)) * (1.0 / rho - 1.0 / rho0) / dist
        dx = coef * ox
        dy = coef * oy
        phis[i] = dx * dx + dy * dy
        ux -= dx
        uy -= dy
    return ux, uy, hmin


def _rollout(x, y):
    xs = np.empty(_STEPS + 1)
    ys = np.empty(_STEPS + 1)
    phis = np.empty((_STEPS + 1, _CENTERS.shape[0]))
    scratch = np.empty(_CENTERS.shape[0])
    h = 0.5 * _DT
    for k in range(_STEPS + 1):
        k1x, k1y, hmin = _control(x, y, phis[k])
        xs[k] = x
        ys[k] = y
        if hmin <= 0.0 or math.hypot(x - _GOAL[0], y - _GOAL[1]) < 0.05:
            return k + 1
        k2x, k2y, _ = _control(x + h * k1x, y + h * k1y, scratch)
        k3x, k3y, _ = _control(x + h * k2x, y + h * k2y, scratch)
        k4x, k4y, _ = _control(x + _DT * k3x, y + _DT * k3y, scratch)
        x += (_DT / 6.0) * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
        y += (_DT / 6.0) * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)
    return _STEPS + 1


def reference_s():
    """Mean wall time of six reference rollouts."""
    t0 = time.perf_counter()
    for _ in range(6):
        _rollout(-2.0, 0.0)
    return (time.perf_counter() - t0) / 6


def _child_main(path):
    """The reference child's work after its interpreter has imported numpy."""
    rows = np.linspace(0.0, 1.0, _ROWS)
    for _ in range(3):
        _rollout(-2.0, 0.0)
        with open(path, "w", encoding="ascii") as fh:
            for v in rows:
                fh.write("%.17g,%.17g,%.17g,%.17g\n" % (v, 3.0 * v, 7.0 * v, v / 3.0))


def child_reference_s(work):
    """Wall time of one reference child, spawn to exit; it writes in ``work``."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, __file__, str(work / "reference.csv")], check=True,
                   timeout=120)
    return time.perf_counter() - t0


class SpeedGauge:
    """Reference times sampled between a run's operations."""

    def __init__(self, unit_s=REFERENCE_S, measure=reference_s):
        self.unit_s = unit_s
        self.measure = measure
        self.samples = []

    def sample(self):
        """Take a sample; returns its index."""
        self.samples.append(self.measure())
        return len(self.samples) - 1

    def factor(self):
        """``unit / median sample``: multiply a measured time by it."""
        return self.unit_s / float(np.median(self.samples))

    def bracket_factor(self, i):
        """The factor for an operation between samples ``i`` and ``i + 1``."""
        return 2.0 * self.unit_s / (self.samples[i] + self.samples[i + 1])


if __name__ == "__main__":
    _child_main(sys.argv[1])
