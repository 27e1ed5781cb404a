"""Print a SHA-256 digest of raw rollout kernel outputs over a fixed grid.

The grid crosses two arenas (the bundled fig2 scenario and two overlapping
shells), each at the origin and translated by +-1e6, with every sigma kind,
the zero, unit and lambda-8 scaled-special and table tightenings and the
unfiltered stabilizer, Euler and RK4, and dt 0.004 and 0.02, from three
starts per arena.  Each rollout's record rows and its ``(n, status, negative
minimum, negative count)`` enter the digest; a minimum at or above zero is
taken as +inf, so trees whose kernel returns the smallest tightening and
trees that return only the smallest negative one digest alike.

Run it against a source tree with, for example::

    PYTHONPATH=src python3 tools/rollout_digest.py [--per-case]

Two trees that digest alike give the same rollouts bit for bit on the grid.
``--per-case`` first prints one line per rollout, its case and the SHA-256
of what it adds to the digest, so a diff of two trees' outputs lists
exactly the cases that moved.
"""

import argparse
import hashlib
import itertools
import math
import struct
import sys
from importlib import resources

import numpy as np

from apf_rcbf import GammaSelector, Obstacle, Scenario, SigmaSelector, load_scenario
from apf_rcbf import _kernels as _k

SIGMAS = (SigmaSelector.grad_norm_squared(), SigmaSelector.scaled_value(0.7),
          SigmaSelector.scaled_norm(1.3), SigmaSelector.custom([0.0, 1.0, 5.0], [0.0, 0.5, 2.0]))
GAMMAS = (None, GammaSelector.zero(), GammaSelector.scaled_special(1.0),
          GammaSelector.scaled_special(8.0),
          GammaSelector.custom([0.0, 0.1, 0.3], [0.5, 0.2, 0.0]))
INTEGRATORS = (("euler", ()), ("rk4", _k.RK4_STAGES))
DTS = (0.004, 0.02)
SHIFTS = (0.0, 1e6, -1e6)
T_MAX = 20.0
GOAL_TOL = 0.05


def arenas():
    """(name, scenario, starts) at the origin."""
    path = resources.files("apf_rcbf").joinpath("data", "fig2_scenario.json")
    fig2 = load_scenario(str(path))
    overlap = Scenario(goal=[5.0, 0.0], obstacles=(Obstacle([2.0, 0.6], 0.5, 0.4),
                                                   Obstacle([2.0, -0.6], 0.5, 0.4)))
    return (("fig2", fig2, ((-2.0, 0.0), (0.5, 1.5), (6.0, 5.5))),
            ("overlap", overlap, ((0.0, 0.1), (0.0, 1.5), (-1.0, -1.2))))


def shifted(scenario, shift):
    return Scenario(goal=scenario.goal + shift, k_att=scenario.k_att, k_rep=scenario.k_rep,
                    alpha_gain=scenario.alpha_gain,
                    obstacles=[Obstacle(o.center + shift, o.radius, o.influence_margin)
                               for o in scenario.obstacles])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--per-case", action="store_true",
                        help="print each rollout's own digest before the combined one")
    args = parser.parse_args(argv)
    digest = hashlib.sha256()
    runs = 0
    statuses = [0, 0, 0]
    negative_runs = 0
    for (name, base, starts), shift in itertools.product(arenas(), SHIFTS):
        scenario = shifted(base, shift)
        for (i, sigma), (j, gamma) in itertools.product(enumerate(SIGMAS), enumerate(GAMMAS)):
            model = _k.pack_model(scenario, _k.pack_controller(sigma, gamma))
            for (integ, stages), dt, x0 in itertools.product(INTEGRATORS, DTS, starts):
                n_max = int(round(T_MAX / dt))
                rec = np.full((n_max + 1, 7 + len(scenario.obstacles)), -1.0)
                n, status, ming, negcount = _k._integrate(
                    x0[0] + shift, x0[1] + shift, model, dt, n_max, GOAL_TOL, stages, rec)
                if not ming < 0.0:
                    ming = math.inf
                case = (struct.pack("<qqdq", n, status, ming, negcount)
                        + np.ascontiguousarray(rec[:n]).tobytes())
                digest.update(case)
                if args.per_case:
                    print(f"{name} {shift:+g} sigma{i} gamma{j} {integ} {dt} {x0}: "
                          f"{hashlib.sha256(case).hexdigest()}")
                runs += 1
                statuses[status] += 1
                negative_runs += negcount > 0
    print(f"rollouts: {runs} (reached goal {statuses[0]}, timeout {statuses[1]}, "
          f"domain error {statuses[2]}; {negative_runs} with a negative tightening)")
    print(f"sha256: {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
