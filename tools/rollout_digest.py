"""Print a SHA-256 digest of raw rollout kernel outputs over a fixed grid.

The grid crosses two arenas (the bundled fig2 scenario and two overlapping
shells), each at the origin and translated by +-1e6, with every sigma kind,
the zero, unit and lambda-8 scaled-special and table tightenings and the
unfiltered stabilizer, Euler and RK4, and dt 0.004 and 0.02, from three
starts per arena.  Each rollout's record rows and its ``(n, status, negative
minimum, negative count)`` enter the digest, the minimum +inf where no
tightening was negative.

A second digest continues the first over two more arenas on the same grid,
one without obstacles and one with a single obstacle, so that the kernels
compiled for m = 0 and m = 1 enter it too.  The first digest and everything
printed before it do not depend on them.

A third digest, of its own, covers the single-state door: for every arena,
shift and packing of both grids, ``_kernels.bind(model)`` evaluated at a
fixed set of states (a lattice over the arena, the goal and a state by it
where |F_att|^2 underflows to 0, and on each obstacle states inside it, on
its surface, in its shell and past it), each state's control, smallest
clearance, smallest tightening, margins and ``rows`` buffer.  ``point``
holds the same shell block as the rollout loop, but no rollout calls it.

Run it against a source tree with, for example::

    PYTHONPATH=src python3 tools/rollout_digest.py [--per-case]

Two trees that digest alike give the same rollouts bit for bit on the grid.
``--per-case`` first prints one line per rollout (and per packing of the
third digest), its case and the SHA-256 of what it adds to the digest, so a
diff of two trees' outputs lists exactly the cases that moved.
"""

import argparse
import hashlib
import itertools
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
    """(name, scenario, starts) at the origin, in digest order."""
    path = resources.files("apf_rcbf").joinpath("data", "fig2_scenario.json")
    fig2 = load_scenario(str(path))
    overlap = Scenario(goal=[5.0, 0.0], obstacles=(Obstacle([2.0, 0.6], 0.5, 0.4),
                                                   Obstacle([2.0, -0.6], 0.5, 0.4)))
    return (("fig2", fig2, ((-2.0, 0.0), (0.5, 1.5), (6.0, 5.5))),
            ("overlap", overlap, ((0.0, 0.1), (0.0, 1.5), (-1.0, -1.2))))


def more_arenas():
    """(name, scenario, starts) of the second digest: no obstacle, and one
    obstacle in front of the goal."""
    free = Scenario(goal=[5.0, 0.0], obstacles=())
    single = Scenario(goal=[5.0, 0.0], obstacles=(Obstacle([2.0, 0.3], 0.5, 0.4),))
    return (("free", free, ((0.0, 0.1), (0.0, 1.5), (-1.0, -1.2))),
            ("single", single, ((0.0, 0.1), (0.0, 1.5), (-1.0, -1.2))))


def shifted(scenario, shift):
    return Scenario(goal=scenario.goal + shift, k_att=scenario.k_att, k_rep=scenario.k_rep,
                    alpha_gain=scenario.alpha_gain,
                    obstacles=[Obstacle(o.center + shift, o.radius, o.influence_margin)
                               for o in scenario.obstacles])


def digest_grid(arena_list, digest, counts, per_case):
    """Feed every rollout of the grid over ``arena_list`` to ``digest``;
    ``counts`` holds the runs, the three status counts and the runs with a
    negative tightening."""
    for (name, base, starts), shift in itertools.product(arena_list, SHIFTS):
        scenario = shifted(base, shift)
        for (i, sigma), (j, gamma) in itertools.product(enumerate(SIGMAS), enumerate(GAMMAS)):
            model = _k.pack_model(scenario, _k.pack_controller(sigma, gamma))
            for (integ, stages), dt, x0 in itertools.product(INTEGRATORS, DTS, starts):
                n_max = int(round(T_MAX / dt))
                rec = np.full((n_max + 1, 7 + len(scenario.obstacles)), -1.0)
                n, status, ming, negcount = _k._integrate(
                    x0[0] + shift, x0[1] + shift, model, dt, n_max, GOAL_TOL, stages, rec)
                case = (struct.pack("<qqdq", n, status, ming, negcount)
                        + np.ascontiguousarray(rec[:n]).tobytes())
                digest.update(case)
                if per_case:
                    print(f"{name} {shift:+g} sigma{i} gamma{j} {integ} {dt} {x0}: "
                          f"{hashlib.sha256(case).hexdigest()}")
                counts[0] += 1
                counts[1 + status] += 1
                counts[4] += negcount > 0


def states(scenario):
    """The states of the third digest for ``scenario``, at its own
    coordinates: a 17 x 17 lattice over the box of its goal and obstacles
    widened by 1.5; the goal, a state 1e-170 from it (|F_att|^2 underflows
    to 0 for a k_att of order 1) and one 1e-150 from it; and, on each
    obstacle, along three directions, the clearances -r/2, 0, rho0/4,
    rho0/2, 0.999 rho0, rho0 and 1.5 rho0 (up to the rounding of the
    offsets; no libm call, so the states are the same on every platform)."""
    gx, gy = scenario.goal.tolist()
    xs = [gx] + [o.center[0] for o in scenario.obstacles]
    ys = [gy] + [o.center[1] for o in scenario.obstacles]
    lattice = itertools.product(np.linspace(min(xs) - 1.5, max(xs) + 1.5, 17).tolist(),
                                np.linspace(min(ys) - 1.5, max(ys) + 1.5, 17).tolist())
    points = [*lattice, (gx, gy), (gx + 1e-170, gy - 1e-170), (gx + 1e-150, gy)]
    for obs, (ax, ay) in itertools.product(scenario.obstacles, ((1.0, 0.0), (-0.6, 0.8),
                                                                (0.0, -1.0))):
        cx, cy = obs.center.tolist()
        r, rho0 = obs.radius, obs.influence_margin
        for s in (r / 2, r, r + rho0 / 4, r + rho0 / 2, r + 0.999 * rho0, r + rho0,
                  r + 1.5 * rho0):
            points.append((cx + s * ax, cy + s * ay))
    return points


def digest_bind(arena_list, digest, counts, per_case):
    """Digest ``bind(model)`` at every state of :func:`states`, for every
    arena of ``arena_list``, shift and packing: the control, smallest
    clearance and tightening, the margins, g_att and each row of the
    ``rows`` buffer, a zero byte where the evaluation wrote none.  Each
    packing's own SHA-256 enters ``digest``; ``counts`` holds the states,
    those inside an obstacle, those with a live row and those where g_att
    is 0."""
    for (name, base, _), shift in itertools.product(arena_list, SHIFTS):
        scenario = shifted(base, shift)
        m = len(scenario.obstacles)
        points = [(x + shift, y + shift) for x, y in states(base)]
        for (i, sigma), (j, gamma) in itertools.product(enumerate(SIGMAS), enumerate(GAMMAS)):
            case = hashlib.sha256()
            rows = [None] * (m + 1)
            point = _k.bind(_k.pack_model(scenario, _k.pack_controller(sigma, gamma)), rows)
            phis = [0.0] * m
            for x, y in points:
                rows[:] = [None] * (m + 1)
                ux, uy, hmin, ming = point(x, y, phis)
                case.update(struct.pack(f"<{5 + m}d", ux, uy, hmin, ming, *phis, rows[-1]))
                for row in rows[:-1]:
                    case.update(b"\0" if row is None else struct.pack("<c3d", b"\1", *row))
                counts[0] += 1
                counts[1] += hmin <= 0.0
                counts[2] += any(row is not None for row in rows[:-1])
                counts[3] += rows[-1] == 0.0
            digest.update(case.digest())
            if per_case:
                print(f"bind {name} {shift:+g} sigma{i} gamma{j}: {case.hexdigest()}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--per-case", action="store_true",
                        help="print each rollout's own digest before the combined one")
    args = parser.parse_args(argv)
    digest = hashlib.sha256()
    counts = [0] * 5
    for arena_list, label in ((arenas(), ""),
                              (more_arenas(), " with the free and one-obstacle arenas")):
        digest_grid(arena_list, digest, counts, args.per_case)
        print(f"rollouts{label}: {counts[0]} (reached goal {counts[1]}, timeout {counts[2]}, "
              f"domain error {counts[3]}; {counts[4]} with a negative tightening)")
        print(f"sha256{label}: {digest.hexdigest()}")
    digest = hashlib.sha256()
    counts = [0] * 4
    digest_bind(arenas() + more_arenas(), digest, counts, args.per_case)
    print(f"bind states: {counts[0]} (inside an obstacle {counts[1]}, with a live row "
          f"{counts[2]}, g_att 0 {counts[3]})")
    print(f"sha256 of bind: {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
