"""Numeric kernels shared by the field/controller API and the simulator.

The controller kernels operate on one packed ``model`` tuple (no
dataclasses), built from a scenario and a controller packing by
:func:`pack_model`.  Every scalar in the model is a Python ``float`` (or
``int`` selector): ``pack_model`` unboxes the goal and obstacle centers once,
so the per-state arithmetic never touches numpy scalars, which cost about
four times as much per arithmetic operation.

Packing conventions used throughout:

* model: ``(gx, gy, obstacles, k_att, k_rep, alpha_gain, *packing)``
* obstacles: a tuple of ``(cx, cy, r, rho0)`` float tuples, one per obstacle
* controller packing, built only by :func:`pack_controller` from the two
  selectors it is given (no defaults; ``apf`` and ``special_filter`` run the
  unit pair, packed once as ``rcbf.UNIT_PACKING``):
  ``(ckind, skind, scoef, stx, sty, gkind, glam, gtx, gty)``, table slots
  ``None`` unless the selector is a table
* controller kind: 1 = nominal only (gamma selector ``None``), 2 = filtered.
  Kind 1 carries the zero tightening (``gkind=0``): it records that filter's
  margins as diagnostics, applies no correction and reports no tightening
  (min gamma +inf)
* sigma selector ``skind``: 0 = squared gradient norm, 1 = scaled potential
  value, 2 = scaled distance, 3 = interpolation table over distance-to-goal
* gamma selector ``gkind``: 0 = zero, 1 = scaled-special, 2 = interpolation
  table over clearance
* integrator: a Runge--Kutta stage table, ``(c, w)`` per stage after the
  first (state offset ``c * dt`` along the previous slope, weight ``w``);
  ``()`` is explicit Euler, :data:`RK4_STAGES` classic RK4
* rollout record: one ``(n_max + 1, 7 + m)`` float array whose rows are the
  CSV rows ``t, x, y, ux, uy, h_min, V, phi_1 .. phi_m``; :func:`_integrate`
  buffers rows in a flat list and writes them in chunks of whole rows
* terminal status: 0 = reached goal, 1 = timeout, 2 = domain error

Kernels never raise: domain violations are reported through return codes and
NaN diagnostics, which :func:`control`, the one door for single states,
turns into typed exceptions; only the packer, :func:`pack_model`, which every
kernel route goes through, refuses a scaled-special lam above
``scenario.max_lambda``.  ``fields`` does not use this module, so its descent
law is an independent check of the filter kernel.  (``validate_scenario``
keeps obstacle radii at or above ``scenario.min_radius(k_rep)``, so the
squared repulsive gradient stays finite at every positive clearance, and the
lam bound keeps lam times it finite too.)

Per-state cost: :func:`bind` unpacks a model once per rollout, grid or
single-state call and returns the controller as one closure, which
evaluates every shell.  Most obstacles of a state lie beyond their influence
shell, where d = F_rep = (0, 0).  Every shell runs one margin block on
|d|^2 and d.u_nom.  An idle shell does not form d: it takes |d|^2 = 0 and a
d.u_nom formed once per state from the operands a live shell would use, in
the same order, so its margins keep their bits, NaN propagation included.
The correction needs |d|^2 > 0 and so skips it.  In a rollout, a sample or
stage that flies free (below) makes no call at all: :func:`_integrate`
forms its stabilizer inline, about 0.3 microseconds against 0.5 for the
call, so a free fig2 RK4 step, record included, costs about 3.4
microseconds rather than 4.3 (2-vCPU VM, best of repeated runs).

Bases and reaches: :func:`_integrate` keeps a *base*, the last sample it
evaluated in full, with the smallest clearance h there, and a *chain*, the
reach from the base to the current sample.  Any other state it evaluates --
a later sample, or a stage state off the current sample -- carries its reach
delta from the base: the chain, plus for a stage its own offset's reach.
Every clearance computed at that state is at least fl(rho - delta) for the
obstacle's clearance rho at the base, and so at least fl(h - delta), as h is
the smallest rho and rounding is monotone ("The reach and its slack", "The
chain and its rounding").

Free flight: :func:`_integrate` owns the rule, and :func:`_free_above` its
one threshold, the largest rho0 of a model whose idle tightenings are known
in closed form.  A sample or stage with fl(h - delta) above it forms u_nom
inline, with the closure's expressions in the closure's order (b = F_att,
|b|^2, sigma / |b|^2 taken as 1 for the grad-norm-squared sigma, u_nom), and
flies free if d.u_nom on an idle shell is +-0 (u_nom finite); any other
evaluation calls the closure.  Every shell is then idle and outside (rho0 >
0, and each clearance is at least fl(h - delta) > rho0), so the control is
u_nom and the clearance positive, and what the margin block would have
given is known in closed form: margins glam * 0 (gamma kind 1) or
-(alpha_gain * rho) + d.u_nom (kind 0 and the unfiltered stabilizer), and
tightenings glam * 0 + alpha_gain * rho (kind 1 with alpha_gain >= 0), 0
(kind 0) or none (unfiltered), none of them negative, so the count of
negative evaluations stands.  A Gamma table, a shell without a positive
rho0, kind 1 with a negative alpha_gain and an arena without obstacles
never fly free.  :func:`_integrate` marks each free sample's row in a
bytearray and, after the loop, :func:`_fill_free` writes its h_min and
margins array-at-a-time with those expressions, in the kernel's order.  The
tightening of a free evaluation is smallest where its clearance is, so the
free rows' smallest value joins the run's minimum after the loop, with that
of the free stages whose tightening, bounded below by alpha_gain * fl(h -
delta), might undercut the floor (their states are kept in a list, reduced a
chunk at a time).  During the loop each evaluation's floor is the minimum of
the evaluations made in full: never below the true running minimum, so the
tests that compare with it are at most stricter than they need to be.

The reach and its slack: with u = 2**-53, the state t = s + a (a the rounded
offset c dt k of a stage, or step * sum of slopes to the next sample) is
rounded to within about u |t|_1 of s + a, and a computed clearance |x - c| -
r is within about 4u of its exact value, in units of |x - c|_1 + |r|.  So
every clearance computed at t is at least fl(rho - delta) whenever delta >=
|a|_1 (1 + 2u) + 9u (|s|_1 + |c|_1 + |r|).  :func:`_integrate` takes delta =
|a|_1 (1 + 2**-40) + span for a stage, span = 2**-40 (|s|_1 + max_i (|c_i|_1
+ r_i) + 2**-450), thousands of times that and enough to cover its own
rounding; the 2**-450 term covers a square that underflows.  A delta of +inf,
where |s|_1 + max_i (|c_i|_1 + r_i) reaches 2**500 and a squared distance may
overflow, flies nothing free.

The chain and its rounding: from sample s_k to s_(k+1) = fl(s_k + a_k) the
chain grows to D_(k+1) = fl(fl(D_k + |a_k|_1 + span_k) * (1 + 2**-40)), with
D = 0 at the base.  By the triangle inequality the exact clearance falls by
at most the sum of the exact hops, each within |a_k|_1 (1 + u) + u |s_k|_1,
and the computed clearances at the base and at the evaluated state are
within 4u (|s|_1 + max_i (|c_i|_1 + r_i)) of exact: each hop's term |a_k|_1 +
span_k, grown by 2**-40, exceeds its need by at least 2**-41 (|a_k|_1 +
|s_k|_1 + max_i (|c_i|_1 + r_i)), which covers the errors at both ends (the
first hop or stage the base's, the last the evaluated state's).  The sum
itself never loses to rounding, however long the chain: three additions and
a product lose at most 4u of the exact D_k + |a_k|_1 + span_k, and the factor
1 + 2**-40 more than restores it, so D_(k+1) exceeds that exact sum by at
least 2**-42 of itself.  That surplus also covers rounding fl(D_k + delta)
for a stage (its own reach covers the rest), and the base's span term covers
rounding fl(h - delta).  The chain, and a stage's reach, are formed only
while h exceeds :func:`_free_above`: otherwise fl(h - delta) <= h cannot
exceed it, so nothing flies free before a sample is evaluated in full and
becomes the base.

Stationary states: where the attractive and repulsive fields balance (a
stall in front of a gap), ``dt * |u|`` drops below half an ulp of the state
and a step returns its own state bit for bit.  :func:`_integrate` stops
stepping there and fills the rest of the horizon with copies of the last
sample, which is what stepping would have recorded: the controller is a pure
function of the state.

A note on arithmetic: the filtered controller computes its correction for the
scaled-special tightening as ``phi = lam * D`` in closed form (the definition
``c_tilde + d.u_nom`` cancels symbolically to exactly that).  Evaluating the
cancelling form numerically loses ~9 digits where the repulsive gradient is
large, while the closed form keeps the filtered controller *bitwise* equal to
the superposition controller for ``lam = 1``.  Do not "simplify" this back to
the definition.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InsideObstacleError
from .fields import INSIDE_OBSTACLE_MSG, _as_point
from .scenario import max_lambda

# terminal status codes used by _integrate
REACHED_GOAL = 0
TIMEOUT = 1
DOMAIN_ERROR = 2

# _integrate writes its buffered rows into the record array once this many
# floats are buffered: one write per ~100 rows, and a buffer of a few kB
RECORD_CHUNK_FLOATS = 1024

# _integrate reduces the free stage states it keeps (two floats each) into
# the run's minimum once this many are kept, at its next record write
STAGED_CHUNK_FLOATS = 512

# RK4 stages after the first: (offset of the stage state, weight in the sum)
RK4_STAGES = ((0.5, 2.0), (0.5, 2.0), (1.0, 1.0))

# The reach of a stage state from its sample (module docstring, "The reach
# and its slack"): |offset|_1 * REACH_GROWTH + (|sample|_1 + max_i(|c_i|_1 +
# r_i) + REACH_FLOOR) * REACH_SLACK, or +inf from REACH_SPAN_LIMIT on; the
# chain grows by the same terms times REACH_GROWTH ("The chain and its
# rounding").
REACH_SLACK = 2.0 ** -40
REACH_GROWTH = 1.0 + REACH_SLACK
REACH_FLOOR = 2.0 ** -450
REACH_SPAN_LIMIT = 2.0 ** 500


def pack_controller(sigma_sel, gamma_sel):
    """The controller packing for the given tightening selectors;
    ``gamma_sel=None`` packs the unfiltered stabilizer."""
    if gamma_sel is None:
        return (1, *sigma_sel.packed(), 0, 0.0, None, None)
    return (2, *sigma_sel.packed(), *gamma_sel.packed())


def pack_model(scenario, packing):
    """The ``model`` tuple the controller kernels take: goal, obstacles and
    gains of ``scenario`` followed by the controller ``packing``; raises
    ``ValueError`` for a scaled-special lam above :func:`scenario.max_lambda`."""
    if packing[5] == 1:
        for i, obs in enumerate(scenario.obstacles):
            bound = max_lambda(scenario.k_rep, obs.radius)
            if packing[6] > bound:
                raise ValueError(
                    f"scaled_special lambda {packing[6]!r} exceeds {bound:.3g} for obstacle "
                    f"{i}, where lambda*|F_rep|^2 can overflow at the smallest clearance")
    obstacles = tuple((*obs.center.tolist(), obs.radius, obs.influence_margin)
                      for obs in scenario.obstacles)
    gx, gy = scenario.goal.tolist()
    return (gx, gy, obstacles, float(scenario.k_att), float(scenario.k_rep),
            float(scenario.alpha_gain), *packing)


def control(x, scenario, packing):
    """``(u, hmin, min_gamma, phis)`` of a packed controller at one state,
    ``phis`` one constraint margin per obstacle.  A filtered packing raises
    ``InsideObstacleError`` at a nonpositive clearance; the unfiltered
    stabilizer, defined everywhere, never raises."""
    px, py = _as_point(x)
    phis = np.empty(len(scenario.obstacles), dtype=np.float64)
    ux, uy, hmin, ming = bind(pack_model(scenario, packing))(px, py, phis)
    if packing[0] == 2 and hmin <= 0.0:
        raise InsideObstacleError(INSIDE_OBSTACLE_MSG)
    return np.array([ux, uy]), hmin, ming, phis


def _sigma_value(x, y, gx, gy, k_att, skind, scoef, stx, sty):
    """Tightening term for the stabilizing controller, per selector."""
    dx = x - gx
    dy = y - gy
    if skind == 0:
        bx = k_att * dx
        by = k_att * dy
        return bx * bx + by * by
    if skind == 1:
        return scoef * (0.5 * k_att * (dx * dx + dy * dy))
    if skind == 2:
        return scoef * math.sqrt(dx * dx + dy * dy)
    return float(np.interp(math.sqrt(dx * dx + dy * dy), stx, sty))


def _free_above(model):
    """The base clearance above which an evaluation may fly free (the largest
    rho0), or +inf where none may: an idle shell's tightening is 0 (gamma
    kind 0, and the unfiltered stabilizer) or alpha_gain * rho (kind 1 with
    alpha_gain >= 0), but a table's is not bounded by the clearance, and
    every shell needs a positive rho0."""
    alpha_gain, ckind, gkind = model[5], model[6], model[11]
    if ckind == 2 and (gkind == 2 or (gkind == 1 and not alpha_gain >= 0.0)):
        return math.inf
    return max((rho0 if rho0 > 0.0 else math.inf for _, _, _, rho0 in model[2]),
               default=math.inf)


def bind(model):
    """The controller of ``model``, unpacked once: returns ``point(x, y,
    phis) -> (ux, uy, hmin, min_gamma)``.

    ``point`` evaluates the controller at one state, every shell included.
    It fills ``phis`` (a list or array with one constraint margin per
    obstacle; NaN for obstacles the state is inside of) and returns the
    control, the smallest clearance and ``min_gamma``, the smallest
    tightening value evaluated at this state (+inf if there was none, and
    always for the unfiltered stabilizer).  Callers must treat the control
    as undefined when ``hmin <= 0``.  :func:`control`, :func:`_eval_controls`
    and :func:`_integrate`'s full evaluations call it alike; the rollout's
    free evaluations form the stabilizer without it (module docstring, "Free
    flight").
    """
    (gx, gy, obstacles, k_att, k_rep, alpha_gain,
     ckind, skind, scoef, stx, sty, gkind, glam, gtx, gty) = model
    sqrt = math.sqrt
    inf = math.inf
    nan = math.nan
    interp = np.interp
    filtered = ckind == 2
    shells = [(i, cx, cy, r, rho0) for i, (cx, cy, r, rho0) in enumerate(obstacles)]

    def point(x, y, phis):
        bx = k_att * (x - gx)
        by = k_att * (y - gy)
        bb = bx * bx + by * by
        if bb > 0.0:
            # sigma / bb: bb / bb is 1 for the grad-norm-squared sigma, also
            # where bb overflows, so u_nom is -b there
            gatt = -1.0 if skind == 0 else -(
                _sigma_value(x, y, gx, gy, k_att, skind, scoef, stx, sty) / bb)
        else:
            gatt = 0.0
        unx = gatt * bx
        uny = gatt * by
        # d.u_nom on an idle shell, where d = F_rep = (0, 0): the product a
        # live shell forms, so NaN or inf in u_nom propagates alike
        idle_du = 0.0 * unx + 0.0 * uny
        ux = unx
        uy = uny
        hmin = inf
        ming = inf
        for i, cx, cy, r, rho0 in shells:
            ox = x - cx
            oy = y - cy
            dist = sqrt(ox * ox + oy * oy)
            rho = dist - r
            if rho < hmin:
                hmin = rho
            if rho <= 0.0:
                phis[i] = nan
                continue
            if rho >= rho0:
                # idle shell: a zero row, which takes no correction (a NaN
                # clearance fails this test and keeps the live branch's bits)
                dd = 0.0
                du = idle_du
            else:
                # fields.f_rep's expressions in its order: bitwise superposition
                coef = -(k_rep / (rho * rho)) * (1.0 / rho - 1.0 / rho0) / dist
                dx = coef * ox
                dy = coef * oy
                dd = dx * dx + dy * dy
                du = dx * unx + dy * uny
            alphah = alpha_gain * rho
            if gkind == 1:
                phi = glam * dd
                gam = phi + alphah - du
            elif gkind == 0:
                gam = 0.0
                phi = -alphah + du
            else:
                gam = float(interp(rho, gtx, gty))
                phi = (-alphah + gam) + du
            if gam < ming:
                ming = gam
            phis[i] = phi
            if phi > 0.0 and dd > 0.0 and filtered:
                grep = -(phi / dd)
                ux += grep * dx
                uy += grep * dy
        # the unfiltered stabilizer records its margins but evaluates no tightening
        return ux, uy, hmin, ming if filtered else inf

    return point


def _eval_controls(xs, ys, model):
    """Evaluate one controller over a batch of states (the grid sweep);
    returns the two control components as arrays."""
    point = bind(model)
    phis = [0.0] * len(model[2])
    uxs = []
    uys = []
    for x, y in zip(xs.tolist(), ys.tolist()):
        ux, uy, _, _ = point(x, y, phis)
        uxs.append(ux)
        uys.append(uy)
    return np.array(uxs), np.array(uys)


def _flush(rec, row, buf, width):
    """Write the whole rows held in the flat list ``buf`` into ``rec`` from
    ``row`` on, by row slice (so any memory layout of ``rec`` is filled),
    empty ``buf``, and return the next row to write."""
    rows = len(buf) // width
    rec[row:row + rows] = np.fromiter(buf, np.float64, rows * width).reshape(rows, width)
    buf.clear()
    return row + rows


def _integrate(x0x, x0y, model, dt, n_max, goal_tol, stages, rec):
    """Closed-loop rollout of the single integrator under one controller.

    Samples are recorded as rows of the rollout record ``rec`` at the top of
    every step, then the goal test runs, then the state advances by one step
    of the stage table ``stages``: the stage slopes weighted by ``w`` (the
    first by 1) and summed, times ``dt / (1 + sum of w)``.  The rollout stops
    without recording when the current state -- or any stage state -- has
    nonpositive clearance, because the controller is undefined there, or when
    the control at the current state is not finite (say, |F_att|^2
    overflows), because every later state would be NaN.

    Rows are collected in a flat Python list and written into ``rec`` a chunk
    of about :data:`RECORD_CHUNK_FLOATS` floats at a time, by row slices, and
    once more before the loop returns: one numpy element store costs about
    three list appends.  Rows past the returned sample count are left as
    they were.

    The controller is bound once per call, by the module's :func:`bind` as
    it is at call time, and each stage offset ``c * dt`` is formed once.
    The free-flight rule lives here alone (module docstring, "Free
    flight"): a sample or stage whose base -- the last sample evaluated in
    full -- proves it clear of every shell, by its ``hmin`` less the chained
    reach, forms u_nom inline and flies free without calling the closure;
    every other evaluation calls it, and the closure runs every shell.  The
    threshold is read from :func:`_free_above` at call time.  Free rows are
    marked and get their ``h_min`` and margins after the loop, and the free
    evaluations' tightenings then join the minimum: the record and the
    returned minimum and count are those of evaluating every shell
    everywhere.

    A stationary state ends the stepping early with the same record.  When a
    step returns its own state bit for bit (signed zeros included; a stall,
    where ``dt * |u|`` is below half an ulp of the state), every later step
    would repeat it: the controller is a pure function of the state, and so
    is the goal test.  The remaining rows are filled with copies of the last
    one, their times are ``k * dt`` as the loop would write them, the status
    is a timeout, and the negative-tightening count advances by the
    evaluations the skipped steps would have made.

    Returns ``(n_samples, status, min_gamma, n_negative_gamma_evals)``.
    """
    (gx, gy, obstacles, k_att, _, alpha_gain,
     ckind, skind, scoef, stx, sty, gkind) = model[:12]
    point = bind(model)
    sigma = _sigma_value
    sqrt = math.sqrt
    isfinite = math.isfinite
    inf = math.inf
    nan = math.nan
    growth = REACH_GROWTH
    width = 7 + len(obstacles)
    phis = [0.0] * len(obstacles)
    scratch = [0.0] * len(obstacles)
    # (c * dt) * kx is how ``xx + c * dt * kx`` groups, so the stage states
    # keep their bits
    offsets = tuple((c * dt, w) for c, w in stages)
    corner = max((abs(cx) + abs(cy) + abs(r) for cx, cy, r, _ in obstacles),
                 default=0.0) + REACH_FLOOR
    buf = []
    row = 0
    step = dt / (1.0 + sum(w for _, w in stages))
    ming = inf
    negcount = 0
    xx = x0x
    yy = x0y
    n = 0
    status = TIMEOUT
    stall = -1
    # the base is the last sample evaluated in full, hbase its hmin; chain
    # is the reach from it to the sample
    hbase = -inf
    chain = 0.0
    # a base at or below this clearance has no free evaluation after it, so
    # its chain and its stages' reaches are not formed (module docstring,
    # "The chain and its rounding")
    free_above = _free_above(model)
    # a free stage owes the run's minimum its tightenings where their lower
    # bound gmul * fl(h - delta) might undercut the floor
    owes = ckind == 2
    gmul = alpha_gain if gkind == 1 else 0.0
    # 1 marks a row sampled on the free path, whose h_min and margins
    # _fill_free writes once the loop is done
    free = bytearray(n_max + 1)
    # the free stage states owed to the minimum, x then y, reduced into
    # free_gamma a chunk at a time
    staged = []
    free_gamma = inf
    for k in range(n_max + 1):
        # free flight: u_nom as bind's closure forms it, and the sample flies
        # free if d.u_nom on an idle shell is +-0 (u_nom finite)
        flies = False
        if hbase - chain > free_above:
            bx = k_att * (xx - gx)
            by = k_att * (yy - gy)
            bb = bx * bx + by * by
            if bb > 0.0:
                gatt = -1.0 if skind == 0 else -(
                    sigma(xx, yy, gx, gy, k_att, skind, scoef, stx, sty) / bb)
            else:
                gatt = 0.0
            ux = gatt * bx
            uy = gatt * by
            flies = 0.0 * ux + 0.0 * uy == 0.0
        if flies:
            # no clearance evaluated, no tightening counted yet
            free[k] = 1
            hmin = nan
            mg = inf
        else:
            ux, uy, hmin, mg = point(xx, yy, phis)
            hbase = hmin
            chain = 0.0
            if mg < ming:
                ming = mg
            if mg < 0.0:
                negcount += 1
            # a free sample's control is u_nom, finite by the free test
            if hmin <= 0.0 or not (isfinite(ux) and isfinite(uy)):
                status = DOMAIN_ERROR
                break
        ddx = xx - gx
        ddy = yy - gy
        dd2 = ddx * ddx + ddy * ddy
        # V = fields.u_att's expression on the goal test's squared distance
        buf += (k * dt, xx, yy, ux, uy, hmin, 0.5 * k_att * dd2)
        buf += phis
        if len(buf) >= RECORD_CHUNK_FLOATS:
            row = _flush(rec, row, buf, width)
            if len(staged) >= STAGED_CHUNK_FLOATS:
                free_gamma = min(free_gamma, _fill_free(rec, free, 0, model, staged))
        n = k + 1
        if sqrt(dd2) < goal_tol:
            status = REACHED_GOAL
            break
        if k == n_max:
            status = TIMEOUT
            break
        neg_before_stages = negcount
        if hbase > free_above:
            span = abs(xx) + abs(yy) + corner
            span = span * REACH_SLACK if span < REACH_SPAN_LIMIT else inf
        # sx, sy accumulate the weighted stage slopes left to right
        # (k1 + 2 k2 + 2 k3 + k4 for RK4)
        kx = sx = ux
        ky = sy = uy
        for h, w in offsets:
            ax = h * kx
            ay = h * ky
            px = xx + ax
            py = yy + ay
            # free flight as at a sample, with the stage's own reach
            flies = False
            if hbase > free_above:
                lo = hbase - (chain + ((abs(ax) + abs(ay)) * growth + span))
                if lo > free_above:
                    bx = k_att * (px - gx)
                    by = k_att * (py - gy)
                    bb = bx * bx + by * by
                    if bb > 0.0:
                        gatt = -1.0 if skind == 0 else -(
                            sigma(px, py, gx, gy, k_att, skind, scoef, stx, sty) / bb)
                    else:
                        gatt = 0.0
                    kx = gatt * bx
                    ky = gatt * by
                    flies = 0.0 * kx + 0.0 * ky == 0.0
            if flies:
                if owes and gmul * lo < ming:
                    staged += (px, py)
            else:
                kx, ky, hk, mgk = point(px, py, scratch)
                if mgk < ming:
                    ming = mgk
                if mgk < 0.0:
                    negcount += 1
                if hk <= 0.0:
                    # a stage state touched an obstacle
                    status = DOMAIN_ERROR
                    break
            sx = sx + w * kx
            sy = sy + w * ky
        if status == DOMAIN_ERROR:
            break
        nx = xx + step * sx
        ny = yy + step * sy
        if (nx == xx and ny == yy and math.copysign(1.0, nx) == math.copysign(1.0, xx)
                and math.copysign(1.0, ny) == math.copysign(1.0, yy)):
            # stationary: each skipped step evaluates its sample, and every
            # one but the last its stages
            stall = k
            rest = n_max - k
            negcount += rest * (mg < 0.0) + (rest - 1) * (negcount - neg_before_stages)
            status = TIMEOUT
            break
        if hbase > free_above:
            # the next sample's reach joins the chain, grown so that rounding
            # the sum cannot shrink it (module docstring, "The chain and its
            # rounding")
            chain = (chain + abs(step * sx) + abs(step * sy) + span) * growth
        xx = nx
        yy = ny
    _flush(rec, row, buf, width)
    # the free evaluations' tightenings join the minimum only now, so each
    # evaluation's floor is the minimum of those made in full: never below
    # the true running minimum
    mg = min(free_gamma, _fill_free(rec, free, n, model, staged))
    if mg < ming:
        ming = mg
    if stall >= 0:
        # rows stall+1 .. n_max repeat row stall
        n = n_max + 1
        rec[stall + 1:n] = rec[stall]
        rec[stall + 1:n, 0] = np.arange(stall + 1, n) * dt
    return n, status, ming, negcount


def _idle_clearances(xs, ys, obstacles):
    """Clearances of the states ``xs``, ``ys`` (arrays) as :func:`bind`
    computes them: one row per obstacle, one column per state."""
    cx, cy, r, _ = np.array(obstacles)[:, :, None].transpose(1, 0, 2)
    ox = xs - cx
    oy = ys - cy
    ox *= ox
    oy *= oy
    ox += oy
    rho = np.sqrt(ox, out=ox)
    rho -= r
    return rho


def _idle_gamma(hmins, model):
    """The smallest min_gamma of free evaluations whose smallest clearances
    are ``hmins`` (an array): every shell there is idle, so its tightening is
    glam * dd + alpha_gain * rho - d.u_nom with dd = 0 and d.u_nom = +-0
    (scaled-special; smallest where rho is, as rounding is monotone), 0
    (zero tightening), or none (the unfiltered stabilizer)."""
    if model[6] != 2:
        return math.inf
    if model[11] == 0:
        return 0.0
    return model[12] * 0.0 + model[5] * float(hmins.min())


def _fill_free(rec, free, n, model, staged):
    """Write ``h_min`` and the margins of the rows among the first ``n`` of
    ``rec`` that ``free`` marks, array-at-a-time, with the expressions of
    :func:`bind`'s margin block on an idle shell, and return the
    :func:`_idle_gamma` of those rows and of the stage states in ``staged``
    (x then y), which it empties.  On a free row the control is u_nom, so
    d.u_nom on an idle shell is formed from it as the kernel forms it."""
    if not staged and 1 not in free:
        return math.inf
    alpha_gain, gkind, glam = model[5], model[11], model[12]
    rows = np.flatnonzero(np.frombuffer(free, np.uint8, n))
    nrows = rows.size
    xy = np.fromiter(staged, np.float64, len(staged))
    staged.clear()
    # one row per obstacle, one column per free state: the rows, then the stages
    rho = _idle_clearances(np.concatenate((rec[rows, 1], xy[0::2])),
                           np.concatenate((rec[rows, 2], xy[1::2])), model[2])
    hmin = np.minimum.reduce(rho)  # no clearance of a free state is NaN or -0
    rec[rows, 5] = hmin[:nrows]
    if gkind == 1:
        rec[rows, 7:] = glam * 0.0  # glam * dd, dd = 0
    else:
        rho = rho[:, :nrows]
        rho *= alpha_gain
        rho = np.negative(rho, out=rho)
        rho += 0.0 * rec[rows, 3] + 0.0 * rec[rows, 4]  # d.u_nom
        rec[rows, 7:] = rho.T
    return _idle_gamma(hmin, model)
