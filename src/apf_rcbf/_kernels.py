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
  unit pair, packed once as ``clf.UNIT_PACKING``):
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
  CSV rows ``t, x, y, ux, uy, h_min, V, phi_1 .. phi_m``, filled by
  :func:`_integrate`
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
forms its stabilizer inline.

Free flight: :func:`_integrate` owns the rule, and :func:`_free_above` its
one threshold, the largest rho0 of a model whose idle tightenings are known
in closed form.  It keeps a *base* b, the last sample it evaluated in full,
and :func:`_free_r2` forms from that sample's smallest clearance h the
base's squared free radius r2.  A sample or stage state p with
fl((px - bx)^2 + (py - by)^2) < r2 forms u_nom inline with the closure's
bits: b = F_att and |b|^2 as the closure forms them, then, for the
grad-norm-squared sigma with |b|^2 in (0, inf), u_nom = -b, which is
bitwise the closure's (-1.0) * b (negation and a product with -1.0 round
alike) and finite because |b|^2 is, so the state flies free; otherwise the
closure's expressions in the closure's order, u_nom = -(sigma / |b|^2) * b
(sigma / |b|^2 taken as 1 for the grad-norm-squared sigma, and 0 where
|b|^2 is 0), and the state flies free if d.u_nom on an idle shell is +-0
(u_nom finite).  Any other evaluation calls the closure.  Every clearance
computed at p then exceeds every rho0 (the lemma below), so every shell is
idle and outside, the control is u_nom and the clearance positive, and what
the margin block would have given is known in closed form: margins glam * 0
(gamma kind 1) or -(alpha_gain * rho) + d.u_nom (kind 0 and the unfiltered
stabilizer), and tightenings glam * 0 + alpha_gain * rho (kind 1 with
alpha_gain >= 0), 0 (kind 0) or none (unfiltered), none of them negative.
Of the tightenings the run returns only the negative ones, their count and
their smallest value, so a free evaluation is neither counted nor that
minimum.  A Gamma table, a shell without a positive rho0, kind 1 with a
negative alpha_gain and an arena without obstacles never fly free.
:func:`_integrate` records a free sample's row with h_min NaN and, after the
loop, :func:`_fill_free` writes its h_min and margins array-at-a-time with
those expressions, in the kernel's order.

The free radius: with u = 2**-53 and s = |b|_1 + max_i (|c_i|_1 + r_i) +
2**-450, rad = fl(h - free_above) - 2**-40 s and r2 = rad^2 (1 - 2**-40);
r2 = -1, so that nothing flies free, where rad <= 0, h <= free_above, h is
NaN or s >= 2**500 (a squared distance may overflow).  The lemma: a
clearance is 1-Lipschitz in the Euclidean norm, so each obstacle's exact
clearance at p is at least its exact clearance at b less e = |p - b|, and
a computed clearance fl(sqrt(ox^2 + oy^2) - r) at a state x is within about
4u (|x|_1 + |c|_1 + r) of exact (plus about 2**-537 where a square
underflows).  The computed squared distance is at least e^2 (1 - 4u) less
a few subnormals, so fl(q) < r2 gives e < rad.  As h <= |b|_1 + |c|_1 and
|p|_1 <= |b|_1 + 2e, the clearance errors at both ends and the rounding of
rad stay below 2**-40 s by a factor of thousands, the 2**-450 term covering
the underflows: every clearance computed at p is above h - e - 2**-40 s >
free_above >= rho0_i.  The test is made on the computed p itself, so the
rounding of the step offsets that led there never enters, and nothing
accumulates along a run.  A displacement is never longer than the path
that made it, so this proves more states free than a sum of step lengths.

Stationary states: where the attractive and repulsive fields balance (a
stall in front of a gap), ``dt * |u|`` drops below half an ulp of the state
and a step returns its own state bit for bit (signed zeros included).
:func:`_integrate` stops stepping there and fills the rest of the horizon
with copies of the last sample, which is what stepping would have recorded:
the controller is a pure function of the state, and so is the goal test.

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
from struct import Struct

import numpy as np

from .errors import INSIDE_OBSTACLE_MSG, InsideObstacleError
from .scenario import _as_point, max_lambda

# terminal status codes used by _integrate
REACHED_GOAL = 0
TIMEOUT = 1
DOMAIN_ERROR = 2

# _integrate writes its buffered rows into the record array once this many
# floats are buffered: one write per ~100 rows, and a buffer of a few kB
RECORD_CHUNK_FLOATS = 1024

# RK4 stages after the first: (offset of the stage state, weight in the sum)
RK4_STAGES = ((0.5, 2.0), (0.5, 2.0), (1.0, 1.0))

# The free radius of a base b (module docstring, "The free radius"): its
# rounding slack is FREE_SLACK * (|b|_1 + max_i(|c_i|_1 + r_i) + FREE_FLOOR),
# and nothing flies free from a base where that sum reaches FREE_SPAN_LIMIT
FREE_SLACK = 2.0 ** -40
FREE_FLOOR = 2.0 ** -450
FREE_SPAN_LIMIT = 2.0 ** 500


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


def control(x, scenario, packing, rows=None):
    """``(u, hmin, min_gamma, phis)`` of a packed controller at one state,
    ``phis`` one constraint margin per obstacle (``rows`` as in :func:`bind`).
    A filtered packing raises ``InsideObstacleError`` at a nonpositive
    clearance; the unfiltered stabilizer, defined everywhere, never raises."""
    px, py = _as_point(x)
    phis = np.empty(len(scenario.obstacles), dtype=np.float64)
    ux, uy, hmin, ming = bind(pack_model(scenario, packing), rows)(px, py, phis)
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
    """The free threshold, the largest rho0, or +inf where nothing may fly
    free: a state flies free only where the base's :func:`_free_r2` proves
    every clearance computed there above it.  It admits only tightenings
    that are never negative on an idle shell outside its obstacle: 0 (gamma
    kind 0; the unfiltered stabilizer evaluates none) or glam * 0 +
    alpha_gain * rho (kind 1 with alpha_gain >= 0).  A table's is not
    bounded below, and every shell needs a positive rho0."""
    alpha_gain, ckind, gkind = model[5], model[6], model[11]
    if ckind == 2 and (gkind == 2 or (gkind == 1 and not alpha_gain >= 0.0)):
        return math.inf
    return max((rho0 if rho0 > 0.0 else math.inf for _, _, _, rho0 in model[2]),
               default=math.inf)


def _free_r2(hmin, bx, by, free_above, corner):
    """The squared free radius of a base sample ``(bx, by)`` evaluated in
    full with smallest clearance ``hmin``: a later state whose computed
    squared distance from the base is below it flies free (module docstring,
    "The free radius"); -1.0 where none may.  ``corner`` is max_i(|c_i|_1 +
    r_i) + :data:`FREE_FLOOR`, ``free_above`` the :func:`_free_above`."""
    span = abs(bx) + abs(by) + corner
    if not (hmin > free_above and span < FREE_SPAN_LIMIT):
        return -1.0
    rad = (hmin - free_above) - FREE_SLACK * span
    return rad * rad * (1.0 - FREE_SLACK) if rad > 0.0 else -1.0


def _goal_threshold(goal_tol):
    """q*, the least double whose correctly rounded square root is at least
    ``goal_tol``: for every double q >= 0 (inf and NaN included),
    ``q < q*`` exactly when ``math.sqrt(q) < goal_tol``, as the square root
    is monotone.  A walk of a step or two by ``math.nextafter`` from
    fl(goal_tol ** 2) finds it; a goal_tol at or below 0, or NaN, gives 0,
    which no squared distance is below."""
    if not goal_tol > 0.0:
        return 0.0
    sqrt = math.sqrt
    nextafter = math.nextafter
    q = goal_tol * goal_tol
    while sqrt(q) < goal_tol:
        q = nextafter(q, math.inf)
    while q > 0.0 and sqrt(nextafter(q, 0.0)) >= goal_tol:
        q = nextafter(q, 0.0)
    return q


def bind(model, rows=None):
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

    ``rows``, an output buffer of m + 1 slots, reports the evaluation: each
    live shell writes its row ``(dx, dy, |d|^2)``, d = F_rep, into its slot
    and g_att = -sigma / |F_att|^2 goes into the last; other slots keep what
    they held.  Like ``phis``, it changes nothing ``point`` returns.
    """
    (gx, gy, obstacles, k_att, k_rep, alpha_gain,
     ckind, skind, scoef, stx, sty, gkind, glam, gtx, gty) = model
    sqrt = math.sqrt
    inf = math.inf
    nan = math.nan
    interp = np.interp
    filtered = ckind == 2
    shells = [(i, cx, cy, r, rho0) for i, (cx, cy, r, rho0) in enumerate(obstacles)]
    report = rows is not None

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
        if report:
            rows[-1] = gatt
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
                if report:
                    rows[i] = (dx, dy, dd)
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


def _flush(rec, row, smp, hms):
    """Write the samples buffered in the flat lists ``smp`` (``x, y, ux, uy``
    per sample) and ``hms`` (``k, h_min, 0.0, phi_1 .. phi_m`` per sample
    evaluated in full, ``k`` its row) into ``rec`` from ``row`` on, by row
    slice and row index (so any memory layout of ``rec`` is filled), with
    ``h_min`` NaN on the rows ``hms`` does not name; empty both lists and
    return the next row to write.

    A list becomes an array as the bytes of ``Struct(f"{len}d").pack``,
    which stores each float's bits as they are (signed zeros, subnormals
    and NaN payloads included); a ``Struct`` of its own keeps ``struct``'s
    format cache, which would take one entry per list length, from growing.  Each
    list is emptied once packed, so its floats and their bytes are not held
    together with the other list's.  A full sample's 0.0 stands in the
    ``V`` column, which the caller writes after the loop, so its row from
    ``h_min`` on is one scatter.
    """
    rows = len(smp) // 4
    end = row + rows
    rec[row:end, 1:5] = np.frombuffer(Struct(f"{len(smp)}d").pack(*smp)).reshape(rows, 4)
    smp.clear()
    rec[row:end, 5] = math.nan
    if hms:
        full = np.frombuffer(Struct(f"{len(hms)}d").pack(*hms)).reshape(-1, rec.shape[1] - 4)
        hms.clear()
        rec[full[:, 0].astype(np.intp), 5:] = full[:, 1:]
    return end


def _integrate(x0x, x0y, model, dt, n_max, goal_tol, stages, rec):
    """Closed-loop rollout of the single integrator under one controller.

    Samples are recorded as rows of the rollout record ``rec`` at the top of
    every step, then the goal test runs (the sample is within ``goal_tol``
    of the goal), then the state advances by one step
    of the stage table ``stages``: the stage slopes weighted by ``w`` (the
    first by 1) and summed, times ``dt / (1 + sum of w)``.  The rollout stops
    without recording when the current state -- or any stage state -- has
    nonpositive clearance, because the controller is undefined there, or when
    the control at the current state is not finite (say, |F_att|^2
    overflows), because every later state would be NaN.

    The loop records only what it computes per sample: ``x, y, ux, uy`` of
    every sample and, of each sample evaluated in full, its row, ``h_min``,
    a 0.0 in the place of ``V`` and the margins, in flat lists that
    :func:`_flush` writes into ``rec`` whenever a chunk of
    ``ceil(RECORD_CHUNK_FLOATS / (7 + m))`` whole rows is due, and once
    after the loop.  A free row is flushed with ``h_min`` NaN, which a full
    one never has.  After the loop, array-at-a-time with the scalar
    expressions in the scalar order: :func:`_fill_free` writes the free
    rows' ``h_min`` and margins, :func:`_potential` the ``V`` column, and
    ``t`` is ``k * dt`` (``k`` as a float, exact below 2**53).  Rows past
    the returned sample count are left as they were.

    The controller is bound once per call, by the module's :func:`bind` as
    it is at call time, and each stage offset ``c * dt`` is formed once.
    The free-flight rule lives here alone (module docstring, "Free
    flight"): a sample or stage whose squared distance from the base -- the
    last sample evaluated in full -- is below the base's :func:`_free_r2`
    forms u_nom inline; every other evaluation calls the closure, which
    runs every shell.  :func:`_free_above` and :func:`_free_r2` are read at
    call time.  The record, count and minimum are those of evaluating every
    shell everywhere.

    The goal test takes no square root: it compares the squared distance
    with q*, the :func:`_goal_threshold` of ``goal_tol``, formed once per
    call, so the same samples reach the goal as with ``sqrt(q) < goal_tol``.

    A stationary state (module docstring, "Stationary states") ends the
    stepping early with the same record: the remaining rows are copies of
    the last one (:func:`_repeat_row`), the status is a timeout, and the
    negative-tightening count advances by the evaluations the skipped steps
    would have made.

    Returns ``(n_samples, status, min_negative_gamma,
    n_negative_gamma_evals)``: the smallest tightening value below zero
    that any evaluation gave, +inf if none did, and the number of such
    evaluations.
    """
    (gx, gy, obstacles, k_att, _, _,
     _, skind, scoef, stx, sty) = model[:11]
    point = bind(model)
    free_r2 = _free_r2
    sigma = _sigma_value
    isfinite = math.isfinite
    inf = math.inf
    phis = [0.0] * len(obstacles)
    scratch = [0.0] * len(obstacles)
    # (c * dt) * kx is how ``xx + c * dt * kx`` groups, so the stage states
    # keep their bits
    offsets = tuple((c * dt, w) for c, w in stages)
    corner = max((abs(cx) + abs(cy) + abs(r) for cx, cy, r, _ in obstacles),
                 default=0.0) + FREE_FLOOR
    free_above = _free_above(model)
    # u_nom is -b, the closure's (-1.0) * b, where 0 < |b|^2 < unit_cap: +inf
    # for the grad-norm-squared sigma, 0 (never) for the others
    unit_cap = inf if skind == 0 else 0.0
    goal_q = _goal_threshold(goal_tol)
    # x, y, ux, uy of every sample, and row, h_min, a 0.0 for V and margins
    # of the full ones, flushed once a chunk of whole record rows is buffered
    smp = []
    hms = []
    chunk = -(-RECORD_CHUNK_FLOATS // (7 + len(obstacles)))
    row = 0
    # the sample that fills a chunk: the buffer holds samples row .. k
    due = chunk - 1
    step = dt / (1.0 + sum(w for _, w in stages))
    ming = inf
    negcount = 0
    xx = x0x
    yy = x0y
    status = TIMEOUT
    stall = -1
    # the base (basex, basey) is the last sample evaluated in full, r2 its
    # squared free radius; -1 flies nothing free before the first
    basex = basey = 0.0
    r2 = -1.0
    for k in range(n_max + 1):
        ddx = xx - gx
        ddy = yy - gy
        # free flight: u_nom with bind's closure's bits; the sample flies
        # free if u_nom is -b, or else if d.u_nom on an idle shell is +-0
        # (u_nom finite)
        ex = xx - basex
        ey = yy - basey
        flies = ex * ex + ey * ey < r2
        if flies:
            bx = k_att * ddx
            by = k_att * ddy
            bb = bx * bx + by * by
            if 0.0 < bb < unit_cap:
                # -b, finite as |b|^2 is
                ux = -bx
                uy = -by
            else:
                if bb > 0.0:
                    gatt = -1.0 if skind == 0 else -(
                        sigma(xx, yy, gx, gy, k_att, skind, scoef, stx, sty) / bb)
                else:
                    gatt = 0.0
                ux = gatt * bx
                uy = gatt * by
                flies = 0.0 * ux + 0.0 * uy == 0.0
        if not flies:
            ux, uy, hmin, mg = point(xx, yy, phis)
            if mg < 0.0:
                negcount += 1
                if mg < ming:
                    ming = mg
            # a free sample's control is u_nom, finite by the free test
            if hmin <= 0.0 or not (isfinite(ux) and isfinite(uy)):
                status = DOMAIN_ERROR
                break
            hms += (k, hmin, 0.0)
            hms += phis
            basex = xx
            basey = yy
            # the helper gives -1 as well at or below free_above, where the
            # shells are: the test only saves the call there
            r2 = free_r2(hmin, xx, yy, free_above, corner) if hmin > free_above else -1.0
        smp += (xx, yy, ux, uy)
        if k == due:
            row = _flush(rec, row, smp, hms)
            due += chunk
        if ddx * ddx + ddy * ddy < goal_q:
            status = REACHED_GOAL
            break
        if k == n_max:
            break
        neg_before_stages = negcount
        # sx, sy accumulate the weighted stage slopes left to right
        # (k1 + 2 k2 + 2 k3 + k4 for RK4)
        kx = sx = ux
        ky = sy = uy
        for h, w in offsets:
            px = xx + h * kx
            py = yy + h * ky
            # free flight as at a sample
            ex = px - basex
            ey = py - basey
            stage_flies = ex * ex + ey * ey < r2
            if stage_flies:
                bx = k_att * (px - gx)
                by = k_att * (py - gy)
                bb = bx * bx + by * by
                if 0.0 < bb < unit_cap:
                    kx = -bx
                    ky = -by
                else:
                    if bb > 0.0:
                        gatt = -1.0 if skind == 0 else -(
                            sigma(px, py, gx, gy, k_att, skind, scoef, stx, sty) / bb)
                    else:
                        gatt = 0.0
                    kx = gatt * bx
                    ky = gatt * by
                    stage_flies = 0.0 * kx + 0.0 * ky == 0.0
            if not stage_flies:
                kx, ky, hk, mgk = point(px, py, scratch)
                if mgk < 0.0:
                    negcount += 1
                    if mgk < ming:
                        ming = mgk
                if hk <= 0.0:
                    # a stage state touched an obstacle
                    break
            sx = sx + w * kx
            sy = sy + w * ky
        else:
            nx = xx + step * sx
            ny = yy + step * sy
            if (nx == xx and ny == yy and math.copysign(1.0, nx) == math.copysign(1.0, xx)
                    and math.copysign(1.0, ny) == math.copysign(1.0, yy)):
                # stationary: each skipped step evaluates its sample (counted
                # only if it was full: a free one's tightening is never
                # negative), and every one but the last its stages
                stall = k
                rest = n_max - k
                negcount += (rest * (not flies and mg < 0.0)
                             + (rest - 1) * (negcount - neg_before_stages))
                break
            xx = nx
            yy = ny
            continue
        status = DOMAIN_ERROR
        break
    n = _flush(rec, row, smp, hms)
    _fill_free(rec, n, model)
    rec[:n, 6] = _potential(rec[:n, 1], rec[:n, 2], gx, gy, k_att)
    if stall >= 0:
        # rows stall+1 .. n_max repeat row stall; t is written below
        n = n_max + 1
        _repeat_row(rec, stall, n)
    np.multiply(np.arange(n, dtype=np.float64), dt, out=rec[:n, 0])
    return n, status, ming, negcount


def _repeat_row(rec, k, n):
    """Copy row ``k`` of ``rec`` onto rows ``k + 1 .. n - 1``, every column,
    by block copies of whole rows that double the block: rows ``k .. done -
    1`` hold the row, and the next copy takes as many of them as fit, in any
    memory layout of ``rec``."""
    done = k + 1
    while done < n:
        size = min(done - k, n - done)
        rec[done:done + size] = rec[k:k + size]
        done += size


def _potential(xs, ys, gx, gy, k_att):
    """``fields.u_att`` at the states ``xs``, ``ys`` (arrays): its scalar
    expression ``0.5 * k_att * (dx * dx + dy * dy)`` array-at-a-time, on
    two temporaries.  The squared distance overflows to inf (and ``V`` to
    NaN where ``k_att`` is 0) as the scalar one does, without a warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        v = xs - gx
        v *= v
        dy = ys - gy
        dy *= dy
        v += dy
        v *= 0.5 * k_att
    return v


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


def _fill_free(rec, n, model):
    """Write ``h_min`` and the margins of the free rows among the first
    ``n`` of ``rec``, those whose ``h_min`` is the NaN mark, array-at-a-time,
    with the expressions of :func:`bind`'s margin block on an idle shell.
    On a free row the control is u_nom, so d.u_nom on an idle shell is
    formed from it as the kernel forms it.  A free row's tightenings are
    never negative, so they leave the run's count and minimum as they are."""
    rows = np.flatnonzero(np.isnan(rec[:n, 5]))
    if not rows.size:
        return
    alpha_gain, gkind, glam = model[5], model[11], model[12]
    # one row per obstacle, one column per free row
    rho = _idle_clearances(rec[rows, 1], rec[rows, 2], model[2])
    rec[rows, 5] = np.minimum.reduce(rho)  # no clearance of a free state is NaN or -0
    if gkind == 1:
        rec[rows, 7:] = glam * 0.0  # glam * dd, dd = 0
    else:
        rho *= alpha_gain
        rho = np.negative(rho, out=rho)
        rho += 0.0 * rec[rows, 3] + 0.0 * rec[rows, 4]  # d.u_nom
        rec[rows, 7:] = rho.T
