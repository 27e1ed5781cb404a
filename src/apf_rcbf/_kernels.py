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
* controller packing, built only by :func:`pack_controller`:
  ``(ckind, skind, scoef, stx, sty, gkind, glam, gtx, gty)``, table slots
  ``None`` unless the selector is a table
* controller kind: 1 = nominal only (no filtering), 2 = filtered
  (the pure potential-field controller and the equivalence filter are packed
  as kind 2 with ``skind=0, gkind=1, glam=1``)
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
NaN diagnostics, and the Python wrappers convert them into typed exceptions.
(``validate_scenario`` keeps obstacle radii at or above
``scenario.min_radius(k_rep)``, so the squared repulsive gradient stays finite
at every positive clearance, and ``simulate`` and ``generalized_control``
refuse a scaled-special lam above ``scenario.max_lambda``, so lam times it
does too.)

Per-state cost: most obstacles of a state lie beyond their influence shell,
where d = F_rep = (0, 0).  :func:`_control_point` forms that idle shell's
d.u_nom and lam |d|^2 once per state, from the same operands in the same
order as a live shell would, and skips the correction there, which needs
|d|^2 > 0.  The margins, NaN propagation included, keep their bits.

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

# terminal status codes used by _integrate
REACHED_GOAL = 0
TIMEOUT = 1
DOMAIN_ERROR = 2

# _integrate writes its buffered rows into the record array once this many
# floats are buffered: one write per ~100 rows, and a buffer of a few kB
RECORD_CHUNK_FLOATS = 1024

# RK4 stages after the first: (offset of the stage state, weight in the sum)
RK4_STAGES = ((0.5, 2.0), (0.5, 2.0), (1.0, 1.0))


def pack_controller(sigma_sel=None, gamma_sel=None, filtered=True):
    """The controller packing for the given tightening selectors.

    A missing ``sigma_sel`` means the squared gradient norm and a missing
    ``gamma_sel`` the unit scaled-special tightening: the packing under which
    the filtered stabilizer is the combined potential-field controller,
    whose correction collapses to exactly -F_rep per obstacle.  With
    ``filtered=False`` the stabilizer runs alone and ``gamma_sel`` is unused.
    """
    if sigma_sel is None:
        skind, scoef, stx, sty = 0, 1.0, None, None
    else:
        skind, scoef, stx, sty = sigma_sel.packed()
    if not filtered:
        return (1, skind, scoef, stx, sty, 0, 0.0, None, None)
    if gamma_sel is None:
        gkind, glam, gtx, gty = 1, 1.0, None, None
    else:
        gkind, glam, gtx, gty = gamma_sel.packed()
    return (2, skind, scoef, stx, sty, gkind, glam, gtx, gty)


def pack_model(scenario, packing):
    """The ``model`` tuple the controller kernels take: goal, obstacles and
    gains of ``scenario`` followed by the controller ``packing``."""
    obstacles = tuple((*obs.center.tolist(), obs.radius, obs.influence_margin)
                      for obs in scenario.obstacles)
    gx, gy = scenario.goal.tolist()
    return (gx, gy, obstacles, float(scenario.k_att), float(scenario.k_rep),
            float(scenario.alpha_gain), *packing)


def _att_value(x, y, gx, gy, k_att):
    dx = x - gx
    dy = y - gy
    return 0.5 * k_att * (dx * dx + dy * dy)


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


def _control_point(x, y, model, phis):
    """Evaluate one controller at one state.

    Fills ``phis`` (a list or array with one constraint margin per obstacle;
    NaN for obstacles the state is inside of) and returns ``(ux, uy, hmin,
    min_gamma)`` where ``min_gamma`` is the smallest tightening value
    evaluated at this state (+inf when no obstacle was active).  Callers must
    treat the control as undefined when ``hmin <= 0``.
    """
    (gx, gy, obstacles, k_att, k_rep, alpha_gain,
     ckind, skind, scoef, stx, sty, gkind, glam, gtx, gty) = model
    bx = k_att * (x - gx)
    by = k_att * (y - gy)
    bb = bx * bx + by * by
    if skind == 0:
        sig = bb  # _sigma_value's grad-norm-squared expression
    else:
        sig = _sigma_value(x, y, gx, gy, k_att, skind, scoef, stx, sty)
    if bb > 0.0:
        gatt = -(sig / bb)
    else:
        gatt = 0.0
    unx = gatt * bx
    uny = gatt * by
    # d.u_nom and lam |d|^2 on an idle shell, where d = F_rep = (0, 0): the
    # same products a live shell forms, so NaN or inf in u_nom propagates alike
    idle_du = 0.0 * unx + 0.0 * uny
    idle_ldd = glam * 0.0

    ux = unx
    uy = uny
    hmin = math.inf
    ming = math.inf
    for i, (cx, cy, r, rho0) in enumerate(obstacles):
        ox = x - cx
        oy = y - cy
        dist = math.sqrt(ox * ox + oy * oy)
        rho = dist - r
        if rho < hmin:
            hmin = rho
        if rho <= 0.0:
            phis[i] = math.nan
            continue
        alphah = alpha_gain * rho
        if rho >= rho0:
            # idle shell: the live margins below with the shared d = (0, 0)
            # terms; a zero row takes no correction
            if ckind == 1:
                phis[i] = -alphah + idle_du
                continue
            if gkind == 1:
                gam = idle_ldd + alphah - idle_du
                phi = idle_ldd
            elif gkind == 0:
                gam = 0.0
                phi = -alphah + idle_du
            else:
                gam = float(np.interp(rho, gtx, gty))
                phi = (-alphah + gam) + idle_du
            if gam < ming:
                ming = gam
            phis[i] = phi
            continue
        # fields.f_rep's expressions in its order: bitwise superposition
        coef = -(k_rep / (rho * rho)) * (1.0 / rho - 1.0 / rho0) / dist
        dx = coef * ox
        dy = coef * oy
        dd = dx * dx + dy * dy
        if ckind == 1:
            # No filtering: record the margin the zero-tightening filter
            # would have seen, as a diagnostic only.
            phis[i] = -alphah + (dx * unx + dy * uny)
            continue
        if gkind == 1:
            gam = glam * dd + alphah - (dx * unx + dy * uny)
            phi = glam * dd
        elif gkind == 0:
            gam = 0.0
            phi = -alphah + (dx * unx + dy * uny)
        else:
            gam = float(np.interp(rho, gtx, gty))
            phi = (-alphah + gam) + (dx * unx + dy * uny)
        if gam < ming:
            ming = gam
        phis[i] = phi
        if phi > 0.0 and dd > 0.0:
            grep = -(phi / dd)
            ux += grep * dx
            uy += grep * dy
    return ux, uy, hmin, ming


def _eval_controls(xs, ys, model):
    """Evaluate one controller over a batch of states (the grid sweep);
    returns the two control components as arrays."""
    phis = [0.0] * len(model[2])
    uxs = []
    uys = []
    for x, y in zip(xs.tolist(), ys.tolist()):
        ux, uy, _, _ = _control_point(x, y, model, phis)
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
    nonpositive clearance, because the controller is undefined there.

    Rows are collected in a flat Python list and written into ``rec`` a chunk
    of about :data:`RECORD_CHUNK_FLOATS` floats at a time, by row slices, and
    once more before the loop returns: one numpy element store costs about
    three list appends.  Rows past the returned sample count are left as
    they were.

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
    gx, gy, obstacles, k_att = model[:4]
    width = 7 + len(obstacles)
    phis = [0.0] * len(obstacles)
    scratch = [0.0] * len(obstacles)
    buf = []
    row = 0
    step = dt / (1.0 + sum(w for _, w in stages))
    ming = math.inf
    negcount = 0
    xx = x0x
    yy = x0y
    n = 0
    status = TIMEOUT
    stall = -1
    for k in range(n_max + 1):
        ux, uy, hmin, mg = _control_point(xx, yy, model, phis)
        if mg < ming:
            ming = mg
        if mg < 0.0:
            negcount += 1
        if hmin <= 0.0:
            status = DOMAIN_ERROR
            break
        ddx = xx - gx
        ddy = yy - gy
        dd2 = ddx * ddx + ddy * ddy
        # V = _att_value's expression on the goal test's squared distance
        buf += (k * dt, xx, yy, ux, uy, hmin, 0.5 * k_att * dd2)
        buf += phis
        if len(buf) >= RECORD_CHUNK_FLOATS:
            row = _flush(rec, row, buf, width)
        n = k + 1
        if math.sqrt(dd2) < goal_tol:
            status = REACHED_GOAL
            break
        if k == n_max:
            status = TIMEOUT
            break
        neg_before_stages = negcount
        # sx, sy accumulate the weighted stage slopes left to right
        # (k1 + 2 k2 + 2 k3 + k4 for RK4)
        kx = sx = ux
        ky = sy = uy
        hk = hmin
        for c, w in stages:
            kx, ky, hk, mgk = _control_point(xx + c * dt * kx, yy + c * dt * ky,
                                             model, scratch)
            if mgk < ming:
                ming = mgk
            if mgk < 0.0:
                negcount += 1
            if hk <= 0.0:
                break
            sx = sx + w * kx
            sy = sy + w * ky
        if hk <= 0.0:
            # a stage state touched an obstacle
            status = DOMAIN_ERROR
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
        xx = nx
        yy = ny
    _flush(rec, row, buf, width)
    if stall >= 0:
        # rows stall+1 .. n_max repeat row stall
        n = n_max + 1
        rec[stall + 1:n] = rec[stall]
        rec[stall + 1:n, 0] = np.arange(stall + 1, n) * dt
    return n, status, ming, negcount
