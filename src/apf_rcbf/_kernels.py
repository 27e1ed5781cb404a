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
  table over clearance (a model's kinds are read by :func:`_shape` alone,
  which runs any other gkind as the table)
* integrator: a Runge--Kutta stage table, ``(c, w)`` per stage after the
  first (state offset ``c * dt`` along the previous slope, weight ``w``);
  ``()`` is explicit Euler, :data:`RK4_STAGES` classic RK4
* rollout record: one ``(n_max + 1, 7 + m)`` float array whose rows are the
  CSV rows ``t, x, y, ux, uy, h_min, V, phi_1 .. phi_m``, filled by
  :func:`_integrate`
* terminal status: 0 = reached goal, 1 = timeout, 2 = domain error

Kernels never raise: domain violations are reported through return codes and
NaN diagnostics, which :func:`control`, the one door for single states,
turns into typed exceptions; only the packers, which every kernel route goes
through, refuse: :func:`pack_controller` a selector of the wrong class and
:func:`pack_model` a scaled-special lam above ``scenario.max_lambda``.
``fields`` does not use this module, so its descent law is an independent
check of the filter kernel.  (``validate_scenario`` keeps obstacle radii at
or above ``scenario.min_radius(k_rep)``, so the squared repulsive gradient
stays finite at every positive clearance, and the lam bound keeps lam times
it finite too.)

Per-state cost: one full evaluation, which evaluates every shell, comes
from one source, :data:`_ATT` (b = F_att), :data:`_NOM` (u_nom) and
:data:`_EVAL` with one :data:`_SHELL` per obstacle, written for a model's
kernel shape (:func:`_shape`) at a site (:data:`_SITES`): the m shells are
unrolled, each shell carries only its gamma kind's margin expressions, the
correction appears only where the shape has it, and only ``point`` holds
the ``rows`` stores, which it always fills, so an evaluation runs no loop
and tests no kind.  Its expressions are those of one closure that loops
over the shells and tests every kind per call, each rounded alike, so the
bits are too (``tests/test_kernels.py`` keeps that evaluation as its
reference); only temporaries are inlined, and an idle shell skips the
correction test, which it always fails.  Most obstacles of a state lie
beyond their influence shell, where d = F_rep = (0, 0).  Every shell runs
one margin block on |d|^2 and d.u_nom.  An idle shell does not form d: it
takes |d|^2 = 0 and a d.u_nom formed once per state from the operands a live
shell would use, in the same order, so its margins keep their bits, NaN
propagation included.  The correction needs |d|^2 > 0 and so skips it.
:func:`bind` compiles the evaluation once per process and shape as the
body of ``point``, whose model constants are closure cells: the door of
:func:`control`, the grid and verify.  A rollout never calls it (below).
Compiling a shape costs time linear in m, once per shape per process.

The rollout loop: :func:`_integrate`'s stepping loop comes from one source
template, :data:`_LOOP`, compiled once per process for each stage table,
kernel shape and trace flag, the stage weights taken as their
``repr(float(w))`` literals (so an int weight shares its float's loop and
-0.0 does not share 0.0's).  The model is unpacked into locals once per
call, with the values fixed for the call (below, "A note on arithmetic").
The stages are unrolled, each weight a literal (a unit weight none) and
each offset ``c * dt`` a local formed once per call; Euler has no stage
bookkeeping and its stall count no stage term.  The sample and every stage
are evaluation sites, each one copy of the block :data:`_SITE` under its
names: b, the free test (below), u_nom, and only where the state does not
fly free the rest of the full evaluation, the count of negative tightenings
and the domain test.  A site keeps only the lines it reads: the running
minimum, the count and the stall's count term only where a
tightening may be negative (:func:`_counted`: not the zero tightening, nor
any unfiltered shape), and each shell only the margin lines that the site
stores, the correction or the minimum reads (a stage stores no margin).
u_nom is formed once per evaluation, and a free state's control is that
u_nom.  After its block the sample keeps its own lines: its margins go from
locals straight into the record's buffer, and it becomes the base.  A sigma
of kind 0 has no ``sigma(...)`` branch, and any other kind no -b shortcut
nor stretch of free steps (below), under whose test a kind-0 site's block
goes.  The horizon test rides on the flush
test: the sample that fills a chunk is never past n_max.  So a step iterates
no table or shell, tests no kind and calls no controller, with the
expressions, order and so bits of the interpreted loop that called
``point`` (``tests/test_kernels.py`` keeps that loop as its reference).  A
traced shape appends ``(x, y, how)`` to a list for each evaluation, the
sample then its stages, ``how`` one of :data:`FULL`, :data:`FREE` (by the
ball test) and :data:`STRETCH` (in a stretch of free steps): one line at
the head of the full evaluation, of its ``else:`` and of a stretch's branch.
Only a run that asks for the trace runs one, and the untraced shapes hold
none of those lines.  :func:`_free_above`, :func:`_free_r2`,
:func:`_free_steps` and :func:`_flush` stay calls, read from the module at
call time.
Compiling a rollout shape costs time linear in m times its evaluation
sites, once per shape per process.

Free flight: :func:`_integrate` owns the rule, and :func:`_free_above` its
one threshold, the largest rho0 of a model whose idle tightenings are known
in closed form.  It keeps a *base* b, the last sample it evaluated in full,
and :func:`_free_r2` forms from that sample's smallest clearance h the
base's squared free radius r2.  A sample or stage state p with
fl((px - bx)^2 + (py - by)^2) < r2 takes the site's u_nom: for the
grad-norm-squared sigma with |b|^2 in (0, inf), u_nom = -b, which is
bitwise the full evaluation's (-1.0) * b (negation and a product with -1.0
round alike) and finite because |b|^2 is, so the state flies free;
otherwise the full evaluation's u_nom = -(sigma / |b|^2) * b (sigma / |b|^2
taken as 1 for the grad-norm-squared sigma, and 0 where |b|^2 is 0), and
the state flies free if d.u_nom on an idle shell is +-0 (u_nom finite).
Any other evaluation is full.  Every clearance computed at p then exceeds
every rho0 (the lemma below), so every shell is idle and outside, the
control is u_nom and the clearance positive, and what the margin block
would have given is known in closed form: margins glam * 0 (gamma class 1)
or -(alpha_gain * rho) + d.u_nom (class 0), and tightenings glam * 0 +
alpha_gain * rho (filtered class 1 with alpha_gain >= 0), 0 (filtered class
0) or none (unfiltered), none of them negative.
Of the tightenings the run returns only the negative ones, their count and
their smallest value, so a free evaluation is neither counted nor that
minimum.  The table class, filtered or not, a shell without a positive
rho0, a filtered class 1 with a negative alpha_gain and an arena without
obstacles never fly free.
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

Free steps: for the grad-norm-squared sigma a free state's control is the
linear law u = -k_att (x - g), so a free stretch runs straight at the goal.
A sample that flies free by the -b shortcut asks :func:`_free_steps` for N,
the whole steps from it that provably fly free, and the loop runs them with
no test: the counter ``whole`` at each sample and one ``if whole:`` per
stage, which takes nk * (p - g), nk = -k_att, bitwise -(k_att * (p - g))
("A note on arithmetic"), the bits of the -b the test would have given.
The lemma: let a = dt k_att be in (0, 1/2] and every stage of
the table have c in [0, 1] and w >= 0.  In exact arithmetic a stage state
of a step from x is g + l (x - g) with l = 1 - c a l' in [1/2, 1] (l' the
previous stage's, 1 for the first), and the next sample g + m (x - g) with
m = 1 - a (1 + sum w_j l_j) / (1 + sum w) in [1/2, 1]: every state of N
steps lies on the segment from x to g, within N reach of x, reach = a |x -
g|.  The step is affine with factors in [0, 1] toward g, so it does not
amplify the rounding of earlier steps: each step adds at most about (8 + s)
u (|x|_1 + 3 |x - g|_1) for a table of s stages, and N steps drift at most
N times that.  The helper takes the drift of a step as 2**-40 (1 + s) span,
span = |x|_1 + 3 |x - g|_1 + 2**-450, and reach with a factor 1 + 2**-40
(1 + s), and cuts N so that N (reach + drift) stays below both
sqrt(r2) (1 - 2**-40) - |x - b| (1 + 2**-40) and |x - g| (1 - 2**-40) / 2.
So every state of the stretch lies within sqrt(r2) (1 - 2**-40) of the base,
where the computed squared distance is below r2, and keeps at least half
its distance to the goal, so that with the sample's |b|^2 in [2**-1000,
2**1000] each |b|^2 of the stretch is in (0, inf): the free test and the -b
shortcut pass at every state of it, and no decision changes.  A rate
outside (0, 1/2] (the loop passes NaN for a table outside the lemma), |b|^2
outside that range or a span of 2**500 or more grant nothing.  The loop
asks only where the Euler step's end x - a (x - g) lies in the free radius,
which every stretch needs up to rounding, so it skips the calls that would
grant nothing; a skipped call changes no bit either.

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

No evaluation or step of a compiled source forms a value that is fixed for
the whole call: :data:`_HOISTED`'s locals are formed once, at the unpack,
and only in the sources that read them.  Each rewrite keeps the bits of the
expression it replaces, because rounding to nearest is symmetric in sign:
fl((-a) * b) = -fl(a * b) and fl((-a) / b) = -fl(a / b), signed zeros,
subnormals and infinities included.  So a stretch's control is ``nk * d``
with ``nk = -k_att`` for ``-(k_att * d)``, and a live shell's coefficient
``nkr / (rho * rho) * ...`` with ``nkr = -k_rep`` for ``-(k_rep / (rho *
rho)) * ...``.  A class-1 idle shell's margin is ``glam0 = glam * 0.0``,
the same product formed once, and a unit stage weight adds the slope
itself, since 1.0 * x is x.  Only a NaN result, whose sign IEEE 754 leaves
open, may come out with another sign bit; neither form fixes it, a stretch
(finite k_att and d) never forms one, and a rollout records no state whose
clearance is NaN.
"""

from __future__ import annotations

import functools
import linecache
import math
from struct import Struct

import numpy as np

from .errors import INSIDE_OBSTACLE_MSG, InsideObstacleError
from .scenario import _as_point, max_lambda

# terminal status codes used by _integrate
REACHED_GOAL = 0
TIMEOUT = 1
DOMAIN_ERROR = 2

# how a traced rollout made each evaluation (_integrate's ``trace``): in
# full, free by the ball test, or in a stretch of free steps
FULL = 0
FREE = 1
STRETCH = 2

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
# a stretch of free steps (module docstring, "Free steps") starts only from
# a sample whose |b|^2 lies in this range
FREE_SQUARES = (2.0 ** -1000, 2.0 ** 1000)


def pack_controller(sigma_sel, gamma_sel):
    """The controller packing for the given tightening selectors;
    ``gamma_sel=None`` packs the unfiltered stabilizer.  ``ValueError``
    unless ``sigma_sel`` is a ``SigmaSelector`` and ``gamma_sel`` a
    ``GammaSelector`` or None, so that swapped selectors never pack."""
    from .clf import GammaSelector, SigmaSelector  # clf imports this module

    if not isinstance(sigma_sel, SigmaSelector):
        raise ValueError(f"sigma selector must be a SigmaSelector, got {sigma_sel!r}")
    if gamma_sel is not None and not isinstance(gamma_sel, GammaSelector):
        raise ValueError(f"gamma selector must be a GammaSelector or None, got {gamma_sel!r}")
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
    model = pack_model(scenario, packing)
    phis = np.empty(len(scenario.obstacles), dtype=np.float64)
    ux, uy, hmin, ming = bind(model, rows)(px, py, phis)
    if _shape(model)[2] and hmin <= 0.0:
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


def _shape(model):
    """The kernel shape of ``model``, ``(m, gamma class, filtered, skind ==
    0)``: its obstacle count; the key of its gkind's margin block in
    :data:`_MARGINS`, 0 (zero), 1 (scaled-special) or 2, the table, for any
    other gkind; whether it is filtered (ckind 2); and whether its sigma is
    the squared gradient norm.  The one reader of the model's kinds: the
    compiled doors (:func:`bind`, :func:`_integrate`) key on it, and so do
    the free-flight rule (:func:`_free_above`, :func:`_fill_free`) and
    :func:`control`'s raise rule."""
    gkind = model[11]
    return len(model[2]), gkind if gkind in (0, 1) else 2, model[6] == 2, model[7] == 0


def _free_above(model):
    """The free threshold, the largest rho0, or +inf where nothing may fly
    free: a state flies free only where the base's :func:`_free_r2` proves
    every clearance computed there above it.  It admits only the gamma
    classes whose idle margins :func:`_fill_free` knows in closed form, 0
    and 1, and of those only tightenings that are never negative on an idle
    shell outside its obstacle: 0 (class 0; the unfiltered stabilizer
    evaluates none) or glam * 0 + alpha_gain * rho (class 1 with alpha_gain
    >= 0).  A table's margins take its value, which is not bounded below,
    and every shell needs a positive rho0."""
    _, gclass, filtered, _ = _shape(model)
    if gclass == 2 or (filtered and gclass == 1 and not model[5] >= 0.0):
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


def _free_steps(xx, yy, ddx, ddy, ex, ey, r2, bb, rate, stages):
    """The whole steps that provably fly free from a sample ``(xx, yy)``
    that flew free by the unit shortcut (module docstring, "Free steps"):
    ``ddx, ddy`` its offset from the goal, ``ex, ey`` from the base, whose
    squared free radius is ``r2``, and ``bb`` its |b|^2; ``rate`` is dt *
    k_att, NaN for a table outside the lemma, and ``stages`` the table's
    length.  0 where the lemma grants nothing."""
    if not (0.0 < rate <= 0.5 and FREE_SQUARES[0] <= bb <= FREE_SQUARES[1]):
        return 0
    span = abs(xx) + abs(yy) + 3.0 * (abs(ddx) + abs(ddy)) + FREE_FLOOR
    if not span < FREE_SPAN_LIMIT:
        return 0
    slack = FREE_SLACK * (1 + stages)
    dist = math.hypot(ddx, ddy)
    room = min(math.sqrt(r2) * (1.0 - FREE_SLACK) - math.hypot(ex, ey) * (1.0 + FREE_SLACK),
               0.5 * dist * (1.0 - FREE_SLACK))
    return int(room / (rate * dist * (1.0 + slack) + slack * span)) if room > 0.0 else 0


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


# The model's constants and the helpers a full evaluation reads, bound once:
# bind's factory and _integrate's loop open with it, {hoisted} holding the
# lines of _HOISTED that the source reads
_UNPACK = """
    (gx, gy, obstacles, k_att, k_rep, alpha_gain,
     ckind, skind, scoef, stx, sty, gkind, glam, gtx, gty) = model{obstacles}{hoisted}
    sqrt = math.sqrt
    inf = math.inf
    nan = math.nan
    interp = np.interp
    sigma = _sigma_value"""

# Values fixed for a whole call, formed once at the unpack of a source that
# reads them (_unpack), each bitwise the expression it replaces (module
# docstring, "A note on arithmetic"): a stretch's control nk * d, a live
# shell's coefficient nkr / (rho * rho) * ..., and a class-1 idle shell's
# margin
_HOISTED = {"nk": "nk = -k_att", "nkr": "nkr = -k_rep", "glam0": "glam0 = glam * 0.0"}

# The controller's door: bind compiles it once per shape into a factory,
# which unpacks a model into closure cells and returns ``point``, whose body
# is one evaluation (_ATT, _NOM, then _EVAL) at its "point" site.
_POINT = """\
def factory(model, rows):{unpack}

    def point(x, y, phis):{evaluation}
        return ux, uy, hmin, ming

    return point
"""

# b = F_att at the state ({x}, {y}) of a site (_SITES), {dx} and {dy} its
# offsets from the goal, and |b|^2
_ATT = """
        bx = k_att * {dx}
        by = k_att * {dy}
        bb = bx * bx + by * by"""

# u_nom = g_att * b, g_att of the shape's sigma kind (_GATT) and 0 where
# |b|^2 is 0, into the control ({ux}, {uy}) and into (unx, uny), which the
# corrections leave as they are; and idle_du, d.u_nom on an idle shell, where
# d = F_rep = (0, 0): the product a live shell forms, so NaN or inf in u_nom
# propagates alike.  Formed once per evaluation: the full evaluation and
# free flight both read it.
_NOM = """
        gatt = {gatt} if bb > 0.0 else 0.0
        {ux} = unx = gatt * bx
        {uy} = uny = gatt * by
        idle_du = 0.0 * unx + 0.0 * uny"""

# The rest of the one full evaluation, after _ATT and _NOM, written at a
# site: the smallest clearance {hmin} and tightening {ming}, and the
# corrections added to the control.  The site's {report} stores g_att, and a
# shape fills the other slots: one copy of _SHELL per obstacle, each with
# the lines of its gamma kind's margin block (_MARGINS) that the site reads
# and, where it is filtered, the running minimum and the correction
# (_FILTERED).  So an evaluation holds no loop and tests no kind.
_EVAL = """{report}
        {hmin} = inf{minimum}{shells}"""

# One shell, obstacle {i}.  An idle shell's margin block takes |d|^2 = 0.0
# and idle_du, and skips the correction, which needs |d|^2 > 0 (a NaN
# clearance fails the idle test and keeps the live branch's bits); a live
# one forms d with fields.f_rep's expressions in its order, bitwise
# superposition.  The site's {store} keeps the margin phi, {row} the live
# row (d, |d|^2), and {inside} is what a state inside the obstacle records.
_SHELL = """
        ox = {x} - cx_{i}
        oy = {y} - cy_{i}
        dist = sqrt(ox * ox + oy * oy)
        rho = dist - r_{i}
        if rho < {hmin}:
            {hmin} = rho
        if rho <= 0.0:
            {inside}
        elif rho >= rho0_{i}:{idle}
        else:
            coef = nkr / (rho * rho) * (1.0 / rho - 1.0 / rho0_{i}) / dist
            dx = coef * ox
            dy = coef * oy
            dd = dx * dx + dy * dy{row}{live}{correct}"""

# The margin block of each gamma kind on |d|^2 and d.u_nom, one line for
# the tightening gam and one for the margin phi: {du} is idle_du on an idle
# shell and d.u_nom on a live one, {lam_dd} lam * |d|^2, glam0 (glam * 0.0)
# on an idle shell and glam * dd on a live one.  Kind 1, scaled-special,
# takes phi = lam * D in closed form (module docstring, "A note on
# arithmetic"); a kind other than 0 and 1 is the table.
_MARGINS = {
    1: dict(phi="phi = {lam_dd}", gam="gam = phi + alpha_gain * rho - {du}"),
    0: dict(gam="gam = 0.0", phi="phi = -(alpha_gain * rho) + {du}"),
    2: dict(gam="gam = float(interp(rho, gtx, gty))",
            phi="phi = (-(alpha_gain * rho) + gam) + {du}"),
}

# sigma / bb at the state ({x}, {y}): bb / bb is 1 for the grad-norm-squared
# sigma (kind 0), also where bb overflows, so u_nom is -b there
_GATT = {True: "-1.0",
         False: "-(sigma({x}, {y}, gx, gy, k_att, skind, scoef, stx, sty) / bb)"}

# a filtered shape's running minimum of the tightening, and its correction;
# kind 1's phi = glam * dd > 0 implies dd > 0, which the others test
_FILTERED = ("""
            if gam < {ming}:
                {ming} = gam""", """
            if phi > 0.0{dd}:
                grep = -(phi / dd)
                {ux} += grep * dx
                {uy} += grep * dy""")

# The names of each evaluation site.  ``point`` stores the margins in
# ``phis`` and reports into ``rows`` (bind) each live row and g_att; a
# rollout's sample keeps the margins in locals phi_0 .. phi_{m-1}, which go
# to the record's buffer as they are, and a stage keeps none.  A
# rollout site's state flies free where {free} holds (_SITE), and a state
# evaluated in full where {domain} holds ends the rollout, which records
# nothing of it: a state inside an obstacle, or a sample whose control is
# not finite (a free sample's, u_nom, is finite by the free test).
_SITES = {
    "point": dict(x="x", y="y", dx="(x - gx)", dy="(y - gy)", ux="ux", uy="uy", hmin="hmin",
                  ming="ming", store="\n            phis[{i}] = phi", inside="phis[{i}] = nan",
                  row="\n            rows[{i}] = (dx, dy, dd)", report="\n        rows[-1] = gatt"),
    "sample": dict(x="xx", y="yy", dx="ddx", dy="ddy", ux="ux", uy="uy", hmin="hmin",
                   ming="mg", store="\n            phi_{i} = phi", inside="pass", row="", report="",
                   free="flies", domain="hmin <= 0.0 or not (isfinite(ux) and isfinite(uy))"),
    "stage": dict(x="px", y="py", dx="(px - gx)", dy="(py - gy)", ux="kx", uy="ky",
                  hmin="hk", ming="mgk", store="", inside="pass", row="", report="",
                  free="free", domain="hk <= 0.0"),
}


def _nominal(site, unit_sigma):
    """The source of :data:`_NOM` at ``site``, a key of :data:`_SITES`, for
    the sigma kind."""
    names = _SITES[site]
    return _NOM.format(gatt=_GATT[unit_sigma].format(**names), **names)


def _evaluation(site, m, gclass, filtered):
    """The source of :data:`_EVAL` for ``m`` shells of the gamma class
    ``gclass``, ``filtered`` or not, at ``site``, indented as ``point``'s
    body.  A rollout site keeps the running minimum only where a tightening
    may be negative (:func:`_counted`), and a shell only the margin lines it
    reads: phi where the site stores it or the shell corrects, gam where the
    minimum or a kept phi reads it, and phi again where a kept gam does."""
    names = _SITES[site]
    minimum = filtered and (site == "point" or _counted(gclass, filtered))
    lines = _MARGINS[gclass]

    def margins(lam_dd, du, corrects):
        phi = bool(names["store"]) or corrects
        gam = minimum or (gclass == 2 and phi)
        phi = phi or (gclass == 1 and gam)
        block = "".join(f"\n            {line}" for name, line in lines.items()
                        if (phi if name == "phi" else gam))
        block += _FILTERED[0] if minimum else ""
        block = block.format(lam_dd=lam_dd, du=du, **names)
        return (block + names["store"]) or "\n            pass"

    correct = _FILTERED[1].format(dd="" if gclass == 1 else " and dd > 0.0", **names)
    # {i} passes through the site's names and is filled per shell
    shell = _SHELL.format(i="{i}", idle=margins("glam0", "idle_du", False),
                          live=margins("glam * dd", "(dx * unx + dy * uny)", filtered),
                          correct=correct if filtered else "", **names)
    return _EVAL.format(minimum=f"\n        {names['ming']} = inf" if site == "point" or minimum
                        else "", shells="".join(shell.format(i=i) for i in range(m)), **names)


def _unpack(m, gclass, stretches):
    """The source of :data:`_UNPACK` for a model of ``m`` obstacles of the
    gamma class ``gclass``, in a source with ``stretches`` of free steps or
    not, with the lines of :data:`_HOISTED` that the source reads: nk in a
    stretch, nkr in a live shell and glam0 in an idle scaled-special shell,
    whose margin ``point`` and the sample store."""
    cells = ", ".join(f"(cx_{i}, cy_{i}, r_{i}, rho0_{i})" for i in range(m))
    reads = {"nk": stretches, "nkr": m > 0, "glam0": m > 0 and gclass == 1}
    return _UNPACK.format(obstacles=f"\n    ({cells},) = obstacles" if m else "", hoisted="".join(
        f"\n    {line}" for name, line in _HOISTED.items() if reads[name]))


def _exec(source, name):
    """The one function that ``source`` defines, compiled under ``name``;
    the source is kept in ``linecache`` for tracebacks."""
    linecache.cache[name] = (len(source), None, source.splitlines(True), name)
    scope = {}
    exec(compile(source, name, "exec"), globals(), scope)
    (function,) = scope.values()
    return function


@functools.cache
def _compile(shape):
    """The factory of ``point`` for a kernel shape (:func:`_shape`):
    :data:`_POINT` with its slots filled, the ``rows`` stores included,
    compiled by :func:`_exec` once per process."""
    m, gclass, filtered, unit_sigma = shape
    source = _POINT.format(unpack=_unpack(m, gclass, False), evaluation=(
        _ATT.format(**_SITES["point"]) + _nominal("point", unit_sigma)
        + _evaluation("point", m, gclass, filtered)))
    return _exec(source, f"<_kernels.bind m={m} gamma={gclass} filtered={filtered} "
                         f"unit_sigma={unit_sigma}>")


def bind(model, rows=None):
    """The controller of ``model``, unpacked once: returns ``point(x, y,
    phis) -> (ux, uy, hmin, min_gamma)``.

    ``point`` evaluates the controller at one state, every shell included.
    It fills ``phis`` (a list or array with one constraint margin per
    obstacle; NaN for obstacles the state is inside of) and returns the
    control, the smallest clearance and ``min_gamma``, the smallest
    tightening value evaluated at this state (+inf if there was none, and
    always for the unfiltered stabilizer).  Callers must treat the control
    as undefined when ``hmin <= 0``.  :func:`control` and
    :func:`_eval_controls` call it; :func:`_integrate` does not, its loop
    holding the same full evaluation inline (module docstring, "The rollout
    loop").

    ``point`` always fills ``rows``, an output buffer of m + 1 slots, with
    the evaluation: each live shell writes its row ``(dx, dy, |d|^2)``, d =
    F_rep, into its slot and g_att = -sigma / |F_att|^2 goes into the last;
    other slots keep what they held.  Without one the factory is given a
    scratch list of m + 1 slots, so ``rows`` selects no code.  Like
    ``phis``, it changes nothing ``point`` returns.

    ``point`` is compiled from the one template :data:`_POINT`, its body
    one full evaluation, by :func:`_compile` once per process for each
    kernel shape (:func:`_shape`); the factory unpacks ``model`` into
    closure cells (module docstring, "Per-state cost").  Its expressions
    are those of one loop over the shells that tests every kind per call,
    ``1.0 / rho0`` included, so a bind computes at most -k_rep and glam *
    0.0, the :data:`_HOISTED` cells ``point`` reads (module docstring, "A
    note on arithmetic"), and raises only where unpacking the model does.
    """
    return _compile(_shape(model))(model, [None] * (len(model[2]) + 1) if rows is None else rows)


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


# The rollout loop's one source: _integrate compiles it once per shape into
# ``loop`` (module docstring, "The rollout loop").  The sample is one
# evaluation site (_SITE) with its own lines (_KEEP); the stages are unrolled
# (_STAGE), each one site.  ``due``, the sample that fills a chunk, never
# passes n_max, so one compare per sample tests both.
_LOOP = """\
def loop(xx, yy, model, offsets, step, n_max, goal_q, free_above, corner, rate, rec, smp,
         hms, chunk, trace):{unpack}
    [{offsets}] = offsets
    free_r2 = _free_r2
    isfinite = math.isfinite
    row = 0
    due = min(chunk - 1, n_max)
    ming = inf
    negcount = 0
    status = TIMEOUT
    stall = -1
    # the base (basex, basey) is the last sample evaluated in full, r2 its
    # squared free radius; -1 flies nothing free before the first
    basex = basey = 0.0
    r2 = -1.0{stretch}
    for k in range(n_max + 1):
        ddx = xx - gx
        ddy = yy - gy{sample}
        smp += (xx, yy, ux, uy)
        if ddx * ddx + ddy * ddy < goal_q:
            status = REACHED_GOAL
            break
        if k == due:
            if k == n_max:
                break
            row = _flush(rec, row, smp, hms)
            due = min(due + chunk, n_max){stages}
        nx = xx + step * {sx}
        ny = yy + step * {sy}
        if (nx == xx and ny == yy and math.copysign(1.0, nx) == math.copysign(1.0, xx)
                and math.copysign(1.0, ny) == math.copysign(1.0, yy)):
            stall = k{stall}
            break
        xx = nx
        yy = ny
    return row, status, stall, ming, negcount
"""

# One evaluation site of the loop, the sample or a stage, at the state ({x},
# {y}) (module docstring, "The rollout loop"); {nominal} is _NOM and _FREE,
# {count} _COUNT where a tightening may be negative, and {trace} a traced
# shape's entry of a full evaluation
_SITE = _ATT + """
        ex = {x} - basex
        ey = {y} - basey
        {free} = ex * ex + ey * ey < r2{nominal}
        if not {free}:{trace}{evaluation}{count}
            if {domain}:
                status = DOMAIN_ERROR
                break"""

_COUNT = """
            if {ming} < 0.0:
                negcount += 1
                if {ming} < ming:
                    ming = {ming}"""

# the sample's own lines after a full evaluation: its margins go to the
# buffer, and it becomes the base
_KEEP = """
            hms += (k, hmin, 0.0{margins})
            basex = xx
            basey = yy
            # the helper gives -1 as well at or below free_above, where the
            # shells are: the test only saves the call there
            r2 = free_r2(hmin, xx, yy, free_above, corner) if hmin > free_above else -1.0"""

# a state in the free radius flies free if d.u_nom on an idle shell is +-0
# (u_nom finite); the update is guarded, so a full evaluation stores nothing
_FREE = """
        if {free}:
            {free} = idle_du == 0.0"""

# the grad-norm-squared sigma's shortcut: with |b|^2 in (0, inf) a state in
# the free radius takes u_nom = -b, finite, and flies free; _NOM and _FREE
# go under its else.  At the sample, {grant} asks for a stretch where the
# Euler step's end, x - dt * k_att * (x - g), lies in the free radius: a
# stretch needs room for a step of that length, so the test saves the calls
# that would grant nothing (and every call where the rate is NaN), and a
# call it saves changes no bit.
_UNIT = """
        if {free} and 0.0 < bb < inf:
            {ux} = -bx
            {uy} = -by{grant}
        else:"""

# a loop of the grad-norm-squared sigma's stretches: ``whole`` is the steps
# left in a stretch of free steps, the one being taken included, and a
# sample that ends one of them takes it off
_STRETCH = """
    free_steps = _free_steps
    whole = 0"""

_GRANT = """
            qx = ex - rate * ddx
            qy = ey - rate * ddy
            if qx * qx + qy * qy < r2:
                whole = free_steps(xx, yy, ddx, ddy, ex, ey, r2, bb, rate, {stages})"""

# a stretch of whole free steps (module docstring, "Free steps"): a sample
# ends a step of it and a stage lies in one, so either takes u_nom = -b with
# no test; the site's block goes under the else, one level deeper
_WHOLE = """
        if whole:{tick}{trace}
            {ux} = nk * {dx}
            {uy} = nk * {dy}
        else:"""

# the stages after the first: kx, ky the last slope, sx, sy the weighted
# slopes summed left to right (k1 + 2 k2 + 2 k3 + k4 for RK4), {w} the
# weight's factor, none for a unit weight (1.0 * k is k, bit for bit);
# (c * dt) * kx is how ``xx + c * dt * kx`` groups, so the stage states keep
# their bits
_SLOPES = """
        kx = sx = ux
        ky = sy = uy"""

_STAGE = """
        px = xx + h{j} * kx
        py = yy + h{j} * ky{site}
        sx = sx + {w}kx
        sy = sy + {w}ky"""

# stationary: each skipped step evaluates its sample (counted only if it was
# full: a free one's tightening is never negative), and every one but the
# last its stages; {stages} is the stages' term, where there are stages
_STALL = """
            rest = n_max - k
            negcount += rest * (not flies and mg < 0.0){stages}"""


def _counted(gclass, filtered):
    """Whether a rollout of this gamma class, ``filtered`` or not, may meet a
    negative tightening, which it counts: the zero tightening (class 0) is
    never negative, and the unfiltered stabilizer evaluates none."""
    return filtered and gclass != 0


@functools.cache
def _compile_loop(weights, shape, traced):
    """The rollout loop of the stage ``weights``, as ``repr(float(w))``
    literals, a kernel shape (:func:`_shape`) and ``traced``: :data:`_LOOP`
    with its slots filled, compiled by :func:`_exec` once per process."""
    m, gclass, filtered, unit_sigma = shape
    counted = _counted(gclass, filtered)

    def site(name):
        names = _SITES[name]
        sample = name == "sample"
        nominal = _nominal(name, unit_sigma) + _FREE.format(**names)
        if unit_sigma:
            grant = _GRANT.format(stages=len(weights)) if sample else ""
            nominal = _UNIT.format(grant=grant, **names) + nominal.replace("\n", "\n    ")
        trace = "\n            trace.append(({x}, {y}, {how}))" if traced else ""
        traces = {how: trace.format(how=how, **names) for how in ("FULL", "FREE", "STRETCH")}
        # point's evaluation one level deeper: under ``if not {free}:``
        evaluation = _evaluation(name, m, gclass, filtered).replace("\n", "\n    ")
        block = _SITE.format(nominal=nominal, trace=traces["FULL"], evaluation=evaluation,
                             count=_COUNT.format(**names) if counted else "", **names)
        if sample:
            block += _KEEP.format(margins="".join(f", phi_{i}" for i in range(m)))
        if traced:
            block += "\n        else:" + traces["FREE"]
        if not unit_sigma:
            return block
        return _WHOLE.format(tick="\n            whole -= 1" if sample else "",
                             trace=traces["STRETCH"], **names) + block.replace("\n", "\n    ")

    stage = site("stage")
    source = _LOOP.format(
        unpack=_unpack(m, gclass, unit_sigma),
        offsets=", ".join(f"h{j}" for j in range(len(weights))),
        stretch=_STRETCH if unit_sigma else "", sample=site("sample"),
        stages=(("\n        neg_before = negcount" if counted else "") + _SLOPES + "".join(
            _STAGE.format(j=j, w="" if w == "1.0" else f"{w} * ", site=stage)
            for j, w in enumerate(weights))) if weights else "",
        sx="sx" if weights else "ux", sy="sy" if weights else "uy",
        stall=_STALL.format(stages=" + (rest - 1) * (negcount - neg_before)" if weights else "")
        if counted else "")
    return _exec(source, f"<_kernels._integrate weights=({', '.join(weights)}) "
                         f"unit_sigma={unit_sigma} m={m} gamma={gclass} filtered={filtered} "
                         f"traced={traced}>")


def _integrate(x0x, x0y, model, dt, n_max, goal_tol, stages, rec, trace=None):
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

    The stepping loop is one function per stage table, kernel shape
    (:func:`_shape`) and trace flag, compiled from :data:`_LOOP` by
    :func:`_compile_loop`; its sample and stages are one evaluation block
    each (module docstring, "The rollout loop"), and the free-flight rule
    lives here alone (module docstring, "Free flight"), with its stretches
    of free steps for the grad-norm-squared sigma ("Free steps"), whose
    rate dt * k_att is formed here.  The record, count and minimum are those
    of evaluating every shell everywhere.

    ``trace``, a list, runs the traced shape of the loop, which appends
    ``(x, y, how)`` for each evaluation the run makes, in order, the sample
    then its stages: ``how`` is :data:`FULL` where every shell was
    evaluated, :data:`FREE` where the state flew free by the ball test and
    :data:`STRETCH` where it lay in a stretch of free steps.  A stall's
    skipped steps make no evaluation and leave no entry.  The run is
    otherwise the same.  The measurement tools and the tests read it;
    without one the loop traces nothing.

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
    gx, gy, obstacles, k_att = model[:4]
    loop = _compile_loop(tuple(repr(float(w)) for _, w in stages), _shape(model),
                         trace is not None)
    corner = max((abs(cx) + abs(cy) + abs(r) for cx, cy, r, _ in obstacles),
                 default=0.0) + FREE_FLOOR
    # dt * k_att for _free_steps; NaN for a table outside its lemma, which
    # fails the loop's test before every call
    rate = dt * k_att if all(0.0 <= c <= 1.0 and w >= 0.0 for c, w in stages) else math.nan
    # x, y, ux, uy of every sample, and row, h_min, a 0.0 for V and margins
    # of the full ones, flushed once a chunk of whole record rows is buffered
    smp = []
    hms = []
    row, status, stall, ming, negcount = loop(
        x0x, x0y, model, [c * dt for c, _ in stages],
        dt / (1.0 + sum(w for _, w in stages)), n_max, _goal_threshold(goal_tol),
        _free_above(model), corner, rate, rec, smp, hms,
        -(-RECORD_CHUNK_FLOATS // (7 + len(obstacles))), trace)
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
    with the expressions of :func:`bind`'s margin block on an idle shell of
    the model's gamma class, 0 or 1 (:func:`_free_above` flies no table
    free).  On a free row the control is u_nom, so d.u_nom on an idle shell
    is formed from it as the kernel forms it.  A free row's tightenings are
    never negative, so they leave the run's count and minimum as they are."""
    rows = np.flatnonzero(np.isnan(rec[:n, 5]))
    if not rows.size:
        return
    # one row per obstacle, one column per free row
    rho = _idle_clearances(rec[rows, 1], rec[rows, 2], model[2])
    rec[rows, 5] = np.minimum.reduce(rho)  # no clearance of a free state is NaN or -0
    if _shape(model)[1] == 1:
        rec[rows, 7:] = model[12] * 0.0  # glam * dd, dd = 0
    else:
        rho *= model[5]
        rho = np.negative(rho, out=rho)
        rho += 0.0 * rec[rows, 3] + 0.0 * rec[rows, 4]  # d.u_nom
        rec[rows, 7:] = rho.T
