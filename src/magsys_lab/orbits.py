"""Closed-orbit location by Newton iteration on the orbit space.

Every unperturbed orbit is the Zoll circle over a point c of the orbit
space: its axis on the sphere, its centre on the torus and on the hyperbolic
chart (``zoll_circle``, the one formula for it, whose node 0 is
``zoll_state``).  ``orbit_space_point`` inverts it: the c of the Zoll circle
through any state.  Near the Zoll family every closed orbit passes through
the Zoll state over one point c*, a zero of the drift

    D(c) = orbit_space_point(P(x_c)) - c,    x_c = zoll_state(c),

where P is one plain return map to the section anchored at x_c: the states
whose position lies, in the chart's planar image (``to_plane``; R^3 on the
sphere), on the hyperplane through x_c normal to its velocity.  Near the
family the flow crosses it perpendicularly, so transversality is uniform,
and D(c) = 0 exactly when the orbit through x_c closes (the return state
has the start's orbit-space point and lies on its section line, so it is
x_c).  This is the reduced field of the Weinstein-Moser-Bottkol normal form.

``find_closed_orbit`` runs Newton on D in local coordinates x about the
start c0, c = ``orbit_space_step``(c0, B x) with B the basis of
``orbit_space_chart`` at c0 (the tangent plane on the sphere, where the
run also holds the frame of node 0 fixed, so that node 0 cannot jump).  Its
first Jacobian comes from forward differences (two plain maps), Broyden's
update refines it after each step, and each step is the least-squares
solution with a relative cutoff, so that on a line of zeros (a Jacobian of
rank 1) it is the minimum-norm step and c* lands at the foot of the start
on that line.  A line search on the state residual |P(x_c) - x_c| damps
the steps, and that residual decides convergence.  Every map is plain, one
solve, with a dense output only where it closes (residual <= tol): the
converged orbit is sampled from the map that closed it, with no second
integration, and starts at zoll_state(c*).  The Jacobian's two maps,
neither sampled nor tested for convergence, run at the iterates' tolerance
over h = DRIFT_FD_STEP: their error enters the quotient divided by h, still
below its O(h) truncation error (inexact Newton: Dembo, Eisenstat and
Steihaug 1982).

The census (``enumerate_orbits``) has one rule: sample a field whose zeros
are the orbits' c* at the vertices of a fixed tiling of the orbit space,
bracket its zeros there (``_brackets``), one start per isolated zero or line
of zeros, and run Newton on D from the Zoll state over each.  To first order
in eps, the perturbed orbits lie over the critical points of abar(c), the
first-order change of the circle's magnetic length (``orbit_space_average``),
and l = pi a^2(1) + eps abar(c*) + O(eps^2): the field is grad abar, which
needs no ODE, on a fine tiling (``critical_points``).  Where first order
cannot place the orbits (no perturbation, abar constant as on the torus at
s = 1/j_{0,1}, or its splitting no larger than the second-order terms, as on
the sphere near s = 0), the field is D itself, one plain map per vertex of a
coarse tiling (``_drift_brackets``).  No tiling reads ``grid_density`` or
``rng_seed``.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .config import ExperimentConfig
from .errors import DivergedFromFamily, NoConvergence, NoReturn, StepFailure
from .geometry import TangentState, state_distance, tangent_state
from .dynamics import (Trajectory, pack_state, reference_period, rhs, sampled_trajectory,
                       solve_ivp, stepper_tolerances)
from .dynamics import flow  # noqa: F401  unused; perfbench/tracer.py rebinds orbits.flow

log = logging.getLogger(__name__)

SHORT_LOOP_PERIOD_WINDOW = 0.5     # |T - T_ref| <= window * T_ref
SEED_RESIDUAL_GATE = 0.3           # chart units; beyond this a seed is rejected
# forward differences of the drift give the first Jacobian; the noise of its
# maps (at 1e-7) over this step tilts it by up to 5e-6, which moves c* along a
# set of zeros (where no later step corrects it) but not its orbit's length
DRIFT_FD_STEP = 1e-3
STEP_RCOND = 1e-3                  # cut below this share of the top singular value
NEWTON_DAMPING = 0.8
MAX_ITER = 25                      # Newton steps before a seed reads NoConvergence
DEDUP_TOL = 1e-4                  # orbit-space points this close are one (orbits, critical points)
ORBIT_SAMPLES = 512               # samples of each orbit's period
AVERAGE_NODES = 64                # trapezoid nodes on each Zoll circle
TAYLOR_STEP = 1e-4                # central differences of the orbit-space average
SEARCH_GRAD_TOL = 1e-6            # |grad abar| at rest or noise, per unit of abar's scale
REFINE_STEPS = 10                 # Newton steps of a critical point's refinement


def _section(sys, state):
    """(normal, origin) of the section anchored at state: the hyperplane of
    the planar image through its position's image, with unit normal its
    velocity's image."""
    return (sys.surface.section_normal(state.position, state.velocity),
            sys.surface.to_plane(state.position))


def _section_value(sys, section, q):
    normal, origin = section
    return float((sys.surface.to_plane(q) - origin) @ normal)


def return_map(sys, state: TangentState, tol=1e-10, path=math.inf):
    """First forward return of the flow to the section anchored at state
    (``_section``): (state, return time, path).  path(times) gives the (2d,
    N) states of the flow at N sorted times in [0, return time], from the
    solve's dense output, which it builds only where the return state lies
    within path of the start (``state_distance``); elsewhere, and with path
    None, path is None.

    The flow leaves the start along its section's normal; the return is its
    first crossing the same way, seen at a step's end, within twice the Zoll
    reference period, and NoReturn if there is none.  A return that grazes
    the section lies beyond it for far less than a step, so no step's end
    sees it.

    With a list of states, each member's (state, return time, path) or
    exception, by one stacked solve (``ode.solve_ivp``), bit for bit its own
    map's; path may then be a list, one per member.
    """
    if isinstance(state, list):
        return _return_maps(sys, state, tol, path)
    (out,) = _return_maps(sys, [state], tol, path)
    if isinstance(out, Exception):
        raise out
    return out


def _return_maps(sys, states, tol, path):
    """``return_map`` by one stacked solve over (0, 2 T_ref), steps capped so
    that none straddles two crossings; each section's event reads +1 before
    head = 0.3 T_ref, so the start's own crossing never counts as its return."""
    t_ref, d = reference_period(sys), sys.surface.dim
    (rtol, atol), head = stepper_tolerances(tol), 0.3 * t_ref
    sections = [_section(sys, st) for st in states]
    paths = path if isinstance(path, list) else [path] * len(states)
    sols = solve_ivp(
        rhs(sys), (0.0, 2.0 * t_ref), np.reshape([pack_state(st) for st in states], (-1, 2 * d)),
        rtol=rtol, atol=atol, max_step=0.2 * t_ref,
        event=[lambda t, y, sec=sec: _section_value(sys, sec, y[:d]) if t >= head else 1.0
               for sec in sections],
        dense_output=[p is not None and (lambda t, y, st=st, p=p: state_distance(
            sys, tangent_state(sys, y[:d], y[d:]), st) <= p) for st, p in zip(states, paths)])
    out = []
    for sol in sols:
        if not sol.success:
            out.append(StepFailure(sol.message))
        elif sol.t_event is None:
            out.append(NoReturn("no section crossing within 2 reference periods"))
        else:                                 # y is y_event, where the flow crossed
            out.append((tangent_state(sys, sol.y[:d], sol.y[d:]), sol.t_event, sol.sol))
    return out


# --- orbits ---------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Orbit(Trajectory):
    """A closed magnetic geodesic: the Trajectory of one period, whose last
    sample returns to the first within the closure defect ``residual``.
    ``center`` is the orbit-space point c* whose Zoll state is its first
    sample (None for an orbit not found by ``find_closed_orbit``).

    ``deduplicate`` does not compare c*: it depends on where the orbit was
    started, and on the sphere on the frame of node 0 that each Newton run
    fixes (seeds of one orbit of sphere_harmonic_z at s = 0.01 end up to
    0.1 apart in c*).  It compares the orbit's centre, the time mean of
    ``orbit_space_point`` over the samples: they are equally spaced in time
    over one period, so the mean is a trapezoid rule of a periodic function
    and does not depend on the start phase (those seeds' centres agree to
    2e-7).  On a Zoll circle every sample's point, and so the centre, is its
    c."""

    residual: float
    seed_id: str
    newton_iterations: int = 0
    center: np.ndarray | None = None

    @property
    def period(self) -> float:
        return float(self.times[-1])


def find_closed_orbit(sys, seed: TangentState, tol=ExperimentConfig.tol_orbit,
                      max_iter=MAX_ITER, seed_id="seed", first_map=None):
    """Newton iteration on the drift D of the orbit space (see the module
    docstring), from the orbit-space point c0 of seed.

    Each iterate (x = 0 and every line-search trial) costs one plain return
    map, from which come D, the state residual that decides convergence and
    the line search, and the orbit's samples; the first Newton step adds the
    two maps of the forward-difference Jacobian, at that tolerance divided
    by DRIFT_FD_STEP and without a path, so a seed that already closes costs
    one map, and none given first_map, the (state, return time, path) of
    its map at x = 0 (a closed drift sample's, from ``_drift_brackets``);
    one with no path runs again, with one, once the period window holds.
    Raises DivergedFromFamily when the seed's return residual exceeds the
    short-loop gate or an iterate loses the section; NoConvergence when the
    iteration budget runs out or the step vanishes.
    """
    surface = sys.surface
    ivp_tol = _map_tol(tol)
    basis, start_at = _newton_start(sys, seed)

    def drift(x, mapped=None, fd=False):
        """(D, state residual, (c, return time, path)) at local coordinates x,
        from the return map mapped where it has run already; a Jacobian map
        (fd) runs at ivp_tol / DRIFT_FD_STEP, with no path."""
        c, start = start_at(x)
        end, t_ret, path = mapped or return_map(
            sys, start, tol=ivp_tol / DRIFT_FD_STEP if fd else ivp_tol, path=None if fd else tol)
        if mapped and path is None:           # that map again, from its start, bit for bit
            path = lambda times: return_map(sys, start, tol=ivp_tol)[2](times)  # noqa: E731
        back = surface.orbit_space_point(sys, end.position, end.velocity)
        return (basis.T @ surface.orbit_space_gap(c, back), state_distance(sys, end, start),
                (c, t_ret, path))

    x = np.zeros(2)
    g, resid, closing = drift(x, mapped=first_map)
    if resid >= SEED_RESIDUAL_GATE:
        raise DivergedFromFamily(
            f"seed return residual {resid:.3g} >= {SEED_RESIDUAL_GATE}")

    jac = None
    for it in range(max_iter):
        if resid <= tol:
            return _build_orbit(sys, *closing, seed_id, iterations=it)
        try:
            if jac is None:
                jac = np.column_stack([drift(x + DRIFT_FD_STEP * e, fd=True)[0] - g
                                       for e in np.eye(2)]) / DRIFT_FD_STEP
            dx = np.linalg.lstsq(jac, -g, rcond=STEP_RCOND)[0]
            if not dx.any():
                raise NoConvergence(f"Newton step vanished at residual {resid:.3g}")
            g_t, r_t, c_t = drift(x + dx)
            shrinks = 0
            while r_t > resid and shrinks < 8:
                dx *= NEWTON_DAMPING
                g_t, r_t, c_t = drift(x + dx)
                shrinks += 1
        except NoReturn as exc:
            # an iterate wandered off the section geometry entirely
            raise DivergedFromFamily(f"iterate lost the section: {exc}") from exc
        jac += np.outer(g_t - g - jac @ dx, dx) / (dx @ dx)    # Broyden's update
        x, g, resid, closing = x + dx, g_t, r_t, c_t
    if resid <= tol:
        return _build_orbit(sys, *closing, seed_id, iterations=max_iter)
    raise NoConvergence(f"residual {resid:.3g} after {max_iter} Newton steps")


def _map_tol(tol):
    """The tolerance of Newton's maps for the orbit tolerance tol.  A tenth
    keeps a map's error, which the residual and the length inherit, an order
    below the residual tol that Newton certifies: every length of the Zoll
    censuses lies within tol / 18 of ref.  A hundredth costs 14-33% more
    RHS evaluations and changes no orbit count or verdict."""
    return min(tol * 1e-1, 1e-10)


def _newton_start(sys, seed):
    """(B, start_at) of Newton from seed, whose orbit-space point is c0: the
    basis B of ``orbit_space_chart(c0)`` and start_at(x) = (c, the Zoll state
    over c) at local coordinates x, c = orbit_space_step(c0, B x)."""
    surface = sys.surface
    c0 = surface.orbit_space_point(sys, seed.position, seed.velocity)
    basis, ref = surface.orbit_space_chart(c0)

    def start_at(x):
        c = surface.orbit_space_step(c0, basis @ x)
        return c, surface.zoll_state(sys, c, ref)
    return basis, start_at


def _build_orbit(sys, center, period, path, seed_id, iterations=0):
    """The Orbit of one period over the orbit-space point center, sampled from
    the ``path`` of the plain return map that closed it, whose return time is
    period; path is not called outside the period window."""
    t_ref = reference_period(sys)
    if abs(period - t_ref) > SHORT_LOOP_PERIOD_WINDOW * t_ref:
        raise DivergedFromFamily(
            f"period {period:.6g} outside the short-loop window around {t_ref:.6g}")
    traj = sampled_trajectory(sys, path, np.linspace(0.0, period, ORBIT_SAMPLES + 1))
    residual = state_distance(sys, traj.state(-1), traj.state(0))
    return Orbit(traj.states, traj.times, traj.speed_drift,
                 residual=float(residual), seed_id=str(seed_id),
                 newton_iterations=int(iterations), center=center)


# --- the orbit-space average and the census's brackets ----------------------------

def orbit_space_average(sys, c):
    """abar at each orbit-space point c (rows of an (M, k) array): the
    first-order change, per unit eps, of the magnetic length of the Zoll
    circle over c, by the trapezoid rule on AVERAGE_NODES nodes of the circle
    traversed as the flow runs.  Zero on an unperturbed system.

    The length term is oint Lambda ds0 / eps = oint u ds0 + L0 log(lam) / (2
    eps), from the length e^Lambda ds0 with Lambda = eps u + log(lam) / 2; the
    volume normalisation's constant lam shifts every circle alike.  The flux
    term is -s oint eta: the cap D lies on the circle's left, so by Stokes
    s int_D eps d(eta) = s eps oint eta.
    """
    return _circle_integrand(sys, c).sum(axis=1) * (reference_period(sys) / AVERAGE_NODES)


def _circle_integrand(sys, c):
    """The integrand of ``orbit_space_average`` at the nodes of the circle
    over each row of c, as an (M, AVERAGE_NODES) array."""
    surface = sys.surface
    out, (q, v) = np.zeros((len(c), AVERAGE_NODES)), surface.zoll_circle(sys, c, AVERAGE_NODES)
    u, eta = sys.conformal_exponent, sys.sigma_perturbation
    if u is not None:
        out += u.value(surface, q) + 0.5 * math.log(sys.conformal_scale) / sys.conformal_eps
    if eta is not None:
        out -= sys.strength * eta.pairing(surface, q, v)
    return out


def _taylor(sys, c, axes=None):
    """abar, its gradient and its Hessian at the rows of c in the local
    coordinates of ``orbit_space_chart``: central differences over TAYLOR_STEP on
    a 3 x 3 stencil, one batch of circles.  Along given (k, 2) or (M, k, 2)
    axes, abar and the gradient only, from the 5 points off the corners."""
    keys = [(i, j) for i in (-1, 0, 1) for j in (-1, 0, 1) if axes is None or not i * j]
    basis, h = sys.surface.orbit_space_chart(c)[0] if axes is None else axes, TAYLOR_STEP
    x = np.array(keys, dtype=float)[:, None, :, None] * h
    batch = sys.surface.orbit_space_step(c, (basis @ x)[..., 0]).reshape(-1, c.shape[1])
    f = dict(zip(keys, orbit_space_average(sys, batch).reshape(len(keys), -1)))
    grad = np.stack([f[1, 0] - f[-1, 0], f[0, 1] - f[0, -1]], axis=-1) / (2.0 * h)
    if axes is not None:
        return f[0, 0], grad, None
    hxx, hyy = f[1, 0] - 2.0 * f[0, 0] + f[-1, 0], f[0, 1] - 2.0 * f[0, 0] + f[0, -1]
    hxy = 0.25 * (f[1, 1] - f[1, -1] - f[-1, 1] + f[-1, -1])
    return f[0, 0], grad, np.stack([hxx, hxy, hxy, hyy], axis=-1).reshape(-1, 2, 2) / (h * h)


def critical_points(sys, tol=ExperimentConfig.tol_orbit):
    """Representatives (ids, points) of the critical points of abar, bracketed
    (``_brackets``) on the chart's ``orbit_space_tiling`` and refined
    (``_refine``), or None where first order cannot place the orbits: where
    eps * scale is at most tol, or at most eps^2 L0 m^2, the size of the
    second-order terms, scale being the larger of abar's spread and largest
    |gradient| on the vertices, L0 a Zoll circle's length and m the largest
    |integrand| of abar there.  So it is unperturbed; on the torus at
    s = 1/j_{0,1}, whose circles average cos x to 0; and on the sphere near
    s = 0, whose near-great circles average odd functions to 0.

    A gradient at most SEARCH_GRAD_TOL * scale is a zero.  A start refined
    out of the searched region is dropped, one within DEDUP_TOL of a kept one
    merged (``_first_kept``)."""
    surface = sys.surface
    if sys.conformal_exponent is None and sys.sigma_perturbation is None:
        return None                               # abar = 0
    points, cells, axes = surface.orbit_space_tiling(sys)
    f, comp, _ = _taylor(sys, points, axes)           # comp: along the axes
    size = np.linalg.norm(comp, axis=1)
    scale = max(float(np.ptp(f)), float(size.max()))
    eps, m = sys.conformal_eps, float(np.abs(_circle_integrand(sys, points)).max())
    if eps * scale <= max(tol, eps * eps * reference_period(sys) * m * m):
        return None
    noise = SEARCH_GRAD_TOL * scale
    ids, starts = _brackets(surface, points, cells, (axes @ comp[..., None])[..., 0],
                            size <= noise)
    rest = _refine(sys, starts, noise)
    inside = np.flatnonzero(surface.in_searched_region(sys, rest))
    kept = inside[_first_kept(surface, rest[inside])]
    return [ids[j] for j in kept], rest[kept]


def _brackets(surface, points, cells, field, zero):
    """(ids, starts) bracketing the zeros of a planar field (vectors at the
    vertices, NaN where unknown) on a tiling ((V, k) vertices, (C, m) cells
    counterclockwise in the planar image), given its zero vertices: a
    ``vertex_<v>`` start at each; a ``contour_<c>`` start on each set of cells
    joined by edges along which the field turns by more than 3 pi / 4
    (``_turns``, ``_contours``), reversing across a line of zeros (x0 = 0, pi
    of cos x, the ring of ``hyperbolic_bump``), at its first such edge,
    interpolated; a ``cell_<c>`` start at the centre of each other cell around
    which the field winds (Stenger 1975).  Cells with a zero or unknown
    vertex bracket nothing.  Vertices come first, then cells."""
    turn = _turns(surface, points, cells, field)
    live = ~zero[cells].any(axis=1) & np.isfinite(turn).all(axis=1)
    reverse = live[:, None] & (np.abs(turn) > 0.75 * math.pi)
    ends = np.stack([cells, np.roll(cells, -1, axis=1)], axis=-1)      # of each edge
    contours = _contours(ends, reverse)
    winds = live & ~reverse.any(axis=1) & (np.rint(turn.sum(axis=1) / (2.0 * math.pi)) != 0)
    ids, starts = [f"vertex_{v}" for v in np.flatnonzero(zero)], list(points[zero])
    for c in sorted({*np.flatnonzero(winds), *contours}):
        a, e = points[cells[c]], contours.get(c, 0)
        gap, (fa, fb) = (surface.orbit_space_gap(a[e], np.roll(a, -e, axis=0)),
                         np.linalg.norm(field[ends[c, e]], axis=1))
        starts.append(surface.orbit_space_step(a[e], gap.mean(axis=0) if winds[c]
                                               else fa / (fa + fb) * gap[1]))
        ids.append(f"cell_{c}" if winds[c] else f"contour_{c}")
    return ids, np.array(starts).reshape(len(ids), points.shape[1])


def _turns(surface, points, cells, field):
    """The turn of field (planar vectors at the vertices) along each edge of
    each cell, (C, m), read in ``orbit_space_chart``'s basis at the edge's
    lower vertex, alike for its two cells: 2 pi times the field's winding
    around a cell is the sum of its turns, and the windings sum to chi."""
    nxt = np.roll(cells, -1, axis=1)
    lo, hi = np.minimum(cells, nxt).ravel(), np.maximum(cells, nxt).ravel()
    basis = surface.orbit_space_chart(points[lo])[0]
    za, zb = (np.einsum("...kj,...k->...j", basis, field[v]) for v in (lo, hi))
    turn = np.arctan2(za[:, 0] * zb[:, 1] - za[:, 1] * zb[:, 0], np.sum(za * zb, axis=-1))
    return np.where(cells < nxt, 1.0, -1.0) * turn.reshape(cells.shape)


def _contours(ends, crossing):
    """{first cell: first edge} of each contour: the cells joined by the edges
    (ends (C, m, 2), the vertices of each cell's edges) where crossing is set."""
    label, owner = list(range(len(ends))), {}
    hits = list(zip(*np.nonzero(crossing)))
    for c, e in hits:
        o = owner.setdefault(frozenset(ends[c, e].tolist()), c)
        keep, drop = sorted((label[o], label[c]))
        label = [keep if x == drop else x for x in label]
    return dict({label[c]: (c, e) for c, e in reversed(hits)}.values())     # each label's first


def _drift_brackets(sys, tol):
    """(ids, points, first maps, closed vertices) bracketing the zeros of the
    drift D on the chart's coarse tiling: D at each vertex from the first map
    of Newton from it (from the Zoll state that ``_newton_start`` builds at
    x = 0), all in one ``return_map`` call, with a path for vertex 0 alone; a
    vertex whose map closes (state residual <= tol) is a zero, and its seed
    takes that map as its first (the others' are None).  Where every vertex
    closes and their return times agree within tol, the zeros are the whole
    orbit space, one critical manifold (a Zoll family), and vertex 0 alone
    is its seed."""
    surface = sys.surface
    points, cells, _ = surface.orbit_space_tiling(sys, drift=True)
    at0 = [_newton_start(sys, surface.zoll_state(sys, c))[1](np.zeros(2)) for c in points]
    maps = return_map(sys, [st for _, st in at0], tol=_map_tol(tol),
                      path=[tol] + [None] * (len(at0) - 1))
    field, zero = np.full(points.shape, np.nan), np.zeros(len(points), dtype=bool)
    for v, ((c, start), mapped) in enumerate(zip(at0, maps)):
        if not isinstance(mapped, Exception):
            end = mapped[0]
            field[v] = surface.orbit_space_gap(
                c, surface.orbit_space_point(sys, end.position, end.velocity))
            zero[v] = state_distance(sys, end, start) <= tol
    ids, starts = _brackets(surface, points, cells, field, zero)
    firsts = [maps[v] for v in np.flatnonzero(zero)] + [None] * (len(ids) - zero.sum())
    if zero.all() and np.ptp([t_ret for _, t_ret, _ in maps]) <= tol:
        ids, starts, firsts = ids[:1], starts[:1], firsts[:1]
    return ids, starts, firsts, int(zero.sum())


def _refine(sys, c, grad_tol):
    """The rows of c, in place, after at most REFINE_STEPS Newton steps on their
    ``_taylor`` models to |grad abar| <= grad_tol, least-squares, cut at STEP_RCOND."""
    idx = np.arange(len(c))
    for _ in range(REFINE_STEPS):
        _, g, hess = _taylor(sys, c[idx])
        if not (live := np.linalg.norm(g, axis=1) > grad_tol).any():
            break
        idx, (w, v) = idx[live], np.linalg.eigh(hess[live])
        w = np.where(np.abs(w) > STEP_RCOND * np.abs(w).max(axis=1, keepdims=True), w, np.inf)
        x = -v @ (np.swapaxes(v, 1, 2) @ g[live, :, None] / w[..., None])
        basis, _ = sys.surface.orbit_space_chart(c[idx])
        c[idx] = sys.surface.orbit_space_step(c[idx], (basis @ x)[..., 0])
    return c


def _first_kept(surface, points):
    """The indices of the points (orbit-space points, in order) that lie
    within DEDUP_TOL, by ``orbit_space_gap``, of no point kept before them:
    the first point of each such group."""
    kept = []
    for j, c in enumerate(points):
        if not any(np.linalg.norm(surface.orbit_space_gap(points[k], c)) < DEDUP_TOL
                   for k in kept):
            kept.append(j)
    return kept


def deduplicate(sys, orbits):
    """The orbits whose centres are kept by ``_first_kept``: the first orbit
    of each group within DEDUP_TOL.  An orbit's centre is the time mean of
    ``orbit_space_point`` over its samples (the repeated last one left out),
    taken in the planar image (``Orbit`` says why it is not
    ``Orbit.center``)."""
    surface = sys.surface

    def centre(orb):
        points = surface.orbit_space_point(sys, orb.positions()[:-1], orb.velocities()[:-1])
        return surface.from_plane(surface.to_plane(points).mean(axis=0))
    return [orbits[j] for j in _first_kept(surface, [centre(orb) for orb in orbits])]


class Census(list):
    """Distinct closed orbits in order of magnetic length, with each orbit's
    ``magnetic_lengths`` entry, the number ``seeds_attempted`` of Newton
    seeds (one per bracket, or one for the whole orbit space) and the number
    ``closed_vertices`` of drift samples that closed (0 where first order
    seeds the census)."""

    def __init__(self, orbits, magnetic_lengths, seeds_attempted, closed_vertices=0):
        super().__init__(orbits)
        self.magnetic_lengths = list(magnetic_lengths)
        self.seeds_attempted = seeds_attempted
        self.closed_vertices = closed_vertices


def enumerate_orbits(sys, *, grid_density, tol=ExperimentConfig.tol_orbit):
    """Closed orbits seeded at the brackets of the zeros of the reduced field,
    deduplicated and sorted by magnetic length, as a Census; empty where
    grid_density <= 0, which no other value of changes.

    Newton runs from the Zoll state over each representative of
    ``critical_points`` or, where first order cannot place the orbits, of
    ``_drift_brackets``, seed after seed.  A seed at a closed drift sample
    takes that sample's map as its first; every other seed maps its own
    first iterate.  Where every drift sample closes with one return time,
    the census is the whole orbit space and Newton runs once, from vertex 0.
    Failed seeds are logged and skipped.

    Orbits sort by length, and lengths within tol of the length before
    them form one group (single linkage), whose orbits keep the seed order:
    lengths that agree to Newton's accuracy (translates and rotations of
    one orbit) are not ordered by their noise."""
    if grid_density <= 0:
        return Census([], [], 0)
    picked = critical_points(sys, tol)
    ids, points, firsts, closed = (_drift_brackets(sys, tol) if picked is None
                                   else (*picked, [None] * len(picked[0]), 0))
    found = []
    for sid, c, first in zip(ids, points, firsts):
        try:
            found.append(find_closed_orbit(sys, sys.surface.zoll_state(sys, c), tol=tol,
                                           seed_id=sid, first_map=first))
        except (NoConvergence, DivergedFromFamily, NoReturn, StepFailure) as exc:
            log.info("seed %s skipped: %s: %s", sid, type(exc).__name__, exc)
    unique = deduplicate(sys, found)
    from .functionals import magnetic_length
    lengths = [magnetic_length(sys, orb) for orb in unique]
    groups = []                         # ``unique`` is in seed order
    for i in sorted(range(len(unique)), key=lengths.__getitem__):
        if groups and lengths[i] - lengths[groups[-1][-1]] <= tol:
            groups[-1].append(i)
        else:
            groups.append([i])
    order = [i for group in groups for i in sorted(group)]
    return Census([unique[i] for i in order], [lengths[i] for i in order], len(ids), closed)
