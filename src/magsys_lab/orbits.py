"""Closed-orbit location via Poincare return maps and Newton iteration.

A section is a codimension-1 slice of the unit tangent bundle anchored at a
seed state: the states whose position lies, in the chart's planar image
(``to_plane``; R^3 on the sphere), on the hyperplane through the seed normal
to its velocity.  Near the Zoll family the flow crosses it perpendicularly,
so transversality is uniform.  States on the section have two reduced
coordinates (a, b), the offset along the section line and the velocity's
angle from the reference velocity (unit speed fixes the rest), and closed
orbits are fixed points of the reduced return map.  The chart object writes
the section once, from its planar image (``section_state`` and its inverse
``section_coords``).

Newton uses the exact Jacobian of the reduced map, J = dC D dS: a return
map with tangents carries the tangent vectors dS of the section
parametrization through the variational equations and corrects them for the
change of return time (D), and dS and the derivative dC of the reduced
coordinates come from central differences of closed-form maps, with no ODE
solve.  Such a map runs only where Newton steps; every iterate gets a plain
map, which keeps its solves' dense output, and the converged orbit is sampled
from the plain map that closed it, with no second integration.

The census (``enumerate_orbits``) seeds Newton where first-order
perturbation theory puts the closed orbits.  Each unperturbed orbit is the
Zoll circle over a point c of the orbit space: its axis on the sphere, its
centre on the torus and on the hyperbolic chart (``zoll_circle``, the one
formula for it; a seed is its node 0, ``zoll_state``).  To first order in
eps, the perturbed orbits lie over the critical points of abar(c), the
first-order change of the circle's magnetic length (``orbit_space_average``),
and l = pi a^2(1) + eps abar(c*) + O(eps^2).  The stage before Newton is an
ODE-free quadrature on circles:
- the starts are the orbit-space points of the seed grid (``seed_grid``:
  ``grid_density`` and the ``rng_seed`` jitter keep their meaning);
- from each start a bounded ascent and descent of abar find its critical
  points (``critical_points``), merged when they coincide, and merged to
  one representative per Morse-Bott manifold (the critical circles x0 = 0
  and x0 = pi of cos x on the torus);
- Newton runs from the Zoll state over each representative only;
- where first order cannot place the orbits (no perturbation, abar constant
  as on the torus at s = 1/j_{0,1}, or its splitting no larger than the
  second-order terms, as on the sphere near s = 0), every start is seeded:
  the blind grid.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .config import ExperimentConfig
from .errors import (DivergedFromFamily, NoConvergence, NoReturn, StepFailure,
                     TangencyError)
from .geometry import TangentState, state_distance, tangent_state
from .reporting import round_sig
from .dynamics import (Trajectory, pack_state, reference_period, rhs, sampled_trajectory,
                       solve_ivp, stepper_tolerances, unpack_state)
from .dynamics import flow  # noqa: F401  unused; perfbench/tracer.py rebinds orbits.flow

log = logging.getLogger(__name__)

SHORT_LOOP_PERIOD_WINDOW = 0.5     # |T - T_ref| <= window * T_ref
SEED_RESIDUAL_GATE = 0.3           # chart units; beyond this a seed is rejected
SECTION_FD_STEP = 1e-6            # central differences of the closed-form section maps
NEWTON_DAMPING = 0.8
DEDUP_TOL = 1e-4
ORBIT_SAMPLES = 512               # samples of each orbit's period
TRANSVERSALITY_MIN = 1e-3
AVERAGE_NODES = 64                # trapezoid nodes on each Zoll circle
SEARCH_FD_STEP = 1e-5             # central differences of the orbit-space average
SEARCH_FIRST_STEP = 0.1           # length of each search's first step
SEARCH_MAX_STEP = 0.25            # longest step
SEARCH_STEPS = 60                 # steps of each ascent or descent
SEARCH_GRAD_TOL = 1e-6            # |grad abar| at rest, per unit of abar's scale over the starts
CRITICAL_MERGE_TOL = 1e-4         # critical points this close are one
CRITICAL_VALUE_TOL = 1e-6         # equal abar on a critical manifold, per unit scale
MANIFOLD_SAMPLES = 8              # segments between two points of one critical manifold
MANIFOLD_CHAIN = 3.0              # largest hop along it, in sample spacings


@dataclass(frozen=True, eq=False)
class SectionSpec:
    """Transversal slice anchored at a seed state (normal, tangent in the planar image)."""

    anchor: TangentState
    normal: np.ndarray
    tangent: np.ndarray


def make_section(sys, anchor: TangentState) -> SectionSpec:
    normal, tangent = sys.surface.section_frame(anchor.position, anchor.velocity)
    return SectionSpec(anchor=anchor, normal=normal, tangent=tangent)


def _section_value(sys, spec, q):
    surface = sys.surface
    return float((surface.to_plane(q) - surface.to_plane(spec.anchor.position)) @ spec.normal)


def _crossing_speed(sys, spec, q, v):
    vv = sys.surface.plane_jacobian(q) @ v
    return float(vv @ spec.normal) / np.linalg.norm(vv)


def return_map(sys, section: SectionSpec, state: TangentState, tol=1e-10,
               tangents=None):
    """First forward return of the flow to the section: (state, return time,
    path).  path(times) gives the (2d, N) states of the flow at N sorted times
    in [0, return time], from the two solves' dense output.

    The crossing must be in the direction of the anchor velocity; the search
    is capped at twice the Zoll reference period.

    With tangents, a (2d, k) array of state-space vectors at state, the flow
    also carries them and a column w with w' = Df w + f and w(0) = 0, so that
    w(t) = t f(y(t)) gives f at the return without an RHS call of its own; all
    components share one error control.  No dense output is kept, and the
    result is (state, return time, D) with D the (2d, k) derivative of the
    return map along the tangents: the carried columns T corrected for the
    change of return time, D = T - f (grad sigma . T) / (grad sigma . f).
    """
    t_ref = reference_period(sys)
    if abs(_crossing_speed(sys, section, state.position, state.velocity)) \
            < TRANSVERSALITY_MIN:
        raise TangencyError("flow is tangent to the section at the given state")

    d = sys.surface.dim
    n = 2 * d
    y0 = pack_state(state)
    if tangents is None:
        f = rhs(sys)
    else:
        k = tangents.shape[1]
        f = _with_time_column(rhs(sys, tangents=k + 1), n)
        y0 = np.concatenate([y0, tangents.T.ravel(), np.zeros(n)])
    rtol, atol = stepper_tolerances(tol)
    head, dense = 0.3 * t_ref, tangents is None
    sol = solve_ivp(f, (0.0, head), y0, rtol=rtol, atol=atol, dense_output=dense)
    if not sol.success:
        raise StepFailure(sol.message)

    def event(t, y):
        return _section_value(sys, section, y[:d])

    # cap the step so one step cannot straddle two section crossings
    sol2 = solve_ivp(f, (head, 2.0 * t_ref), sol.y, rtol=rtol, atol=atol,
                     event=event, max_step=0.2 * t_ref, dense_output=dense)
    if not sol2.success:
        raise StepFailure(sol2.message)
    if sol2.t_event is None:
        raise NoReturn("no section crossing within 2 reference periods")
    t_ev, y_ev = sol2.t_event, sol2.y_event
    st = unpack_state(y_ev[:n])
    if abs(_crossing_speed(sys, section, st.position, st.velocity)) < TRANSVERSALITY_MIN:
        raise TangencyError("return crossing is tangent to the section")
    st = tangent_state(sys, st.position, st.velocity)
    if dense:
        def path(times):
            early = times <= head
            return np.hstack([sol.sol(times[early]), sol2.sol(times[~early])])
        return st, t_ev, path
    T = y_ev[n:-n].reshape(k, n).T
    f_ev = y_ev[-n:] / t_ev
    grad = np.zeros(n)
    grad[:d] = sys.surface.plane_jacobian(y_ev[:d]).T @ section.normal
    return st, t_ev, T - np.outer(f_ev, grad @ T) / float(grad @ f_ev)


def _with_time_column(g, n):
    """The closure g on (y, X_1, ..., X_m) with f(y) added to the derivative of
    the last column, which then solves w' = Df w + f."""
    def f(t, y):
        out = g(t, y)
        out[-n:] += out[:n]
        return out
    return f


# --- orbits ---------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Orbit(Trajectory):
    """A closed magnetic geodesic: the Trajectory of one period, whose last
    sample returns to the first within the closure defect ``residual``."""

    residual: float
    seed_id: str
    newton_iterations: int = 0

    @property
    def period(self) -> float:
        return float(self.times[-1])


def _reduced_map(sys, spec, tol):
    """The reduced return map at x: (F(x), return time, state residual, the
    plain return map's ``path``), or with jacobian=True (..., dF/dx) from a
    return map that carries the section's tangents (see the module
    docstring)."""
    surface = sys.surface
    anchor, d = spec.anchor.position, surface.dim

    def section_point(x):
        st = surface.section_state(sys, spec, x[0], x[1])
        return np.concatenate([surface.wrap(st.position, anchor), st.velocity])

    def coords(y):
        return surface.section_coords(sys, spec, tangent_state(sys, y[:d], y[d:]))

    def F(x, jacobian=False):
        st = surface.section_state(sys, spec, x[0], x[1])
        if not jacobian:
            st2, t_ret, last = return_map(sys, spec, st, tol=tol)
        else:
            dS = _central_differences(section_point, x, np.eye(2))
            st2, t_ret, D = return_map(sys, spec, st, tol=tol, tangents=dS)
            last = _central_differences(coords, pack_state(st2), D)
        x2 = surface.section_coords(sys, spec, st2)
        return x2, t_ret, state_distance(sys, st2, st), last
    return F


def _central_differences(fn, x, directions, h=SECTION_FD_STEP):
    """(fn(x + h u) - fn(x - h u)) / 2h for each column u of directions."""
    return np.column_stack([(fn(x + h * u) - fn(x - h * u)) / (2.0 * h)
                            for u in directions.T])


def find_closed_orbit(sys, seed: TangentState, tol=ExperimentConfig.tol_orbit,
                      max_iter=ExperimentConfig.max_iter, seed_id="seed"):
    """Newton iteration on the reduced return map, starting from seed.

    The seed anchors the section.  Each iterate (x = 0 and every line-search
    trial) gets one plain return map, whose residual decides convergence and
    the line search; a map with tangents, for F(x) and the Jacobian, runs
    only at an iterate Newton steps from.  A seed that already closes costs
    one map, and the orbit is sampled from the plain map that closed it.
    Raises DivergedFromFamily when the seed's return residual exceeds the
    short-loop gate or iterates leave the neighborhood; NoConvergence when
    the iteration budget runs out.
    """
    ivp_tol = min(tol * 1e-2, 1e-10)
    spec = make_section(sys, seed)
    F = _reduced_map(sys, spec, ivp_tol)
    x = np.zeros(2)
    _, t_ret, resid, path = F(x)
    if resid >= SEED_RESIDUAL_GATE:
        raise DivergedFromFamily(
            f"seed return residual {resid:.3g} >= {SEED_RESIDUAL_GATE}")

    for it in range(max_iter):
        if resid <= tol:
            return _build_orbit(sys, t_ret, path, seed_id, iterations=it)
        try:
            fx, _, _, jac = F(x, jacobian=True)
            g = fx - x
            A = jac - np.eye(2)
            try:
                dx = np.linalg.solve(A, -g)
            except np.linalg.LinAlgError:
                dx = np.linalg.lstsq(A.T @ A + 1e-12 * np.eye(2),
                                     -A.T @ g, rcond=None)[0]
            trial = x + dx
            _, t_t, r_t, p_t = F(trial)
            shrinks = 0
            while r_t > resid and shrinks < 8:
                dx *= NEWTON_DAMPING
                trial = x + dx
                _, t_t, r_t, p_t = F(trial)
                shrinks += 1
        except (NoReturn, TangencyError) as exc:
            # an iterate wandered off the section geometry entirely
            raise DivergedFromFamily(f"iterate lost the section: {exc}") from exc
        x, t_ret, resid, path = trial, t_t, r_t, p_t
        if abs(x[0]) > 1.0 or abs(x[1]) > 1.0:
            raise DivergedFromFamily(
                f"iterate left the short-loop neighborhood (|x| = {np.abs(x).max():.3g})")
    if resid <= tol:
        return _build_orbit(sys, t_ret, path, seed_id, iterations=max_iter)
    raise NoConvergence(f"residual {resid:.3g} after {max_iter} Newton steps")


def _build_orbit(sys, period, path, seed_id, iterations=0):
    """The Orbit of one period, sampled from the ``path`` of the plain return
    map that closed it, whose return time is period."""
    t_ref = reference_period(sys)
    if abs(period - t_ref) > SHORT_LOOP_PERIOD_WINDOW * t_ref:
        raise DivergedFromFamily(
            f"period {period:.6g} outside the short-loop window around {t_ref:.6g}")
    traj = sampled_trajectory(sys, path, np.linspace(0.0, period, ORBIT_SAMPLES + 1))
    residual = state_distance(sys, traj.state(-1), traj.state(0))
    return Orbit(traj.states, traj.times, traj.speed_drift,
                 residual=float(residual), seed_id=str(seed_id),
                 newton_iterations=int(iterations))


# --- seed grids and the orbit-space average ---------------------------------------

def _starts(sys, grid_density, rng_seed):
    """(ids, points) of the orbit-space starts: none where grid_density <= 0."""
    if grid_density <= 0:
        return [], []
    return sys.surface.orbit_space_starts(sys, grid_density, np.random.default_rng(rng_seed))


def seed_grid(sys, grid_density, rng_seed=ExperimentConfig.rng_seed):
    """Deterministic (seed_id, TangentState) pairs covering the Zoll family:
    the Zoll states over the orbit-space starts, the blind grid."""
    return [(sid, sys.surface.zoll_state(sys, c))
            for sid, c in zip(*_starts(sys, grid_density, rng_seed))]


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
    out = np.zeros((len(c), AVERAGE_NODES))
    u, eta = sys.conformal_exponent, sys.sigma_perturbation
    if u is None and eta is None:
        return out
    q, v = surface.zoll_circle(sys, c, AVERAGE_NODES)
    if u is not None:
        out += u.value(surface, q) + 0.5 * math.log(sys.conformal_scale) / sys.conformal_eps
    if eta is not None:
        out -= sys.strength * np.sum(eta.components(surface, q) * v, axis=-1)
    return out


def _average_and_gradient(sys, c):
    """abar at the rows of c and its central differences along the unit
    offsets of ``orbit_space_step``, from one batch of circles."""
    surface, h, k = sys.surface, SEARCH_FD_STEP, c.shape[1]
    offsets = np.concatenate([np.eye(k), -np.eye(k)]) * h
    batch = [c] + [surface.orbit_space_step(c, np.broadcast_to(e, c.shape)) for e in offsets]
    vals = orbit_space_average(sys, np.concatenate(batch)).reshape(2 * k + 1, len(c))
    return vals[0], ((vals[1:k + 1] - vals[k + 1:]) / (2.0 * h)).T


def _climb(sys, c, sign, grad_tol):
    """Ascents (sign +1) and descents (-1) of abar from the rows of c, all
    advanced together for at most SEARCH_STEPS steps.  A step follows the
    gradient with the Barzilai-Borwein length, at most SEARCH_MAX_STEP, and is
    taken only if it improves abar (else its length halves).  Returns the end
    points and whether each came to rest (|grad| <= grad_tol) without leaving
    the searched region."""
    surface = sys.surface
    c = np.array(c, dtype=float)
    f, g = _average_and_gradient(sys, c)
    f, g = sign * f, sign[:, None] * g
    t = np.full(len(c), np.inf)
    live = surface.in_searched_region(sys, c)
    for it in range(SEARCH_STEPS):
        idx = np.flatnonzero(live & (np.linalg.norm(g, axis=1) > grad_tol))
        if len(idx) == 0:
            break
        norm = np.linalg.norm(g[idx], axis=1)
        t[idx] = np.minimum(t[idx], (SEARCH_FIRST_STEP if it == 0 else SEARCH_MAX_STEP) / norm)
        trial = surface.orbit_space_step(c[idx], t[idx, None] * g[idx])
        ft, gt = _average_and_gradient(sys, trial)
        ft, gt = sign[idx] * ft, sign[idx, None] * gt
        up = ft > f[idx]
        step = surface.orbit_space_gap(c[idx], trial)
        curv = -np.sum(step * (gt - g[idx]), axis=1)    # > 0 where abar bends back
        bb = np.sum(step * step, axis=1) / np.maximum(curv, 1e-300)
        t[idx] = np.where(up, np.where(curv > 0.0, bb, 2.0 * t[idx]), 0.5 * t[idx])
        moved = idx[up]
        c[moved], f[moved], g[moved] = trial[up], ft[up], gt[up]
        live[moved] = surface.in_searched_region(sys, c[moved])
    return c, live & (np.linalg.norm(g, axis=1) <= grad_tol)


def critical_points(sys, ids, starts, tol=ExperimentConfig.tol_orbit):
    """Representatives (ids, points) of the critical points of abar on the
    orbit space, found from the starts (ids and an (M, k) array), or None
    when first order cannot place the orbits.

    First order cannot place them where its splitting eps * scale is at most
    tol, or at most eps^2 L0 m^2, the size of the second-order terms.  Here
    scale is the larger of max abar - min abar and the largest |grad abar|
    over the starts (the spread alone reads 0 where every start lies on one
    level set, as the torus centres x0 = pi/2, 3 pi/2 of grid density 2 do
    for cos x0), L0 is the length of a Zoll circle and m the largest
    |integrand| of abar on the starts' circles.  This holds on an
    unperturbed system; on the torus at s = 1/j_{0,1}, where every circle
    averages cos x to 0; and on the sphere near s = 0, whose circles tend to
    great circles, over which odd functions average to 0, while orbits over
    the equator's axes appear at second order.

    A start where abar is already stationary is its own critical point,
    named after it.  From every other start an ascent and a descent
    (``_climb``) end at critical points named ``<start>_max`` and
    ``<start>_min``: a local maximum and minimum, or a saddle from a start on
    its stable manifold.  A search that leaves the searched region yields no
    point.  Taken in that order, a critical point is dropped when it lies
    within CRITICAL_MERGE_TOL of one already met or on one critical manifold
    with it (``_same_manifold``), so that each Morse-Bott manifold keeps its
    first representative; the manifold's distinct points met so far link
    later ones to it.
    """
    surface, k = sys.surface, starts.shape[1]
    f, g = _average_and_gradient(sys, starts)
    scale = max(float(f.max() - f.min()), float(np.linalg.norm(g, axis=1).max()))
    eps, m = sys.conformal_eps, float(np.abs(_circle_integrand(sys, starts)).max())
    if eps * scale <= max(tol, eps * eps * reference_period(sys) * m * m):
        return None
    grad_tol = SEARCH_GRAD_TOL * scale
    still = np.linalg.norm(g, axis=1) <= grad_tol
    n = len(ids)
    ends, rest = _climb(sys, np.concatenate([starts, starts]), np.repeat([1.0, -1.0], n),
                        grad_tol)
    cands = []
    for i, sid in enumerate(ids):
        cands += [(sid, starts[i])] if still[i] else \
            [(f"{sid}_{tag}", ends[j]) for j, tag in ((i, "max"), (i + n, "min")) if rest[j]]
    points = np.array([p for _, p in cands]).reshape(-1, k)
    # one group per representative: the distinct critical points met on its manifold
    kept, groups = [], []
    for (cid, p), fp in zip(cands, orbit_space_average(sys, points)):
        if any(np.linalg.norm(surface.orbit_space_gap(q[None], p[None])) <= CRITICAL_MERGE_TOL
               for grp in groups for q, _ in grp):
            continue
        group = next((grp for grp in groups if any(
            _same_manifold(sys, q, fq, p, fp, scale, grad_tol) for q, fq in grp)), None)
        if group is None:
            kept.append((cid, p))
            groups.append([])
            group = groups[-1]
        group.append((p, fp))
    return [cid for cid, _ in kept], np.array([p for _, p in kept]).reshape(-1, k)


def _same_manifold(sys, a, fa, b, fb, scale, grad_tol):
    """Whether the critical points a and b (abar values fa, fb) lie on one
    connected critical set: abar is equal at both, and the samples of the
    segment between them, each carried back to the critical set by
    ``_climb`` toward fa, all reach it at that value, in hops of at most
    MANIFOLD_CHAIN sample spacings.  On a critical line, as on the flat
    torus, the samples are critical already and stay; on a critical circle
    they climb back onto it."""
    value_tol = CRITICAL_VALUE_TOL * scale
    if abs(fa - fb) > value_tol:
        return False
    surface = sys.surface
    gap = surface.orbit_space_gap(a[None], b[None])[0]
    t = np.arange(1, MANIFOLD_SAMPLES)[:, None] / MANIFOLD_SAMPLES
    samples = surface.orbit_space_step(np.broadcast_to(a, (len(t), len(a))), t * gap)
    ends, rest = _climb(sys, samples,
                        np.where(orbit_space_average(sys, samples) < fa, 1.0, -1.0), grad_tol)
    chain = np.concatenate([a[None], ends, b[None]])
    hops = np.linalg.norm(surface.orbit_space_gap(chain[:-1], chain[1:]), axis=1)
    return bool(rest.all() and np.all(np.abs(orbit_space_average(sys, ends) - fa) <= value_tol)
                and hops.max() <= MANIFOLD_CHAIN * np.linalg.norm(gap) / MANIFOLD_SAMPLES)


def _poly_hausdorff(sys, pa, pb):
    """Symmetric Hausdorff distance between closed sample loops.

    Distances are measured from each loop's vertices to the other loop's
    polyline, so that phase-shifted samplings of the same curve compare as
    close.
    """
    pa, pb = sys.surface.align_loops(pa, pb)

    def one_sided(P, Q):
        d = _segment_distances(P[:, None, :], Q[None, :-1, :], Q[None, 1:, :])
        return float(np.max(np.min(d, axis=1)))

    return max(one_sided(pa, pb), one_sided(pb, pa))


def _segment_distances(P, A, B):
    """Distances from the points P to the segments [A, B], broadcast over the
    leading axes of the (..., d) arrays."""
    AB = B - A
    denom = np.einsum("...d,...d->...", AB, AB)
    AP = P - A
    t = np.clip(np.einsum("...d,...d->...", AP, AB) / np.where(denom == 0.0, 1.0, denom),
                0.0, 1.0)
    return np.linalg.norm(AP - t[..., None] * AB, axis=-1)


def _support_gap(pa, pb):
    """A lower bound on the ``_poly_hausdorff`` distance of two aligned loops.

    The bound is max |h_A(u) - h_B(u)| over the directions u = +-e_i, with
    h_P(u) = max <p, u> over the vertices p of P (the support function).  The
    vertex of A that attains h_A(u) lies at least h_A(u) - h_B(u) from every
    point of the polyline B, whose points are convex combinations of B's
    vertices; the pass from B's vertices covers the other sign.
    """
    return float(np.max(np.abs(np.concatenate(
        [pa.max(axis=0) - pb.max(axis=0), pa.min(axis=0) - pb.min(axis=0)]))))


def _matched_bound(pa, pb):
    """An upper bound on the ``_poly_hausdorff`` distance of two aligned loops.

    Each vertex of one loop is measured against only four segments of the
    other, around its phase-matched index: vertex i of A against the
    segments i + k - 2 to i + k + 1 of B, where B's vertex k is the one
    nearest A[0] and indices run cyclically over the closed loop.  A distance
    to some of B's segments is never below the distance to the polyline, so
    the larger of the two one-sided maxima bounds the exact distance from
    above.  It is close to it when the loops are the same orbit sampled at
    the same rate from different starting points.
    """
    def one_sided(P, Q):
        m = len(Q) - 1      # segments of the closed loop; Q[m] repeats Q[0]
        k = int(np.argmin(np.sum((Q[:m] - P[0]) ** 2, axis=1)))
        seg = (np.arange(len(P))[:, None] + k + np.arange(-2, 2)) % m
        d = _segment_distances(P[:, None, :], Q[seg], Q[seg + 1])
        return float(np.max(np.min(d, axis=1)))

    return max(one_sided(pa, pb), one_sided(pb, pa))


def deduplicate(sys, orbits):
    """Drop orbits whose position loops coincide within DEDUP_TOL.

    Two loops coincide when ``_poly_hausdorff``, the larger of the two
    vertex-to-polyline distances, is below DEDUP_TOL; the first orbit of each
    such group is kept.  Two O(N) bounds in the aligned picture settle most
    pairs without that O(N^2) exact pass: a pair whose ``_support_gap``
    is at least 2 DEDUP_TOL is distinct, and a pair whose ``_matched_bound``
    is below DEDUP_TOL / 2 is a duplicate.  The gap never exceeds the exact
    distance and the matched bound never falls below it, and the factors 2
    leave room for rounding (a few ulps of the coordinates, far below
    DEDUP_TOL), so neither bound can change a decision.
    """
    unique, loops = [], []
    for orb in orbits:
        pa = orb.positions()
        if any(_same_loop(sys, pa, pb) for pb in loops):
            continue
        unique.append(orb)
        loops.append(pa)
    return unique


def _same_loop(sys, pa, pb):
    """Whether the loops pa and pb coincide within DEDUP_TOL (see ``deduplicate``)."""
    a, b = sys.surface.align_loops(pa, pb)
    if _support_gap(a, b) >= 2.0 * DEDUP_TOL:
        return False
    if _matched_bound(a, b) < 0.5 * DEDUP_TOL:
        return True
    return _poly_hausdorff(sys, pa, pb) < DEDUP_TOL


class Census(list):
    """Distinct closed orbits in order of magnetic length, with each orbit's
    ``magnetic_lengths`` entry, the number ``seeds_attempted`` of Newton
    seeds and the number ``starts`` of orbit-space starts."""

    def __init__(self, orbits, magnetic_lengths, seeds_attempted, starts):
        super().__init__(orbits)
        self.magnetic_lengths = list(magnetic_lengths)
        self.seeds_attempted = seeds_attempted
        self.starts = starts


def enumerate_orbits(sys, *, grid_density, tol=ExperimentConfig.tol_orbit,
                     max_iter=ExperimentConfig.max_iter, workers=ExperimentConfig.workers,
                     rng_seed=ExperimentConfig.rng_seed):
    """Closed orbits seeded at the critical points of the orbit-space
    average, deduplicated and sorted by magnetic length, as a Census.

    The starts are the orbit-space points of ``seed_grid``.  Newton runs
    from the Zoll state over each representative of ``critical_points``,
    or, where first order cannot place the orbits, over every start (the
    blind grid).  Failed seeds are logged and skipped.

    The sort key is the length as reports print it (``reporting.round_sig``),
    then the seed's position in the seed list, so that orbits whose lengths
    agree up to rounding noise (translates and rotations of one orbit) keep
    that order."""
    names, starts = _starts(sys, grid_density, rng_seed)
    picked = critical_points(sys, names, starts, tol) if names else None
    ids, points = (names, starts) if picked is None else picked
    seeds = [(sid, sys.surface.zoll_state(sys, c)) for sid, c in zip(ids, points)]
    tasks = [(sys, sid, st, tol, max_iter) for sid, st in seeds]
    if workers > 1 and len(tasks) > 1:
        import concurrent.futures as cf
        with cf.ProcessPoolExecutor(max_workers=workers) as ex:
            results = list(ex.map(_run_seed_safe, tasks))
    else:
        results = map(_run_seed_safe, tasks)
    found = []
    for (sid, _), res in zip(seeds, results):
        if isinstance(res, Orbit):
            found.append(res)
        elif res is not None:
            log.info("seed %s skipped: %s", sid, res)
    unique = deduplicate(sys, found)
    from .functionals import magnetic_length
    lengths = [magnetic_length(sys, orb) for orb in unique]
    # a stable sort: ``unique`` is in seed order
    order = sorted(range(len(unique)), key=lambda i: round_sig(lengths[i]))
    return Census([unique[i] for i in order], [lengths[i] for i in order], len(seeds),
                  len(names))


def _run_seed_safe(args):
    sys, seed_id, seed, tol, max_iter = args
    try:
        return find_closed_orbit(sys, seed, tol=tol, max_iter=max_iter, seed_id=seed_id)
    except (NoConvergence, DivergedFromFamily, NoReturn, TangencyError,
            StepFailure) as exc:
        return f"{type(exc).__name__}: {exc}"
