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
the steps, and that residual decides convergence.  Every map is plain:
the converged orbit is sampled from the map that closed it, with no
second integration, and starts at zoll_state(c*).

The census (``enumerate_orbits``) seeds Newton where first-order
perturbation theory puts the closed orbits.  To first order in eps, the
perturbed orbits lie over the critical points of abar(c), the first-order
change of the circle's magnetic length (``orbit_space_average``), and
l = pi a^2(1) + eps abar(c*) + O(eps^2).  The stage before Newton is an
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
                       solve_ivp, stepper_tolerances)
from .dynamics import flow  # noqa: F401  unused; perfbench/tracer.py rebinds orbits.flow

log = logging.getLogger(__name__)

SHORT_LOOP_PERIOD_WINDOW = 0.5     # |T - T_ref| <= window * T_ref
SEED_RESIDUAL_GATE = 0.3           # chart units; beyond this a seed is rejected
ORBIT_SPACE_REACH = 1.0            # orbit-space distance from the start; beyond it, rejected
# forward differences of the drift give the first Jacobian; a map's noise
# (~1e-12) over this step moves c* far less than tol_orbit, also along a set
# of zeros, where no later step corrects it
DRIFT_FD_STEP = 1e-3
STEP_RCOND = 1e-3                  # singular values below this share of the largest are cut
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
    """Transversal slice anchored at a seed state: the hyperplane of the
    planar image through its position with the given unit normal."""

    anchor: TangentState
    normal: np.ndarray


def make_section(sys, anchor: TangentState) -> SectionSpec:
    return SectionSpec(anchor=anchor,
                       normal=sys.surface.section_normal(anchor.position, anchor.velocity))


def _section_value(sys, spec, q):
    surface = sys.surface
    return float((surface.to_plane(q) - surface.to_plane(spec.anchor.position)) @ spec.normal)


def _crossing_speed(sys, spec, q, v):
    vv = sys.surface.plane_jacobian(q) @ v
    return float(vv @ spec.normal) / np.linalg.norm(vv)


def return_map(sys, section: SectionSpec, state: TangentState, tol=1e-10):
    """First forward return of the flow to the section: (state, return time,
    path).  path(times) gives the (2d, N) states of the flow at N sorted times
    in [0, return time], from the two solves' dense output.

    The crossing must be in the direction of the anchor velocity; the search
    is capped at twice the Zoll reference period.
    """
    t_ref = reference_period(sys)
    if abs(_crossing_speed(sys, section, state.position, state.velocity)) \
            < TRANSVERSALITY_MIN:
        raise TangencyError("flow is tangent to the section at the given state")

    d = sys.surface.dim
    f = rhs(sys)
    rtol, atol = stepper_tolerances(tol)
    head = 0.3 * t_ref
    sol = solve_ivp(f, (0.0, head), pack_state(state), rtol=rtol, atol=atol,
                    dense_output=True)
    if not sol.success:
        raise StepFailure(sol.message)

    def event(t, y):
        return _section_value(sys, section, y[:d])

    # cap the step so one step cannot straddle two section crossings
    sol2 = solve_ivp(f, (head, 2.0 * t_ref), sol.y, rtol=rtol, atol=atol,
                     event=event, max_step=0.2 * t_ref, dense_output=True)
    if not sol2.success:
        raise StepFailure(sol2.message)
    if sol2.t_event is None:
        raise NoReturn("no section crossing within 2 reference periods")
    q, v = sol2.y_event[:d], sol2.y_event[d:]
    if abs(_crossing_speed(sys, section, q, v)) < TRANSVERSALITY_MIN:
        raise TangencyError("return crossing is tangent to the section")

    def path(times):
        early = times <= head
        return np.hstack([sol.sol(times[early]), sol2.sol(times[~early])])
    return tangent_state(sys, q, v), sol2.t_event, path


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
                      max_iter=ExperimentConfig.max_iter, seed_id="seed"):
    """Newton iteration on the drift D of the orbit space (see the module
    docstring), from the orbit-space point c0 of seed.

    Each iterate (x = 0 and every line-search trial) costs one plain return
    map, from which come D, the state residual that decides convergence and
    the line search, and the orbit's samples; the first Newton step adds the
    two maps of the forward-difference Jacobian, so a seed that already
    closes costs one map.  Raises DivergedFromFamily when the seed's return
    residual exceeds the short-loop gate, an iterate loses the section or
    moves farther than ORBIT_SPACE_REACH from c0; NoConvergence when the
    iteration budget runs out or the step vanishes.
    """
    surface = sys.surface
    ivp_tol = min(tol * 1e-2, 1e-10)
    c0 = surface.orbit_space_point(sys, seed.position, seed.velocity)
    basis, ref = surface.orbit_space_chart(c0)

    def drift(x):
        """(D, state residual, (c, return time, path)) at local coordinates x."""
        c = surface.orbit_space_step(c0, basis @ x)
        start = surface.zoll_state(sys, c, ref)
        end, t_ret, path = return_map(sys, make_section(sys, start), start, tol=ivp_tol)
        back = surface.orbit_space_point(sys, end.position, end.velocity)
        return (basis.T @ surface.orbit_space_gap(c, back), state_distance(sys, end, start),
                (c, t_ret, path))

    x = np.zeros(2)
    g, resid, closing = drift(x)
    if resid >= SEED_RESIDUAL_GATE:
        raise DivergedFromFamily(
            f"seed return residual {resid:.3g} >= {SEED_RESIDUAL_GATE}")

    jac = None
    for it in range(max_iter):
        if resid <= tol:
            return _build_orbit(sys, *closing, seed_id, iterations=it)
        try:
            if jac is None:
                jac = np.column_stack([drift(x + DRIFT_FD_STEP * e)[0] - g
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
        except (NoReturn, TangencyError) as exc:
            # an iterate wandered off the section geometry entirely
            raise DivergedFromFamily(f"iterate lost the section: {exc}") from exc
        jac += np.outer(g_t - g - jac @ dx, dx) / (dx @ dx)    # Broyden's update
        x, g, resid, closing = x + dx, g_t, r_t, c_t
        reach = np.linalg.norm(surface.orbit_space_gap(c0, closing[0]))
        if reach > ORBIT_SPACE_REACH:
            raise DivergedFromFamily(
                f"iterate left the short-loop neighborhood (orbit-space distance {reach:.3g})")
    if resid <= tol:
        return _build_orbit(sys, *closing, seed_id, iterations=max_iter)
    raise NoConvergence(f"residual {resid:.3g} after {max_iter} Newton steps")


def _build_orbit(sys, center, period, path, seed_id, iterations=0):
    """The Orbit of one period over the orbit-space point center, sampled from
    the ``path`` of the plain return map that closed it, whose return time is
    period."""
    t_ref = reference_period(sys)
    if abs(period - t_ref) > SHORT_LOOP_PERIOD_WINDOW * t_ref:
        raise DivergedFromFamily(
            f"period {period:.6g} outside the short-loop window around {t_ref:.6g}")
    traj = sampled_trajectory(sys, path, np.linspace(0.0, period, ORBIT_SAMPLES + 1))
    residual = state_distance(sys, traj.state(-1), traj.state(0))
    return Orbit(traj.states, traj.times, traj.speed_drift,
                 residual=float(residual), seed_id=str(seed_id),
                 newton_iterations=int(iterations), center=center)


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


def deduplicate(sys, orbits):
    """Drop orbits whose centres lie within DEDUP_TOL of a kept orbit's
    centre, by ``orbit_space_gap``; the first orbit of each such group is
    kept.  An orbit's centre is the time mean of ``orbit_space_point`` over
    its samples (the repeated last one left out), taken in the planar image
    (``Orbit`` says why it is not ``Orbit.center``)."""
    surface = sys.surface
    unique, centres = [], []
    for orb in orbits:
        points = surface.orbit_space_point(sys, orb.positions()[:-1], orb.velocities()[:-1])
        c = surface.from_plane(surface.to_plane(points).mean(axis=0))
        if any(np.linalg.norm(surface.orbit_space_gap(k, c)) < DEDUP_TOL for k in centres):
            continue
        unique.append(orb)
        centres.append(c)
    return unique


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
