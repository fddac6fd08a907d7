"""Closed-orbit location via Poincare return maps and Newton iteration.

A section is a codimension-1 slice of the unit tangent bundle anchored at a
seed state: the set of states whose position lies on the chart hyperplane
through the seed with normal along the seed velocity.  Near the Zoll family
the flow crosses it perpendicularly, so transversality is uniform.  States
on the section are parametrized by two reduced coordinates (a, b): offset
along the in-section direction and velocity angle (unit speed fixes the
rest), and closed orbits are fixed points of the reduced return map.

Sections are planes of the chart's planar image (``to_plane`` of the chart
object: ambient on the sphere, the identity on the torus).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .errors import (DivergedFromFamily, NoConvergence, NoReturn, StepFailure,
                     TangencyError)
from .geometry import TangentState, state_distance, tangent_state
from .dynamics import (Trajectory, flow, pack_state, reference_period, rhs,
                       unpack_state)

log = logging.getLogger(__name__)

SHORT_LOOP_PERIOD_WINDOW = 0.5     # |T - T_ref| <= window * T_ref
SEED_RESIDUAL_GATE = 0.3           # chart units; beyond this a seed is rejected
NEWTON_FD_STEP = 1e-6
NEWTON_DAMPING = 0.8
DEDUP_TOL = 1e-4
TRANSVERSALITY_MIN = 1e-3


@dataclass(frozen=True, eq=False)
class SectionSpec:
    """Transversal slice anchored at a seed state (normal, tangent in the planar image)."""

    anchor: TangentState
    normal: np.ndarray
    tangent: np.ndarray


def make_section(sys, anchor: TangentState) -> SectionSpec:
    normal, tangent = sys.surface.ops.section_frame(anchor.position, anchor.velocity)
    return SectionSpec(anchor=anchor, normal=normal, tangent=tangent)


def _section_value(sys, spec, q):
    ops = sys.surface.ops
    return float((ops.to_plane(q) - ops.to_plane(spec.anchor.position)) @ spec.normal)


def _crossing_speed(sys, spec, q, v):
    vv = sys.surface.ops.plane_velocity(q, v)
    return float(vv @ spec.normal) / np.linalg.norm(vv)


def section_state(sys, spec: SectionSpec, a, b) -> TangentState:
    """The section state with reduced coordinates (a, b)."""
    return sys.surface.ops.section_state(sys, spec, a, b)


def return_map(sys, section: SectionSpec, state: TangentState, tol=1e-10):
    """First forward return of the flow to the section.

    The crossing must be in the direction of the anchor velocity; the search
    is capped at twice the Zoll reference period.
    """
    t_ref = reference_period(sys)
    if abs(_crossing_speed(sys, section, state.position, state.velocity)) \
            < TRANSVERSALITY_MIN:
        raise TangencyError("flow is tangent to the section at the given state")

    f = rhs(sys)
    y0 = pack_state(state)
    rtol = max(tol * 0.1, 1e-13)
    atol = max(tol * 1e-3, 1e-14)
    head = 0.3 * t_ref
    sol = solve_ivp(f, (0.0, head), y0, method="DOP853", rtol=rtol, atol=atol)
    if not sol.success:
        raise StepFailure(sol.message)

    def event(t, y):
        return _section_value(sys, section, unpack_state(y).position)

    event.terminal = True
    event.direction = 1.0
    # cap the step so one step cannot straddle two section crossings
    sol2 = solve_ivp(f, (head, 2.0 * t_ref), sol.y[:, -1], method="DOP853",
                     rtol=rtol, atol=atol, events=event, max_step=0.2 * t_ref)
    if not sol2.success:
        raise StepFailure(sol2.message)
    if len(sol2.t_events[0]) == 0:
        raise NoReturn("no section crossing within 2 reference periods")
    t_ev = float(sol2.t_events[0][0])
    st = unpack_state(sol2.y_events[0][0])
    if abs(_crossing_speed(sys, section, st.position, st.velocity)) < TRANSVERSALITY_MIN:
        raise TangencyError("return crossing is tangent to the section")
    return tangent_state(sys, st.position, st.velocity), t_ev


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
    def F(x):
        st = section_state(sys, spec, x[0], x[1])
        st2, t_ret = return_map(sys, spec, st, tol=tol)
        x2 = sys.surface.ops.section_coords(sys, spec, st2)
        return x2, t_ret, state_distance(sys, st2, st)
    return F


def find_closed_orbit(sys, seed: TangentState, tol=1e-9, max_iter=25,
                      seed_id="seed", n_samples=512, ivp_tol=None):
    """Newton iteration on the reduced return map, starting from seed.

    The seed anchors the section.  Raises DivergedFromFamily when the seed's
    return residual exceeds the short-loop gate or iterates leave the
    neighborhood; NoConvergence when the iteration budget runs out.
    """
    ivp_tol = min(tol * 1e-2, 1e-10) if ivp_tol is None else ivp_tol
    spec = make_section(sys, seed)
    F = _reduced_map(sys, spec, ivp_tol)
    x = np.zeros(2)
    fx, t_ret, resid = F(x)
    if resid >= SEED_RESIDUAL_GATE:
        raise DivergedFromFamily(
            f"seed return residual {resid:.3g} >= {SEED_RESIDUAL_GATE}")

    for it in range(max_iter):
        if resid <= tol:
            return _build_orbit(sys, spec, x, tol, seed_id, n_samples, ivp_tol,
                                iterations=it)
        try:
            jac = np.empty((2, 2))
            for j in range(2):
                xp = x.copy()
                xp[j] += NEWTON_FD_STEP
                fp, _, _ = F(xp)
                jac[:, j] = (fp - xp) - (fx - x)
            jac /= NEWTON_FD_STEP
            g = fx - x
            try:
                dx = np.linalg.solve(jac, -g)
            except np.linalg.LinAlgError:
                dx = np.linalg.lstsq(jac.T @ jac + 1e-12 * np.eye(2),
                                     -jac.T @ g, rcond=None)[0]
            trial = x + dx
            f_t, t_t, r_t = F(trial)
            shrinks = 0
            while r_t > resid and shrinks < 8:
                dx *= NEWTON_DAMPING
                trial = x + dx
                f_t, t_t, r_t = F(trial)
                shrinks += 1
        except (NoReturn, TangencyError) as exc:
            # an iterate wandered off the section geometry entirely
            raise DivergedFromFamily(f"iterate lost the section: {exc}") from exc
        x, fx, t_ret, resid = trial, f_t, t_t, r_t
        if abs(x[0]) > 1.0 or abs(x[1]) > 1.0:
            raise DivergedFromFamily(
                f"iterate left the short-loop neighborhood (|x| = {np.abs(x).max():.3g})")
    if resid <= tol:
        return _build_orbit(sys, spec, x, tol, seed_id, n_samples, ivp_tol,
                            iterations=max_iter)
    raise NoConvergence(f"residual {resid:.3g} after {max_iter} Newton steps")


def _build_orbit(sys, spec, x, tol, seed_id, n_samples, ivp_tol, iterations=0):
    st = section_state(sys, spec, x[0], x[1])
    _, period = return_map(sys, spec, st, tol=ivp_tol)
    t_ref = reference_period(sys)
    if abs(period - t_ref) > SHORT_LOOP_PERIOD_WINDOW * t_ref:
        raise DivergedFromFamily(
            f"period {period:.6g} outside the short-loop window around {t_ref:.6g}")
    traj = flow(sys, st, period, tol=ivp_tol, n_samples=n_samples)
    residual = state_distance(sys, traj.state(-1), traj.state(0))
    return Orbit(traj.states, traj.times, traj.speed_drift,
                 residual=float(residual), seed_id=str(seed_id),
                 newton_iterations=int(iterations))


# --- seed grids and enumeration ---------------------------------------------------

def seed_grid(sys, grid_density, rng_seed=0):
    """Deterministic (seed_id, TangentState) pairs covering the Zoll family."""
    if grid_density <= 0:
        return []
    return sys.surface.ops.seed_family(sys, grid_density, np.random.default_rng(rng_seed))


def _poly_hausdorff(sys, pa, pb):
    """Symmetric Hausdorff distance between closed sample loops.

    Distances are measured from each loop's vertices to the other loop's
    polyline, so that phase-shifted samplings of the same curve compare as
    close.
    """
    pa, pb = sys.surface.ops.align_loops(pa, pb)

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


def deduplicate(sys, orbits, dedup_tol=DEDUP_TOL):
    """Drop orbits whose position loops coincide within dedup_tol.

    Two loops coincide when ``_poly_hausdorff``, the larger of the two
    vertex-to-polyline distances, is below dedup_tol; the first orbit of each
    such group is kept.  Two O(N) bounds in the aligned picture settle most
    pairs without that O(N^2) exact pass: a pair whose ``_support_gap``
    is at least 2 dedup_tol is distinct, and a pair whose ``_matched_bound``
    is below dedup_tol / 2 is a duplicate.  The gap never exceeds the exact
    distance and the matched bound never falls below it, and the factors 2
    leave room for rounding (a few ulps of the coordinates, far below
    dedup_tol), so neither bound can change a decision.
    """
    unique, loops = [], []
    for orb in orbits:
        pa = orb.positions()
        if any(_same_loop(sys, pa, pb, dedup_tol) for pb in loops):
            continue
        unique.append(orb)
        loops.append(pa)
    return unique


def _same_loop(sys, pa, pb, dedup_tol):
    """Whether the loops pa and pb coincide within dedup_tol (see ``deduplicate``)."""
    a, b = sys.surface.ops.align_loops(pa, pb)
    if _support_gap(a, b) >= 2.0 * dedup_tol:
        return False
    if _matched_bound(a, b) < 0.5 * dedup_tol:
        return True
    return _poly_hausdorff(sys, pa, pb) < dedup_tol


class Census(list):
    """Distinct closed orbits in order of magnetic length, with each orbit's
    ``magnetic_lengths`` entry and the size ``seeds_attempted`` of the grid."""

    def __init__(self, orbits, magnetic_lengths, seeds_attempted):
        super().__init__(orbits)
        self.magnetic_lengths = list(magnetic_lengths)
        self.seeds_attempted = seeds_attempted


def enumerate_orbits(sys, grid_density=4, tol=1e-9, max_iter=25, workers=1,
                     rng_seed=0, n_samples=512, dedup_tol=DEDUP_TOL):
    """Closed orbits from a deterministic seed grid, deduplicated and sorted
    by magnetic length, as a Census.  Failed seeds are logged and skipped."""
    seeds = seed_grid(sys, grid_density, rng_seed=rng_seed)
    tasks = [(sys, sid, st, tol, max_iter, n_samples) for sid, st in seeds]
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
    unique = deduplicate(sys, found, dedup_tol=dedup_tol)
    from .functionals import magnetic_length
    lengths = [magnetic_length(sys, orb) for orb in unique]
    order = sorted(range(len(unique)), key=lengths.__getitem__)
    return Census([unique[i] for i in order], [lengths[i] for i in order], len(seeds))


def _run_seed_safe(args):
    sys, seed_id, seed, tol, max_iter, n_samples = args
    try:
        return find_closed_orbit(sys, seed, tol=tol, max_iter=max_iter,
                                 seed_id=seed_id, n_samples=n_samples)
    except (NoConvergence, DivergedFromFamily, NoReturn, TangencyError,
            StepFailure) as exc:
        return f"{type(exc).__name__}: {exc}"
