"""Magnetic geodesic flow: nabla^g_v v = s b(q) J v at unit g-speed.

The flow is integrated with the package's adaptive DOP853 Runge-Kutta stepper
(``ode.solve_ivp``), one solve over the whole run with dense output.  The
runs last a few reference periods, over which the constraints (the sphere,
unit g-speed) hold to the stepper's tolerance with no projection;
``speed_drift`` measures how well.  Trajectories are parametrized by
g-arc length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import StepFailure
from .geometry import MagneticSystem, TangentState, conf_log_diff, g_dot, g_norm
from .ode import solve_ivp
from .reporting import samples_csv

DEFAULT_TOL = 1e-10
MAX_REFERENCE_PERIODS = 100.0


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Samples of the flow on a uniform arc-length grid: row i of the (N, 2d)
    array ``states`` is the state (q, v) at ``times[i]``.  ``positions`` and
    ``velocities`` are views of its column halves, ``state(i)`` copies row i
    out as a TangentState, and ``speed_drift`` is max |(|v|_g - 1)|."""

    states: np.ndarray
    times: np.ndarray
    speed_drift: float

    def state(self, i) -> TangentState:
        return unpack_state(self.states[i])

    def positions(self):
        return self.states[:, :self.states.shape[1] // 2]

    def velocities(self):
        return self.states[:, self.states.shape[1] // 2:]


def reference_period(sys):
    """Common period 2 pi / sqrt(s^2 + kappa) of the unperturbed closed orbits
    of sys, a MagneticSystem or a ZollReference."""
    return 2.0 * math.pi / math.sqrt(sys.strength**2 + sys.kappa)


def rhs(sys: MagneticSystem, tangents=0):
    """Right-hand side of the first-order system y = (q, v).

    With tangents = m > 0 the closure also carries m tangent columns: it maps
    Y = (y, X_1, ..., X_m) to (f(y), Df(y) X_1, ..., Df(y) X_m), the
    variational equations of the flow, and its first block is the m = 0
    result bit for bit.
    """
    return sys.surface.rhs(sys, tangents)


def stepper_tolerances(tol):
    """(rtol, atol) of the DOP853 stepper for the requested tolerance tol.

    The stepper runs a decade below tol so that derived quantities (speed
    drift, closure defects) meet tol-level bounds with margin."""
    return max(tol * 0.1, 1e-13), max(tol * 1e-3, 1e-14)


def pack_state(state: TangentState):
    return np.concatenate([state.position, state.velocity])


def unpack_state(y) -> TangentState:
    d = len(y) // 2
    return TangentState(position=y[:d].copy(), velocity=y[d:].copy())


def flow(sys: MagneticSystem, start: TangentState, duration, tol=DEFAULT_TOL,
         n_samples=None):
    """Integrate the magnetic geodesic flow for the given arc length, by one
    DOP853 solve over [0, duration] with dense output.

    Returns a Trajectory sampled on a uniform grid (both endpoints included).
    Negative durations integrate backwards.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    t_ref = reference_period(sys)
    if abs(duration) > MAX_REFERENCE_PERIODS * t_ref:
        raise ValueError(
            f"duration {duration:g} exceeds the {MAX_REFERENCE_PERIODS:g} "
            "reference-period cap")
    rtol, atol = stepper_tolerances(tol)
    if n_samples is None:
        n_samples = max(64, int(math.ceil(512 * abs(duration) / t_ref)))
    times = np.linspace(0.0, duration, n_samples + 1)
    sol = solve_ivp(rhs(sys), (0.0, duration), pack_state(start), rtol=rtol, atol=atol,
                    dense_output=True)
    if not sol.success:
        raise StepFailure(f"integrator failed on [0, {duration:g}]: {sol.message}")
    return sampled_trajectory(sys, sol.sol, times)


def sampled_trajectory(sys, dense, times):
    """The Trajectory of a solve's dense output dense(times), the (2d, N)
    states at the N times."""
    states = dense(times).T
    speeds = g_norm(sys, *np.hsplit(states, 2))
    return Trajectory(states=states, times=times,
                      speed_drift=float(np.max(np.abs(speeds - 1.0))))


def latitude_seed(sys: MagneticSystem) -> TangentState:
    """A state exactly on a closed orbit of the unperturbed Zoll flow: the
    chart's ``zoll_state`` over its fixed orbit-space point ``latitude_point``
    (the +z axis, the hyperbolic origin, the torus domain's centre (pi, pi)).
    """
    return sys.surface.zoll_state(sys, sys.surface.latitude_point)


def geodesic_curvature_series(sys, traj: Trajectory):
    """Signed geodesic curvature kappa_g = g(nabla_v v, Jv)/|v|_g^3 per sample.

    The covariant acceleration is measured from the sampled data with
    five-point finite differences of the velocity (second order one-sided at
    the ends), so the measurement does not assume the force law.
    """
    times = traj.times
    vel = traj.velocities()
    pos = traj.positions()
    n = len(times)
    if n < 5:
        raise ValueError("need at least 5 samples to measure curvature")
    h = times[1] - times[0]
    dv = np.empty_like(vel)
    dv[2:-2] = (vel[:-4] - 8 * vel[1:-3] + 8 * vel[3:-1] - vel[4:]) / (12 * h)
    c = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / 12.0
    for i in (0, 1):
        dv[i] = sum(c[j] * vel[i + j] for j in range(5)) / h
        dv[-1 - i] = -sum(c[j] * vel[-1 - i - j] for j in range(5)) / h

    return _signed_curvature(sys, pos, vel, dv)


def measure_geodesic_curvature(sys, state: TangentState):
    """High-accuracy signed geodesic curvature at one state.

    Integrates a short burst through the state and differentiates the
    five-point velocity stencil of step 1e-3; measurement error is ~1e-11,
    far below the flow tolerances it is used to certify.
    """
    h = 1e-3
    fwd = flow(sys, state, 2 * h, tol=1e-12, n_samples=2)
    bwd = flow(sys, state, -2 * h, tol=1e-12, n_samples=2)
    # velocities at -2h, -h, 0, h, 2h
    vel = np.vstack([bwd.velocities()[:0:-1], state.velocity, fwd.velocities()[1:]])
    dv = (vel[0] - 8 * vel[1] + 8 * vel[3] - vel[4]) / (12 * h)
    return float(_signed_curvature(sys, state.position, state.velocity, dv))


def _signed_curvature(sys, q, v, dv):
    """kappa_g at the states (q, v) with chart acceleration dv: (..., d) arrays."""
    surface = sys.surface
    cov = surface.covariant(q, v, dv)
    if not sys.is_unperturbed():
        dl = conf_log_diff(sys, q)
        grad, v0sq = surface.g0_terms(q, v, dl)
        cov = (cov + 2.0 * np.sum(dl * v, axis=-1, keepdims=True) * v
               - v0sq[..., None] * grad)
    jv = surface.rotate90(q, v)
    return g_dot(sys, q, cov, jv) / g_norm(sys, q, v) ** 3


def trajectory_to_csv(sys, traj: Trajectory, path):
    """Write t, chart coordinates, velocity and measured geodesic curvature."""
    samples_csv(sys, traj, path,
                extra={"geodesic_curvature": geodesic_curvature_series(sys, traj)})
