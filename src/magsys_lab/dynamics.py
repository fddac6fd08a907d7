"""Magnetic geodesic flow: nabla^g_v v = s b(q) J v at unit g-speed.

The flow is integrated with an adaptive high-order Runge-Kutta stepper
(DOP853).  Long runs are split into chunks of roughly one reference period;
between chunks the state is projected back onto the sphere and onto unit
g-speed, which stops secular drift without touching the local error control.
Trajectories are parametrized by g-arc length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .errors import StepFailure
from .geometry import (MagneticSystem, TangentState, conf_log_diff, g_dot,
                       g_norm, rotate90, tangent_state)
from .reporting import samples_csv

DEFAULT_TOL = 1e-10
MAX_REFERENCE_PERIODS = 100.0


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Time-ordered samples of the flow, parametrized by arc length."""

    states: list
    times: np.ndarray
    speed_drift: float

    def positions(self):
        return np.array([s.position for s in self.states])

    def velocities(self):
        return np.array([s.velocity for s in self.states])


def reference_period(sys: MagneticSystem):
    """Common period 2 pi / sqrt(s^2 + kappa) of the unperturbed closed orbits."""
    return 2.0 * math.pi / math.sqrt(sys.strength**2 + sys.kappa)


def rhs(sys: MagneticSystem):
    """Right-hand side of the first-order system y = (q, v)."""
    return sys.surface.ops.rhs(sys)


def _pack(state: TangentState):
    return np.concatenate([state.position, state.velocity])


def _unpack(surface, y):
    d = surface.ops.dim
    return TangentState(position=y[:d].copy(), velocity=y[d:].copy())


def _renormalize(sys, y):
    st = _unpack(sys.surface, y)
    st = tangent_state(sys, st.position, st.velocity)
    return _pack(st)


def flow(sys: MagneticSystem, start: TangentState, duration, tol=DEFAULT_TOL,
         n_samples=None):
    """Integrate the magnetic geodesic flow for the given arc length.

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
    # the stepper runs a decade below the requested tolerance so that derived
    # quantities (speed drift, closure defects) meet tol-level bounds with margin
    rtol = max(tol * 0.1, 1e-13)
    atol = max(tol * 1e-3, 1e-14)
    if n_samples is None:
        n_samples = max(64, int(math.ceil(512 * abs(duration) / t_ref)))
    times = np.linspace(0.0, duration, n_samples + 1)

    f = rhs(sys)
    y = _pack(start)
    out = np.empty((n_samples + 1, y.size))
    out[0] = y
    chunk = t_ref if duration >= 0 else -t_ref
    t0 = 0.0
    filled = 1
    while (duration - t0) * np.sign(duration or 1.0) > 1e-15:
        t1 = t0 + chunk
        if (duration - t1) * np.sign(duration or 1.0) < 0:
            t1 = duration
        sol = solve_ivp(f, (t0, t1), y, method="DOP853", rtol=rtol,
                        atol=atol, dense_output=True)
        if not sol.success:
            raise StepFailure(f"integrator failed on [{t0:g}, {t1:g}]: {sol.message}")
        lo = filled
        hi = lo
        while hi <= n_samples and (times[hi] - t1) * np.sign(duration or 1.0) <= 1e-13:
            hi += 1
        if hi > lo:
            out[lo:hi] = sol.sol(times[lo:hi]).T
            filled = hi
        y = _renormalize(sys, sol.y[:, -1])
        t0 = t1
    if filled <= n_samples:
        out[filled:] = out[filled - 1]

    states = [_unpack(sys.surface, row) for row in out]
    speeds = np.array([g_norm(sys, st.position, st.velocity) for st in states])
    drift = float(np.max(np.abs(speeds - 1.0)))
    return Trajectory(states=states, times=times, speed_drift=drift)


def latitude_seed(sys: MagneticSystem) -> TangentState:
    """A state lying exactly on a closed orbit of the unperturbed Zoll flow.

    Placement: the circle whose signed geodesic curvature equals s (each
    chart object's ``latitude_seed`` gives its radius).  Orientation keeps
    the enclosed center on the J-side of the velocity.
    """
    return sys.surface.ops.latitude_seed(sys)


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

    out = np.empty(n)
    for i in range(n):
        out[i] = _signed_curvature(sys, pos[i], vel[i], dv[i])
    return out


def measure_geodesic_curvature(sys, state: TangentState, fd_step=1e-3):
    """High-accuracy signed geodesic curvature at one state.

    Integrates a short burst through the state and differentiates the
    five-point velocity stencil; measurement error is ~1e-11, far below the
    flow tolerances it is used to certify.
    """
    h = fd_step
    fwd = flow(sys, state, 2 * h, tol=1e-12, n_samples=2)
    bwd = flow(sys, state, -2 * h, tol=1e-12, n_samples=2)
    sts = [bwd.states[2], bwd.states[1], state, fwd.states[1], fwd.states[2]]
    vel = np.array([s.velocity for s in sts])
    dv = (vel[0] - 8 * vel[1] + 8 * vel[3] - vel[4]) / (12 * h)
    return _signed_curvature(sys, state.position, state.velocity, dv)


def _signed_curvature(sys, q, v, dv):
    ops = sys.surface.ops
    cov = ops.covariant(q, v, dv)
    if not sys.is_unperturbed():
        dl = conf_log_diff(sys, q)
        grad, v0sq = ops.g0_terms(q, v, dl)
        cov = cov + 2.0 * float(dl @ v) * v - v0sq * grad
    jv = rotate90(sys, q, v)
    return float(g_dot(sys, q, cov, jv)) / float(g_norm(sys, q, v)) ** 3


def trajectory_to_csv(sys, traj: Trajectory, path):
    """Write t, chart coordinates, velocity and measured geodesic curvature."""
    samples_csv(sys, traj.times, traj.states, path,
                extra={"geodesic_curvature": geodesic_curvature_series(sys, traj)})
