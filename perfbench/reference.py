"""A fixed reference kernel, timed around every repeat of a command.

On the host the benchmark was written on (2 shared vCPUs) the same code runs
up to 1.5 times slower for minutes at a time.  Those phases outlast a run, so
raw command times of ten consecutive runs spread by up to 0.23-0.34
(IQR / median), more than the 0.25 a bound may be.
Dividing each command time by the time of this kernel, measured just before
and just after the command in the same process, cancels most of the swing.

The kernel uses numpy and scipy only, never magsys_lab, so no change to the
program moves it.  Its mix follows the workloads: a DOP853 integration with a
small-array Python right-hand side (the censuses' return maps), point-to-
polyline distances between closed loops (deduplication), and vectorised
transcendental functions on arrays (the volume oracle).  Its arrays are kept
small so that it does not set the benchmark's peak RSS.
"""

import time

import numpy as np
from scipy.integrate import solve_ivp


def _rhs(t, y):
    q, v = y[:3], y[3:]
    return np.concatenate([v, -float(v @ v) * q + 0.5 * np.cross(q, v)])


def _polyline_distance(P, Q):
    """Largest distance from a point of P to the polyline Q."""
    A, B = Q[:-1], Q[1:]
    AB = B - A
    AP = P[:, None, :] - A[None, :, :]
    t = np.clip(np.einsum("psd,sd->ps", AP, AB) / np.sum(AB * AB, axis=1), 0.0, 1.0)
    proj = A[None, :, :] + t[:, :, None] * AB[None, :, :]
    return float(np.linalg.norm(P[:, None, :] - proj, axis=2).min(axis=1).max())


class Reference:
    """Fixed inputs of the kernel, built once."""

    def __init__(self):
        theta = np.linspace(0.0, 2.0 * np.pi, 128)
        self.loop = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        self.other_loop = 1.01 * self.loop[::-1]
        self.samples = np.random.default_rng(0).uniform(size=50_000)
        self.y0 = np.array([1.0, 0.0, 0.0, 0.0, 1.0, 0.0])

    def seconds(self):
        """Wall time of one pass of the kernel."""
        t0 = time.perf_counter()
        solve_ivp(_rhs, (0.0, 100.0), self.y0, method="DOP853", rtol=1e-12, atol=1e-14)
        for _ in range(96):
            _polyline_distance(self.loop, self.other_loop)
        x = self.samples
        for _ in range(16):
            float(np.exp(np.sin(x) * np.cos(x)).sum())
        return time.perf_counter() - t0
