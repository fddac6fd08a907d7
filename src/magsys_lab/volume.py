"""The odd-symplectic volume functional and its Monte Carlo oracle.

For a conformal perturbation of a model surface the volume functional has
the closed form

    Vol = pi * (vol_g - vol_g0),

derived by reducing the defining double integral over the unit tangent
bundle: writing f for the fiberwise speed ratio of the perturbed metric,
the r-integral of (f-1)(1-r+rf) is (f^2-1)/2, the exact-perturbation terms
drop out by Stokes, and the fiber contributes its length 2 pi.  The
orientation is fixed so that the characteristic flow is positively oriented;
with that choice the constant is +pi.  (``zollref.identity_constant`` exposes
the general-dimension constant 2 pi^{2n}/(n-1)! of the same identity.)

``vol_quadrature_oracle`` checks the closed form on the closed charts
(sphere and flat torus) without the reduction to vol_g: a stratified Monte
Carlo over the base in the chart's metric coordinates (r, p), with the
r-integral (f^2 - 1)/2 and the fiber length 2 pi taken exactly, so its
integrand is (f + 1)/2 * w (f - 1) at the chart's ``box_points``.  It tests
the +pi constant, not the Stokes step: an exact term eps d(eta) never
enters it, since its integral over each fiber vanishes.  Each cell draws
from its own seed and reduces to its own mean and variance, and these are
combined in fixed cell order, so a fixed seed gives a bit-identical result.
A cell of n base points costs one draw of 2n uniforms, the chart's trig in
``box_points``, one exp and two reductions.  The cells are split over the
CPUs the process may use, in threads (numpy releases the GIL in that work);
each worker has one cell's arrays alive at a time, and the result does not
depend on the split.
"""

from __future__ import annotations

import math
import numbers
import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .geometry import AREA_TOL, MagneticSystem, riemannian_volume

CELLS_PER_SIDE = 16

ORIENTATION_NOTE = ("orientation: characteristic flow positively oriented; "
                    "fiber length 2 pi; surface constant +pi")


@dataclass(frozen=True)
class VolumeReport:
    """The closed form pi (vol_g - vol_g0), the oracle's estimate and its
    standard error.  ``samples`` is the requested count; the oracle draws
    ceil(samples / 512) base points in each of its 256 cells, each standing
    for the two ends of an antithetic fiber pair (4,000,256 ends for 4e6).
    The oracle checks the +pi constant of the closed form, not the Stokes
    step that drops eps d(eta)."""

    closed_form: float
    quadrature: float
    std_error: float
    samples: int
    constant_convention: str = ORIENTATION_NOTE


def vol_closed_form(sys0: MagneticSystem, sys: MagneticSystem,
                    rel_tol=AREA_TOL):
    """pi * (vol_g - vol_g0) for a perturbation sys of the model sys0, with
    vol_g by quadrature to relative tolerance rel_tol.

    Volume-normalized systems have vol_g = vol_g0 by construction, so the
    value is exactly zero without quadrature noise.
    """
    _check_pair(sys0, sys)
    if sys.volume_normalized or sys.is_unperturbed():
        return 0.0
    vol_g = riemannian_volume(sys, rel_tol=rel_tol)
    vol_g0 = sys0.surface.area()
    return math.pi * (vol_g - vol_g0)


def _check_pair(sys0, sys):
    if sys0.surface != sys.surface:
        raise ValidationError("sys must perturb sys0 on the same surface")
    if not sys0.is_unperturbed():
        raise ValidationError("the reference system sys0 must be unperturbed")
    if sys0.strength != sys.strength:
        raise ValidationError("reference and perturbed systems must share strength")


def check_samples(samples):
    """Refuse a sample count that leaves one base point in a cell (below 513
    at the 16 x 16 cells): two points per cell are the fewest that estimate a
    variance, and with one the standard error would read 0.  NaN and
    infinity, which fix no count of points, are refused too."""
    fewest = 2 * CELLS_PER_SIDE**2 + 1
    if not fewest <= samples < math.inf:
        raise ValidationError(
            f"samples = {samples} is not a finite count of at least {fewest}: "
            "the volume oracle needs two base points in each of its cells to "
            "estimate its error")


def _usable_cpus():
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def vol_quadrature_oracle(sys0: MagneticSystem, sys: MagneticSystem,
                          samples=1_000_000, rng_seed=0):
    """Unbiased Monte Carlo estimate of the volume functional with its
    standard error.  Deterministic under a fixed rng_seed; samples must be at
    least 2 CELLS_PER_SIDE^2 + 1 (``check_samples``).  Each cell draws
    ceil(samples / (2 CELLS_PER_SIDE^2)) base points, uniform in the cell of
    the chart's ``oracle_box``, so the integrand is evaluated at
    ceil(samples / 512) * 256 points (2,000,128 for 4e6).  The cells are
    split over one worker per usable CPU, the calling thread among them, with
    one cell's arrays alive per worker; the result is bit for bit the same
    for every split, and a worker's exception is raised here."""
    _check_pair(sys0, sys)
    check_samples(samples)
    if not isinstance(rng_seed, numbers.Integral) or rng_seed < 0:
        raise ValidationError(f"rng_seed = {rng_seed!r} must be a non-negative integer")
    surface = sys.surface
    box = surface.oracle_box()
    vol_box = box[0] * box[1] * 2.0 * math.pi

    n_cells = CELLS_PER_SIDE**2
    n = math.ceil(samples / (2 * n_cells))
    children = np.random.SeedSequence(rng_seed).spawn(n_cells)
    # conf_log's formula, resolved once: eps u + lam_part, with u = 0 unperturbed
    u = sys.conformal_exponent
    u_value = (lambda x: 0.0) if u is None else u.formulas(surface)[0]
    lam_part = 0.5 * math.log(sys.conformal_scale)

    cell_means = np.empty(n_cells)
    cell_vars = np.empty(n_cells)
    dx = box[0] / CELLS_PER_SIDE
    dy = box[1] / CELLS_PER_SIDE

    # cells are handed out one at a time, so a worker slowed by another
    # process on its CPU takes fewer of them
    todo, todo_lock = iter(range(n_cells)), threading.Lock()

    def cells():
        """Work cells from todo until none is left, in this worker's own
        buffers; a cell writes only its own entries of cell_means and
        cell_vars."""
        f, value = np.empty(n), np.empty(n)
        while True:
            with todo_lock:
                idx = next(todo, None)
            if idx is None:
                return
            i, j = divmod(idx, CELLS_PER_SIDE)
            # r and p from one draw, lo + (hi - lo) u as Generator.uniform rounds them
            r_p = np.random.default_rng(children[idx]).random(2 * n).reshape(2, n)
            r_p *= [[(i + 1) * dx - i * dx], [(j + 1) * dy - j * dy]]
            r_p += [[i * dx], [j * dy]]
            q, w = surface.box_points(*r_p)
            np.multiply(sys.conformal_eps, u_value(q.T), out=f)
            np.exp(np.add(f, lam_part, out=f), out=f)
            # value = 0.5 (f + 1) * (w (f - 1)), then its mean and ddof-1
            # variance, reduced as ndarray.mean and .var reduce them
            np.multiply(0.5, np.add(f, 1.0, out=value), out=value)
            value *= np.multiply(w, np.subtract(f, 1.0, out=f), out=f)
            cell_means[idx] = mean = np.add.reduce(value) / n
            np.square(np.subtract(value, mean, out=value), out=value)
            cell_vars[idx] = np.add.reduce(value) / (n - 1)

    # numpy releases the GIL in the draw, the trig, the exp and the
    # reductions, so threads share the cells; the calling thread is one
    # worker, and no thread starts at one worker
    from concurrent.futures import ThreadPoolExecutor
    workers = min(_usable_cpus(), n_cells)
    with ThreadPoolExecutor(max(workers - 1, 1)) as pool:
        shares = [pool.submit(cells) for _ in range(workers - 1)]
        cells()
    for share in shares:
        share.result()

    estimate = vol_box * float(cell_means.mean())
    var = float(np.sum(cell_vars / n)) / n_cells**2
    std_error = vol_box * math.sqrt(var)
    return estimate, std_error


def volume_report(sys0, sys, samples=1_000_000, rng_seed=0,
                  rel_tol=AREA_TOL) -> VolumeReport:
    est, se = vol_quadrature_oracle(sys0, sys, samples=samples, rng_seed=rng_seed)
    return VolumeReport(closed_form=vol_closed_form(sys0, sys, rel_tol=rel_tol),
                        quadrature=est, std_error=se, samples=samples)
