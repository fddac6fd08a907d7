"""The odd-symplectic volume functional and its Monte Carlo oracle.

For a conformal perturbation of a model surface the volume functional has
the closed form

    Vol = pi * (vol_g - vol_g0),

derived by reducing the defining double integral over the unit tangent
bundle: writing f for the fiberwise speed ratio of the perturbed metric,
the r-integral of (f-1)(1-r+rf) is (f^2-1)/2, the exact-perturbation terms
drop out by Stokes, and the fiber contributes its length 2 pi.  The
orientation is fixed so that the characteristic flow is positively oriented;
with that choice the constant is +pi.  (``identity_constant`` exposes the
general-dimension constant 2 pi^{2n}/(n-1)! of the same identity.)

``vol_quadrature_oracle`` evaluates the defining integral directly: it
Monte-Carlo samples the 3-dimensional unit tangent bundle in explicit
coordinates ((x, y, phi) on the torus, (theta, phi, psi) in spherical
coordinates; the chart object's ``oracle`` gives the integrand and the
box), evaluates the full 3-form alpha ^ (Omega0 + r d(alpha)) pointwise
with the r-integral done exactly, and averages.  Sampling is
stratified over base cells with antithetic fiber angles (a and a + pi
over one base point); the integrand returns each pair's mean, computing the
base point's terms once and only the fiber's cos and sin at both angles.
Partial sums are combined in fixed cell order, so a fixed seed gives a
bit-identical result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .geometry import MagneticSystem, riemannian_volume

CELLS_PER_SIDE = 16

ORIENTATION_NOTE = ("orientation: characteristic flow positively oriented; "
                    "fiber length 2 pi; surface constant +pi")


@dataclass(frozen=True)
class VolumeReport:
    """The closed form pi (vol_g - vol_g0), the oracle's estimate and its
    standard error.  ``samples`` is the requested count; the oracle draws the
    same number of antithetic pairs in each of its 256 cells, so it evaluates
    2 * ceil(samples / 512) * 256 points (4,000,256 for 4e6)."""

    closed_form: float
    quadrature: float
    std_error: float
    samples: int
    constant_convention: str = ORIENTATION_NOTE


def identity_constant(n):
    """General-dimension constant 2 pi^{2n}/(n-1)! of the volume identity."""
    if n < 1:
        raise ValidationError("n must be >= 1")
    return 2.0 * math.pi ** (2 * n) / math.factorial(n - 1)


def vol_closed_form(sys0: MagneticSystem, sys: MagneticSystem):
    """pi * (vol_g - vol_g0) for a perturbation sys of the model sys0, with
    vol_g by quadrature to relative tolerance 1e-9.

    Volume-normalized systems have vol_g = vol_g0 by construction, so the
    value is exactly zero without quadrature noise.
    """
    _check_pair(sys0, sys)
    if sys.volume_normalized or sys.is_unperturbed():
        return 0.0
    vol_g = riemannian_volume(sys, rel_tol=1e-9)
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
    """Refuse a sample count that leaves one antithetic pair in a cell (513
    at the 16 x 16 cells): two pairs per cell are the fewest that estimate a
    variance, and with one the standard error would read 0."""
    fewest = 2 * CELLS_PER_SIDE**2 + 1
    if samples < fewest:
        raise ValidationError(
            f"samples = {samples} is below {fewest}: the volume oracle "
            "needs two antithetic pairs in each of its cells to estimate its error")


def vol_quadrature_oracle(sys0: MagneticSystem, sys: MagneticSystem,
                          samples=1_000_000, rng_seed=0):
    """Unbiased Monte Carlo estimate of the volume functional with its
    standard error.  Deterministic under a fixed rng_seed; samples must be at
    least 2 CELLS_PER_SIDE^2 + 1 (``check_samples``).  Each cell draws
    ceil(samples / (2 CELLS_PER_SIDE^2)) antithetic pairs, so the integrand is
    evaluated at up to 2 CELLS_PER_SIDE^2 - 1 points more than ``samples``
    (4,000,256 for 4e6 at 16 x 16 cells).  The chart's integrand returns pair
    means: a pair shares its base point's terms (area weight, field point,
    e^Lambda and eta), so they are computed once per pair."""
    _check_pair(sys0, sys)
    check_samples(samples)
    pair_mean_at, box = sys.surface.oracle(sys)
    vol_box = box[0] * box[1] * 2.0 * math.pi

    n_cells = CELLS_PER_SIDE**2
    pairs_per_cell = math.ceil(samples / (2 * n_cells))
    root = np.random.SeedSequence(rng_seed)
    children = root.spawn(n_cells)

    cell_means = np.empty(n_cells)
    cell_vars = np.empty(n_cells)
    dx = box[0] / CELLS_PER_SIDE
    dy = box[1] / CELLS_PER_SIDE
    idx = 0
    for i in range(CELLS_PER_SIDE):
        for j in range(CELLS_PER_SIDE):
            rng = np.random.default_rng(children[idx])
            q = np.empty((pairs_per_cell, 2))
            q[:, 0] = rng.uniform(i * dx, (i + 1) * dx, size=pairs_per_cell)
            q[:, 1] = rng.uniform(j * dy, (j + 1) * dy, size=pairs_per_cell)
            fib = rng.uniform(0.0, 2.0 * math.pi, size=pairs_per_cell)
            pair_mean = pair_mean_at(q, fib)
            cell_means[idx] = pair_mean.mean()
            cell_vars[idx] = pair_mean.var(ddof=1)
            idx += 1

    estimate = vol_box * float(cell_means.mean())
    var = float(np.sum(cell_vars / pairs_per_cell)) / n_cells**2
    std_error = vol_box * math.sqrt(var)
    return estimate, std_error


def volume_report(sys0, sys, samples=1_000_000, rng_seed=0) -> VolumeReport:
    est, se = vol_quadrature_oracle(sys0, sys, samples=samples, rng_seed=rng_seed)
    return VolumeReport(closed_form=vol_closed_form(sys0, sys), quadrature=est,
                        std_error=se, samples=samples)
