"""The experiment configuration: every census default, written once.  The
CLI and config files override its fields; ``orbits`` takes its library
default ``tol_orbit`` from it.  The tolerances that no config sets are
constants of their readers: ``geometry.AREA_TOL`` (the area quadrature),
``orbits.MAX_ITER`` (Newton's budget), ``syslab.EQUALITY_TOL`` and
``syslab.INEQ_TOL`` (the verdicts)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .fields import OneForm, ScalarField


@dataclass(frozen=True)
class ExperimentConfig:
    kappa: float
    strength: float
    n: int = 1
    perturbation_name: str | None = None
    perturbation_coeffs: tuple = (1.0,)
    eps: float = 0.0
    eta_name: str | None = None
    eta_coeffs: tuple = (1.0,)
    normalize: bool = True
    grid_density: int = 3
    tol_orbit: float = 1e-9
    rng_seed: int = 0

    def __post_init__(self):
        # a nan passes "eps > 0" as false and an infinite tol_orbit accepts any
        # seed, so every real-valued field is checked finite first
        for name in ("eps", "tol_orbit", "perturbation_coeffs", "eta_coeffs"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValidationError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.tol_orbit > 0:
            raise ValidationError("tol_orbit must be positive")
        if self.eps < 0:
            raise ValidationError(f"eps must be >= 0, got {self.eps}")
        if self.n < 1:
            raise ValidationError("n must be >= 1")
        for name, least in (("grid_density", 0), ("rng_seed", 0)):
            if getattr(self, name) < least:
                raise ValidationError(f"{name} must be >= {least}, got {getattr(self, name)}")
        # unknown field names and wrong coefficient counts fail here, not mid-run
        if self.perturbation_name is not None:
            ScalarField(self.perturbation_name, tuple(self.perturbation_coeffs))
        if self.eta_name is not None:
            OneForm(self.eta_name, tuple(self.eta_coeffs))
