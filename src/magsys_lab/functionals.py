"""Orbit functionals: length, capping-disk flux, magnetic length and action.

The capping disk is fixed by the inward-normal convention: of the two
regions a short loop bounds, take the one the rotated velocity J v (the
acceleration side) points into.

The flux is a boundary integral (Stokes): sigma = sigma0 + eps d(eta), so
int_D sigma is the loop integral of an explicit primitive of sigma0 plus
eps oint eta, both by the periodic trapezoid rule over the orbit's samples.
One call of the chart's ``cap`` gives the primitive's per-sample integrand
with the loop in a plane picture of the cap and the cap centre; the
primitive needs a simple loop around that centre, which ``_check_cap``
tests before the integrand is summed.
``closed_form_flux`` is the exact unperturbed value
2 pi s / (sqrt(s^2+kappa) (sqrt(s^2+kappa)+s)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapNotFound
from .geometry import MagneticSystem, g_norm
from .orbits import Orbit
from . import zollref


@dataclass(frozen=True)
class ActionValue:
    value: float
    decomposition: dict


def length(sys: MagneticSystem, orbit: Orbit) -> float:
    """Arc length of the closed orbit under the (perturbed) metric.

    Re-measured by a periodic trapezoid rule over the samples rather than
    trusting the arc-length parametrization, so speed drift shows up here.
    """
    h = orbit.period / (len(orbit.states) - 1)
    return float(h * g_norm(sys, *_loop(orbit)).sum())


def _loop(orbit: Orbit):
    """Positions and velocities of the samples, without the closing repeat."""
    return orbit.positions()[:-1], orbit.velocities()[:-1]


def _check_cap(plane, center):
    """Refuse a loop that is not star-shaped about the cap centre, winding
    once: the boundary integral is the cap's flux only for a simple loop
    around the centre (on the sphere, away from its antipode)."""
    rel = plane - center
    if np.any(np.linalg.norm(rel, axis=1) < 1e-12):
        raise CapNotFound("orbit passes through the cap center")
    psi = np.unwrap(np.arctan2(rel[:, 1], rel[:, 0]))
    steps = np.diff(psi)
    # star-shaped about the center <=> the traversal angle is strictly
    # monotone; winding once means the angle advances by one turn
    if not (np.all(steps > 0) or np.all(steps < 0)):
        raise CapNotFound("orbit boundary is not star-shaped about the cap center")
    gap = 2.0 * math.pi - abs(psi[-1] - psi[0])
    if not 0.0 < gap < 2.0 * math.pi:
        raise CapNotFound("orbit boundary does not wind once about the cap center")


def closed_form_flux(kappa, strength):
    """Exact unperturbed cap flux s * int_D sigma0 (continuous across kappa=0)."""
    zollref.check_zoll_regime(kappa, strength)
    rt = math.sqrt(strength**2 + kappa)
    return 2.0 * math.pi * strength / (rt * (rt + strength))


def flux_through_cap(sys: MagneticSystem, orbit: Orbit) -> float:
    """Signed flux s * int_D sigma over the inward-normal capping disk."""
    pos, vel = _loop(orbit)
    closure = orbit.positions()[-1] - orbit.positions()[0]
    plane, center, integrand = sys.surface.cap(pos, vel, closure)
    _check_cap(plane, center)
    h = orbit.period / (len(orbit.states) - 1)
    flux = float(h * np.sum(integrand))
    if sys.sigma_perturbation is not None:
        pair = sys.sigma_perturbation.pairing(sys.surface, pos, vel)
        flux += sys.conformal_eps * float(h * np.sum(pair))
    return sys.strength * flux


def magnetic_length(sys: MagneticSystem, orbit: Orbit) -> float:
    """length_g(orbit) - s int_D sigma."""
    return length(sys, orbit) - flux_through_cap(sys, orbit)


def magnetic_action(sys: MagneticSystem, orbit: Orbit) -> ActionValue:
    """Action relative to the Zoll reference: l_mag(orbit) - pi a^2(1)."""
    ln = length(sys, orbit)
    fx = flux_through_cap(sys, orbit)
    ref = zollref.reference_length(sys.kappa, sys.strength)
    return ActionValue(value=ln - fx - ref,
                       decomposition={"length_g": ln, "flux": fx,
                                      "reference_constant": ref})
