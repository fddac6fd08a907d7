"""Orbit functionals: length, capping-disk flux, magnetic length and action.

The capping disk is fixed by the inward-normal convention: of the two
regions a short loop bounds, take the one the rotated velocity J v (the
acceleration side) points into.  Flux integrals run in a local
azimuthal-equidistant picture of the cap, where the area form has an
explicit smooth planar density; each chart object's ``cap_picture`` gives
the region and the density on that chart.

``cap_quadrature`` integrates that density over the region bounded by the
sampled loop (Gauss nodes radially, trapezoid in angle, periodic cubic
spline boundary); ``green_boundary`` integrates an explicit primitive along
the loop instead, and ``closed_form`` is the exact unperturbed value
2 pi s / (sqrt(s^2+kappa) (sqrt(s^2+kappa)+s)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.interpolate import CubicSpline

from .errors import CapNotFound, ValidationError
from .geometry import MagneticSystem, g_norm
from .orbits import Orbit
from . import zollref

CAP_ANGLES = 2048     # trapezoid nodes in angle
CAP_RADIAL = 48       # Gauss nodes along each radius


class FluxMethod(Enum):
    CLOSED_FORM = "closed_form"
    CAP_QUADRATURE = "cap_quadrature"
    GREEN_BOUNDARY = "green_boundary"


@dataclass(frozen=True)
class FluxResult:
    value: float
    method: FluxMethod = FluxMethod.CAP_QUADRATURE


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


# --- cap geometry -----------------------------------------------------------------

def _loop(orbit: Orbit):
    """Positions and velocities of the samples, without the closing repeat."""
    return orbit.positions()[:-1], orbit.velocities()[:-1]


def _boundary_spline(plane, center):
    rel = plane - center
    r = np.linalg.norm(rel, axis=1)
    if np.any(r < 1e-12):
        raise CapNotFound("orbit passes through the cap center")
    psi = np.unwrap(np.arctan2(rel[:, 1], rel[:, 0]))
    steps = np.diff(psi)
    # star-shaped about the center <=> the traversal angle is strictly
    # monotone; winding once means the angle advances by one turn
    if not (np.all(steps > 0) or np.all(steps < 0)):
        raise CapNotFound("orbit boundary is not star-shaped about the cap center")
    if steps[0] < 0:
        psi, r = psi[::-1], r[::-1]
    gap = 2.0 * math.pi - (psi[-1] - psi[0])
    if not 0.0 < gap < 2.0 * math.pi:
        raise CapNotFound("orbit boundary does not wind once about the cap center")
    psi_ext = np.concatenate([psi, [psi[0] + 2.0 * math.pi]])
    r_ext = np.concatenate([r, [r[0]]])
    return CubicSpline(psi_ext, r_ext, bc_type="periodic")


def _orientation(plane):
    x, y = plane[:, 0], plane[:, 1]
    area2 = float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))
    return 1.0 if area2 > 0 else -1.0


def _cap_quadrature(sys, orbit):
    closure = orbit.positions()[-1] - orbit.positions()[0]
    plane, density, to_chart, center = sys.surface.cap_picture(*_loop(orbit), closure)
    spline = _boundary_spline(plane, center)
    orient = _orientation(plane)

    psi = np.linspace(0.0, 2.0 * math.pi, CAP_ANGLES, endpoint=False)
    rb = spline(_wrap_to(spline.x[0], psi))
    nodes, weights = np.polynomial.legendre.leggauss(CAP_RADIAL)
    t = 0.5 * (nodes + 1.0)                      # radial fraction in (0, 1)
    wts = 0.5 * weights
    r = rb[None, :] * t[:, None]                 # (n_radial, n_angle)
    e = np.stack([np.cos(psi), np.sin(psi)], axis=-1)
    P = center[None, None, :] + r[..., None] * e[None, :, :]
    dens = density(P)
    eta = sys.sigma_perturbation
    if eta is not None and sys.conformal_eps != 0.0:
        # an unperturbed sigma would scale dens by exactly 1.0: skip the map back
        dens = dens * (1.0 + sys.conformal_eps * eta.density(sys.surface, to_chart(P)))
    integrand = dens * r
    inner = np.sum(integrand * wts[:, None], axis=0) * rb
    area = float(inner.mean() * 2.0 * math.pi)
    return orient * area


def _wrap_to(x0, psi):
    return x0 + np.mod(psi - x0, 2.0 * math.pi)


def _green_boundary(sys, orbit):
    """Boundary-integral flux: exact primitive for sigma0, direct loop
    integral for the exact perturbation (int_D d(eta) = oint eta)."""
    h = orbit.period / (len(orbit.states) - 1)
    pos, vel = _loop(orbit)
    base = float(h * np.sum(sys.surface.green_integrand(pos, vel)))
    eta_part = 0.0
    if sys.sigma_perturbation is not None and sys.conformal_eps != 0.0:
        comp = sys.sigma_perturbation.components(sys.surface, pos)
        eta_part = sys.conformal_eps * float(h * np.sum(np.sum(comp * vel, axis=1)))
    return base + eta_part


def closed_form_flux(kappa, strength):
    """Exact unperturbed cap flux s * int_D sigma0 (continuous across kappa=0)."""
    zollref.check_zoll_regime(kappa, strength)
    rt = math.sqrt(strength**2 + kappa)
    return 2.0 * math.pi * strength / (rt * (rt + strength))


def flux_through_cap(sys: MagneticSystem, orbit: Orbit,
                     method=FluxMethod.CAP_QUADRATURE) -> FluxResult:
    """Signed flux s * int_D sigma over the inward-normal capping disk."""
    if isinstance(method, str):
        method = FluxMethod(method)
    if method is FluxMethod.CLOSED_FORM:
        if not sys.is_unperturbed():
            raise ValidationError("closed-form flux applies to unperturbed systems only")
        return FluxResult(value=closed_form_flux(sys.kappa, sys.strength),
                          method=method)
    if method is FluxMethod.GREEN_BOUNDARY:
        raw = _green_boundary(sys, orbit)
    else:
        raw = _cap_quadrature(sys, orbit)
    return FluxResult(value=sys.strength * raw, method=method)


def magnetic_length(sys: MagneticSystem, orbit: Orbit,
                    method=FluxMethod.CAP_QUADRATURE) -> float:
    """length_g(orbit) - s int_D sigma."""
    return length(sys, orbit) - flux_through_cap(sys, orbit, method=method).value


def magnetic_action(sys: MagneticSystem, orbit: Orbit,
                    method=FluxMethod.CAP_QUADRATURE) -> ActionValue:
    """Action relative to the Zoll reference: l_mag(orbit) - pi a^2(1)."""
    ln = length(sys, orbit)
    fx = flux_through_cap(sys, orbit, method=method).value
    ref = zollref.reference_length(sys.kappa, sys.strength)
    return ActionValue(value=ln - fx - ref,
                       decomposition={"length_g": ln, "flux": fx,
                                      "reference_constant": ref})
