"""Named built-in perturbation fields.

Metric perturbations enter as conformal exponents u (dimensionless scalar
fields), magnetic perturbations as 1-forms eta with closed-form exterior
derivative.  Fields are referenced by name plus a coefficient list, so
configs stay declarative (no code loading) and systems stay picklable.

Points are in each chart's own coordinates (see the chart objects in
``geometry``), and so are covectors: on the sphere a differential is an
ambient Euclidean covector (project onto the tangent plane to get the
intrinsic gradient), elsewhere it has (d_rho, d_phi) or (dx, dy) components.

``OneForm.density`` returns d(eta)/sigma0, the exterior derivative measured
against the unperturbed area form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .geometry import Chart

_SPHERE = Chart.SPHERE_AMBIENT
_HYPER = Chart.HYPERBOLIC_POLAR
_TORUS = Chart.FLAT_TORUS


def _axis(coeffs):
    ax = np.asarray(coeffs[1:4], dtype=float)
    n = np.linalg.norm(ax)
    if n == 0.0:
        raise ValidationError("sphere_harmonic axis must be nonzero")
    return ax / n


# --- scalar fields -----------------------------------------------------------
# value(coeffs, surface, q) -> (...,);  diff(coeffs, surface, q) -> (..., dim)

def _const_val(coeffs, surface, q):
    q = np.asarray(q, dtype=float)
    return np.full(q.shape[:-1], float(coeffs[0]))


def _const_diff(coeffs, surface, q):
    return np.zeros_like(np.asarray(q, dtype=float))


def _sphere_harmonic_val(coeffs, surface, q):
    # u = c * sqrt(kappa) * <axis, q>; restriction of a linear harmonic.
    c = float(coeffs[0])
    ax = _axis(coeffs) if len(coeffs) >= 4 else np.array([0.0, 0.0, 1.0])
    q = np.asarray(q, dtype=float)
    return c * np.sqrt(surface.kappa) * (q @ ax)


def _sphere_harmonic_diff(coeffs, surface, q):
    c = float(coeffs[0])
    ax = _axis(coeffs) if len(coeffs) >= 4 else np.array([0.0, 0.0, 1.0])
    out = c * np.sqrt(surface.kappa) * ax
    q = np.asarray(q, dtype=float)
    return out if q.ndim == 1 else np.array(np.broadcast_to(out, q.shape))


def _torus_cos_val(idx):
    def val(coeffs, surface, q):
        c = float(coeffs[0])
        period = surface.torus_periods[idx]
        q = np.asarray(q, dtype=float)
        return c * np.cos(2.0 * np.pi * q[..., idx] / period)
    return val


def _torus_cos_diff(idx):
    def diff(coeffs, surface, q):
        c = float(coeffs[0])
        period = surface.torus_periods[idx]
        q = np.asarray(q, dtype=float)
        out = np.zeros_like(q)
        k = 2.0 * np.pi / period
        out[..., idx] = -c * k * np.sin(k * q[..., idx])
        return out
    return diff


def _hyper_bump_val(coeffs, surface, q):
    c, rho0 = float(coeffs[0]), float(coeffs[1])
    q = np.asarray(q, dtype=float)
    return c * np.exp(-((q[..., 0] / rho0) ** 2))


def _hyper_bump_diff(coeffs, surface, q):
    c, rho0 = float(coeffs[0]), float(coeffs[1])
    q = np.asarray(q, dtype=float)
    out = np.zeros_like(q)
    out[..., 0] = c * np.exp(-((q[..., 0] / rho0) ** 2)) * (-2.0 * q[..., 0] / rho0**2)
    return out


_SCALAR_FIELDS = {
    "const": (_const_val, _const_diff, None, 1),
    "sphere_harmonic_z": (_sphere_harmonic_val, _sphere_harmonic_diff, _SPHERE, 1),
    "sphere_harmonic_axis": (_sphere_harmonic_val, _sphere_harmonic_diff, _SPHERE, 4),
    "torus_cos_x": (_torus_cos_val(0), _torus_cos_diff(0), _TORUS, 1),
    "torus_cos_y": (_torus_cos_val(1), _torus_cos_diff(1), _TORUS, 1),
    "hyperbolic_bump": (_hyper_bump_val, _hyper_bump_diff, _HYPER, 2),
}


@dataclass(frozen=True)
class _NamedField:
    """A named built-in field with a coefficient tuple.  Subclasses set ``_kind``
    and ``_table``: name -> (function, function, chart or None, coefficient count).
    """

    name: str
    coeffs: tuple = (1.0,)

    def __post_init__(self):
        if self.name not in self._table:
            raise ValidationError(
                f"unknown {self._kind} {self.name!r}; known: {sorted(self._table)}")
        needed = self._table[self.name][3]
        if len(self.coeffs) < needed:
            raise ValidationError(f"{self._kind} {self.name!r} needs {needed} coefficient(s)")
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))

    def functions(self, surface):
        """The field's two table functions, each called as fn(coeffs, surface, q),
        after checking the surface's chart: (value, differential) of a scalar
        field, (components, density) of a 1-form."""
        first, second, chart, _ = self._table[self.name]
        if chart is not None and surface.chart is not chart:
            raise ValidationError(f"{self._kind} {self.name!r} is defined on "
                                  f"{chart.value}, not {surface.chart.value}")
        return first, second


class ScalarField(_NamedField):
    """A named built-in scalar field with a coefficient tuple."""

    _kind, _table = "scalar field", _SCALAR_FIELDS

    def value(self, surface, q):
        return self.functions(surface)[0](self.coeffs, surface, q)

    def differential(self, surface, q):
        return self.functions(surface)[1](self.coeffs, surface, q)


# --- 1-forms ------------------------------------------------------------------
# comp(coeffs, surface, q) -> (..., dim) covector components
# dens(coeffs, surface, q) -> (...,)      d(eta)/sigma0

def _torus_eta_comp(coeffs, surface, q):
    # eta = c sin(2 pi x / P1) dy
    c = float(coeffs[0])
    k = 2.0 * np.pi / surface.torus_periods[0]
    q = np.asarray(q, dtype=float)
    out = np.zeros_like(q)
    out[..., 1] = c * np.sin(k * q[..., 0])
    return out


def _torus_eta_dens(coeffs, surface, q):
    c = float(coeffs[0])
    k = 2.0 * np.pi / surface.torus_periods[0]
    q = np.asarray(q, dtype=float)
    return c * k * np.cos(k * q[..., 0])


def _sphere_eta_comp(coeffs, surface, q):
    # eta = c (x dy - y dx) restricted to the sphere
    c = float(coeffs[0])
    q = np.asarray(q, dtype=float)
    out = np.zeros_like(q)
    out[..., 0] = -c * q[..., 1]
    out[..., 1] = c * q[..., 0]
    return out


def _sphere_eta_dens(coeffs, surface, q):
    # d(eta) = 2c dx^dy; against the round area form this is 2c z/R = 2c z sqrt(kappa)
    c = float(coeffs[0])
    q = np.asarray(q, dtype=float)
    return 2.0 * c * q[..., 2] * np.sqrt(surface.kappa)


def _hyper_eta_comp(coeffs, surface, q):
    # eta = c rho^2 dphi
    c = float(coeffs[0])
    q = np.asarray(q, dtype=float)
    out = np.zeros_like(q)
    out[..., 1] = c * q[..., 0] ** 2
    return out


def _hyper_eta_dens(coeffs, surface, q):
    # d(eta) = 2c rho drho^dphi = (2c rho / w(rho)) sigma0
    c = float(coeffs[0])
    q = np.asarray(q, dtype=float)
    rho = q[..., 0]
    sk = np.sqrt(-surface.kappa)
    w = np.sinh(sk * rho) / sk
    return np.where(rho == 0.0, 2.0 * c, 2.0 * c * rho / np.where(w == 0.0, 1.0, w))


_ONE_FORMS = {
    "torus_eta_sin_x": (_torus_eta_comp, _torus_eta_dens, _TORUS, 1),
    "sphere_eta_axial": (_sphere_eta_comp, _sphere_eta_dens, _SPHERE, 1),
    "hyperbolic_eta_radial": (_hyper_eta_comp, _hyper_eta_dens, _HYPER, 1),
}


class OneForm(_NamedField):
    """A named built-in 1-form perturbation with closed-form d(eta)."""

    _kind, _table = "1-form", _ONE_FORMS

    def components(self, surface, q):
        return self.functions(surface)[0](self.coeffs, surface, q)

    def density(self, surface, q):
        """Exterior-derivative density d(eta)/sigma0 at q."""
        return self.functions(surface)[1](self.coeffs, surface, q)


def scalar_field_names():
    return sorted(_SCALAR_FIELDS)


def one_form_names():
    return sorted(_ONE_FORMS)
