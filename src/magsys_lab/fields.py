"""Named built-in perturbation fields.

Metric perturbations enter as conformal exponents u (dimensionless scalar
fields), magnetic perturbations as 1-forms eta with closed-form exterior
derivative.  Fields are referenced by name plus a coefficient list, so
configs stay declarative (no code loading) and systems stay picklable.

Points are in each chart's own coordinates (see the chart objects in
``geometry``), and so are covectors: on the sphere a differential is an
ambient Euclidean covector (project onto the tangent plane to get the
intrinsic gradient), elsewhere it has (d_rho, d_phi) or (dx, dy) components.
Hessians are the matrices of second partial derivatives in the same
coordinates (ambient on the sphere, where the fields are restrictions of
functions of the ambient point).

``OneForm.density`` returns d(eta)/sigma0, the exterior derivative measured
against the unperturbed area form.

Each field has array functions, which take points of any leading shape, and
point formulas (``point``), which evaluate the same expressions at one chart
point with Python floats and numpy ufuncs, with the coefficients and
constants resolved once.  A point formula returns floats where the array
function returns arrays, and they equal the array function's entries at that
point bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .geometry import Chart

_SPHERE = Chart.SPHERE_AMBIENT
_HYPER = Chart.HYPERBOLIC_POLAR
_TORUS = Chart.FLAT_TORUS
_Z_AXIS = np.array([0.0, 0.0, 1.0])


def _axis(coeffs):
    if len(coeffs) < 4:
        return _Z_AXIS
    ax = np.asarray(coeffs[1:4], dtype=float)
    n = np.linalg.norm(ax)
    if n == 0.0:
        raise ValidationError("sphere_harmonic axis must be nonzero")
    return ax / n


# --- scalar fields -----------------------------------------------------------
# value(coeffs, surface, q) -> (...,);  diff(coeffs, surface, q) -> (..., dim);
# hess(coeffs, surface, q) -> (..., dim, dim);
# point(coeffs, surface) -> (value, diff, hess), each fn(q) at one (dim,) chart
# point: a float, dim floats and dim * dim floats (the Hessian row by row)

def _const_val(coeffs, surface, q):
    q = np.asarray(q, dtype=float)
    return np.full(q.shape[:-1], float(coeffs[0]))


def _const_diff(coeffs, surface, q):
    return np.zeros_like(np.asarray(q, dtype=float))


def _const_hess(coeffs, surface, q):
    q = np.asarray(q, dtype=float)
    return np.zeros(q.shape + q.shape[-1:])


def _const_point(coeffs, surface):
    c, dim = float(coeffs[0]), surface.ops.dim
    zero, zero2 = (0.0,) * dim, (0.0,) * (dim * dim)
    return (lambda q: c), (lambda q: zero), (lambda q: zero2)


def _sphere_harmonic_val(coeffs, surface, q):
    # u = c * sqrt(kappa) * <axis, q>; restriction of a linear harmonic.
    c = float(coeffs[0])
    q = np.asarray(q, dtype=float)
    return c * np.sqrt(surface.kappa) * (q @ _axis(coeffs))


def _sphere_harmonic_diff(coeffs, surface, q):
    c = float(coeffs[0])
    out = c * np.sqrt(surface.kappa) * _axis(coeffs)
    q = np.asarray(q, dtype=float)
    return out if q.ndim == 1 else np.array(np.broadcast_to(out, q.shape))


def _sphere_harmonic_point(coeffs, surface):
    ck, ax = float(coeffs[0]) * np.sqrt(surface.kappa), _axis(coeffs)
    grad, zero2 = tuple((ck * ax).tolist()), (0.0,) * 9
    return (lambda q: float(ck * (q @ ax))), (lambda q: grad), (lambda q: zero2)


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


def _torus_cos_hess(idx):
    def hess(coeffs, surface, q):
        c = float(coeffs[0])
        k = 2.0 * np.pi / surface.torus_periods[idx]
        q = np.asarray(q, dtype=float)
        out = np.zeros(q.shape + q.shape[-1:])
        out[..., idx, idx] = -c * k * k * np.cos(k * q[..., idx])
        return out
    return hess


def _torus_cos_point(idx):
    def point(coeffs, surface):
        c = float(coeffs[0])
        period = surface.torus_periods[idx]
        two_pi, k = 2.0 * np.pi, 2.0 * np.pi / period
        ck, ckk = -c * k, -c * k * k

        def value(q):
            return float(c * np.cos(two_pi * q.item(idx) / period))

        def diff(q):
            d = float(ck * np.sin(k * q.item(idx)))
            return (d, 0.0) if idx == 0 else (0.0, d)

        def hess(q):
            h = float(ckk * np.cos(k * q.item(idx)))
            return (h, 0.0, 0.0, 0.0) if idx == 0 else (0.0, 0.0, 0.0, h)

        return value, diff, hess
    return point


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


def _hyper_bump_hess(coeffs, surface, q):
    # u'' = u ((2 rho / rho0^2)^2 - 2 / rho0^2)
    c, rho0 = float(coeffs[0]), float(coeffs[1])
    q = np.asarray(q, dtype=float)
    out = np.zeros(q.shape + q.shape[-1:])
    out[..., 0, 0] = (c * np.exp(-((q[..., 0] / rho0) ** 2))
                      * ((2.0 * q[..., 0] / rho0**2) ** 2 - 2.0 / rho0**2))
    return out


def _hyper_bump_point(coeffs, surface):
    c, rho0 = float(coeffs[0]), float(coeffs[1])
    r2 = rho0**2
    inv = 2.0 / r2

    def value(q):
        return float(c * np.exp(-((q.item(0) / rho0) ** 2)))

    def diff(q):
        rho = q.item(0)
        return float(c * np.exp(-((rho / rho0) ** 2)) * (-2.0 * rho / r2)), 0.0

    def hess(q):
        rho = q.item(0)
        h = float(c * np.exp(-((rho / rho0) ** 2)) * ((2.0 * rho / r2) ** 2 - inv))
        return h, 0.0, 0.0, 0.0

    return value, diff, hess


_SCALAR_FIELDS = {
    "const": (_const_val, _const_diff, _const_hess, _const_point, None, 1),
    "sphere_harmonic_z": (_sphere_harmonic_val, _sphere_harmonic_diff, _const_hess,
                          _sphere_harmonic_point, _SPHERE, 1),
    "sphere_harmonic_axis": (_sphere_harmonic_val, _sphere_harmonic_diff, _const_hess,
                             _sphere_harmonic_point, _SPHERE, 4),
    "torus_cos_x": (_torus_cos_val(0), _torus_cos_diff(0), _torus_cos_hess(0),
                    _torus_cos_point(0), _TORUS, 1),
    "torus_cos_y": (_torus_cos_val(1), _torus_cos_diff(1), _torus_cos_hess(1),
                    _torus_cos_point(1), _TORUS, 1),
    "hyperbolic_bump": (_hyper_bump_val, _hyper_bump_diff, _hyper_bump_hess,
                        _hyper_bump_point, _HYPER, 2),
}


@dataclass(frozen=True)
class _NamedField:
    """A named built-in field with a coefficient tuple.  Subclasses set ``_kind``
    and ``_table``: name -> (array functions..., point formulas, chart or None,
    coefficient count).
    """

    name: str
    coeffs: tuple = (1.0,)

    def __post_init__(self):
        if self.name not in self._table:
            raise ValidationError(
                f"unknown {self._kind} {self.name!r}; known: {sorted(self._table)}")
        needed = self._table[self.name][-1]
        if len(self.coeffs) < needed:
            raise ValidationError(f"{self._kind} {self.name!r} needs {needed} coefficient(s)")
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))

    def _row(self, surface):
        row = self._table[self.name]
        chart = row[-2]
        if chart is not None and surface.chart is not chart:
            raise ValidationError(f"{self._kind} {self.name!r} is defined on "
                                  f"{chart.value}, not {surface.chart.value}")
        return row

    def functions(self, surface):
        """The field's array functions, each called as fn(coeffs, surface, q),
        after checking the surface's chart: (value, differential, Hessian) of a
        scalar field, (components, density, density gradient) of a 1-form."""
        return self._row(surface)[:-3]

    def point(self, surface):
        """The field's point formulas on this surface, each fn(q) of one (dim,)
        chart point: (value, differential, Hessian) of a scalar field,
        (density, density gradient) of a 1-form."""
        return self._row(surface)[-3](self.coeffs, surface)


class ScalarField(_NamedField):
    """A named built-in scalar field with a coefficient tuple."""

    _kind, _table = "scalar field", _SCALAR_FIELDS

    def value(self, surface, q):
        return self.functions(surface)[0](self.coeffs, surface, q)

    def differential(self, surface, q):
        return self.functions(surface)[1](self.coeffs, surface, q)

    def hessian(self, surface, q):
        return self.functions(surface)[2](self.coeffs, surface, q)


# --- 1-forms ------------------------------------------------------------------
# comp(coeffs, surface, q) -> (..., dim) covector components
# dens(coeffs, surface, q) -> (...,)      d(eta)/sigma0
# grad(coeffs, surface, q) -> (..., dim)  differential of dens
# point(coeffs, surface) -> (dens, grad), each fn(q) at one (dim,) chart point:
# a float and dim floats

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


def _torus_eta_grad(coeffs, surface, q):
    c = float(coeffs[0])
    k = 2.0 * np.pi / surface.torus_periods[0]
    q = np.asarray(q, dtype=float)
    out = np.zeros_like(q)
    out[..., 0] = -c * k * k * np.sin(k * q[..., 0])
    return out


def _torus_eta_point(coeffs, surface):
    c = float(coeffs[0])
    k = 2.0 * np.pi / surface.torus_periods[0]
    ck, ckk = c * k, -c * k * k
    return ((lambda q: float(ck * np.cos(k * q.item(0)))),
            (lambda q: (float(ckk * np.sin(k * q.item(0))), 0.0)))


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


def _sphere_eta_grad(coeffs, surface, q):
    q = np.asarray(q, dtype=float)
    out = np.zeros_like(q)
    out[..., 2] = 2.0 * float(coeffs[0]) * np.sqrt(surface.kappa)
    return out


def _sphere_eta_point(coeffs, surface):
    c2, sk = 2.0 * float(coeffs[0]), np.sqrt(surface.kappa)
    grad = (0.0, 0.0, float(c2 * sk))
    return (lambda q: float(c2 * q.item(2) * sk)), (lambda q: grad)


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


def _hyper_eta_grad(coeffs, surface, q):
    # d/drho (2c rho / w) = 2c (1 / w - rho w' / w^2), which tends to 0 at rho = 0
    c = float(coeffs[0])
    q = np.asarray(q, dtype=float)
    rho = q[..., 0]
    sk = np.sqrt(-surface.kappa)
    w = np.where(rho == 0.0, 1.0, np.sinh(sk * rho) / sk)
    out = np.zeros_like(q)
    out[..., 0] = np.where(rho == 0.0, 0.0,
                           2.0 * c * (1.0 / w - rho * np.cosh(sk * rho) / (w * w)))
    return out


def _hyper_eta_point(coeffs, surface):
    c2, sk = 2.0 * float(coeffs[0]), np.sqrt(-surface.kappa)

    def dens(q):
        rho = q.item(0)
        if rho == 0.0:
            return c2
        w = np.sinh(sk * rho) / sk
        return float(c2 * rho / (1.0 if w == 0.0 else w))

    def grad(q):
        rho = q.item(0)
        if rho == 0.0:
            return 0.0, 0.0
        w = np.sinh(sk * rho) / sk
        return float(c2 * (1.0 / w - rho * np.cosh(sk * rho) / (w * w))), 0.0

    return dens, grad


_ONE_FORMS = {
    "torus_eta_sin_x": (_torus_eta_comp, _torus_eta_dens, _torus_eta_grad,
                        _torus_eta_point, _TORUS, 1),
    "sphere_eta_axial": (_sphere_eta_comp, _sphere_eta_dens, _sphere_eta_grad,
                         _sphere_eta_point, _SPHERE, 1),
    "hyperbolic_eta_radial": (_hyper_eta_comp, _hyper_eta_dens, _hyper_eta_grad,
                              _hyper_eta_point, _HYPER, 1),
}


class OneForm(_NamedField):
    """A named built-in 1-form perturbation with closed-form d(eta)."""

    _kind, _table = "1-form", _ONE_FORMS

    def components(self, surface, q):
        return self.functions(surface)[0](self.coeffs, surface, q)

    def density(self, surface, q):
        """Exterior-derivative density d(eta)/sigma0 at q."""
        return self.functions(surface)[1](self.coeffs, surface, q)

    def density_gradient(self, surface, q):
        """Differential of ``density`` at q, a chart covector."""
        return self.functions(surface)[2](self.coeffs, surface, q)


def scalar_field_names():
    return sorted(_SCALAR_FIELDS)


def one_form_names():
    return sorted(_ONE_FORMS)
