"""Named built-in perturbation fields.

Metric perturbations enter as conformal exponents u (dimensionless scalar
fields), magnetic perturbations as 1-forms eta with closed-form exterior
derivative.  Fields are referenced by name plus a coefficient list, so
configs stay declarative (no code loading) and systems stay picklable.

A field is evaluated on a surface, which is a chart object of ``geometry``
(``sys.surface``).  The field tables name the chart class a field is defined
on, or None for every chart, and ``formulas`` refuses a surface of another
class.  Points are in each chart's own coordinates, and so are covectors:
on the sphere a differential is an ambient Euclidean covector (project onto
the tangent plane to get the intrinsic gradient), elsewhere it has
(d_rho, d_phi) or (dx, dy) components.

``OneForm.density`` returns d(eta)/sigma0, the exterior derivative measured
against the unperturbed area form.

Each field is written once, as a factory make(coeffs, surface) that resolves
the coefficients and constants and returns the field's formulas, each fn(x)
of the chart components x of a point: (value, differential) of a scalar
field, (components, density) of a 1-form.  x[i] is
a float or an array, and the formulas use numpy ufuncs and elementwise
arithmetic only (no dot products, squares as x * x), so one point (the RHS
kernels call ``formulas`` on floats) and many (the array methods evaluate
them through ``_on_points``) round alike, bit for bit.  A covector formula
returns a tuple of components.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .geometry import HyperbolicChart, SphereChart, TorusChart

_Z_AXIS = np.array([0.0, 0.0, 1.0])


def _on_points(formula, q):
    """A field formula at the (..., dim) points q: an array of shape q.shape[:-1]
    or, for a covector formula, of shape q.shape; at one point (q of shape
    (dim,)) a numpy scalar or a (dim,) array.  The formula runs once on the
    columns of all the points, and as its arithmetic is elementwise, each
    point rounds as it does alone or in the RHS kernels."""
    q = np.asarray(q, dtype=float)
    x = q.reshape(-1, q.shape[-1]).T    # (dim, M): x[i] is component i of every point
    res = formula(x)
    if not isinstance(res, tuple):
        if not isinstance(res, np.ndarray):    # a constant field
            res = np.full(x.shape[1], res)
        return res.reshape(q.shape[:-1])[()]
    out = np.empty((x.shape[1], len(res)))
    for i, comp in enumerate(res):
        out[:, i] = comp
    return out.reshape(q.shape[:-1] + (len(res),))


# --- scalar fields: make(coeffs, surface) -> (value, diff) ---------------------

def _const(coeffs, surface):
    c, zero = coeffs[0], (0.0,) * surface.dim
    return (lambda x: c), (lambda x: zero)


def _sphere_harmonic(coeffs, surface):
    # u = c sqrt(kappa) <axis, q>, the restriction of a linear harmonic; the
    # axis is z, or the direction of coeffs[1:4]
    ck, ax = coeffs[0] * np.sqrt(surface.kappa), _Z_AXIS
    if len(coeffs) == 4:
        ax = np.asarray(coeffs[1:4])
        n = np.linalg.norm(ax)
        if n == 0.0:
            raise ValidationError("sphere_harmonic axis must be nonzero")
        ax = ax / n
    a0, a1, a2 = ax.tolist()
    grad = tuple((ck * ax).tolist())
    return (lambda x: ck * (a0 * x[0] + a1 * x[1] + a2 * x[2])), (lambda x: grad)


def _torus_cos(idx):
    # u = c cos(2 pi x_idx / P_idx), with the periods P of the chart's box
    def make(coeffs, surface):
        c, period = coeffs[0], surface.box[idx]
        two_pi, k = 2.0 * np.pi, 2.0 * np.pi / period
        ck = -c * k

        def value(x):
            return c * np.cos(two_pi * x[idx] / period)

        def diff(x):
            d = ck * np.sin(k * x[idx])
            return (d, 0.0) if idx == 0 else (0.0, d)

        return value, diff
    return make


def _hyper_bump(coeffs, surface):
    # u = c exp(-(rho / rho0)^2)
    c, rho0 = coeffs
    r2 = rho0 * rho0

    def value(x):
        r = x[0] / rho0
        return c * np.exp(-(r * r))

    def diff(x):
        return value(x) * (-2.0 * x[0] / r2), 0.0

    return value, diff


# name -> (factory, chart or None for every chart, coefficient count)
_SCALAR_FIELDS = {
    "const": (_const, None, 1),
    "sphere_harmonic_z": (_sphere_harmonic, SphereChart, 1),
    "sphere_harmonic_axis": (_sphere_harmonic, SphereChart, 4),
    "torus_cos_x": (_torus_cos(0), TorusChart, 1),
    "torus_cos_y": (_torus_cos(1), TorusChart, 1),
    "hyperbolic_bump": (_hyper_bump, HyperbolicChart, 2),
}


@dataclass(frozen=True)
class _NamedField:
    """A named built-in field with a coefficient tuple.  Subclasses set ``_kind``
    and ``_table``: name -> (factory, chart or None, coefficient count)."""

    name: str
    coeffs: tuple = (1.0,)

    def __post_init__(self):
        if self.name not in self._table:
            raise ValidationError(
                f"unknown {self._kind} {self.name!r}; known: {sorted(self._table)}")
        needed = self._table[self.name][2]
        if len(self.coeffs) != needed:
            raise ValidationError(f"{self._kind} {self.name!r} takes {needed} "
                                  f"coefficient(s), got {len(self.coeffs)}")
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))

    def formulas(self, surface):
        """The field's formulas on this surface, after checking its chart, each
        fn(x) of chart components (see the module docstring): (value,
        differential) of a scalar field, (components, density) of a 1-form."""
        make, chart, _ = self._table[self.name]
        if chart is not None and type(surface) is not chart:
            raise ValidationError(f"{self._kind} {self.name!r} is defined on "
                                  f"{chart.__name__}, not {type(surface).__name__}")
        return make(self.coeffs, surface)


class ScalarField(_NamedField):
    """A named built-in scalar field with a coefficient tuple."""

    _kind, _table = "scalar field", _SCALAR_FIELDS

    def value(self, surface, q):
        return _on_points(self.formulas(surface)[0], q)

    def differential(self, surface, q):
        return _on_points(self.formulas(surface)[1], q)


# --- 1-forms: make(coeffs, surface) -> (comp, dens) ------------------------------
# comp: covector components; dens: d(eta)/sigma0

def _torus_eta(coeffs, surface):
    # eta = c sin(k x) dy with k = 2 pi / P1, so d(eta) = c k cos(k x) dx^dy
    c = coeffs[0]
    k = 2.0 * np.pi / surface.box[0]
    ck = c * k
    return (lambda x: (0.0, c * np.sin(k * x[0]))), (lambda x: ck * np.cos(k * x[0]))


def _sphere_eta(coeffs, surface):
    # eta = c (x dy - y dx) restricted to the sphere; d(eta) = 2c dx^dy, which
    # against the round area form is 2c z/R = 2c z sqrt(kappa)
    c = coeffs[0]
    c2, sk = 2.0 * c, np.sqrt(surface.kappa)
    return (lambda x: (-c * x[1], c * x[0], 0.0)), (lambda x: c2 * x[2] * sk)


def _hyper_eta(coeffs, surface):
    # eta = c rho^2 dphi; d(eta) = 2c rho drho^dphi = (2c rho / w(rho)) sigma0.
    # The comparisons, added as 0/1, give the limit 2c at rho = 0 unbranched.
    c = coeffs[0]
    c2, sk = 2.0 * c, np.sqrt(-surface.kappa)

    def dens(x):
        rho = x[0]
        w = np.sinh(sk * rho) / sk
        return c2 * (rho + (rho == 0.0)) / (w + (w == 0.0))

    return (lambda x: (0.0, c * (x[0] * x[0]))), dens


_ONE_FORMS = {
    "torus_eta_sin_x": (_torus_eta, TorusChart, 1),
    "sphere_eta_axial": (_sphere_eta, SphereChart, 1),
    "hyperbolic_eta_radial": (_hyper_eta, HyperbolicChart, 1),
}


class OneForm(_NamedField):
    """A named built-in 1-form perturbation with closed-form d(eta)."""

    _kind, _table = "1-form", _ONE_FORMS

    def components(self, surface, q):
        return _on_points(self.formulas(surface)[0], q)

    def density(self, surface, q):
        """Exterior-derivative density d(eta)/sigma0 at q."""
        return _on_points(self.formulas(surface)[1], q)


def scalar_field_names():
    return sorted(_SCALAR_FIELDS)


def one_form_names():
    return sorted(_ONE_FORMS)
