"""Model surface geometries and magnetic-system construction.

Three constant-curvature charts are supported, one object each:
``SphereChart`` (kappa > 0), ``HyperbolicChart`` (kappa < 0) and
``TorusChart`` (kappa = 0).  ``surface.ops`` is the object of a surface's
chart; it owns every formula that depends on the chart, and the rest of the
package calls it without knowing which chart it is on.

The magnetic 2-form of an unperturbed model is the area form sigma0 of the
unperturbed metric g0.  Perturbations are conformal, g = lam e^{2 eps u} g0,
plus an optional exact term sigma = sigma0 + eps d(eta).  The complex
structure J is the g0-orthogonal positive rotation (conformally invariant),
fixed so that sigma0(v, Jv) > 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import TYPE_CHECKING

import numpy as np
from scipy import integrate

from .errors import CapNotFound, QuadratureFailure, StepFailure, ValidationError
from .zollref import check_zoll_regime

if TYPE_CHECKING:
    from .fields import OneForm, ScalarField


class Chart(Enum):
    SPHERE_AMBIENT = "sphere_ambient"
    HYPERBOLIC_POLAR = "hyperbolic_polar"
    FLAT_TORUS = "flat_torus"


@dataclass(frozen=True)
class ModelSurface:
    """A constant-curvature model surface.

    ``domain_rho`` bounds the hyperbolic chart for volume bookkeeping (the
    hyperbolic plane itself is not compact); it defaults to 3/sqrt(-kappa).
    ``ops`` is the chart object, built (and the data checked) on creation.
    """

    kappa: float
    chart: Chart
    torus_periods: tuple = (2.0 * math.pi, 2.0 * math.pi)
    domain_rho: float = 0.0
    ops: ChartOps = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "ops", _CHART_OPS[self.chart](self))

    @property
    def radius(self):
        """Sphere radius 1/sqrt(kappa)."""
        return 1.0 / math.sqrt(self.kappa)


def make_surface(kappa, torus_periods=None, domain_rho=None):
    """Build the model surface of curvature kappa (chart chosen by sign)."""
    kappa = float(kappa)
    if kappa > 0:
        return ModelSurface(kappa, Chart.SPHERE_AMBIENT)
    if kappa < 0:
        dom = 3.0 / math.sqrt(-kappa) if domain_rho is None else float(domain_rho)
        return ModelSurface(kappa, Chart.HYPERBOLIC_POLAR, domain_rho=dom)
    periods = tuple(float(p) for p in (torus_periods or (2.0 * math.pi, 2.0 * math.pi)))
    return ModelSurface(0.0, Chart.FLAT_TORUS, torus_periods=periods)


@dataclass(frozen=True)
class MagneticSystem:
    """A model surface with magnetic strength and optional perturbation data."""

    surface: ModelSurface
    strength: float
    conformal_exponent: ScalarField | None = None
    conformal_eps: float = 0.0
    sigma_perturbation: OneForm | None = None
    volume_normalized: bool = False
    conformal_scale: float = 1.0    # the global constant lam in g = lam e^{2 eps u} g0

    @property
    def kappa(self):
        return self.surface.kappa

    def is_unperturbed(self):
        no_fields = self.conformal_exponent is None and self.sigma_perturbation is None
        return (self.conformal_eps == 0.0 or no_fields) and self.conformal_scale == 1.0


def make_model(kappa, strength):
    """Unperturbed Zoll magnetic system: sigma = area form, strength s.

    Requires the Zoll regime (see ``zollref.check_zoll_regime``): outside it
    the circle-action structure degenerates and no closed reference orbits
    exist.
    """
    check_zoll_regime(kappa, strength)
    return MagneticSystem(surface=make_surface(kappa), strength=float(strength))


# --- metric, rotation, conformal data ----------------------------------------

def conf_log(sys: MagneticSystem, q):
    """Log-conformal factor Lambda with g = e^{2 Lambda} g0."""
    lam_part = 0.5 * math.log(sys.conformal_scale)
    if sys.conformal_exponent is None or sys.conformal_eps == 0.0:
        q = np.asarray(q, dtype=float)
        return np.full(q.shape[:-1], lam_part) if q.ndim > 1 else lam_part
    return sys.conformal_eps * sys.conformal_exponent.value(sys.surface, q) + lam_part


def conf_log_diff(sys: MagneticSystem, q):
    """Differential of Lambda as a chart covector (ambient covector on the sphere)."""
    if sys.conformal_exponent is None or sys.conformal_eps == 0.0:
        return np.zeros_like(np.asarray(q, dtype=float))
    return sys.conformal_eps * sys.conformal_exponent.differential(sys.surface, q)


def g0_dot(surface, q, u, v):
    """Unperturbed metric pairing of chart vectors u, v at q."""
    return surface.ops.g0_dot(q, np.asarray(u, dtype=float), np.asarray(v, dtype=float))


def g_dot(sys, q, u, v):
    """Perturbed metric pairing g = lam e^{2 eps u} g0."""
    return np.exp(2.0 * conf_log(sys, q)) * g0_dot(sys.surface, q, u, v)


def g_norm(sys, q, v):
    return np.sqrt(g_dot(sys, q, v, v))


def rotate90(sys, q, v):
    """The complex structure J: g-orthogonal positive rotation (J^2 = -Id).

    On the sphere J v = n x v with n the outward unit normal; on the chart
    surfaces it is the standard positive rotation of the oriented frame.
    """
    surface = sys.surface if isinstance(sys, MagneticSystem) else sys
    return surface.ops.rotate90(np.asarray(q, dtype=float), np.asarray(v, dtype=float))


def sigma0_pair(surface, q, u, v):
    """Unperturbed area form sigma0(u, v) at q."""
    return surface.ops.sigma0(q, u, v)


def magnetic_density(sys, q):
    """Density b = sigma/dA_g = (1 + eps D_eta) e^{-2 Lambda}.

    Magnetic geodesics of the system satisfy nabla^g_v v = s b(q) J v at
    unit g-speed.
    """
    dens = 1.0
    if sys.sigma_perturbation is not None and sys.conformal_eps != 0.0:
        dens = 1.0 + sys.conformal_eps * sys.sigma_perturbation.density(sys.surface, q)
    return dens * np.exp(-2.0 * conf_log(sys, q))


# --- tangent states -----------------------------------------------------------

@dataclass(frozen=True, eq=False)
class TangentState:
    """A point of the unit tangent bundle: chart position + unit g-velocity."""

    position: np.ndarray
    velocity: np.ndarray


def tangent_state(sys, position, velocity):
    """Construct a TangentState, projecting to the surface and to unit g-speed."""
    q = np.asarray(position, dtype=float).copy()
    v = np.asarray(velocity, dtype=float).copy()
    sys.surface.ops.project(q, v)
    nrm = g_norm(sys, q, v)
    if not nrm > 0:
        raise ValidationError("velocity must be nonzero")
    return TangentState(position=q, velocity=v / nrm)


def wrap_position(surface, q, ref=None):
    """Shift periodic chart coordinates of q next to ref (or into one period)."""
    return surface.ops.wrap(np.asarray(q, dtype=float).copy(), ref)


def state_distance(sys, s1: TangentState, s2: TangentState):
    """Chart-Euclidean distance in state space (periodic coordinates wrap)."""
    surface = sys.surface
    dq = wrap_position(surface, s1.position, ref=s2.position) - s2.position
    dv = s1.velocity - s2.velocity
    return math.sqrt(float(np.dot(dq, dq) + np.dot(dv, dv)))


# --- volume quadrature ---------------------------------------------------------

def unperturbed_volume(surface):
    """Closed-form g0-area of the model (hyperbolic: of the chart domain)."""
    return surface.ops.area()


def _conf_weight(sys):
    eps = sys.conformal_eps
    u = sys.conformal_exponent
    surface = sys.surface
    if u is None or eps == 0.0:
        return lambda q: 1.0
    return lambda q: math.exp(2.0 * eps * float(u.value(surface, q)))


def _quad_area(sys, weight, rel_tol):
    """Nested adaptive quadrature of weight(q) dA_{g0} over the chart."""
    f, *limits = sys.surface.ops.area_integrand(weight)
    val, err = integrate.dblquad(f, *limits, epsabs=0.0, epsrel=0.1 * rel_tol)
    if not math.isfinite(val) or err > rel_tol * abs(val) + 1e-300:
        raise QuadratureFailure(
            f"area quadrature reached error {err:g} on value {val:g} "
            f"(requested rel {rel_tol:g})")
    return val


def riemannian_volume(sys, rel_tol=1e-8):
    """Surface area under the (possibly perturbed) metric, by adaptive quadrature."""
    return sys.conformal_scale * _quad_area(sys, _conf_weight(sys), rel_tol)


def conformal_perturb(sys, u, eps, normalize, rel_tol=1e-10):
    """Conformally perturb the metric: g = lam e^{2 eps u} g0.

    With normalize=True the single global constant lam is chosen so that the
    perturbed area equals the unperturbed one; the perturbation's shape is
    untouched.  eps = 0 returns the input system unchanged.
    """
    from .fields import ScalarField
    if eps == 0.0:
        return sys
    if isinstance(u, str):
        u = ScalarField(u)
    probe = replace(sys, conformal_exponent=u, conformal_eps=float(eps),
                    conformal_scale=1.0, volume_normalized=False)
    if not normalize:
        return probe
    raw = _quad_area(probe, _conf_weight(probe), rel_tol)
    lam = unperturbed_volume(sys.surface) / raw
    return replace(probe, conformal_scale=lam, volume_normalized=True)


def with_sigma_perturbation(sys, eta, eps=None):
    """Attach an exact magnetic perturbation: sigma = sigma0 + eps d(eta).

    eps defaults to the system's conformal_eps so metric and magnetic
    perturbations share one small parameter.
    """
    from .fields import OneForm
    if isinstance(eta, str):
        eta = OneForm(eta)
    if eps is None:
        eps = sys.conformal_eps
    return replace(sys, sigma_perturbation=eta, conformal_eps=float(eps))


# --- curvature probes --------------------------------------------------------------

def _metric_components(sys, rho, phi):
    """(E, G) of g = E drho^2 + G dphi^2 in the model's metric coordinates."""
    ops = sys.surface.ops
    e2l = math.exp(2.0 * float(conf_log(sys, ops.from_polar(rho, phi))))
    return e2l, e2l * float(ops.weight(rho)) ** 2


def _christoffel0(w, wp):
    """Christoffel symbols of g0 = dr^2 + w^2 dp^2, given w and w' at r."""
    gam = np.zeros((2, 2, 2))
    gam[0, 1, 1] = -w * wp
    gam[1, 0, 1] = gam[1, 1, 0] = wp / w if w != 0.0 else 0.0
    return gam


def christoffel(sys, position):
    """Christoffel symbols Gamma[k, i, j] of the perturbed metric.

    Coordinates are the model's own chart: (rho, phi) for the polar charts
    (the sphere position may be given in ambient form and is converted),
    (x, y) on the torus.
    """
    ops = sys.surface.ops
    q = ops.to_polar(np.asarray(position, dtype=float))
    rho, phi = float(q[0]), float(q[1])
    w, wp = ops.w_wp(rho)
    gam = _christoffel0(w, wp)

    if sys.conformal_exponent is not None and sys.conformal_eps != 0.0:
        dl = ops.polar_differential(sys, rho, phi)
        grad = np.array([dl[0], dl[1] / w**2])
        g0 = np.diag([1.0, w**2])
        for k in range(2):
            for i in range(2):
                for j in range(2):
                    gam[k, i, j] += (i == k) * dl[j] + (j == k) * dl[i] - g0[i, j] * grad[k]
    return gam


def gaussian_curvature(sys, position, fd_step=1e-3):
    """Gaussian curvature probe by finite differences of the metric.

    Uses the Brioschi formula for a diagonal metric E drho^2 + G dphi^2 with
    5-point stencils; independent of any closed-form curvature expression.
    """
    q = sys.surface.ops.to_polar(np.asarray(position, dtype=float))
    rho, phi = float(q[0]), float(q[1])
    h = fd_step

    def E(r, p):
        return _metric_components(sys, r, p)[0]

    def G(r, p):
        return _metric_components(sys, r, p)[1]

    def root_eg(r, p):
        e, g = _metric_components(sys, r, p)
        return math.sqrt(e * g)

    dr = _fd1(lambda r, p: _fd1(G, r, p, 0, h) / root_eg(r, p), rho, phi, 0, h)
    dp = _fd1(lambda r, p: _fd1(E, r, p, 1, h) / root_eg(r, p), rho, phi, 1, h)
    return -0.5 / root_eg(rho, phi) * (dr + dp)


def _fd1(f, rho, phi, axis, h):
    vals = []
    for i in (-2, -1, 1, 2):
        r = rho + (i * h if axis == 0 else 0.0)
        p = phi + (i * h if axis == 1 else 0.0)
        vals.append(f(r, p))
    return (vals[0] - 8 * vals[1] + 8 * vals[2] - vals[3]) / (12 * h)


def random_state(sys, rng):
    """A random unit-g-speed tangent state away from polar-chart singularities."""
    q = sys.surface.ops.random_point(rng)
    return tangent_state(sys, q, rng.normal(size=sys.surface.ops.dim))


def curvature_probe(sys, n=100, seed=0):
    """Gaussian curvature at n random probe points (polar-chart safe)."""
    rng = np.random.default_rng(seed)
    return np.array([gaussian_curvature(sys, sys.surface.ops.probe_point(rng))
                     for _ in range(n)])


# --- chart objects -------------------------------------------------------------------

class ChartOps:
    """The formulas of one chart, bound to its surface.

    Every chart has metric coordinates (r, p) with g0 = dr^2 + w(r)^2 dp^2,
    where w = 1 on the torus; ``weight`` gives w with numpy and ``w_wp``
    gives (w, w') with ``math`` (or with the module passed as ``fn``).
    Sections and caps are worked in a planar image of the chart
    (``to_plane``).  The capping disk is the region that the rotated
    velocity J v points into, and ``cap_picture`` maps it
    azimuthal-equidistantly to the plane with an explicit area density.
    """

    dim = 2
    columns = ()

    def __init__(self, surface):
        self.surface = surface
        self.kappa = surface.kappa

    def _perturbation(self, sys):
        """(dl, b) for a perturbed system's ``rhs``: dl(q) is ``conf_log_diff``
        and b(q) the float ``magnetic_density`` at a 1-D chart point, with the
        field functions and constants resolved here, once."""
        surface, eps = self.surface, sys.conformal_eps
        lam_part = 0.5 * math.log(sys.conformal_scale)
        u = sys.conformal_exponent if eps != 0.0 else None
        eta = sys.sigma_perturbation if eps != 0.0 else None
        value, diff = u.functions(surface) if u is not None else (None, None)
        density = eta.functions(surface)[1] if eta is not None else None
        zero = np.zeros(self.dim)

        def dl(q):
            return zero if u is None else eps * diff(u.coeffs, surface, q)

        def b(q):
            lam = lam_part if u is None else eps * value(u.coeffs, surface, q) + lam_part
            dens = 1.0 if eta is None else 1.0 + eps * density(eta.coeffs, surface, q)
            return float(dens * np.exp(-2.0 * lam))

        return dl, b

    def g0_dot(self, q, u, v):
        return np.sum(u * v, axis=-1)

    def project(self, q, v):
        """Project a position and velocity onto the surface, in place."""

    def wrap(self, q, ref):
        return q

    def to_plane(self, q):
        return np.asarray(q, dtype=float)

    def align_loops(self, pa, pb):
        """Two sampled loops, brought into one picture for comparison."""
        return pa, pb

    def oracle(self, sys):
        """The volume oracle's integrand on (box) x (fiber angle), and the box.

        The chart gives the area weight and the field point (``_oracle_point``)
        and eta along the box coordinates (``_oracle_eta``).
        """
        s = sys.strength
        eps = sys.conformal_eps
        eta = sys.sigma_perturbation

        def F(q, fib):
            W, amb = self._oracle_point(q)
            f = np.exp(conf_log(sys, amb))
            main = W * (f - 1.0)
            if eta is not None and eps != 0.0:
                eta_1, eta_2 = self._oracle_eta(eta.components(self.surface, amb), q)
                main = main - s * eps * (W * eta_1 * np.cos(fib) + eta_2 * np.sin(fib))
            return 0.5 * (f + 1.0) * main

        return F, self.box


class SphereChart(ChartOps):
    """kappa > 0: ambient R^3 points on the sphere of radius R = 1/sqrt(kappa)
    and ambient tangent velocities, so the dynamics are chart-free and robust
    near every point; the planar image is R^3 itself.  Metric coordinates are
    geodesic polar (theta, phi) about the north pole +z R.  The capping disk
    is the polar cap around the orbit's axis, with area density
    sin(sqrt(k) t)/(sqrt(k) t) at map radius t from the cap centre.
    """

    dim = 3
    columns = ("qx", "qy", "qz", "vx", "vy", "vz")

    def __init__(self, surface):
        if not surface.kappa > 0:
            raise ValidationError("SphereAmbient requires kappa > 0")
        super().__init__(surface)
        self.sk = math.sqrt(surface.kappa)
        self.R = surface.radius
        self.box = (math.pi / self.sk, 2.0 * math.pi)    # (theta, phi) of the oracle

    # metric coordinates
    def weight(self, rho):
        return np.sin(self.sk * np.asarray(rho, dtype=float)) / self.sk

    def w_wp(self, rho, fn=math):
        return fn.sin(self.sk * rho) / self.sk, fn.cos(self.sk * rho)

    def to_polar(self, q):
        """(theta, phi) of an ambient point; polar input passes through."""
        if q.shape[-1] != 3:
            return q
        R = self.R
        theta = np.arccos(np.clip(q[..., 2] / R, -1.0, 1.0)) * R
        phi = np.arctan2(q[..., 1], q[..., 0])
        return np.stack([theta, phi], axis=-1)

    def from_polar(self, theta, phi):
        R = self.R
        alpha = np.asarray(theta, dtype=float) / R
        return np.stack([R * np.sin(alpha) * np.cos(phi),
                         R * np.sin(alpha) * np.sin(phi),
                         R * np.cos(alpha)], axis=-1)

    def polar_jacobian(self, theta, phi, fn=np):
        """(dq/dtheta, dq/dphi) of ``from_polar``; fn is numpy or math."""
        R = self.R
        alpha = theta / R
        sa, ca = fn.sin(alpha), fn.cos(alpha)
        sp, cp = fn.sin(phi), fn.cos(phi)
        return (np.stack([ca * cp, ca * sp, -sa], axis=-1),
                np.stack([-R * sa * sp, R * sa * cp, np.zeros_like(phi)], axis=-1))

    def polar_differential(self, sys, rho, phi):
        """d(Lambda) in polar components, pulled back from the ambient covector."""
        dl_amb = conf_log_diff(sys, self.from_polar(rho, phi))
        dq_drho, dq_dphi = self.polar_jacobian(rho, phi, math)
        return np.array([float(dl_amb @ dq_drho), float(dl_amb @ dq_dphi)])

    # g0, J, sigma0 and the flow
    def rotate90(self, q, v):
        return np.cross(q * self.sk, v)

    def sigma0(self, q, u, v):
        n = np.asarray(q, dtype=float) * self.sk
        return np.sum(n * np.cross(u, v), axis=-1)

    def rhs(self, sys):
        """Right-hand side of y = (q, v) with nabla^g_v v = s b(q) J v.

        With n = sqrt(kappa) q the outward normal, the g0 part is
        -|v|^2 kappa q + s n x v, and a perturbed system adds
        -2 (dl.v) v + |v|^2 (dl - (dl.n) n) and the density b.  Elementwise
        arithmetic runs on Python floats in the order numpy would use; the
        dot products stay numpy ``@``, whose sums round differently.
        """
        s, kappa, sk = sys.strength, self.kappa, self.sk
        s1 = float(s)    # s b with b = 1
        perturbed = not sys.is_unperturbed()
        if perturbed:
            dl_at, b_at = self._perturbation(sys)

        def f(t, y):
            q0, q1, q2, v0, v1, v2 = y.tolist()
            v = y[3:]
            vv = float(v @ v)
            c = -vv * kappa
            a0, a1, a2 = c * q0, c * q1, c * q2
            n0, n1, n2 = q0 * sk, q1 * sk, q2 * sk
            sb = s1
            if perturbed:
                q = y[:3]
                dl = dl_at(q)
                dn, dv = float(dl @ (q * sk)), -2.0 * float(dl @ v)
                l0, l1, l2 = dl.tolist()
                a0 += dv * v0 + vv * (l0 - dn * n0)
                a1 += dv * v1 + vv * (l1 - dn * n1)
                a2 += dv * v2 + vv * (l2 - dn * n2)
                sb = s * b_at(q)
            return np.array([v0, v1, v2,
                             a0 + sb * (n1 * v2 - n2 * v1),
                             a1 + sb * (n2 * v0 - n0 * v2),
                             a2 + sb * (n0 * v1 - n1 * v0)])

        return f

    def g0_terms(self, q, v, dl):
        """(g0-gradient of Lambda, |v|^2_g0) from the differential dl at q;
        q, v and dl are (..., 3) arrays."""
        n = q * self.sk
        return dl - np.sum(dl * n, axis=-1, keepdims=True) * n, np.sum(v * v, axis=-1)

    def covariant(self, q, v, dv):
        """g0-covariant derivative of the velocity from its chart derivative dv."""
        n = q * self.sk
        return dv - np.sum(dv * n, axis=-1, keepdims=True) * n

    def project(self, q, v):
        q *= self.R / np.linalg.norm(q)
        n = q / self.R
        v -= np.dot(v, n) * n

    # area
    def area(self):
        return 4.0 * math.pi / self.kappa

    def area_integrand(self, weight):
        """weight dA_g0 in (polar angle, azimuth), then the dblquad limits."""
        R = self.R

        def f(alpha, phi):
            sa = math.sin(alpha)
            q = np.array([R * sa * math.cos(phi), R * sa * math.sin(phi), R * math.cos(alpha)])
            return weight(q) * R * R * sa

        return f, 0.0, 2.0 * math.pi, 0.0, math.pi

    def _oracle_point(self, q):
        return self.weight(q[..., 0]), self.from_polar(q[..., 0], q[..., 1])

    def _oracle_eta(self, comp, q):
        dq_dtheta, dq_dphi = self.polar_jacobian(q[..., 0], q[..., 1])
        return np.sum(comp * dq_dtheta, axis=-1), np.sum(comp * dq_dphi, axis=-1)

    # sample points and seeds
    def random_point(self, rng):
        q = rng.normal(size=3)
        return q / np.linalg.norm(q) * self.R

    def probe_point(self, rng):
        theta = rng.uniform(0.3, math.pi - 0.3) * self.R
        return np.array([theta, rng.uniform(0.0, 2.0 * math.pi)])

    def latitude_seed(self, sys):
        """On the circle tan(sqrt(kappa) theta*) = sqrt(kappa)/s about the pole."""
        s = sys.strength
        alpha = math.atan2(self.sk, abs(s))    # polar angle from the enclosed pole
        pole = 1.0 if s >= 0 else -1.0
        q = np.array([self.R * math.sin(alpha), 0.0, pole * self.R * math.cos(alpha)])
        v = np.array([0.0, pole, 0.0])
        return tangent_state(sys, q, v)

    def frame(self, axis):
        """(e1, e2) completing the unit vector axis to a positive orthonormal frame."""
        ref = np.array([0.0, 0.0, 1.0]) if abs(axis[2]) < 0.9 else np.array([1.0, 0.0, 0.0])
        e1 = np.cross(axis, ref)
        e1 /= np.linalg.norm(e1)
        return e1, np.cross(axis, e1)

    def axis_seed(self, sys, axis):
        """A state on the unperturbed orbit about the given axis."""
        s = sys.strength
        alpha = math.atan2(self.sk, abs(s))
        n_hat = np.asarray(axis, dtype=float) / np.linalg.norm(axis)
        e1, _ = self.frame(n_hat)
        q = self.R * (math.cos(alpha) * n_hat + math.sin(alpha) * e1)
        v = np.cross(n_hat, q)
        if s < 0:
            v = -v
        return tangent_state(sys, q, v)

    def seed_family(self, sys, grid_density, rng):
        """Axis seeds: the two poles always, then rings of jittered axes."""
        seeds = [("axis_north", self.axis_seed(sys, np.array([0.0, 0.0, 1.0]))),
                 ("axis_south", self.axis_seed(sys, np.array([0.0, 0.0, -1.0])))]
        for i in range(grid_density):
            alpha = math.pi * (i + 0.5) / grid_density + 0.02 * rng.uniform(-1, 1)
            sz, cz = math.sin(alpha), math.cos(alpha)
            for j in range(grid_density):
                beta = 2.0 * math.pi * (j + 0.3 + 0.05 * rng.uniform(-1, 1)) / grid_density
                axis = np.array([sz * math.cos(beta), sz * math.sin(beta), cz])
                seeds.append((f"axis_{i}_{j}", self.axis_seed(sys, axis)))
        return seeds

    # sections: ambient planes through the anchor
    def plane_velocity(self, q, v):
        return v

    def section_frame(self, q, v):
        m = v / np.linalg.norm(v)
        return m, np.cross(q * self.sk, m)

    def section_state(self, sys, spec, a, b):
        anchor = spec.anchor
        q = anchor.position + a * spec.tangent
        q *= self.R / np.linalg.norm(q)
        n = q / self.R
        vref = anchor.velocity - float(anchor.velocity @ n) * n
        vref /= np.linalg.norm(vref)
        v = math.cos(b) * vref + math.sin(b) * np.cross(n, vref)
        return tangent_state(sys, q, v)

    def section_coords(self, sys, spec, state):
        anchor = spec.anchor
        q, v = state.position, state.velocity
        denom = float(q @ anchor.position) / self.R**2
        a = float(q @ spec.tangent) / denom
        n = q / self.R
        vref = anchor.velocity - float(anchor.velocity @ n) * n
        vref /= np.linalg.norm(vref)
        b = math.atan2(float(v @ np.cross(n, vref)), float(v @ vref))
        return np.array([a, b])

    # capping disks
    def _cap_coordinates(self, pos, vel):
        """Distance theta of each sample from the cap centre, the unit centre
        vector and a frame (e1, e2) of the plane orthogonal to it."""
        axis = np.cross(pos, vel).mean(axis=0)
        nrm = np.linalg.norm(axis)
        if nrm == 0.0:
            raise CapNotFound("orbit has no preferred axis")
        center = axis / nrm * self.R       # the cap centre on the sphere
        chat = center / self.R
        theta = self.R * np.arccos(np.clip(pos @ chat / self.R, -1.0, 1.0))
        return (theta, chat, *self.frame(chat))

    def cap_picture(self, pos, vel, closure):
        """Planar boundary points, area density, map back to chart points, centre."""
        R, sk = self.R, self.sk
        theta, chat, e1, e2 = self._cap_coordinates(pos, vel)
        ang = np.arctan2(pos @ e2, pos @ e1)
        plane = np.stack([theta * np.cos(ang), theta * np.sin(ang)], axis=1)

        def density(P):
            t = np.linalg.norm(P, axis=-1)
            return np.where(t < 1e-12, 1.0, np.sin(sk * np.minimum(t, math.pi / sk))
                            / np.where(t < 1e-12, 1.0, sk * t))

        def to_chart(P):
            t = np.linalg.norm(P, axis=-1)
            t_safe = np.where(t < 1e-300, 1.0, t)
            u = P / t_safe[..., None]
            alpha = t / R
            return (np.cos(alpha)[..., None] * chat
                    + np.sin(alpha)[..., None] * (u[..., 0:1] * e1 + u[..., 1:2] * e2)) * R

        return plane, density, to_chart, np.zeros(2)

    def green_integrand(self, pos, vel):
        """Per-sample integrand of the sigma0 flux: primitive times d(azimuth)/dt."""
        theta, _, e1, e2 = self._cap_coordinates(pos, vel)
        x1, x2 = pos @ e1, pos @ e2
        v1, v2 = vel @ e1, vel @ e2
        phi_dot = (x1 * v2 - x2 * v1) / (x1**2 + x2**2)
        prim = (1.0 - np.cos(self.sk * theta)) / self.kappa
        return prim * phi_dot


class _PlanarChart(ChartOps):
    """Formulas shared by the two charts whose points are (r, p) pairs."""

    def from_polar(self, rho, phi):
        return np.array([rho, phi])

    def to_polar(self, q):
        return q

    def polar_differential(self, sys, rho, phi):
        return conf_log_diff(sys, np.array([rho, phi]))

    def rotate90(self, q, v):
        w = self.weight(q[..., 0])
        out = np.empty_like(v)
        out[..., 0] = -w * v[..., 1]
        out[..., 1] = v[..., 0] / w
        return out

    def sigma0(self, q, u, v):
        w = self.weight(np.asarray(q, dtype=float)[..., 0])
        return w * (u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0])

    def rhs(self, sys):
        """Right-hand side of y = (q, v) with nabla^g_v v = s b(q) J v.

        The g0 part is (w w' v_p^2, -2 (w'/w) v_r v_p) + s (-w v_p, v_r / w),
        with (w, w') = (1, 0) on the torus, and a perturbed system adds
        -2 (dl.v) v + |v|^2_g0 (dl_r, dl_p / w^2) and the density b.
        Elementwise arithmetic runs on Python floats in the order numpy
        would use; the dot product stays numpy ``@``.
        """
        s, w_wp = sys.strength, self.w_wp
        s1 = float(s)    # s b with b = 1
        perturbed = not sys.is_unperturbed()
        if perturbed:
            dl_at, b_at = self._perturbation(sys)

        def f(t, y):
            r, _, v0, v1 = y.tolist()
            w, wp = w_wp(r)
            sb = s1
            a0 = w * wp * v1 ** 2
            a1 = -2.0 * (wp / w) * v0 * v1
            if perturbed:
                q = y[:2]
                dl = dl_at(q)
                dv = -2.0 * float(dl @ y[2:])
                l0, l1 = dl.tolist()
                vv = v0 ** 2 + w**2 * v1 ** 2
                a0 += dv * v0 + vv * l0
                a1 += dv * v1 + vv * (l1 / w**2)
                sb = s * b_at(q)
            return np.array([v0, v1, a0 + sb * (-w * v1), a1 + sb * (v0 / w)])

        return f

    def g0_terms(self, q, v, dl):
        """(g0-gradient of Lambda, |v|^2_g0) from the differential dl at q;
        q, v and dl are (..., 2) arrays."""
        w2 = self.weight(q[..., 0]) ** 2
        return (np.stack([dl[..., 0], dl[..., 1] / w2], axis=-1),
                v[..., 0] ** 2 + w2 * v[..., 1] ** 2)

    def covariant(self, q, v, dv):
        """g0-covariant derivative of the velocity from its chart derivative dv:
        dv^k + Gamma^k_ij v^i v^j with the symbols of ``_christoffel0``."""
        w, wp = self.w_wp(q[..., 0], np)
        return dv + np.stack([-w * wp * v[..., 1] ** 2,
                              2.0 * (wp / w) * v[..., 0] * v[..., 1]], axis=-1)

    def area_integrand(self, weight):
        """weight dA_g0 in metric coordinates, then the dblquad limits."""
        def f(r, p):
            return weight(np.array([r, p])) * float(self.weight(r))

        return f, 0.0, self.box[1], 0.0, self.box[0]

    # sections: planes of the planar image through the anchor
    def from_plane(self, p):
        return np.asarray(p, dtype=float)

    def plane_jacobian(self, q):
        """d(plane)/d(chart) at chart point q."""
        return np.eye(2)

    def plane_velocity(self, q, v):
        return self.plane_jacobian(q) @ v

    def section_frame(self, q, v):
        vp = self.plane_velocity(q, v)
        m = vp / np.linalg.norm(vp)
        return m, np.array([-m[1], m[0]])

    def _lower(self, q, v):
        """g0-metric lowering in chart components (used only for angles)."""
        w = float(self.weight(q[0]))
        return np.array([v[0], w**2 * v[1]])

    def section_state(self, sys, spec, a, b):
        anchor = spec.anchor
        p = self.to_plane(anchor.position) + a * spec.tangent
        q = self.from_plane(p)
        jac = self.plane_jacobian(q)
        dir_plane = self.plane_jacobian(anchor.position) @ anchor.velocity
        vref = np.linalg.solve(jac, dir_plane)
        jvref = rotate90(sys, q, vref)
        nrm0, jnrm0 = g_norm(sys, q, vref), g_norm(sys, q, jvref)
        v = math.cos(b) * vref / nrm0 + math.sin(b) * jvref / jnrm0
        return tangent_state(sys, q, v)

    def section_coords(self, sys, spec, state):
        anchor = spec.anchor
        p = self.to_plane(state.position) - self.to_plane(anchor.position)
        a = float(p @ spec.tangent)
        jac = self.plane_jacobian(state.position)
        dir_plane = self.plane_jacobian(anchor.position) @ anchor.velocity
        vref = np.linalg.solve(jac, dir_plane)
        jvref = rotate90(sys, state.position, vref)
        x = float(state.velocity @ self._lower(state.position, vref))
        y = float(state.velocity @ self._lower(state.position, jvref))
        b = math.atan2(y, x)    # J is a g0-isometry, so the common scale cancels
        return np.array([a, b])

    def green_integrand(self, pos, vel):
        """Per-sample integrand of the sigma0 flux: a primitive times dp/dt."""
        return self._green_primitive(pos) * vel[:, 1]


class HyperbolicChart(_PlanarChart):
    """kappa < 0: geodesic polar coordinates (rho, phi) with metric
    drho^2 + (sinh^2(sqrt(-kappa) rho)/(-kappa)) dphi^2, bounded by
    ``domain_rho`` for area bookkeeping.  The planar image is
    (X, Y) = rho (cos phi, sin phi), so loops winding around the chart origin
    are handled uniformly.  The capping disk is the origin-side region, with
    area density sinh(sqrt(-k) r)/(sqrt(-k) r) at origin distance r.
    """

    columns = ("rho", "phi", "v_rho", "v_phi")

    def __init__(self, surface):
        if not surface.kappa < 0:
            raise ValidationError("HyperbolicPolar requires kappa < 0")
        super().__init__(surface)
        self.sk = math.sqrt(-surface.kappa)
        self.box = (surface.domain_rho, 2.0 * math.pi)
        # random and probe points stay inside this radius
        self.rho_max = min(2.5 / self.sk, surface.domain_rho)

    def weight(self, rho):
        return np.sinh(self.sk * np.asarray(rho, dtype=float)) / self.sk

    def w_wp(self, rho, fn=math):
        return fn.sinh(self.sk * rho) / self.sk, fn.cosh(self.sk * rho)

    def g0_dot(self, q, u, v):
        w = self.weight(np.asarray(q, dtype=float)[..., 0])
        return u[..., 0] * v[..., 0] + w**2 * u[..., 1] * v[..., 1]

    def wrap(self, q, ref):
        two_pi = 2.0 * math.pi
        if ref is None:
            q[1] = q[1] % two_pi
        else:
            q[1] -= two_pi * round((q[1] - float(ref[1])) / two_pi)
        return q

    def area(self):
        rho = self.surface.domain_rho
        return 2.0 * math.pi * (math.cosh(self.sk * rho) - 1.0) / (-self.kappa)

    def oracle(self, sys):
        raise ValidationError(
            "the volume oracle needs explicit coordinates: flat-torus or sphere chart")

    def random_point(self, rng):
        return np.array([rng.uniform(0.15, self.rho_max), rng.uniform(0.0, 2.0 * math.pi)])

    def probe_point(self, rng):
        return np.array([rng.uniform(0.2, self.rho_max), rng.uniform(0.0, 2.0 * math.pi)])

    def latitude_seed(self, sys):
        """On the circle tanh(sqrt(-kappa) rho*) = sqrt(-kappa)/s about the origin."""
        s = sys.strength
        if abs(s) <= self.sk:
            # construction guarantees s^2+kappa>0, so this cannot trigger
            raise StepFailure("no latitude circle below the horocycle threshold")
        rho = math.atanh(self.sk / abs(s)) / self.sk
        w = float(self.weight(rho))
        return tangent_state(sys, np.array([rho, 0.0]),
                             np.array([0.0, math.copysign(1.0, s) / w]))

    def _translate(self, state, dist, psi):
        """Push a chart state out to distance dist along direction psi (isometry)."""
        rh = 1.0 / self.sk
        rho, phi = state.position
        vr, vp = state.velocity
        ch, sh = math.cosh(rho / rh), math.sinh(rho / rh)
        X = rh * np.array([ch, sh * math.cos(phi), sh * math.sin(phi)])
        dX_drho = np.array([sh, ch * math.cos(phi), ch * math.sin(phi)])
        dX_dphi = rh * np.array([0.0, -sh * math.sin(phi), sh * math.cos(phi)])
        V = vr * dX_drho + vp * dX_dphi

        z = dist / rh
        cz, sz = math.cosh(z), math.sinh(z)
        cp, sp = math.cos(psi), math.sin(psi)
        rot = np.array([[1, 0, 0], [0, cp, -sp], [0, sp, cp]])
        boost = np.array([[cz, sz, 0], [sz, cz, 0], [0, 0, 1]])
        B = rot @ boost @ rot.T
        Xb, Vb = B @ X, B @ V

        rho_b = rh * math.acosh(max(Xb[0] / rh, 1.0))
        phi_b = math.atan2(Xb[2], Xb[1])
        denom = math.sqrt(max(Xb[0] ** 2 - rh**2, 1e-300))
        vr_b = rh * Vb[0] / denom
        r2 = Xb[1] ** 2 + Xb[2] ** 2
        vp_b = (Xb[1] * Vb[2] - Xb[2] * Vb[1]) / r2
        return TangentState(np.array([rho_b, phi_b]), np.array([vr_b, vp_b]))

    def seed_family(self, sys, grid_density, rng):
        """The latitude seed pushed out along rings of directions by isometries."""
        base = self.latitude_seed(sys)
        rho_star = base.position[0]
        d_max = max(0.2, min(1.0, self.surface.domain_rho - rho_star - 0.3))
        seeds = []
        for i in range(grid_density):
            d = d_max * i / max(grid_density - 1, 1)
            for j in range(grid_density):
                psi = 2.0 * math.pi * j / grid_density
                if d == 0.0 and j > 0:
                    continue
                seeds.append((f"boost_{i}_{j}", self._translate(base, d, psi)))
        return seeds

    def to_plane(self, q):
        rho, phi = q[0], q[1]
        return np.array([rho * math.cos(phi), rho * math.sin(phi)])

    def from_plane(self, p):
        return np.array([math.hypot(p[0], p[1]), math.atan2(p[1], p[0])])

    def plane_jacobian(self, q):
        rho, phi = q[0], q[1]
        c, s = math.cos(phi), math.sin(phi)
        return np.array([[c, -rho * s], [s, rho * c]])

    def _plane_image(self, pos):
        return np.stack([pos[:, 0] * np.cos(pos[:, 1]), pos[:, 0] * np.sin(pos[:, 1])], axis=1)

    def align_loops(self, pa, pb):
        return self._plane_image(pa), self._plane_image(pb)

    def cap_picture(self, pos, vel, closure):
        """Planar boundary points, area density, map back to chart points, centre."""
        plane = self._plane_image(pos)
        sk = self.sk

        def density(P):
            r = np.linalg.norm(P, axis=-1)
            return np.where(r < 1e-12, 1.0, np.sinh(sk * r) / np.where(r < 1e-12, 1.0, sk * r))

        def to_chart(P):
            r = np.linalg.norm(P, axis=-1)
            return np.stack([r, np.arctan2(P[..., 1], P[..., 0])], axis=-1)

        return plane, density, to_chart, plane.mean(axis=0)

    def _green_primitive(self, pos):
        return (np.cosh(self.sk * pos[:, 0]) - 1.0) / (-self.kappa)


class TorusChart(_PlanarChart):
    """kappa = 0: a flat fundamental domain (x, y) with periods (P1, P2);
    positions may live on the universal cover.  The chart is its own planar
    image, and the capping disk the literal disk in it (area density 1); a
    loop that winds around the torus bounds no disk in the chart.
    """

    columns = ("x", "y", "vx", "vy")

    def __init__(self, surface):
        if surface.kappa != 0:
            raise ValidationError("FlatTorus requires kappa = 0")
        p1, p2 = surface.torus_periods
        if not (p1 > 0 and p2 > 0):
            raise ValidationError("torus periods must be positive")
        super().__init__(surface)
        self.box = surface.torus_periods

    def weight(self, rho):
        return 1.0

    def w_wp(self, rho, fn=math):
        return 1.0, 0.0

    def wrap(self, q, ref):
        periods = np.asarray(self.box)
        if ref is None:
            q -= periods * np.floor(q / periods)
        else:
            q -= periods * np.round((q - np.asarray(ref, dtype=float)) / periods)
        return q

    def area(self):
        p1, p2 = self.box
        return p1 * p2

    def _oracle_point(self, q):
        return 1.0, q

    def _oracle_eta(self, comp, q):
        return comp[..., 0], comp[..., 1]

    def random_point(self, rng):
        p1, p2 = self.box
        return np.array([rng.uniform(0.0, p1), rng.uniform(0.0, p2)])

    probe_point = random_point

    def latitude_seed(self, sys):
        """On the circle of radius 1/s about the centre of the domain."""
        p1, p2 = self.box
        s = sys.strength
        center = np.array([0.5 * p1, 0.5 * p2])
        if s == 0:
            # straight lines never close into short loops; seed along x anyway
            return tangent_state(sys, center, np.array([1.0, 0.0]))
        q = center + np.array([1.0 / abs(s), 0.0])
        v = np.array([0.0, math.copysign(1.0, s)])
        return tangent_state(sys, q, v)

    def seed_family(self, sys, grid_density, rng):
        """The latitude circle moved to the centres of a grid of cells."""
        p1, p2 = self.box
        r = 1.0 / abs(sys.strength) if sys.strength != 0 else 0.0
        base = self.latitude_seed(sys)
        seeds = []
        for i in range(grid_density):
            for j in range(grid_density):
                cx = (i + 0.5) * p1 / grid_density
                cy = (j + 0.5) * p2 / grid_density
                q = np.array([cx + r, cy])
                seeds.append((f"center_{i}_{j}", tangent_state(sys, q, base.velocity)))
        return seeds

    def align_loops(self, pa, pb):
        periods = np.asarray(self.box)
        shift = periods * np.round((np.mean(pa, axis=0) - np.mean(pb, axis=0)) / periods)
        return pa, pb + shift

    def cap_picture(self, pos, vel, closure):
        """Planar boundary points, area density, map back to chart points, centre."""
        plane = pos.copy()

        def density(P):
            return np.ones(P.shape[:-1])

        def to_chart(P):
            return P

        if np.any(np.round(closure / np.array(self.box)) != 0):
            raise CapNotFound("orbit winds around the torus; no capping disk in the chart")
        return plane, density, to_chart, plane.mean(axis=0)

    def _green_primitive(self, pos):
        return pos[:, 0]


_CHART_OPS = {Chart.SPHERE_AMBIENT: SphereChart,
              Chart.HYPERBOLIC_POLAR: HyperbolicChart,
              Chart.FLAT_TORUS: TorusChart}
