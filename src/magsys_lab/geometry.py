"""Model surface geometries and magnetic-system construction.

Three constant-curvature charts are supported, one object each:
``SphereChart`` (kappa > 0), ``HyperbolicChart`` (kappa < 0) and
``TorusChart`` (kappa = 0).  The chart object is the surface: built from
kappa alone by ``make_surface``, it owns every formula that depends on the
chart, and the rest of the package calls it as ``sys.surface`` without
knowing which chart it is on.

The magnetic 2-form of an unperturbed model is the area form sigma0 of the
unperturbed metric g0.  Perturbations are conformal, g = lam e^{2 eps u} g0,
plus an optional exact term sigma = sigma0 + eps d(eta).  The complex
structure J is the g0-orthogonal positive rotation (conformally invariant),
fixed so that sigma0(v, Jv) > 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cache
from typing import TYPE_CHECKING

import numpy as np

from .errors import CapNotFound, QuadratureFailure, StepFailure, ValidationError
from .zollref import check_zoll_regime

if TYPE_CHECKING:
    from .fields import OneForm, ScalarField


def make_surface(kappa):
    """The chart object of the model surface of curvature kappa (chosen by sign)."""
    kappa = float(kappa)
    if kappa > 0:
        return SphereChart(kappa)
    if kappa < 0:
        return HyperbolicChart(kappa)
    return TorusChart(0.0)


@dataclass(frozen=True)
class MagneticSystem:
    """A model surface with magnetic strength and optional perturbation data."""

    surface: ChartOps
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
        return (self.conformal_exponent is None and self.sigma_perturbation is None
                and self.conformal_scale == 1.0)


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
    if sys.conformal_exponent is None:
        q = np.asarray(q, dtype=float)
        return np.full(q.shape[:-1], lam_part) if q.ndim > 1 else lam_part
    return sys.conformal_eps * sys.conformal_exponent.value(sys.surface, q) + lam_part


def conf_log_diff(sys: MagneticSystem, q):
    """Differential of Lambda as a chart covector (ambient covector on the sphere)."""
    if sys.conformal_exponent is None:
        return np.zeros_like(np.asarray(q, dtype=float))
    return sys.conformal_eps * sys.conformal_exponent.differential(sys.surface, q)


def g_dot(sys, q, u, v):
    """Perturbed metric pairing g = lam e^{2 eps u} g0 of chart vectors u, v at q."""
    g0 = sys.surface.g0_dot(q, np.asarray(u, dtype=float), np.asarray(v, dtype=float))
    return np.exp(2.0 * conf_log(sys, q)) * g0


def g_norm(sys, q, v):
    return np.sqrt(g_dot(sys, q, v, v))


def magnetic_density(sys, q):
    """Density b = sigma/dA_g = (1 + eps D_eta) e^{-2 Lambda}.

    Magnetic geodesics of the system satisfy nabla^g_v v = s b(q) J v at
    unit g-speed.
    """
    dens = 1.0
    if sys.sigma_perturbation is not None:
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
    sys.surface.project(q, v)
    nrm = g_norm(sys, q, v)
    if not nrm > 0:
        raise ValidationError("velocity must be nonzero")
    return TangentState(position=q, velocity=v / nrm)


def state_distance(sys, s1: TangentState, s2: TangentState):
    """Chart-Euclidean distance in state space (periodic coordinates wrap)."""
    dq = sys.surface.wrap(s1.position, s2.position) - s2.position
    dv = s1.velocity - s2.velocity
    return math.sqrt(float(np.dot(dq, dq) + np.dot(dv, dv)))


# --- volume quadrature ---------------------------------------------------------

AREA_NODES = (16, 32, 64, 128, 256, 512)    # the rules of riemannian_volume, in turn
AREA_TOL = 1e-9    # default relative tolerance of the area quadrature


@cache
def _gauss_legendre(n):
    """The n-node Gauss-Legendre rule on [-1, 1], built on first use (the
    512-node rule takes tens of ms) and shared read-only after it."""
    x, wx = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = wx.flags.writeable = False
    return x, wx


def riemannian_volume(sys, rel_tol=AREA_TOL):
    """Surface area under the (possibly perturbed) metric: e^{2 Lambda} w(r)
    over the chart's box, by n Gauss-Legendre nodes in r times the n-point
    trapezoid rule in the periodic p.  n doubles from 16 until two rules agree
    to rel_tol; past 512 the quadrature raises QuadratureFailure."""
    (r_max, p_max), vals = sys.surface.box, []
    for n in AREA_NODES:
        x, wx = _gauss_legendre(n)
        r, p = np.meshgrid(0.5 * r_max * (x + 1.0), p_max / n * np.arange(n), indexing="ij")
        q, w = sys.surface.box_points(r, p)
        vals.append(0.5 * r_max * p_max / n
                    * float(wx @ (np.exp(2.0 * conf_log(sys, q)) * w).sum(axis=1)))
        if len(vals) > 1 and abs(vals[-1] - vals[-2]) <= rel_tol * abs(vals[-1]):
            return vals[-1]
    raise QuadratureFailure(
        f"area quadrature: the rules of {n // 2} and {n} nodes differ by "
        f"{abs(vals[-1] - vals[-2]):g} on value {vals[-1]:g} (requested rel {rel_tol:g})")


def conformal_perturb(sys, u, eps, normalize, rel_tol=AREA_TOL):
    """Conformally perturb the metric: g = lam e^{2 eps u} g0.

    With normalize=True the single global constant lam is chosen so that the
    perturbed area equals the unperturbed one; the perturbation's shape is
    untouched.  An attached 1-form shares the eps (see
    ``with_sigma_perturbation``).  eps = 0 returns the input system unchanged.
    """
    from .fields import ScalarField
    _share_eps(sys, sys.sigma_perturbation, eps)
    if eps == 0.0:
        return sys
    if isinstance(u, str):
        u = ScalarField(u)
    probe = replace(sys, conformal_exponent=u, conformal_eps=float(eps),
                    conformal_scale=1.0, volume_normalized=False)
    if not normalize:
        return probe
    lam = sys.surface.area() / riemannian_volume(probe, rel_tol)
    return replace(probe, conformal_scale=lam, volume_normalized=True)


def with_sigma_perturbation(sys, eta, eps=None):
    """Attach an exact magnetic perturbation: sigma = sigma0 + eps d(eta).

    eps defaults to the system's conformal_eps so metric and magnetic
    perturbations share one small parameter; with a conformal exponent any
    other eps would rescale it (and void a volume normalization): refused.
    eps = 0 returns the input system unchanged, so a system that carries a
    field always has eps != 0.
    """
    from .fields import OneForm
    if isinstance(eta, str):
        eta = OneForm(eta)
    if eps is None:
        eps = sys.conformal_eps
    _share_eps(sys, sys.conformal_exponent, eps)
    if eps == 0.0:
        return sys
    return replace(sys, sigma_perturbation=eta, conformal_eps=float(eps))


def _share_eps(sys, attached, eps):
    """Refuse eps for a second perturbation unless the attached one has it."""
    if attached is not None and eps != sys.conformal_eps:
        raise ValidationError(
            f"eps = {eps:g} differs from the attached perturbation's eps = "
            f"{sys.conformal_eps:g}; the two perturbations share one eps")


# --- chart objects -------------------------------------------------------------------

class ChartOps:
    """A model surface: the formulas of its chart, built from kappa alone.
    Two surfaces are equal, and hash alike, when they share class and kappa.

    Every chart has metric coordinates (r, p) with g0 = dr^2 + w(r)^2 dp^2,
    where w = 1 on the torus.  (r, p) range over ``box``, and
    ``box_points`` gives the chart points and w(r) at arrays of them: the one
    formula of both volume integrals, ``riemannian_volume`` and the Monte
    Carlo oracle of ``volume``.  The planar charts' ``w_wp`` gives (w, w')
    by numpy at one radius and at arrays of them alike, so that each rounds
    as the other.
    Each chart has one planar image, ``to_plane`` and its inverse
    ``from_plane`` on (..., d) arrays, with derivative ``plane_jacobian``
    (the sphere's image is R^3 itself); the Poincare section is the
    hyperplane of it through q normal to ``section_normal(q, v)``.  The
    capping disk is the region that the rotated velocity J v points into.
    ``cap`` gives, in one call, its boundary loop in a plane picture, the
    cap centre, about which the loop must be star-shaped, and the per-sample
    integrand of a primitive of sigma0 along the loop.
    """

    dim = 2
    columns = ()

    def __init__(self, kappa):
        self.kappa = float(kappa)

    def __eq__(self, other):
        return type(self) is type(other) and self.kappa == other.kappa

    def __hash__(self):
        return hash((type(self), self.kappa))

    def __repr__(self):
        return f"{type(self).__name__}({self.kappa!r})"

    def _perturbation(self, sys):
        """The perturbed terms of ``rhs`` as one function at(x) of the
        components x of one chart point, a list of floats, returning (dl, b):
        dl is ``conf_log_diff`` and b the ``magnetic_density``, as floats.
        The fields' formulas (``formulas``) and the constants are resolved
        here, once."""
        eps, dim = sys.conformal_eps, self.dim
        lam_part = 0.5 * math.log(sys.conformal_scale)
        u, eta = sys.conformal_exponent, sys.sigma_perturbation
        if u is not None:
            u_value, u_diff = u.formulas(self)
        if eta is not None:
            _, eta_density = eta.formulas(self)
        zero = [0.0] * dim

        def at(x):
            if u is None:
                dl, lam = zero, lam_part
            else:
                u_x = u_value(x)
                dl = [eps * float(g) for g in u_diff(x, u_x)]
                lam = eps * float(u_x) + lam_part
            dens = 1.0 if eta is None else 1.0 + eps * float(eta_density(x))
            return dl, float(dens * np.exp(-2.0 * lam))

        return at

    def g0_dot(self, q, u, v):
        return np.sum(u * v, axis=-1)

    def project(self, q, v):
        """Project a position and velocity onto the surface, in place."""

    def wrap(self, q, ref):
        """q with its periodic chart coordinates shifted next to ref."""
        return q

    def to_plane(self, q):
        return np.asarray(q, dtype=float)

    def from_plane(self, p):
        return np.asarray(p, dtype=float)

    def plane_jacobian(self, q):
        """d(plane)/d(chart) at chart point q."""
        return np.eye(self.dim)

    def section_normal(self, q, v):
        """The velocity v at q in the planar image, normalised."""
        vp = self.plane_jacobian(q) @ v
        return vp / np.linalg.norm(vp)

    # the orbit space: one point c for each Zoll circle (an axis on the sphere,
    # a centre on the torus and on the hyperbolic chart), held as a row of an
    # (M, k) array.  ``zoll_circle``, each chart's one formula for the circle
    # over c, has ``zoll_state`` as its node 0 and ``latitude_point`` as the c
    # of ``dynamics.latitude_seed``; ``orbit_space_point`` is its left
    # inverse, the c of the Zoll circle through a state.  ``orbit_space_tiling``
    # gives the census's tilings, a fine one for grad abar and a coarse one for
    # the drift; ``orbit_space_step`` moves points by k-vector offsets, by
    # default in the planar image (``orbit_space_gap`` is its inverse), and
    # ``orbit_space_chart`` gives local coordinates about c.
    def zoll_state(self, sys, c, ref=None):
        """The state at node 0 of the Zoll circle over the orbit-space point c."""
        q, v = self.zoll_circle(sys, np.asarray(c, dtype=float)[None], 1, ref)
        return tangent_state(sys, q[0, 0], v[0, 0])

    def orbit_space_step(self, c, d):
        return self.from_plane(self.to_plane(c) + d)

    def orbit_space_gap(self, c, c2):
        return self.to_plane(c2) - self.to_plane(c)

    def orbit_space_chart(self, c):
        """Local coordinates of the orbit space about c: a (k, 2) orthonormal
        basis B of the offsets of ``orbit_space_step`` there, and the ref that
        ``zoll_circle`` takes to keep node 0 of the circles near c smooth
        (None where node 0 depends on no choice, as on the planar charts)."""
        return np.eye(2), None

    def in_searched_region(self, sys, c):
        """Which rows of c lie where the census looks for orbits: everywhere
        on a compact surface."""
        return np.ones(len(c), dtype=bool)

    def oracle_box(self):
        """The box that the volume oracle samples: all of a closed surface."""
        return self.box


def _cross(a, b):
    """a x b on broadcast (..., 3) arrays, term for term as ``np.cross``
    computes it (so bit for bit), without its argument handling, which on a
    single vector costs more than the arithmetic (43 against 17 us a call on
    a 2-vCPU Xeon host)."""
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    return np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0], axis=-1)


class SphereChart(ChartOps):
    """kappa > 0: ambient R^3 points on the sphere of radius R = 1/sqrt(kappa)
    and ambient tangent velocities, so the dynamics are chart-free and robust
    near every point; the planar image is R^3 itself.  Metric coordinates are
    geodesic polar (theta, phi) about the north pole +z R.  The capping disk
    is the polar cap around the orbit's axis, with sigma0 primitive
    (1 - cos(sqrt(k) t))/k d(azimuth) at distance t from the cap centre.
    """

    dim = 3
    columns = ("qx", "qy", "qz", "vx", "vy", "vz")

    def __init__(self, kappa):
        if not kappa > 0:
            raise ValidationError("SphereChart requires kappa > 0")
        super().__init__(kappa)
        self.sk = math.sqrt(self.kappa)
        self.R = 1.0 / self.sk
        self.box = (math.pi / self.sk, 2.0 * math.pi)    # (theta, phi)

    # g0, J and the flow
    def rotate90(self, q, v):
        return _cross(q * self.sk, v)

    def rhs(self, sys):
        """Right-hand side of y = (q, v) with nabla^g_v v = s b(q) J v.

        With n = sqrt(kappa) q the outward normal, the g0 part is
        -|v|^2 kappa q + s n x v, and a perturbed system adds
        -2 (dl.v) v + |v|^2 (dl - (dl.n) n) and the density b.  The
        arithmetic runs on Python floats in the order numpy's elementwise
        operations would use, and each dot product is summed left to right.
        """
        s, kappa, sk = sys.strength, self.kappa, self.sk
        s1 = float(s)    # s b with b = 1
        perturbed = not sys.is_unperturbed()
        if perturbed:
            at = self._perturbation(sys)

        def f(t, y):
            L = y.tolist()
            q0, q1, q2, v0, v1, v2 = L
            vv = v0 * v0 + v1 * v1 + v2 * v2
            c = -vv * kappa
            a0, a1, a2 = c * q0, c * q1, c * q2
            n0, n1, n2 = q0 * sk, q1 * sk, q2 * sk
            sb = s1
            if perturbed:
                (l0, l1, l2), b = at(L[:3])
                dn = l0 * n0 + l1 * n1 + l2 * n2
                dv = -2.0 * (l0 * v0 + l1 * v1 + l2 * v2)
                a0 += dv * v0 + vv * (l0 - dn * n0)
                a1 += dv * v1 + vv * (l1 - dn * n1)
                a2 += dv * v2 + vv * (l2 - dn * n2)
                sb = s * b
            jv0, jv1, jv2 = n1 * v2 - n2 * v1, n2 * v0 - n0 * v2, n0 * v1 - n1 * v0
            return np.array([v0, v1, v2, a0 + sb * jv0, a1 + sb * jv1, a2 + sb * jv2])

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

    def box_points(self, r, p):
        """The ambient points and the area weight w(r) = R sin(r / R) at the
        metric coordinates (r, p) = (theta, phi) of the box, by one sine and
        one cosine of each of r / R and p.  The points are the (..., 3) view
        of component rows, filled in place."""
        R, t = self.R, np.divide(r, self.R)
        q = np.empty((3,) + t.shape)
        np.multiply(R, np.cos(t, out=q[2]), out=q[2])
        w = np.multiply(R, np.sin(t, out=t), out=t)
        np.multiply(w, np.cos(p, out=q[0]), out=q[0])
        np.multiply(w, np.sin(p, out=q[1]), out=q[1])
        return np.moveaxis(q, 0, -1), w

    latitude_point = (0.0, 0.0, 1.0)

    def frame(self, axis, ref=None):
        """(e1, e2) completing unit axes (..., 3) to positive orthonormal
        frames, with e1 along axis x ref.  The default ref is +z away from the
        poles and +x within |axis_z| >= 0.9: no one ref serves the whole
        sphere, so node 0 of the Zoll circles jumps where the choice switches."""
        if ref is None:
            ref = np.where(np.abs(axis[..., 2:]) < 0.9, (0.0, 0.0, 1.0), (1.0, 0.0, 0.0))
        e1 = _cross(axis, ref)
        e1 /= np.linalg.norm(e1, axis=-1, keepdims=True)
        return e1, _cross(axis, e1)

    def orbit_space_tiling(self, sys, drift=False):
        """An icosahedron turned off the poles, subdivided once (42 vertices,
        80 triangles) or, for the drift, not (its 12 vertices, the first 12 of
        the subdivided one, and 20 triangles), with the tangent axes."""
        p = (1.0 + math.sqrt(5.0)) / 2.0
        v = np.array([(0.0, i, j * p) for i in (-1, 1) for j in (-1, 1)])
        v = np.vstack([v, v[:, [2, 0, 1]], v[:, [1, 2, 0]]])      # edges of length 2
        a, b = np.nonzero(np.triu(np.abs(v @ v.T - p) < 1e-9))
        n = np.array([1.0, 3.0, 4.0]) / math.sqrt(26.0)
        points = (v if drift else np.vstack([v, v[a] + v[b]])) @ np.stack([*self.frame(n), n])
        points /= np.linalg.norm(points, axis=1, keepdims=True)
        # neighbours 32-36 degrees apart, the next 58; unsubdivided 63, the next 117
        near = np.triu(points @ points.T > (0.0 if drift else 0.7), 1)
        i, j = np.nonzero(near)
        e, k = np.nonzero(near[i] & near[j])
        i, j = i[e], j[e]
        j, k = np.where(np.sum(_cross(points[i], points[j]) * points[k], 1) > 0, (j, k), (k, j))
        return points, np.stack([i, j, k], axis=-1), self.orbit_space_chart(points)[0]

    def orbit_space_step(self, c, d):
        c = c + d
        return c / np.linalg.norm(c, axis=-1, keepdims=True)

    def orbit_space_chart(self, c):
        """The tangent plane at c, spanned by its ``frame`` (e1, e2), and the
        ref -e2: it leaves node 0 over c where the default ref puts it, and
        moves it smoothly over the axes within 90 degrees of c, where the
        default ref switches near the poles."""
        e1, e2 = self.frame(c)
        return np.stack([e1, e2], axis=-1), -e2

    def zoll_circle(self, sys, c, nodes, ref=None):
        """Positions and unit g0-velocities, each (M, nodes, 3), at nodes equally
        spaced points of the Zoll circle tan(sqrt(kappa) theta*) = sqrt(kappa)/s
        about each axis c, in the order the flow runs through them, from node 0
        on the ``frame`` of ref, views of (3, M, nodes) rows as in ``box_points``."""
        alpha = math.atan2(self.sk, abs(sys.strength))
        n = c / np.linalg.norm(c, axis=-1, keepdims=True)
        e1, e2 = self.frame(n, ref)
        turn = -1.0 if sys.strength < 0 else 1.0    # the sense of the flow about n
        th = turn * 2.0 * math.pi * np.arange(nodes) / nodes
        cos, sin = np.cos(th), np.sin(th)
        n, e1, e2 = (np.ascontiguousarray(a.T)[..., None] for a in (n, e1, e2))    # (3, M, 1)
        q = self.R * (math.cos(alpha) * n + math.sin(alpha) * (cos * e1 + sin * e2))
        return q.transpose(1, 2, 0), (turn * (cos * e2 - sin * e1)).transpose(1, 2, 0)

    def orbit_space_point(self, sys, q, v):
        """The axis of the Zoll circle through each state (q, v), (..., 3)
        arrays: the point at angle alpha (as in ``zoll_circle``) from q / R
        toward the circle's centre, along turn J v / |v|."""
        alpha = math.atan2(self.sk, abs(sys.strength))
        turn = -1.0 if sys.strength < 0 else 1.0
        jv = self.rotate90(q, v) / np.linalg.norm(v, axis=-1, keepdims=True)
        return math.cos(alpha) * (q * self.sk) + (turn * math.sin(alpha)) * jv

    def cap(self, pos, vel, closure):
        """The loop seen along the cap axis, its centre 0, and per sample the
        primitive at distance theta from the cap centre times d(azimuth)/dt."""
        axis = np.cross(pos, vel).mean(axis=0)
        nrm = np.linalg.norm(axis)
        if nrm == 0.0:
            raise CapNotFound("orbit has no preferred axis")
        chat = axis / nrm * self.R / self.R    # the cap centre axis / nrm * R, over R
        theta = self.R * np.arccos(np.clip(pos @ chat / self.R, -1.0, 1.0))
        e1, e2 = self.frame(chat)
        x1, x2 = pos @ e1, pos @ e2
        v1, v2 = vel @ e1, vel @ e2
        phi_dot = (x1 * v2 - x2 * v1) / (x1**2 + x2**2)
        prim = (1.0 - np.cos(self.sk * theta)) / self.kappa
        return np.stack([x1, x2], axis=1), np.zeros(2), prim * phi_dot


class _PlanarChart(ChartOps):
    """Formulas shared by the two charts whose points are (r, p) pairs."""

    def rotate90(self, q, v):
        w = self.w_wp(q[..., 0])[0]
        out = np.empty_like(v)
        out[..., 0] = -w * v[..., 1]
        out[..., 1] = v[..., 0] / w
        return out

    def rhs(self, sys):
        """Right-hand side of y = (q, v) with nabla^g_v v = s b(q) J v.

        The g0 part is (w w' v_p^2, -2 (w'/w) v_r v_p) + s (-w v_p, v_r / w),
        with (w, w') = (1, 0) on the torus, and a perturbed system adds
        -2 (dl.v) v + |v|^2_g0 (dl_r, dl_p / w^2) and the density b.  The
        arithmetic runs on Python floats in the order numpy's elementwise
        operations would use, and dl.v is summed left to right; w and w' are
        ``w_wp``'s, as the array paths take them, converted to floats.
        """
        s, w_wp = sys.strength, self.w_wp
        s1 = float(s)    # s b with b = 1
        perturbed = not sys.is_unperturbed()
        if perturbed:
            at = self._perturbation(sys)

        def f(t, y):
            L = y.tolist()
            r, _, v0, v1 = L
            w, wp = w_wp(r)
            w, wp = float(w), float(wp)
            sb = s1
            a0 = w * wp * (v1 * v1)
            a1 = -2.0 * (wp / w) * v0 * v1
            if perturbed:
                (l0, l1), b = at(L[:2])
                dv = -2.0 * (l0 * v0 + l1 * v1)
                w2 = w * w
                vv = v0 * v0 + w2 * (v1 * v1)
                a0 += dv * v0 + vv * l0
                a1 += dv * v1 + vv * (l1 / w2)
                sb = s * b
            return np.array([v0, v1, a0 + sb * (-w * v1), a1 + sb * (v0 / w)])

        return f

    def g0_terms(self, q, v, dl):
        """(g0-gradient of Lambda, |v|^2_g0) from the differential dl at q;
        q, v and dl are (..., 2) arrays."""
        w2 = self.w_wp(q[..., 0])[0] ** 2
        return (np.stack([dl[..., 0], dl[..., 1] / w2], axis=-1),
                v[..., 0] ** 2 + w2 * v[..., 1] ** 2)

    def covariant(self, q, v, dv):
        """g0-covariant derivative of the velocity from its chart derivative dv:
        dv^k + Gamma^k_ij v^i v^j, whose only nonzero symbols are
        Gamma^r_pp = -w w' and Gamma^p_rp = Gamma^p_pr = w'/w."""
        w, wp = self.w_wp(q[..., 0])
        return dv + np.stack([-w * wp * v[..., 1] ** 2,
                              2.0 * (wp / w) * v[..., 0] * v[..., 1]], axis=-1)

    def box_points(self, r, p):
        """The chart points and the area weight w(r) at the metric coordinates
        (r, p) of the box.  The points are the (..., 2) view of the component
        rows r and p."""
        return np.moveaxis(np.array([r, p]), 0, -1), self.w_wp(r)[0]

    @staticmethod
    def _grid(nu, nv, closed):
        """(u, v, counterclockwise cells) of the grid of vertices u nv + v."""
        u, v = np.divmod(np.arange(nu * nv), nv)
        corner = [(u + du) % nu * nv + (v + dv) % nv for du, dv in ((0, 0), (1, 0), (1, 1), (0, 1))]
        return u, v, np.stack(corner, axis=-1)[closed | (u < nu - 1)]

    def cap(self, pos, vel, closure):
        """The loop in the planar image, its mean, and per sample a primitive
        times dp/dt."""
        plane = self.to_plane(pos)
        return plane, plane.mean(axis=0), self._green_primitive(pos) * vel[:, 1]


class HyperbolicChart(_PlanarChart):
    """kappa < 0: geodesic polar coordinates (rho, phi) with metric
    drho^2 + (sinh^2(sqrt(-kappa) rho)/(-kappa)) dphi^2, bounded by
    ``domain_rho`` = 3/sqrt(-kappa) for area bookkeeping, and singular at its
    origin rho = 0, where ``project`` refuses a state.  The planar image is
    (X, Y) = rho (cos phi, sin phi), so loops winding around the chart origin
    are handled uniformly.  The capping disk is the origin-side region, and
    (cosh(sqrt(-k) rho) - 1)/(-k) dphi a primitive of sigma0.
    """

    columns = ("rho", "phi", "v_rho", "v_phi")

    def __init__(self, kappa):
        if not kappa < 0:
            raise ValidationError("HyperbolicChart requires kappa < 0")
        super().__init__(kappa)
        self.sk = math.sqrt(-self.kappa)
        self.domain_rho = 3.0 / self.sk
        self.box = (self.domain_rho, 2.0 * math.pi)

    def w_wp(self, rho):
        z = self.sk * rho
        return np.sinh(z) / self.sk, np.cosh(z)

    def g0_dot(self, q, u, v):
        w = self.w_wp(np.asarray(q, dtype=float)[..., 0])[0]
        return u[..., 0] * v[..., 0] + w**2 * u[..., 1] * v[..., 1]

    def project(self, q, v):
        if q[0] == 0.0:
            raise StepFailure("state at rho = 0, where the polar chart is singular")

    def wrap(self, q, ref):
        two_pi = 2.0 * math.pi
        return np.array([q[0], q[1] - two_pi * round((q[1] - float(ref[1])) / two_pi)])

    def area(self):
        rho = self.domain_rho
        return 2.0 * math.pi * (math.cosh(self.sk * rho) - 1.0) / (-self.kappa)

    def oracle_box(self):
        raise ValidationError(
            "the volume oracle is defined on the closed charts (sphere and flat torus), "
            "not on the hyperbolic chart's truncated disk")

    latitude_point = (0.0, 0.0)

    def _seed_radius(self, sys):
        """The radius of the searched disk of centres."""
        rho_star = math.atanh(self.sk / sys.strength) / self.sk
        return max(0.2, min(1.0, self.domain_rho - rho_star - 0.3))

    def orbit_space_tiling(self, sys, drift=False):
        """Rings about vertex 0, the centre (twice in each cell about it): 8 of
        16 vertices over the searched disk or, for the drift, 2 of 4 out to 1.25
        times its radius (the outer ring of hyperbolic_eta_radial lies at 1.02
        times it, and a tiling that stops at 1 misses it), with the radial and
        angular axes."""
        (rings, dirs), reach = ((3, 4), 1.25) if drift else ((9, 16), 1.0)
        r, j, cells = self._grid(rings, dirs, closed=False)
        points = np.stack([reach * self._seed_radius(sys) * r / (rings - 1),
                           2.0 * math.pi * j / dirs], axis=-1)[dirs - 1:]
        points[0] = 0.0
        cp, sp = np.cos(points[:, 1]), np.sin(points[:, 1])
        return (points, np.maximum(cells - (dirs - 1), 0),
                np.stack([cp, -sp, sp, cp], axis=-1).reshape(-1, 2, 2))

    def in_searched_region(self, sys, c):
        """Which centres c lie in the searched disk."""
        return c[:, 0] <= self._seed_radius(sys)

    def zoll_circle(self, sys, c, nodes, ref=None):
        """Positions and unit g0-velocities, each (M, nodes, 2), at nodes equally
        spaced points of the Zoll circle about each centre c = (rho, phi), in the
        order the flow runs through them: on the hyperboloid, the circle
        tanh(sqrt(-kappa) rho*) = sqrt(-kappa)/s about the origin, boosted to c.
        The boost is smooth in the planar image of c, so node 0 needs no ref."""
        rh = 1.0 / self.sk
        a = math.atanh(self.sk / sys.strength)    # rho* / rh; the Zoll regime has s > sk
        th = 2.0 * math.pi * np.arange(nodes) / nodes
        cos, sin = np.cos(th), np.sin(th)
        z = c[:, :1] / rh
        cz, sz = np.cosh(z), np.sinh(z)
        cp, sp = np.cos(c[:, 1:]), np.sin(c[:, 1:])

        def boost(y0, y1, y2):
            # B = I + sinh z (e0 e^T + e e0^T) + (cosh z - 1)(e0 e0^T + e e^T),
            # e = (0, cos phi, sin phi)
            ey = cp * y1 + sp * y2
            k = sz * y0 + (cz - 1.0) * ey
            return cz * y0 + sz * ey, y1 + cp * k, y2 + sp * k

        x0, x1, x2 = boost(rh * math.cosh(a), rh * math.sinh(a) * cos, rh * math.sinh(a) * sin)
        u0, u1, u2 = boost(0.0, -sin, cos)
        r = np.hypot(x1, x2)    # sqrt(x0^2 - rh^2) on the hyperboloid
        pos = np.stack([rh * np.arccosh(np.maximum(x0 / rh, 1.0)), np.arctan2(x2, x1)], axis=-1)
        return pos, np.stack([rh * u0 / r, (x1 * u2 - x2 * u1) / r**2], axis=-1)

    def orbit_space_point(self, sys, q, v):
        """The centre (rho, phi) of the Zoll circle through each state (q, v),
        (..., 2) arrays: the inverse of the boost in ``zoll_circle``.  On the
        hyperboloid, with X the point of q and U the unit tangent of J v, the
        centre is X cosh a + rh U sinh a (a = rho* / rh), whose components
        along and across the direction phi of q are rh (A, B) below.  Refused
        at rho = 0, where the polar chart is singular."""
        if np.any(q[..., 0] == 0.0):
            raise StepFailure("state at rho = 0, where the polar chart is singular")
        rh = 1.0 / self.sk
        a = math.atanh(self.sk / sys.strength)
        z = q[..., 0] / rh
        sz = np.sinh(z)
        speed = np.sqrt(self.g0_dot(q, v, v))
        A = math.cosh(a) * sz - math.sinh(a) * np.cosh(z) * (rh * sz * v[..., 1]) / speed
        B = math.sinh(a) * v[..., 0] / speed
        return np.stack([rh * np.arcsinh(np.hypot(A, B)), q[..., 1] + np.arctan2(B, A)], axis=-1)

    def to_plane(self, q):
        return np.stack([q[..., 0] * np.cos(q[..., 1]), q[..., 0] * np.sin(q[..., 1])], axis=-1)

    def from_plane(self, p):
        x, y = p[..., 0], p[..., 1]
        return np.stack([np.hypot(x, y), np.arctan2(y, x)], axis=-1)

    def plane_jacobian(self, q):
        c, s = math.cos(q[1]), math.sin(q[1])
        return np.array([[c, -q[0] * s], [s, q[0] * c]])

    def _green_primitive(self, pos):
        return (np.cosh(self.sk * pos[:, 0]) - 1.0) / (-self.kappa)


class TorusChart(_PlanarChart):
    """kappa = 0: the flat fundamental domain (x, y) with periods box =
    (2 pi, 2 pi); positions may live on the universal cover.  The chart is its
    own planar image, and the capping disk the literal disk in it (sigma0
    primitive x dy); a loop that winds around the torus bounds no disk in the
    chart.
    """

    columns = ("x", "y", "vx", "vy")

    def __init__(self, kappa):
        if kappa != 0:
            raise ValidationError("TorusChart requires kappa = 0")
        super().__init__(kappa)
        self.box = (2.0 * math.pi, 2.0 * math.pi)

    def w_wp(self, rho):
        return 1.0, 0.0

    def wrap(self, q, ref):
        periods = np.asarray(self.box)
        return q - periods * np.round((q - ref) / periods)

    def area(self):
        p1, p2 = self.box
        return p1 * p2

    latitude_point = (math.pi, math.pi)    # the centre of the domain

    def orbit_space_tiling(self, sys, drift=False):
        """A grid of n x n cells centred on (i, j) box / n, n = 12 or, for the
        drift, 4, so that no vertex lies on x, y = 0 or pi."""
        n, (p1, p2) = 4 if drift else 12, self.box
        i, j, cells = self._grid(n, n, closed=True)
        return np.stack([(i - 0.5) * (p1 / n), (j - 0.5) * (p2 / n)], axis=-1), cells, np.eye(2)

    def orbit_space_gap(self, c, c2):
        return self.wrap(c2, c) - c

    def zoll_circle(self, sys, c, nodes, ref=None):
        """Positions and unit velocities, each (M, nodes, 2), at nodes equally
        spaced points of the circle of radius 1/s about each centre c, in the
        order the flow runs through them (counterclockwise) from the point of
        ``zoll_state``, which needs no ref; the positions view (2, M, nodes) rows."""
        th = 2.0 * math.pi * np.arange(nodes) / nodes
        cos, sin = np.cos(th), np.sin(th)
        vel = np.stack([-sin, cos], axis=-1)
        q = c.T.copy()[..., None] + np.stack([cos, sin])[:, None, :] / sys.strength
        return q.transpose(1, 2, 0), np.broadcast_to(vel, (len(c),) + vel.shape)

    def orbit_space_point(self, sys, q, v):
        """The centre q + J v / (s |v|) of the Zoll circle through each state
        (q, v), (..., 2) arrays.  The velocity is scaled to unit g0-speed, the
        speed of the circles, not to unit g-speed."""
        return q + self.rotate90(q, v) / (sys.strength * np.sqrt(self.g0_dot(q, v, v)))[..., None]

    def cap(self, pos, vel, closure):
        """A loop winding around the torus has no cap."""
        if np.any(np.round(closure / np.array(self.box)) != 0):
            raise CapNotFound("orbit winds around the torus; no capping disk in the chart")
        return super().cap(pos, vel, closure)

    def _green_primitive(self, pos):
        return pos[:, 0]

