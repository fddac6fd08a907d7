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


def riemannian_volume(sys, rel_tol=AREA_TOL):
    """Surface area under the (possibly perturbed) metric: e^{2 Lambda} w(r)
    over the chart's box, by n Gauss-Legendre nodes in r times the n-point
    trapezoid rule in the periodic p.  n doubles from 16 until two rules agree
    to rel_tol; past 512 the quadrature raises QuadratureFailure."""
    (r_max, p_max), vals = sys.surface.box, []
    for n in AREA_NODES:
        x, wx = np.polynomial.legendre.leggauss(n)
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
    if sys.conformal_exponent is not None and eps != sys.conformal_eps:
        raise ValidationError(
            f"eps = {eps:g} differs from the conformal perturbation's eps = "
            f"{sys.conformal_eps:g}; the two perturbations share one eps")
    if eps == 0.0:
        return sys
    return replace(sys, sigma_perturbation=eta, conformal_eps=float(eps))


# --- chart objects -------------------------------------------------------------------

class ChartOps:
    """A model surface: the formulas of its chart, built from kappa alone.
    Two surfaces are equal, and hash alike, when they share class and kappa.

    Every chart has metric coordinates (r, p) with g0 = dr^2 + w(r)^2 dp^2,
    where w = 1 on the torus; ``w_wp`` gives (w, w') with ``math``, or with
    the module passed as ``fn`` (numpy for arrays).  (r, p) range over
    ``box``, and ``box_points`` gives the chart points and w(r) at arrays of
    them: the one formula of both volume integrals, ``riemannian_volume`` and
    the Monte Carlo oracle of ``volume``.
    Sections are worked in a planar image of the chart (``to_plane``).  The
    capping disk is the region that the rotated velocity J v points into;
    ``green_integrand`` integrates a primitive of sigma0 along its boundary
    loop, and ``cap_loop`` gives that loop in a plane picture with the cap
    centre, about which the loop must be star-shaped for the primitive.
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
        """The perturbed terms of ``rhs`` as one function at(x, second) of the
        components x of one chart point, a list of floats, returning
        (dl, b, ddl, db): dl is ``conf_log_diff`` and b the
        ``magnetic_density``, as floats; with second true, ddl is the Hessian
        of Lambda (dim x dim floats, row by row) and db the gradient of b,
        else both are None.  The fields' formulas (``formulas``) and the
        constants are resolved here, once."""
        eps, dim = sys.conformal_eps, self.dim
        lam_part = 0.5 * math.log(sys.conformal_scale)
        u, eta = sys.conformal_exponent, sys.sigma_perturbation
        if u is not None:
            u_value, u_diff, u_hess = u.formulas(self)
        if eta is not None:
            _, eta_density, eta_gradient = eta.formulas(self)
        zero, zero2 = [0.0] * dim, [0.0] * (dim * dim)

        def at(x, second):
            if u is None:
                dl, lam = zero, lam_part
            else:
                dl = [eps * float(g) for g in u_diff(x)]
                lam = eps * float(u_value(x)) + lam_part
            dens = 1.0 if eta is None else 1.0 + eps * float(eta_density(x))
            e2l = np.exp(-2.0 * lam)
            b = float(dens * e2l)
            if not second:
                return dl, b, None, None
            # b = dens e^{-2 Lambda}: db = e^{-2 Lambda} d(dens) - 2 b dl
            if eta is None:
                db = [-2.0 * b * g for g in dl]
            else:
                ce = eps * float(e2l)
                db = [-2.0 * b * g + ce * float(h) for g, h in zip(dl, eta_gradient(x))]
            ddl = zero2 if u is None else [eps * float(h) for h in u_hess(x)]
            return dl, b, ddl, db

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

    def plane_jacobian(self, q):
        """d(plane)/d(chart) at chart point q."""
        return np.eye(self.dim)

    def align_loops(self, pa, pb):
        """Two sampled loops, brought into one picture for comparison."""
        return pa, pb

    # the orbit space: one point c for each Zoll circle (an axis on the sphere,
    # a centre on the torus and on the hyperbolic chart), held as a row of an
    # (M, k) array.  ``zoll_circle``, each chart's one formula for the circle
    # over c, has ``zoll_state`` as its node 0 and ``latitude_point`` as the c
    # of ``dynamics.latitude_seed``.  ``orbit_space_starts`` gives the census
    # grid, ``orbit_space_step`` moves points by k-vector offsets
    # (``orbit_space_gap`` is its inverse)
    def zoll_state(self, sys, c):
        """The state at node 0 of the Zoll circle over the orbit-space point c."""
        q, v = self.zoll_circle(sys, np.asarray(c, dtype=float)[None], 1)
        return tangent_state(sys, q[0, 0], v[0, 0])

    def orbit_space_gap(self, c, c2):
        return c2 - c

    def in_searched_region(self, sys, c):
        """Which rows of c lie where the census looks for orbits: everywhere
        on a compact surface."""
        return np.ones(len(c), dtype=bool)

    def oracle_box(self):
        """The box that the volume oracle samples: all of a closed surface."""
        return self.box


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

    # metric coordinates
    def w_wp(self, rho, fn=math):
        return fn.sin(self.sk * rho) / self.sk, fn.cos(self.sk * rho)

    # g0, J and the flow
    def rotate90(self, q, v):
        return np.cross(q * self.sk, v)

    def rhs(self, sys, tangents=0):
        """Right-hand side of y = (q, v) with nabla^g_v v = s b(q) J v, and with
        tangents = m > 0 its derivative applied to m tangent columns.

        With n = sqrt(kappa) q the outward normal, the g0 part is
        -|v|^2 kappa q + s n x v, and a perturbed system adds
        -2 (dl.v) v + |v|^2 (dl - (dl.n) n) and the density b.  The
        arithmetic runs on Python floats in the order numpy's elementwise
        operations would use, and each dot product is summed left to right.

        With m > 0 the closure takes Y = (y, X_1, ..., X_m), each X_k a
        state-space vector of length 6, and returns (f(y), Df(y) X_1, ...,
        Df(y) X_m); its first block is the m = 0 result bit for bit.
        """
        s, kappa, sk = sys.strength, self.kappa, self.sk
        s1 = float(s)    # s b with b = 1
        perturbed = not sys.is_unperturbed()
        if perturbed:
            at = self._perturbation(sys)
        second = tangents > 0
        zero3 = (0.0,) * 9

        def f(t, y):
            L = y.tolist()
            q0, q1, q2, v0, v1, v2 = L[:6]
            vv = v0 * v0 + v1 * v1 + v2 * v2
            c = -vv * kappa
            a0, a1, a2 = c * q0, c * q1, c * q2
            n0, n1, n2 = q0 * sk, q1 * sk, q2 * sk
            sb = s1
            if perturbed:
                dl, b, ddl, db = at(L[:3], second)
                l0, l1, l2 = dl
                dn = l0 * n0 + l1 * n1 + l2 * n2
                dv = -2.0 * (l0 * v0 + l1 * v1 + l2 * v2)
                a0 += dv * v0 + vv * (l0 - dn * n0)
                a1 += dv * v1 + vv * (l1 - dn * n1)
                a2 += dv * v2 + vv * (l2 - dn * n2)
                sb = s * b
            jv0, jv1, jv2 = n1 * v2 - n2 * v1, n2 * v0 - n0 * v2, n0 * v1 - n1 * v0
            out = [v0, v1, v2, a0 + sb * jv0, a1 + sb * jv1, a2 + sb * jv2]
            if not second:
                return np.array(out)
            if not perturbed:
                l0 = l1 = l2 = dn = dv = 0.0
                ddl, db = zero3, (0.0, 0.0, 0.0)
            h00, h01, h02, h10, h11, h12, h20, h21, h22 = ddl
            g0, g1, g2 = db
            # d(acc)/dq = -|v|^2 (kappa + dn sk) I + |v|^2 H - 2 v (H^T v)^T
            #   - |v|^2 n (H^T n + sk dl)^T + s (n x v) db^T + s b sk (dq -> dq x v)
            # d(acc)/dv = dv I + 2 (dl - dn n - kappa q) v^T - 2 v dl^T + s b (dv -> n x dv)
            hv0, hv1, hv2 = (h00 * v0 + h10 * v1 + h20 * v2, h01 * v0 + h11 * v1 + h21 * v2,
                             h02 * v0 + h12 * v1 + h22 * v2)
            hn0 = h00 * n0 + h10 * n1 + h20 * n2 + sk * l0
            hn1 = h01 * n0 + h11 * n1 + h21 * n2 + sk * l1
            hn2 = h02 * n0 + h12 * n1 + h22 * n2 + sk * l2
            diag, ssk = -vv * (kappa + dn * sk), sb * sk
            p0, p1, p2 = (2.0 * (l0 - dn * n0 - kappa * q0), 2.0 * (l1 - dn * n1 - kappa * q1),
                          2.0 * (l2 - dn * n2 - kappa * q2))
            m0, m1, m2 = -2.0 * v0, -2.0 * v1, -2.0 * v2
            u0, u1, u2 = -vv * n0, -vv * n1, -vv * n2
            sg0, sg1, sg2 = s * g0, s * g1, s * g2
            a00 = diag + vv * h00 + m0 * hv0 + u0 * hn0 + jv0 * sg0
            a01 = vv * h01 + m0 * hv1 + u0 * hn1 + jv0 * sg1 + ssk * v2
            a02 = vv * h02 + m0 * hv2 + u0 * hn2 + jv0 * sg2 - ssk * v1
            a10 = vv * h10 + m1 * hv0 + u1 * hn0 + jv1 * sg0 - ssk * v2
            a11 = diag + vv * h11 + m1 * hv1 + u1 * hn1 + jv1 * sg1
            a12 = vv * h12 + m1 * hv2 + u1 * hn2 + jv1 * sg2 + ssk * v0
            a20 = vv * h20 + m2 * hv0 + u2 * hn0 + jv2 * sg0 + ssk * v1
            a21 = vv * h21 + m2 * hv1 + u2 * hn1 + jv2 * sg1 - ssk * v0
            a22 = diag + vv * h22 + m2 * hv2 + u2 * hn2 + jv2 * sg2
            b00 = dv + p0 * v0 + m0 * l0
            b01 = p0 * v1 + m0 * l1 - sb * n2
            b02 = p0 * v2 + m0 * l2 + sb * n1
            b10 = p1 * v0 + m1 * l0 + sb * n2
            b11 = dv + p1 * v1 + m1 * l1
            b12 = p1 * v2 + m1 * l2 - sb * n0
            b20 = p2 * v0 + m2 * l0 - sb * n1
            b21 = p2 * v1 + m2 * l1 + sb * n0
            b22 = dv + p2 * v2 + m2 * l2
            for k in range(6, len(L), 6):
                x0, x1, x2, y0, y1, y2 = L[k:k + 6]
                out += (y0, y1, y2,
                        a00 * x0 + a01 * x1 + a02 * x2 + b00 * y0 + b01 * y1 + b02 * y2,
                        a10 * x0 + a11 * x1 + a12 * x2 + b10 * y0 + b11 * y1 + b12 * y2,
                        a20 * x0 + a21 * x1 + a22 * x2 + b20 * y0 + b21 * y1 + b22 * y2)
            return np.array(out)

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
        metric coordinates (r, p) = (theta, phi) of the box, from one sine of
        r / R."""
        R = self.R
        sa = np.sin(r / R)
        q = np.stack([R * sa * np.cos(p), R * sa * np.sin(p), R * np.cos(r / R)], axis=-1)
        return q, R * sa

    latitude_point = (0.0, 0.0, 1.0)

    def frame(self, axis):
        """(e1, e2) completing unit axes (..., 3) to positive orthonormal frames."""
        ref = np.where(np.abs(axis[..., 2:]) < 0.9, (0.0, 0.0, 1.0), (1.0, 0.0, 0.0))
        e1 = np.cross(axis, ref)
        e1 /= np.linalg.norm(e1, axis=-1, keepdims=True)
        return e1, np.cross(axis, e1)

    def orbit_space_starts(self, sys, grid_density, rng):
        """Axes: the two poles always, then rings of jittered axes."""
        ids = ["axis_north", "axis_south"]
        axes = [np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, -1.0])]
        for i in range(grid_density):
            alpha = math.pi * (i + 0.5) / grid_density + 0.02 * rng.uniform(-1, 1)
            sz, cz = math.sin(alpha), math.cos(alpha)
            for j in range(grid_density):
                beta = 2.0 * math.pi * (j + 0.3 + 0.05 * rng.uniform(-1, 1)) / grid_density
                ids.append(f"axis_{i}_{j}")
                axes.append(np.array([sz * math.cos(beta), sz * math.sin(beta), cz]))
        return ids, np.array(axes)

    def orbit_space_step(self, c, d):
        c = c + d
        return c / np.linalg.norm(c, axis=-1, keepdims=True)

    def zoll_circle(self, sys, c, nodes):
        """Positions and unit g0-velocities, each (M, nodes, 3), at nodes equally
        spaced points of the Zoll circle tan(sqrt(kappa) theta*) = sqrt(kappa)/s
        about each axis c, in the order the flow runs through them."""
        alpha = math.atan2(self.sk, abs(sys.strength))
        n = c / np.linalg.norm(c, axis=-1, keepdims=True)
        e1, e2 = self.frame(n)
        turn = -1.0 if sys.strength < 0 else 1.0    # the sense of the flow about n
        th = turn * 2.0 * math.pi * np.arange(nodes) / nodes
        cos, sin = np.cos(th)[:, None], np.sin(th)[:, None]
        e1, e2 = e1[:, None, :], e2[:, None, :]
        q = self.R * (math.cos(alpha) * n[:, None, :] + math.sin(alpha) * (cos * e1 + sin * e2))
        return q, turn * (cos * e2 - sin * e1)

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
        """Distance theta of each sample from the cap centre and a frame
        (e1, e2) of the plane orthogonal to the centre."""
        axis = np.cross(pos, vel).mean(axis=0)
        nrm = np.linalg.norm(axis)
        if nrm == 0.0:
            raise CapNotFound("orbit has no preferred axis")
        center = axis / nrm * self.R       # the cap centre on the sphere
        chat = center / self.R
        theta = self.R * np.arccos(np.clip(pos @ chat / self.R, -1.0, 1.0))
        return (theta, *self.frame(chat))

    def cap_loop(self, pos, vel, closure):
        """The loop seen along the cap axis, and its centre 0."""
        _, e1, e2 = self._cap_coordinates(pos, vel)
        return np.stack([pos @ e1, pos @ e2], axis=1), np.zeros(2)

    def green_integrand(self, pos, vel):
        """Per-sample integrand of the sigma0 flux: primitive times d(azimuth)/dt."""
        theta, e1, e2 = self._cap_coordinates(pos, vel)
        x1, x2 = pos @ e1, pos @ e2
        v1, v2 = vel @ e1, vel @ e2
        phi_dot = (x1 * v2 - x2 * v1) / (x1**2 + x2**2)
        prim = (1.0 - np.cos(self.sk * theta)) / self.kappa
        return prim * phi_dot


class _PlanarChart(ChartOps):
    """Formulas shared by the two charts whose points are (r, p) pairs."""

    def rotate90(self, q, v):
        w = self.w_wp(q[..., 0], np)[0]
        out = np.empty_like(v)
        out[..., 0] = -w * v[..., 1]
        out[..., 1] = v[..., 0] / w
        return out

    def rhs(self, sys, tangents=0):
        """Right-hand side of y = (q, v) with nabla^g_v v = s b(q) J v, and with
        tangents = m > 0 its derivative applied to m tangent columns.

        The g0 part is (w w' v_p^2, -2 (w'/w) v_r v_p) + s (-w v_p, v_r / w),
        with (w, w') = (1, 0) on the torus, and a perturbed system adds
        -2 (dl.v) v + |v|^2_g0 (dl_r, dl_p / w^2) and the density b.  The
        arithmetic runs on Python floats in the order numpy's elementwise
        operations would use, and dl.v is summed left to right.

        With m > 0 the closure takes Y = (y, X_1, ..., X_m), each X_k a
        state-space vector of length 4, and returns (f(y), Df(y) X_1, ...,
        Df(y) X_m); its first block is the m = 0 result bit for bit.  The
        derivative uses w'' = -kappa w.
        """
        s, kappa, w_wp = sys.strength, self.kappa, self.w_wp
        s1 = float(s)    # s b with b = 1
        perturbed = not sys.is_unperturbed()
        if perturbed:
            at = self._perturbation(sys)
        second = tangents > 0
        zero2 = (0.0,) * 4

        def f(t, y):
            L = y.tolist()
            r, _, v0, v1 = L[:4]
            w, wp = w_wp(r)
            sb = s1
            a0 = w * wp * (v1 * v1)
            a1 = -2.0 * (wp / w) * v0 * v1
            if perturbed:
                (l0, l1), b, ddl, db = at(L[:2], second)
                dv = -2.0 * (l0 * v0 + l1 * v1)
                w2 = w * w
                vv = v0 * v0 + w2 * (v1 * v1)
                a0 += dv * v0 + vv * l0
                a1 += dv * v1 + vv * (l1 / w2)
                sb = s * b
            out = [v0, v1, a0 + sb * (-w * v1), a1 + sb * (v0 / w)]
            if not second:
                return np.array(out)
            if not perturbed:
                l0 = l1 = dv = vv = 0.0
                ddl, db = zero2, (0.0, 0.0)
            h00, h01, h10, h11 = ddl
            g0, g1 = db
            iw, rw = 1.0 / w, wp / w
            hv0, hv1 = h00 * v0 + h10 * v1, h01 * v0 + h11 * v1    # (H v)_j
            dvv_r = 2.0 * w * wp * v1 * v1                          # d|v|^2/dr
            # d(acc)/d(r, p, v_r, v_p), one row per acceleration component; j02 = dv
            j00 = ((wp * wp - kappa * w * w) * v1 * v1 - 2.0 * hv0 * v0 + dvv_r * l0
                   + vv * h00 - s * g0 * w * v1 - sb * wp * v1)
            j01 = -2.0 * hv1 * v0 + vv * h01 - s * g1 * w * v1
            j03 = 2.0 * w * (wp * v1 + w * v1 * l0) - 2.0 * l1 * v0 - sb * w
            j10 = (2.0 * (kappa + rw * rw) * v0 * v1 - 2.0 * hv0 * v1
                   + (dvv_r * l1 + vv * h10 - 2.0 * vv * l1 * rw) * iw * iw
                   + s * g0 * v0 * iw - sb * v0 * rw * iw)
            j11 = -2.0 * hv1 * v1 + vv * h11 * iw * iw + s * g1 * v0 * iw
            j12 = -2.0 * (rw + l0) * v1 + 2.0 * v0 * l1 * iw * iw + sb * iw
            j13 = -2.0 * rw * v0 + dv
            for k in range(4, len(L), 4):
                dr, dp, dv0, dv1 = L[k:k + 4]
                out += (dv0, dv1, j00 * dr + j01 * dp + dv * dv0 + j03 * dv1,
                        j10 * dr + j11 * dp + j12 * dv0 + j13 * dv1)
            return np.array(out)

        return f

    def g0_terms(self, q, v, dl):
        """(g0-gradient of Lambda, |v|^2_g0) from the differential dl at q;
        q, v and dl are (..., 2) arrays."""
        w2 = self.w_wp(q[..., 0], np)[0] ** 2
        return (np.stack([dl[..., 0], dl[..., 1] / w2], axis=-1),
                v[..., 0] ** 2 + w2 * v[..., 1] ** 2)

    def covariant(self, q, v, dv):
        """g0-covariant derivative of the velocity from its chart derivative dv:
        dv^k + Gamma^k_ij v^i v^j, whose only nonzero symbols are
        Gamma^r_pp = -w w' and Gamma^p_rp = Gamma^p_pr = w'/w."""
        w, wp = self.w_wp(q[..., 0], np)
        return dv + np.stack([-w * wp * v[..., 1] ** 2,
                              2.0 * (wp / w) * v[..., 0] * v[..., 1]], axis=-1)

    def box_points(self, r, p):
        """The chart points and the area weight w(r) at the metric coordinates
        (r, p) of the box."""
        return np.stack([r, p], axis=-1), self.w_wp(r, np)[0]

    # sections: planes of the planar image through the anchor
    def from_plane(self, p):
        return np.asarray(p, dtype=float)

    def plane_velocity(self, q, v):
        return self.plane_jacobian(q) @ v

    def section_frame(self, q, v):
        vp = self.plane_velocity(q, v)
        m = vp / np.linalg.norm(vp)
        return m, np.array([-m[1], m[0]])

    def _lower(self, q, v):
        """g0-metric lowering in chart components (used only for angles)."""
        w = float(self.w_wp(q[0], np)[0])
        return np.array([v[0], w**2 * v[1]])

    def section_state(self, sys, spec, a, b):
        anchor = spec.anchor
        p = self.to_plane(anchor.position) + a * spec.tangent
        q = self.from_plane(p)
        jac = self.plane_jacobian(q)
        dir_plane = self.plane_jacobian(anchor.position) @ anchor.velocity
        try:
            vref = np.linalg.solve(jac, dir_plane)
        except np.linalg.LinAlgError:
            # only the hyperbolic chart's plane map is singular, at its origin
            raise StepFailure("section point at rho = 0, where the polar chart "
                              "is singular") from None
        jvref = self.rotate90(q, vref)
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
        jvref = self.rotate90(state.position, vref)
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

    def w_wp(self, rho, fn=math):
        return fn.sinh(self.sk * rho) / self.sk, fn.cosh(self.sk * rho)

    def g0_dot(self, q, u, v):
        w = self.w_wp(np.asarray(q, dtype=float)[..., 0], np)[0]
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
        """The largest distance from the origin of a start's centre."""
        rho_star = math.atanh(self.sk / sys.strength) / self.sk
        return max(0.2, min(1.0, self.domain_rho - rho_star - 0.3))

    def orbit_space_starts(self, sys, grid_density, rng):
        """Centres (rho, phi) on rings of directions about the origin."""
        d_max = self._seed_radius(sys)
        ids, centres = [], []
        for i in range(grid_density):
            d = d_max * i / max(grid_density - 1, 1)
            for j in range(grid_density):
                psi = 2.0 * math.pi * j / grid_density
                if d == 0.0 and j > 0:
                    continue
                ids.append(f"boost_{i}_{j}")
                centres.append((d, psi))
        return ids, np.array(centres)

    def orbit_space_step(self, c, d):
        p = self._plane_image(c) + d
        return np.stack([np.hypot(p[:, 0], p[:, 1]), np.arctan2(p[:, 1], p[:, 0])], axis=-1)

    def orbit_space_gap(self, c, c2):
        return self._plane_image(c2) - self._plane_image(c)

    def in_searched_region(self, sys, c):
        """Which centres c lie in the disk the starts cover."""
        return c[:, 0] <= self._seed_radius(sys)

    def zoll_circle(self, sys, c, nodes):
        """Positions and unit g0-velocities, each (M, nodes, 2), at nodes equally
        spaced points of the Zoll circle about each centre c = (rho, phi), in the
        order the flow runs through them: on the hyperboloid, the circle
        tanh(sqrt(-kappa) rho*) = sqrt(-kappa)/s about the origin, boosted to c."""
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

    def cap_loop(self, pos, vel, closure):
        """The loop in the planar image, and its mean."""
        plane = self._plane_image(pos)
        return plane, plane.mean(axis=0)

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

    def w_wp(self, rho, fn=math):
        return 1.0, 0.0

    def wrap(self, q, ref):
        periods = np.asarray(self.box)
        return q - periods * np.round((q - ref) / periods)

    def area(self):
        p1, p2 = self.box
        return p1 * p2

    latitude_point = (math.pi, math.pi)    # the centre of the domain

    def orbit_space_starts(self, sys, grid_density, rng):
        """The centres of a grid of cells."""
        p1, p2 = self.box
        ids, centres = [], []
        for i in range(grid_density):
            for j in range(grid_density):
                ids.append(f"center_{i}_{j}")
                centres.append(((i + 0.5) * p1 / grid_density, (j + 0.5) * p2 / grid_density))
        return ids, np.array(centres)

    def orbit_space_step(self, c, d):
        return self.wrap(c + d, 0.5 * np.asarray(self.box))

    def orbit_space_gap(self, c, c2):
        return self.wrap(c2, c) - c

    def zoll_circle(self, sys, c, nodes):
        """Positions and unit velocities, each (M, nodes, 2), at nodes equally
        spaced points of the circle of radius 1/s about each centre c, in the
        order the flow runs through them (counterclockwise) from the point of
        ``zoll_state``."""
        th = 2.0 * math.pi * np.arange(nodes) / nodes
        ring = np.stack([np.cos(th), np.sin(th)], axis=-1)
        vel = np.stack([-ring[:, 1], ring[:, 0]], axis=-1)
        return c[:, None, :] + ring / sys.strength, np.broadcast_to(vel, (len(c),) + vel.shape)

    def align_loops(self, pa, pb):
        periods = np.asarray(self.box)
        shift = periods * np.round((np.mean(pa, axis=0) - np.mean(pb, axis=0)) / periods)
        return pa, pb + shift

    def cap_loop(self, pos, vel, closure):
        """The loop, and its mean; a loop winding around the torus has no cap."""
        if np.any(np.round(closure / np.array(self.box)) != 0):
            raise CapNotFound("orbit winds around the torus; no capping disk in the chart")
        return pos, pos.mean(axis=0)

    def _green_primitive(self, pos):
        return pos[:, 0]

