"""Measuring instruments of the tests: random tangent states, the unperturbed
area form, the Christoffel symbols of the planar charts, a curvature stencil
and the distance of two sampled loops.  The package's answers never read
them."""

import math

import numpy as np

from magsys_lab.geometry import SphereChart, TorusChart, tangent_state


def random_state(sys, rng):
    """A random unit-g-speed tangent state away from the polar chart's origin:
    a uniform point of the sphere, of the torus's domain or of the hyperbolic
    annulus 0.15 <= rho <= 2.5/sqrt(-kappa), and a Gaussian velocity."""
    surface = sys.surface
    if isinstance(surface, SphereChart):
        q = rng.normal(size=3)
        q = q / np.linalg.norm(q) * surface.R
    elif isinstance(surface, TorusChart):
        p1, p2 = surface.box
        q = np.array([rng.uniform(0.0, p1), rng.uniform(0.0, p2)])
    else:
        q = np.array([rng.uniform(0.15, 2.5 / surface.sk), rng.uniform(0.0, 2.0 * math.pi)])
    return tangent_state(sys, q, rng.normal(size=surface.dim))


def sigma0(surface, q, u, v):
    """The unperturbed area form sigma0(u, v) at q: n . (u x v) with n the
    outward unit normal on the sphere, w (u_r v_p - u_p v_r) on the planar charts."""
    if isinstance(surface, SphereChart):
        return float(np.dot(q * surface.sk, np.cross(u, v)))
    return float(surface.w_wp(q[0], np)[0]) * (u[0] * v[1] - u[1] * v[0])


def christoffel0(w, wp):
    """Christoffel symbols Gamma[k, i, j] of g0 = dr^2 + w^2 dp^2, given w and
    w' at r."""
    gam = np.zeros((2, 2, 2))
    gam[0, 1, 1] = -w * wp
    gam[1, 0, 1] = gam[1, 1, 0] = wp / w if w != 0.0 else 0.0
    return gam


def stencil_curvature(surface, r, h=1e-3):
    """Gaussian curvature -w''/w of g0 = dr^2 + w(r)^2 dp^2 at the radii r,
    with w'' from a 5-point stencil of step h on w, the first entry of
    ``surface.w_wp``; independent of any closed-form curvature expression."""
    def w(x):
        return surface.w_wp(x, np)[0]
    d2 = (-w(r - 2 * h) + 16 * w(r - h) - 30 * w(r) + 16 * w(r + h) - w(r + 2 * h)) / 12
    return -d2 / (h * h * w(r))


def loop_distance(surface, pa, pb):
    """Symmetric Hausdorff distance of two closed sample loops in the planar
    image: the largest distance from a vertex of either loop to the other
    loop's polyline, so that samplings of one curve from different starting
    points compare as close."""
    pa, pb = surface.to_plane(pa), surface.to_plane(pb)

    def one_sided(P, Q):
        A, AB = Q[None, :-1], np.diff(Q, axis=0)[None]
        AP = P[:, None] - A
        denom = np.sum(AB * AB, axis=-1)
        t = np.clip(np.sum(AP * AB, axis=-1) / np.where(denom == 0.0, 1.0, denom), 0.0, 1.0)
        return np.linalg.norm(AP - t[..., None] * AB, axis=-1).min(axis=1).max()

    return float(max(one_sided(pa, pb), one_sided(pb, pa)))
