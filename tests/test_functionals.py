import math

import numpy as np
import pytest

from scipy.special import j1

from magsys_lab import (CapNotFound, closed_form_flux, conformal_perturb,
                        find_closed_orbit, flux_through_cap, latitude_seed,
                        length, magnetic_action, magnetic_length, make_model,
                        reference_length, reference_period,
                        with_sigma_perturbation)
from magsys_lab.fields import OneForm, ScalarField
from magsys_lab.geometry import TangentState
from magsys_lab.orbits import Orbit


def zoll_orbit(kappa, s, tol=1e-10):
    sys = make_model(kappa, s)
    return sys, find_closed_orbit(sys, latitude_seed(sys), tol=tol)


def zoll_loop(sys, c, nodes=512):
    """The exact Zoll circle over the orbit-space point c, sampled as an
    Orbit: no ODE, so the flux is checked against closed forms alone."""
    q, v = sys.surface.zoll_circle(sys, np.array([c], dtype=float), nodes)
    states = np.concatenate([q[0], v[0]], axis=1)
    return Orbit(np.vstack([states, states[:1]]),
                 np.linspace(0.0, reference_period(sys), nodes + 1), 0.0,
                 residual=0.0, seed_id="zoll")


def fake_orbit(states, ts):
    return Orbit(states, ts, 0.0, residual=0.0, seed_id="fake")


class TestZollValues:
    def test_sphere_length(self):
        sys, orb = zoll_orbit(1.0, 1.0)
        assert length(sys, orb) == pytest.approx(2 * math.pi / math.sqrt(2),
                                                 abs=1e-6)

    def test_torus_length(self):
        sys, orb = zoll_orbit(0.0, 1.0)
        assert length(sys, orb) == pytest.approx(2 * math.pi, abs=1e-8)

    def test_hyperbolic_length(self):
        sys, orb = zoll_orbit(-1.0, 2.0)
        assert length(sys, orb) == pytest.approx(2 * math.pi / math.sqrt(3),
                                                 abs=1e-6)

    def test_sphere_flux(self):
        sys, orb = zoll_orbit(1.0, 1.0)
        fx = flux_through_cap(sys, orb)
        assert fx == pytest.approx(2 * math.pi * (1 - 1 / math.sqrt(2)), abs=1e-8)

    def test_torus_flux(self):
        sys, orb = zoll_orbit(0.0, 1.0)
        assert flux_through_cap(sys, orb) == pytest.approx(math.pi, abs=1e-8)

    def test_hyperbolic_flux_positive_sign(self):
        # the corrected closed form: (2 pi/kappa)(s - s^2/sqrt(s^2+kappa))
        sys, orb = zoll_orbit(-1.0, 2.0)
        expected = (2 * math.pi / -1.0) * (2.0 - 4.0 / math.sqrt(3.0))
        assert expected > 0
        got = flux_through_cap(sys, orb)
        assert got == pytest.approx(expected, abs=1e-8)

    @pytest.mark.parametrize("kappa,s,lmag", [
        (1.0, 1.0, 2 * math.pi * (math.sqrt(2) - 1)),
        (1.0, 0.0, 2 * math.pi),
        (0.0, 1.0, math.pi),
        (-1.0, 2.0, 2 * (2 - math.sqrt(3)) * math.pi),
    ])
    def test_magnetic_length_equals_reference(self, kappa, s, lmag):
        sys, orb = zoll_orbit(kappa, s)
        got = magnetic_length(sys, orb)
        assert got == pytest.approx(lmag, abs=1e-6)
        assert got == pytest.approx(reference_length(kappa, s), abs=1e-6)


class TestFluxMethods:
    @pytest.mark.parametrize("kappa,s", [(1.0, 1.0), (0.0, 1.0), (-1.0, 2.0),
                                         (2.0, 0.5), (-0.5, 1.5)])
    def test_cap_quadrature_agrees_with_closed_form(self, kappa, s):
        # the flux through the cap of a Newton-solved Zoll orbit
        sys, orb = zoll_orbit(kappa, s)
        assert abs(flux_through_cap(sys, orb) - closed_form_flux(kappa, s)) < 1e-10

    @pytest.mark.parametrize("kappa,s,c", [
        (1.0, 1.0, (1.0, 2.0, 2.0)),        # off-pole sphere axes
        (2.0, 0.5, (0.3, -0.5, -0.8)),
        (0.5, 3.0, (1.0, 0.0, 0.0)),
        (0.0, 1.0, (0.2, 6.1)),             # torus circles across the box edge
        (0.0, 0.5, (6.0, 3.0)),
        (-1.0, 2.0, (1.0, 0.7)),            # hyperbolic centres at rho = 1, 2:
        (-1.0, 2.0, (2.0, -2.5)),           # rho* = atanh(1/2) misses the origin
        (-0.5, 1.5, (2.0, 3.0)),
    ])
    def test_sigma0_flux_on_exact_circles(self, kappa, s, c):
        sys = make_model(kappa, s)
        assert abs(flux_through_cap(sys, zoll_loop(sys, c))
                   - closed_form_flux(kappa, s)) < 1e-12

    @pytest.mark.parametrize("kappa,s,name,c", [
        (0.0, 1.0, "torus_eta_sin_x", (1.0, 2.0)),
        (0.0, 0.5, "torus_eta_sin_x", (5.5, 0.3)),
        (1.0, 1.0, "sphere_eta_axial", (0.0, 0.0, 1.0)),
        (2.0, 0.5, "sphere_eta_axial", (0.0, 0.0, 1.0)),
        (-1.0, 2.0, "hyperbolic_eta_radial", (0.0, 0.0)),
        (-0.5, 1.5, "hyperbolic_eta_radial", (0.0, 0.0)),
    ])
    def test_exact_perturbation_flux_on_exact_circles(self, kappa, s, name, c):
        # sigma = sigma0 + eps d(eta): int_D d(eta) = oint eta in closed form
        coeff, eps = 0.7, 0.1
        sys = with_sigma_perturbation(make_model(kappa, s), OneForm(name, (coeff,)), eps)
        if kappa == 0.0:      # eta = c sin(x) dy on the circle of radius 1/s about c
            r = 1.0 / s
            eta_loop = 2 * math.pi * coeff * r * j1(r) * math.cos(c[0])
        elif kappa > 0.0:     # eta = c (x dy - y dx) on the cap of angle alpha about +z
            alpha = math.atan2(math.sqrt(kappa), s)
            eta_loop = 2 * math.pi * coeff * math.sin(alpha) ** 2 / kappa
        else:                 # eta = c rho^2 dphi on the circle rho* about the origin
            sk = math.sqrt(-kappa)
            eta_loop = 2 * math.pi * coeff * (math.atanh(sk / s) / sk) ** 2
        expected = closed_form_flux(kappa, s) + s * eps * eta_loop
        assert abs(flux_through_cap(sys, zoll_loop(sys, c)) - expected) < 1e-12

    @pytest.mark.parametrize("kappa,s,name,c", [
        (0.0, 1.0, "torus_eta_sin_x", (1.0, 2.0)),
        (1.0, 1.0, "sphere_eta_axial", (0.3, -0.5, 0.8)),
        (-1.0, 2.0, "hyperbolic_eta_radial", (0.4, 1.1)),
    ])
    def test_one_form_pairing_is_the_summed_products_bit_for_bit(self, kappa, s, name, c,
                                                                 monkeypatch):
        # the flux's 1-form term and the orbit-space average's integrand pair
        # the component rows with v's, c0 v0 + c1 v1 (+ c2 v2), in place of
        # np.sum(components * v, axis=-1): bit for bit the same numbers
        from magsys_lab import orbits
        eta = OneForm(name, (0.7,))
        sys = with_sigma_perturbation(make_model(kappa, s), eta, 0.1)
        loop, centres = zoll_loop(sys, c), np.array([c, c], dtype=float) * [[1.0], [0.9]]
        q, v = loop.positions(), loop.velocities()
        summed = np.sum(eta.components(sys.surface, q) * v, axis=-1)
        assert eta.pairing(sys.surface, q, v).tobytes() == summed.tobytes()
        paired = flux_through_cap(sys, loop), orbits._circle_integrand(sys, centres)
        monkeypatch.setattr(OneForm, "pairing", lambda self, surface, q, v: np.sum(
            self.components(surface, q) * v, axis=-1))
        assert paired[0] == flux_through_cap(sys, loop)
        assert paired[1].tobytes() == orbits._circle_integrand(sys, centres).tobytes()

    @pytest.mark.parametrize("s", [1.0, 2.0, 4.0])
    def test_flux_continuity_across_kappa_zero(self, s):
        for kappa in (1e-3, -1e-3):
            assert abs(closed_form_flux(kappa, s) - math.pi / s) <= 1e-2


class TestMagneticAction:
    def test_zoll_action_vanishes(self):
        for kappa, s in ((1.0, 1.0), (0.0, 1.0), (-1.0, 2.0)):
            sys, orb = zoll_orbit(kappa, s)
            assert abs(magnetic_action(sys, orb).value) < 1e-6

    def test_bookkeeping_identity(self):
        sys, orb = zoll_orbit(1.0, 1.0)
        act = magnetic_action(sys, orb)
        dec = act.decomposition
        recomposed = act.value + dec["flux"] + dec["reference_constant"]
        assert abs(recomposed - dec["length_g"]) < 1e-12

    def test_perturbed_actions_straddle_zero(self):
        sysp = conformal_perturb(make_model(1.0, 1.0), "sphere_harmonic_z",
                                 0.05, normalize=True)
        north = find_closed_orbit(sysp, latitude_seed(sysp), tol=1e-9)
        south = find_closed_orbit(
            sysp, sysp.surface.zoll_state(sysp, np.array([0.05, 0.0, -1.0])), tol=1e-9)
        vals = [magnetic_action(sysp, o).value for o in (north, south)]
        assert min(vals) < 0 < max(vals)


class TestIsometryInvariance:
    def test_rotated_orbit_and_perturbation(self):
        # rotate the conformal axis and the seed by the same rigid rotation:
        # length, flux and l_mag must be unchanged
        eps = 0.05
        base = make_model(1.0, 1.0)
        sys_z = conformal_perturb(base, "sphere_harmonic_z", eps, normalize=True)
        orb_z = find_closed_orbit(sys_z, latitude_seed(sys_z), tol=1e-10)

        axis = np.array([1.0, 2.0, 2.0]) / 3.0
        u_rot = ScalarField("sphere_harmonic_axis", (1.0, *axis))
        sys_r = conformal_perturb(base, u_rot, eps, normalize=True)
        rot = _rotation_taking_z_to(axis)
        seed_z = latitude_seed(sys_z)
        seed_r = TangentState(rot @ seed_z.position, rot @ seed_z.velocity)
        orb_r = find_closed_orbit(sys_r, seed_r, tol=1e-10)

        assert length(sys_r, orb_r) == pytest.approx(length(sys_z, orb_z),
                                                     abs=1e-9)
        assert flux_through_cap(sys_r, orb_r) == pytest.approx(
            flux_through_cap(sys_z, orb_z), abs=1e-9)
        assert magnetic_length(sys_r, orb_r) == pytest.approx(
            magnetic_length(sys_z, orb_z), abs=1e-9)


def _rotation_taking_z_to(axis):
    z = np.array([0.0, 0.0, 1.0])
    v = np.cross(z, axis)
    c = float(z @ axis)
    vx = np.array([[0, -v[2], v[1]], [v[2], 0, -v[0]], [-v[1], v[0], 0]])
    return np.eye(3) + vx + vx @ vx / (1 + c)


class TestCapFailures:
    def test_winding_torus_loop_has_no_cap(self):
        # a loop winding once around the torus is not null-homotopic
        sys = make_model(0.0, 1.0)
        p1, _ = sys.surface.box
        ts = np.linspace(0.0, p1, 65)
        states = np.column_stack([ts, np.full_like(ts, math.pi),
                                  np.ones_like(ts), np.zeros_like(ts)])
        with pytest.raises(CapNotFound):
            flux_through_cap(sys, fake_orbit(states, ts))

    def test_non_star_shaped_boundary_rejected(self):
        # a limacon with an inner loop is not star-shaped about its centroid
        sys = make_model(0.0, 1.0)
        ts = np.linspace(0.0, 2 * math.pi, 129)
        r = 0.3 + 0.8 * np.cos(ts)
        states = np.column_stack([math.pi + r * np.cos(ts), math.pi + r * np.sin(ts),
                                  np.ones_like(ts), np.zeros_like(ts)])
        with pytest.raises(CapNotFound):
            flux_through_cap(sys, fake_orbit(states, ts))

    def test_sphere_figure_eight_has_no_cap(self):
        # two lobes about +x traversed in opposite senses: no axis to wind about
        sys = make_model(1.0, 1.0)
        ts = np.linspace(0.0, 2 * math.pi, 129)
        u = np.column_stack([np.ones_like(ts), 0.5 * np.sin(ts), 0.25 * np.sin(2 * ts)])
        du = np.column_stack([np.zeros_like(ts), 0.5 * np.cos(ts), 0.5 * np.cos(2 * ts)])
        n = np.linalg.norm(u, axis=1, keepdims=True)
        vel = du / n - u * np.sum(u * du, axis=1, keepdims=True) / n**3
        with pytest.raises(CapNotFound):
            flux_through_cap(sys, fake_orbit(np.hstack([u / n, vel]), ts))

    def test_hyperbolic_limacon_has_no_cap(self):
        # the limacon above, in the planar image (rho cos phi, rho sin phi)
        sys = make_model(-1.0, 2.0)
        ts = np.linspace(0.0, 2 * math.pi, 129)
        r, dr = 0.3 + 0.8 * np.cos(ts), -0.8 * np.sin(ts)
        X, Y = 1.5 + r * np.cos(ts), 0.5 + r * np.sin(ts)
        dX, dY = dr * np.cos(ts) - r * np.sin(ts), dr * np.sin(ts) + r * np.cos(ts)
        rho = np.hypot(X, Y)
        states = np.column_stack([rho, np.arctan2(Y, X), (X * dX + Y * dY) / rho,
                                  (X * dY - Y * dX) / rho**2])
        with pytest.raises(CapNotFound):
            flux_through_cap(sys, fake_orbit(states, ts))
