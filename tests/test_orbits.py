import math

import numpy as np
import pytest

from magsys_lab import (DivergedFromFamily, NoConvergence, TangencyError,
                        conformal_perturb, enumerate_orbits, find_closed_orbit,
                        flow, latitude_seed, magnetic_length, make_model,
                        make_section, reference_period, return_map,
                        state_distance)
from magsys_lab import orbits as orbits_mod
from magsys_lab.orbits import _poly_hausdorff, _sphere_axis_seed, section_state

# frozen from the independent latitude-circle root-finding oracle
# (axisymmetric conformal factor; see test_syslab for the oracle itself)
ORACLE_LMAG = {
    0.01: (2.5711284089727187, 2.6339586912185142),
    0.05: (2.444676673479152, 2.758639496400509),
}


def perturbed_sphere(eps):
    return conformal_perturb(make_model(1.0, 1.0), "sphere_harmonic_z",
                             eps, normalize=True)


class TestReturnMap:
    def test_zoll_fixed_point(self):
        sys = make_model(1.0, 1.0)
        seed = latitude_seed(sys)
        spec = make_section(sys, seed)
        st2, t_ret = return_map(sys, spec, seed)
        assert state_distance(sys, st2, seed) < 1e-9
        assert t_ret == pytest.approx(reference_period(sys), abs=1e-8)

    def test_perturbed_displacement_scales_with_eps(self):
        sys_seed = make_model(1.0, 1.0)
        seed = _sphere_axis_seed(sys_seed, np.array([0.6, 0.0, 0.8]))
        spec = make_section(sys_seed, seed)
        gaps = []
        for eps in (0.05, 0.025):
            sysp = perturbed_sphere(eps)
            st2, _ = return_map(sysp, spec, seed)
            gaps.append(state_distance(sysp, st2, seed))
        assert gaps[0] > 0
        ratio = gaps[0] / gaps[1]
        assert 1.0 < ratio < 4.0          # O(eps) displacement

    def test_tangent_state_rejected(self):
        sys = make_model(1.0, 1.0)
        seed = latitude_seed(sys)
        spec = make_section(sys, seed)
        tangent = section_state(sys, spec, 0.0, math.pi / 2)
        with pytest.raises(TangencyError):
            return_map(sys, spec, tangent)


class TestFindClosedOrbit:
    def test_zoll_seed_needs_no_newton_steps(self):
        sys = make_model(1.0, 1.0)
        orb = find_closed_orbit(sys, latitude_seed(sys), tol=1e-9, seed_id="lat")
        assert orb.newton_iterations == 0
        assert orb.residual < 1e-10
        assert orb.period == pytest.approx(reference_period(sys), abs=1e-8)

    @pytest.mark.parametrize("eps", [0.01, 0.05])
    def test_perturbed_polar_orbits_match_oracle(self, eps):
        sysp = perturbed_sphere(eps)
        north = find_closed_orbit(sysp, latitude_seed(sysp), tol=1e-9)
        south = find_closed_orbit(
            sysp, _sphere_axis_seed(sysp, np.array([0.05, 0.0, -1.0])), tol=1e-9)
        lmag_n = magnetic_length(sysp, north)
        lmag_s = magnetic_length(sysp, south)
        lo, hi = ORACLE_LMAG[eps]
        assert lmag_s == pytest.approx(lo, abs=1e-6)
        assert lmag_n == pytest.approx(hi, abs=1e-6)

    def test_perturbed_hyperbolic_orbit_matches_radial_oracle(self):
        # radially symmetric bump: the surviving orbit is an origin-centered
        # circle whose radius solves  w'/w + L'(rho) = s e^{-L(rho)}  with
        # L = eps u(rho), w = sinh(rho); solve that 1D condition directly
        # and compare with the Newton-found orbit
        import math
        from scipy.optimize import brentq
        from magsys_lab import ScalarField
        eps, c, rho0 = 0.08, 0.5, 1.0
        sys = conformal_perturb(make_model(-1.0, 2.0),
                                ScalarField("hyperbolic_bump", (c, rho0)),
                                eps, normalize=False)

        def L(rho):
            return eps * c * math.exp(-((rho / rho0) ** 2))

        def Lp(rho):
            return L(rho) * (-2.0 * rho / rho0**2)

        def condition(rho):
            return 1.0 / math.tanh(rho) + Lp(rho) - 2.0 * math.exp(-L(rho))

        rho_hat = brentq(condition, 0.3, 1.2, xtol=4e-16)
        orb = find_closed_orbit(sys, latitude_seed(sys), tol=1e-10)
        radii = orb.positions()[:, 0]
        assert np.max(np.abs(radii - rho_hat)) < 1e-8
        assert rho_hat != pytest.approx(math.atanh(0.5), abs=1e-4)

    def test_seed_residual_gate(self, monkeypatch):
        monkeypatch.setattr(orbits_mod, "SEED_RESIDUAL_GATE", 1e-12)
        sysp = perturbed_sphere(0.05)
        with pytest.raises(DivergedFromFamily):
            find_closed_orbit(sysp, latitude_seed(sysp), tol=1e-9)

    def test_degenerate_equatorial_seed_diverges(self):
        # under the axisymmetric perturbation, equatorial axes sit on the
        # degenerate direction of the orbit family
        sysp = perturbed_sphere(0.05)
        seed = _sphere_axis_seed(sysp, np.array([1.0, 0.0, 0.0]))
        with pytest.raises((DivergedFromFamily, NoConvergence)):
            find_closed_orbit(sysp, seed, tol=1e-12, max_iter=4)

    def test_orbit_reintegrates_to_closure(self):
        sys = make_model(-1.0, 2.0)
        orb = find_closed_orbit(sys, latitude_seed(sys), tol=1e-9)
        traj = flow(sys, orb.samples[0], orb.period)
        dist = state_distance(sys, traj.states[-1], orb.samples[0])
        assert dist <= max(2 * orb.residual, 5e-12)


class TestEnumerate:
    def test_empty_grid(self):
        assert enumerate_orbits(make_model(1.0, 1.0), grid_density=0) == []

    @pytest.mark.parametrize("kappa,s", [(1.0, 1.0), (0.0, 1.0), (-1.0, 2.0)])
    def test_zoll_family_one_period(self, kappa, s):
        sys = make_model(kappa, s)
        found = enumerate_orbits(sys, grid_density=2, tol=1e-9)
        assert len(found) >= 2
        periods = [orb.period for orb in found]
        assert max(periods) - min(periods) < 1e-8

    def test_perturbed_sphere_two_orbits(self):
        sysp = perturbed_sphere(0.05)
        found = enumerate_orbits(sysp, grid_density=2, tol=1e-9)
        assert len(found) >= 2
        lmags = [magnetic_length(sysp, orb) for orb in found]
        assert lmags == sorted(lmags)

    def test_census_carries_lengths_and_seed_count(self):
        # the lengths that order the census are the ones reports print, so
        # no caller has to compute them a second time
        sys = make_model(0.0, 1.0)
        found = enumerate_orbits(sys, grid_density=2, tol=1e-9)
        assert found.seeds_attempted == len(orbits_mod.seed_grid(sys, 2)) == 4
        assert found.magnetic_lengths == [magnetic_length(sys, orb) for orb in found]

    def test_dedup_idempotence(self):
        sysp = perturbed_sphere(0.05)
        a = enumerate_orbits(sysp, grid_density=2, tol=1e-9)
        b = enumerate_orbits(sysp, grid_density=2, tol=1e-9)
        assert [o.seed_id for o in a] == [o.seed_id for o in b]
        assert [o.period for o in a] == [o.period for o in b]

    def test_same_circle_deduplicates(self):
        sys = make_model(0.0, 1.0)
        seed1 = latitude_seed(sys)
        shifted = flow(sys, seed1, reference_period(sys) / 3).states[-1]
        orb1 = find_closed_orbit(sys, seed1, tol=1e-9, seed_id="a")
        orb2 = find_closed_orbit(sys, shifted, tol=1e-9, seed_id="b")
        assert _poly_hausdorff(sys, orb1.positions(), orb2.positions()) < 1e-4
        kept = orbits_mod.deduplicate(sys, [orb1, orb2])
        assert len(kept) == 1

    def test_orbits_converge_to_zoll_family_as_eps_shrinks(self):
        # strength 2: at strength 1 the north orbit's first-order shift
        # cancels (-sin + s cos vanishes at theta* = pi/4) and the
        # convergence is artificially quadratic
        zoll = make_model(1.0, 2.0)
        ref_orbit = find_closed_orbit(zoll, latitude_seed(zoll), tol=1e-10)
        dists = []
        for eps in (0.04, 0.02, 0.01):
            sysp = conformal_perturb(zoll, "sphere_harmonic_z", eps,
                                     normalize=True)
            orb = find_closed_orbit(sysp, latitude_seed(sysp), tol=1e-10)
            dists.append(_poly_hausdorff(sysp, orb.positions(),
                                         ref_orbit.positions()))
        for a, b in zip(dists, dists[1:]):
            assert a / b == pytest.approx(2.0, rel=0.3)
