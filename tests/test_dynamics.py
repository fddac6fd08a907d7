import math
from dataclasses import replace

import numpy as np
import pytest

from magsys_lab import (conformal_perturb, flow, latitude_seed,
                        geodesic_curvature_series, make_model, random_state,
                        reference_period, state_distance, tangent_state,
                        trajectory_to_csv)
from magsys_lab.geometry import TangentState


def closure_defect(sys, traj):
    return state_distance(sys, traj.states[-1], traj.states[0])


class TestZollClosures:
    def test_great_circle(self):
        # s = 0: plain geodesic flow, great circle of length 2 pi
        sys = make_model(1.0, 0.0)
        traj = flow(sys, latitude_seed(sys), 2 * math.pi)
        assert closure_defect(sys, traj) < 1e-8

    def test_sphere_charged_orbit_closes(self):
        sys = make_model(1.0, 1.0)
        traj = flow(sys, latitude_seed(sys), 2 * math.pi / math.sqrt(2.0))
        assert closure_defect(sys, traj) < 1e-6

    def test_planar_circle_against_analytic_solution(self):
        # kappa = 0, s = 2: gamma(t) = c + (1/s)(sin(st+p), -cos(st+p))
        sys = make_model(0.0, 2.0)
        seed = latitude_seed(sys)
        s = sys.strength
        center = seed.position + np.array([-1.0 / s, 0.0])
        traj = flow(sys, seed, math.pi, n_samples=200)
        for t, st in zip(traj.times, traj.states):
            exact_q = center + (1.0 / s) * np.array([math.cos(s * t),
                                                     math.sin(s * t)])
            exact_v = np.array([-math.sin(s * t), math.cos(s * t)])
            assert np.max(np.abs(st.position - exact_q)) < 1e-8
            assert np.max(np.abs(st.velocity - exact_v)) < 1e-8
        assert closure_defect(sys, traj) < 1e-8

    def test_hyperbolic_orbit_closes(self):
        sys = make_model(-1.0, 2.0)
        traj = flow(sys, latitude_seed(sys), reference_period(sys))
        assert closure_defect(sys, traj) < 1e-9


class TestLatitudeSeed:
    def test_sphere_colatitude(self):
        # tan(theta*) = sqrt(kappa)/s = 1 at kappa = s = 1
        sys = make_model(1.0, 1.0)
        seed = latitude_seed(sys)
        colat = math.acos(seed.position[2])
        assert colat == pytest.approx(math.pi / 4, abs=1e-14)

    def test_sphere_geodesic_limit(self):
        sys = make_model(1.0, 0.0)
        seed = latitude_seed(sys)
        assert math.acos(seed.position[2]) == pytest.approx(math.pi / 2, abs=1e-14)

    def test_hyperbolic_radius(self):
        sys = make_model(-1.0, 2.0)
        seed = latitude_seed(sys)
        assert seed.position[0] == pytest.approx(math.atanh(0.5), abs=1e-14)
        # cross-check by integration: the seed lies on a closed orbit
        traj = flow(sys, seed, reference_period(sys))
        assert closure_defect(sys, traj) < 1e-9


class TestConservation:
    @pytest.mark.parametrize("kappa,s", [(1.0, 1.0), (-1.0, 2.0), (0.0, 1.0)])
    def test_energy_conservation(self, kappa, s):
        sys = make_model(kappa, s)
        rng = np.random.default_rng(5)
        tol = 1e-10
        for _ in range(10):
            st = random_state(sys, rng)
            traj = flow(sys, st, 1.5 * reference_period(sys), tol=tol)
            assert traj.speed_drift <= 10 * tol

    def test_energy_conservation_perturbed(self):
        sys = conformal_perturb(make_model(1.0, 1.0), "sphere_harmonic_z",
                                0.05, normalize=True)
        st = random_state(sys, np.random.default_rng(1))
        traj = flow(sys, st, 2 * reference_period(sys), tol=1e-10)
        assert traj.speed_drift <= 1e-9

    @pytest.mark.parametrize("kappa,s", [(1.0, 1.0), (-1.0, 2.0), (0.0, 2.0)])
    def test_time_reversal_with_sign_flip(self, kappa, s):
        sys = make_model(kappa, s)
        back = replace(sys, strength=-s)
        tol = 1e-9
        st = random_state(sys, np.random.default_rng(3))
        n = 200
        fwd = flow(sys, st, 3.0, tol=tol, n_samples=n)
        end = fwd.states[-1]
        rev = flow(back, tangent_state(back, end.position, -end.velocity),
                   3.0, tol=tol, n_samples=n)
        worst = max(
            state_distance(sys, rev.states[i],
                           TangentState(fwd.states[n - i].position,
                                        -fwd.states[n - i].velocity))
            for i in range(n + 1))
        assert worst <= 10 * tol


class TestGeodesicCurvature:
    @pytest.mark.parametrize("kappa,s", [(1.0, 1.0), (-1.0, 2.0), (0.0, 2.0)])
    def test_constant_curvature_along_flow(self, kappa, s):
        from magsys_lab import measure_geodesic_curvature
        tol = 1e-9
        sys = make_model(kappa, s)
        st = random_state(sys, np.random.default_rng(9))
        traj = flow(sys, st, reference_period(sys), tol=tol, n_samples=64)
        for probe in traj.states[::8]:
            assert abs(measure_geodesic_curvature(sys, probe) - s) <= 10 * tol

    @pytest.mark.parametrize("kappa,s", [(1.0, 1.0), (-1.0, 2.0), (0.0, 2.0)])
    def test_curvature_series_on_samples(self, kappa, s):
        # the sample-based series is the coarser, export-grade measurement
        sys = make_model(kappa, s)
        st = random_state(sys, np.random.default_rng(9))
        traj = flow(sys, st, reference_period(sys), tol=1e-10)
        kg = geodesic_curvature_series(sys, traj)
        assert np.max(np.abs(kg - s)) <= 1e-6

    def test_perturbed_curvature_matches_field_density(self):
        from magsys_lab import magnetic_density
        sys = conformal_perturb(make_model(1.0, 1.0), "sphere_harmonic_z",
                                0.05, normalize=True)
        st = random_state(sys, np.random.default_rng(2))
        traj = flow(sys, st, 4.0, tol=1e-10)
        kg = geodesic_curvature_series(sys, traj)
        b = np.array([float(magnetic_density(sys, s_.position))
                      for s_ in traj.states])
        assert np.max(np.abs(kg - sys.strength * b)) < 1e-6

    @pytest.mark.parametrize("kappa,s,field,coeffs", [
        (-1.0, 2.0, "hyperbolic_bump", (0.5, 1.0)),
        (0.0, 1.0, "torus_cos_x", (1.0,)),
    ])
    def test_perturbed_chart_dynamics(self, kappa, s, field, coeffs):
        # exercises the conformal force terms of the chart-coordinate RHS
        from magsys_lab import ScalarField, magnetic_density
        from magsys_lab import measure_geodesic_curvature
        base = make_model(kappa, s)
        sys = conformal_perturb(base, ScalarField(field, coeffs), 0.08,
                                normalize=False)
        st = random_state(sys, np.random.default_rng(4))
        traj = flow(sys, st, 1.5 * reference_period(sys), tol=1e-10,
                    n_samples=60)
        assert traj.speed_drift <= 1e-9
        for probe in traj.states[::12]:
            want = s * float(magnetic_density(sys, probe.position))
            got = measure_geodesic_curvature(sys, probe)
            assert abs(got - want) < 1e-8


class TestFlowApi:
    def test_duration_cap(self):
        sys = make_model(1.0, 1.0)
        with pytest.raises(ValueError):
            flow(sys, latitude_seed(sys), 1000 * reference_period(sys))

    def test_bad_tol(self):
        sys = make_model(1.0, 1.0)
        with pytest.raises(ValueError):
            flow(sys, latitude_seed(sys), 1.0, tol=0.0)

    def test_times_strictly_increasing(self):
        sys = make_model(0.0, 1.0)
        traj = flow(sys, latitude_seed(sys), 2.0, n_samples=100)
        assert np.all(np.diff(traj.times) > 0)

    @pytest.mark.parametrize("kappa, s, header", [
        (1.0, 1.0, "t,qx,qy,qz,vx,vy,vz,geodesic_curvature"),
        (-1.0, 2.0, "t,rho,phi,v_rho,v_phi,geodesic_curvature"),
        (0.0, 1.0, "t,x,y,vx,vy,geodesic_curvature"),
    ], ids=["sphere", "hyperbolic", "torus"])
    def test_csv_export(self, tmp_path, kappa, s, header):
        sys = make_model(kappa, s)
        traj = flow(sys, latitude_seed(sys), 1.0, tol=1e-8, n_samples=80)
        path = tmp_path / "traj.csv"
        trajectory_to_csv(sys, traj, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == header
        assert len(lines) == 82
        # an unperturbed Zoll orbit has geodesic curvature s
        kappa_g = float(lines[40].split(",")[-1])
        assert kappa_g == pytest.approx(s, abs=1e-6)
