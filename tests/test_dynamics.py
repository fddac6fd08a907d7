import math
from dataclasses import replace

import numpy as np
import pytest

from magsys_lab import (ScalarField, conformal_perturb, flow, latitude_seed,
                        geodesic_curvature_series, length, make_model,
                        reference_period, state_distance, tangent_state,
                        trajectory_to_csv, with_sigma_perturbation)
from magsys_lab.dynamics import rhs
from magsys_lab.geometry import (SphereChart, TangentState, TorusChart,
                                 conf_log_diff, g_dot, g_norm,
                                 magnetic_density)
from magsys_lab.orbits import Orbit

from instruments import christoffel0, random_state


def closure_defect(sys, traj):
    return state_distance(sys, traj.state(-1), traj.state(0))


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
        for t, q, v in zip(traj.times, traj.positions(), traj.velocities()):
            exact_q = center + (1.0 / s) * np.array([math.cos(s * t),
                                                     math.sin(s * t)])
            exact_v = np.array([-math.sin(s * t), math.cos(s * t)])
            assert np.max(np.abs(q - exact_q)) < 1e-8
            assert np.max(np.abs(v - exact_v)) < 1e-8
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
        end = fwd.state(-1)
        rev = flow(back, tangent_state(back, end.position, -end.velocity),
                   3.0, tol=tol, n_samples=n)
        worst = max(
            state_distance(sys, rev.state(i),
                           TangentState(fwd.positions()[n - i],
                                        -fwd.velocities()[n - i]))
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
        for probe in map(traj.state, range(0, len(traj.times), 8)):
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
        b = np.array([float(magnetic_density(sys, q)) for q in traj.positions()])
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
        for probe in map(traj.state, range(0, len(traj.times), 12)):
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


class TestSampleArrays:
    @pytest.mark.parametrize("kappa,s,field,normalize", [
        (1.0, 1.0, "sphere_harmonic_z", True),
        (0.0, 1.0, "torus_cos_x", True),
        (-1.0, 2.0, ScalarField("hyperbolic_bump", (0.5, 1.0)), False),
    ], ids=["sphere", "torus", "hyperbolic"])
    def test_speeds_equal_the_per_sample_loop(self, kappa, s, field, normalize):
        # reference: g_norm on one TangentState at a time; the array code
        # must give the very same floats
        sys = conformal_perturb(make_model(kappa, s), field, 0.05,
                                normalize=normalize)
        traj = flow(sys, latitude_seed(sys), reference_period(sys))
        states = [traj.state(i) for i in range(len(traj.times))]
        speeds = np.array([g_norm(sys, st.position, st.velocity) for st in states])
        assert traj.speed_drift == float(np.max(np.abs(speeds - 1.0)))

        orb = Orbit(traj.states, traj.times, traj.speed_drift, residual=0.0,
                    seed_id="ref")
        n = len(states) - 1
        h = orb.period / n
        loop = np.array([g_norm(sys, st.position, st.velocity) for st in states[:n]])
        assert length(sys, orb) == float(h * loop.sum())


# --- reference formulas, kept here as the generic composition ---------------------

def _dot(a, b):
    """a . b summed left to right, as the kernels sum it."""
    out = float(a[0] * b[0])
    for x, y in zip(a[1:], b[1:]):
        out += float(x * y)
    return out


def _geodesic(ops, q, v):
    """(g0 geodesic acceleration, frame): the unit normal on the sphere, w elsewhere."""
    if isinstance(ops, SphereChart):
        return -_dot(v, v) * ops.kappa * q, q * ops.sk
    if isinstance(ops, TorusChart):
        return np.zeros(2), 1.0
    w, wp = ops.w_wp(q[0])
    return np.array([w * wp * (v[1] * v[1]), -2.0 * (wp / w) * v[0] * v[1]]), w


def _g0_terms(ops, q, v, dl, frame):
    if isinstance(ops, SphereChart):
        return dl - _dot(dl, frame) * frame, _dot(v, v)
    w2 = frame * frame
    return np.array([dl[0], dl[1] / w2]), v[0] * v[0] + w2 * (v[1] * v[1])


def _rotate(ops, v, frame):
    if isinstance(ops, SphereChart):
        return np.cross(frame, v)
    return np.array([-frame * v[1], v[0] / frame])


def reference_rhs(sys):
    """nabla^g_v v = s b(q) J v composed from the public field functions."""
    ops = sys.surface
    d, s = ops.dim, sys.strength
    perturbed = not sys.is_unperturbed()

    def f(t, y):
        q, v = y[:d], y[d:]
        acc, frame = _geodesic(ops, q, v)
        b = 1.0
        if perturbed:
            dl = conf_log_diff(sys, q)
            grad, v0sq = _g0_terms(ops, q, v, dl, frame)
            acc += -2.0 * _dot(dl, v) * v + v0sq * grad
            b = float(magnetic_density(sys, q))
        acc += s * b * _rotate(ops, v, frame)
        return np.concatenate([v, acc])

    return f


def reference_curvature(sys, q, v, dv):
    """Signed geodesic curvature at one sample, from the Christoffel symbols."""
    ops = sys.surface
    if isinstance(ops, SphereChart):
        n = q * ops.sk
        cov = dv - float(dv @ n) * n
        frame = n
    else:
        cov = dv + np.einsum("kij,i,j->k", christoffel0(*ops.w_wp(q[0])), v, v)
        frame = float(ops.w_wp(q[0], np)[0])
    if not sys.is_unperturbed():
        dl = conf_log_diff(sys, q)
        grad, v0sq = _g0_terms(ops, q, v, dl, frame)
        cov = cov + 2.0 * _dot(dl, v) * v - v0sq * grad
    jv = sys.surface.rotate90(q, v)
    return float(g_dot(sys, q, cov, jv)) / float(g_norm(sys, q, v)) ** 3


FIELDS = {1.0: ScalarField("sphere_harmonic_z"), 0.0: ScalarField("torus_cos_x"),
          -1.0: ScalarField("hyperbolic_bump", (0.5, 1.0))}
ETAS = {1.0: "sphere_eta_axial", 0.0: "torus_eta_sin_x", -1.0: "hyperbolic_eta_radial"}
STRENGTH = {1.0: 1.0, 0.0: 1.0, -1.0: 2.0}


def kernel_system(kappa, case):
    sys = make_model(kappa, STRENGTH[kappa])
    if case == "unperturbed":
        return sys
    if case == "eta_only":
        return with_sigma_perturbation(sys, ETAS[kappa], eps=0.05)
    if case == "axis":
        field = ScalarField("sphere_harmonic_axis", (1.0, 1.0, 1.0, 0.0))
    else:
        field = FIELDS[kappa]
    sys = conformal_perturb(sys, field, 0.05, normalize=case != "conformal")
    return with_sigma_perturbation(sys, ETAS[kappa]) if case == "conformal_eta" else sys


KERNEL_CASES = [(kappa, case) for kappa in (1.0, 0.0, -1.0)
                for case in ("unperturbed", "conformal", "conformal_normalized", "eta_only")]
KERNEL_CASES += [(1.0, "conformal_eta"), (0.0, "conformal_eta"), (1.0, "axis")]


class TestRhsKernel:
    @pytest.mark.parametrize("kappa,case", KERNEL_CASES,
                             ids=[f"{k:g}-{c}" for k, c in KERNEL_CASES])
    def test_equals_the_generic_composition(self, kappa, case):
        sys = kernel_system(kappa, case)
        assert sys.is_unperturbed() == (case == "unperturbed")
        f, ref = rhs(sys), reference_rhs(sys)
        rng = np.random.default_rng(17)
        for _ in range(250):
            st = random_state(sys, rng)
            # unit and non-unit speeds: the formula holds for any (q, v)
            scale = rng.choice([1.0, rng.uniform(0.1, 3.0)])
            y = np.concatenate([st.position, scale * st.velocity])
            got, want = f(0.0, y), ref(0.0, y.copy())
            assert np.array_equal(got, want), (y, got - want)


class TestCurvatureSeries:
    @pytest.mark.parametrize("kappa,case", [(1.0, "conformal_eta"), (0.0, "conformal_eta"),
                                            (-1.0, "conformal_normalized"),
                                            (-1.0, "unperturbed")])
    def test_equals_the_per_sample_loop(self, kappa, case):
        sys = kernel_system(kappa, case)
        traj = flow(sys, latitude_seed(sys), reference_period(sys), n_samples=256)
        # reference: the five-point stencil, then one sample at a time
        h = traj.times[1] - traj.times[0]
        vel = traj.velocities()
        dv = np.empty_like(vel)
        dv[2:-2] = (vel[:-4] - 8 * vel[1:-3] + 8 * vel[3:-1] - vel[4:]) / (12 * h)
        c = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / 12.0
        for i in (0, 1):
            dv[i] = sum(c[j] * vel[i + j] for j in range(5)) / h
            dv[-1 - i] = -sum(c[j] * vel[-1 - i - j] for j in range(5)) / h
        want = np.array([reference_curvature(sys, q, v, a)
                         for q, v, a in zip(traj.positions(), vel, dv)])
        got = geodesic_curvature_series(sys, traj)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12
