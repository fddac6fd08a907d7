import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from magsys_lab import (DivergedFromFamily, ExperimentConfig, NoConvergence,
                        StepFailure, TangencyError, TangentState,
                        conformal_perturb, enumerate_orbits, find_closed_orbit, flow,
                        latitude_seed, magnetic_length, make_model,
                        make_section, reference_period, return_map,
                        state_distance, tangent_state)
from magsys_lab import ScalarField
from magsys_lab import dynamics as dynamics_mod
from magsys_lab import orbits as orbits_mod
from magsys_lab.orbits import (Orbit, _matched_bound, _poly_hausdorff,
                               _reduced_map, _support_gap)

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
        st2, t_ret, _ = return_map(sys, spec, seed)
        assert state_distance(sys, st2, seed) < 1e-9
        assert t_ret == pytest.approx(reference_period(sys), abs=1e-8)

    def test_perturbed_displacement_scales_with_eps(self):
        sys_seed = make_model(1.0, 1.0)
        seed = sys_seed.surface.zoll_state(sys_seed, np.array([0.6, 0.0, 0.8]))
        spec = make_section(sys_seed, seed)
        gaps = []
        for eps in (0.05, 0.025):
            sysp = perturbed_sphere(eps)
            st2, _, _ = return_map(sysp, spec, seed)
            gaps.append(state_distance(sysp, st2, seed))
        assert gaps[0] > 0
        ratio = gaps[0] / gaps[1]
        assert 1.0 < ratio < 4.0          # O(eps) displacement

    def test_tangent_state_rejected(self):
        sys = make_model(1.0, 1.0)
        seed = latitude_seed(sys)
        spec = make_section(sys, seed)
        tangent = sys.surface.section_state(sys, spec, 0.0, math.pi / 2)
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
            sysp, sysp.surface.zoll_state(sysp, np.array([0.05, 0.0, -1.0])), tol=1e-9)
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
        seed = sysp.surface.zoll_state(sysp, np.array([1.0, 0.0, 0.0]))
        with pytest.raises((DivergedFromFamily, NoConvergence)):
            find_closed_orbit(sysp, seed, tol=1e-12, max_iter=4)

    def test_seed_at_hyperbolic_origin_is_a_step_failure(self):
        # the plane map is singular at rho = 0; the census skips StepFailure
        seed = TangentState(np.array([0.0, 0.0]), np.array([1.0, 0.0]))
        with pytest.raises(StepFailure, match="rho = 0"):
            find_closed_orbit(make_model(-1.0, 2.0), seed)

    def test_orbit_reintegrates_to_closure(self):
        sys = make_model(-1.0, 2.0)
        orb = find_closed_orbit(sys, latitude_seed(sys), tol=1e-9)
        traj = flow(sys, orb.state(0), orb.period)
        dist = state_distance(sys, traj.state(-1), orb.state(0))
        assert dist <= max(2 * orb.residual, 5e-12)


def perturbed_system(kappa):
    """A conformally perturbed system on each chart (the census workloads'
    fields on the sphere and the torus, a bump on the hyperbolic plane)."""
    if kappa > 0:
        return perturbed_sphere(0.05)
    if kappa == 0:
        return conformal_perturb(make_model(0.0, 1.0), "torus_cos_x", 0.05, normalize=True)
    return conformal_perturb(make_model(-1.0, 2.0), ScalarField("hyperbolic_bump", (1.0, 0.5)),
                             0.05, normalize=True)


def counting_return_maps(monkeypatch):
    """Count orbits.return_map calls: [plain, with tangents]."""
    calls = [0, 0]
    plain = orbits_mod.return_map

    def counted(*args, **kw):
        calls[kw.get("tangents") is not None] += 1
        return plain(*args, **kw)

    monkeypatch.setattr(orbits_mod, "return_map", counted)
    return calls


def finite_difference_jacobian(F, x, h=1e-6):
    """The Newton Jacobian as computed before the variational equations:
    forward differences of g(x) = F(x) - x, two more return maps, step 1e-6."""
    fx = F(x)[0]
    jac = np.empty((2, 2))
    for j in range(2):
        xp = x.copy()
        xp[j] += h
        fp = F(xp)[0]
        jac[:, j] = (fp - xp) - (fx - x)
    return jac / h


def section_cases():
    """(id, system, orbit-space point) on every chart, unperturbed and
    perturbed: the sphere at kappa 1 and 4, the torus, and the hyperbolic
    chart off its origin."""
    sphere4 = make_model(4.0, 1.0)
    cases = [("sphere", make_model(1.0, 1.0), (0.3, -0.5, 0.8)),
             ("sphere_k4", sphere4, (-0.6, 0.2, 0.5)),
             ("torus", make_model(0.0, 1.0), (1.0, 2.0)),
             ("hyperbolic", make_model(-1.0, 2.0), (1.2, 0.7))]
    perturbed = {"sphere": perturbed_system(1.0), "torus": perturbed_system(0.0),
                 "hyperbolic": perturbed_system(-1.0),
                 "sphere_k4": conformal_perturb(sphere4, "sphere_harmonic_z", 0.05,
                                                normalize=True)}
    return cases + [(f"{name}_perturbed", perturbed[name], c) for name, _, c in cases]


SECTION_CASES = section_cases()


@pytest.mark.parametrize("sys,c", [case[1:] for case in SECTION_CASES],
                         ids=[case[0] for case in SECTION_CASES])
class TestSection:
    def test_coords_invert_state(self, sys, c):
        surface = sys.surface
        spec = make_section(sys, surface.zoll_state(sys, np.array(c)))
        for a in np.linspace(-0.3, 0.3, 7):
            for b in np.linspace(-0.5, 0.5, 7):
                st = surface.section_state(sys, spec, a, b)
                x = surface.section_coords(sys, spec, st)
                assert np.max(np.abs(x - (a, b))) < 1e-12

    def test_planar_image_round_trip(self, sys, c):
        # from_plane inverts to_plane, and one point maps as it does among many
        surface = sys.surface
        q, _ = surface.zoll_circle(sys, np.array([c]), 16)
        plane = surface.to_plane(q)
        assert plane.shape == q.shape
        assert np.max(np.abs(surface.from_plane(plane) - q)) < 1e-12
        for k in range(16):
            assert np.array_equal(surface.to_plane(q[0, k]), plane[0, k])
            assert np.array_equal(surface.from_plane(plane[0, k]),
                                  surface.from_plane(plane)[0, k])


class TestVariationalNewton:
    @pytest.mark.parametrize("kappa", [1.0, 0.0, -1.0], ids=["sphere", "torus", "hyperbolic"])
    def test_jacobian_matches_finite_differences(self, kappa):
        sys = perturbed_system(kappa)
        seed = latitude_seed(sys)
        spec = make_section(sys, seed)
        F = _reduced_map(sys, spec, 1e-11)
        x = np.array([0.02, -0.015])     # not a fixed point
        fx, t_ret, resid, jac = F(x, jacobian=True)
        assert resid > 1e-4
        plain = F(x)
        assert np.max(np.abs(fx - plain[0])) < 1e-9
        assert t_ret == pytest.approx(plain[1], abs=1e-9)
        # the plain map gives its dense path, not a Jacobian: the path runs
        # from the section point at x to the return state, whose coordinates are F(x)
        start, end = plain[3](np.array([0.0, plain[1]])).T
        section_point = sys.surface.section_state(sys, spec, *x)
        assert np.array_equal(start, np.concatenate([section_point.position,
                                                     section_point.velocity]))
        returned = tangent_state(sys, *np.split(end, 2))
        assert np.max(np.abs(sys.surface.section_coords(sys, spec, returned) - plain[0])) < 1e-12
        ref = finite_difference_jacobian(F, x)
        assert np.max(np.abs((jac - np.eye(2)) - ref)) < 1e-5

    def test_tangents_are_corrected_for_the_return_time(self):
        # D moves the return state along the section: grad sigma . D = 0
        sys = perturbed_system(1.0)
        seed = latitude_seed(sys)
        spec = make_section(sys, seed)
        D0 = np.random.default_rng(2).normal(size=(6, 2))
        st, t_ret, D = return_map(sys, spec, seed, tangents=D0)
        st_plain, t_plain, _ = return_map(sys, spec, seed)
        assert D.shape == (6, 2)
        assert np.max(np.abs(spec.normal @ D[:3])) < 1e-9
        assert state_distance(sys, st, st_plain) < 1e-9
        assert t_ret == pytest.approx(t_plain, abs=1e-9)

    @pytest.mark.parametrize("kappa,s", [(1.0, 1.0), (0.0, 1.0), (-1.0, 2.0)])
    def test_zoll_seed_costs_one_return_map(self, kappa, s, monkeypatch):
        calls = counting_return_maps(monkeypatch)
        sys = make_model(kappa, s)
        orb = find_closed_orbit(sys, latitude_seed(sys), tol=1e-9)
        assert orb.newton_iterations == 0
        assert calls == [1, 0]

    def test_perturbed_sphere_census_return_maps(self, monkeypatch):
        # one plain map per seed and per line-search trial (no trial is
        # shrunk here), and one map with tangents per Newton step; Newton runs
        # only from the two critical points of the orbit-space average, not
        # from the 11 starts
        calls = counting_return_maps(monkeypatch)
        found = enumerate_orbits(perturbed_sphere(0.05), grid_density=3, tol=1e-9)
        assert len(found) == found.seeds_attempted == 2
        steps = sum(orb.newton_iterations for orb in found)
        assert steps > 0
        assert calls == [found.seeds_attempted + steps, steps]
        assert found.starts == 11
        assert sum(calls) <= 12

    @pytest.mark.parametrize("kappa", [1.0, 0.0, -1.0], ids=["sphere", "torus", "hyperbolic"])
    def test_every_rhs_evaluation_is_counted_by_solve_ivp(self, kappa, monkeypatch):
        # the invariant a tracer of the census relies on: each call of an RHS
        # closure happens inside solve_ivp and shows up in its nfev
        counts = {"closure": 0, "nfev": 0}
        for mod in (orbits_mod, dynamics_mod):
            def counted_rhs(*args, _factory=mod.rhs, **kw):
                f = _factory(*args, **kw)

                def counted(t, y):
                    counts["closure"] += 1
                    return f(t, y)
                return counted

            def counted_ivp(*args, _solve=mod.solve_ivp, **kw):
                sol = _solve(*args, **kw)
                counts["nfev"] += sol.nfev
                return sol

            monkeypatch.setattr(mod, "rhs", counted_rhs)
            monkeypatch.setattr(mod, "solve_ivp", counted_ivp)
        calls = counting_return_maps(monkeypatch)
        enumerate_orbits(perturbed_system(kappa), grid_density=2, tol=1e-9)
        assert calls[1] > 0      # Newton ran, with tangents
        assert counts["closure"] == counts["nfev"] > 0


def refuse_flow(monkeypatch):
    """Make every call of dynamics.flow fail, under both names it has."""
    def refused(*args, **kw):
        raise AssertionError("flow called")
    for mod in (orbits_mod, dynamics_mod):
        monkeypatch.setattr(mod, "flow", refused)


def recording_plain_maps(monkeypatch):
    """The (state, return time) of each plain orbits.return_map call, in order."""
    maps = []
    plain = orbits_mod.return_map

    def recorded(*args, **kw):
        result = plain(*args, **kw)
        if kw.get("tangents") is None:
            maps.append(result[:2])
        return result

    monkeypatch.setattr(orbits_mod, "return_map", recorded)
    return maps


CHARTS = dict(argnames="kappa", argvalues=[1.0, 0.0, -1.0], ids=["sphere", "torus", "hyperbolic"])


class TestOrbitFromReturnMap:
    """A converged orbit is sampled from the plain return map that closed it."""

    @pytest.mark.parametrize(**CHARTS)
    def test_census_integrates_no_orbit_again(self, kappa, monkeypatch):
        refuse_flow(monkeypatch)
        assert len(enumerate_orbits(perturbed_system(kappa), grid_density=2, tol=1e-9)) >= 2

    def test_experiment_integrates_no_orbit_again(self, monkeypatch):
        from magsys_lab import run_experiment
        refuse_flow(monkeypatch)
        cfg = ExperimentConfig(kappa=0.0, strength=1.0, perturbation_name="torus_cos_x",
                               eps=0.05, grid_density=2)
        assert run_experiment(cfg).orbit_count == 2

    @pytest.mark.parametrize(**CHARTS)
    def test_orbit_ends_on_the_closing_map(self, kappa, monkeypatch):
        maps = recording_plain_maps(monkeypatch)
        sys = perturbed_system(kappa)
        orb = find_closed_orbit(sys, latitude_seed(sys), tol=1e-9)
        assert orb.newton_iterations > 0
        assert len(maps) == orb.newton_iterations + 1
        state, t_ret = maps[-1]
        assert state_distance(sys, orb.state(-1), state) < 1e-12
        assert orb.period == t_ret
        assert orb.speed_drift < 1e-9
        assert orb.residual < 1e-9


class TestEnumerate:
    def test_empty_grid(self):
        assert enumerate_orbits(make_model(1.0, 1.0), grid_density=0) == []

    def test_census_defaults_are_the_experiment_config_s(self):
        with pytest.raises(TypeError, match="grid_density"):
            enumerate_orbits(make_model(1.0, 1.0))
        cfg = ExperimentConfig(kappa=1.0, strength=1.0)
        for fn, names in ((enumerate_orbits, ("tol", "max_iter", "workers", "rng_seed")),
                          (find_closed_orbit, ("tol", "max_iter"))):
            params = inspect.signature(fn).parameters
            for name in names:
                field = "tol_orbit" if name == "tol" else name
                assert params[name].default == getattr(cfg, field)

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

    def test_order_ignores_rounding_noise_in_the_lengths(self, monkeypatch):
        # the Zoll torus circles share one length up to rounding noise; a
        # jitter of 1e-14 that falls along the grid reverses a sort by the raw
        # length, but not one by the length as reports print it
        from magsys_lab import functionals
        sys = make_model(0.0, 1.0)
        plain = enumerate_orbits(sys, grid_density=2, tol=1e-9)
        grid = [sid for sid, _ in orbits_mod.seed_grid(sys, 2)]
        assert len(plain) >= 2
        assert [o.seed_id for o in plain] == [sid for sid in grid if sid in
                                              {o.seed_id for o in plain}]
        exact, calls = functionals.magnetic_length, []

        def jittered(sys, orb):
            calls.append(orb.seed_id)
            return exact(sys, orb) - 1e-14 * len(calls)

        monkeypatch.setattr(functionals, "magnetic_length", jittered)
        found = enumerate_orbits(sys, grid_density=2, tol=1e-9)
        assert found.magnetic_lengths != sorted(found.magnetic_lengths)
        assert [o.seed_id for o in found] == [o.seed_id for o in plain]

    def test_process_pool_matches_serial(self):
        # the pool sends each seed's Orbit back pickled; two workers, no more
        sys = make_model(0.0, 1.0)
        serial = enumerate_orbits(sys, grid_density=2, tol=1e-9, workers=1)
        pooled = enumerate_orbits(sys, grid_density=2, tol=1e-9, workers=2)
        assert [o.seed_id for o in pooled] == [o.seed_id for o in serial]
        assert [o.period for o in pooled] == [o.period for o in serial]
        assert pooled.magnetic_lengths == serial.magnetic_lengths
        assert all(np.array_equal(a.states, b.states) for a, b in zip(pooled, serial))

    def test_dedup_idempotence(self):
        sysp = perturbed_sphere(0.05)
        a = enumerate_orbits(sysp, grid_density=2, tol=1e-9)
        b = enumerate_orbits(sysp, grid_density=2, tol=1e-9)
        assert [o.seed_id for o in a] == [o.seed_id for o in b]
        assert [o.period for o in a] == [o.period for o in b]

    def test_same_circle_deduplicates(self):
        sys = make_model(0.0, 1.0)
        seed1 = latitude_seed(sys)
        shifted = flow(sys, seed1, reference_period(sys) / 3).state(-1)
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


def starts(sys, grid_density=3, rng_seed=0):
    return sys.surface.orbit_space_starts(sys, grid_density, np.random.default_rng(rng_seed))


class TestOrbitSpaceAverage:
    @pytest.mark.parametrize("s", [1.0, 0.7, 2.5])
    def test_torus_cos_x_closed_form(self, s):
        # the circle of radius r = 1/s about (x0, y0): oint cos x ds0 = 2 pi r J0(r) cos x0
        from scipy.special import j0
        sys = conformal_perturb(make_model(0.0, s), "torus_cos_x", 0.05, normalize=False)
        c = np.random.default_rng(3).uniform(-1.0, 7.0, size=(12, 2))
        r = 1.0 / s
        expected = 2.0 * math.pi * r * j0(r) * np.cos(c[:, 0])
        assert np.max(np.abs(orbits_mod.orbit_space_average(sys, c) - expected)) < 1e-12

    @pytest.mark.parametrize("kappa,s", [(1.0, 1.0), (4.0, 0.5), (1.0, -0.7)])
    def test_sphere_harmonic_z_is_proportional_to_the_axis_height(self, kappa, s):
        # the circle about the axis n at polar radius alpha, tan(sqrt(kappa)
        # alpha) = sqrt(kappa)/|s|: the average of sqrt(kappa) z over it is
        # cos(alpha) n_z, times its length 2 pi / sqrt(s^2 + kappa)
        sys = conformal_perturb(make_model(kappa, s), "sphere_harmonic_z", 0.05,
                                normalize=False)
        n = np.random.default_rng(4).normal(size=(12, 3))
        n /= np.linalg.norm(n, axis=1, keepdims=True)
        alpha = math.atan2(math.sqrt(kappa), abs(s))
        expected = math.cos(alpha) * reference_period(sys) * n[:, 2]
        assert np.max(np.abs(orbits_mod.orbit_space_average(sys, n) - expected)) < 1e-12

    def test_zero_without_a_perturbation(self):
        for sys in (make_model(1.0, 1.0), make_model(0.0, 1.0), make_model(-1.0, 2.0)):
            _, c = starts(sys)
            assert not np.any(orbits_mod.orbit_space_average(sys, c))
            assert orbits_mod.critical_points(sys, *starts(sys)) is None

    @pytest.mark.parametrize("kappa,s,field,blind", [
        # at r = 1/s the first zero of J0 every circle averages cos x to zero
        (0.0, 1.0 / 2.404825557695773, "torus_cos_x", True),
        # near-great circles: first order splits the lengths by about 4 pi s
        # eps, less than the second-order terms; below s = 0.025 the blind
        # grid finds orbits over equatorial axes, shorter than the south
        # pole's (by 0.0014 at s = 0.01)
        (1.0, 0.01, "sphere_harmonic_z", True),
        (1.0, 0.02, "sphere_harmonic_z", True),
        (1.0, 0.04, "sphere_harmonic_z", False)])
    def test_first_order_blind_systems_take_the_grid(self, kappa, s, field, blind):
        sys = conformal_perturb(make_model(kappa, s), field, 0.05, normalize=True)
        assert (orbits_mod.critical_points(sys, *starts(sys)) is None) == blind

    @pytest.mark.parametrize("grid_density", [2, 3, 4])
    def test_torus_critical_circles_keep_one_representative(self, grid_density):
        # abar ~ cos x0 is critical on the circles x0 = 0 and x0 = pi; at
        # density 2 every start lies on the level abar = 0 (x0 = pi/2, 3pi/2)
        ids, points = orbits_mod.critical_points(perturbed_system(0.0),
                                                 *starts(perturbed_system(0.0), grid_density))
        assert ids == ["center_0_0_max", "center_0_0_min"]
        x0 = np.mod(points[:, 0] + 1.0, 2.0 * math.pi) - 1.0
        assert x0 == pytest.approx([0.0, math.pi], abs=1e-6)

    def test_sphere_critical_points_follow_the_axis(self):
        axis = np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0)
        sys = conformal_perturb(make_model(1.0, 1.0),
                                ScalarField("sphere_harmonic_axis", (1.0, 1.0, 1.0, 0.0)),
                                0.05, normalize=True)
        ids, points = orbits_mod.critical_points(sys, *starts(sys))
        assert len(ids) == 2
        assert np.max(np.abs(np.abs(points @ axis) - 1.0)) < 1e-10
        assert points[0] @ axis > 0 > points[1] @ axis

    def test_hyperbolic_searches_stay_in_the_seeded_disk(self):
        # abar of the bump is radial: a minimum at the origin, a critical
        # circle of maxima, and it falls off outward, where every descent from
        # the outer ring leaves the seeded disk and yields no point
        sys = perturbed_system(-1.0)
        ids, points = orbits_mod.critical_points(sys, *starts(sys))
        assert ids == ["boost_0_0", "boost_1_0_max"]
        assert np.all(sys.surface.in_searched_region(sys, points))
        assert points[0] == pytest.approx([0.0, 0.0])

    def test_no_critical_point_is_named(self, monkeypatch):
        from magsys_lab import NoOrbitsFound, run_experiment
        monkeypatch.setattr(orbits_mod, "critical_points",
                            lambda sys, ids, starts, tol: ([], np.empty((0, 3))))
        cfg = ExperimentConfig(kappa=1.0, strength=1.0, perturbation_name="sphere_harmonic_z",
                               eps=0.05, grid_density=2)
        with pytest.raises(NoOrbitsFound, match=r"no critical point in the searched region "
                                                r"\(6 starts\)"):
            run_experiment(cfg)


def circle_orbit(seed_id, centre, e1, e2, radius, phase, n=512):
    """A closed n-segment sampling of a circle, starting at angle phase."""
    times = np.linspace(0.0, 2.0 * math.pi, n + 1)
    t = phase + times
    pos = centre + radius * (np.cos(t)[:, None] * e1 + np.sin(t)[:, None] * e2)
    vel = -np.sin(t)[:, None] * e1 + np.cos(t)[:, None] * e2
    return Orbit(np.hstack([pos, vel]), times, 0.0, residual=0.0, seed_id=seed_id)


def sphere_circle(seed_id, axis, alpha, phase):
    """The circle at angular radius alpha about axis on the unit sphere."""
    n_hat = np.asarray(axis, dtype=float) / np.linalg.norm(axis)
    e1 = np.cross(n_hat, [0.0, 1.0, 0.0] if abs(n_hat[1]) < 0.9 else [1.0, 0.0, 0.0])
    e1 /= np.linalg.norm(e1)
    return circle_orbit(seed_id, math.cos(alpha) * n_hat, e1, np.cross(n_hat, e1),
                        math.sin(alpha), phase)


def torus_circle(seed_id, centre, phase):
    return circle_orbit(seed_id, np.asarray(centre, dtype=float), np.array([1.0, 0.0]),
                        np.array([0.0, 1.0]), 1.0, phase)


def keep_all_pairs(sys, orbits, tol=orbits_mod.DEDUP_TOL):
    """Reference deduplication: the exact distance on every pair."""
    kept = []
    for orb in orbits:
        if not any(_poly_hausdorff(sys, orb.positions(), k.positions()) < tol
                   for k in kept):
            kept.append(orb)
    return [orb.seed_id for orb in kept]


def counting_hausdorff(monkeypatch):
    calls = []
    exact = orbits_mod._poly_hausdorff

    def counted(*args):
        calls.append(args)
        return exact(*args)

    monkeypatch.setattr(orbits_mod, "_poly_hausdorff", counted)
    return calls


def closed_loops(dim):
    return st.integers(2, 24).flatmap(lambda n: hnp.arrays(
        np.float64, (n, dim), elements=st.floats(-3.0, 3.0))).map(
        lambda a: np.vstack([a, a[:1]]))


class TestDeduplicate:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), dim=st.sampled_from([2, 3]))
    def test_support_gap_bounds_poly_hausdorff(self, data, dim):
        # 3-D loops in the sphere chart (aligned as they are), 2-D loops in
        # the torus chart, where the second may be a noisy copy of the first
        # shifted by whole periods before alignment
        sys = make_model(1.0, 1.0) if dim == 3 else make_model(0.0, 1.0)
        pa = data.draw(closed_loops(dim))
        if data.draw(st.booleans()):
            noise = data.draw(hnp.arrays(np.float64, pa.shape,
                                         elements=st.floats(-1e-3, 1e-3)))
            pb = pa + noise
        else:
            pb = data.draw(closed_loops(dim))
        if dim == 2:
            k = data.draw(hnp.arrays(np.float64, 2, elements=st.integers(-2, 2)))
            pb = pb + k * np.asarray(sys.surface.box)
        gap = _support_gap(*sys.surface.align_loops(pa, pb))
        # slack: rounding of coordinates up to ~16 in size
        assert gap <= _poly_hausdorff(sys, pa, pb) + 1e-12

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), dim=st.sampled_from([2, 3]))
    def test_matched_bound_bounds_poly_hausdorff(self, data, dim):
        # the second loop is a fresh loop, or a copy of the first started at
        # another vertex, maybe reversed and noisy; on the torus it may also
        # be shifted by whole periods before alignment
        sys = make_model(1.0, 1.0) if dim == 3 else make_model(0.0, 1.0)
        pa = data.draw(closed_loops(dim))
        kind = data.draw(st.sampled_from(["fresh", "phase", "reversed"]))
        if kind == "fresh":
            pb = data.draw(closed_loops(dim))
        else:
            ring = np.roll(pa[:-1], data.draw(st.integers(0, len(pa) - 2)), axis=0)
            if kind == "reversed":
                ring = ring[::-1]
            ring = ring + data.draw(hnp.arrays(np.float64, ring.shape,
                                               elements=st.floats(-1e-3, 1e-3)))
            pb = np.vstack([ring, ring[:1]])
        if dim == 2:
            k = data.draw(hnp.arrays(np.float64, 2, elements=st.integers(-2, 2)))
            pb = pb + k * np.asarray(sys.surface.box)
        bound = _matched_bound(*sys.surface.align_loops(pa, pb))
        assert bound >= _poly_hausdorff(sys, pa, pb) - 1e-12

    def test_sphere_decisions_match_all_pairs(self, monkeypatch):
        sys = make_model(1.0, 1.0)
        z, x = [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]
        found = [sphere_circle("a", z, 0.6, 0.0),
                 sphere_circle("a_phase", z, 0.6, 0.3),
                 sphere_circle("a_near", z, 0.6 + 5e-5, 1.1),     # within tol
                 sphere_circle("b", z, 0.6 + 1.5e-4, 0.0),       # just beyond tol
                 sphere_circle("c", x, 0.6, 0.2),
                 sphere_circle("c_phase", x, 0.6, 2.0),
                 sphere_circle("b_near", z, 0.6 + 1.6e-4, 0.7)]  # beyond a, within b
        expected = keep_all_pairs(sys, found)
        assert expected == ["a", "b", "c"]
        calls = counting_hausdorff(monkeypatch)
        assert [o.seed_id for o in orbits_mod.deduplicate(sys, found)] == expected
        # the support gap settles the far pairs and the matched bound the
        # phase-shifted copies; three pairs within 2 dedup_tol of each other
        # but not within dedup_tol / 2 need the exact pass
        assert len(calls) == 3

    def test_torus_decisions_match_all_pairs(self, monkeypatch):
        sys = make_model(0.0, 1.0)
        p1, p2 = sys.surface.box
        found = [torus_circle("a", [1.0, 1.0], 0.0),
                 torus_circle("a_period", [1.0 + p1, 1.0], 0.4),
                 torus_circle("a_near", [1.0 + 3e-5, 1.0 - p2], 2.5),
                 torus_circle("b", [1.0 + 1.5e-4, 1.0], 0.0),
                 torus_circle("c", [3.0, 2.0], 1.0),
                 torus_circle("c_period", [3.0 + p1, 2.0 + p2], 2.0)]
        expected = keep_all_pairs(sys, found)
        assert expected == ["a", "b", "c"]
        calls = counting_hausdorff(monkeypatch)
        assert [o.seed_id for o in orbits_mod.deduplicate(sys, found)] == expected
        # only b against a (1.5e-4 apart) is left to the exact pass
        assert len(calls) == 1

    def test_zoll_sphere_census_needs_no_exact_pass(self, monkeypatch):
        # every seed of the Zoll sphere closes on its own circle, O(1) apart
        calls = counting_hausdorff(monkeypatch)
        found = enumerate_orbits(make_model(1.0, 1.0), grid_density=3, tol=1e-9)
        assert len(found) == found.seeds_attempted == 11
        assert calls == []

    def test_perturbed_sphere_census_needs_no_exact_pass(self, monkeypatch):
        # the census seeds one orbit per critical point of the orbit-space
        # average, so dedup gets two loops far apart, which the support gap
        # settles
        calls = counting_hausdorff(monkeypatch)
        dedup_in = []
        dedup = orbits_mod.deduplicate

        def counted(sys, orbits, **kw):
            dedup_in.append(len(orbits))
            return dedup(sys, orbits, **kw)

        monkeypatch.setattr(orbits_mod, "deduplicate", counted)
        found = enumerate_orbits(perturbed_sphere(0.05), grid_density=3, tol=1e-9)
        assert dedup_in == [2] and len(found) == 2
        assert calls == []
