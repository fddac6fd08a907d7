import inspect
import math

import numpy as np
import pytest

from magsys_lab import (DivergedFromFamily, ExperimentConfig, NoConvergence,
                        StepFailure, TangentState,
                        conformal_perturb, enumerate_orbits, find_closed_orbit, flow,
                        latitude_seed, magnetic_length, make_model,
                        reference_period, return_map,
                        state_distance, tangent_state)
from magsys_lab import OneForm, ScalarField, with_sigma_perturbation
from magsys_lab import dynamics as dynamics_mod
from magsys_lab import orbits as orbits_mod
from magsys_lab.dynamics import pack_state
from magsys_lab.orbits import Orbit

from instruments import (counting_return_maps, loop_distance, map_states,
                         recording_drift_return_times)

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
        st2, t_ret, _ = return_map(sys, seed)
        assert state_distance(sys, st2, seed) < 1e-9
        assert t_ret == pytest.approx(reference_period(sys), abs=1e-8)

    def test_perturbed_displacement_scales_with_eps(self):
        sys_seed = make_model(1.0, 1.0)
        seed = sys_seed.surface.zoll_state(sys_seed, np.array([0.6, 0.0, 0.8]))
        gaps = []
        for eps in (0.05, 0.025):
            sysp = perturbed_sphere(eps)
            st2, _, _ = return_map(sysp, seed)
            gaps.append(state_distance(sysp, st2, seed))
        assert gaps[0] > 0
        ratio = gaps[0] / gaps[1]
        assert 1.0 < ratio < 4.0          # O(eps) displacement


def far_torus():
    """torus_cos_x at eps 1.5, not normalised: the maps of the Zoll states over
    the drift's tiling are a mix of returns and NoReturn."""
    return conformal_perturb(make_model(0.0, 1.0), "torus_cos_x", 1.5, normalize=False)


@pytest.mark.parametrize("kappa", [1.0, 0.0, -1.0, None],
                         ids=["sphere", "torus", "hyperbolic", "far_torus"])
def test_stacked_maps_are_each_member_s_own(kappa):
    # return_map on a list: each member's (state, time, path) or exception,
    # bit for bit those of its own map, in a stack of all members and of the
    # first two.  Near the seed every member returns; on the far torus the
    # Zoll states over the drift's tiling, of which some find no return
    if kappa is None:
        sys = far_torus()
        states = [sys.surface.zoll_state(sys, c)
                  for c in sys.surface.orbit_space_tiling(sys, drift=True)[0]]
    else:
        sys = perturbed_system(kappa)
        surface, seed = sys.surface, latitude_seed(sys)
        rng = np.random.default_rng(9)
        states = [tangent_state(sys, seed.position + 0.05 * rng.normal(size=surface.dim),
                                seed.velocity + 0.05 * rng.normal(size=surface.dim))
                  for _ in range(4)]
    times = np.linspace(0.0, 1.5 * reference_period(sys), 101)
    kinds = set()
    for n in (len(states), 2):
        results = return_map(sys, states[:n])
        assert len(results) == n
        for st, res in zip(states, results):
            kinds.add(type(res).__name__)
            try:
                own = return_map(sys, st)
            except orbits_mod.NoReturn as exc:
                assert type(res) is type(exc) and str(res) == str(exc)
                continue
            assert pack_state(res[0]).tobytes() == pack_state(own[0]).tobytes()
            assert res[1] == own[1]
            early = times[times <= res[1]]
            assert res[2](early).tobytes() == own[2](early).tobytes()
    assert kinds == ({"tuple"} if kappa is not None else {"tuple", "NoReturn"})


@pytest.mark.parametrize("kappa,s", [(1.0, 1.0), (0.0, 1.0), (-1.0, 2.0)])
def test_stacked_maps_take_a_path_per_member(kappa, s, monkeypatch):
    # one stacked call with a path for member 0 alone, as the drift's samples
    # run: every Zoll state over the drift's tiling closes within 1e-9, and
    # member 0 keeps its own map's path, bit for bit; every other member
    # keeps none and costs what its plain map costs
    sys = make_model(kappa, s)
    states = [sys.surface.zoll_state(sys, c)
              for c in sys.surface.orbit_space_tiling(sys, drift=True)[0]]
    solves, plain = [], orbits_mod.solve_ivp
    monkeypatch.setattr(orbits_mod, "solve_ivp",
                        lambda *args, **kw: solves.append(plain(*args, **kw)) or solves[-1])
    results = return_map(sys, states, path=[1e-9] + [None] * (len(states) - 1))
    (stack,) = solves
    for i, (st, res, sol) in enumerate(zip(states, results, stack)):
        solves.clear()
        own = return_map(sys, st, path=1e-9 if i == 0 else None)
        assert state_distance(sys, res[0], st) <= 1e-9
        assert (pack_state(res[0]).tobytes(), res[1]) == (pack_state(own[0]).tobytes(), own[1])
        assert sol.nfev == solves[0].nfev
        if i == 0:
            times = np.linspace(0.0, res[1], 257)
            assert res[2](times).tobytes() == own[2](times).tobytes()
            return_map(sys, st, path=None)
            assert sol.nfev > solves[-1].nfev
        else:
            assert res[2] is own[2] is None


def counting_rhs(monkeypatch):
    """The list of the times at which the closures of orbits.rhs are called."""
    calls, plain_rhs = [], orbits_mod.rhs

    def rhs(sys):
        f = plain_rhs(sys)
        return lambda t, y: calls.append(t) or f(t, y)

    monkeypatch.setattr(orbits_mod, "rhs", rhs)
    return calls


@pytest.mark.parametrize("kappa", [1.0, 0.0, -1.0], ids=["sphere", "torus", "hyperbolic"])
def test_map_without_a_path_ends_alike_on_fewer_rhs_calls(kappa, monkeypatch):
    # as the Jacobian's maps run (path None), and as a map runs that does not
    # close within its tolerance path: no dense-output stages but the crossing
    # step's, and the same end state and return time, bit for bit
    sys = perturbed_system(kappa)
    seed = latitude_seed(sys)
    calls = counting_rhs(monkeypatch)
    ends = {}
    for path in (math.inf, None, 1e-9):
        calls.clear()
        end, t_ret, p = return_map(sys, seed, path=path)
        ends[path] = (pack_state(end).tobytes(), t_ret, len(calls), p is None)
    assert ends[None][:2] == ends[math.inf][:2] == ends[1e-9][:2]
    assert ends[None][2] < ends[math.inf][2]
    assert ends[None][3] and not ends[math.inf][3]
    # the perturbed seed's map does not close: it costs what a pathless map does
    assert state_distance(sys, end, seed) > 1e-9
    assert ends[1e-9][2:] == ends[None][2:]


@pytest.mark.parametrize("kappa,s", [(1.0, 1.0), (0.0, 1.0), (-1.0, 2.0)])
def test_closing_map_path_is_the_unconditional_one(kappa, s, monkeypatch):
    # a Zoll seed's map closes within 1e-9: asked for its path only where it
    # closes, it builds the path of the same map asked unconditionally, bit
    # for bit and on as many RHS calls
    sys = make_model(kappa, s)
    seed = latitude_seed(sys)
    calls = counting_rhs(monkeypatch)
    paths = {}
    for path in (1e-9, math.inf):
        calls.clear()
        end, t_ret, p = return_map(sys, seed, path=path)
        paths[path] = (p(np.linspace(0.0, t_ret, 257)).tobytes(), t_ret, len(calls))
    assert state_distance(sys, end, seed) <= 1e-9
    assert paths[1e-9] == paths[math.inf]


@pytest.mark.parametrize("kappa", [1.0, 0.0, -1.0], ids=["sphere", "torus", "hyperbolic"])
def test_start_one_ulp_behind_its_section_still_returns(kappa, monkeypatch):
    # the flow crosses the section at once, upwards, from a start one ulp
    # behind it: that crossing is not the return, since the section's event
    # reads +1 until 0.3 reference periods
    sys = perturbed_system(kappa)
    seed, t_ref = latitude_seed(sys), reference_period(sys)
    normal, origin = orbits_mod._section(sys, seed)
    behind = normal, np.nextafter(origin, origin + normal)
    assert -1e-15 < orbits_mod._section_value(sys, behind, seed.position) < 0.0
    monkeypatch.setattr(orbits_mod, "_section", lambda sys, state: behind)
    end, t_ret, _ = return_map(sys, seed)
    assert abs(t_ret - t_ref) < 0.1 * t_ref
    assert state_distance(sys, end, seed) < 0.05


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


def map_results(args, kw, result):
    """The result of each map of one orbits.return_map call: one per member of
    a call with a list of states."""
    return result if isinstance(map_states(return_map, args, kw), list) else [result]


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


SECTION_PARAMS = dict(argnames="sys,c", argvalues=[case[1:] for case in SECTION_CASES],
                      ids=[case[0] for case in SECTION_CASES])


@pytest.mark.parametrize(**SECTION_PARAMS)
class TestSection:
    def test_coords_invert_state(self, sys, c):
        # Newton's coordinates about c: over every point near c, taken as a run
        # takes it (orbit_space_step with the chart's basis, node 0 on its ref),
        # orbit_space_point of the Zoll state gives that point back
        surface = sys.surface
        c = np.array(c) / (np.linalg.norm(c) if surface.dim == 3 else 1.0)
        basis, ref = surface.orbit_space_chart(c)
        for a in np.linspace(-0.3, 0.3, 7):
            for b in np.linspace(-0.5, 0.5, 7):
                c2 = surface.orbit_space_step(c, basis @ (a, b))
                st = surface.zoll_state(sys, c2, ref)
                back = surface.orbit_space_point(sys, st.position, st.velocity)
                assert np.max(np.abs(surface.orbit_space_gap(c2, back))) < 1e-12

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


@pytest.mark.parametrize(**SECTION_PARAMS)
class TestOrbitSpacePoint:
    def test_inverts_the_zoll_circle(self, sys, c):
        # every node of the circle over c, one state or all at once, gives c
        surface = sys.surface
        c = np.array(c) / (np.linalg.norm(c) if surface.dim == 3 else 1.0)
        q, v = surface.zoll_circle(sys, c[None], 16)
        back = surface.orbit_space_point(sys, q, v)
        assert back.shape == (1, 16, len(c))
        for k in range(16):
            one = surface.orbit_space_point(sys, q[0, k], v[0, k])
            assert np.max(np.abs(surface.orbit_space_gap(c, one))) < 1e-12
            assert np.max(np.abs(surface.orbit_space_gap(c, back[0, k]))) < 1e-12

    def test_takes_any_speed(self, sys, c):
        # the point depends on the direction of v only, as on a g-unit state
        surface = sys.surface
        st = surface.zoll_state(sys, np.array(c))
        scaled = surface.orbit_space_point(sys, st.position, 2.5 * st.velocity)
        assert np.max(np.abs(surface.orbit_space_gap(
            surface.orbit_space_point(sys, st.position, st.velocity), scaled))) < 1e-14


class TestVariationalNewton:
    """Newton's Jacobians and its return-map budget.  The class keeps the
    name it had when its Jacobian came from the variational equations; every
    map is now plain."""

    @pytest.mark.parametrize("kappa", [1.0, 0.0, -1.0], ids=["sphere", "torus", "hyperbolic"])
    def test_jacobian_matches_finite_differences(self, kappa, monkeypatch):
        # the Jacobians Newton steps with: at the start, forward differences of
        # the drift D, close to its central differences; after each step,
        # Broyden's update, which holds the difference of D along that step
        solves = []
        lstsq = np.linalg.lstsq

        def recorded(a, b, rcond=None):
            dx = lstsq(a, b, rcond=rcond)
            solves.append((a.copy(), -b, dx[0].copy()))
            return dx

        monkeypatch.setattr(np.linalg, "lstsq", recorded)
        sys = perturbed_system(kappa)
        seed = latitude_seed(sys)
        orb = find_closed_orbit(sys, seed, tol=1e-11)
        assert orb.newton_iterations == len(solves) >= 2

        surface = sys.surface
        c0 = surface.orbit_space_point(sys, seed.position, seed.velocity)
        basis, ref = surface.orbit_space_chart(c0)

        def drift(x):
            c = surface.orbit_space_step(c0, basis @ x)
            start = surface.zoll_state(sys, c, ref)
            end, _, _ = return_map(sys, start, tol=1e-12)
            back = surface.orbit_space_point(sys, end.position, end.velocity)
            return basis.T @ surface.orbit_space_gap(c, back)

        jac, g, _ = solves[0]
        assert np.max(np.abs(g - drift(np.zeros(2)))) < 1e-9
        h = 1e-4
        central = np.column_stack([(drift(h * e) - drift(-h * e)) / (2 * h)
                                   for e in np.eye(2)])
        assert np.max(np.abs(central)) > 1e-3
        assert np.max(np.abs(jac - central)) < 1e-2 * np.max(np.abs(central))
        for (jac, g, dx), (jac_next, g_next, _) in zip(solves, solves[1:]):
            # the step taken is the solve's, shrunk by the line search
            secant = [np.max(np.abs(jac_next @ (dx * orbits_mod.NEWTON_DAMPING ** k)
                                    - (g_next - g))) for k in range(9)]
            assert min(secant) < 1e-12 * max(1.0, np.max(np.abs(jac_next)))

    def test_tangents_are_corrected_for_the_return_time(self, monkeypatch):
        # differences of the return map to the seed's section move its state
        # along the section, grad sigma . D = 0, because each start returns
        # at its own time; the flow for the seed's return time moves them
        # across it
        sys = perturbed_system(1.0)
        seed = latitude_seed(sys)
        normal, origin = orbits_mod._section(sys, seed)
        monkeypatch.setattr(orbits_mod, "_section", lambda sys, state: (normal, origin))
        st, t_ret, _ = return_map(sys, seed)
        D0 = np.random.default_rng(2).normal(size=(6, 2))
        h = 1e-5
        for col in D0.T:
            ends, fixed = [], []
            for sign in (1.0, -1.0):
                start = tangent_state(sys, seed.position + sign * h * col[:3],
                                      seed.velocity + sign * h * col[3:])
                end, t_end, _ = return_map(sys, start)
                assert state_distance(sys, end, st) < 1e-3
                assert t_end == pytest.approx(t_ret, abs=1e-3)
                ends.append(end.position)
                fixed.append(flow(sys, start, t_ret).state(-1).position)
            D = (ends[0] - ends[1]) / (2 * h)
            across = (fixed[0] - fixed[1]) / (2 * h)
            assert np.linalg.norm(D) > 1e-2
            assert abs(normal @ D) < 1e-9
            assert abs(normal @ across) > 1e-3

    @pytest.mark.parametrize("kappa,s", [(1.0, 1.0), (0.0, 1.0), (-1.0, 2.0)])
    def test_zoll_seed_costs_one_return_map(self, kappa, s, monkeypatch):
        calls = counting_return_maps(monkeypatch)
        sys = make_model(kappa, s)
        orb = find_closed_orbit(sys, latitude_seed(sys), tol=1e-9)
        assert orb.newton_iterations == 0
        assert len(calls) == 1

    def test_perturbed_sphere_census_return_maps(self, monkeypatch):
        # per seed: one map at the start, two for the forward-difference
        # Jacobian and one per Newton step (no trial is shrunk here); Newton
        # runs only from the two critical points of the orbit-space average,
        # and no map samples the drift
        calls = counting_return_maps(monkeypatch)
        found = enumerate_orbits(perturbed_sphere(0.05), grid_density=3, tol=1e-9)
        assert len(found) == found.seeds_attempted == 2
        steps = sum(orb.newton_iterations for orb in found)
        assert all(orb.newton_iterations > 0 for orb in found)
        assert len(calls) == 3 * found.seeds_attempted + steps
        assert sum(calls) <= 12

    def test_jacobian_maps_run_at_the_quotient_s_tolerance(self, monkeypatch):
        # the census-perturbed-torus census: a forward difference divides a
        # map's error by DRIFT_FD_STEP, so the two maps of each first Jacobian
        # run at ivp_tol / DRIFT_FD_STEP; every orbit is sampled from a map
        # at ivp_tol
        maps, built = [], []
        plain_map, plain_build = orbits_mod.return_map, orbits_mod._build_orbit

        def recorded(*args, **kw):
            result = plain_map(*args, **kw)
            maps.extend((kw["tol"], r[2]) for r in map_results(args, kw, result))
            return result

        def build(sys, center, period, path, *args, **kw):
            built.append(path)
            return plain_build(sys, center, period, path, *args, **kw)

        monkeypatch.setattr(orbits_mod, "return_map", recorded)
        monkeypatch.setattr(orbits_mod, "_build_orbit", build)
        found = enumerate_orbits(perturbed_system(0.0), grid_density=4, tol=1e-9)
        ivp_tol = orbits_mod._map_tol(1e-9)
        jac_tol = ivp_tol / orbits_mod.DRIFT_FD_STEP
        assert sorted(tol for tol, _ in maps) == [ivp_tol] * 8 + [jac_tol] * 4
        assert len(found) == 2 and len(built) >= len(found)
        tol_of = {id(path): tol for tol, path in maps}
        assert all(tol_of[id(path)] == ivp_tol for path in built)

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
        found = enumerate_orbits(perturbed_system(kappa), grid_density=2, tol=1e-9)
        assert sum(orb.newton_iterations for orb in found) > 0      # Newton ran
        assert counts["closure"] == counts["nfev"] > 0


def refuse_flow(monkeypatch):
    """Make every call of dynamics.flow fail, under both names it has."""
    def refused(*args, **kw):
        raise AssertionError("flow called")
    for mod in (orbits_mod, dynamics_mod):
        monkeypatch.setattr(mod, "flow", refused)


def recording_maps(monkeypatch):
    """The (state, return time) of each map of orbits.return_map, in order."""
    maps = []
    plain = orbits_mod.return_map

    def recorded(*args, **kw):
        result = plain(*args, **kw)
        maps.extend(r[:2] for r in map_results(args, kw, result))
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
        maps = recording_maps(monkeypatch)
        sys = perturbed_system(kappa)
        orb = find_closed_orbit(sys, latitude_seed(sys), tol=1e-9)
        assert orb.newton_iterations > 0
        # the seed's map, the two of the first Jacobian, one per step
        assert len(maps) == orb.newton_iterations + 3
        state, t_ret = maps[-1]
        # the orbit's last sample is the map's end up to the projection in
        # tangent_state: 9.3e-12 on the sphere
        assert state_distance(sys, orb.state(-1), state) < orbits_mod._map_tol(1e-9) / 10
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
        for fn in (enumerate_orbits, find_closed_orbit):
            assert inspect.signature(fn).parameters["tol"].default == cfg.tol_orbit
        assert inspect.signature(find_closed_orbit).parameters["max_iter"].default == \
            orbits_mod.MAX_ITER

    @pytest.mark.parametrize("kappa,s", [(1.0, 1.0), (0.0, 1.0), (-1.0, 2.0)])
    def test_zoll_family_one_period(self, kappa, s, monkeypatch):
        # every drift vertex closes, and their return times agree: the census
        # is the whole orbit space, one orbit, vertex 0's
        sys = make_model(kappa, s)
        times = recording_drift_return_times(monkeypatch)
        found = enumerate_orbits(sys, grid_density=2, tol=1e-9)
        assert len(found) == found.seeds_attempted == 1
        assert found.closed_vertices == len(times[0]) == {1.0: 12, 0.0: 16, -1.0: 9}[kappa]
        assert max(times[0]) - min(times[0]) < 1e-8
        assert found[0].period == times[0][0] and found[0].seed_id == "vertex_0"

    def test_a_vertex_off_the_common_period_runs_every_seed(self, monkeypatch):
        # one drift sample's return time 5 tol short of the others': every
        # vertex still closes, but not with one period, so every vertex is a
        # seed, as on a census of isolated zeros
        plain = orbits_mod.return_map

        def shifted(sys, state, *args, **kw):
            out = plain(sys, state, *args, **kw)
            if isinstance(state, list):
                end, t_ret, path = out[5]
                out[5] = end, t_ret - 5e-9, path
            return out

        monkeypatch.setattr(orbits_mod, "return_map", shifted)
        sys = make_model(1.0, 1.0)
        found = enumerate_orbits(sys, grid_density=2, tol=1e-9)
        assert found.seeds_attempted == found.closed_vertices == len(found) == 12
        assert sorted(o.seed_id for o in found) == sorted(f"vertex_{v}" for v in range(12))

    def test_perturbed_sphere_two_orbits(self):
        sysp = perturbed_sphere(0.05)
        found = enumerate_orbits(sysp, grid_density=2, tol=1e-9)
        assert len(found) >= 2
        lmags = [magnetic_length(sysp, orb) for orb in found]
        assert lmags == sorted(lmags)

    def test_census_carries_lengths_and_seed_count(self):
        # the lengths that order the census are the ones reports print, so
        # no caller has to compute them a second time
        # the Zoll torus closes at every vertex of the drift's 4 x 4 tiling,
        # with one period: one seed and one orbit for its whole orbit space
        sys = make_model(0.0, 1.0)
        found = enumerate_orbits(sys, grid_density=2, tol=1e-9)
        assert found.closed_vertices == len(sys.surface.orbit_space_tiling(sys, True)[0]) == 16
        assert found.seeds_attempted == len(found) == 1
        assert found.magnetic_lengths == [magnetic_length(sys, orb) for orb in found]

    def test_order_ignores_rounding_noise_in_the_lengths(self, monkeypatch):
        # on the blind torus (s = 1/j_{0,1}) two translates of one orbit share
        # l = 7.54584081481, 2e-12 apart, and come first in seed order.  A
        # jitter of 1e-14 per seed, falling along the seeds, leaves them
        # sorted; one of 2e-11 reverses a sort by the raw length and one by
        # the length as reports print it (12 digits), and lengths within tol
        # of each other keep the seed order.  At 2e-9 per seed the pair lies
        # more than tol apart and sorts, and the other two orbits keep their
        # places.
        from magsys_lab import functionals
        sys = conformal_perturb(make_model(0.0, 1.0 / 2.404825557695773), "torus_cos_x", 0.05,
                                normalize=True)
        plain = enumerate_orbits(sys, grid_density=2, tol=1e-9)
        grid = orbits_mod._drift_brackets(sys, 1e-9)[0]
        in_seed_order = [o.seed_id for o in plain]
        assert len(plain) == 4 and plain.magnetic_lengths[0] == pytest.approx(7.54584081481,
                                                                              abs=1e-9)
        assert 0.0 < plain.magnetic_lengths[1] - plain.magnetic_lengths[0] < 1e-11
        assert in_seed_order[:2] == [sid for sid in grid if sid in set(in_seed_order[:2])]
        pair_reversed = in_seed_order[1::-1] + in_seed_order[2:]
        exact = functionals.magnetic_length
        for step, expected, in_order in ((1e-14, in_seed_order, True),
                                         (2e-11, in_seed_order, False),
                                         (2e-9, pair_reversed, True)):
            calls = []

            def jittered(sys, orb):
                calls.append(orb.seed_id)
                return exact(sys, orb) - step * len(calls)

            monkeypatch.setattr(functionals, "magnetic_length", jittered)
            found = enumerate_orbits(sys, grid_density=2, tol=1e-9)
            assert [o.seed_id for o in found] == expected, step
            assert (found.magnetic_lengths == sorted(found.magnetic_lengths)) == in_order, step

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
        assert loop_distance(sys.surface, orb1.positions(), orb2.positions()) < 1e-4
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
            dists.append(loop_distance(sysp.surface, orb.positions(),
                                       ref_orbit.positions()))
        for a, b in zip(dists, dists[1:]):
            assert a / b == pytest.approx(2.0, rel=0.3)


def kernel_system(name):
    """A system with a conformal exponent and, but for one, a 1-form."""
    if name == "sphere_reversed":      # kappa 4 and s < 0: the flow turns the other way
        return conformal_perturb(make_model(4.0, -0.7), "sphere_harmonic_z", 0.05,
                                 normalize=False)
    u = {"sphere": ScalarField("sphere_harmonic_axis", (1.0, 0.3, -0.5, 0.8)),
         "torus": ScalarField("torus_cos_y"),
         "hyperbolic": ScalarField("hyperbolic_bump", (1.0, 0.5))}[name]
    eta = {"sphere": ("sphere_eta_axial", (0.5,)), "torus": ("torus_eta_sin_x", (1.0,)),
           "hyperbolic": ("hyperbolic_eta_radial", (1.0,))}[name]
    sys = conformal_perturb(make_model(*{"sphere": (1.0, 1.0), "torus": (0.0, 1.0),
                                         "hyperbolic": (-1.0, 2.0)}[name]), u, 0.05, normalize=True)
    return with_sigma_perturbation(sys, OneForm(*eta))


KERNEL_POINTS = {"sphere": [(0.6, 0.0, 0.8), (0.1, -0.2, 0.97), (-0.5, 0.7, -0.2)],
                 "torus": [(0.5, 1.0), (3.0, 5.5), (6.1, 0.2)],
                 "hyperbolic": [(0.0, 0.0), (0.7, 1.2), (0.95, -2.0)]}
KERNEL_POINTS["sphere_reversed"] = KERNEL_POINTS["sphere"]
# abar at the three points above, and abar, its gradient and H_xx, H_xy, H_yy
# of ``_taylor`` at the second, recorded before the circles were computed in
# component rows and ``_taylor`` took each row's basis once
KERNEL_RECORD = {
    "sphere": ((1.271599563253627, 1.2836757890366426, -2.089864524100592),
               (1.2836757890366426, -1.3585797865556248, -0.8198015621319055,
                -1.357699086490527, 5.551115123125783e-09, -1.357699130899448)),
    "sphere_reversed": ((0.7836489469978994, 0.9545273735499198, -0.2218269263793292),
                        (0.9545273735499198, 0.1978104329936059, 0.0963775801865463,
                         -0.9545273904620899, 2.7755575615628914e-09, -0.9545273904620899)),
    "torus": ((0.014281439897000276, 5.987466295309241, 1.8364018593391664),
              (5.987466295309241, 0.39018544380375886, 3.392152411421101,
               -2.7372495381428052, 0.0, -3.407198523319721)),
    "hyperbolic": ((-2.7601064063537346, -2.8035245478476054, -2.9794178525578703),
                   (-2.8035245478476054, -0.2937388241441852, -0.7555407714554541,
                    -1.1081517037325739, 0.1283349870817574, -0.8279486873874475)),
}


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

    @pytest.mark.parametrize("name", sorted(KERNEL_RECORD))
    def test_kernels_are_bit_for_bit(self, name):
        sys, c = kernel_system(name), np.array(KERNEL_POINTS[name])
        if c.shape[1] == 3:
            c /= np.linalg.norm(c, axis=1, keepdims=True)
        f, g, h = orbits_mod._taylor(sys, c[1:2])
        assert tuple(orbits_mod.orbit_space_average(sys, c).tolist()) == KERNEL_RECORD[name][0]
        assert (float(f[0]), *g[0].tolist(), *h[0].ravel()[[0, 1, 3]].tolist()) == \
            KERNEL_RECORD[name][1]

    @pytest.mark.parametrize("kappa,fields,windings", [
        (1.0, ("sphere_harmonic_z", ()), [1, 1]),
        (1.0, ("sphere_harmonic_axis", (1.0, 0.3, -0.5, 0.8)), [1, 1]),
        (0.0, ("torus_cos_y", (), "torus_eta_sin_x"), [-1, -1, 1, 1])],
        ids=["sphere_harmonic_z", "sphere_harmonic_axis", "eta_torus"])
    def test_windings_sum_to_the_euler_characteristic(self, kappa, fields, windings):
        # Poincare-Hopf: the indices of the zeros of grad abar sum to chi,
        # 2 on the sphere and 0 on the torus, and each cell that winds holds one
        sys = conformal_perturb(make_model(kappa, 1.0), ScalarField(fields[0], fields[1] or (1.0,)),
                                0.05, normalize=True)
        if len(fields) > 2:
            sys = with_sigma_perturbation(sys, fields[2])
        # (a zero near an edge reverses the gradient along it, and its start
        # is a contour's, as for sphere_harmonic_axis)
        surface = sys.surface
        points, cells, axes = surface.orbit_space_tiling(sys)
        _, comp, _ = orbits_mod._taylor(sys, points, axes)
        turn = orbits_mod._turns(surface, points, cells, (axes @ comp[..., None])[..., 0])
        w = np.rint(turn.sum(axis=1) / (2.0 * math.pi)).astype(int)
        assert sorted(w[w != 0]) == windings
        assert w.sum() == (2 if kappa > 0 else 0)
        ids, _ = orbits_mod.critical_points(sys)
        assert len(ids) == np.count_nonzero(w)

    def test_cells_about_an_unknown_vertex_bracket_nothing(self):
        # a drift sample whose map failed is NaN: the contour of the line
        # x0 = 0 of a cos x field loses the four cells about vertex 0, not its
        # bracket, and the line x0 = pi keeps its own
        sys = make_model(0.0, 1.0)
        points, cells, _ = sys.surface.orbit_space_tiling(sys, drift=True)
        field = np.stack([-np.sin(points[:, 0]), np.zeros(len(points))], axis=-1)
        zero = np.zeros(len(points), dtype=bool)
        assert orbits_mod._brackets(sys.surface, points, cells, field, zero)[0] == [
            "contour_0", "contour_8"]
        field[0] = np.nan
        ids, starts = orbits_mod._brackets(sys.surface, points, cells, field, zero)
        assert ids == ["contour_1", "contour_8"]
        assert np.mod(starts[:, 0] + 1.0, 2.0 * math.pi) - 1.0 == pytest.approx([0.0, math.pi])

    def test_zero_without_a_perturbation(self):
        for sys in (make_model(1.0, 1.0), make_model(0.0, 1.0), make_model(-1.0, 2.0)):
            c, _, _ = sys.surface.orbit_space_tiling(sys)
            assert not np.any(orbits_mod.orbit_space_average(sys, c))
            assert orbits_mod.critical_points(sys) is None

    @pytest.mark.parametrize("kappa,s,field,blind", [
        # at r = 1/s the first zero of J0 every circle averages cos x to zero
        (0.0, 1.0 / 2.404825557695773, "torus_cos_x", True),
        # near-great circles: first order splits the lengths by about 4 pi s
        # eps, less than the second-order terms; below s = 0.025 the drift
        # census finds orbits over equatorial axes, shorter than the south
        # pole's (by 0.0014 at s = 0.01); the test keeps its name from the
        # blind grid that the drift's tiling replaced
        (1.0, 0.01, "sphere_harmonic_z", True),
        (1.0, 0.02, "sphere_harmonic_z", True),
        (1.0, 0.04, "sphere_harmonic_z", False)])
    def test_first_order_blind_systems_take_the_grid(self, kappa, s, field, blind):
        sys = conformal_perturb(make_model(kappa, s), field, 0.05, normalize=True)
        assert (orbits_mod.critical_points(sys) is None) == blind

    @pytest.mark.parametrize("grid_density", [2, 3, 4])
    def test_torus_critical_circles_keep_one_representative(self, grid_density):
        # abar ~ cos x0 is critical on the circles x0 = 0 and x0 = pi: one
        # contour each on the tiling, which no grid density changes (at
        # density 2 every start of the old blind grid lay on the level abar = 0)
        sys = perturbed_system(0.0)
        ids, points = orbits_mod.critical_points(sys)
        assert ids == ["contour_0", "contour_72"]
        x0 = np.mod(points[:, 0] + 1.0, 2.0 * math.pi) - 1.0
        assert x0 == pytest.approx([0.0, math.pi], abs=1e-6)
        found = enumerate_orbits(sys, grid_density=grid_density)
        assert sorted(o.seed_id for o in found) == ids

    def test_sphere_critical_points_follow_the_axis(self):
        axis = np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0)
        sys = conformal_perturb(make_model(1.0, 1.0),
                                ScalarField("sphere_harmonic_axis", (1.0, 1.0, 1.0, 0.0)),
                                0.05, normalize=True)
        ids, points = orbits_mod.critical_points(sys)
        assert len(ids) == 2
        assert np.max(np.abs(np.abs(points @ axis) - 1.0)) < 1e-10
        # the tiling's cell order puts the minimum first
        assert points[1] @ axis > 0 > points[0] @ axis

    def test_hyperbolic_searches_stay_in_the_seeded_disk(self):
        # abar of the bump is radial: a minimum at the origin, the tiling's
        # centre vertex, a critical circle of maxima, one contour, and it
        # falls off outward to the edge of the seeded disk
        sys = perturbed_system(-1.0)
        ids, points = orbits_mod.critical_points(sys)
        assert ids == ["vertex_0", "contour_32"]
        assert np.all(sys.surface.in_searched_region(sys, points))
        assert points[0] == pytest.approx([0.0, 0.0])

    def test_no_critical_point_is_named(self, monkeypatch):
        # on the first-order tiling and on the drift's alike; the message
        # counts no starts, as the census has no grid of them
        from magsys_lab import NoOrbitsFound, run_experiment
        monkeypatch.setattr(orbits_mod, "critical_points",
                            lambda sys, tol: ([], np.empty((0, 3))))
        monkeypatch.setattr(orbits_mod, "_drift_brackets",
                            lambda sys, tol: ([], np.empty((0, 3)), []))
        for s in (1.0, 0.01):     # first order sees at s = 1, and is blind at 0.01
            cfg = ExperimentConfig(kappa=1.0, strength=s, perturbation_name="sphere_harmonic_z",
                                   eps=0.05, grid_density=2)
            with pytest.raises(NoOrbitsFound, match=r"^no closed orbits: the orbit-space tiling "
                                                    r"brackets no critical point in the searched "
                                                    r"region$"):
                run_experiment(cfg)


def zoll_orbit(sys, seed_id, c, roll=0, n=512):
    """The Zoll circle over the orbit-space point c as a closed n-segment
    Orbit, its samples rolled by roll nodes (another start phase)."""
    q, v = sys.surface.zoll_circle(sys, np.asarray(c, dtype=float)[None], n)
    ring = np.roll(np.hstack([q[0], v[0]]), -roll, axis=0)
    return Orbit(np.vstack([ring, ring[:1]]), np.linspace(0.0, reference_period(sys), n + 1),
                 0.0, residual=0.0, seed_id=seed_id)


def offset(sys, c, share):
    """The orbit-space point share * DEDUP_TOL from c along the first axis of
    its local coordinates."""
    c = np.asarray(c, dtype=float)
    basis, _ = sys.surface.orbit_space_chart(c)
    return sys.surface.orbit_space_step(c, basis @ (share * orbits_mod.DEDUP_TOL, 0.0))


def keep_all_pairs(sys, cases, tol=orbits_mod.DEDUP_TOL):
    """Reference deduplication: each case's known circle centre against
    every kept one."""
    kept = []
    for sid, c, _ in cases:
        if not any(np.linalg.norm(sys.surface.orbit_space_gap(k, c)) < tol for _, k in kept):
            kept.append((sid, np.asarray(c, dtype=float)))
    return [sid for sid, _ in kept]


def decisions(sys, cases):
    """(dedup's kept ids, the shared merge's on the centres alone, the
    reference's) for (id, centre, roll) cases: the merge decides for both
    ``deduplicate`` and ``critical_points``."""
    found = [zoll_orbit(sys, sid, c, roll) for sid, c, roll in cases]
    merged = orbits_mod._first_kept(sys.surface, [np.asarray(c, dtype=float) for _, c, _ in cases])
    return ([o.seed_id for o in orbits_mod.deduplicate(sys, found)],
            [cases[j][0] for j in merged], keep_all_pairs(sys, cases))


class TestDeduplicate:
    # each chart's orbits: a circle, a copy started at another phase, one
    # offset by 0.5 DEDUP_TOL (merged), b offset by 1.5 DEDUP_TOL (kept),
    # one 1.6 DEDUP_TOL from a and 0.1 from b (merged into b), and a circle
    # far away with its own phase copy
    def test_sphere_decisions_match_all_pairs(self):
        sys = make_model(1.0, 1.0)
        a = np.array([0.3, -0.5, 0.8]) / np.linalg.norm([0.3, -0.5, 0.8])
        far = np.array([1.0, 0.0, 0.0])
        cases = [("a", a, 0), ("a_phase", a, 137), ("a_near", offset(sys, a, 0.5), 300),
                 ("b", offset(sys, a, 1.5), 0), ("c", far, 20), ("c_phase", far, 411),
                 ("b_near", offset(sys, a, 1.6), 77)]
        assert decisions(sys, cases) == (["a", "b", "c"],) * 3

    def test_torus_decisions_match_all_pairs(self):
        # copies on the universal cover, whole periods away, are one orbit
        sys = make_model(0.0, 1.0)
        p1, p2 = sys.surface.box
        a, far = np.array([1.0, 1.0]), np.array([3.0, 2.0])
        cases = [("a", a, 0), ("a_period", a + (p1, 0.0), 200),
                 ("a_near", offset(sys, a, 0.5) - (0.0, p2), 330),
                 ("b", offset(sys, a, 1.5), 0), ("c", far, 100),
                 ("c_period", far + (p1, p2), 450), ("b_near", offset(sys, a, 1.6), 5)]
        assert decisions(sys, cases) == (["a", "b", "c"],) * 3

    def test_hyperbolic_decisions_match_all_pairs(self):
        sys = make_model(-1.0, 2.0)
        a, far = np.array([1.2, 0.7]), np.array([0.9, -2.0])
        cases = [("a", a, 0), ("a_phase", a, 256), ("a_near", offset(sys, a, 0.5), 31),
                 ("b", offset(sys, a, 1.5), 0), ("c", far, 60), ("c_phase", far, 389),
                 ("b_near", offset(sys, a, 1.6), 500)]
        assert decisions(sys, cases) == (["a", "b", "c"],) * 3

    @pytest.mark.parametrize("kappa", [1.0, 0.0, -1.0], ids=["sphere", "torus", "hyperbolic"])
    def test_perturbed_orbit_started_elsewhere_is_a_duplicate(self, kappa):
        # off the Zoll family orbit_space_point moves along the orbit (by
        # 7e-4 to 3e-2 here, beyond DEDUP_TOL), but its time mean does not
        # depend on where the samples start
        sys = perturbed_system(kappa)
        c = {1.0: (0.6, 0.0, 0.8), 0.0: (0.5, 1.0), -1.0: (0.0, 0.0)}[kappa]
        orb = find_closed_orbit(sys, sys.surface.zoll_state(sys, np.array(c)), tol=1e-11,
                                seed_id="a")
        found = [orb]
        for t0 in (0.4, 1.7, 3.3):
            tr = flow(sys, flow(sys, orb.state(0), t0, tol=1e-12).state(-1), orb.period,
                      tol=1e-12, n_samples=len(orb.times))
            found.append(Orbit(tr.states, tr.times, tr.speed_drift, residual=0.0,
                               seed_id=f"a_from_{t0}"))
        assert [o.seed_id for o in orbits_mod.deduplicate(sys, found)] == ["a"]
