import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import brentq

from magsys_lab import (ExperimentConfig, NoOrbitsFound, ValidationError,
                        check_two_sided, identity_constant, make_surface,
                        riemannian_volume, run_experiment, sweep, sweep_table,
                        vol_closed_form)
from magsys_lab import orbits
from magsys_lab.geometry import AREA_TOL
from magsys_lab.syslab import build_system, run_experiment_full
from magsys_lab.zollref import full_coefficient, kahler_leading_constant

from instruments import recording_drift_return_times


def latitude_circle_oracle(eps, s=1.0):
    """Independent prediction of the two surviving magnetic lengths.

    For the axisymmetric conformal factor lam e^{2 eps z} on the unit sphere,
    surviving orbits are latitude circles whose colatitude t solves
    cot t + L'(t) = s e^{-L(t)} with L = eps cos t + ln(sqrt(lam)); their
    magnetic length is 2 pi e^L sin t - 2 pi s (1 - cos t).
    """
    lam = 2 * eps / math.sinh(2 * eps)
    c = 0.5 * math.log(lam)

    def north(t):
        return 1 / math.tan(t) - eps * math.sin(t) \
            - s * math.exp(-(eps * math.cos(t) + c))

    def south(t):
        return 1 / math.tan(t) + eps * math.sin(t) \
            - s * math.exp(-(-eps * math.cos(t) + c))

    out = []
    for eq, sign in ((north, 1.0), (south, -1.0)):
        t = brentq(eq, 0.3, 1.2, xtol=4e-16)
        lam_exp = math.exp(sign * eps * math.cos(t) + c)
        out.append(2 * math.pi * lam_exp * math.sin(t)
                   - s * 2 * math.pi * (1 - math.cos(t)))
    return min(out), max(out)


# (kappa, s) in the Zoll regime, which has s > 0 and s^2 + kappa > 0
REGIME_PAIRS = [(k, s) for k in (1.0, 0.0, -1.0) for s in (0.5, 1.0, 2.0, 3.0)
                if s * s + k > 0]


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("kappa,s", REGIME_PAIRS)
def test_full_coefficient_inverts_the_leading_constant(kappa, s, n):
    # C = 2 pi^{2n} / ((n-1)! K), with K the leading constant of the Kahler
    # Zoll polynomial: C K is the volume identity's constant at every s
    vol_g0 = make_surface(kappa).area()
    coeff = full_coefficient(kappa, s, n, vol_g0)
    lead = kahler_leading_constant(kappa, s, n, vol_g0)
    assert coeff * lead == pytest.approx(identity_constant(n), rel=1e-12)


def zoll_cfg(kappa, strength, **kw):
    kw.setdefault("grid_density", 2)
    return ExperimentConfig(kappa=kappa, strength=strength, **kw)


class TestZollRuns:
    @pytest.mark.parametrize("kappa,s", [(1.0, 1.0), (0.0, 1.0), (-1.0, 2.0)])
    def test_equality_case(self, kappa, s):
        rep = run_experiment(zoll_cfg(kappa, s))
        assert rep.zoll_flag
        assert abs(rep.slack_lower) < 1e-6
        assert abs(rep.slack_upper) < 1e-6
        assert rep.all_verdicts() == ["PASS", "PASS", "PASS"]
        assert max(rep.periods) - min(rep.periods) < 1e-8
        # zoll detection soundness: flag implies reference-period orbits
        t_ref = 2 * math.pi / math.sqrt(s**2 + kappa)
        assert max(abs(p - t_ref) for p in rep.periods) < 1e-6
        assert check_two_sided(rep) == "PASS"

    @pytest.mark.parametrize("grid_density", [2, 3])
    @pytest.mark.parametrize("kappa,s", [(1.0, 1.0), (0.0, 1.0), (-1.0, 2.0)])
    def test_lengths_within_a_tenth_of_the_orbit_tolerance(self, kappa, s, grid_density,
                                                           monkeypatch):
        # every Zoll circle has length ref: the maps' tolerance, a tenth of
        # tol_orbit, keeps the whole pipeline's error below tol_orbit / 10.
        # Every drift vertex closes with one return time, so the census is
        # the whole orbit space, one orbit
        times = recording_drift_return_times(monkeypatch)
        cfg = zoll_cfg(kappa, s, grid_density=grid_density)
        rep = run_experiment(cfg)
        assert rep.orbit_count == 1
        assert rep.closed_vertices == len(times[0]) == {1.0: 12, 0.0: 16, -1.0: 9}[kappa]
        assert max(times[0]) - min(times[0]) < 1e-8
        assert max(abs(ell - rep.reference) for ell in rep.magnetic_lengths) < cfg.tol_orbit / 10


class TestPerturbedRuns:
    def test_two_orbits_match_oracle(self):
        eps = 0.01
        cfg = ExperimentConfig(kappa=1.0, strength=1.0,
                               perturbation_name="sphere_harmonic_z",
                               eps=eps, normalize=True, grid_density=2)
        rep = run_experiment(cfg)
        lo, hi = latitude_circle_oracle(eps)
        assert rep.orbit_count >= 2
        assert rep.l_min == pytest.approx(lo, abs=1e-6)
        assert rep.l_max == pytest.approx(hi, abs=1e-6)
        assert not rep.zoll_flag
        assert rep.slack_lower > 0 and rep.slack_upper > 0
        assert rep.verdict_two_sided == "PASS"
        assert rep.p_at_lmin < 0 < rep.p_at_lmax

    def test_normalised_run_integrates_the_area_once(self, monkeypatch):
        # the normalisation's quadrature fixes lam, so vol_g is vol_g0 by
        # construction and the report takes no second quadrature
        import magsys_lab.geometry as geometry_module
        import magsys_lab.syslab as syslab_module
        calls = []

        def spy(sys, rel_tol=AREA_TOL):
            calls.append(rel_tol)
            return riemannian_volume(sys, rel_tol)

        monkeypatch.setattr(geometry_module, "riemannian_volume", spy)
        monkeypatch.setattr(syslab_module, "riemannian_volume", spy)
        cfg = ExperimentConfig(kappa=1.0, strength=1.0, perturbation_name="sphere_harmonic_z",
                               eps=0.05, normalize=True, grid_density=2)
        rep = run_experiment(cfg)
        assert calls == [AREA_TOL]
        assert rep.vol_g == rep.vol_g0

    @pytest.mark.parametrize("name", ["sphere_eta_axial", "torus_eta_sin_x"])
    def test_eta_alone_keeps_the_area_exactly(self, name):
        # sigma = sigma0 + eps d(eta) leaves the metric g0, so vol_g is vol_g0
        # by construction and no quadrature's rounding may show
        cfg = ExperimentConfig(eps=0.05, grid_density=3, **FIRST_ORDER_CONFIGS[name])
        rep, sys, _ = run_experiment_full(cfg)
        assert vol_closed_form(build_system(cfg)[0], sys) == 0.0
        assert rep.vol_g == rep.vol_g0
        assert rep.full_rhs_affine == 1.0

    def test_two_sided_requires_normalization(self):
        cfg = ExperimentConfig(kappa=1.0, strength=1.0,
                               perturbation_name="sphere_harmonic_z",
                               eps=0.01, normalize=False, grid_density=2)
        rep = run_experiment(cfg)
        assert rep.vol_g != rep.vol_g0
        with pytest.raises(ValidationError, match="area vol_g0"):
            check_two_sided(rep)

    def test_two_sided_accepts_an_eta_only_run(self):
        # sigma0 + eps d(eta) leaves the metric g0: unnormalised, its area is
        # vol_g0 exactly, and the check agrees with the run's own verdict
        cfg = ExperimentConfig(kappa=1.0, strength=1.0, eta_name="sphere_eta_axial", eps=0.05,
                               normalize=False)
        rep = run_experiment(cfg)
        assert rep.vol_g == rep.vol_g0
        assert check_two_sided(rep) == rep.verdict_two_sided == "PASS"

    def test_fail_verdict_is_data(self):
        rep = run_experiment(zoll_cfg(1.0, 1.0))
        broken = replace(rep, l_min=rep.reference + 1.0)
        assert check_two_sided(broken) == "FAIL"


class TestSweep:
    def test_single_zoll_run(self):
        reports = sweep(zoll_cfg(0.0, 1.0), [0.0])
        assert len(reports) == 1
        assert reports[0].zoll_flag

    def test_empty_eps_list(self):
        assert sweep(zoll_cfg(1.0, 1.0), []) == []

    def test_slack_increases_with_eps(self):
        cfg = ExperimentConfig(kappa=1.0, strength=1.0,
                               perturbation_name="sphere_harmonic_z",
                               normalize=True, grid_density=2)
        reports = sweep(cfg, [0.01, 0.02, 0.04])
        slacks = [rep.slack_lower for rep in reports]
        assert slacks[0] < slacks[1] < slacks[2]
        rows = sweep_table(reports)
        assert [row["eps"] for row in rows] == [0.01, 0.02, 0.04]

    def test_errors_collected_not_fatal(self):
        cfg = ExperimentConfig(kappa=1.0, strength=1.0,
                               perturbation_name="sphere_harmonic_z",
                               normalize=True, grid_density=0)
        reports = sweep(cfg, [0.01])
        assert len(reports) == 1
        assert reports[0].error is not None
        assert "NoOrbitsFound" in reports[0].error
        assert reports[0].verdict_reduced == "ERROR"


class TestReproducibility:
    def test_no_orbits_raises(self):
        # the empty grid is named, not "eps may exceed the perturbative regime"
        with pytest.raises(NoOrbitsFound, match=r"^no closed orbits: the seed grid is "
                                                r"empty \(grid_density = 0\)$"):
            run_experiment(zoll_cfg(1.0, 1.0, grid_density=0))

    def test_bit_identical_reports(self):
        cfg = ExperimentConfig(kappa=0.0, strength=1.0, grid_density=2,
                               rng_seed=7)
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        assert a.to_dict() == b.to_dict()

    def test_invalid_config(self):
        with pytest.raises(ValidationError):
            ExperimentConfig(kappa=1.0, strength=1.0, tol_orbit=0.0)
        with pytest.raises(ValidationError):
            ExperimentConfig(kappa=1.0, strength=1.0, eps=-0.1)

    @pytest.mark.parametrize("key,value", [("grid_density", -2), ("rng_seed", -1)])
    def test_search_values_refused(self, key, value):
        with pytest.raises(ValidationError, match=key):
            ExperimentConfig(kappa=1.0, strength=1.0, **{key: value})


# orbit count, verdict and seeds of each run, with the magnetic lengths
# recorded to full precision with Newton on a forward-difference Jacobian
# (step 1e-6, two extra return maps per step) from every seed of the grid,
# which found the torus and hyperbolic orbits more than once (translates and
# rotations of one orbit); the census seeds one representative per critical
# manifold of the orbit-space average, and each of its lengths is one of the
# recorded ones within tol_orbit.  The Zoll hyperbolic model's row was
# recorded with the exact Jacobian from every start of a grid; each of the 9
# vertices of the drift's tiling closes, with one return time, so the census
# is the whole orbit space, seeded at vertex 0 alone, and its length is one
# of the recorded ones.  Only the unperturbed model is Zoll.  The last entry
# of each row is its census's closed drift vertices.
FD_NEWTON_RECORD = {
    "sphere": (dict(kappa=1.0, strength=1.0, perturbation_name="sphere_harmonic_z",
                    eps=0.05, grid_density=3),
               2, "PASS", ["cell_14", "cell_9"],
               [2.4446766734808882, 2.7586394964029424], 0),
    "torus": (dict(kappa=0.0, strength=1.0, perturbation_name="torus_cos_x",
                   eps=0.05, grid_density=4),
              2, "PASS", ["contour_0", "contour_72"],
              [2.8989133495542205, 2.8989133495542214, 2.898913349554222,
               2.8989133495542796, 3.3787699424992415, 3.378769942499278,
               3.3787699424992805, 3.378769942499283], 0),
    "hyperbolic": (dict(kappa=-1.0, strength=2.0, perturbation_name="hyperbolic_bump",
                        perturbation_coeffs=(1.0, 0.5), eps=0.05, grid_density=3),
                   2, "FAIL", ["contour_32", "vertex_0"],
                   [1.736375621675979, 1.7372459945494019, 1.7372459945506056,
                    1.7372459945506975], 0),
    "zoll_hyperbolic": (dict(kappa=-1.0, strength=2.0, grid_density=3),
                        1, "PASS", ["vertex_0"],
                        [1.6835744289140913, 1.6835744289142034, 1.683574428914704,
                         1.6835744289515693, 1.683574428951599, 1.6835744289517414,
                         1.6835744289538663], 9),
}


class TestVariationalNewtonPipeline:
    @pytest.mark.parametrize("name", sorted(FD_NEWTON_RECORD))
    def test_same_census_as_finite_difference_newton(self, name):
        cfg, count, verdict, seeds, lengths, closed = FD_NEWTON_RECORD[name]
        rep = run_experiment(ExperimentConfig(**cfg))
        assert rep.orbit_count == count
        assert rep.closed_vertices == closed
        assert rep.all_verdicts() == [verdict] * 3
        assert rep.zoll_flag is (cfg.get("eps", 0.0) == 0.0)
        # seeds whose lengths agree to ~1e-13 may swap places in the census
        assert sorted(rep.seed_ids) == seeds
        gaps = np.abs(np.array(rep.magnetic_lengths)[:, None] - np.array(lengths)[None, :])
        assert np.max(np.min(gaps, axis=1)) < 1e-9
        assert [rep.l_min, rep.l_max] == pytest.approx([min(lengths), max(lengths)], abs=1e-9)


FIRST_ORDER_CONFIGS = {
    "sphere_harmonic_z": dict(kappa=1.0, strength=1.0, perturbation_name="sphere_harmonic_z"),
    "torus_cos_x": dict(kappa=0.0, strength=1.0, perturbation_name="torus_cos_x"),
    # the flux term of abar, with its sign
    "sphere_eta_axial": dict(kappa=1.0, strength=1.0, eta_name="sphere_eta_axial",
                             eta_coeffs=(0.5,)),
    "torus_eta_sin_x": dict(kappa=0.0, strength=1.0, eta_name="torus_eta_sin_x"),
}


class TestFirstOrderCensus:
    """The census seeded at the critical points of the orbit-space average
    abar, on the whole pipeline."""

    @pytest.mark.parametrize("name", sorted(FIRST_ORDER_CONFIGS))
    def test_halving_eps_quarters_the_first_order_gap(self, name):
        # l = pi a^2(1) + eps abar(c*) + O(eps^2) at the critical points c*
        # of abar: the largest length at its maximum, the smallest at its minimum
        gaps = []
        for eps in (0.025, 0.0125):
            cfg = ExperimentConfig(eps=eps, grid_density=3, **FIRST_ORDER_CONFIGS[name])
            rep, sys, _ = run_experiment_full(cfg)
            ids, points = orbits.critical_points(sys)
            assert sorted(ids) == sorted(rep.seed_ids)
            abar = orbits.orbit_space_average(sys, points)
            gaps.append(np.abs(np.array([rep.l_min, rep.l_max]) - rep.reference
                               - eps * np.array([abar.min(), abar.max()])))
        assert gaps[0] / gaps[1] == pytest.approx([4.0, 4.0], abs=0.5)

    def test_rotated_axis_gives_the_z_axis_census(self):
        base = dict(kappa=1.0, strength=1.0, eps=0.05, grid_density=3)
        z = run_experiment(ExperimentConfig(perturbation_name="sphere_harmonic_z", **base))
        tilted = run_experiment(ExperimentConfig(
            perturbation_name="sphere_harmonic_axis", perturbation_coeffs=(1.0, 1.0, 1.0, 0.0),
            **base))
        assert tilted.orbit_count == z.orbit_count == 2
        assert [tilted.l_min, tilted.l_max] == pytest.approx([z.l_min, z.l_max], abs=1e-9)
        assert tilted.all_verdicts() == z.all_verdicts() == ["PASS"] * 3

    def test_torus_census_does_not_depend_on_the_grid_density(self):
        # grid density 1 too, whose one start lies on the minimum's line
        reps = [run_experiment(ExperimentConfig(kappa=0.0, strength=1.0,
                                                perturbation_name="torus_cos_x",
                                                eps=0.05, grid_density=gd))
                for gd in (1, 2, 3, 4)]
        for rep in reps:
            assert rep.orbit_count == 2
            assert rep.all_verdicts() == ["PASS"] * 3
            assert [rep.l_min, rep.l_max] == pytest.approx(
                [reps[0].l_min, reps[0].l_max], abs=1e-9)

    @staticmethod
    def critical_signs(cfg):
        """The report of cfg and the sign of det H of abar at each of its
        critical points' representatives, which seed its orbits."""
        rep, sys, _ = run_experiment_full(cfg)
        ids, points = orbits.critical_points(sys)
        assert sorted(ids) == sorted(rep.seed_ids)
        _, _, hess = orbits._taylor(sys, points)
        return rep, np.sign(np.linalg.det(hess))

    @pytest.mark.parametrize("sighted", ["sphere", "torus"])
    def test_sighted_census_does_not_read_the_grid(self, sighted):
        # the same Newton starts, so the same orbits bit for bit, at every
        # grid density and rng_seed: no census reads them
        cfg = {"sphere": dict(kappa=1.0, strength=1.0, perturbation_name="sphere_harmonic_z"),
               "torus": dict(kappa=0.0, strength=1.0, perturbation_name="torus_cos_x")}[sighted]
        reps = [run_experiment(ExperimentConfig(eps=0.05, grid_density=gd, rng_seed=seed, **cfg))
                for gd in (1, 2, 3, 4) for seed in (0, 7)]
        for rep in reps:
            assert rep.seed_ids == reps[0].seed_ids and rep.seeds_attempted == 2
            assert rep.magnetic_lengths == reps[0].magnetic_lengths
            assert rep.all_verdicts() == ["PASS"] * 3

    @pytest.mark.parametrize("grid_density", [2, 3, 4])
    def test_torus_saddles_complete_the_euler_characteristic(self, grid_density):
        # abar = a cos y0 + b sin x0: a maximum, a minimum and two saddles,
        # whose indices sign det H sum to chi(T^2) = 0 (Poincare-Hopf)
        rep, signs = self.critical_signs(ExperimentConfig(
            kappa=0.0, strength=1.0, perturbation_name="torus_cos_y",
            eta_name="torus_eta_sin_x", eps=0.05, grid_density=grid_density))
        assert rep.orbit_count == 4
        assert sorted(signs) == [-1.0, -1.0, 1.0, 1.0]
        assert rep.all_verdicts() == ["PASS"] * 3

    def test_sphere_extrema_give_the_euler_characteristic(self):
        # a maximum and a minimum: 2 = chi(S^2)
        rep, signs = self.critical_signs(ExperimentConfig(
            kappa=1.0, strength=1.0, perturbation_name="sphere_harmonic_z", eps=0.05,
            grid_density=3))
        assert rep.orbit_count == 2
        assert list(signs) == [1.0, 1.0]

    def test_tilted_sphere_extrema_give_the_euler_characteristic(self):
        # extrema off every coordinate axis, and so off the tiling's vertices
        rep, signs = self.critical_signs(ExperimentConfig(
            kappa=1.0, strength=1.0, perturbation_name="sphere_harmonic_axis",
            perturbation_coeffs=(1.0, 0.3, -0.5, 0.8), eps=0.05, grid_density=3))
        assert rep.orbit_count == 2
        assert list(signs) == [1.0, 1.0]
        assert rep.all_verdicts() == ["PASS"] * 3

    def test_hyperbolic_ring_keeps_one_orbit_at_every_grid_density(self):
        # the bump's abar has a minimum at the origin and a circle of maxima;
        # at density 2 the ring's only points found face each other
        reps = [run_experiment(ExperimentConfig(
            kappa=-1.0, strength=2.0, perturbation_name="hyperbolic_bump",
            perturbation_coeffs=(1.0, 0.5), eps=0.05, grid_density=gd)) for gd in (2, 3, 4)]
        for rep in reps:
            assert rep.seed_ids == ["vertex_0", "contour_32"]
            assert rep.magnetic_lengths == pytest.approx(reps[0].magnetic_lengths,
                                                         abs=ExperimentConfig.tol_orbit)
