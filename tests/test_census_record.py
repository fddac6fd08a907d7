"""The whole pipeline (``run_experiment``) on every Baseline config of the
ROADMAP that seeds Newton at the critical points of the orbit-space average:
orbit count, the three verdicts, and l_min and l_max within tol_orbit of the
values recorded when Newton still ran on section coordinates with the
variational Jacobian.  A change of the Newton solver that keeps this file
green changed no census.

Where first order is blind the census brackets the zeros of the drift on a
coarse tiling.  Four such configs pin the deduplication: the seeds whose
orbits reach ``orbits.deduplicate``, the seeds it keeps and the report's
seed order.  One seed per line of zeros, so none is merged.  The rows of
the drift census (the blind torus at two eps, ``sphere_harmonic_z`` at
s = 0.01, the two 1-form configs and the unperturbed sphere) pin its
orbits, lengths and return maps; on the unperturbed sphere every vertex
closes, and the census is one orbit.
"""

import time

import numpy as np
import pytest

from magsys_lab import ExperimentConfig, NoOrbitsFound, orbits as orbits_mod, run_experiment

from instruments import counting_return_maps, recording_drift_return_times

TOL_ORBIT = ExperimentConfig.tol_orbit
BUMP = dict(kappa=-1.0, perturbation_name="hyperbolic_bump", perturbation_coeffs=(1.0, 0.5),
            eps=0.05)
TORUS_COS_X = dict(kappa=0.0, strength=1.0, perturbation_name="torus_cos_x")
TORUS_ETA = dict(kappa=0.0, strength=1.0, perturbation_name="torus_cos_y",
                 eta_name="torus_eta_sin_x", eps=0.05)
SPHERE_Z = dict(kappa=1.0, strength=1.0, perturbation_name="sphere_harmonic_z")

# name: (config, orbit count, verdicts, l_min, l_max)
RECORD = {
    # the census no longer reads the grid: the gd 2 record's two lines
    "torus_cos_x_gd1": (dict(TORUS_COS_X, eps=0.05, grid_density=1), 2, ["PASS"] * 3,
                        2.8989133495541495, 3.3787699424989186),
    "torus_cos_x_gd2": (dict(TORUS_COS_X, eps=0.05, grid_density=2), 2, ["PASS"] * 3,
                        2.8989133495541495, 3.3787699424989186),
    "torus_cos_x_gd3": (dict(TORUS_COS_X, eps=0.05, grid_density=3), 2, ["PASS"] * 3,
                        2.8989133495541686, 3.3787699424988014),
    "torus_cos_x_gd4": (dict(TORUS_COS_X, eps=0.05, grid_density=4), 2, ["PASS"] * 3,
                        2.8989133495541672, 3.3787699424993964),
    # with its two saddles, as at gd 3 and 4
    "torus_eta_gd2": (dict(TORUS_ETA, grid_density=2), 4, ["PASS"] * 3,
                      2.770128707855925, 3.5251889888196732),
    "torus_eta_gd3": (dict(TORUS_ETA, grid_density=3), 4, ["PASS"] * 3,
                      2.770128707856072, 3.5251889888196537),
    "torus_eta_gd4": (dict(TORUS_ETA, grid_density=4), 4, ["PASS"] * 3,
                      2.770128707856073, 3.525188988819663),
    "hyperbolic_bump_gd2": (dict(BUMP, strength=2.0, grid_density=2), 2, ["FAIL"] * 3,
                            1.7363756216759263, 1.7372459945507983),
    "hyperbolic_bump_gd3": (dict(BUMP, strength=2.0, grid_density=3), 2, ["FAIL"] * 3,
                            1.7363756216759263, 1.737245994550758),
    "hyperbolic_bump_gd4": (dict(BUMP, strength=2.0, grid_density=4), 2, ["FAIL"] * 3,
                            1.7363756216759263, 1.737245994550758),
    "sphere_harmonic_z_eps0.8": (dict(SPHERE_Z, eps=0.8, grid_density=3), 1, ["FAIL"] * 3,
                                 4.647797854188015, 4.647797854188015),
    "torus_cos_x_eps0.4": (dict(TORUS_COS_X, eps=0.4, grid_density=3), 1, ["FAIL"] * 3,
                           4.733519200220852, 4.733519200220852),
}


@pytest.mark.parametrize("name", sorted(RECORD))
def test_census_is_the_recorded_one(name):
    cfg, count, verdicts, l_min, l_max = RECORD[name]
    rep = run_experiment(ExperimentConfig(**cfg))
    assert rep.orbit_count == count
    assert rep.closed_vertices == 0               # first order seeds it: no drift sample
    assert rep.all_verdicts() == verdicts
    assert abs(rep.l_min - l_min) < TOL_ORBIT
    assert abs(rep.l_max - l_max) < TOL_ORBIT


@pytest.mark.parametrize("grid_density", [2, 3])
def test_horocycle_threshold_keeps_its_error(grid_density):
    # s^2 + kappa = 2e-4: every seed fails, and the run names the regime
    cfg = ExperimentConfig(strength=1.0001, grid_density=grid_density, **BUMP)
    with pytest.raises(NoOrbitsFound, match=r"no closed orbits from \d+ seeds; eps may exceed"):
        run_experiment(cfg)


def test_horocycle_threshold_refuses_its_seeds_on_the_drift_maps(monkeypatch):
    # every one of the 9 drift samples closes, not with one period, so each is
    # a seed whose first map is its sample's; the period window refuses each
    # on that map, before a seed without a path would map again to sample it
    maps = counting_return_maps(monkeypatch)
    cfg = ExperimentConfig(strength=1.0001, grid_density=2, **BUMP)
    with pytest.raises(NoOrbitsFound, match=r"no closed orbits from 9 seeds; eps may exceed"):
        run_experiment(cfg)
    assert len(maps) == 9


BLIND_TORUS = dict(kappa=0.0, strength=1.0 / 2.404825557695773, perturbation_name="torus_cos_x",
                   eps=0.05)
SPHERE_Z_SLOW = dict(SPHERE_Z, strength=0.01, eps=0.05)
TORUS_LINES = ["contour_0", "contour_4", "contour_8", "contour_12"]
SPHERE_Z_LINES = ["contour_0", "contour_7", "contour_11"]

# name: (config, seeds reaching dedup, seeds it keeps, report seed order); the
# grid density changes none of them
MERGES = {
    "sphere_harmonic_z_s0.01_gd3": (
        dict(SPHERE_Z_SLOW, grid_density=3), SPHERE_Z_LINES, SPHERE_Z_LINES,
        ["contour_0", "contour_11", "contour_7"]),
    "sphere_harmonic_z_s0.01_gd4": (
        dict(SPHERE_Z_SLOW, grid_density=4), SPHERE_Z_LINES, SPHERE_Z_LINES,
        ["contour_0", "contour_11", "contour_7"]),
    "blind_torus_gd2": (
        dict(BLIND_TORUS, grid_density=2), TORUS_LINES, TORUS_LINES,
        ["contour_4", "contour_12", "contour_0", "contour_8"]),
    "blind_torus_gd3": (
        dict(BLIND_TORUS, grid_density=3), TORUS_LINES, TORUS_LINES,
        ["contour_4", "contour_12", "contour_0", "contour_8"]),
}


@pytest.mark.parametrize("name", sorted(MERGES))
def test_dedup_keeps_the_recorded_seeds(name, monkeypatch):
    cfg, dedup_in, dedup_out, order = MERGES[name]
    calls = []
    dedup = orbits_mod.deduplicate

    def recorded(sys, orbits):
        unique = dedup(sys, orbits)
        calls.append(([o.seed_id for o in orbits], [o.seed_id for o in unique]))
        return unique

    monkeypatch.setattr(orbits_mod, "deduplicate", recorded)
    rep = run_experiment(ExperimentConfig(**cfg))
    assert calls == [(dedup_in, dedup_out)]
    assert rep.seed_ids == order


def test_blind_torus_keeps_the_iterates_that_travel():
    # the Zoll circles have radius 1/s = 2.4 here; no start travels far, as
    # each lies on the edge of a drift cell that its line crosses
    rep = run_experiment(ExperimentConfig(**BLIND_TORUS, grid_density=4))
    assert rep.all_verdicts() == ["PASS"] * 3
    assert abs(rep.l_min - 7.54584081481) < TOL_ORBIT


# name: (config, lengths, verdicts, most return maps), each length within
# tol_orbit; the smallest and largest are, within tol_orbit, the l_min and
# l_max that Newton from every start of a blind grid found
DRIFT_RECORD = {
    # one orbit on each of the four zero lines x0 = 1.59, 3.24, 4.69, 6.20;
    # the blind grid found 1-2 of them in 24-276 maps
    "blind_torus": (dict(BLIND_TORUS, grid_density=3),
                    [7.545840814809979, 7.545840814811843, 7.562946907121008,
                     7.565426877539224], ["PASS"] * 3, 48),
    # one orbit per length, where the blind grid kept 5 or 10 on 3 lengths
    "sphere_harmonic_z_s0.01": (dict(SPHERE_Z_SLOW, grid_density=3),
                                [6.218731342341054, 6.220142166367487, 6.22640910435431],
                                ["PASS"] * 3, 32),
    "sphere_eta_axial": (dict(SPHERE_Z, strength=1.0, eps=0.05, eta_name="sphere_eta_axial",
                              grid_density=3),
                         [2.6002677973310098, 2.6069495052309115, 2.607471399516032],
                         ["PASS"] * 3, 30),
    "hyperbolic_eta_radial": (dict(BUMP, strength=2.0, eta_name="hyperbolic_eta_radial",
                                   grid_density=3),
                              [1.5452838746354534, 1.5733483224834988],
                              ["PASS", "FAIL", "PASS"], 24),
}


@pytest.mark.parametrize("name", sorted(DRIFT_RECORD))
def test_drift_census_is_the_recorded_one(name, monkeypatch):
    cfg, lengths, verdicts, most_maps = DRIFT_RECORD[name]
    calls = counting_return_maps(monkeypatch)
    t0 = time.perf_counter()
    rep = run_experiment(ExperimentConfig(**cfg))
    elapsed = time.perf_counter() - t0
    assert rep.magnetic_lengths == pytest.approx(lengths, abs=TOL_ORBIT)
    assert rep.all_verdicts() == verdicts
    assert rep.seeds_attempted == len(lengths)
    assert len(calls) <= most_maps
    if name == "blind_torus":
        # 0.2 s on a 2-vCPU Xeon host, where the blind grid took 2.2 s at
        # grid density 4
        assert elapsed < 2.0


@pytest.mark.parametrize("grid_density", [2, 4, 5, 6])
def test_blind_torus_passes_at_every_grid_density(grid_density):
    # grid density 2 gave a two-sided FAIL on the blind grid, which found one line
    rep = run_experiment(ExperimentConfig(**BLIND_TORUS, grid_density=grid_density))
    assert rep.orbit_count == 4
    assert rep.all_verdicts() == ["PASS"] * 3
    assert [rep.l_min, rep.l_max] == pytest.approx([7.54584081481, 7.56542687754], abs=1e-9)


def test_drift_census_reads_neither_the_grid_nor_the_seed():
    # every grid density from 1 to 6 and every rng_seed from 0 to 3: the
    # same orbits bit for bit, on both closed charts
    for cfg in (BLIND_TORUS, SPHERE_Z_SLOW):
        reps = [run_experiment(ExperimentConfig(**cfg, grid_density=gd, rng_seed=gd % 4))
                for gd in range(1, 7)]
        for rep in reps:
            assert rep.seed_ids == reps[0].seed_ids
            assert rep.magnetic_lengths == reps[0].magnetic_lengths


def test_halving_eps_quarters_the_blind_torus_gap():
    # l_min - pi a^2(1) is second order where first order is blind
    gaps = [run_experiment(ExperimentConfig(**dict(BLIND_TORUS, eps=eps), grid_density=3))
            for eps in (0.05, 0.025)]
    gaps = [rep.l_min - rep.reference for rep in gaps]
    assert gaps[0] == pytest.approx(-9.1415e-3, rel=1e-3) and gaps[1] < 0.0
    assert gaps[0] / gaps[1] == pytest.approx(4.0, rel=0.1)


def test_unperturbed_sphere_closes_every_drift_vertex(monkeypatch):
    # the 12 vertices of the icosahedron each close by their one drift
    # sample, with one return time: the census is the whole orbit space, one
    # seed at vertex 0, which Newton closes with its sample as its first map
    times = recording_drift_return_times(monkeypatch)
    calls = counting_return_maps(monkeypatch)
    rep = run_experiment(ExperimentConfig(kappa=1.0, strength=1.0, grid_density=3))
    assert rep.seed_ids == ["vertex_0"] and rep.orbit_count == rep.seeds_attempted == 1
    assert rep.closed_vertices == len(times[0]) == 12 and len(times) == 1
    assert np.ptp(times[0]) < 1e-8 and rep.periods == [times[0][0]]
    assert len(calls) == 12
    assert np.max(np.abs(np.array(rep.magnetic_lengths) - rep.reference)) < TOL_ORBIT
    assert rep.zoll_flag and rep.all_verdicts() == ["PASS"] * 3
