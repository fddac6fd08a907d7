"""The whole pipeline (``run_experiment``) on every Baseline config of the
ROADMAP that seeds Newton at the critical points of the orbit-space average
(none of the blind grid): orbit count, the three verdicts, and l_min and
l_max within tol_orbit of the values recorded when Newton still ran on
section coordinates with the variational Jacobian.  A change of the Newton
solver that keeps this file green changed no census.

Four blind-grid configs pin the deduplication on the whole pipeline: the
seeds whose orbits reach ``orbits.deduplicate``, the seeds it keeps and the
report's seed order, recorded when orbits were told apart by the Hausdorff
distance of their position loops.  On the sphere at s = 0.01 most seeds
close on an orbit found from another seed; on the blind torus none does.
"""

import pytest

from magsys_lab import ExperimentConfig, NoOrbitsFound, run_experiment
from magsys_lab import orbits as orbits_mod

TOL_ORBIT = ExperimentConfig.tol_orbit
BUMP = dict(kappa=-1.0, perturbation_name="hyperbolic_bump", perturbation_coeffs=(1.0, 0.5),
            eps=0.05)
TORUS_COS_X = dict(kappa=0.0, strength=1.0, perturbation_name="torus_cos_x")
TORUS_ETA = dict(kappa=0.0, strength=1.0, perturbation_name="torus_cos_y",
                 eta_name="torus_eta_sin_x", eps=0.05)
SPHERE_Z = dict(kappa=1.0, strength=1.0, perturbation_name="sphere_harmonic_z")

# name: (config, orbit count, verdicts, l_min, l_max)
RECORD = {
    "torus_cos_x_gd1": (dict(TORUS_COS_X, eps=0.05, grid_density=1), 1,
                        ["PASS", "FAIL", "PASS"], 2.898913349554156, 2.898913349554156),
    "torus_cos_x_gd2": (dict(TORUS_COS_X, eps=0.05, grid_density=2), 2, ["PASS"] * 3,
                        2.8989133495541495, 3.3787699424989186),
    "torus_cos_x_gd3": (dict(TORUS_COS_X, eps=0.05, grid_density=3), 2, ["PASS"] * 3,
                        2.8989133495541686, 3.3787699424988014),
    "torus_cos_x_gd4": (dict(TORUS_COS_X, eps=0.05, grid_density=4), 2, ["PASS"] * 3,
                        2.8989133495541672, 3.3787699424993964),
    "torus_eta_gd2": (dict(TORUS_ETA, grid_density=2), 2, ["PASS"] * 3,
                      2.770128707855925, 3.5251889888196732),
    "torus_eta_gd3": (dict(TORUS_ETA, grid_density=3), 3, ["PASS"] * 3,
                      2.770128707856072, 3.5251889888196537),
    "torus_eta_gd4": (dict(TORUS_ETA, grid_density=4), 2, ["PASS"] * 3,
                      2.770128707856073, 3.525188988819663),
    "hyperbolic_bump_gd2": (dict(BUMP, strength=2.0, grid_density=2), 3, ["FAIL"] * 3,
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
    assert rep.all_verdicts() == verdicts
    assert abs(rep.l_min - l_min) < TOL_ORBIT
    assert abs(rep.l_max - l_max) < TOL_ORBIT


@pytest.mark.parametrize("grid_density", [2, 3])
def test_horocycle_threshold_keeps_its_error(grid_density):
    # s^2 + kappa = 2e-4: every seed fails, and the run names the regime
    cfg = ExperimentConfig(strength=1.0001, grid_density=grid_density, **BUMP)
    with pytest.raises(NoOrbitsFound, match=r"no closed orbits from \d+ seeds; eps may exceed"):
        run_experiment(cfg)


BLIND_TORUS = dict(kappa=0.0, strength=1.0 / 2.404825557695773, perturbation_name="torus_cos_x",
                   eps=0.05)
SPHERE_Z_SLOW = dict(SPHERE_Z, strength=0.01, eps=0.05)
TORUS_CENTRES = [f"center_{i}_{j}" for i in range(3) for j in range(3)]

# name: (config, seeds reaching dedup, seeds it keeps, report seed order)
MERGES = {
    "sphere_harmonic_z_s0.01_gd3": (
        dict(SPHERE_Z_SLOW, grid_density=3),
        ["axis_north", "axis_south"] + [f"axis_{i}_{j}" for i in range(3) for j in range(3)],
        ["axis_north", "axis_south", "axis_1_0", "axis_1_1", "axis_1_2"],
        ["axis_1_0", "axis_1_1", "axis_1_2", "axis_south", "axis_north"]),
    "sphere_harmonic_z_s0.01_gd4": (
        dict(SPHERE_Z_SLOW, grid_density=4),
        ["axis_north", "axis_south"] + [f"axis_{i}_{j}" for i in range(4) for j in range(4)],
        ["axis_north", "axis_south"] + [f"axis_{i}_{j}" for i in (1, 2) for j in range(4)],
        [f"axis_{i}_{j}" for i in (1, 2) for j in range(4)] + ["axis_south", "axis_north"]),
    "blind_torus_gd2": (
        dict(BLIND_TORUS, grid_density=2),
        ["center_0_0", "center_0_1", "center_1_0", "center_1_1"],
        ["center_0_0", "center_0_1", "center_1_0", "center_1_1"],
        ["center_0_0", "center_0_1", "center_1_0", "center_1_1"]),
    "blind_torus_gd3": (
        dict(BLIND_TORUS, grid_density=3), TORUS_CENTRES, TORUS_CENTRES,
        TORUS_CENTRES[:3] + TORUS_CENTRES[6:] + TORUS_CENTRES[3:6]),
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
