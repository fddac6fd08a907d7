"""Acceptance suite: exact desk-scale reproductions plus property suites.

Each criterion prints one PASS/FAIL line (visible with pytest -s, and in the
failure report otherwise).  Expected constants are the closed-form values

    period   = 2 pi / sqrt(s^2 + kappa)
    flux     = 2 pi s / (sqrt(s^2+kappa) (sqrt(s^2+kappa) + s))
    l_mag    = pi a^2(1) = 2 pi / (sqrt(s^2+kappa) + s)

frozen at double precision.
"""

import json
import math
import time
from dataclasses import replace

import numpy as np

from magsys_lab import (ExperimentConfig, check_two_sided, closed_form_flux,
                        conformal_perturb, enumerate_orbits, find_closed_orbit,
                        flow, flux_through_cap, kahler_bundle_pairings,
                        latitude_seed, length, magnetic_length, make_model,
                        reference_length, reference_period,
                        run_experiment, state_distance, sweep, tangent_state,
                        vol_closed_form, vol_quadrature_oracle,
                        zoll_polynomial_generic, zoll_polynomial_kahler)
from magsys_lab.cli import main
from magsys_lab.geometry import TangentState
from magsys_lab.orbits import deduplicate
from magsys_lab.zollref import CohomologyData

from instruments import random_state

PERIOD_SPHERE = 4.442882938158366        # 2 pi / sqrt(2)
FLUX_SPHERE = 1.8403023690212201         # 2 pi (1 - 1/sqrt(2))
LMAG_SPHERE = 2.602580569137146          # 2 pi (sqrt(2) - 1)
LMAG_HYPERBOLIC = 1.6835744289538657     # 2 pi (2 - sqrt(3))


def _report(num, name, ok):
    print(f"ACCEPTANCE {num} [{name}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {num} ({name}) failed"


class TestAcceptance:
    def test_01_zoll_constants_positive_curvature(self):
        t0 = time.perf_counter()
        sys = make_model(1.0, 1.0)
        orb = find_closed_orbit(sys, latitude_seed(sys), tol=1e-10)
        flux = flux_through_cap(sys, orb)
        lmag = magnetic_length(sys, orb)
        elapsed = time.perf_counter() - t0
        ok = (abs(orb.period - PERIOD_SPHERE) <= 1e-6
              and abs(flux - FLUX_SPHERE) <= 1e-6
              and abs(lmag - LMAG_SPHERE) <= 1e-6
              and abs(lmag - reference_length(1.0, 1.0)) <= 1e-6
              and elapsed < 1.0)
        _report(1, f"kappa>0 constants ({elapsed:.2f}s)", ok)

    def test_02_zoll_constants_flat(self):
        t0 = time.perf_counter()
        sys = make_model(0.0, 1.0)
        orb = find_closed_orbit(sys, latitude_seed(sys), tol=1e-10)
        pos = orb.positions()
        center = pos[:-1].mean(axis=0)
        radii = np.linalg.norm(pos - center, axis=1)
        unit_circle = float(np.max(np.abs(radii - 1.0))) <= 1e-8
        ln = length(sys, orb)
        flux = flux_through_cap(sys, orb)
        lmag = ln - flux
        elapsed = time.perf_counter() - t0
        ok = (unit_circle
              and abs(ln - 2 * math.pi) <= 1e-8
              and abs(flux - math.pi) <= 1e-8
              and abs(lmag - math.pi) <= 1e-7
              and elapsed < 1.0)
        _report(2, f"kappa=0 constants ({elapsed:.2f}s)", ok)

    def test_03_zoll_constants_negative_curvature(self):
        t0 = time.perf_counter()
        sys = make_model(-1.0, 2.0)
        orb = find_closed_orbit(sys, latitude_seed(sys), tol=1e-10)
        flux = flux_through_cap(sys, orb)
        closed = closed_form_flux(-1.0, 2.0)
        lmag = magnetic_length(sys, orb)
        elapsed = time.perf_counter() - t0
        # the sign decision: the boundary integral along the orbit agrees with
        # the closed form, and the magnetic length lands on pi a^2(1)
        ok = (abs(flux - closed) <= 1e-8
              and abs(lmag - LMAG_HYPERBOLIC) <= 1e-6
              and abs(lmag - reference_length(-1.0, 2.0)) <= 1e-6
              and closed > 0
              and elapsed < 5.0)
        _report(3, f"kappa<0 constants + flux sign ({elapsed:.2f}s)", ok)

    def test_04_reference_length_continuity(self):
        ok = all(
            abs(reference_length(kappa, s) - math.pi / s) <= 1e-2
            for s in (1.0, 2.0, 4.0) for kappa in (1e-3, -1e-3))
        _report(4, "kappa->0 continuity of pi a^2(1)", ok)

    def test_05_systolic_equality_case(self):
        ok = True
        for kappa, s in ((1.0, 1.0), (0.0, 1.0), (-1.0, 2.0)):
            cfg = ExperimentConfig(kappa=kappa, strength=s, grid_density=2)
            rep = sweep(cfg, [0.0])[0]
            ok = (ok and rep.zoll_flag and abs(rep.slack_lower) <= 1e-5
                  and abs(rep.slack_upper) <= 1e-5)
        _report(5, "equality case: zero slack and zoll_flag on all models", ok)

    def test_06_systolic_strict_case(self):
        t0 = time.perf_counter()
        ok = True
        slack_at_05 = 0.0
        for eps in (0.01, 0.05):
            cfg = ExperimentConfig(kappa=1.0, strength=1.0,
                                   perturbation_name="sphere_harmonic_z",
                                   eps=eps, normalize=True, grid_density=2)
            rep = run_experiment(cfg)
            ok = (ok and rep.orbit_count >= 2
                  and rep.l_min <= rep.reference + 1e-4
                  and rep.l_max >= rep.reference - 1e-4
                  and check_two_sided(rep) == "PASS")
            if eps == 0.05:
                slack_at_05 = min(rep.slack_lower, rep.slack_upper)
        elapsed = time.perf_counter() - t0
        ok = ok and slack_at_05 > 1e-4 and elapsed < 120.0
        _report(6, f"strict case: two orbits, two-sided bound ({elapsed:.0f}s)", ok)

    def test_07_volume_identity(self):
        t0 = time.perf_counter()
        sys0 = make_model(0.0, 1.0)
        pert = conformal_perturb(sys0, "torus_cos_x", 0.1, normalize=False)
        cf = vol_closed_form(sys0, pert)
        est, se = vol_quadrature_oracle(sys0, pert, samples=1_000_000,
                                        rng_seed=2026)
        norm = conformal_perturb(sys0, "torus_cos_x", 0.1, normalize=True)
        est0, se0 = vol_quadrature_oracle(sys0, norm, samples=1_000_000,
                                          rng_seed=2026)
        elapsed = time.perf_counter() - t0
        ok = (abs(est - cf) <= 3 * se
              and abs(est - cf) <= 0.01 * abs(cf)
              and abs(est0) <= 3 * se0
              and elapsed < 60.0)
        _report(7, f"volume identity: oracle vs closed form ({elapsed:.1f}s)", ok)

    def test_08_zoll_polynomial(self):
        rng = np.random.default_rng(8)
        ok = True
        # P(0) = 0 exactly and P'(0) > 0 on arbitrary valid pairing data
        for _ in range(25):
            m = int(rng.integers(1, 5))
            pairings = tuple(rng.normal(size=m + 1))
            pairings = (abs(pairings[0]) + 0.1,) + pairings[1:]
            coh = CohomologyData(pairings=pairings, dim_M=2 * m)
            ok = ok and zoll_polynomial_generic(coh, 0.0) == 0.0
            h = 1e-8
            deriv = (zoll_polynomial_generic(coh, h)
                     - zoll_polynomial_generic(coh, -h)) / (2 * h)
            ok = ok and deriv > 0 and abs(deriv - pairings[0]) < 1e-6
        # Kahler closed form vs generic on the derived flat-torus pairings
        for s in (1.0, 2.0):
            coh = kahler_bundle_pairings(0.0, s, 1)
            for a in (-0.3, -1e-4, 1e-4, 0.2, 0.8):
                pk = zoll_polynomial_kahler(0.0, s, 1, None, a)
                pg = zoll_polynomial_generic(coh, a)
                ok = ok and abs(pk - pg) <= 1e-10 * max(1.0, abs(pk))
        _report(8, "Zoll polynomial: P(0)=0, P'(0)>0, kahler=generic", ok)

    def test_09a_energy_conservation(self):
        tol = 1e-10
        ok = True
        for kappa, s in ((1.0, 1.0), (0.0, 1.0), (-1.0, 2.0)):
            sys = make_model(kappa, s)
            rng = np.random.default_rng(99)
            worst = 0.0
            for _ in range(100):
                st = random_state(sys, rng)
                traj = flow(sys, st, 1.2 * reference_period(sys), tol=tol,
                            n_samples=64)
                worst = max(worst, traj.speed_drift)
            ok = ok and worst <= 10 * tol
        _report("9a", "energy conservation on 100 random trajectories/model", ok)

    def test_09b_time_reversal(self):
        tol = 1e-9
        ok = True
        for kappa, s in ((1.0, 1.0), (0.0, 1.0), (-1.0, 2.0)):
            sys = make_model(kappa, s)
            back = replace(sys, strength=-s)
            rng = np.random.default_rng(17)
            for _ in range(5):
                st = random_state(sys, rng)
                n = 100
                fwd = flow(sys, st, 2.5, tol=tol, n_samples=n)
                end = fwd.state(-1)
                rev = flow(back, tangent_state(back, end.position,
                                               -end.velocity),
                           2.5, tol=tol, n_samples=n)
                worst = max(
                    state_distance(sys, rev.state(i),
                                   TangentState(fwd.positions()[n - i],
                                                -fwd.velocities()[n - i]))
                    for i in range(0, n + 1, 10))
                ok = ok and worst <= 10 * tol
        _report("9b", "time-reversal symmetry under strength flip", ok)

    def test_09c_isometry_invariance(self):
        from magsys_lab.fields import ScalarField
        eps = 0.05
        base = make_model(1.0, 1.0)
        sys_z = conformal_perturb(base, "sphere_harmonic_z", eps, normalize=True)
        orb_z = find_closed_orbit(sys_z, latitude_seed(sys_z), tol=1e-10)
        axis = np.array([2.0, -1.0, 2.0]) / 3.0
        sys_r = conformal_perturb(base,
                                  ScalarField("sphere_harmonic_axis",
                                              (1.0, *axis)),
                                  eps, normalize=True)
        rot = _rotation_taking_z_to(axis)
        seed = latitude_seed(sys_z)
        orb_r = find_closed_orbit(
            sys_r, TangentState(rot @ seed.position, rot @ seed.velocity),
            tol=1e-10)
        diff = abs(magnetic_length(sys_r, orb_r) - magnetic_length(sys_z, orb_z))
        _report("9c", f"isometry invariance of l_mag (diff {diff:.1e})",
                diff <= 1e-9)

    def test_09d_deduplication_idempotence(self):
        sysp = conformal_perturb(make_model(1.0, 1.0), "sphere_harmonic_z",
                                 0.05, normalize=True)
        a = enumerate_orbits(sysp, grid_density=2, tol=1e-9)
        b = enumerate_orbits(sysp, grid_density=2, tol=1e-9)
        same = ([o.seed_id for o in a] == [o.seed_id for o in b]
                and [o.period for o in a] == [o.period for o in b]
                and len(deduplicate(sysp, a)) == len(a))
        _report("9d", "deduplication idempotence", same)

    def test_09e_byte_determinism(self, tmp_path):
        cfg = tmp_path / "det.cfg"
        cfg.write_text("kappa = 0.0\nstrength = 1.0\n[search]\n"
                       "grid_density = 2\n", encoding="utf-8")
        blobs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            code = main(["systole", "--config", str(cfg), "--out", str(out),
                         "--seed", "11"])
            assert code == 0
            blobs.append((out / "report.json").read_bytes()
                         + (out / "summary.csv").read_bytes())
        same = blobs[0] == blobs[1]
        doc = json.loads((tmp_path / "r1" / "report.json").read_text())
        from magsys_lab.reporting import validate_report_doc
        validate_report_doc(doc)
        _report("9e", "byte-determinism of emitted reports", same)


def _rotation_taking_z_to(axis):
    z = np.array([0.0, 0.0, 1.0])
    v = np.cross(z, axis)
    c = float(z @ axis)
    vx = np.array([[0, -v[2], v[1]], [v[2], 0, -v[0]], [-v[1], v[0], 0]])
    return np.eye(3) + vx + vx @ vx / (1 + c)
