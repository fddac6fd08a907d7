import math
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import pytest
from scipy.special import i0

from magsys_lab import (ValidationError, conformal_perturb, identity_constant,
                        make_model, riemannian_volume, vol_closed_form,
                        vol_quadrature_oracle, volume, volume_report,
                        with_sigma_perturbation)
from magsys_lab.fields import ScalarField


def torus_pair(eps=0.1, normalize=False):
    sys0 = make_model(0.0, 1.0)
    sysp = conformal_perturb(sys0, "torus_cos_x", eps, normalize=normalize)
    return sys0, sysp


def sphere_pair(kappa=1.0, eta=True):
    sys0 = make_model(kappa, 1.0)
    sysp = conformal_perturb(sys0, "sphere_harmonic_z", 0.05, normalize=False)
    return sys0, with_sigma_perturbation(sysp, "sphere_eta_axial") if eta else sysp


# (estimate, std_error) at 50,000 samples and rng_seed 11, recorded when the
# integrand evaluated each end of an antithetic fiber pair in full, eta term
# included; taking the fiber integral exactly at the base point must not move
# a bit
EXACT_ORACLE = {
    "sphere_eta": (0.06310596021771306, 0.0015674016370621983),
    "sphere": (0.06310596021771306, 0.0015674016370621983),
    "torus_eta": (1.2486398723057817, 0.012695741682456907),
    # kappa = 4: a radius R other than 1 in the sphere's box formula
    "sphere_eta_kappa4": (0.015776490054428265, 0.0003918504092655496),
    # eta alone: f = 1 at every point, so exactly zero
    "sphere_eta_only": (0.0, 0.0),
}


# the benchmark workload's oracle: sphere_pair(), 4e6 samples and rng_seed 7,
# 7813 base points a cell, past numpy's 128-element pairwise-summation block
# (EXACT_ORACLE's cells hold 98), so a reduction in another order shows here
WORKLOAD_ORACLE = (0.06598225038053324, 0.00017554282115271166)

# riemannian_volume of the unnormalised perturbation on each chart
EXACT_AREA = {
    "sphere": 12.587325039852278,
    "sphere_kappa4": 3.1468312599630694,
    "torus": 39.87418983814949,
    "hyperbolic": 57.048544935043545,
}


def area_case(name):
    if name == "torus":
        return torus_pair()[1]
    if name == "hyperbolic":
        return conformal_perturb(make_model(-1.0, 2.0), ScalarField("hyperbolic_bump", (0.1, 1.0)),
                                 0.1, normalize=False)
    return sphere_pair(4.0 if name.endswith("kappa4") else 1.0, eta=False)[1]


def exact_case(name):
    if name == "torus_eta":
        sys0, sysp = torus_pair()
        return sys0, with_sigma_perturbation(sysp, "torus_eta_sin_x")
    if name == "sphere_eta_only":
        sys0 = make_model(1.0, 1.0)
        return sys0, with_sigma_perturbation(sys0, "sphere_eta_axial", eps=0.1)
    return sphere_pair(4.0 if name.endswith("kappa4") else 1.0, eta="eta" in name)


class TestClosedForm:
    def test_identity_perturbation_is_zero(self):
        sys0 = make_model(0.0, 1.0)
        assert vol_closed_form(sys0, sys0) == 0.0

    def test_normalized_is_exactly_zero(self):
        sys0, sysp = torus_pair(normalize=True)
        assert vol_closed_form(sys0, sysp) == 0.0

    @pytest.mark.parametrize("name", sorted(EXACT_AREA))
    def test_area_is_bit_for_bit(self, name):
        assert riemannian_volume(area_case(name)) == EXACT_AREA[name]

    def test_torus_cosine_against_bessel(self):
        # independent oracle: int e^{2 eps cos x} dx = 2 pi I0(2 eps)
        eps = 0.1
        sys0, sysp = torus_pair(eps)
        vol_g = riemannian_volume(sysp)
        expected_vol = 4 * math.pi**2 * float(i0(2 * eps))
        assert vol_g == pytest.approx(expected_vol, rel=1e-9)
        assert vol_closed_form(sys0, sysp) == pytest.approx(
            math.pi * (expected_vol - 4 * math.pi**2), rel=1e-9)

    def test_linearity_in_area_defect(self):
        # constant conformal factors give exactly scalable defects
        sys0 = make_model(0.0, 1.0)
        eps = 0.5
        delta = 0.04
        c1 = math.log(1 + delta) / (2 * eps)
        c2 = math.log(1 + 2 * delta) / (2 * eps)
        v1 = vol_closed_form(sys0, conformal_perturb(
            sys0, ScalarField("const", (c1,)), eps, normalize=False))
        v2 = vol_closed_form(sys0, conformal_perturb(
            sys0, ScalarField("const", (c2,)), eps, normalize=False))
        assert v2 / v1 == pytest.approx(2.0, rel=1e-10)

    def test_mismatched_surfaces_rejected(self):
        with pytest.raises(ValidationError):
            vol_closed_form(make_model(0.0, 1.0), make_model(1.0, 1.0))

    def test_pair_on_different_surfaces_refused(self):
        # the same strength and field, on the spheres of kappa 1 and 4
        sys0, _ = sphere_pair(1.0, eta=False)
        _, sysp = sphere_pair(4.0, eta=False)
        with pytest.raises(ValidationError, match="same surface"):
            volume_report(sys0, sysp, samples=1000)

    def test_identity_constant(self):
        assert identity_constant(1) == pytest.approx(2 * math.pi**2, rel=1e-15)
        assert identity_constant(2) == pytest.approx(2 * math.pi**4, rel=1e-15)
        assert identity_constant(3) == pytest.approx(math.pi**6, rel=1e-15)


class TestOracle:
    def test_agreement_unnormalized_torus(self):
        sys0, sysp = torus_pair()
        cf = vol_closed_form(sys0, sysp)
        est, se = vol_quadrature_oracle(sys0, sysp, samples=200_000, rng_seed=5)
        assert abs(est - cf) <= 3 * se
        assert abs(est - cf) <= 0.02 * abs(cf)

    def test_normalized_estimate_consistent_with_zero(self):
        sys0, sysp = torus_pair(normalize=True)
        est, se = vol_quadrature_oracle(sys0, sysp, samples=200_000, rng_seed=5)
        assert abs(est) <= 3 * se

    def test_deterministic_under_seed(self):
        sys0, sysp = torus_pair()
        a = vol_quadrature_oracle(sys0, sysp, samples=50_000, rng_seed=9)
        b = vol_quadrature_oracle(sys0, sysp, samples=50_000, rng_seed=9)
        assert a == b

    def test_eta_blindness(self):
        # an exact sigma-perturbation integrates to zero over each fiber, so
        # the oracle, which takes the fiber integral exactly, never sees it
        torus0, torus = torus_pair()
        sphere0, sphere = sphere_pair(eta=False)
        for sys0, sysp, eta in ((torus0, torus, "torus_eta_sin_x"),
                                (sphere0, sphere, "sphere_eta_axial")):
            with_eta = with_sigma_perturbation(sysp, eta)
            assert (vol_quadrature_oracle(sys0, sysp, samples=100_000, rng_seed=3)
                    == vol_quadrature_oracle(sys0, with_eta, samples=100_000, rng_seed=3))

    def test_pure_eta_perturbation_estimates_zero(self):
        sys0 = make_model(0.0, 1.0)
        sys_eta = with_sigma_perturbation(sys0, "torus_eta_sin_x", eps=0.1)
        est, se = vol_quadrature_oracle(sys0, sys_eta, samples=50_000, rng_seed=1)
        assert abs(est) <= max(3 * se, 1e-12)

    def test_sphere_chart_supported(self):
        sys0 = make_model(1.0, 1.0)
        sysp = conformal_perturb(sys0, "sphere_harmonic_z", 0.05,
                                 normalize=False)
        cf = vol_closed_form(sys0, sysp)
        est, se = vol_quadrature_oracle(sys0, sysp, samples=400_000, rng_seed=3)
        assert abs(est - cf) <= 3 * se

    def test_hyperbolic_chart_rejected(self):
        sys0 = make_model(-1.0, 2.0)
        sysp = conformal_perturb(sys0, ScalarField("hyperbolic_bump", (0.1, 1.0)),
                                 0.1, normalize=False)
        with pytest.raises(ValidationError):
            vol_quadrature_oracle(sys0, sysp)

    @pytest.mark.parametrize("samples", [-5, 512, math.nan, math.inf])
    def test_too_few_samples_refused(self, samples):
        # below 513 every cell holds one base point and the standard error
        # would read 0; NaN and infinity fix no count at all
        sys0, sysp = torus_pair(0.05)
        with pytest.raises(ValidationError, match="samples"):
            vol_quadrature_oracle(sys0, sysp, samples=samples)

    @pytest.mark.parametrize("rng_seed", [-1, 1.5])
    def test_bad_seed_refused(self, rng_seed):
        sys0, sysp = torus_pair(0.05)
        with pytest.raises(ValidationError, match="rng_seed"):
            vol_quadrature_oracle(sys0, sysp, samples=1000, rng_seed=rng_seed)

    def test_fewest_samples_estimate_an_error(self):
        sys0, sysp = torus_pair(0.05)
        _, se = vol_quadrature_oracle(sys0, sysp, samples=513)
        assert se > 0.0

    @pytest.mark.parametrize("name", sorted(EXACT_ORACLE))
    def test_estimate_is_bit_for_bit(self, name):
        sys0, sysp = exact_case(name)
        assert vol_quadrature_oracle(sys0, sysp, samples=50_000,
                                     rng_seed=11) == EXACT_ORACLE[name]

    def test_workload_estimate_is_bit_for_bit(self):
        assert vol_quadrature_oracle(*sphere_pair(), samples=4_000_000,
                                     rng_seed=7) == WORKLOAD_ORACLE

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_split_is_bit_for_bit(self, monkeypatch, cpus):
        # each cell writes only its own mean and variance, so the number of
        # workers moves no bit; threads switch often, to interleave them
        monkeypatch.setattr(volume, "_usable_cpus", lambda: cpus)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for name, expected in EXACT_ORACLE.items():
                assert vol_quadrature_oracle(*exact_case(name), samples=50_000,
                                             rng_seed=11) == expected
            assert vol_quadrature_oracle(*sphere_pair(), samples=4_000_000,
                                         rng_seed=7) == WORKLOAD_ORACLE
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("failing", ["calling", "worker"])
    def test_worker_failure_is_raised(self, monkeypatch, failing):
        # each of three threads holds its first cell at a barrier, then the
        # calling thread or each worker raises: the exception must reach the
        # caller as itself, with every thread joined
        monkeypatch.setattr(volume, "_usable_cpus", lambda: 3)
        sys0, sysp = sphere_pair()
        chart = type(sysp.surface)
        box_points = chart.box_points
        first_cell, barrier, raised = threading.local(), threading.Barrier(3), []

        def failing_box_points(self, r, p):
            if not hasattr(first_cell, "seen"):
                first_cell.seen = True
                barrier.wait(timeout=30)
                calling = threading.current_thread() is threading.main_thread()
                if calling == (failing == "calling"):
                    raised.append(RuntimeError(f"{failing} thread failed"))
                    raise raised[-1]
            return box_points(self, r, p)

        monkeypatch.setattr(chart, "box_points", failing_box_points)
        threads = threading.active_count()
        with pytest.raises(RuntimeError) as err:
            vol_quadrature_oracle(sys0, sysp, samples=50_000, rng_seed=11)
        assert any(err.value is exc for exc in raised)
        assert threading.active_count() == threads

    def test_working_set_is_one_cell(self, monkeypatch):
        # arrays the size of one cell per worker (7813 points here), not of
        # all 256; two workers, since each adds one cell's arrays
        monkeypatch.setattr(volume, "_usable_cpus", lambda: 2)
        tracemalloc.start()
        try:
            vol_quadrature_oracle(*sphere_pair(), samples=4_000_000, rng_seed=7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6

    def test_report(self):
        sys0, sysp = torus_pair()
        rep = volume_report(sys0, sysp, samples=50_000, rng_seed=2)
        assert rep.samples == 50_000
        assert "orientation" in rep.constant_convention
        assert abs(rep.quadrature - rep.closed_form) <= 3 * rep.std_error


def test_start_up_loads_no_thread_pool():
    # what perfbench/setup_probe.py imports, in a fresh interpreter: the
    # oracle's thread pool stays off every command's start-up
    src = Path(volume.__file__).resolve().parents[1]
    script = (f"import sys; sys.path.insert(0, {str(src)!r})\n"
              "from magsys_lab import cli, syslab\n"
              "print('concurrent.futures' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         check=True, timeout=120)
    assert out.stdout.strip() == "False"
