import math

import pytest
from scipy.special import i0

from magsys_lab import (ValidationError, conformal_perturb, identity_constant,
                        make_model, riemannian_volume, vol_closed_form,
                        vol_quadrature_oracle, volume_report,
                        with_sigma_perturbation)
from magsys_lab import fields
from magsys_lab.fields import ScalarField
from magsys_lab.volume import CELLS_PER_SIDE


def torus_pair(eps=0.1, normalize=False):
    sys0 = make_model(0.0, 1.0)
    sysp = conformal_perturb(sys0, "torus_cos_x", eps, normalize=normalize)
    return sys0, sysp


def sphere_pair(kappa=1.0, eta=True):
    sys0 = make_model(kappa, 1.0)
    sysp = conformal_perturb(sys0, "sphere_harmonic_z", 0.05, normalize=False)
    return sys0, with_sigma_perturbation(sysp, "sphere_eta_axial") if eta else sysp


# (estimate, std_error) at 50,000 samples and rng_seed 11, recorded when the
# integrand evaluated each end of an antithetic pair in full; sharing the
# pair's base-point terms must not move a bit
EXACT_ORACLE = {
    "sphere_eta": (0.06310596021771306, 0.0015674016370621983),
    "sphere": (0.06310596021771306, 0.0015674016370621983),
    "torus_eta": (1.2486398723057817, 0.012695741682456907),
    # kappa = 4: theta / R and sqrt(kappa) theta round differently
    "sphere_eta_kappa4": (0.015776490054428265, 0.0003918504092655496),
    # eta alone: rounding noise of the pair's cancellation, so every
    # operation of the eta term shows
    "sphere_eta_only": (-2.6733053114995438e-18, 7.184452171680245e-18),
}


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
        # exact sigma-perturbations do not move the estimate (the functional
        # is blind to them; antithetic fiber pairs cancel them exactly)
        sys0, sysp = torus_pair()
        with_eta = with_sigma_perturbation(sysp, "torus_eta_sin_x")
        a, se = vol_quadrature_oracle(sys0, sysp, samples=100_000, rng_seed=3)
        b, _ = vol_quadrature_oracle(sys0, with_eta, samples=100_000, rng_seed=3)
        assert abs(a - b) <= 3 * se

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

    @pytest.mark.parametrize("samples", [-5, 512])
    def test_too_few_samples_refused(self, samples):
        # below 513 every cell holds one antithetic pair and the standard
        # error would read 0
        sys0, sysp = torus_pair(0.05)
        with pytest.raises(ValidationError, match="samples"):
            vol_quadrature_oracle(sys0, sysp, samples=samples)

    def test_fewest_samples_estimate_an_error(self):
        sys0, sysp = torus_pair(0.05)
        _, se = vol_quadrature_oracle(sys0, sysp, samples=513)
        assert se > 0.0

    @pytest.mark.parametrize("name", sorted(EXACT_ORACLE))
    def test_estimate_is_bit_for_bit(self, name):
        sys0, sysp = exact_case(name)
        assert vol_quadrature_oracle(sys0, sysp, samples=50_000,
                                     rng_seed=11) == EXACT_ORACLE[name]

    def test_eta_components_once_per_pair(self, monkeypatch):
        # one evaluation per cell serves both ends of every pair in it
        make, chart, n_coeffs = fields._ONE_FORMS["sphere_eta_axial"]
        calls = []

        def counting(coeffs, surface):
            comp, dens, grad = make(coeffs, surface)

            def counted(x):
                calls.append(len(x[0]))
                return comp(x)

            return counted, dens, grad

        monkeypatch.setitem(fields._ONE_FORMS, "sphere_eta_axial", (counting, chart, n_coeffs))
        sys0, sysp = sphere_pair()
        vol_quadrature_oracle(sys0, sysp, samples=50_000, rng_seed=11)
        assert len(calls) == CELLS_PER_SIDE**2
        assert sum(calls) == CELLS_PER_SIDE**2 * math.ceil(50_000 / (2 * CELLS_PER_SIDE**2))

    def test_report(self):
        sys0, sysp = torus_pair()
        rep = volume_report(sys0, sysp, samples=50_000, rng_seed=2)
        assert rep.samples == 50_000
        assert "orientation" in rep.constant_convention
        assert abs(rep.quadrature - rep.closed_form) <= 3 * rep.std_error
