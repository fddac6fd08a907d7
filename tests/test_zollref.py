import math

import pytest
import sympy

from magsys_lab import (CohomologyData, ValidationError, ZollRegimeViolation,
                        a_of_r, a1_squared, inequality_constant_C,
                        k_tilde, kahler_bundle_pairings, make_reference,
                        reference_length, zoll_polynomial_generic,
                        zoll_polynomial_kahler)


class TestScaleFunction:
    def test_unit_sphere_unit_strength(self):
        # a(1) = sqrt(2 (sqrt(2) - 1))
        assert a_of_r(1.0, 1.0, 1.0) == pytest.approx(
            math.sqrt(2 * (math.sqrt(2) - 1)), abs=1e-12)

    def test_flat_branch(self):
        # a(r) = r / sqrt(s)
        assert a_of_r(0.0, 4.0, 1.0) == pytest.approx(0.5, abs=0)
        assert a_of_r(0.0, 4.0, 2.0) == pytest.approx(1.0, abs=1e-15)

    def test_continuity_across_kappa(self):
        assert abs(a_of_r(1e-6, 1.0, 1.0) - a_of_r(0.0, 1.0, 1.0)) < 1e-6

    def test_monotone_decreasing_in_strength(self):
        for kappa in (1.0, 0.0, -1.0):
            vals = [a_of_r(kappa, s, 1.0) for s in (1.5, 2.0, 3.0, 5.0)]
            assert all(x > y for x, y in zip(vals, vals[1:]))

    def test_regime_violations(self):
        with pytest.raises(ZollRegimeViolation):
            a_of_r(-1.0, 1.0, 1.0)
        with pytest.raises(ZollRegimeViolation):
            a_of_r(-1.0, 2.0, 3.0)     # s^2 + kappa r^2 = 4 - 9 < 0
        with pytest.raises(ZollRegimeViolation):
            a_of_r(0.0, -1.0, 1.0)     # branch needs positive strength


class TestReferenceLength:
    @pytest.mark.parametrize("kappa,s,expected", [
        (1.0, 1.0, 2 * math.pi * (math.sqrt(2) - 1)),
        (0.0, 1.0, math.pi),
        (-1.0, 2.0, 2 * math.pi * (2 - math.sqrt(3))),
    ])
    def test_closed_forms(self, kappa, s, expected):
        assert reference_length(kappa, s) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("s", [1.0, 2.0, 4.0])
    def test_continuity_at_kappa_zero(self, s):
        for kappa in (1e-4, -1e-4):
            assert abs(reference_length(kappa, s) - math.pi / s) <= 1e-3

    def test_reference_record(self):
        ref = make_reference(1.0, 1.0)
        assert ref.reference_magnetic_length == math.pi * ref.a1_squared
        assert ref.a1_squared > 0
        assert ref.vol_g0 == pytest.approx(4 * math.pi, rel=1e-15)


class TestGenericPolynomial:
    def test_zero_at_zero(self):
        coh = CohomologyData(pairings=(2.0, 3.0), dim_M=2)
        assert zoll_polynomial_generic(coh, 0.0) == 0.0

    def test_dim2_closed_form_vs_symbolic(self):
        # symbolic oracle: integrate <(c0 + t e0)^1> = p0 + p1 t
        p0, p1, A = 2.5, -0.75, 0.8
        t = sympy.Symbol("t")
        expected = float(sympy.integrate(p0 + p1 * t, (t, 0, A)))
        coh = CohomologyData(pairings=(p0, p1), dim_M=2)
        assert zoll_polynomial_generic(coh, A) == pytest.approx(expected, rel=1e-14)

    def test_dim6_vs_symbolic(self):
        pairings = (1.5, 0.3, -0.2, 0.05)
        t = sympy.Symbol("t")
        poly = sum(math.comb(3, k) * pairings[k] * t**k for k in range(4))
        A = -0.6
        expected = float(sympy.integrate(poly, (t, 0, A)))
        coh = CohomologyData(pairings=pairings, dim_M=6)
        assert zoll_polynomial_generic(coh, A) == pytest.approx(expected, rel=1e-13)

    def test_derivative_at_zero_is_leading_pairing(self):
        coh = CohomologyData(pairings=(1.7, 0.4, 0.1), dim_M=4)
        h = 1e-7
        deriv = (zoll_polynomial_generic(coh, h)
                 - zoll_polynomial_generic(coh, -h)) / (2 * h)
        assert deriv == pytest.approx(1.7, rel=1e-9)
        assert coh.pairings[0] > 0

    def test_invalid_data(self):
        with pytest.raises(ValidationError):
            CohomologyData(pairings=(-1.0, 2.0), dim_M=2)
        with pytest.raises(ValidationError):
            CohomologyData(pairings=(1.0, 2.0, 3.0), dim_M=2)
        with pytest.raises(ValidationError):
            CohomologyData(pairings=(1.0, 2.0), dim_M=3)


class TestKahlerPolynomial:
    def test_zero_at_zero(self):
        for kappa, s in ((1.0, 1.0), (0.0, 2.0), (-1.0, 2.0)):
            assert zoll_polynomial_kahler(kappa, s, 1, 4 * math.pi, 0.0) == 0.0

    def test_bracket_collapse_at_minus_reference(self):
        # A = -pi a^2(1) makes the bracket hit -1 exactly
        kappa, s, n = 1.0, 1.0, 1
        vol = 4 * math.pi
        A = -reference_length(kappa, s)
        expected = -k_tilde(kappa, s, n) * vol
        assert zoll_polynomial_kahler(kappa, s, n, vol, A) == pytest.approx(
            expected, rel=1e-12)

    @pytest.mark.parametrize("kappa,s,n", [
        (0.0, 1.0, 1), (0.0, 2.0, 1), (0.0, 1.0, 2),
        (1.0, 1.0, 1), (1.0, 1.0, 2), (2.0, 0.5, 3),
    ])
    def test_generic_matches_kahler_on_derived_pairings(self, kappa, s, n):
        vol = 4 * math.pi / kappa if kappa > 0 else None
        coh = kahler_bundle_pairings(kappa, s, n, vol)
        for A in (-0.4, -1e-3, 1e-6, 0.2, 0.9):
            pk = zoll_polynomial_kahler(kappa, s, n, vol, A)
            pg = zoll_polynomial_generic(coh, A)
            assert abs(pg - pk) <= 1e-10 * max(1.0, abs(pk))

    def test_torus_pairings_shortcut(self):
        coh = kahler_bundle_pairings(0.0, 2.0)
        assert coh.dim_M == 2
        a2 = a1_squared(0.0, 2.0)
        assert coh.pairings[0] == pytest.approx(2 * math.pi**2 * a2**3, rel=1e-14)
        assert coh.pairings[1] == pytest.approx(2 * math.pi * a2**2, rel=1e-14)

    def test_local_monotonicity(self):
        # strictly increasing near 0 whenever the leading constant is positive
        for kappa, s, vol in ((1.0, 1.0, 4 * math.pi), (0.0, 1.0, None)):
            ref = reference_length(kappa, s)
            grid = [(-0.5 + i / 20) * ref for i in range(21)]
            vals = [zoll_polynomial_kahler(kappa, s, 1, vol, a) for a in grid]
            assert all(x < y for x, y in zip(vals, vals[1:]))

    def test_negative_curvature_pairings_rejected(self):
        # kappa < 0 makes the leading pairing negative, violating the
        # symplectic-class positivity requirement
        with pytest.raises(ValidationError):
            kahler_bundle_pairings(-1.0, 2.0, 1, 4 * math.pi)

    def test_sphere_pairings_shortcut(self):
        coh = kahler_bundle_pairings(1.0, 1.0)
        assert coh.dim_M == 2 and coh.pairings[0] > 0
        for A in (-0.2, 0.3):
            pg = zoll_polynomial_generic(coh, A)
            pk = zoll_polynomial_kahler(1.0, 1.0, 1, 4 * math.pi, A)
            assert abs(pg - pk) <= 1e-10 * max(1.0, abs(pk))


class TestInequalityConstant:
    def test_pinned_regression_value(self):
        # recorded regression constant for (kappa, s, n) = (1, 1, 1), vol 4 pi
        assert inequality_constant_C(1.0, 1.0, 1, 4 * math.pi) == pytest.approx(
            0.046194510315724364, rel=1e-12)

    def test_positive_and_volume_monotone(self):
        c = inequality_constant_C(1.0, 1.0, 1, 4 * math.pi)
        assert c > 0
        rhs = [1.0 + c * (v - 4 * math.pi) for v in (12.0, 13.0, 14.0)]
        assert rhs[0] < rhs[1] < rhs[2]

    def test_zoll_self_consistency_affine_form(self):
        # at vol_g = vol_g0 the affine right side is exactly 1, so the Zoll
        # point l_min = pi a^2(1) sits exactly on the equality case
        c = inequality_constant_C(1.0, 1.0, 1, 4 * math.pi)
        lhs = (reference_length(1.0, 1.0) / reference_length(1.0, 1.0)) ** 2
        assert lhs == 1.0 <= 1.0 + c * 0.0
        # the printed volume-ratio reading C * vol_g/vol_g0 would need C >= 1
        # at the Zoll point; the actual constant is far below it
        assert c < 1.0

    def test_kappa_zero_rejected(self):
        with pytest.raises(ZollRegimeViolation):
            inequality_constant_C(0.0, 1.0, 1, 1.0)

    def test_k_tilde_pinned(self):
        assert k_tilde(1.0, 1.0, 1) == pytest.approx(34.0039609914472, rel=1e-12)
