import numpy as np
import pytest

from magsys_lab import OneForm, ScalarField, make_model, one_form_names, random_state
from magsys_lab.fields import _ONE_FORMS, _SCALAR_FIELDS

# every built-in field on a surface of its chart, with non-default coefficients
SCALAR_CASES = [("const", (0.7,), 1.0), ("const", (0.7,), 0.0), ("const", (0.7,), -1.0),
                ("sphere_harmonic_z", (1.3,), 2.0),
                ("sphere_harmonic_axis", (0.8, 1.0, 1.0, 0.3), 1.0),
                ("torus_cos_x", (1.1,), 0.0), ("torus_cos_y", (0.9,), 0.0),
                ("hyperbolic_bump", (1.0, 0.5), -1.0), ("hyperbolic_bump", (0.5, 1.3), -0.5)]
ONE_FORM_CASES = [("torus_eta_sin_x", (1.2,), 0.0), ("sphere_eta_axial", (0.6,), 2.0),
                  ("hyperbolic_eta_radial", (0.8,), -0.5)]


def points(kappa, n=300):
    sys = make_model(kappa, 2.0)
    rng = np.random.default_rng(11)
    return sys.surface, [random_state(sys, rng).position for _ in range(n)]


def test_every_field_is_covered():
    assert {c[0] for c in SCALAR_CASES} == set(_SCALAR_FIELDS)
    assert {c[0] for c in ONE_FORM_CASES} == set(_ONE_FORMS) == set(one_form_names())


@pytest.mark.parametrize("name,coeffs,kappa", SCALAR_CASES,
                         ids=[f"{c[0]}-{c[2]:g}" for c in SCALAR_CASES])
def test_scalar_point_formulas_equal_the_array_functions(name, coeffs, kappa):
    surface, qs = points(kappa)
    u = ScalarField(name, coeffs)
    value, diff, hess = u.point(surface)
    dim = surface.ops.dim
    for q in qs:
        assert type(value(q)) is float
        assert value(q) == float(u.value(surface, q))
        assert np.array_equal(np.array(diff(q)), u.differential(surface, q))
        assert np.array_equal(np.array(hess(q)).reshape(dim, dim), u.hessian(surface, q))


@pytest.mark.parametrize("name,coeffs,kappa", ONE_FORM_CASES,
                         ids=[c[0] for c in ONE_FORM_CASES])
def test_one_form_point_formulas_equal_the_array_functions(name, coeffs, kappa):
    surface, qs = points(kappa)
    eta = OneForm(name, coeffs)
    density, gradient = eta.point(surface)
    for q in qs:
        assert type(density(q)) is float
        assert density(q) == float(eta.density(surface, q))
        assert np.array_equal(np.array(gradient(q)), eta.density_gradient(surface, q))


@pytest.mark.parametrize("name,coeffs,kappa", SCALAR_CASES,
                         ids=[f"{c[0]}-{c[2]:g}" for c in SCALAR_CASES])
def test_scalar_derivatives_match_central_differences(name, coeffs, kappa):
    surface, qs = points(kappa, n=40)
    u = ScalarField(name, coeffs)
    h = 1e-6
    for q in qs:
        for j, e in enumerate(np.eye(len(q)) * h):
            d_val = (u.value(surface, q + e) - u.value(surface, q - e)) / (2 * h)
            d_diff = (u.differential(surface, q + e) - u.differential(surface, q - e)) / (2 * h)
            assert u.differential(surface, q)[j] == pytest.approx(d_val, abs=1e-7)
            np.testing.assert_allclose(u.hessian(surface, q)[:, j], d_diff, atol=1e-7)


@pytest.mark.parametrize("name,coeffs,kappa", ONE_FORM_CASES,
                         ids=[c[0] for c in ONE_FORM_CASES])
def test_density_gradient_matches_central_differences(name, coeffs, kappa):
    surface, qs = points(kappa, n=40)
    eta = OneForm(name, coeffs)
    h = 1e-6
    for q in qs:
        fd = [(eta.density(surface, q + e) - eta.density(surface, q - e)) / (2 * h)
              for e in np.eye(len(q)) * h]
        np.testing.assert_allclose(eta.density_gradient(surface, q), fd, atol=1e-7)


def test_hyperbolic_density_gradient_at_the_origin():
    surface = make_model(-1.0, 2.0).surface
    eta = OneForm("hyperbolic_eta_radial", (0.8,))
    origin = np.array([0.0, 0.3])
    assert np.array_equal(eta.density_gradient(surface, origin), [0.0, 0.0])
    assert tuple(eta.point(surface)[1](origin)) == (0.0, 0.0)
