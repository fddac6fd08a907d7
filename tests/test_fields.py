import numpy as np
import pytest

from magsys_lab import OneForm, ScalarField, ValidationError, make_model, one_form_names
from magsys_lab.fields import _ONE_FORMS, _SCALAR_FIELDS

from instruments import random_state

# every built-in field on a surface of its chart, with non-default coefficients
SCALAR_CASES = [("const", (0.7,), 1.0), ("const", (0.7,), 0.0), ("const", (0.7,), -1.0),
                ("sphere_harmonic_z", (1.3,), 2.0),
                ("sphere_harmonic_axis", (0.8, 1.0, 1.0, 0.3), 1.0),
                ("torus_cos_x", (1.1,), 0.0), ("torus_cos_y", (0.9,), 0.0),
                ("hyperbolic_bump", (1.0, 0.5), -1.0), ("hyperbolic_bump", (0.5, 1.3), -0.5)]
ONE_FORM_CASES = [("torus_eta_sin_x", (1.2,), 0.0), ("sphere_eta_axial", (0.6,), 2.0),
                  ("hyperbolic_eta_radial", (0.8,), -0.5)]
SCALAR_IDS = [f"{c[0]}-{c[2]:g}" for c in SCALAR_CASES]
ONE_FORM_IDS = [c[0] for c in ONE_FORM_CASES]


def points(kappa, n=300):
    sys = make_model(kappa, 2.0)
    rng = np.random.default_rng(11)
    return sys.surface, [random_state(sys, rng).position for _ in range(n)]


def on_floats(formula, q):
    """A formula at one point, as the RHS kernels call it: the sphere passes
    the (3,) array, the planar charts a list of Python floats."""
    return formula(q if len(q) == 3 else q.tolist())


def test_every_field_is_covered():
    assert {c[0] for c in SCALAR_CASES} == set(_SCALAR_FIELDS)
    assert {c[0] for c in ONE_FORM_CASES} == set(_ONE_FORMS) == set(one_form_names())


@pytest.mark.parametrize("name,coeffs,kappa", SCALAR_CASES, ids=SCALAR_IDS)
def test_scalar_point_formulas_equal_the_array_functions(name, coeffs, kappa):
    surface, qs = points(kappa)
    u = ScalarField(name, coeffs)
    value, diff, _ = u.formulas(surface)
    for q in qs:
        assert float(on_floats(value, q)) == float(u.value(surface, q))
        assert np.array_equal(np.array(on_floats(diff, q), dtype=float),
                              u.differential(surface, q))


@pytest.mark.parametrize("name,coeffs,kappa", ONE_FORM_CASES, ids=ONE_FORM_IDS)
def test_one_form_point_formulas_equal_the_array_functions(name, coeffs, kappa):
    surface, qs = points(kappa)
    eta = OneForm(name, coeffs)
    comp, density, _ = eta.formulas(surface)
    for q in qs:
        assert float(on_floats(density, q)) == float(eta.density(surface, q))
        assert np.array_equal(np.array(on_floats(comp, q), dtype=float),
                              eta.components(surface, q))


@pytest.mark.parametrize("cls,name,coeffs,kappa",
                         [(ScalarField, *c) for c in SCALAR_CASES]
                         + [(OneForm, *c) for c in ONE_FORM_CASES],
                         ids=SCALAR_IDS + ONE_FORM_IDS)
def test_array_methods_on_a_grid_equal_the_per_point_values(cls, name, coeffs, kappa):
    # the reshape path of the orbit-space average's (centres, nodes, dim) grids
    surface, qs = points(kappa, n=20)
    field = cls(name, coeffs)
    grid = np.array(qs).reshape(4, 5, -1)
    methods = ((field.value, field.differential) if cls is ScalarField
               else (field.density, field.components))
    for method in methods:
        got = method(surface, grid)
        want = np.array([method(surface, q) for q in qs])
        assert got.shape == (4, 5) + want.shape[1:]
        assert np.array_equal(got.reshape(want.shape), method(surface, np.array(qs)))
        if name in ("sphere_harmonic_axis", "hyperbolic_bump"):
            # over many rows a dot product is BLAS gemv and ** 2 squares; at
            # one point they are ddot and pow, which may round differently
            np.testing.assert_allclose(got.reshape(want.shape), want,
                                       rtol=4 * np.finfo(float).eps, atol=0)
        else:
            assert np.array_equal(got.reshape(want.shape), want)


@pytest.mark.parametrize("name,coeffs,kappa", SCALAR_CASES, ids=SCALAR_IDS)
def test_scalar_derivatives_match_central_differences(name, coeffs, kappa):
    surface, qs = points(kappa, n=40)
    value, diff, hess = ScalarField(name, coeffs).formulas(surface)
    dim, h = surface.dim, 1e-6
    for q in qs:
        for j, e in enumerate(np.eye(dim) * h):
            d_val = (on_floats(value, q + e) - on_floats(value, q - e)) / (2 * h)
            d_diff = (np.array(on_floats(diff, q + e))
                      - np.array(on_floats(diff, q - e))) / (2 * h)
            assert on_floats(diff, q)[j] == pytest.approx(d_val, abs=1e-7)
            np.testing.assert_allclose(np.reshape(on_floats(hess, q), (dim, dim))[:, j],
                                       d_diff, atol=1e-7)


@pytest.mark.parametrize("name,coeffs,kappa", ONE_FORM_CASES, ids=ONE_FORM_IDS)
def test_density_gradient_matches_central_differences(name, coeffs, kappa):
    surface, qs = points(kappa, n=40)
    _, density, gradient = OneForm(name, coeffs).formulas(surface)
    h = 1e-6
    for q in qs:
        fd = [(on_floats(density, q + e) - on_floats(density, q - e)) / (2 * h)
              for e in np.eye(len(q)) * h]
        np.testing.assert_allclose(np.array(on_floats(gradient, q), dtype=float), fd,
                                   atol=1e-7)


def test_hyperbolic_density_gradient_at_the_origin():
    surface = make_model(-1.0, 2.0).surface
    eta = OneForm("hyperbolic_eta_radial", (0.8,))
    _, density, gradient = eta.formulas(surface)
    origin = np.array([0.0, 0.3])
    assert tuple(on_floats(gradient, origin)) == (0.0, 0.0)
    assert on_floats(density, origin) == 1.6
    # the same formulas on a column of points, finite at the origin
    col = np.array([[0.0, 0.4], [0.3, 0.3]])
    g0, g1 = gradient(col)
    assert g0[0] == 0.0 and np.isfinite(g0).all() and g1 == 0.0
    assert np.array_equal(eta.density(surface, col.T), density(col))


@pytest.mark.parametrize("field,coeffs", [
    (ScalarField, ("sphere_harmonic_z", (1.0, 1.0, 0.0, 0.0))),
    (ScalarField, ("torus_cos_x", (1.0, 99.0))),
    (ScalarField, ("hyperbolic_bump", (1.0,))),
    (ScalarField, ("sphere_harmonic_axis", (1.0, 0.0, 0.0))),
    (OneForm, ("sphere_eta_axial", ())),
])
def test_coefficient_count_must_be_exact(field, coeffs):
    name, values = coeffs
    with pytest.raises(ValidationError, match=rf"{name}.*got {len(values)}"):
        field(name, values)


def test_sphere_harmonic_z_uses_the_z_axis():
    surface = make_model(1.0, 1.0).surface
    u = ScalarField("sphere_harmonic_z", (1.0,))
    assert float(u.value(surface, np.array([1.0, 0.0, 0.0]))) == 0.0
    assert float(u.value(surface, np.array([0.0, 0.0, 1.0]))) == 1.0
