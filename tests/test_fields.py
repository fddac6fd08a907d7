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
    """A formula at one point, as the RHS kernels call it: on a list of
    Python floats."""
    return formula(q.tolist())


def test_every_field_is_covered():
    assert {c[0] for c in SCALAR_CASES} == set(_SCALAR_FIELDS)
    assert {c[0] for c in ONE_FORM_CASES} == set(_ONE_FORMS) == set(one_form_names())


@pytest.mark.parametrize("name,coeffs,kappa", SCALAR_CASES, ids=SCALAR_IDS)
def test_scalar_point_formulas_equal_the_array_functions(name, coeffs, kappa):
    surface, qs = points(kappa)
    u = ScalarField(name, coeffs)
    value, diff = u.formulas(surface)
    for q in qs:
        assert float(on_floats(value, q)) == float(u.value(surface, q))
        assert np.array_equal(np.array(on_floats(diff, q), dtype=float),
                              u.differential(surface, q))


@pytest.mark.parametrize("name,coeffs,kappa", ONE_FORM_CASES, ids=ONE_FORM_IDS)
def test_one_form_point_formulas_equal_the_array_functions(name, coeffs, kappa):
    surface, qs = points(kappa)
    eta = OneForm(name, coeffs)
    comp, density = eta.formulas(surface)
    for q in qs:
        assert float(on_floats(density, q)) == float(eta.density(surface, q))
        assert np.array_equal(np.array(on_floats(comp, q), dtype=float),
                              eta.components(surface, q))


@pytest.mark.parametrize("cls,name,coeffs,kappa",
                         [(ScalarField, *c) for c in SCALAR_CASES]
                         + [(OneForm, *c) for c in ONE_FORM_CASES],
                         ids=SCALAR_IDS + ONE_FORM_IDS)
def test_array_methods_on_a_grid_equal_the_per_point_values(cls, name, coeffs, kappa):
    # the reshape path of the orbit-space average's (centres, nodes, dim) grids;
    # one point rounds as many only while no formula has a dot product or a
    # pow: with them, 10 of 20,000 hyperbolic_bump and 613 of 2,000
    # sphere_harmonic_axis points (rng 11) differed in the last bit
    surface, qs = points(kappa, n=2000)
    field = cls(name, coeffs)
    grid = np.array(qs).reshape(40, 50, -1)
    methods = ((field.value, field.differential) if cls is ScalarField
               else (field.density, field.components))
    for method in methods:
        got = method(surface, grid)
        want = np.array([method(surface, q) for q in qs])
        assert got.shape == (40, 50) + want.shape[1:]
        assert np.array_equal(got.reshape(want.shape), method(surface, np.array(qs)))
        assert np.array_equal(got.reshape(want.shape), want)


@pytest.mark.parametrize("name,coeffs,kappa", SCALAR_CASES, ids=SCALAR_IDS)
def test_scalar_derivatives_match_central_differences(name, coeffs, kappa):
    surface, qs = points(kappa, n=40)
    value, diff = ScalarField(name, coeffs).formulas(surface)
    dim, h = surface.dim, 1e-6
    for q in qs:
        for j, e in enumerate(np.eye(dim) * h):
            d_val = (on_floats(value, q + e) - on_floats(value, q - e)) / (2 * h)
            assert on_floats(diff, q)[j] == pytest.approx(d_val, abs=1e-7)


def area_density(surface, q):
    """sigma0 over the chart's coordinate area element at q: 1 on the torus,
    w(rho) = sinh(sqrt(-kappa) rho) / sqrt(-kappa) on the hyperbolic chart."""
    if surface.kappa == 0.0:
        return 1.0
    sk = np.sqrt(-surface.kappa)
    return np.sinh(sk * q[0]) / sk


@pytest.mark.parametrize("name,coeffs,kappa", ONE_FORM_CASES, ids=ONE_FORM_IDS)
def test_density_gradient_matches_central_differences(name, coeffs, kappa):
    # the density is d(eta)/sigma0: the antisymmetric part of the gradient of
    # the components, here by central differences, over the area element; on
    # the sphere the components are an ambient covector, whose curl along the
    # unit normal is the density
    surface, qs = points(kappa, n=40)
    comp, density = OneForm(name, coeffs).formulas(surface)
    h = 1e-6
    for q in qs:
        grad = np.array([(np.array(on_floats(comp, q + e)) - np.array(on_floats(comp, q - e)))
                         / (2 * h) for e in np.eye(len(q)) * h])     # grad[i, j] = d_i eta_j
        curl = grad.T - grad
        if len(q) == 3:
            n = q / np.linalg.norm(q)
            fd = curl[2, 1] * n[0] + curl[0, 2] * n[1] + curl[1, 0] * n[2]
        else:
            fd = curl[1, 0] / area_density(surface, q)
        assert on_floats(density, q) == pytest.approx(fd, abs=1e-7)


def test_hyperbolic_density_gradient_at_the_origin():
    surface = make_model(-1.0, 2.0).surface
    eta = OneForm("hyperbolic_eta_radial", (0.8,))
    _, density = eta.formulas(surface)
    origin = np.array([0.0, 0.3])
    assert on_floats(density, origin) == 1.6
    # the density is even in rho, so its gradient vanishes at the origin:
    # rho -> -rho is the same point with phi turned by pi
    h = 1e-4
    for e in np.eye(2) * h:
        assert on_floats(density, origin + e) == on_floats(density, origin - e)
    assert abs(on_floats(density, origin + (h, 0.0)) - 1.6) / h < 1e-3    # no kink
    # the same formula on a column of points, finite at the origin
    col = np.array([[0.0, 0.4], [0.3, 0.3]])
    assert np.isfinite(density(col)).all()
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
