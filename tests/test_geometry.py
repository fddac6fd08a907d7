import ast
import math
import pickle
from pathlib import Path

import numpy as np
import pytest

from magsys_lab import (QuadratureFailure, StepFailure, ValidationError,
                        ZollRegimeViolation, conformal_perturb, flow, g_dot,
                        g_norm, make_model, make_surface, reference_period,
                        riemannian_volume, state_distance, tangent_state,
                        with_sigma_perturbation)
from magsys_lab.geometry import HyperbolicChart, SphereChart, TangentState

from instruments import random_state, sigma0, stencil_curvature


def models():
    return [make_model(1.0, 1.0), make_model(-1.0, 2.0), make_model(0.0, 1.0)]


class TestMakeModel:
    def test_sphere_valid(self):
        sys = make_model(1.0, 1.0)
        assert isinstance(sys.surface, SphereChart)

    def test_hyperbolic_valid(self):
        sys = make_model(-1.0, 2.0)
        assert isinstance(sys.surface, HyperbolicChart)

    def test_horocycle_threshold_rejected(self):
        # s^2 + kappa = 0 exactly: the boundary case must fail
        with pytest.raises(ZollRegimeViolation):
            make_model(-1.0, 1.0)

    def test_below_threshold_rejected(self):
        with pytest.raises(ZollRegimeViolation):
            make_model(-4.0, 1.0)

    @pytest.mark.parametrize("kappa", [math.nan, math.inf, -math.inf])
    def test_non_finite_kappa_refused(self, kappa):
        # no chart fits: nan once read as the torus and inf as a sphere of radius 0
        with pytest.raises(ValidationError, match="kappa must be finite"):
            make_surface(kappa)


class TestSurfaceIdentity:
    """A surface is its chart object, equal and hashed by class and kappa."""

    def test_equal_models_have_equal_surfaces(self):
        a, b = make_model(1.0, 1.0).surface, make_model(1.0, 1.0).surface
        assert a is not b
        assert a == b and hash(a) == hash(b)

    def test_kappa_and_chart_tell_surfaces_apart(self):
        sphere, sphere4, torus = (make_model(k, 1.0).surface for k in (1.0, 4.0, 0.0))
        assert sphere != sphere4 and sphere != torus
        assert len({sphere, sphere4, torus}) == 3

    @pytest.mark.parametrize("sys", models(), ids=["sphere", "hyperbolic", "torus"])
    def test_system_pickles_to_an_equal_system(self, sys):
        # systems are values: a pickled copy is equal and hashes alike
        field = {1.0: "sphere_harmonic_z", -1.0: "const", 0.0: "torus_cos_x"}[sys.kappa]
        sysp = conformal_perturb(sys, field, 0.05, normalize=True)
        for s in (sys, sysp):
            back = pickle.loads(pickle.dumps(s))
            assert back == s and hash(back) == hash(s)
        assert sysp != sys


# probe radii keep 0.3 from the sphere's poles and 0.2 from the hyperbolic origin
PROBE_RADII = [(0.3, math.pi - 0.3), (0.2, 2.5), (0.0, 2 * math.pi)]


@pytest.mark.parametrize("sys,radii", zip(models(), PROBE_RADII),
                         ids=["sphere", "hyperbolic", "torus"])
def test_curvature_probe_matches_kappa(sys, radii):
    r = np.random.default_rng(7).uniform(*radii, size=100)
    ks = stencil_curvature(sys.surface, r)
    assert np.max(np.abs(ks - sys.kappa)) < 1e-8


class TestVolume:
    def test_unit_sphere_area(self):
        assert riemannian_volume(make_model(1.0, 1.0)) == pytest.approx(
            4 * math.pi, abs=1e-8)

    def test_torus_area(self):
        assert riemannian_volume(make_model(0.0, 1.0)) == pytest.approx(
            4 * math.pi**2, abs=1e-12)

    def test_hyperbolic_domain_area(self):
        sys = make_model(-1.0, 2.0)
        expected = 2 * math.pi * (math.cosh(sys.surface.domain_rho) - 1)
        assert riemannian_volume(sys) == pytest.approx(expected, rel=1e-9)
        assert sys.surface.area() == pytest.approx(expected, rel=1e-15)

    def test_normalized_sphere_volume(self):
        sys = conformal_perturb(make_model(1.0, 1.0), "sphere_harmonic_z",
                                0.05, normalize=True)
        assert riemannian_volume(sys) == pytest.approx(4 * math.pi, abs=1e-8)

    def test_normalization_constant_closed_form(self):
        # for u = z on the unit sphere the normalizing constant is
        # 2 eps / sinh(2 eps), by direct integration of e^{2 eps z}
        eps = 0.05
        sys = conformal_perturb(make_model(1.0, 1.0), "sphere_harmonic_z",
                                eps, normalize=True)
        assert sys.conformal_scale == pytest.approx(
            2 * eps / math.sinh(2 * eps), rel=1e-10)

    def test_unmet_tolerance_raises(self):
        # the two largest rules agree to rounding, far above 1e-20 relative
        sys = conformal_perturb(make_model(1.0, 1.0), "sphere_harmonic_z", 0.05,
                                normalize=False)
        with pytest.raises(QuadratureFailure, match="256 and 512 nodes"):
            riemannian_volume(sys, rel_tol=1e-20)

    def test_constant_conformal_scaling_law(self):
        # u = const c scales the area by exactly e^{2 eps c}
        from magsys_lab import ScalarField
        base = make_model(0.0, 1.0)
        eps, c = 0.3, 0.7
        sys = conformal_perturb(base, ScalarField("const", (c,)), eps,
                                normalize=False)
        got = riemannian_volume(sys)
        assert got == pytest.approx(math.exp(2 * eps * c) * 4 * math.pi**2,
                                    rel=1e-10)


class TestConformalPerturb:
    def test_eps_zero_is_identity(self):
        # so a system that carries a field always has eps != 0
        sys = make_model(1.0, 1.0)
        assert conformal_perturb(sys, "sphere_harmonic_z", 0.0, True) is sys
        assert with_sigma_perturbation(sys, "sphere_eta_axial", eps=0.0) is sys
        assert with_sigma_perturbation(sys, "sphere_eta_axial") is sys

    def test_unnormalized_keeps_scale_one(self):
        sys = conformal_perturb(make_model(1.0, 1.0), "sphere_harmonic_z",
                                0.05, normalize=False)
        assert sys.conformal_scale == 1.0
        assert not sys.volume_normalized

    def test_sigma_perturbation_keeps_the_conformal_eps(self):
        # a second eps would rescale u and leave the volume normalization
        # claiming vol_g = vol_g0 for a metric whose area is 12.88, not 4 pi
        sys = conformal_perturb(make_model(1.0, 1.0), "sphere_harmonic_z",
                                0.05, normalize=True)
        with pytest.raises(ValidationError, match="eps"):
            with_sigma_perturbation(sys, "sphere_eta_axial", eps=0.2)
        for eps in (None, 0.05):
            both = with_sigma_perturbation(sys, "sphere_eta_axial", eps=eps)
            assert both.conformal_eps == 0.05 and both.volume_normalized

    def test_conformal_perturbation_keeps_the_sigma_eps(self):
        # the mirror case: a conformal eps other than the 1-form's would
        # rescale eta, giving sigma0 + 0.05 d(eta) where 0.1 was asked
        sys = with_sigma_perturbation(make_model(1.0, 1.0), "sphere_eta_axial", eps=0.1)
        for normalize in (True, False):
            with pytest.raises(ValidationError, match="share one eps"):
                conformal_perturb(sys, "sphere_harmonic_z", 0.05, normalize)
        both = conformal_perturb(sys, "sphere_harmonic_z", 0.1, normalize=True)
        assert both.conformal_eps == 0.1 and both.sigma_perturbation is not None


class TestComplexStructure:
    @pytest.mark.parametrize("sys", models(), ids=["sphere", "hyperbolic", "torus"])
    def test_j_squared_isometry_positivity(self, sys):
        rng = np.random.default_rng(11)
        for _ in range(100):
            st = random_state(sys, rng)
            q, v = st.position, st.velocity
            jv = sys.surface.rotate90(q, v)
            jjv = sys.surface.rotate90(q, jv)
            assert np.max(np.abs(jjv + v)) < 1e-12
            assert abs(g_dot(sys, q, jv, jv) - g_dot(sys, q, v, v)) < 1e-12
            assert abs(g_dot(sys, q, jv, v)) < 1e-12
            assert sigma0(sys.surface, q, v, jv) > 0


def test_flat_torus_rotation_is_euclidean():
    sys = make_model(0.0, 1.0)
    jv = sys.surface.rotate90(np.array([1.0, 1.0]), np.array([1.0, 0.0]))
    assert np.allclose(jv, [0.0, 1.0])


class TestTangentState:
    def test_unit_norm_at_construction(self):
        sys = conformal_perturb(make_model(1.0, 1.0), "sphere_harmonic_z",
                                0.05, normalize=True)
        st = tangent_state(sys, [0.3, 0.4, 1.2], [1.0, 2.0, 3.0])
        assert abs(g_norm(sys, st.position, st.velocity) - 1.0) < 1e-10
        assert abs(np.linalg.norm(st.position) - 1.0) < 1e-12

    def test_zero_velocity_rejected(self):
        with pytest.raises(ValidationError):
            tangent_state(make_model(0.0, 1.0), [0.0, 0.0], [0.0, 0.0])

    def test_torus_distance_wraps(self):
        sys = make_model(0.0, 1.0)
        p = 2 * math.pi
        s1 = TangentState(np.array([0.01, 0.0]), np.array([1.0, 0.0]))
        s2 = TangentState(np.array([p - 0.01, 0.0]), np.array([1.0, 0.0]))
        assert state_distance(sys, s1, s2) == pytest.approx(0.02, abs=1e-14)

    def test_hyperbolic_origin_refused(self):
        # the polar chart is singular at rho = 0: a named StepFailure, which
        # a census skips, not a ZeroDivisionError inside the flow's kernel
        sys = make_model(-1.0, 2.0)
        with pytest.raises(StepFailure, match="rho = 0"):
            flow(sys, tangent_state(sys, [0.0, 0.0], [1.0, 0.0]), 1.0)

    def test_hyperbolic_phi_wraps(self):
        sys = make_model(-1.0, 2.0)
        q = sys.surface.wrap(np.array([0.5, 2 * math.pi + 0.1]), np.array([0.5, 0.0]))
        assert q[1] == pytest.approx(0.1, abs=1e-14)



@pytest.mark.parametrize("kappa,s", [(1.0, 1.0), (1.0, 0.7), (1.0, -0.7), (0.0, 1.0),
                                     (-1.0, 2.0)])
def test_zoll_circle_runs_through_the_zoll_state(kappa, s):
    # the flow from the Zoll state over each vertex of the drift's tiling
    # (off-origin centres on the hyperbolic chart) passes through the nodes of
    # its sampled circle at equal arc steps of one reference period, and every
    # node has unit g0-speed
    sys = make_model(kappa, s)
    surface = sys.surface
    starts, _, _ = surface.orbit_space_tiling(sys, drift=True)
    q, v = surface.zoll_circle(sys, starts, 16)
    assert q.shape == v.shape == (len(starts), 16, surface.dim)
    assert np.max(np.abs(g_norm(sys, q, v) - 1.0)) < 1e-12
    for i, c in enumerate(starts):
        traj = flow(sys, surface.zoll_state(sys, c), reference_period(sys), n_samples=16)
        for k in range(16):
            st = traj.state(k)
            assert np.max(np.abs(surface.wrap(st.position, q[i, k]) - q[i, k])) < 1e-8
            assert np.max(np.abs(st.velocity - v[i, k])) < 1e-8
    # the nodes advance along the velocity: central differences over the
    # arc step of 256 nodes, in the planar image, which is smooth where the
    # hyperbolic chart's circles pass near its origin
    q, v = surface.zoll_circle(sys, starts, 256)
    ds = 2.0 * math.pi / math.sqrt(s * s + kappa) / 256
    for i in range(len(starts)):
        dp = surface.to_plane(q[i, 1]) - surface.to_plane(q[i, -1])
        assert np.max(np.abs(dp / (2.0 * ds) - surface.plane_jacobian(q[i, 0]) @ v[i, 0])) < 1e-3


def package_functions():
    """(every function definition of the package, every attribute name it reads)."""
    package = Path(__file__).resolve().parent.parent / "src" / "magsys_lab"
    defs, names = [], set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef):
                defs.append(node)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return defs, names


def test_one_section_on_one_planar_image():
    # the Poincare section is written once, as a hyperplane of the charts'
    # planar images, with one normal: the velocity's planar image (on the
    # sphere R^3 itself)
    nodes, names = package_functions()
    defs = [node.name for node in nodes]
    assert defs.count("_section") == 1 and defs.count("_section_value") == 1
    assert defs.count("section_normal") == 1
    assert not {"_plane_image", "_lower", "plane_velocity"} & (set(defs) | names)


def test_one_cap_call_and_one_weight_arithmetic():
    # the cap's loop, centre and flux integrand come from one call, ``cap``;
    # w_wp takes the radius alone, with no choice of arithmetic
    nodes, names = package_functions()
    defs = {node.name for node in nodes}
    assert "cap" in defs
    assert not {"cap_loop", "green_integrand", "_cap_coordinates"} & (defs | names)
    w_wps = [node.args for node in nodes if node.name == "w_wp"]
    assert w_wps and all(len(a.args) == 2 and not (a.kwonlyargs or a.vararg or a.kwarg)
                         for a in w_wps)


def test_sphere_cross_product_is_numpy_s_bit_for_bit():
    from magsys_lab.geometry import _cross
    rng = np.random.default_rng(5)
    for shape_a, shape_b in [((3,), (3,)), ((7, 3), (3,)), ((4, 1, 3), (1, 6, 3))]:
        a, b = rng.normal(size=shape_a), rng.normal(size=shape_b)
        assert np.array_equal(_cross(a, b), np.cross(a, b))
