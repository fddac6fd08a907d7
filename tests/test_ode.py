"""The package's DOP853 stepper against scipy's: the same tableau, the same
steps (RHS calls) and the same numbers on the package's own closures."""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp as scipy_solve_ivp
from scipy.integrate._ivp import dop853_coefficients

from magsys_lab import StepFailure, dynamics, ode
from magsys_lab.dynamics import (flow, latitude_seed, pack_state, reference_period, rhs,
                                 stepper_tolerances)
from magsys_lab.geometry import tangent_state
from magsys_lab.orbits import _section_value, make_section

from test_orbits import perturbed_system

CHARTS = pytest.mark.parametrize("kappa", [1.0, 0.0, -1.0],
                                 ids=["sphere", "torus", "hyperbolic"])
RTOL, ATOL = stepper_tolerances(1e-10)


def reference(fun, t_span, y0, **kw):
    return scipy_solve_ivp(fun, t_span, y0, method="DOP853", rtol=RTOL, atol=ATOL, **kw)


def start(sys, tangents=0):
    """An off-orbit state of sys, with tangents columns carried after it."""
    y = pack_state(latitude_seed(sys)) + 1e-3
    return np.concatenate([y, np.linspace(0.1, 1.0, y.size * tangents)])


def with_tangents(f, n, tangents, h=1e-6):
    """The closure f of an n-state extended by tangents columns carried after
    it, each moved by central differences of f along itself: a larger state
    whose parts differ in scale, for the stepper's error norm."""
    if not tangents:
        return f

    def g(t, y):
        x, cols = y[:n], y[n:].reshape(tangents, n)
        moved = [(f(t, x + h * col) - f(t, x - h * col)) / (2 * h) for col in cols]
        return np.concatenate([f(t, x)] + moved)
    return g


@pytest.mark.parametrize("name", ["A", "B", "C", "E3", "E5", "D"])
def test_tableau_is_scipys_bit_for_bit(name):
    ours, theirs = getattr(ode, name), getattr(dop853_coefficients, name)
    assert ours.shape == theirs.shape
    assert ours.tobytes() == theirs.tobytes()


@CHARTS
@pytest.mark.parametrize("tangents", [0, 3])
@pytest.mark.parametrize("periods", [1.7, -0.9], ids=["forward", "backward"])
def test_same_steps_and_end_state(kappa, tangents, periods):
    sys = perturbed_system(kappa)
    t_span = (0.0, periods * reference_period(sys))
    f = with_tangents(rhs(sys), 2 * sys.surface.dim, tangents)
    y0 = start(sys, tangents)
    ref = reference(f, t_span, y0)
    sol = ode.solve_ivp(f, t_span, y0, rtol=RTOL, atol=ATOL)
    assert sol.success and sol.sol is None and sol.t_event is None
    assert sol.nfev == ref.nfev
    assert sol.t == ref.t[-1]
    assert np.max(np.abs(sol.y - ref.y[:, -1])) <= 1e-13


@CHARTS
@pytest.mark.parametrize("periods", [1.7, -0.9], ids=["forward", "backward"])
def test_dense_output(kappa, periods):
    sys = perturbed_system(kappa)
    t_span = (0.0, periods * reference_period(sys))
    f, y0 = rhs(sys), start(sys)
    ref = reference(f, t_span, y0, dense_output=True)
    sol = ode.solve_ivp(f, t_span, y0, rtol=RTOL, atol=ATOL, dense_output=True)
    assert sol.nfev == ref.nfev
    times = np.linspace(*t_span, 1025)
    assert sol.sol(times).shape == (y0.size, 1025)
    assert np.max(np.abs(sol.sol(times) - ref.sol(times))) <= 1e-13
    assert np.max(np.abs(sol.sol(t_span[1]) - sol.y)) <= 1e-13


def test_short_backward_burst():
    # measure_geodesic_curvature's solves: 2e-3 of arc length either way
    sys = perturbed_system(1.0)
    f, y0 = rhs(sys), start(sys)
    rtol, atol = stepper_tolerances(1e-12)
    for t1 in (-2e-3, 2e-3):
        ref = scipy_solve_ivp(f, (0.0, t1), y0, method="DOP853", rtol=rtol, atol=atol,
                              dense_output=True)
        sol = ode.solve_ivp(f, (0.0, t1), y0, rtol=rtol, atol=atol, dense_output=True)
        assert sol.nfev == ref.nfev
        times = np.linspace(0.0, t1, 3)
        assert np.max(np.abs(sol.sol(times) - ref.sol(times))) <= 1e-15


@CHARTS
def test_max_step(kappa):
    sys = perturbed_system(kappa)
    t_ref = reference_period(sys)
    f, y0 = rhs(sys), start(sys)
    free = ode.solve_ivp(f, (0.0, t_ref), y0, rtol=RTOL, atol=ATOL)
    ref = reference(f, (0.0, t_ref), y0, max_step=t_ref / 80)
    sol = ode.solve_ivp(f, (0.0, t_ref), y0, rtol=RTOL, atol=ATOL, max_step=t_ref / 80)
    # the cap binds: at least 80 steps of 12 RHS calls, more than a free solve makes
    assert sol.nfev >= 2 + 12 * 80 > free.nfev
    assert sol.nfev == ref.nfev
    assert np.max(np.abs(sol.y - ref.y[:, -1])) <= 1e-13


@CHARTS
def test_event_time_and_state(kappa):
    # return_map's second solve: from 0.3 reference periods, until the flow
    # crosses the seed's section upwards
    sys = perturbed_system(kappa)
    t_ref, d = reference_period(sys), sys.surface.dim
    seed = latitude_seed(sys)
    section = make_section(sys, seed)
    rng = np.random.default_rng(3)
    state = tangent_state(sys, seed.position + 1e-2 * rng.normal(size=d),
                          seed.velocity + 1e-2 * rng.normal(size=d))
    f = rhs(sys)
    y_head = ode.solve_ivp(f, (0.0, 0.3 * t_ref), pack_state(state), rtol=RTOL, atol=ATOL).y

    def event(t, y):
        return _section_value(sys, section, y[:d])

    event.terminal, event.direction = True, 1.0
    span = (0.3 * t_ref, 2.0 * t_ref)
    ref = reference(f, span, y_head, events=event, max_step=0.2 * t_ref)
    sol = ode.solve_ivp(f, span, y_head, rtol=RTOL, atol=ATOL, event=event,
                        max_step=0.2 * t_ref)
    assert sol.success and ref.status == 1
    assert sol.nfev == ref.nfev
    assert abs(sol.t_event - ref.t_events[0][0]) <= 1e-13
    assert sol.t == sol.t_event and np.array_equal(sol.y, sol.y_event)
    assert np.max(np.abs(sol.y_event - ref.y_events[0][0])) <= 1e-13
    assert abs(event(sol.t_event, sol.y_event)) <= 1e-13


def oscillator(t, y):
    return np.array([y[1], -y[0]])


def test_no_event_runs_to_the_end():
    def event(t, y):
        return -1.0

    sol = ode.solve_ivp(oscillator, (0.0, 1.0), [1.0, 0.0], rtol=RTOL, atol=ATOL, event=event)
    assert sol.success and sol.t == 1.0 and sol.t_event is None
    assert sol.y == pytest.approx([math.cos(1.0), -math.sin(1.0)], abs=1e-12)


def test_a_nan_midway_fails_as_scipys_does():
    def f(t, y):
        return np.full_like(y, np.nan) if t > 0.5 else oscillator(t, y)

    ref = reference(f, (0.0, 2.0), [1.0, 0.0])
    sol = ode.solve_ivp(f, (0.0, 2.0), [1.0, 0.0], rtol=RTOL, atol=ATOL)
    assert not sol.success and not ref.success
    assert sol.nfev == ref.nfev
    assert sol.t == ref.t[-1] < 0.5


def test_a_nan_closure_fails_flow(monkeypatch):
    # nan from the first call on makes every step size nan: the solve must
    # fail, not loop
    sys = perturbed_system(1.0)
    monkeypatch.setattr(dynamics, "rhs",
                        lambda sys: lambda t, y: np.full_like(y, np.nan))
    sol = ode.solve_ivp(dynamics.rhs(sys), (0.0, 1.0), start(sys), rtol=RTOL, atol=ATOL)
    assert not sol.success
    with pytest.raises(StepFailure):
        flow(sys, latitude_seed(sys), 1.0)


def test_empty_interval_keeps_the_state():
    sys = perturbed_system(1.0)
    start_state = latitude_seed(sys)
    traj = flow(sys, start_state, 0.0)
    assert traj.states.shape == (65, 6)
    assert (traj.states == pack_state(start_state)).all()
    assert (traj.times == 0.0).all()
