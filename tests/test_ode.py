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
from magsys_lab.orbits import _section, _section_value

from test_orbits import perturbed_system

CHARTS = pytest.mark.parametrize("kappa", [1.0, 0.0, -1.0],
                                 ids=["sphere", "torus", "hyperbolic"])
RTOL, ATOL = stepper_tolerances(1e-10)
STEP_TOO_SMALL = "the step size fell below the spacing of t"


def reference(fun, t_span, y0, **kw):
    return scipy_solve_ivp(fun, t_span, y0, method="DOP853", rtol=RTOL, atol=ATOL, **kw)


def start(sys, tangents=0):
    """An off-orbit state of sys, with tangents columns carried after it."""
    y = pack_state(latitude_seed(sys)) + 1e-3
    return np.concatenate([y, np.linspace(0.1, 1.0, y.size * tangents)])


def with_tangents(f, n, tangents, h=1e-6):
    """The closure f of an n-state extended by tangents columns carried after
    it, each moved by central differences of f along itself: a larger state
    whose parts differ in scale, for the stepper's error norm.  Like f, it
    takes y as any float sequence."""
    if not tangents:
        return f

    def g(t, y):
        y = np.asarray(y)
        x, cols = y[:n], y[n:].reshape(tangents, n)
        moved = [np.subtract(f(t, x + h * col), f(t, x - h * col)) / (2 * h) for col in cols]
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
    assert sol.y.tobytes() == ref.y[:, -1].tobytes()


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
    assert sol.sol(times).tobytes() == ref.sol(times).tobytes()
    assert sol.sol(t_span[1]).tobytes() == sol.y.tobytes()


@CHARTS
def test_dense_output_moves_no_step(kappa):
    # the dense-output stages are three more RHS calls after each accepted
    # step; an event that never fires is called once per accepted step
    sys = perturbed_system(kappa)
    t_span = (0.0, 1.7 * reference_period(sys))
    f, y0, accepted = rhs(sys), start(sys), []

    def count(t, y):
        accepted.append(t)
        return -1.0

    plain = ode.solve_ivp(f, t_span, y0, rtol=RTOL, atol=ATOL, event=count)
    dense = ode.solve_ivp(f, t_span, y0, rtol=RTOL, atol=ATOL, dense_output=True)
    assert plain.t == dense.t == t_span[1]
    assert plain.y.tobytes() == dense.y.tobytes()
    assert dense.nfev - plain.nfev == 3 * (len(accepted) - 1) > 0


@CHARTS
def test_dense_output_where_a_predicate_holds_at_the_end(kappa):
    # a predicate keep(t, y) in place of dense_output is asked once, at the
    # end: where it holds, the solve is the dense one, bit for bit and on as
    # many RHS calls; where it does not, the plain one, with no dense output
    sys = perturbed_system(kappa)
    t_span = (0.0, 1.7 * reference_period(sys))
    f, y0, asked = rhs(sys), start(sys), []
    dense = ode.solve_ivp(f, t_span, y0, rtol=RTOL, atol=ATOL, dense_output=True)
    plain = ode.solve_ivp(f, t_span, y0, rtol=RTOL, atol=ATOL)
    times = np.linspace(*t_span, 257)
    for holds, like in ((True, dense), (False, plain)):
        sol = ode.solve_ivp(f, t_span, y0, rtol=RTOL, atol=ATOL,
                            dense_output=lambda t, y: asked.append(t) is None and holds)
        assert (sol.t, sol.nfev, sol.y.tobytes()) == (like.t, like.nfev, like.y.tobytes())
        if holds:
            assert sol.sol(times).tobytes() == dense.sol(times).tobytes()
        else:
            assert sol.sol is None
    assert asked == [t_span[1]] * 2 and dense.nfev > plain.nfev


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
        assert sol.sol(times).tobytes() == ref.sol(times).tobytes()


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
    assert sol.y.tobytes() == ref.y[:, -1].tobytes()


@CHARTS
def test_event_time_and_state(kappa):
    # a solve from 0.3 reference periods until the flow crosses the seed's
    # section upwards
    sys = perturbed_system(kappa)
    t_ref, d = reference_period(sys), sys.surface.dim
    seed = latitude_seed(sys)
    section = _section(sys, seed)
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


@CHARTS
def test_stacked_solve_is_each_member_s_own(kappa):
    # two solves, a head and a tail with an event, on a stack of members from
    # different starts, so with different step counts: one from a nan state,
    # which fails, and one
    # whose event never fires, beside three that cross their sections; each
    # member is bit for bit its own solve, a failure included
    sys = perturbed_system(kappa)
    t_ref, d = reference_period(sys), sys.surface.dim
    seed, rng = latitude_seed(sys), np.random.default_rng(5)
    states = [tangent_state(sys, seed.position + a * rng.normal(size=d),
                            seed.velocity + a * rng.normal(size=d))
              for a in (1e-3, 3e-2, 0.1, 0.1, 0.2)]
    y0 = np.array([pack_state(st) for st in states])
    y0[3] = np.nan
    events = [lambda t, y, sec=_section(sys, st): _section_value(sys, sec, y[:d])
              for st in states]
    events[4] = lambda t, y: -1.0
    f, kw = rhs(sys), dict(rtol=RTOL, atol=ATOL, dense_output=True)
    head = ode.solve_ivp(f, (0.0, 0.3 * t_ref), y0, **kw)
    own_head = [ode.solve_ivp(f, (0.0, 0.3 * t_ref), y, **kw) for y in y0]
    y_head = np.array([r.y for r in head])
    span, kw["max_step"] = (0.3 * t_ref, 2.0 * t_ref), 0.2 * t_ref
    tail = ode.solve_ivp(f, span, y_head, event=events, **kw)
    assert [r.message for r in tail] == ["event"] * 3 + [STEP_TOO_SMALL, "end"]
    for stack, t1, own in ((head, 0.0, own_head),
                           (tail, span[0], [ode.solve_ivp(f, span, y, event=e, **kw)
                                            for y, e in zip(y_head, events)])):
        assert isinstance(stack, ode.OdeStack) and len(stack) == 5
        assert stack.nfev == sum(o.nfev for o in own)
        for r, o in zip(stack, own):
            assert (r.t, r.nfev, r.success, r.message, r.t_event) == \
                (o.t, o.nfev, o.success, o.message, o.t_event)
            assert r.y.tobytes() == o.y.tobytes()
            assert (r.y_event is None and o.y_event is None) or \
                r.y_event.tobytes() == o.y_event.tobytes()
            if o.success:
                times = np.linspace(t1, o.t, 257)
                assert r.sol(times).tobytes() == o.sol(times).tobytes()
            else:
                assert r.sol is o.sol is None and np.isnan(r.y).all()
    assert len({o.nfev for o in own}) == 5


@CHARTS
def test_stacked_late_stages_are_each_member_s_own(kappa):
    # return_map's solve on a stack: one solve to twice the reference period,
    # each member's event blind until 0.3 of it, and each member's predicate
    # deciding its dense output at the end.  A kept member's dense output is
    # its own solve's, bit for bit, the crossing step's stages computed
    # first and the rest in one batch; a member that keeps none costs what
    # its plain solve costs
    sys = perturbed_system(kappa)
    t_ref, d = reference_period(sys), sys.surface.dim
    seed, rng = latitude_seed(sys), np.random.default_rng(7)
    states = [tangent_state(sys, seed.position + a * rng.normal(size=d),
                            seed.velocity + a * rng.normal(size=d))
              for a in (1e-3, 3e-2, 0.1, 0.2)]
    y0 = np.array([pack_state(st) for st in states])
    events = [lambda t, y, sec=_section(sys, st):
              _section_value(sys, sec, y[:d]) if t >= 0.3 * t_ref else 1.0 for st in states]
    keeps = (True, False, True, False)
    f, span, kw = rhs(sys), (0.0, 2.0 * t_ref), dict(rtol=RTOL, atol=ATOL, max_step=0.2 * t_ref)
    stack = ode.solve_ivp(f, span, y0, event=events,
                          dense_output=[lambda t, y, k=k: k for k in keeps], **kw)
    assert [r.message for r in stack] == ["event"] * 4
    for r, y, event, keep in zip(stack, y0, events, keeps):
        own = ode.solve_ivp(f, span, y, event=event, dense_output=keep, **kw)
        assert (r.t, r.nfev, r.y.tobytes()) == (own.t, own.nfev, own.y.tobytes())
        if keep:
            times = np.linspace(0.0, r.t, 257)
            assert r.sol(times).tobytes() == own.sol(times).tobytes()
            assert r.nfev > ode.solve_ivp(f, span, y, event=event, **kw).nfev
        else:
            assert r.sol is None


def test_stacked_empty_interval():
    y0 = np.array([[1.0, 0.0], [0.0, 1.0]])
    stack = ode.solve_ivp(oscillator, (1.0, 1.0), y0, rtol=RTOL, atol=ATOL)
    assert stack.nfev == 0 and [r.message for r in stack] == ["empty interval"] * 2
    assert all(np.array_equal(r.y, y) for r, y in zip(stack, y0))
