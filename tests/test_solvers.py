"""The owned DOP853 and brentq against scipy, bit for bit.

_solvers repeats scipy's solve_ivp(method="DOP853", dense_output=True)
with its terminal-event rule, OdeSolution and scipy.optimize.brentq
operation for operation, so every
number here is compared with ==, never with a tolerance. scipy is the
oracle: it is imported by these tests only.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.integrate._ivp import dop853_coefficients as scipy_tableau
from scipy.optimize import brentq as scipy_brentq

from revgeo import _solvers, central_force, dynamics
from revgeo.dynamics import IntegratorConfig, initial_state_from_angle, integrate
from revgeo.errors import IntegrationError
from revgeo.surface import SurfaceSpec

SURFACES = {"ring": (2.0, 1.0), "horn": (1.0, 1.0), "apple": (0.5, 1.0),
            "lemon": (-0.5, 1.0)}
LAUNCHES = (0.0, 0.7, np.pi / 2.0)
SPANS = (25.0, -25.0, 0.0)
TOLERANCES = ((1e-10, 1e-12), (1e-12, 1e-13))


def test_tableau_equals_scipy():
    for name in ("A", "B", "C", "D", "E3", "E5"):
        assert np.array_equal(getattr(_solvers, name), getattr(scipy_tableau, name)), name
    assert _solvers.N_STAGES == scipy_tableau.N_STAGES
    assert _solvers.N_STAGES_EXTENDED == scipy_tableau.N_STAGES_EXTENDED
    assert _solvers.INTERPOLATOR_POWER == scipy_tableau.INTERPOLATOR_POWER


class _ScipyDense:
    """scipy's OdeSolution behind the interface dynamics uses."""

    def __init__(self, sol):
        self.sol = sol

    def __call__(self, t):
        return self.sol(t)


def _scipy_trace(spec, cfg, state0, monkeypatch):
    """The trace that scipy's stepper, dense output and brentq give on the
    reduced system, with ell fixed at its launch value."""
    ell = float(dynamics.conserved(spec, state0).ell)
    sol = solve_ivp(dynamics._rhs, (0.0, cfg.max_lambda), state0.as_array()[:3],
                    args=(spec, ell), method="DOP853", rtol=cfg.rel_tol,
                    atol=cfg.abs_tol, dense_output=True)
    run = SimpleNamespace(t=sol.t, y=sol.y, dense=_ScipyDense(sol.sol),
                          success=sol.success, message=sol.message)
    with monkeypatch.context() as m:
        m.setattr(dynamics, "brentq", scipy_brentq)
        trace = dynamics._build_trace(spec, cfg, run, ell)
        trace.events                    # located on first read: with scipy's brentq
        return sol, trace


def _owned_trace(spec, cfg, state0, monkeypatch):
    """integrate() with its right-hand-side calls counted."""
    calls = [0]
    rhs = dynamics._rhs

    def counted(lam, y, spec, ell):
        calls[0] += 1
        return rhs(lam, y, spec, ell)

    with monkeypatch.context() as m:
        m.setattr(dynamics, "_rhs", counted)
        trace = integrate(spec, state0, cfg)
    return trace, calls[0]


@pytest.mark.parametrize("tol", TOLERANCES, ids=("rtol1e-10", "rtol1e-12"))
@pytest.mark.parametrize("span", SPANS, ids=("forward", "backward", "zero"))
@pytest.mark.parametrize("beta0", LAUNCHES, ids=("meridian", "mid", "equator"))
@pytest.mark.parametrize("family", sorted(SURFACES))
def test_integrate_equals_solve_ivp(family, beta0, span, tol, monkeypatch):
    spec = SurfaceSpec(*SURFACES[family])
    state0 = initial_state_from_angle(spec, beta0)
    cfg = IntegratorConfig(rel_tol=tol[0], abs_tol=tol[1], max_lambda=span)
    sol, ref = _scipy_trace(spec, cfg, state0, monkeypatch)
    trace, nfev = _owned_trace(spec, cfg, state0, monkeypatch)

    assert np.array_equal(trace.lam, sol.t)
    assert np.array_equal(trace.states[:3], sol.y)
    assert np.array_equal(trace.states, ref.states)
    assert nfev == sol.nfev
    if span != 0.0:
        F = np.array([ip.F for ip in sol.sol.interpolants])
        assert np.array_equal(trace.reduced.F, F)
    assert [(e.kind, e.lam, e.state) for e in trace.events] == \
        [(e.kind, e.lam, e.state) for e in ref.events]
    assert trace.e_drift == ref.e_drift
    assert (trace.success, trace.message) == (sol.success, sol.message)
    if span == 25.0 and beta0 == 0.7:
        assert trace.events


@pytest.mark.parametrize("span", (30.0, -30.0, 0.0))
def test_dense_output_equals_ode_solution(ring, span):
    state0 = initial_state_from_angle(ring, 0.47)
    cfg = IntegratorConfig(rel_tol=1e-11, abs_tol=1e-12, max_lambda=span)
    trace = integrate(ring, state0, cfg)
    sol = solve_ivp(dynamics._rhs, (0.0, span), state0.as_array()[:3],
                    args=(ring, trace.ell), method="DOP853", rtol=1e-11, atol=1e-12,
                    dense_output=True).sol

    def vtheta(r):
        return trace.ell / ring.R(r) ** 2

    rng = np.random.default_rng(5)
    inside = np.linspace(0.0, span, 301)
    outside = np.array([-1.0, 1.0, span - 1.0, span + 1.0])
    points = {
        "sorted": inside,
        "reversed": inside[::-1],
        "unsorted": rng.permutation(np.concatenate([inside, trace.lam, outside])),
        "boundaries": trace.lam,
        "outside": outside,
    }
    for name, ts in points.items():
        got = trace.dense(ts)
        assert got.shape == (4, len(ts)) and got.flags.c_contiguous, name
        assert np.array_equal(got[:3], sol(ts)), name
        assert np.array_equal(got[3], vtheta(got[0])), name
    for t in [*trace.lam, *inside[::7], *outside]:
        for at in (t, float(t)):
            got = trace.dense(at)
            assert np.array_equal(got[:3], sol(at)), t
            assert got[3] == vtheta(got[0]), t


def test_dop853_equals_solve_ivp_when_the_step_size_underflows():
    # y' = y^2 blows up at t = 1: both stop with the same partial run
    def blow_up(t, y):
        return np.array([y[0] * y[0], -y[1]])

    calls = [0]

    def counted(t, y):
        calls[0] += 1
        return blow_up(t, y)

    y0 = np.array([1.0, 2.0])
    run = _solvers.dop853(counted, 0.0, 2.0, y0, 1e-10, 1e-12)
    sol = solve_ivp(blow_up, (0.0, 2.0), y0, method="DOP853", rtol=1e-10,
                    atol=1e-12, dense_output=True)
    assert not sol.success and not run.success
    assert run.message == sol.message == _solvers.TOO_SMALL_STEP
    assert np.array_equal(run.t, sol.t) and np.array_equal(run.y, sol.y)
    assert calls[0] == sol.nfev
    ts = np.linspace(0.0, float(sol.t[-1]), 50)
    assert np.array_equal(run.dense(ts), sol.sol(ts))


def test_integration_error_carries_the_partial_trace(ring, monkeypatch):
    def blow_up(lam, y, spec, ell):
        return np.array([y[2] * y[2], 0.0, y[2] * y[2]])

    monkeypatch.setattr(dynamics, "_rhs", blow_up)
    state0 = dynamics.GeodesicState(0.0, 0.0, 1.0, 0.2)
    with pytest.raises(IntegrationError, match=_solvers.TOO_SMALL_STEP) as info:
        integrate(ring, state0, IntegratorConfig(max_lambda=3.0))
    partial = info.value.trace
    sol = solve_ivp(blow_up, (0.0, 3.0), state0.as_array()[:3], args=(ring, partial.ell),
                    method="DOP853", rtol=1e-10, atol=1e-12)
    assert not partial.success and partial.message == sol.message
    assert np.array_equal(partial.lam, sol.t)
    assert np.array_equal(partial.states[:3], sol.y)
    assert 0.0 < partial.lam[-1] < 3.0


def test_too_small_rtol_is_raised_with_a_warning():
    def decay(t, y):
        return -y

    with pytest.warns(UserWarning, match="rtol"):
        run = _solvers.dop853(decay, 0.0, 1.0, np.array([1.0]), 1e-16, 1e-20)
    with pytest.warns(UserWarning, match="rtol"):
        sol = solve_ivp(decay, (0.0, 1.0), [1.0], method="DOP853", rtol=1e-16,
                        atol=1e-20)
    assert np.array_equal(run.t, sol.t) and np.array_equal(run.y, sol.y)


# -- the terminal event ------------------------------------------------------------

def _oscillator(t, y):
    return np.array([y[1], -y[0]])


# (event level c of g = s (y[0] - c), sign s, span): y[0] = cos t from y0 = (1, 0)
EVENT_CASES = {
    "down": (0.3, 1.0, 10.0),
    "none": (-2.0, 1.0, 10.0),
    "up-ignored": (0.3, -1.0, 4.0),        # 0.3 - cos t rises through 0 at 1.27
    "up-then-down": (0.3, -1.0, 10.0),     # ... and falls through it at 5.02
    "first-step": (1.0 - 1e-6, 1.0, 10.0),
    "at-start": (1.0, 1.0, 10.0),          # g(t0) = 0: the root is t0 itself
    "backward": (0.3, 1.0, -10.0),
}


@pytest.mark.parametrize("case", sorted(EVENT_CASES))
def test_dop853_event_equals_solve_ivp(case):
    level, sign, span = EVENT_CASES[case]

    def g(t, y):
        return sign * (y[0] - level)
    g.terminal, g.direction = True, -1

    calls = [0]

    def counted(t, y):
        calls[0] += 1
        return _oscillator(t, y)

    y0 = np.array([1.0, 0.0])
    run = _solvers.dop853(counted, 0.0, span, y0, 1e-10, 1e-12, event=g)
    for dense_output in (False, True):
        sol = solve_ivp(_oscillator, (0.0, span), y0, method="DOP853", rtol=1e-10,
                        atol=1e-12, events=g, dense_output=dense_output)
        assert np.array_equal(run.t, sol.t) and np.array_equal(run.y, sol.y)
        assert (run.success, run.message) == (sol.success, sol.message)
    assert calls[0] == sol.nfev         # dop853 forms the dense output by default
    captured = sol.t_events[0]
    assert (run.t_event is None) == (captured.size == 0)
    if run.t_event is not None:
        assert run.t_event == captured[0] == run.t[-1]
        assert np.array_equal(run.y[:, -1], sol.y_events[0][0])
        t_old = run.t[-2]
        cut = np.linspace(t_old, run.t_event, 41)
        assert np.array_equal(run.dense(cut), sol.sol(cut))
        for t in cut[::8]:
            assert np.array_equal(run.dense(t), sol.sol(t))
        # the cut step keeps the interpolant of its full length
        assert run.dense.h[-1] == sol.sol.interpolants[-1].h
    if case == "first-step":
        assert len(run.t) == 2
    if case == "at-start":
        assert run.t.tolist() == [0.0, 0.0]
    if case in ("none", "up-ignored"):
        assert run.t[-1] == span


def test_dop853_event_on_a_zero_span():
    def g(t, y):
        return y[0] - 1.0
    g.terminal, g.direction = True, -1

    y0 = np.array([1.0, 0.0])
    run = _solvers.dop853(_oscillator, 0.0, 0.0, y0, 1e-10, 1e-12, event=g)
    sol = solve_ivp(_oscillator, (0.0, 0.0), y0, method="DOP853", rtol=1e-10,
                    atol=1e-12, events=g)
    assert np.array_equal(run.t, sol.t) and np.array_equal(run.y, sol.y)
    assert run.t_event == sol.t_events[0][0] == 0.0


@pytest.mark.parametrize("case", sorted(EVENT_CASES))
def test_dop853_without_dense_output_equals_solve_ivp(case):
    level, sign, span = EVENT_CASES[case]

    def g(t, y):
        return sign * (y[0] - level)
    g.terminal, g.direction = True, -1

    calls = [0]

    def counted(t, y):
        calls[0] += 1
        return _oscillator(t, y)

    y0 = np.array([1.0, 0.0])
    run = _solvers.dop853(counted, 0.0, span, y0, 1e-10, 1e-12, event=g,
                          dense_output=False)
    sol = solve_ivp(_oscillator, (0.0, span), y0, method="DOP853", rtol=1e-10,
                    atol=1e-12, events=g)
    assert np.array_equal(run.t, sol.t) and np.array_equal(run.y, sol.y)
    assert (run.success, run.message) == (sol.success, sol.message)
    assert calls[0] == sol.nfev
    assert run.dense is None
    captured = sol.t_events[0]
    assert (run.t_event is None) == (captured.size == 0)
    if run.t_event is not None:
        assert run.t_event == captured[0] == run.t[-1]


# -- the right-hand-side contract and the closure configuration ---------------------

def _forced(t, y):
    """A nonlinear three-dimensional system; its derivative as Python floats."""
    u, v, w = y.tolist()
    return v, -math.sin(u) + 0.3 * math.cos(t) * w, -0.5 * u * v


RETURN_TYPES = {"tuple": tuple, "list": list, "ndarray": np.array}


@pytest.mark.parametrize("span", (30.0, -30.0, 0.0), ids=("forward", "backward", "zero"))
@pytest.mark.parametrize("kind", sorted(RETURN_TYPES))
def test_rhs_may_return_any_sequence(kind, span):
    convert = RETURN_TYPES[kind]
    calls = [0]

    def fun(t, y):
        calls[0] += 1
        return convert(_forced(t, y))

    y0 = np.array([0.4, 0.0, 1.0])
    run = _solvers.dop853(fun, 0.0, span, y0, 1e-11, 1e-12)
    sol = solve_ivp(lambda t, y: np.array(_forced(t, y)), (0.0, span), y0,
                    method="DOP853", rtol=1e-11, atol=1e-12, dense_output=True)
    assert np.array_equal(run.t, sol.t) and np.array_equal(run.y, sol.y)
    assert calls[0] == sol.nfev
    if span != 0.0:
        F = np.array([ip.F for ip in sol.sol.interpolants])
        assert np.array_equal(run.dense.F, F)


def test_closure_long_ray_equals_solve_ivp(monkeypatch):
    # a ray of the closure benchmark's long kind: a ring, lambda = 500 at
    # rtol 1e-12, atol 1e-13, some three thousand steps
    rng = np.random.default_rng(11)
    b, c = rng.uniform(0.5, 2.0), rng.uniform(0.2, 3.0)
    spec = SurfaceSpec((c + 1.0) * b, b)
    state0 = initial_state_from_angle(spec, rng.uniform(0.05, 1.5))
    cfg = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-13, max_lambda=500.0)
    sol, ref = _scipy_trace(spec, cfg, state0, monkeypatch)
    trace, nfev = _owned_trace(spec, cfg, state0, monkeypatch)

    assert len(trace.lam) > 2000
    assert np.array_equal(trace.lam, sol.t)
    assert np.array_equal(trace.states[:3], sol.y)
    assert np.array_equal(trace.states, ref.states)
    assert nfev == sol.nfev
    assert trace.e_drift == ref.e_drift


def _solve_ivp_orbit(params, ell, r0, vr0, t_max):
    """integrate_orbit as it ran on scipy's solve_ivp, with its defaults
    theta0 = 0, rtol 1e-10, atol 1e-12 and capture floor 1e-3 r0; returns
    the orbit and solve_ivp's count of right-hand-side calls."""
    k1, k2 = params.k1, params.k2
    r_floor = 1e-3 * r0

    def rhs(t, y):
        r = y[0]
        return [y[2],
                ell / r ** 2,
                ell ** 2 / r ** 3 - k1 / r ** 2 - 3.0 * k2 / r ** 4]

    def hit_floor(t, y):
        return y[0] - r_floor
    hit_floor.terminal = True
    hit_floor.direction = -1

    sol = solve_ivp(rhs, (0.0, t_max), [r0, 0.0, vr0], method="DOP853",
                    rtol=1e-10, atol=1e-12, events=hit_floor, dense_output=False)
    E0 = 0.5 * vr0 ** 2 + central_force.total_potential(params, ell, r0)
    kinetic = 0.5 * sol.y[2] ** 2
    V_path = central_force.total_potential(params, ell, sol.y[0])
    scale = np.maximum(np.maximum(abs(E0), kinetic + np.abs(V_path)), 1e-300)
    drift = (float(np.max(np.abs(kinetic + V_path - E0) / scale))
             if sol.y.shape[1] else 0.0)
    return central_force.PlaneOrbit(sol.t, sol.y[0], sol.y[1], sol.y[2],
                                    bool(sol.t_events[0].size), drift), sol.nfev


def _orbit_cases(count=48):
    rng = np.random.default_rng(19)
    for i in range(count):
        k2 = 0.0 if i % 3 == 0 else rng.uniform(1e-4, 0.05)
        # every other case starts deep inside, where k2 > 0 mostly plunges
        r0 = rng.uniform(0.005, 0.1) if i % 2 else rng.uniform(0.5, 3.0)
        t_max = (0.0, -rng.uniform(1.0, 40.0), rng.uniform(1.0, 80.0))[i % 6 // 2]
        yield (central_force.ForceParams(rng.uniform(0.2, 2.0), k2),
               rng.uniform(0.3, 1.5), r0, rng.uniform(-0.8, 0.8), t_max)


def test_integrate_orbit_equals_solve_ivp(monkeypatch):
    calls = [0]
    dop853 = _solvers.dop853

    def counted_dop853(fun, *args, **kwargs):
        def counted(t, y):
            calls[0] += 1
            return fun(t, y)
        return dop853(counted, *args, **kwargs)

    monkeypatch.setattr(_solvers, "dop853", counted_dop853)
    captures = spans = 0
    for args in _orbit_cases():
        calls[0] = 0
        got = central_force.integrate_orbit(*args)
        want, nfev = _solve_ivp_orbit(*args)
        for name in ("t", "r", "theta", "vr"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), (name, args)
        assert (got.captured, got.e_drift) == (want.captured, want.e_drift), args
        # no dense output: only a step cut by the capture forms its interpolant
        assert calls[0] == nfev, args
        captures += got.captured
        spans += args[-1] <= 0.0
    assert captures >= 8 and spans >= 16


# -- brentq ----------------------------------------------------------------------

FUNCTIONS = {
    "cubic": lambda x, p: x ** 3 - p,
    "tanh": lambda x, p: np.tanh(40.0 * (x - p)),
    "sine": lambda x, p: np.sin(3.0 * x) - p,                 # not monotone
    "wiggle": lambda x, p: (x - p) * (1.0 + 0.9 * np.cos(25.0 * x)),
    "double": lambda x, p: (x - p) * (x + p) * (x - 2.0 * p),   # three roots
    "step": lambda x, p: -1.0 if x < p else 1.0,               # no continuity
    "tiny": lambda x, p: 1e-300 * (x - p),                     # products underflow
    "exp": lambda x, p: np.exp(x) - 1.0 - p,
}


def _outcome(solver, f, a, b, **kwargs):
    try:
        return ("root", solver(f, a, b, **kwargs))
    except (ValueError, RuntimeError) as exc:
        return ("error", type(exc))


@settings(derandomize=True, max_examples=400, deadline=None)
@given(name=st.sampled_from(sorted(FUNCTIONS)),
       p=st.floats(-0.9, 0.9),
       a=st.floats(-3.0, 3.0), b=st.floats(-3.0, 3.0),
       xtol=st.sampled_from([2e-12, 1e-15, 1e-13, 1e-8, 1e-3]),
       rtol=st.sampled_from([4 * np.finfo(float).eps, 8.9e-16, 1e-12, 1e-6]),
       maxiter=st.sampled_from([100, 40, 5, 1, 0]))
def test_brentq_equals_scipy(name, p, a, b, xtol, rtol, maxiter):
    f = lambda x: FUNCTIONS[name](x, p)   # noqa: E731
    kwargs = dict(xtol=xtol, rtol=rtol, maxiter=maxiter)
    got = _outcome(_solvers.brentq, f, a, b, **kwargs)
    want = _outcome(scipy_brentq, f, a, b, **kwargs)
    assert got == want
    if got[0] == "root":
        assert type(got[1]) is float


@pytest.mark.parametrize("kwargs", [
    dict(xtol=0.0), dict(xtol=-1e-12), dict(rtol=1e-16), dict(rtol=0.0),
])
def test_brentq_rejects_tolerances_like_scipy(kwargs):
    f = lambda x: x - 0.25   # noqa: E731
    with pytest.raises(ValueError):
        scipy_brentq(f, 0.0, 1.0, **kwargs)
    with pytest.raises(ValueError):
        _solvers.brentq(f, 0.0, 1.0, **kwargs)


@pytest.mark.parametrize("f", [
    lambda x: x + 1.0,                                   # same signs
    lambda x: 1e-200,                                    # same signs, tiny
    lambda x: float("nan"),                              # NaN at an end
    lambda x: float("nan") if 0.1 < x < 0.9 else x - 0.5,  # NaN inside
])
def test_brentq_value_errors_like_scipy(f):
    with pytest.raises(ValueError):
        scipy_brentq(f, 0.0, 1.0)
    with pytest.raises(ValueError):
        _solvers.brentq(f, 0.0, 1.0)


def test_brentq_runtime_error_like_scipy():
    f = lambda x: np.tanh(40.0 * (x - 1.0 / 3.0))   # noqa: E731
    with pytest.raises(RuntimeError):
        scipy_brentq(f, 0.0, 1.0, maxiter=3)
    with pytest.raises(RuntimeError):
        _solvers.brentq(f, 0.0, 1.0, maxiter=3)
