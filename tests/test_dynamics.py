"""Geodesic flow: conserved quantities, event detection, angle laws."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from revgeo import _solvers, dynamics
from revgeo.dynamics import (INNER_EQUATOR, OUTER_EQUATOR, TURNING_POINT,
                             GeodesicState, IntegratorConfig, conserved,
                             initial_state_from_angle, integrate)
from revgeo.errors import DomainError, IntegrationError
from revgeo.integrals import arc_length_bound_period, orbit_angle
from revgeo.potential import critical_angles, turning_point
from revgeo.surface import SurfaceSpec

TIGHT = (1e-12, 1e-13)                  # (rel_tol, abs_tol)
# IntegratorConfig's defaults, which `revgeo geodesic` runs
DEFAULT = (IntegratorConfig().rel_tol, IntegratorConfig().abs_tol)


def _cfg(lam):
    return IntegratorConfig(rel_tol=TIGHT[0], abs_tol=TIGHT[1], max_lambda=lam)


def test_initial_state(ring):
    st = initial_state_from_angle(ring, 0.3)
    assert st.r == 0.0 and st.theta == 0.0
    assert st.vr == pytest.approx(np.cos(0.3), abs=1e-15)
    assert st.vtheta == pytest.approx(np.sin(0.3) / 3.0, abs=1e-15)
    c = conserved(ring, st)
    assert c.E == pytest.approx(0.5, abs=1e-14)          # unit speed
    assert c.ell == pytest.approx(3.0 * np.sin(0.3), abs=1e-14)
    assert c.clairaut == pytest.approx(c.ell, abs=1e-14)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_initial_state_rejects_non_finite_angle(ring, bad):
    with pytest.raises(DomainError, match="beta0"):
        initial_state_from_angle(ring, bad)


def _christoffel_rhs(lam, y, spec):
    """The geodesic equations in (r, theta, vr, vtheta), straight from the
    Christoffel symbols, vtheta integrated rather than formed from ell: an
    oracle for the reduced system, which holds ell fixed."""
    r, _, vr, vtheta = y.tolist()
    q = r / spec.b
    R = spec.a + spec.b * math.cos(q)
    Rp = -math.sin(q)
    if vtheta == 0.0:
        dvth = 0.0
    else:
        dvth = -2.0 * (Rp / R) * vr * vtheta
    return vr, vtheta, Rp * R * vtheta * vtheta, dvth


def _christoffel_run(spec, state0, cfg):
    return solve_ivp(_christoffel_rhs, (0.0, cfg.max_lambda), state0.as_array(),
                     args=(spec,), method="DOP853", rtol=cfg.rel_tol,
                     atol=cfg.abs_tol, dense_output=True)


def test_rhs_matches_christoffel(ring):
    r, vr, ell = 0.7, 0.4, 0.5
    st = GeodesicState(r=r, theta=0.2, vr=vr, vtheta=ell / ring.R(r) ** 2)
    d = dynamics._rhs(st.lam, st.as_array()[:3], ring, ell)
    want = _christoffel_rhs(st.lam, st.as_array(), ring)
    assert d[0] == want[0]
    assert d[1] == pytest.approx(want[1], rel=1e-15)
    assert d[2] == pytest.approx(want[2], rel=1e-14)
    # a meridian: no R division, so the horn's axis point is no singularity
    horn = SurfaceSpec(1.0, 1.0)
    assert dynamics._rhs(0.0, np.array([np.pi, 0.0, 1.0]), horn, 0.0) == (1.0, 0.0, 0.0)


def test_meridian_runs_the_profile_circle(ring):
    st = initial_state_from_angle(ring, 0.0)
    tr = integrate(ring, st, _cfg(2.0 * np.pi * ring.b))
    end = tr.state_at(2.0 * np.pi * ring.b)
    assert end.r == pytest.approx(2.0 * np.pi, abs=1e-9)
    assert end.theta == pytest.approx(0.0, abs=1e-12)


def test_outer_equator_stays_put(ring):
    st = initial_state_from_angle(ring, np.pi / 2.0)
    tr = integrate(ring, st, _cfg(10.0))
    lam = np.linspace(0.0, 10.0, 50)
    assert np.max(np.abs(tr.dense(lam)[0])) < 1e-10


def test_drift_reported_small(ring):
    st = initial_state_from_angle(ring, 0.47)
    tr = integrate(ring, st, _cfg(200.0))
    assert tr.e_drift < 1e-10


def test_turning_events_match_quadrature_turning_point(ring):
    beta0 = 0.5
    tp = turning_point(ring, beta0)
    st = initial_state_from_angle(ring, beta0)
    tr = integrate(ring, st, _cfg(40.0))
    turns = tr.events_of(TURNING_POINT)
    assert len(turns) >= 2
    for ev in turns:
        assert abs(abs(ev.state.r) / ring.b - tp.chi_max) < 1e-9
        assert abs(ev.state.vr) < 1e-10


def test_event_lambda_located_precisely(ring):
    # bisection on the dense output pins events to ~1e-12 in lambda
    st = initial_state_from_angle(ring, 0.2)
    tr = integrate(ring, st, _cfg(60.0))
    for ev in tr.events_of(INNER_EQUATOR):
        r_at = float(tr.dense(ev.lam)[0])
        assert abs(np.mod(r_at, 2.0 * np.pi * ring.b) - np.pi * ring.b) < 1e-9


def test_seven_loop_trace_crosses_inner_equator_seven_times(ring):
    # launch angle 0.119 from the outer equator: the near-closed unbound
    # geodesic threads the hole once per loop, seven loops per circuit
    st = initial_state_from_angle(ring, 0.119)
    tr = integrate(ring, st, _cfg(45.2))
    inner = tr.events_of(INNER_EQUATOR)
    assert len(inner) == 7


def test_crossing_angle_law_at_inner_equator(ring):
    # R(0) sin(beta0) = R(b pi) sin(beta) at every inner-equator passage
    beta0 = 0.119
    st = initial_state_from_angle(ring, beta0)
    tr = integrate(ring, st, _cfg(100.0))
    R0, Rin = ring.R(0.0), ring.R(np.pi * ring.b)
    inner = tr.events_of(INNER_EQUATOR)
    assert inner
    for ev in inner:
        sin_beta = ring.R(ev.state.r) * ev.state.vtheta   # unit speed
        assert abs(R0 * np.sin(beta0) - Rin * sin_beta) < 1e-8


def test_return_angle_law_at_outer_equator(ring):
    beta0 = 0.47
    st = initial_state_from_angle(ring, beta0)
    tr = integrate(ring, st, _cfg(120.0))
    outer = tr.events_of(OUTER_EQUATOR)
    assert len(outer) >= 3
    for ev in outer:
        sinb = ring.R(ev.state.r) * ev.state.vtheta
        # angle or its supplement: sine agrees either way
        assert abs(sinb - np.sin(beta0)) < 1e-8


def test_conservation_random_sample(ring, horn, spindle, rng):
    # short version of the acceptance sweep: E, ell, R sin(beta) all hold
    for spec in (ring, horn, spindle):
        for _ in range(4):
            beta = float(rng.uniform(0.05, 1.5))
            st = initial_state_from_angle(spec, beta)
            tr = integrate(spec, st, _cfg(150.0))
            c0 = conserved(spec, st)
            lam = np.linspace(0.0, 150.0, 300)
            Y = tr.dense(lam)
            R = spec.R(Y[0])
            E = 0.5 * (Y[2] ** 2 + R ** 2 * Y[3] ** 2)
            ell = R ** 2 * Y[3]
            assert np.max(np.abs(E - c0.E)) < 1e-9
            assert np.max(np.abs(ell - c0.ell)) < 1e-9


def test_unit_speed_parametrization(ring):
    st = initial_state_from_angle(ring, 0.33)
    tr = integrate(ring, st, _cfg(30.0))
    lam = np.linspace(0.0, 30.0, 121)
    Y = tr.dense(lam)
    speed = np.sqrt(Y[2] ** 2 + ring.R(Y[0]) ** 2 * Y[3] ** 2)
    assert np.allclose(speed, 1.0, atol=1e-10)


# -- events against a per-step sampling scan -----------------------------------

# the sampling scan used as an oracle: points per step, and the level below
# which a sign change counts as circular-orbit noise
_SUBSAMPLES = 8
_NOISE = 1e-10


def _scan_step(spec, dense, t_lo, t_hi, speed):
    """Event roots inside one accepted step by subsampled sign changes."""
    ts = np.linspace(t_lo, t_hi, _SUBSAMPLES + 1)
    ys = dense(ts)
    r = ys[0]
    vr = ys[2]
    b = spec.b
    found = []
    channels = (
        (OUTER_EQUATOR, np.sin(r / (2.0 * b)), lambda t: np.sin(dense(t)[0] / (2.0 * b)), 1.0),
        (INNER_EQUATOR, np.cos(r / (2.0 * b)), lambda t: np.cos(dense(t)[0] / (2.0 * b)), 1.0),
        (TURNING_POINT, vr, lambda t: dense(t)[2], speed),
    )
    for kind, g, g_of_t, scale in channels:
        prod = g[:-1] * g[1:]
        for i in np.nonzero(prod < 0.0)[0]:
            if max(abs(g[i]), abs(g[i + 1])) < _NOISE * scale:
                continue  # circular-orbit noise, not a transversal crossing
            lam_ev = brentq(g_of_t, ts[i], ts[i + 1], xtol=1e-13, rtol=8.9e-16)
            found.append((kind, lam_ev))
    return found


def _reference_events(spec, trace):
    """(kind, lam) of every event, nine samples per step."""
    lam = trace.lam
    speed = np.sqrt(2.0 * conserved(spec, trace.initial).E)
    raw = []
    for i in range(len(lam) - 1):
        raw.extend(_scan_step(spec, trace.dense, lam[i], lam[i + 1], speed))
    return sorted(raw, key=lambda kl: kl[1])


def _assert_events_match(trace, reference):
    """Same kinds in the same order, lam within 2e-13: two brentq xtols on
    different brackets (a step, or a ninth of one)."""
    got = [(ev.kind, ev.lam) for ev in trace.events]
    assert [kind for kind, _ in got] == [kind for kind, _ in reference]
    for (_, lam), (_, lam_ref) in zip(got, reference):
        assert abs(lam - lam_ref) <= 2e-13, (lam, lam_ref)
    for ev in trace.events:
        assert ev.state == GeodesicState(*trace.dense(ev.lam), lam=ev.lam)


EVENT_BATTERY = {
    "ring-bound": ((2.0, 1.0), 0.47, 60.0, TIGHT),
    "ring-unbound": ((2.0, 1.0), 0.119, 60.0, TIGHT),
    "outer-equator-circle": ((2.0, 1.0), np.pi / 2.0, 60.0, TIGHT),
    "ring-default-tol": ((2.0, 1.0), 0.3, 60.0, DEFAULT),
    "ring-default-tol-short": ((2.0, 1.0), 0.2, 20.0, DEFAULT),
    "ring-backward": ((2.0, 1.0), 0.119, -40.0, TIGHT),
    "ring-lambda-500": ((2.0, 1.0), 0.47, 500.0, TIGHT),
}


def _battery_trace(name):
    surf, beta0, lam, (rel_tol, abs_tol) = EVENT_BATTERY[name]
    spec = SurfaceSpec(*surf)
    cfg = IntegratorConfig(rel_tol=rel_tol, abs_tol=abs_tol, max_lambda=lam)
    return spec, integrate(spec, initial_state_from_angle(spec, beta0), cfg)


@pytest.mark.parametrize("name", sorted(EVENT_BATTERY))
def test_events_match_per_step_scan(name):
    spec, tr = _battery_trace(name)
    # the channels at the step ends are the values brentq starts from
    assert np.array_equal(tr.dense(tr.lam), tr.states)
    _assert_events_match(tr, _reference_events(spec, tr))
    if name == "outer-equator-circle":
        assert tr.events == []      # noise-level wobble about r = 0 is no crossing
    else:
        assert tr.events


@pytest.mark.parametrize("name", sorted(EVENT_BATTERY))
def test_reduced_system_agrees_with_christoffel_oracle(name):
    # the oracle integrates vtheta and lets ell drift; the reduced run fixes
    # ell. Two runs whose local errors are held to rtol part by a global
    # error that grows with the span: r and theta agree within 10 rtol |lam|
    spec, tr = _battery_trace(name)
    state0 = initial_state_from_angle(spec, EVENT_BATTERY[name][1])
    sol = _christoffel_run(spec, state0, tr.config)
    R = spec.R(sol.y[0])
    ell = R * R * sol.y[3]
    assert np.max(np.abs(ell - ell[0])) < 1e-9
    tol = 10.0 * tr.config.rel_tol * abs(tr.config.max_lambda)
    assert np.max(np.abs(sol.sol(tr.lam)[:2] - tr.states[:2])) < tol


def test_reduced_system_takes_fewer_steps(ring, monkeypatch):
    # the work counter behind the reduction: accepted DOP853 steps over
    # lam = 500, against the four-state oracle on the same launch
    steps = []

    def counted(*args, **kwargs):
        run = _solvers.dop853(*args, **kwargs)
        steps.append(len(run.t) - 1)
        return run

    monkeypatch.setattr(dynamics, "dop853", counted)
    cfg = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-13, max_lambda=500.0)
    state0 = initial_state_from_angle(ring, 0.47)
    integrate(ring, state0, cfg)
    oracle = _christoffel_run(ring, state0, cfg)
    assert len(steps) == 1 and steps[0] < len(oracle.t) - 1


# -- meridians and equator circles in closed form --------------------------------

ORACLE_SURFACES = {"ring": (2.0, 1.0), "horn": (1.0, 1.0), "apple": (0.5, 1.0),
                   "lemon": (-0.5, 1.0)}
SWEEP = {**ORACLE_SURFACES, "fat ring": (3.6, 1.0)}


@pytest.mark.parametrize("surf, lam, tol, count", [
    ((2.0, 1.0), 500.0, TIGHT, 159),
    ((1.0, 1.0), 500.0, TIGHT, 159),
    ((1.0, 1.0), 20.0, TIGHT, 6),           # through the horn's axis point
    ((2.0, 1.0), -40.0, DEFAULT, 12),
], ids=["ring-500", "horn-500", "horn-through-axis", "ring-backward"])
def test_meridian_crossings_in_closed_form(surf, lam, tol, count):
    # r = lam exactly: every crossing sits at a multiple of pi b, inner
    # equator at the odd ones, and there is no turning point
    spec = SurfaceSpec(*surf)
    cfg = IntegratorConfig(rel_tol=tol[0], abs_tol=tol[1], max_lambda=lam)
    tr = integrate(spec, initial_state_from_angle(spec, 0.0), cfg)
    k = np.arange(1, count + 1) if lam > 0.0 else np.arange(-count, 0)
    assert [ev.kind for ev in tr.events] == [
        INNER_EQUATOR if j % 2 else OUTER_EQUATOR for j in k]
    assert np.allclose([ev.lam for ev in tr.events], k * np.pi * spec.b, rtol=0.0, atol=1e-12)
    assert all(ev.state.vr == 1.0 and ev.state.vtheta == 0.0 for ev in tr.events)


@pytest.mark.parametrize("tol, lam", [(TIGHT, 500.0), ((1e-10, 1e-11), 60.0)],
                         ids=["rtol1e-12", "rtol1e-10"])
@pytest.mark.parametrize("surf", sorted(SWEEP))
def test_equator_circles_have_no_events(surf, tol, lam):
    # launched at beta0 = pi/2, vr0 = cos(pi/2) = 6.1e-17: the run wobbles
    # about r = 0 at the level of rounding and integration error
    spec = SurfaceSpec(*SWEEP[surf])
    cfg = IntegratorConfig(rel_tol=tol[0], abs_tol=tol[1], max_lambda=lam)
    tr = integrate(spec, initial_state_from_angle(spec, np.pi / 2.0), cfg)
    assert tr.events == []


def test_inner_equator_circle_has_no_events(ring):
    # the state verify_closure launches the inner-equator circle from
    state0 = GeodesicState(np.pi * ring.b, 0.0, 0.0, 1.0 / (ring.a - ring.b))
    tr = integrate(ring, state0, _cfg(2.0 * np.pi * (ring.a - ring.b)))
    assert tr.events == []


def test_near_equator_launch_keeps_its_events(ring):
    # pi/2 - 1e-6 is a real oscillation of amplitude 1e-6, not a circle
    tr = integrate(ring, initial_state_from_angle(ring, np.pi / 2.0 - 1e-6), _cfg(60.0))
    assert tr.events_of(TURNING_POINT) and tr.events_of(OUTER_EQUATOR)
    _assert_events_match(tr, _reference_events(ring, tr))


# -- events against the quadrature route ------------------------------------------

@settings(derandomize=True, max_examples=24, deadline=None)
@given(surf=st.sampled_from(sorted(ORACLE_SURFACES)), u=st.floats(0.0, 1.0))
def test_events_follow_the_quadrature(surf, u):
    # launched upward from the outer equator, a bound orbit turns at odd
    # quarter periods Q, where its azimuth has advanced by odd multiples of
    # orbit_angle(chi_max), and crosses the outer equator at even ones
    spec = SurfaceSpec(*ORACLE_SURFACES[surf])
    lo = critical_angles(spec).beta_crit or 0.0
    beta0 = lo + 0.1 + u * (np.pi / 2.0 - 0.15 - lo)
    Q = arc_length_bound_period(spec, beta0) / 4.0
    Theta = orbit_angle(spec, beta0, turning_point(spec, beta0).chi_max)
    span = 10.5 * Q
    tr = integrate(spec, initial_state_from_angle(spec, beta0), _cfg(span))
    turns = tr.events_of(TURNING_POINT)
    outer = tr.events_of(OUTER_EQUATOR)
    assert len(turns) == 5 and len(outer) == 5 and not tr.events_of(INNER_EQUATOR)
    odd = 2 * np.arange(5) + 1
    assert np.allclose([ev.lam for ev in turns], odd * Q, rtol=0.0, atol=1e-9)
    assert np.allclose([ev.state.theta for ev in turns], odd * Theta, rtol=0.0, atol=1e-9)
    assert np.allclose([ev.lam for ev in outer], (odd + 1) * Q, rtol=0.0, atol=1e-9)
    assert np.allclose([ev.state.theta for ev in outer], (odd + 1) * Theta,
                       rtol=0.0, atol=1e-9)
    # the meridian over the same span crosses an equator at every multiple
    # of pi b, the inner one at the odd multiples
    meridian = integrate(spec, initial_state_from_angle(spec, 0.0), _cfg(span))
    k = np.arange(1, int(span / (np.pi * spec.b)) + 1)
    assert [ev.kind for ev in meridian.events] == [
        INNER_EQUATOR if j % 2 else OUTER_EQUATOR for j in k]
    assert np.allclose([ev.lam for ev in meridian.events], k * np.pi * spec.b,
                       rtol=0.0, atol=1e-12)


# -- typed errors at the integrator boundary -------------------------------------

@pytest.mark.parametrize("kwargs", [
    {"max_lambda": float("nan")}, {"max_lambda": float("inf")},
    {"max_lambda": float("-inf")},
    {"method": "Radau"}, {"method": "LSODA"}, {"method": "rk45"},
    {"method": "RK45"}, {"method": "RK23"}, {"method": "dop853"},
])
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(DomainError):
        IntegratorConfig(**kwargs)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_integrate_rejects_non_finite_state(ring, bad):
    for field in ("r", "theta", "vr", "vtheta"):
        st = GeodesicState(**{**dict(r=0.0, theta=0.0, vr=0.6, vtheta=0.1), field: bad})
        with pytest.raises(DomainError):
            integrate(ring, st, _cfg(1.0))


def test_zero_length_integration_takes_no_step(ring):
    st = initial_state_from_angle(ring, 0.4)
    tr = integrate(ring, st, IntegratorConfig(max_lambda=0.0))
    assert tr.events == []
    assert tr.final == GeodesicState(*st.as_array(), lam=0.0)


def test_backward_integration_finds_events(ring):
    st = initial_state_from_angle(ring, 0.119)
    tr = integrate(ring, st, _cfg(-45.2))
    inner = tr.events_of(INNER_EQUATOR)
    assert len(inner) == 7
    assert all(-45.2 < ev.lam < 0.0 for ev in inner)


# -- events are located on first read -------------------------------------------

def _count_locates(monkeypatch):
    calls = [0]
    locate = dynamics._locate_events

    def counted(*args):
        calls[0] += 1
        return locate(*args)

    monkeypatch.setattr(dynamics, "_locate_events", counted)
    return calls


def test_events_are_located_once_on_first_read(ring, monkeypatch):
    calls = _count_locates(monkeypatch)
    tr = integrate(ring, initial_state_from_angle(ring, 0.47), _cfg(40.0))
    assert calls[0] == 0
    events = tr.events
    assert calls[0] == 1 and events
    assert tr.events is events
    assert tr.events_of(TURNING_POINT) == [ev for ev in events if ev.kind == TURNING_POINT]
    assert calls[0] == 1


def test_exp_map_rays_locates_no_events(ring, monkeypatch):
    calls = _count_locates(monkeypatch)
    rays = dynamics.exp_map_rays(ring, n_rays=4, lam_max=20.0, samples=10)
    assert len(rays) == 4 and calls[0] == 0


def test_partial_trace_yields_its_events(ring, monkeypatch):
    # vr' = vr^2 blows up at lam = 1 while r = -log(1 - lam) crosses the
    # equators every pi b: the stopped run still locates those crossings
    # (ell != 0 keeps the trace off the meridians' closed form)
    def blow_up(lam, y, spec, ell):
        return y[2], ell, y[2] * y[2]

    calls = _count_locates(monkeypatch)
    monkeypatch.setattr(dynamics, "_rhs", blow_up)
    with pytest.raises(IntegrationError) as info:
        integrate(ring, GeodesicState(0.0, 0.0, 1.0, 0.1), _cfg(3.0))
    partial = info.value.trace
    assert calls[0] == 0 and not partial.success
    _assert_events_match(partial, _reference_events(ring, partial))
    assert calls[0] == 1
    assert {ev.kind for ev in partial.events} == {INNER_EQUATOR, OUTER_EQUATOR}
