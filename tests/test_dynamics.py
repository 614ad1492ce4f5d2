"""Geodesic flow: conserved quantities, event detection, angle laws."""

import numpy as np
import pytest
from scipy.optimize import brentq

from revgeo import dynamics
from revgeo.dynamics import (INNER_EQUATOR, OUTER_EQUATOR, TURNING_POINT,
                             GeodesicState, IntegratorConfig, conserved,
                             initial_state_from_angle, integrate)
from revgeo.errors import DomainError
from revgeo.potential import turning_point
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


def test_rhs_matches_christoffel(ring):
    st = GeodesicState(r=0.7, theta=0.2, vr=0.4, vtheta=0.11)
    d = dynamics._rhs(st.lam, st.as_array(), ring)
    R = ring.R(0.7)
    Rp = ring.Rprime(0.7)
    assert d[0] == st.vr
    assert d[1] == st.vtheta
    assert d[2] == pytest.approx(R * Rp * st.vtheta ** 2, rel=1e-14)
    assert d[3] == pytest.approx(-2.0 * Rp / R * st.vr * st.vtheta, rel=1e-14)


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
    assert tr.ell_drift < 1e-10


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


# -- event scan against the per-step reference loop ----------------------------

def _scan_step(spec, dense, t_lo, t_hi, speed):
    """Event roots inside one accepted step by subsampled sign changes."""
    ts = np.linspace(t_lo, t_hi, dynamics._EVENT_SUBSAMPLES + 1)
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
            if max(abs(g[i]), abs(g[i + 1])) < dynamics._EVENT_NOISE * scale:
                continue  # circular-orbit noise, not a transversal crossing
            lam_ev = brentq(g_of_t, ts[i], ts[i + 1], xtol=1e-13, rtol=8.9e-16)
            found.append((kind, lam_ev))
    return found


def _reference_events(spec, trace):
    """(kind, lam, state) of every event, one step at a time."""
    lam = trace.lam
    speed = np.sqrt(2.0 * conserved(spec, trace.initial).E)
    raw = []
    for i in range(len(lam) - 1):
        raw.extend(_scan_step(spec, trace.dense, lam[i], lam[i + 1], speed))
    raw.sort(key=lambda kl: kl[1])
    last_by_kind = {}
    events = []
    for kind, lam_ev in raw:
        prev = last_by_kind.get(kind)
        if prev is not None and abs(prev - lam_ev) < 1e-9:
            continue
        last_by_kind[kind] = lam_ev
        events.append((kind, lam_ev, tuple(trace.dense(lam_ev))))
    return events


EVENT_BATTERY = {
    "ring-bound": ((2.0, 1.0), 0.47, 60.0, TIGHT),
    "ring-unbound": ((2.0, 1.0), 0.119, 60.0, TIGHT),
    "horn-meridian-through-axis": ((1.0, 1.0), 0.0, 20.0, TIGHT),
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
    got = [(ev.kind, ev.lam, tuple(ev.state.as_array())) for ev in tr.events]
    assert got == _reference_events(spec, tr)
    if name == "ring-lambda-500":
        assert len(tr.lam) - 1 > 2 * dynamics._EVENT_BLOCK
    if name == "outer-equator-circle":
        assert got == []            # noise-level wobble about r = 0 is no crossing
    else:
        assert got


@pytest.mark.parametrize("name", ["ring-default-tol", "ring-lambda-500"])
def test_stacked_samples_equal_dense_output(name):
    _, tr = _battery_trace(name)
    k0 = 0
    for ts, ys in dynamics._event_samples(tr.dense, tr.lam, tr.states):
        assert ys.shape == (len(ts), 4, dynamics._EVENT_SUBSAMPLES + 1)
        for k in range(len(ts)):
            assert np.array_equal(ts[k], np.linspace(tr.lam[k0 + k], tr.lam[k0 + k + 1],
                                                     dynamics._EVENT_SUBSAMPLES + 1))
            assert np.array_equal(ys[k], tr.dense(ts[k]))
        k0 += len(ts)
    assert k0 == len(tr.lam) - 1


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
