"""Geodesic flow on surfaces of revolution: ODEs, events, conserved quantities.

The second-order geodesic equations in (r, theta) reduce to the first-order
system

    dr/dlam      = vr
    dtheta/dlam  = vtheta
    dvr/dlam     = R'(r) R(r) vtheta^2
    dvtheta/dlam = -2 (R'(r)/R(r)) vr vtheta

integrated with the adaptive Runge-Kutta pair DOP853 (Hairer, Norsett &
Wanner, Solving ODEs I, II.5) and its dense output.
Equator crossings and radial turning points are located in one array pass
over all accepted steps, then refined by brentq on the dense output only
where a bracket changes sign.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from .errors import DomainError, IntegrationError
from .surface import SurfaceSpec

OUTER_EQUATOR = "outer-equator"
INNER_EQUATOR = "inner-equator"
TURNING_POINT = "turning-point"

# subsamples per accepted step when scanning for event sign changes
_EVENT_SUBSAMPLES = 8
# reject sign changes whose bracketing values are both below noise level
_EVENT_NOISE = 1e-10
# accepted steps whose event samples are evaluated in one array operation
_EVENT_BLOCK = 256
_EVENT_KINDS = (OUTER_EQUATOR, INNER_EQUATOR, TURNING_POINT)


@dataclass(frozen=True)
class GeodesicState:
    r: float
    theta: float
    vr: float
    vtheta: float
    lam: float = 0.0

    def as_array(self):
        return np.array([self.r, self.theta, self.vr, self.vtheta])


@dataclass(frozen=True)
class ConservedSet:
    E: float
    ell: float
    clairaut: float


@dataclass(frozen=True)
class IntegratorConfig:
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_lambda: float = 100.0
    method: str = "DOP853"      # the only integrator; callers may still name it

    def __post_init__(self):
        if not (0 < self.rel_tol <= 1e-2 and 0 < self.abs_tol <= 1e-2):
            raise DomainError("integration tolerances must lie in (0, 1e-2]")
        if not math.isfinite(self.max_lambda):
            raise DomainError(f"max_lambda must be finite, got {self.max_lambda}")
        if self.method != "DOP853":
            raise DomainError(f"method must be 'DOP853', got {self.method!r}")


@dataclass(frozen=True)
class Event:
    kind: str
    lam: float
    state: GeodesicState


@dataclass
class OrbitTrace:
    """Integrated geodesic with dense output and located events."""

    spec: SurfaceSpec
    config: IntegratorConfig
    lam: np.ndarray
    states: np.ndarray            # shape (4, n): rows r, theta, vr, vtheta
    events: list
    dense: object                 # OdeSolution over [0, lam[-1]]
    e_drift: float
    ell_drift: float
    success: bool = True
    message: str = ""

    def state_at(self, lam: float) -> GeodesicState:
        r, th, vr, vth = self.dense(lam)
        return GeodesicState(r, th, vr, vth, lam)

    def events_of(self, kind: str):
        return [ev for ev in self.events if ev.kind == kind]

    @property
    def initial(self) -> GeodesicState:
        return GeodesicState(*self.states[:, 0], lam=self.lam[0])

    @property
    def final(self) -> GeodesicState:
        return GeodesicState(*self.states[:, -1], lam=self.lam[-1])


def initial_state_from_angle(spec: SurfaceSpec, beta0: float) -> GeodesicState:
    """Unit-speed launch state at the outer equator point (r, theta) = (0, 0).

    beta0 is the angle of the initial velocity from the meridian direction,
    so beta0 = 0 launches along the meridian and beta0 = pi/2 along the
    equator. |v| = 1, hence E = 1/2 and ell = R(0) sin(beta0).
    """
    return GeodesicState(0.0, 0.0, np.cos(beta0), np.sin(beta0) / spec.R(0.0))


def _rhs(lam, y, spec):
    """Right-hand side of the first-order geodesic system."""
    r, _, vr, vtheta = y.tolist()
    q = r / spec.b
    R = spec.a + spec.b * math.cos(q)
    Rp = -math.sin(q)
    # vtheta == 0 exactly on meridians; skip the R division so that
    # meridians pass through horn/spindle axis points cleanly
    if vtheta == 0.0:
        dvth = 0.0
    else:
        dvth = -2.0 * (Rp / R) * vr * vtheta
    return np.array([vr, vtheta, Rp * R * vtheta * vtheta, dvth])


def conserved(spec: SurfaceSpec, state: GeodesicState) -> ConservedSet:
    """Energy, angular momentum and Clairaut constant of a state."""
    R = spec.R(state.r)
    speed2 = state.vr ** 2 + (R * state.vtheta) ** 2
    if speed2 == 0.0:
        raise DomainError("zero-speed state has no conserved normalization")
    E = 0.5 * speed2
    ell = R * R * state.vtheta
    return ConservedSet(E, ell, ell / np.sqrt(2.0 * E))


def _dense_rows(coef, t_old, h, y_old, t):
    """States at t (one row of points per step) from stacked dense coefficients.

    Follows scipy's Dop853DenseOutput (Horner in x and 1 - x over its
    coefficients F) operation by operation, so each row equals its step's
    interpolant at the same points bit for bit. Returns shape
    (steps, 4, points).
    """
    x = ((t - t_old[:, None]) / h[:, None])[:, :, None]
    y = np.zeros(x.shape[:2] + y_old.shape[1:])
    for i in range(coef.shape[1]):
        y += coef[:, None, -1 - i]
        if i % 2 == 0:
            y *= x
        else:
            y *= 1 - x
    y = y.transpose(0, 2, 1)
    y += y_old[:, :, None]
    return y


def _event_samples(dense, lam, states):
    """Blocks (ts, ys) of event samples over all accepted steps.

    Each step is sampled at _EVENT_SUBSAMPLES + 1 evenly spaced points,
    ts of shape (steps, points), a block of _EVENT_BLOCK steps at a time.
    ys (steps, 4, points) equals dense(ts[k]) of each step k bit for bit:
    OdeSolution evaluates a step's first point, shared with the step
    before, on that earlier step's interpolant, and the others on the
    step's own. (A step of a few ulps, which only a last step clipped to
    max_lambda can be, may round interior points onto its ends; those
    are then taken from the step's own interpolant.)
    """
    n = len(lam) - 1
    for lo in range(0, n, _EVENT_BLOCK):
        hi = min(lo + _EVENT_BLOCK, n)
        first = max(lo - 1, 0)
        coef = np.array([ip.F for ip in dense.interpolants[first:hi]])
        t_old = lam[first:hi]
        h = lam[first + 1:hi + 1] - t_old
        y_old = states[:, first:hi].T
        own = np.arange(lo - first, hi - first)
        prev = np.maximum(own - 1, 0)
        ts = np.linspace(lam[lo:hi], lam[lo + 1:hi + 1], _EVENT_SUBSAMPLES + 1, axis=1)
        ys = np.concatenate(
            [_dense_rows(coef[k], t_old[k], h[k], y_old[k], t)
             for k, t in ((prev, ts[:, :1]), (own, ts[:, 1:]))], axis=2)
        yield ts, ys


def _locate_events(spec, dense, lam, states, speed):
    """Event roots (kind, lam) of all accepted steps, in step order.

    Only brackets where a channel changes sign above the noise level are
    refined, by brentq on the dense output.
    """
    b = spec.b
    g_of_t = (lambda t: np.sin(dense(t)[0] / (2.0 * b)),
              lambda t: np.cos(dense(t)[0] / (2.0 * b)),
              lambda t: dense(t)[2])
    noise = _EVENT_NOISE * np.array([1.0, 1.0, speed])[:, None]
    found = []
    for ts, ys in _event_samples(dense, lam, states):
        half = ys[:, 0] / (2.0 * b)
        g = np.stack((np.sin(half), np.cos(half), ys[:, 2]), axis=1)
        g0, g1 = g[..., :-1], g[..., 1:]
        # both sides below the noise level: circular-orbit noise, not a crossing
        flip = (g0 * g1 < 0.0) & ~(np.maximum(np.abs(g0), np.abs(g1)) < noise)
        for k, channel, i in zip(*np.nonzero(flip)):
            lam_ev = brentq(g_of_t[channel], ts[k, i], ts[k, i + 1],
                            xtol=1e-13, rtol=8.9e-16)
            found.append((_EVENT_KINDS[channel], lam_ev))
    return found


def integrate(spec: SurfaceSpec, state0: GeodesicState,
              config: Optional[IntegratorConfig] = None) -> OrbitTrace:
    """Integrate the geodesic ODEs from state0 up to lam = config.max_lambda.

    Returns the adaptive-step trace with a dense interpolant, the located
    events (outer/inner equator crossings and radial turning points, each
    refined to about 1e-13 in lam) and the measured conservation drift.
    """
    cfg = config or IntegratorConfig()
    y0 = state0.as_array()
    if not np.all(np.isfinite(y0)):
        raise DomainError(f"initial state must be finite, got {y0.tolist()}")
    sol = solve_ivp(_rhs, (0.0, cfg.max_lambda), y0, args=(spec,),
                    method="DOP853", rtol=cfg.rel_tol, atol=cfg.abs_tol,
                    dense_output=True)
    if not sol.success:
        partial = _build_trace(spec, cfg, sol)
        raise IntegrationError(f"integration stopped early: {sol.message}", trace=partial)
    return _build_trace(spec, cfg, sol)


def _build_trace(spec, cfg, sol):
    lam = sol.t
    states = sol.y
    cons0 = conserved(spec, GeodesicState(*states[:, 0], lam=lam[0]))
    speed = np.sqrt(2.0 * cons0.E)

    R = spec.R(states[0])
    E = 0.5 * (states[2] ** 2 + (R * states[3]) ** 2)
    ell = R * R * states[3]
    e_drift = float(np.max(np.abs(E - cons0.E)) / abs(cons0.E))
    ell_drift = (float(np.max(np.abs(ell - cons0.ell)) / abs(cons0.ell))
                 if cons0.ell != 0.0 else float(np.max(np.abs(ell))))

    events = []
    if sol.sol is not None and lam[-1] != lam[0]:     # max_lambda = 0 takes no step
        raw = _locate_events(spec, sol.sol, lam, states, speed)
        raw.sort(key=lambda kl: kl[1])
        last_by_kind = {}
        for kind, lam_ev in raw:
            prev = last_by_kind.get(kind)
            if prev is not None and abs(prev - lam_ev) < 1e-9:
                continue  # same root caught from both sides of a step boundary
            last_by_kind[kind] = lam_ev
            st = GeodesicState(*sol.sol(lam_ev), lam=lam_ev)
            events.append(Event(kind, lam_ev, st))

    return OrbitTrace(spec=spec, config=cfg, lam=lam, states=states, events=events,
                      dense=sol.sol, e_drift=e_drift, ell_drift=ell_drift,
                      success=sol.success, message=sol.message)
