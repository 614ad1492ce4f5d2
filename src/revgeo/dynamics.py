"""Geodesic flow on surfaces of revolution: ODEs, events, conserved quantities.

ell = R(r)^2 dtheta/dlam is conserved, so the geodesic equations reduce to
one-dimensional motion in U = ell^2 / (2 R^2). Each run fixes ell from its
launch state and integrates

    dr/dlam = vr,    dtheta/dlam = ell / R^2,    dvr/dlam = R R' (ell / R^2)^2

with the adaptive Runge-Kutta pair DOP853 (Hairer, Norsett & Wanner,
Solving ODEs I, II.5) and its dense output, both owned by _solvers and run
on numpy alone; states report vtheta = ell / R^2 as a fourth row. Events
are sign changes of sin(r/2b) (outer equator), cos(r/2b) (inner equator)
and vr (turning point), located on first read of a trace's events by
dop853's terminal-event rule: a sign change between two step ends, cut by
brentq on that step's dense output. A meridian (ell = 0) moves freely,
r = r0 + vr0 lam, with no division by R, which vanishes on axis points; its
equator crossings are the multiples of pi b in closed form. An equator
circle has no events. A fan of rays (exp_map_rays) reads no events.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._solvers import _EPS, brentq, dop853
from .errors import DomainError, IntegrationError, _require_finite
from .surface import SurfaceSpec

OUTER_EQUATOR = "outer-equator"
INNER_EQUATOR = "inner-equator"
TURNING_POINT = "turning-point"

# the channel g(y, b) of each event kind, for a state y = (r, theta, vr, ...)
# or an array of states by column: its events are the sign changes of g
_CHANNELS = {
    OUTER_EQUATOR: lambda y, b: np.sin(y[0] / (2.0 * b)),
    INNER_EQUATOR: lambda y, b: np.cos(y[0] / (2.0 * b)),
    TURNING_POINT: lambda y, b: y[2],
}


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
    """Integrated geodesic with dense output.

    `states` and `dense` add the row vtheta = ell / R(r)^2 to the run's
    (r, theta, vr), so dense(lam) equals states bit for bit at step ends.

    `events` lists the outer/inner equator crossings and radial turning
    points in lam order, each to about 1e-13 in lam (exact on meridians).
    They are located on the first read of `events` or `events_of`, and kept.
    """

    spec: SurfaceSpec
    config: IntegratorConfig
    lam: np.ndarray
    states: np.ndarray            # shape (4, n): rows r, theta, vr, vtheta
    reduced: object               # _solvers.DenseOutput of (r, theta, vr)
    ell: float
    e_drift: float
    success: bool = True
    message: str = ""

    def dense(self, lam):
        """State (4,) at a scalar lam, or states (4, len(lam)) at a 1-d array."""
        return _with_vtheta(self.spec, self.ell, self.reduced(lam))

    def state_at(self, lam: float) -> GeodesicState:
        return GeodesicState(*self.dense(lam), lam=lam)

    @functools.cached_property
    def events(self) -> list:
        found = sorted(_locate_events(self.spec, self.lam, self.states, self.reduced),
                       key=lambda kl: kl[1])
        return [Event(kind, lam, GeodesicState(*self.dense(lam), lam=lam))
                for kind, lam in found]

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
    _require_finite(beta0=beta0)
    return GeodesicState(0.0, 0.0, np.cos(beta0), np.sin(beta0) / spec.R(0.0))


def _rhs(lam, y, spec, ell):
    """Right-hand side of the reduced system in (r, theta, vr), ell fixed."""
    r, _, vr = y.tolist()
    if ell == 0.0:
        return vr, 0.0, 0.0     # a meridian: no division by R, which may be 0
    q = r / spec.b
    R = spec.a + spec.b * math.cos(q)
    vtheta = ell / (R * R)
    return vr, vtheta, -math.sin(q) * R * vtheta * vtheta


def _with_vtheta(spec, ell, y):
    """y, shape (3,) or (3, n), with the row vtheta = ell / R(r)^2 appended."""
    vtheta = ell / spec.R(y[0]) ** 2 if ell != 0.0 else np.zeros_like(y[0])
    return np.append(y, [vtheta], axis=0)


def conserved(spec: SurfaceSpec, state: GeodesicState) -> ConservedSet:
    """Energy, angular momentum and Clairaut constant of a state."""
    R = spec.R(state.r)
    speed2 = state.vr ** 2 + (R * state.vtheta) ** 2
    if speed2 == 0.0:
        raise DomainError("zero-speed state has no conserved normalization")
    E = 0.5 * speed2
    ell = R * R * state.vtheta
    return ConservedSet(E, ell, ell / np.sqrt(2.0 * E))


def _locate_events(spec, lam, states, dense):
    """Event roots (kind, lam) of a trace, unordered: meridians and equator
    circles in closed form, others by sign changes between step ends."""
    b, half = spec.b, math.pi * spec.b
    r0, _, vr0, vth0 = (float(v) for v in states[:, 0])
    R0 = spec.R(r0)
    if R0 * R0 * vth0 == 0.0:
        # ell = 0: vr stays vr0, so r = r0 + vr0 lam meets k pi b at
        # lam = (k pi b - r0) / vr0, the outer equator for even k
        lo, hi = sorted((r0, r0 + vr0 * float(lam[-1])))
        return [(INNER_EQUATOR if k % 2 else OUTER_EQUATOR, (k * half - r0) / vr0)
                for k in range(math.floor(lo / half) + 1, math.ceil(hi / half))]
    if (r0 / half).is_integer() and abs(vr0) <= _EPS * math.hypot(vr0, R0 * vth0):
        return []   # launched along an equator, vr = 0 to rounding: its circle
    channels = list(_CHANNELS.items())
    g = np.stack([channel(states, b) for _, channel in channels])
    found = []
    for c, i in zip(*np.nonzero(g[:, :-1] * g[:, 1:] < 0.0)):
        kind, channel = channels[c]
        lam_ev = brentq(lambda t: channel(dense(t), b), lam[i], lam[i + 1],
                        xtol=1e-13, rtol=8.9e-16)
        found.append((kind, lam_ev))
    return found


def integrate(spec: SurfaceSpec, state0: GeodesicState,
              config: Optional[IntegratorConfig] = None) -> OrbitTrace:
    """Integrate the geodesic ODEs from state0 up to lam = config.max_lambda.

    Returns the adaptive-step trace with a dense interpolant and the
    measured energy drift. Its events (outer/inner equator crossings and
    radial turning points) are located when first read.
    """
    cfg = config or IntegratorConfig()
    trace = _build_trace(spec, cfg, *_run(spec, state0, cfg))
    if not trace.success:
        raise IntegrationError(f"integration stopped early: {trace.message}", trace=trace)
    return trace


def _integrate_to(spec, state0, cfg, kind=None):
    """(state, hit): the run from state0 to where kind's channel first falls
    through zero (dop853's terminal event; hit) or to cfg.max_lambda. Forms
    no dense output; IntegrationError, without a trace, if it stops early."""
    event = None if kind is None else lambda lam, y: _CHANNELS[kind](y, spec.b)
    run, ell = _run(spec, state0, cfg, event, dense_output=False)
    if not run.success:
        raise IntegrationError(f"integration stopped early: {run.message}")
    return (GeodesicState(*_with_vtheta(spec, ell, run.y[:, -1]), lam=run.t[-1]),
            run.t_event is not None)


def _run(spec, state0, cfg, event=None, dense_output=True):
    """(run, ell): dop853 on the reduced system, ell = R(r0)^2 vtheta0 fixed."""
    y0 = state0.as_array()
    if not np.all(np.isfinite(y0)):
        raise DomainError(f"initial state must be finite, got {y0.tolist()}")
    ell = float(conserved(spec, state0).ell)
    return dop853(lambda lam, y: _rhs(lam, y, spec, ell), 0.0, cfg.max_lambda, y0[:3],
                  cfg.rel_tol, cfg.abs_tol, event=event, dense_output=dense_output), ell


def _build_trace(spec, cfg, run, ell):
    states = _with_vtheta(spec, ell, run.y)
    E = 0.5 * (states[2] ** 2 + (spec.R(states[0]) * states[3]) ** 2)
    return OrbitTrace(spec=spec, config=cfg, lam=run.t, states=states, reduced=run.dense,
                      ell=ell, e_drift=float(np.max(np.abs(E - E[0])) / E[0]),
                      success=run.success, message=run.message)


@dataclass(frozen=True)
class RayPath:
    beta0: float
    lam: np.ndarray
    r: np.ndarray
    theta: np.ndarray


def _count(name, value, least, why):
    try:
        count = operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {value!r}") from None
    if count < least:
        raise DomainError(f"{why}, got {name} = {count}")
    return count


def exp_map_rays(spec: SurfaceSpec, n_rays: int = 24,
                 lam_max: Optional[float] = None, samples: int = 400) -> tuple:
    """Fan of unit-speed geodesics from the outer-equator point (0, 0).

    Launch angles run from 0 (meridian) to pi/2 (outer equator) inclusive.
    The two closed extremes are integrated over exactly one circuit
    (2 pi b and 2 pi (a+b)); interior rays run to lam_max, default one
    outer-equator circuit. Rays of equal span share one read-only lam array.
    """
    n_rays = _count("n_rays", n_rays, 2, "need at least the meridian and equator rays")
    samples = _count("samples", samples, 1, "need at least one sample per ray")
    default_span = 2.0 * np.pi * (spec.a + spec.b)
    grids = {}                      # one read-only sample grid per distinct span
    rays = []
    for beta0 in np.linspace(0.0, np.pi / 2.0, n_rays):
        if beta0 == 0.0:
            span = 2.0 * np.pi * spec.b
        elif beta0 == np.pi / 2.0:
            span = default_span
        else:
            span = lam_max if lam_max is not None else default_span
        cfg = IntegratorConfig(rel_tol=1e-11, abs_tol=1e-12, max_lambda=span)
        trace = integrate(spec, initial_state_from_angle(spec, beta0), cfg)
        lams = grids.get(span)
        if lams is None:
            lams = grids[span] = np.linspace(0.0, span, samples)
            lams.flags.writeable = False
        Y = trace.dense(lams)
        rays.append(RayPath(float(beta0), lams, Y[0].copy(), Y[1].copy()))
    return tuple(rays)
