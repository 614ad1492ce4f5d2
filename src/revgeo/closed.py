"""Closed geodesics: the discrete spectrum of resonant launch angles.

A closed geodesic is labeled [m, n; p]: m radial periods and n azimuthal
revolutions per closed circuit, with p = 1 for curves whose radial angle
advances monotonically (passing the inner equator each loop) and p = 0 for
curves trapped on the outer side, oscillating between turning circles.
Labels are primitive: gcd(m, n) = 1. Multiples retrace the same curve.

The resonance condition is theta_frequency(beta0) = m / n, solved for the
launch angle beta0 away from the outer equator. N is monotone on each branch
of beta0 and its limits at the two ends are known (integrals.frequency_branch),
so a label exists exactly when m/n lies strictly between them. Each root is
bracketed once: a coarse brentq in the log of the distance to the branch's
singular end (beta_crit on ring tori, where N approaches 0 logarithmically,
and the apex beta0 = 0 elsewhere), then a polish in beta0.

The same reduction places the self-intersections of a bound [m, n; 0]:
its rising and falling passes meet where the orbit angle from the outer
equator equals pi (n - 2l) / (2m), l = 1 .. n-1 (crossing_points).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np
from scipy.optimize import brentq

from .dynamics import (OUTER_EQUATOR, GeodesicState, IntegratorConfig,
                       initial_state_from_angle, integrate)
from .errors import (ConvergenceError, DomainError, InvalidParameterError,
                     NonexistentGeodesicError)
from .integrals import (_w_of_beta0, affine_time, arc_length_bound_period,
                        arc_length_unbound_loop, frequency_branch, orbit_angle,
                        theta_frequency_bound, theta_frequency_unbound)
from .potential import critical_angles, turning_point
from .surface import Family, SurfaceSpec

_EPS = float(np.finfo(float).eps)
# bracket width in log-distance left to the polish in beta0
_COARSE_XTOL = 1.0


@dataclass(frozen=True)
class ClosedLabel:
    m: int
    n: int
    p: int

    def __post_init__(self):
        if self.p not in (0, 1):
            raise InvalidParameterError(f"p must be 0 or 1, got {self.p}")
        if self.m < 0 or self.n < 0 or (self.m == 0 and self.n == 0):
            raise InvalidParameterError("label needs m >= 0, n >= 0, not both zero")
        if math.gcd(self.m, self.n) != 1:
            raise InvalidParameterError(
                f"[{self.m},{self.n}] is not primitive; gcd must be 1")

    def __str__(self):
        return f"[{self.m},{self.n};{self.p}]"


@dataclass(frozen=True)
class ClosedGeodesic:
    label: ClosedLabel
    beta0: Optional[float]      # None for the inner equator, which avoids chi = 0
    length: float
    frequency: Optional[float]  # m/n where defined
    chi_max: Optional[float]


def _as_label(label) -> ClosedLabel:
    if isinstance(label, ClosedLabel):
        return label
    return ClosedLabel(*label)


def _ratio(N, target):
    """(N - target) / (N + target): the sign of N - target, finite for N = inf."""
    return 1.0 if N == math.inf else (N - target) / (N + target)


def _solve_root(spec, br, target):
    """The launch angle on branch br where N = target; br must contain it.

    A coarse brentq in t, the log of the distance to the singular end, then
    a polish in beta0 on the bracket it leaves. N is never evaluated at an
    end, whose value comes from the table. The one probe is the launch angle
    nearest the singular end: the last representable one next to beta_crit
    on ring tori, eps * pi/2 at the apex. It is evaluated first on the
    unbound branch and, elsewhere, only if the root lies closer than every
    other evaluated angle: next to beta_crit on the bound branch its
    integral costs about ten ordinary ones. A root beyond it raises
    ConvergenceError.
    """
    freq = theta_frequency_unbound if br.far < br.end else theta_frequency_bound
    vals = {br.far: _ratio(br.n_far, target)}   # the far end, from the table

    def f(beta):
        if beta not in vals:
            vals[beta] = _ratio(freq(spec, beta), target)
        return vals[beta]

    width = abs(br.far - br.end)
    if br.end > 0.0:
        # double precision must still put the launch strictly on the
        # branch: w = (c+2) sin(beta0) off c
        near = float(np.nextafter(br.end, br.far))
        while (_w_of_beta0(spec, near) - spec.c) * (br.far - br.end) <= 0.0:
            near = float(np.nextafter(near, br.far))
    else:
        near = _EPS * width
    end_value = f(near) if br.far < br.end else _ratio(br.n_end, target)
    t_near, t_far = math.log(abs(near - br.end)), math.log(width)
    bracket = {br.n_end > target: near, br.n_far > target: br.far}

    def g(t):
        if t <= t_near:
            return end_value
        if t >= t_far:
            return f(br.far)
        beta = br.end + math.copysign(math.exp(t), br.far - br.end)
        val = f(beta)
        bracket[val > 0.0] = beta
        return val

    try:
        # either brentq finds no sign change if the root lies beyond the probe
        brentq(g, t_near, t_far, xtol=_COARSE_XTOL)
        return brentq(f, bracket[False], bracket[True], xtol=1e-15, rtol=4.0 * _EPS)
    except ValueError:
        raise ConvergenceError(
            f"N = {target} needs a launch angle closer to the singular end "
            f"{br.end} than {near}, the nearest that double precision resolves",
            best=near) from None


def find_closed(spec: SurfaceSpec, label) -> ClosedGeodesic:
    """Solve the resonance [m, n; p] for its launch angle and circuit length.

    [m, n; p] exists exactly when m/n lies strictly between the limits of N
    at the two ends of its branch (frequency_branch); that is decided before
    any quadrature runs.
    """
    lab = _as_label(label)
    if spec.family is Family.SPHERE:
        raise DomainError("every great circle on the sphere closes; "
                          "the discrete spectrum is degenerate")
    m, n, p = lab.m, lab.n, lab.p

    if (m, n) == (0, 1):
        if p == 0:
            return ClosedGeodesic(lab, np.pi / 2.0, 2.0 * np.pi * (spec.a + spec.b),
                                  None, 0.0)
        if spec.family is not Family.RING:
            raise NonexistentGeodesicError(
                "the inner equator degenerates off the ring family")
        return ClosedGeodesic(lab, None, 2.0 * np.pi * (spec.a - spec.b), None, None)
    if (m, n) == (1, 0):
        if p == 0:
            raise NonexistentGeodesicError(
                "a meridian passes the inner equator, so [1,0;0] names nothing")
        return ClosedGeodesic(lab, 0.0, 2.0 * np.pi * spec.b, None, None)

    target = m / n
    br = frequency_branch(spec, p)
    if br is None:
        raise NonexistentGeodesicError(
            "inner-equator-crossing geodesics need an unbound branch; "
            f"the {spec.family.value} torus has none")
    lo, hi = br.limits
    if not lo < target < hi:
        raise NonexistentGeodesicError(
            f"m/n = {target} lies outside the frequency range ({lo}, {hi}) "
            f"of the {'unbound' if p else 'bound'} branch")
    beta0 = _solve_root(spec, br, target)
    if p == 1:
        length = arc_length_unbound_loop(spec, beta0, loops=m)
        return ClosedGeodesic(lab, float(beta0), float(length), target, None)
    length = m * arc_length_bound_period(spec, beta0)
    tp = turning_point(spec, beta0)
    return ClosedGeodesic(lab, float(beta0), float(length), target,
                          float(tp.chi_max))


@dataclass(frozen=True)
class SpectrumEntry:
    label: ClosedLabel
    status: str                    # "solved" | "nonexistent" | "error"
    geodesic: Optional[ClosedGeodesic] = None
    message: str = ""


@dataclass(frozen=True)
class SpectrumResult:
    spec: SurfaceSpec
    entries: tuple
    status: str = "ok"             # "ok" | "unsupported-family"

    def solved(self):
        return tuple(e for e in self.entries if e.status == "solved")


def spectrum(spec: SurfaceSpec, m_max: int, n_max: int,
             p_values=(0, 1)) -> SpectrumResult:
    """Solve every primitive label with m <= m_max, n <= n_max.

    Per-label failures are recorded in the entry status rather than raised,
    so one impossible resonance does not abort the sweep.
    """
    if spec.family is Family.SPHERE:
        return SpectrumResult(spec, (), "unsupported-family")
    labels = []
    if n_max >= 1:
        for p in p_values:
            labels.append(ClosedLabel(0, 1, p))
    if m_max >= 1:
        for p in p_values:
            labels.append(ClosedLabel(1, 0, p))
    for n in range(1, n_max + 1):
        for m in range(1, m_max + 1):
            if math.gcd(m, n) == 1:
                for p in p_values:
                    labels.append(ClosedLabel(m, n, p))
    entries = []
    for lab in labels:
        try:
            geo = find_closed(spec, lab)
            entries.append(SpectrumEntry(lab, "solved", geo))
        except NonexistentGeodesicError as exc:
            entries.append(SpectrumEntry(lab, "nonexistent", None, str(exc)))
        except (ConvergenceError, DomainError) as exc:
            entries.append(SpectrumEntry(lab, "error", None, str(exc)))
    return SpectrumResult(spec, tuple(entries))


def _closure_start(spec, geo) -> GeodesicState:
    if geo.beta0 is not None:
        return initial_state_from_angle(spec, geo.beta0)
    # inner equator: circle at chi = pi
    r = np.pi * spec.b
    return GeodesicState(r=r, theta=0.0, vr=0.0, vtheta=1.0 / spec.R(r))


def verify_closure(spec: SurfaceSpec, geo: ClosedGeodesic) -> float:
    """Integrate one full circuit and return the phase-space closure residual.

    The residual is the Euclidean norm of (dr wrapped mod 2 pi b,
    (a+b) dtheta wrapped mod 2 pi, dvr, (a+b) dvtheta) between the final and
    initial states after arc length `geo.length` at unit speed.
    """
    state0 = _closure_start(spec, geo)
    cfg = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-13, max_lambda=geo.length)
    trace = integrate(spec, state0, cfg)
    end = trace.final
    two_pi_b = 2.0 * np.pi * spec.b
    dr = end.r - state0.r
    dr -= two_pi_b * np.round(dr / two_pi_b)
    dth = end.theta - state0.theta
    dth -= 2.0 * np.pi * np.round(dth / (2.0 * np.pi))
    s = spec.a + spec.b
    return float(np.sqrt(dr ** 2 + (s * dth) ** 2
                         + (end.vr - state0.vr) ** 2
                         + (s * (end.vtheta - state0.vtheta)) ** 2))


@dataclass(frozen=True)
class RefineResult:
    beta0: float
    theta_mismatch: float
    iterations: int
    converged: bool                # False: stopped on a step below 1e-15


def refine_via_ode(spec: SurfaceSpec, label, beta0: float) -> RefineResult:
    """Polish a launch angle by shooting the geodesic equations.

    The defect is the azimuth error theta(lambda*) - 2 pi n measured when the
    m-th radial period completes; a secant iteration drives it to zero. An
    angle that is already a root is a fixed point and returns unchanged.
    The iteration also stops when its step falls below 1e-15; if the
    defect is then still 1e-12 or more, the result has converged = False.
    Independent of the quadrature route, so agreement between the two is a
    real cross-check rather than a tautology.
    """
    lab = _as_label(label)
    m, n, p = lab.m, lab.n, lab.p
    if m < 1:
        raise DomainError("refinement needs radial motion; equators have none")

    def defect(beta):
        if p == 0:
            L_est = m * arc_length_bound_period(spec, beta)
            need = 2 * m
        else:
            L_est = arc_length_unbound_loop(spec, beta, loops=m)
            need = m
        cfg = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-13,
                               max_lambda=1.05 * L_est + 1.0)
        trace = integrate(spec, initial_state_from_angle(spec, beta), cfg)
        outer = trace.events_of(OUTER_EQUATOR)
        if len(outer) < need:
            raise ConvergenceError(
                f"only {len(outer)} equator passages captured, need {need}",
                best=beta)
        lam_star = outer[need - 1].lam
        return float(trace.dense(lam_star)[1]) - 2.0 * np.pi * n

    # every iterate stays on the launch angle's own branch: a probe that
    # would reach or cross an edge (0, beta_crit, pi/2) steps halfway to it
    bc = critical_angles(spec).beta_crit or 0.0
    lo, hi = (0.0, bc) if p == 1 else (bc, np.pi / 2.0)

    def on_branch(x, x_new):
        if x_new <= lo:
            return 0.5 * (x + lo)
        if x_new >= hi:
            return 0.5 * (x + hi)
        return float(x_new)

    x0 = float(beta0)
    f0 = defect(x0)
    if abs(f0) < 1e-12:
        return RefineResult(x0, f0, 0, True)
    x1 = on_branch(x0, x0 + np.copysign(1e-7 * max(abs(x0), 1e-2), -f0))
    f1 = defect(x1)
    for k in range(2, 26):
        if f1 == f0:
            break
        x2 = on_branch(x1, x1 - f1 * (x1 - x0) / (f1 - f0))
        x0, f0, x1 = x1, f1, x2
        f1 = defect(x1)
        if abs(f1) < 1e-12 or abs(x1 - x0) < 1e-15:
            return RefineResult(x1, f1, k, abs(f1) < 1e-12)
    raise ConvergenceError("secant refinement stalled", best=x1)


@dataclass(frozen=True)
class PrecessionData:
    advance: float                 # azimuth swept per full radial oscillation
    nearest: Optional[Fraction]    # closest low-order resonance m/n to N
    rate: float                    # advance minus the closure advance 2 pi n/m


def precession_rate(spec: SurfaceSpec, beta0: float) -> PrecessionData:
    """Apsidal-style precession of a bound oscillation against its nearest resonance."""
    tp = turning_point(spec, beta0)
    if tp.chi_max is None or tp.chi_max == 0.0:
        raise DomainError("precession is defined for bound radial oscillations")
    advance = 4.0 * orbit_angle(spec, beta0, tp.chi_max)
    N = 2.0 * np.pi / advance
    frac = Fraction(N).limit_denominator(50)
    if frac.numerator == 0:
        return PrecessionData(float(advance), None, float(advance))
    rate = advance - 2.0 * np.pi * frac.denominator / frac.numerator
    return PrecessionData(float(advance), frac, float(rate))


@dataclass(frozen=True)
class SelfIntersection:
    lam1: float
    lam2: float
    chi: float                     # signed radial coordinate of the double point
    theta: float                   # reported mod 2 pi


@dataclass(frozen=True)
class CrossingRadius:
    """All double points sharing one |chi| crossing radius.

    A closed geodesic crosses itself only on full circles chi = const; the
    circle at -chi carries the mirror set, so points on both are collected
    under the single unsigned radius. Within one sign the azimuths step by
    2 pi / m.
    """
    chi: float                     # |chi| of the crossing circle pair
    count: int                     # double points on the pair in one circuit
    theta_offsets: tuple           # azimuths mod 2 pi, ascending
    points: tuple                  # SelfIntersection records, by lam1


def crossing_points(spec: SurfaceSpec, geo: ClosedGeodesic) -> tuple:
    """Transverse double points of a closed geodesic over one circuit.

    A bound [m, n; 0] orbit is mirror-symmetric about each turning meridian
    (time reversal), so over one radial period P = L/m it sweeps the azimuth
    Q = pi n / (2m) per quarter. With A(chi) the arc length and
    Theta(chi) = orbit_angle from 0 to chi, both odd in chi, rising pass j
    sits at lam = jP + A(chi), theta = 4Qj + Theta(chi), and falling pass j'
    at lam = (j' + 1/2)P - A(chi), theta = 4Qj' + 2Q - Theta(chi). Since
    gcd(m, n) = 1 they meet exactly where Theta(chi) = pi (n - 2l) / (2m),
    l = 1 .. n-1, rising pass j with falling pass j' = (j - l n^-1) mod m,
    n^-1 the inverse of n mod m: m points per l, on the 2 pi / m azimuth
    lattice. l = n/2 gives chi = 0, and with j = 0 the launch point itself.
    Only quadrature runs, no ODE. Unbound loops, equators and meridians are
    simple curves.
    """
    lab = geo.label
    if lab.p == 1 or lab.m == 0 or lab.n == 0 or geo.beta0 is None:
        return ()
    m, n, L, beta0 = lab.m, lab.n, geo.length, geo.beta0
    P = L / m
    ell = (spec.a + spec.b) * math.sin(beta0)
    n_inv = pow(n, -1, m)
    solved = {}                     # |n - 2l| -> (|chi|, A(|chi|))
    found = []
    for l in range(1, n):
        k = n - 2 * l
        v = math.pi * k / (2 * m)   # exactly 0.0 when l = n/2
        if abs(k) not in solved:
            x = brentq(lambda x: orbit_angle(spec, beta0, x) - abs(v),
                       0.0, geo.chi_max, xtol=1e-15, rtol=4.0 * _EPS)
            solved[abs(k)] = x, affine_time(spec, 0.5, ell, 0.0, spec.b * x)
        x, arc = solved[abs(k)]
        chi, arc = math.copysign(x, v), math.copysign(arc, v)
        for j in range(m):
            lam_up = (j * P + arc) % L
            lam_down = ((j - l * n_inv) % m + 0.5) * P - arc
            theta = (2.0 * math.pi * (n * j % m) / m + v) % (2.0 * math.pi)
            found.append(SelfIntersection(min(lam_up, lam_down),
                                          max(lam_up, lam_down), chi, theta))
    return tuple(sorted(found, key=lambda f: (f.lam1, f.lam2)))


def self_intersections(spec: SurfaceSpec, geo: ClosedGeodesic) -> tuple:
    """Crossing radii of a closed geodesic: (chi, count, theta offsets) records.

    Groups the transverse double points by their exact unsigned radius
    |chi|, inner radius first. A bound [m,n;0] geodesic has floor(n/2)
    radii: chi = 0 exactly when n is even, with m points, and every other
    radius with 2m points, m on each mirror circle +-chi, whose azimuths
    step by 2 pi / m. Unbound loops, equators and meridians have none.
    """
    groups = {}
    for f in crossing_points(spec, geo):
        groups.setdefault(abs(f.chi), []).append(f)
    return tuple(CrossingRadius(chi, len(group),
                                tuple(sorted(f.theta for f in group)),
                                tuple(group))
                 for chi, group in sorted(groups.items()))
