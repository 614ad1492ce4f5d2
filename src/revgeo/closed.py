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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np
from scipy.optimize import brentq

from .dynamics import (OUTER_EQUATOR, GeodesicState, IntegratorConfig,
                       OrbitTrace, initial_state_from_angle, integrate)
from .errors import (ConvergenceError, DomainError, InvalidParameterError,
                     NonexistentGeodesicError)
from .integrals import (_w_of_beta0, arc_length_bound_period,
                        arc_length_unbound_loop, frequency_branch, orbit_angle,
                        theta_frequency_bound, theta_frequency_unbound)
from .potential import critical_angles, turning_point
from .surface import Family, SurfaceSpec

_EPS = float(np.finfo(float).eps)
# bracket width in log-distance left to the polish in beta0
_COARSE_XTOL = 1.0
# polyline vertices per radial period when scanning for double points
_SAMPLES_PER_PERIOD = 4096


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


def _segment_hits(px, py, k):
    """Candidate index pairs (i, j) where segment i meets segment j shifted
    down by k in y. Relies on y being monotone increasing."""
    M = len(px) - 1
    y0, y1 = py[:-1], py[1:]
    lo = np.searchsorted(py, y0 + k, side="left") - 1
    hi = np.searchsorted(py, y1 + k, side="right")
    lo = np.clip(lo, 0, M)
    hi = np.clip(hi, 0, M)
    counts = np.maximum(hi - lo, 0)
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, int), np.empty(0, int)
    ii = np.repeat(np.arange(M), counts)
    offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
    jj = np.arange(total) - np.repeat(offsets, counts) + np.repeat(lo, counts)

    ax, ay = px[ii], py[ii]
    bx, by = px[ii + 1], py[ii + 1]
    cx, cy = px[jj], py[jj] - k
    dx, dy = px[jj + 1], py[jj + 1] - k
    d1 = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    d2 = (bx - ax) * (dy - ay) - (by - ay) * (dx - ax)
    d3 = (dx - cx) * (ay - cy) - (dy - cy) * (ax - cx)
    d4 = (dx - cx) * (by - cy) - (dy - cy) * (bx - cx)
    eps = 1e-15
    hit = (d1 * d2 <= eps) & (d3 * d4 <= eps)
    return ii[hit], jj[hit]


def _circ_close(a, b, period, tol):
    d = abs(a - b)
    return d < tol or period - d < tol


def crossing_points(spec: SurfaceSpec, geo: ClosedGeodesic) -> tuple:
    """Transverse double points of a closed geodesic over one circuit.

    The curve is sampled into a polyline in the (chi, theta) cover; because
    theta is strictly monotone, branches can only meet where their azimuths
    differ by an exact multiple of 2 pi, and each shift k = 1 .. n-1 is
    scanned with a banded sweep. Polyline hits are polished by a 2d Newton
    iteration on (lambda1, lambda2) using the dense solution, extended
    periodically so a crossing sitting at the closure seam (the launch point
    itself is a double point whenever n is even) is still reachable.
    """
    lab = geo.label
    if lab.p == 1 or lab.m == 0 or lab.n == 0:
        # monotone-radius loops, equators, and meridians are simple curves
        return ()
    if geo.beta0 is None:
        return ()
    m, n = lab.m, lab.n
    L = geo.length
    cfg = IntegratorConfig(rel_tol=1e-11, abs_tol=1e-12, max_lambda=L)
    trace = integrate(spec, initial_state_from_angle(spec, geo.beta0), cfg)
    M = _SAMPLES_PER_PERIOD * m
    lams = np.linspace(0.0, L, M + 1)
    Y = trace.dense(lams)
    px = Y[0] / (2.0 * np.pi * spec.b)      # chi / 2 pi, no wrap needed: |chi| < pi
    py = Y[1] / (2.0 * np.pi)               # strictly increasing
    # periodic extension must be continuous at the seam or a crossing that
    # straddles it traps the Newton polish; shift by the actual end values so
    # the closure residual cancels instead of appearing as a jump
    theta_total = float(Y[1][-1])
    r_defect = float(Y[0][-1]) - float(Y[0][0])

    def ev(l):
        # one-period C0 periodic extension on either side of [0, L]
        if l < 0.0:
            y = trace.dense(l + L)
            return (float(y[0]) - r_defect, float(y[1]) - theta_total,
                    float(y[2]), float(y[3]))
        if l > L:
            y = trace.dense(l - L)
            return (float(y[0]) + r_defect, float(y[1]) + theta_total,
                    float(y[2]), float(y[3]))
        y = trace.dense(l)
        return float(y[0]), float(y[1]), float(y[2]), float(y[3])

    found = []
    for k in range(1, n):
        ii, jj = _segment_hits(px, py, float(k))
        for i, j in zip(ii, jj):
            pair = _newton_pair(spec, ev, lams[i], lams[j], k, L)
            if pair is None:
                continue
            u, v = (p % L for p in pair)
            gap = abs(u - v)
            if min(gap, L - gap) < 1e-7 * L:
                continue                    # closure identity, not a crossing
            if u > v:
                u, v = v, u
            r, th, _, _ = ev(u)
            chi = r / spec.b
            tho = float(np.mod(th, 2.0 * np.pi))
            if any(abs(chi - f.chi) < 1e-5
                   and _circ_close(tho, f.theta, 2.0 * np.pi, 1e-5)
                   for f in found):
                continue                    # same torus point, other seed
            found.append(SelfIntersection(float(u), float(v), float(chi), tho))
    return tuple(sorted(found, key=lambda f: (f.lam1, f.lam2)))


def self_intersections(spec: SurfaceSpec, geo: ClosedGeodesic) -> tuple:
    """Crossing radii of a closed geodesic: (chi, count, theta offsets) records.

    Groups the transverse double points by unsigned crossing radius |chi|.
    A [m,n;0] geodesic shows zero, one, or two distinct radii depending on n,
    and on each circle the crossing azimuths repeat with period 2 pi / m.
    """
    pts = crossing_points(spec, geo)
    if not pts:
        return ()
    order = sorted(pts, key=lambda f: abs(f.chi))
    groups = [[order[0]]]
    for f in order[1:]:
        if abs(f.chi) - abs(groups[-1][-1].chi) < 1e-4:
            groups[-1].append(f)
        else:
            groups.append([f])
    out = []
    for group in groups:
        chi = float(np.mean([abs(f.chi) for f in group]))
        # closure residuals near the critical angle reach ~1e-6; genuine
        # nonzero crossing radii stay well above 0.1
        if chi < 1e-5:
            chi = 0.0
        out.append(CrossingRadius(
            chi, len(group),
            tuple(sorted(float(f.theta) for f in group)),
            tuple(sorted(group, key=lambda f: (f.lam1, f.lam2)))))
    return tuple(out)


def _newton_pair(spec, ev, l1, l2, k, L):
    """Solve r(l1) = r(l2), theta(l2) - theta(l1) = 2 pi k for the crossing."""
    two_pi_k = 2.0 * np.pi * k
    for _ in range(18):
        r1, th1, vr1, vth1 = ev(l1)
        r2, th2, vr2, vth2 = ev(l2)
        F0 = (r1 - r2) / spec.b
        F1 = th2 - th1 - two_pi_k
        if abs(F0) < 1e-13 and abs(F1) < 1e-13:
            if vr1 * vr2 >= 0.0:
                return None                 # tangency or the same branch
            return float(l1), float(l2)
        J00, J01 = vr1 / spec.b, -vr2 / spec.b
        J10, J11 = -vth1, vth2
        det = J00 * J11 - J01 * J10
        if det == 0.0 or not np.isfinite(det):
            return None
        d1 = (F0 * J11 - F1 * J01) / det
        d2 = (J00 * F1 - J10 * F0) / det
        l1, l2 = l1 - d1, l2 - d2
        if not (-0.5 * L < l1 < 1.5 * L and -0.5 * L < l2 < 1.5 * L):
            return None
    return None
