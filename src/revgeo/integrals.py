"""Orbit, arc-length, and affine-time integrals of the reduced radial motion.

All integrands share the radicand R(r)^2 - p^2 where p = R(0) sin(beta0) is
the Clairaut constant. In the dimensionless variables chi = r/b,
rho(chi) = R/b = c + 1 + cos(chi), w = p/b the three integrals are

    theta(chi)  = Int  (w / rho) / sqrt(rho^2 - w^2) dchi      (orbit angle)
    length      = Int  b rho     / sqrt(rho^2 - w^2) dchi
    affine time = length / sqrt(2E)

For bound motion rho(chi_max) = w, so the integrand has an integrable
1/sqrt endpoint. The substitution chi = chi_max - u^2 removes it exactly;
the radicand is always evaluated through the factorization

    rho^2 - w^2 = (rho - w)(rho + w),
    rho - w     = 2 sin((chi + chi_max)/2) sin((chi_max - chi)/2)

which has no cancellation even arbitrarily close to the turning point.

Kernel rule: the integrands handed to quad do plain-float arithmetic with
`math`, never numpy scalar calls, which cost about ten times as much per
evaluation and dominated every solve. They keep numpy's scalar semantics on
the edges quad can reach: a negative radicand gives nan and a zero
denominator gives +-inf (0/0 gives nan), never ValueError or
ZeroDivisionError, so quadrature failures surface exactly as before.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate import IntegrationWarning, quad

from .errors import DomainError, ForbiddenRegionError, _require_finite
from .potential import chi_sup, critical_angles, turning_point
from .surface import Family, SurfaceSpec

_ORBIT = "orbit"
_LENGTH = "length"

# endpoint slack (in chi) when deciding whether a limit sits on a turning point
_TURN_EPS = 1e-9
# fraction of chi_max up to which plain quadrature is used before switching
# to the substituted tail
_DIRECT_FRACTION = 0.75
# pi - math.pi, the part of pi a double drops
_PI_TAIL = math.sin(math.pi)


@dataclass(frozen=True)
class QuadratureConfig:
    abs_tol: float = 1e-12
    rel_tol: float = 1e-12
    limit: int = 300

    def __post_init__(self):
        if not (0 < self.abs_tol <= 1e-3 and 0 < self.rel_tol <= 1e-3):
            raise DomainError("quadrature tolerances must lie in (0, 1e-3]")


_DEFAULT = QuadratureConfig()


def _rho(c, chi):
    # c + 1 + cos(chi), grouped so rho - w stays well conditioned
    return c + 2.0 * np.cos(chi / 2.0) ** 2


def _integrand(orbit, w, rho, rad):
    """(w / rho if orbit else rho) / sqrt(rad), in plain floats.

    The rare edge (rad < 0 or a zero divisor) is recomputed in numpy so it
    yields nan or +-inf exactly as numpy scalars would.
    """
    try:
        return (w / rho if orbit else rho) / math.sqrt(rad)
    except (ValueError, ZeroDivisionError):
        with np.errstate(all="ignore"):
            rho = np.float64(rho)
            return float((w / rho if orbit else rho) / np.sqrt(np.float64(rad)))


def _w_of_beta0(spec, beta0):
    return (spec.c + 2.0) * abs(np.sin(beta0))


def _quad(f, a, b, cfg, points=None):
    # roundoff warnings fire on extreme near-critical boundary layers where
    # only a few digits are needed for bracketing; accuracy where it matters
    # is covered by the ODE cross-checks
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        val, _ = quad(f, a, b, epsabs=cfg.abs_tol, epsrel=cfg.rel_tol,
                      limit=cfg.limit, points=points)
    return val


def _unbound_integral(spec, w, chi_lo, chi_hi, kind, cfg):
    """Integral over [chi_lo, chi_hi] when rho > w everywhere (ring, w < c)."""
    c, w, orbit = float(spec.c), float(w), kind == _ORBIT
    gap = c - w

    def f(chi):
        h = math.cos(0.5 * chi)
        h2 = 2.0 * h ** 2
        rho = c + h2
        return _integrand(orbit, w, rho, (gap + h2) * (rho + w))

    # split at multiples of pi so the peaks at the inner equator sit on
    # subinterval boundaries
    cuts = [chi_lo]
    k = np.floor(chi_lo / np.pi) + 1.0
    while k * np.pi < chi_hi:
        cuts.append(k * np.pi)
        k += 1.0
    cuts.append(chi_hi)
    return sum(_quad(f, lo, hi, cfg) for lo, hi in zip(cuts[:-1], cuts[1:]) if hi > lo)


def _bound_direct(spec, w, chi_max, chi_lo, chi_hi, kind, cfg):
    """Plain quadrature on [chi_lo, chi_hi] strictly inside [0, chi_max)."""
    c, w, chi_max, orbit = float(spec.c), float(w), float(chi_max), kind == _ORBIT

    def f(chi):
        h = math.cos(0.5 * chi)
        rho = c + 2.0 * h ** 2
        diff = (2.0 * math.sin(0.5 * (chi + chi_max))
                * math.sin(0.5 * (chi_max - chi)))
        return _integrand(orbit, w, rho, diff * (rho + w))

    return _quad(f, chi_lo, chi_hi, cfg)


def _bound_tail(spec, w, chi_max, chi_from, kind, cfg):
    """Integral from chi_from up to the turning point chi_max.

    Substituting chi = chi_max - u^2 cancels the 1/sqrt endpoint: the factor
    sin((chi_max - chi)/2) = sin(u^2/2) contributes u * sqrt(sinc), leaving a
    smooth integrand in u. rho = w + (rho - w) keeps its digits where the
    turning point nears the axis and rho is as small as w.
    """
    w, chi_max, orbit = float(w), float(chi_max), kind == _ORBIT

    def h(u):
        uu = u * u
        half = 0.5 * uu
        sinc = math.sin(half) / half if half else 1.0
        # sin((chi + chi_max)/2) = sin(chi_max - u^2/2), through its
        # supplement near pi, where the sum would drown a near-critical layer
        s = sinc * math.sin(min(chi_max - half, (math.pi - chi_max) + half + _PI_TAIL))
        rho = w + uu * s
        return 2.0 * _integrand(orbit, w, rho, s * (rho + w))

    upper = np.sqrt(chi_max - chi_from)
    top = chi_sup(spec)
    if top - chi_max >= np.pi - 3.0:
        return _quad(h, 0.0, upper, cfg)
    if spec.family is Family.SPINDLE:
        # near the apex h has a layer of width sqrt(w / sin(chi_sup)) at
        # u = 0 whose tail falls as u^-3, too fast for quad to see from a
        # breakpoint; u = layer sinh(v) spreads it evenly over v
        layer = math.sqrt(w / math.sin(top))
        return _quad(lambda v: h(layer * math.sinh(v)) * layer * math.cosh(v),
                     0.0, math.asinh(upper / layer), cfg)
    # near-critical: h has a boundary layer of width sqrt(pi - chi_max) at
    # u = 0 with a 1/u tail; hand quad the breakpoint
    layer = np.sqrt(top - chi_max)
    points = [layer] if 0.0 < layer < upper else None
    return _quad(h, 0.0, upper, cfg, points=points)


def _bound_primitive(spec, w, chi_max, x, kind, cfg, quarter=None):
    """Odd primitive T(x) = Int_0^x of the bound integrand, |x| <= chi_max.

    quarter is T(chi_max) when the caller already has it.
    """
    xa = abs(x)
    if xa == 0.0:
        return 0.0
    if xa <= _DIRECT_FRACTION * chi_max:
        val = _bound_direct(spec, w, chi_max, 0.0, xa, kind, cfg)
    else:
        if quarter is None:
            quarter = _bound_tail(spec, w, chi_max, 0.0, kind, cfg)
        val = quarter - (_bound_tail(spec, w, chi_max, xa, kind, cfg)
                         if xa < chi_max else 0.0)
    return np.copysign(val, x)


def orbit_angle(spec: SurfaceSpec, beta0: float, chi: float,
                config: QuadratureConfig = _DEFAULT) -> float:
    """Azimuth swept while the radial angle runs from 0 to chi.

    Odd in both chi and beta0. For bound launches chi must not pass the
    turning point chi_max(beta0).
    """
    _require_finite(beta0=beta0, chi=chi)
    s = np.sin(beta0)
    if s == 0.0 or chi == 0.0:
        return 0.0
    w = _w_of_beta0(spec, beta0)
    sign = np.copysign(1.0, s) * np.copysign(1.0, chi)
    xa = abs(chi)
    tp = turning_point(spec, beta0)
    if tp.chi_max is None:
        return sign * _unbound_integral(spec, w, 0.0, xa, _ORBIT, config)
    if xa > tp.chi_max + _TURN_EPS:
        raise DomainError(
            f"chi={chi} lies beyond the turning point chi_max={tp.chi_max}")
    xa = min(xa, tp.chi_max)
    return sign * _bound_primitive(spec, w, tp.chi_max, xa, _ORBIT, config)


@dataclass(frozen=True)
class FrequencyBranch:
    """A branch of N(beta0), monotone from the singular end `end` (beta_crit,
    or the apex 0) to `far`, with the limits n_end and n_far of N there."""
    end: float
    far: float
    n_end: float
    n_far: float

    @property
    def limits(self):
        return min(self.n_end, self.n_far), max(self.n_end, self.n_far)


def frequency_branch(spec: SurfaceSpec, p: int):
    """The unbound (p = 1) or bound (p = 0) branch of N, or None if absent.

        branch        N at the singular end       N at the far end
        ring unbound  0 at beta_crit              +inf at 0
        ring bound    0 at beta_crit              sqrt(c+2) at pi/2
        horn          0 at 0                      sqrt(2) at pi/2
        spindle       sqrt(-c(c+2)) at the apex   sqrt(c+2) at pi/2

    N decreases in beta0 on the unbound branch and on the lemon (c < -1).
    """
    sup = math.sqrt(spec.c + 2.0)
    bc = critical_angles(spec).beta_crit
    if p == 1:
        return None if bc is None else FrequencyBranch(bc, 0.0, 0.0, math.inf)
    if bc is not None:
        return FrequencyBranch(bc, 0.5 * math.pi, 0.0, sup)
    return FrequencyBranch(0.0, 0.5 * math.pi, math.sqrt(abs(spec.c * (spec.c + 2.0))), sup)


def theta_frequency_unbound(spec: SurfaceSpec, beta0: float,
                            config: QuadratureConfig = _DEFAULT) -> float:
    """Radial loops per azimuthal revolution, N = 2 pi / G(2 pi, beta0).

    Returns the limit 0 where rounding puts w = (c+2) sin(beta0) at or
    above c just below beta_crit, and G diverges.
    """
    crit = critical_angles(spec)
    if crit.beta_crit is None:
        raise DomainError("unbound nonradial geodesics exist only on ring tori")
    if not 0.0 < beta0 < crit.beta_crit:
        raise DomainError(f"beta0={beta0} outside the unbound range (0, {crit.beta_crit})")
    w = _w_of_beta0(spec, beta0)
    if w >= spec.c:
        return 0.0
    G = _unbound_integral(spec, w, 0.0, 2.0 * np.pi, _ORBIT, config)
    return 2.0 * np.pi / G


def theta_frequency_bound(spec: SurfaceSpec, beta0: float,
                          config: QuadratureConfig = _DEFAULT) -> float:
    """Radial oscillations per revolution for bound launches.

    Monotone from its limit at the singular end (0 at beta_crit on ring
    tori and the horn's apex, sqrt(-c(c+2)) at a spindle's apex) to
    sqrt(c+2), returned exactly at beta0 = pi/2; see frequency_branch.
    Where N comes closer to a limit than rounding, the limit is returned.
    """
    br = frequency_branch(spec, 0)
    if not br.end < beta0 <= np.pi / 2.0:
        raise DomainError(f"beta0={beta0} outside the bound range ({br.end}, pi/2]")
    tp = turning_point(spec, beta0)
    if tp.chi_max is None:
        return 0.0              # sin(beta0) rounds below the critical level
    if tp.chi_max == 0.0:
        return br.n_far
    w = _w_of_beta0(spec, beta0)
    quarter = _bound_tail(spec, w, tp.chi_max, 0.0, _ORBIT, config)
    lo, hi = br.limits
    return min(max(2.0 * np.pi / (4.0 * quarter), lo), hi)


def arc_length_unbound_loop(spec: SurfaceSpec, beta0: float, loops: int = 1,
                            config: QuadratureConfig = _DEFAULT) -> float:
    """Arc length of one unbound radial loop (chi advancing by 2 pi), times loops."""
    crit = critical_angles(spec)
    if crit.beta_crit is None or not 0.0 <= beta0 < crit.beta_crit:
        raise DomainError("unbound loops require a ring torus and 0 <= beta0 < beta_crit")
    w = _w_of_beta0(spec, beta0)
    if w >= spec.c:
        raise DomainError(f"beta0={beta0} rounds onto the inner equator, "
                          f"w = (c+2) sin(beta0) = {w} >= c: the loop never closes")
    L = spec.b * _unbound_integral(spec, w, 0.0, 2.0 * np.pi, _LENGTH, config)
    return loops * L


def arc_length_bound_period(spec: SurfaceSpec, beta0: float,
                            config: QuadratureConfig = _DEFAULT) -> float:
    """Arc length of one full radial oscillation, four quarter arcs."""
    crit = critical_angles(spec)
    lo = crit.beta_crit if crit.beta_crit is not None else 0.0
    if not lo < beta0 < np.pi / 2.0:
        raise DomainError(f"beta0={beta0} outside the bound range ({lo}, pi/2)")
    tp = turning_point(spec, beta0)
    w = _w_of_beta0(spec, beta0)
    return 4.0 * spec.b * _bound_tail(spec, w, tp.chi_max, 0.0, _LENGTH, config)


def _monotone_arc(spec, w, chi0, chi1, kind, cfg):
    """Signed dimensionless integral along the monotone arc chi0 -> chi1.

    Handles both regimes: w below the inner-equator barrier (any span) and
    well-trapped motion, where both endpoints must lie inside the same
    potential well and may sit exactly on its turning points.
    """
    if chi1 == chi0:
        return 0.0
    c = spec.c
    if w == 0.0:
        return chi1 - chi0 if kind == _LENGTH else 0.0
    if spec.family is Family.RING and w < c * (1.0 - 1e-14):
        lo, hi = min(chi0, chi1), max(chi0, chi1)
        val = _unbound_integral(spec, w, lo, hi, kind, cfg)
        return float(np.copysign(val, chi1 - chi0))
    if w > c + 2.0 + _TURN_EPS:
        raise ForbiddenRegionError("the radicand R^2 - p^2 is negative everywhere")
    chi_t = float(np.arccos(np.clip(w - c - 1.0, -1.0, 1.0)))
    k = np.round(0.5 * (chi0 + chi1) / (2.0 * np.pi))
    x0, x1 = chi0 - 2.0 * np.pi * k, chi1 - 2.0 * np.pi * k
    if max(abs(x0), abs(x1)) > chi_t + _TURN_EPS:
        raise ForbiddenRegionError(
            f"arc [{chi0}, {chi1}] leaves the allowed band |chi| <= {chi_t}")
    x0 = float(np.clip(x0, -chi_t, chi_t))
    x1 = float(np.clip(x1, -chi_t, chi_t))
    quarter = (_bound_tail(spec, w, chi_t, 0.0, kind, cfg)
               if max(abs(x0), abs(x1)) > _DIRECT_FRACTION * chi_t else None)
    return (_bound_primitive(spec, w, chi_t, x1, kind, cfg, quarter)
            - _bound_primitive(spec, w, chi_t, x0, kind, cfg, quarter))


def affine_time(spec: SurfaceSpec, E: float, ell: float, r0: float, r: float,
                config: QuadratureConfig = _DEFAULT) -> float:
    """Affine-parameter increment along a monotone radial segment r0 -> r.

    Signed like r - r0. Turning-point endpoints are fine (integrable);
    crossing into the region where E < U raises ForbiddenRegionError.
    """
    _require_finite(E=E, ell=ell, r0=r0, r=r)
    if not E > 0:
        raise DomainError("affine_time requires positive energy")
    if r == r0:
        return 0.0
    speed = np.sqrt(2.0 * E)
    if ell == 0.0:
        return (r - r0) / speed
    b = spec.b
    w = abs(ell) / (b * speed)
    val = _monotone_arc(spec, w, r0 / b, r / b, _LENGTH, config)
    return val * b / speed


def critical_divergence_estimate(spec: SurfaceSpec, chi: float) -> float:
    """Asymptotic cycle count of the orbit angle near chi = pi at beta_crit.

    At the critical angle the orbit integrand behaves like
    1 / (2 pi sqrt(c) (pi - chi)) per cycle, so the sweep up to chi is about
    ln(1/(pi - chi)) / (2 pi sqrt(c)). Useful as a diagnostic for why root
    finding stalls near beta_crit. Note the value at pi - chi = 1e-10 for
    c = 1 is 3.664, not the rougher 3.3 sometimes quoted.
    """
    if spec.family is not Family.RING:
        raise DomainError("critical asymptote exists only on ring tori")
    if not chi < np.pi:
        raise DomainError("estimate is for chi approaching pi from below")
    return float(np.log(1.0 / (np.pi - chi)) / (2.0 * np.pi * np.sqrt(spec.c)))
