"""Reduced 1-D radial problem at fixed angular momentum.

Conservation of ell = R^2 vtheta turns the radial geodesic equation into
motion in the effective potential U(r) = ell^2 / (2 R(r)^2): the outer
equator is the well minimum, the inner equator (ring tori) the barrier
maximum, and horn/spindle tori raise the barrier to infinity where the
surface meets the axis.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError, _require_finite
from .surface import Family, SurfaceSpec

# relative slack when deciding E == U at an equilibrium level
_LEVEL_RTOL = 1e-12


class GeodesicClass(enum.Enum):
    MERIDIAN = "meridian"
    OUTER_EQUATOR = "outer-equator"
    INNER_EQUATOR = "inner-equator"
    BOUND = "bound"
    CRITICAL_ASYMPTOTIC = "critical-asymptotic"
    UNBOUND = "unbound"
    LEMON_BOUND = "lemon-bound"
    APPLE_BOUND = "apple-bound"


@dataclass(frozen=True)
class TurningPoints:
    chi_max: Optional[float]
    r_max: Optional[float]


@dataclass(frozen=True)
class CriticalAngles:
    beta_crit: Optional[float]     # asymptotic approach to the inner equator (ring)
    beta_polar: Optional[float]    # just reaches the polar circles
    chi_inf: Optional[float]       # spindle only


@dataclass(frozen=True)
class OscillationData:
    omega: float                   # radial angular frequency in affine time
    omega_s: float                 # same per unit arc length
    freq_per_rev: float            # radial oscillations per azimuthal revolution
    half_period_theta: float
    convergence_length: float


def effective_potential(spec: SurfaceSpec, ell: float, r):
    """U(r) = ell^2 / (2 R^2); +inf (in-band) where the surface meets the axis."""
    R = np.asarray(spec.R(r), dtype=float)
    with np.errstate(divide="ignore"):
        out = np.where(R == 0.0, np.inf, ell * ell / (2.0 * R * R))
    return float(out) if out.ndim == 0 else out


def classify(spec: SurfaceSpec, E: float, ell: float):
    """Sort (E, ell) initial data at r = 0 into the geodesic taxonomy.

    Returns a tuple of GeodesicClass members; it has two entries exactly at
    the ring-torus critical level, where the inner equator circle and the
    asymptotic spirals share the same energy.
    """
    _require_finite(E=E, ell=ell)
    if not E > 0:
        raise DomainError("classification needs positive kinetic energy")
    if ell == 0.0:
        return (GeodesicClass.MERIDIAN,)
    U0 = effective_potential(spec, ell, 0.0)
    if E < U0 * (1.0 - _LEVEL_RTOL):
        raise DomainError(f"no motion: E={E} below the well bottom U(0)={U0}")
    if E <= U0 * (1.0 + _LEVEL_RTOL):
        return (GeodesicClass.OUTER_EQUATOR,)

    if spec.family is Family.RING:
        Ui = effective_potential(spec, ell, spec.b * np.pi)
        if abs(E - Ui) <= _LEVEL_RTOL * Ui:
            return (GeodesicClass.INNER_EQUATOR, GeodesicClass.CRITICAL_ASYMPTOTIC)
        return (GeodesicClass.BOUND,) if E < Ui else (GeodesicClass.UNBOUND,)
    if spec.family is Family.SPINDLE:
        # with a < 0 the lemon equator has been mapped to r = 0
        well = GeodesicClass.LEMON_BOUND if spec.a < 0 else GeodesicClass.APPLE_BOUND
        return (well,)
    # horn tori and spheres trap every nonradial geodesic
    return (GeodesicClass.BOUND,)


def turning_point(spec: SurfaceSpec, beta0: float) -> TurningPoints:
    """Outermost radial angle chi_max reached from the outer equator at angle beta0.

    None when the launch is steep enough to escape through the hole
    (ring tori with |sin beta0| < c/(2+c)).
    """
    _require_finite(beta0=beta0)
    s = abs(np.sin(beta0))
    c = spec.c
    if c > 0 and s < c / (2.0 + c):
        return TurningPoints(None, None)
    arg = np.clip((2.0 + c) * s - (1.0 + c), -1.0, 1.0)
    chi = float(np.arccos(arg))
    return TurningPoints(chi, spec.b * chi)


def critical_angles(spec: SurfaceSpec) -> CriticalAngles:
    """Launch angles separating the (E, beta0) classification regimes."""
    c = spec.c
    beta_crit = float(np.arcsin(c / (2.0 + c))) if spec.family is Family.RING else None
    ratio = (1.0 + c) / (2.0 + c)
    beta_polar = float(np.arcsin(ratio)) if 0.0 <= ratio <= 1.0 else None
    chi_inf = chi_sup(spec) if spec.family is Family.SPINDLE else None
    return CriticalAngles(beta_crit, beta_polar, chi_inf)


def chi_sup(spec: SurfaceSpec) -> float:
    """Supremum of the turning angle: the inner equator pi on ring tori,
    else the axis angle arccos(-(c+1)) (pi on the horn, the apex on spindles)."""
    if spec.family is Family.RING:
        return float(np.pi)
    return float(np.arccos(-(spec.c + 1.0)))


def small_oscillation(spec: SurfaceSpec, ell: float) -> OscillationData:
    """Harmonic analysis of the well bottom at r = 0.

    Expanding U about the minimum gives radial angular frequency
    omega = |ell| / sqrt(b (a+b)^3); dividing by the azimuthal frequency
    ell/(a+b)^2 leaves sqrt(c+2) oscillations per revolution, independent of
    ell. The convergence length b sqrt(c+2) pi is where neighbouring
    near-equator geodesics refocus.
    """
    a, b, c = spec.a, spec.b, spec.c
    omega = abs(ell) / np.sqrt(b * (a + b) ** 3)
    freq = np.sqrt(c + 2.0)
    return OscillationData(
        omega=float(omega),
        omega_s=float(freq / (a + b)),
        freq_per_rev=float(freq),
        half_period_theta=float(np.pi / freq),
        convergence_length=float(b * freq * np.pi),
    )
