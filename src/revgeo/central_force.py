"""Planar central-force orbits through the same effective-potential reduction.

The plane in polar coordinates is the degenerate surface of revolution
R(r) = r; conserving ell = r^2 dtheta/dt reduces any central force to 1d
radial motion in U(r) = ell^2 / (2 r^2) + V_phys(r). Supported physical
potential: V_phys = -k1/r - k2/r^3, which covers the Kepler problem (k2 = 0)
and the leading relativistic correction (k2 > 0) that opens an inner
capture zone behind a centrifugal barrier.

Apsidal angles are closed-form. With u = 1/r the radicand of the orbit
integral is the cubic 2 k2 (u - ua)(u - up)(u - u3), with roots at the
apoapsis ua, the periapsis up and the inner factor root u3 behind the
barrier, so the angle from periapsis to apoapsis is a complete elliptic
integral of the first kind (Byrd & Friedman 233.00),

    apsidal = 2 ell K(m) / sqrt(2 k2 (u3 - ua)),   m = (up - ua) / (u3 - ua),

with K from the arithmetic-geometric mean. For Kepler (k2 = 0) it is
exactly pi; for small k2 the perihelion advance per orbit approaches
6 pi k1 k2 / ell^4.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidParameterError, _require_finite

_RTOL = 1e-12


@dataclass(frozen=True)
class ForceParams:
    k1: float
    k2: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.k1) and math.isfinite(self.k2)):
            raise InvalidParameterError(
                f"force constants must be finite, got k1={self.k1}, k2={self.k2}")
        if self.k1 < 0 or self.k2 < 0:
            raise InvalidParameterError("force constants must be >= 0 (attractive)")


class OrbitClass(enum.Enum):
    BOUND = "bound"
    SCATTER = "scatter"
    TRAPPED = "trapped"                # inner zone behind the barrier
    CAPTURE = "capture"                # over the barrier, falls to the center
    CIRCULAR_STABLE = "circular-stable"
    CIRCULAR_UNSTABLE = "circular-unstable"


def total_potential(params: ForceParams, ell: float, r):
    """Effective radial potential ell^2/(2 r^2) - k1/r - k2/r^3."""
    r = np.asarray(r, dtype=float)
    with np.errstate(divide="ignore"):
        U = ell ** 2 / (2.0 * r ** 2) - params.k1 / r - params.k2 / r ** 3
    return U if U.ndim else float(U)


@dataclass(frozen=True)
class CircularOrbit:
    r: float
    stable: bool
    energy: float


def circular_radii(params: ForceParams, ell: float) -> tuple:
    """Circular-orbit radii, roots of k1 r^2 - ell^2 r + 3 k2 = 0.

    Sorted ascending; the inner root (when two exist) is the barrier top,
    the outer one the stable minimum. Empty when ell^4 < 12 k1 k2: the
    centrifugal barrier is swallowed and every orbit plunges.
    """
    _require_finite(ell=ell)
    k1, k2 = params.k1, params.k2
    if ell == 0.0:
        return ()
    if k1 == 0.0 and k2 == 0.0:
        return ()
    if k1 == 0.0:
        roots = [3.0 * k2 / ell ** 2]
    elif k2 == 0.0:
        roots = [ell ** 2 / k1]
    else:
        disc = ell ** 4 - 12.0 * k1 * k2
        if disc < 0.0:
            return ()
        s = np.sqrt(disc)
        roots = sorted([(ell ** 2 - s) / (2.0 * k1), (ell ** 2 + s) / (2.0 * k1)])
    out = []
    for r in roots:
        if r <= 0.0:
            continue
        curvature = (3.0 * ell ** 2 / r ** 4 - 2.0 * k1 / r ** 3
                     - 12.0 * k2 / r ** 5)
        out.append(CircularOrbit(float(r), bool(curvature > 0.0),
                                 float(total_potential(params, ell, r))))
    return tuple(out)


def classify_orbit(params: ForceParams, ell: float, E: float) -> tuple:
    """Accessible orbit classes at the given energy, as a tuple.

    With an inner capture zone the same energy generally allows two disjoint
    radial regions, so two classes are reported (inner first).
    """
    _require_finite(ell=ell, E=E)
    k1, k2 = params.k1, params.k2
    if ell == 0.0:
        if k1 == 0.0 and k2 == 0.0:
            return (OrbitClass.SCATTER,) if E > 0 else ()
        return (OrbitClass.CAPTURE,)
    circ = circular_radii(params, ell)

    if k2 == 0.0:
        if not circ:       # free particle with angular momentum
            return (OrbitClass.SCATTER,)
        v_min = circ[0].energy
        tol = _RTOL * (1.0 + abs(v_min))
        if E < v_min - tol:
            raise DomainError(f"E = {E} lies below the potential minimum {v_min}")
        if abs(E - v_min) <= tol:
            return (OrbitClass.CIRCULAR_STABLE,)
        return (OrbitClass.BOUND,) if E < 0.0 else (OrbitClass.SCATTER,)

    if len(circ) < 2:
        # barrier swallowed: one connected region down to the center
        return (OrbitClass.CAPTURE, OrbitClass.SCATTER) if E >= 0.0 \
            else (OrbitClass.CAPTURE,)
    v_max = circ[0].energy
    v_min = circ[1].energy
    tol = _RTOL * (1.0 + abs(v_max) + abs(v_min))
    if E > v_max + tol:
        return (OrbitClass.CAPTURE,)
    if abs(E - v_max) <= tol:
        return (OrbitClass.TRAPPED, OrbitClass.CIRCULAR_UNSTABLE)
    if abs(E - v_min) <= tol:
        return (OrbitClass.TRAPPED, OrbitClass.CIRCULAR_STABLE)
    if E < v_min - tol:
        return (OrbitClass.TRAPPED,)
    if E < 0.0:
        return (OrbitClass.TRAPPED, OrbitClass.BOUND)
    return (OrbitClass.TRAPPED, OrbitClass.SCATTER)


def _radial_roots(params, ell, E):
    """Positive roots of 2(E - U) = 0, ascending: the turning radii, led
    for k2 > 0 by the inner factor root r3 behind the barrier."""
    k1, k2 = params.k1, params.k2
    if k2 == 0.0:
        roots = np.roots([2.0 * E, 2.0 * k1, -ell ** 2])
    else:
        roots = np.roots([2.0 * E, 2.0 * k1, -ell ** 2, 2.0 * k2])
    real = sorted(float(z.real) for z in roots
                  if abs(z.imag) <= 1e-9 * (1.0 + abs(z)) and z.real > 0.0)
    return real


def apsidal_angle(params: ForceParams, ell: float, E: float) -> float:
    """Azimuth swept between successive periapsis and apoapsis passages.

    Defined for orbits bound in the annulus between two turning radii.
    Exactly pi for the Kepler problem; infinite at the barrier top, where
    the periapsis merges with the inner root.
    """
    _require_finite(ell=ell, E=E)
    if ell == 0.0:
        raise DomainError("radial orbits have no apsidal angle")
    if E >= 0.0:
        raise DomainError("need E < 0 for an outer turning radius")
    roots = _radial_roots(params, ell, E)
    if len(roots) != (2 if params.k2 == 0.0 else 3):
        raise DomainError(f"E = {E} admits no bound annulus")
    if params.k2 == 0.0:
        return math.copysign(math.pi, ell)
    r3, rp, ra = roots
    # K(m) = pi / (2 AGM(1, k')), k'^2 = 1 - m = (u3 - up) / (u3 - ua); the
    # u differences are formed as r differences, u3 - up = (rp - r3) / (r3 rp),
    # which keep their digits where rp nears r3 at the barrier top
    a, b = 1.0, math.sqrt((rp - r3) * ra / ((ra - r3) * rp))
    if b == 0.0:
        return math.copysign(math.inf, ell)
    while a - b > 1e-15 * a:
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    K = math.pi / (a + b)
    return 2.0 * float(ell) * K / math.sqrt(2.0 * params.k2 * (ra - r3) / (r3 * ra))


def perihelion_precession(params: ForceParams, ell: float, E: float) -> float:
    """Perihelion advance per full radial period, 2 (apsidal - pi).

    For small k2 this approaches 6 pi k1 k2 / ell^4.
    """
    return 2.0 * (apsidal_angle(params, ell, E) - np.pi)


@dataclass(frozen=True)
class PlaneOrbit:
    t: np.ndarray
    r: np.ndarray
    theta: np.ndarray
    vr: np.ndarray
    captured: bool
    e_drift: float


def integrate_orbit(params: ForceParams, ell: float, r0: float, vr0: float,
                    t_max: float) -> PlaneOrbit:
    """Integrate the planar orbit from theta = 0; terminates as captured at
    r = 1e-3 r0.

    DOP853 runs at rtol 1e-10, atol 1e-12, without dense output: only the
    step that the capture cuts forms its interpolant. Three decades of
    infall are enough to flag a capture; pushing the floor much lower stalls
    the integrator against the r^-4 force growth. e_drift is the energy
    error relative to the local energy scale, so plunges report integrator
    quality instead of raw cancellation noise.
    """
    _require_finite(ell=ell, r0=r0, vr0=vr0, t_max=t_max)
    if r0 <= 0.0:
        raise DomainError("need r0 > 0")
    from ._solvers import dop853
    k1, k2 = params.k1, params.k2
    r_floor = 1e-3 * r0

    def rhs(t, y):
        r = y[0]
        return [y[2],
                ell / r ** 2,
                ell ** 2 / r ** 3 - k1 / r ** 2 - 3.0 * k2 / r ** 4]

    run = dop853(rhs, 0.0, t_max, [r0, 0.0, vr0], 1e-10, 1e-12,
                 event=lambda t, y: y[0] - r_floor, dense_output=False)
    E0 = 0.5 * vr0 ** 2 + total_potential(params, ell, r0)
    kinetic = 0.5 * run.y[2] ** 2
    V_path = total_potential(params, ell, run.y[0])
    scale = np.maximum(np.maximum(abs(E0), kinetic + np.abs(V_path)), 1e-300)
    drift = float(np.max(np.abs(kinetic + V_path - E0) / scale))
    return PlaneOrbit(run.t, run.y[0], run.y[1], run.y[2],
                      run.t_event is not None, drift)
