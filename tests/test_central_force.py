"""Planar central-force reduction: Kepler limit and the r^-3 correction."""

import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from revgeo import DomainError, InvalidParameterError, central_force
from revgeo.central_force import (ForceParams, OrbitClass, apsidal_angle,
                                  circular_radii, classify_orbit,
                                  integrate_orbit, perihelion_precession,
                                  total_potential)

KEPLER = ForceParams(1.0, 0.0)
CORRECTED = ForceParams(1.0, 0.02)


def test_params_validation():
    with pytest.raises(InvalidParameterError):
        ForceParams(-1.0, 0.0)
    with pytest.raises(InvalidParameterError):
        ForceParams(1.0, -0.1)
    for k1, k2 in ((np.nan, 0.0), (np.inf, 0.0), (1.0, np.nan), (1.0, np.inf)):
        with pytest.raises(InvalidParameterError):
            ForceParams(k1, k2)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_inputs_raise_domain_error(bad):
    calls = [lambda: circular_radii(CORRECTED, bad),
             lambda: classify_orbit(CORRECTED, bad, -0.3),
             lambda: classify_orbit(CORRECTED, 1.0, bad),
             lambda: apsidal_angle(CORRECTED, bad, -0.3),
             lambda: apsidal_angle(CORRECTED, 1.0, bad),
             lambda: apsidal_angle(KEPLER, 1.0, bad),
             lambda: integrate_orbit(KEPLER, bad, 1.0, 0.0, 1.0),
             lambda: integrate_orbit(KEPLER, 1.0, bad, 0.0, 1.0),
             lambda: integrate_orbit(KEPLER, 1.0, 1.0, bad, 1.0),
             lambda: integrate_orbit(KEPLER, 1.0, 1.0, 0.0, bad)]
    for call in calls:
        with pytest.raises(DomainError, match="finite"):
            call()


def test_potential_and_derivative():
    r = np.array([0.5, 1.0, 2.0])
    U = total_potential(CORRECTED, 1.0, r)
    assert U[1] == pytest.approx(0.5 - 1.0 - 0.02)
    h = 1e-6
    for x in (0.4, 1.3):
        num = (total_potential(CORRECTED, 1.0, x + h)
               - total_potential(CORRECTED, 1.0, x - h)) / (2.0 * h)
        dU = -1.0 / x ** 3 + CORRECTED.k1 / x ** 2 + 3.0 * CORRECTED.k2 / x ** 4
        assert dU == pytest.approx(num, rel=1e-8)


def test_kepler_apsidal_angle_is_pi():
    assert apsidal_angle(KEPLER, 1.0, -0.3) == pytest.approx(np.pi, abs=5e-15)
    assert apsidal_angle(KEPLER, 0.7, -0.45) == pytest.approx(np.pi, abs=5e-15)
    assert perihelion_precession(KEPLER, 1.0, -0.3) == pytest.approx(0.0,
                                                                     abs=1e-14)


def test_apsidal_angle_domain():
    with pytest.raises(DomainError):
        apsidal_angle(KEPLER, 0.0, -0.3)
    with pytest.raises(DomainError):
        apsidal_angle(KEPLER, 1.0, 0.1)


@pytest.mark.parametrize("k2,ratio_tol", [(1e-5, 2e-4), (1e-4, 1e-3),
                                          (1e-3, 1e-2)])
def test_precession_matches_leading_order(k2, ratio_tol):
    # advance per orbit -> 6 pi k1 k2 / ell^4 as k2 -> 0; the residual is
    # itself O(k2), visible in the widening tolerance
    adv = perihelion_precession(ForceParams(1.0, k2), 1.0, -0.3)
    assert adv / (6.0 * np.pi * k2) == pytest.approx(1.0, abs=1.2 * ratio_tol)
    assert adv > 6.0 * np.pi * k2          # correction enters with one sign


def test_circular_radii_kepler():
    (orb,) = circular_radii(KEPLER, 1.0)
    assert orb.r == pytest.approx(1.0)
    assert orb.stable
    assert orb.energy == pytest.approx(-0.5)
    assert circular_radii(KEPLER, 0.0) == ()


def test_circular_radii_with_barrier():
    inner, outer = circular_radii(CORRECTED, 1.0)
    assert inner.r == pytest.approx(0.06411010564593267, abs=1e-13)
    assert not inner.stable
    assert inner.energy == pytest.approx(30.15168146801348, rel=1e-12)
    assert outer.r == pytest.approx(0.9358898943540673, abs=1e-13)
    assert outer.stable
    assert outer.energy == pytest.approx(-0.5220518383838513, rel=1e-12)
    # barrier swallowed when ell^4 < 12 k1 k2
    assert circular_radii(ForceParams(1.0, 1.0), 1.0) == ()


def test_classification_table():
    assert classify_orbit(KEPLER, 1.0, -0.2) == (OrbitClass.BOUND,)
    assert classify_orbit(KEPLER, 1.0, 0.5) == (OrbitClass.SCATTER,)
    with pytest.raises(DomainError):
        classify_orbit(KEPLER, 1.0, -0.9)      # below the minimum -0.5
    inner, outer = circular_radii(CORRECTED, 1.0)
    assert classify_orbit(CORRECTED, 1.0, -0.3) == (OrbitClass.TRAPPED,
                                                    OrbitClass.BOUND)
    assert classify_orbit(CORRECTED, 1.0, 5.0) == (OrbitClass.TRAPPED,
                                                   OrbitClass.SCATTER)
    assert classify_orbit(CORRECTED, 1.0, inner.energy) == (
        OrbitClass.TRAPPED, OrbitClass.CIRCULAR_UNSTABLE)
    assert classify_orbit(CORRECTED, 1.0, inner.energy + 1.0) == (
        OrbitClass.CAPTURE,)
    assert classify_orbit(CORRECTED, 0.0, 1.0) == (OrbitClass.CAPTURE,)


def test_bound_orbit_integration():
    orbit = integrate_orbit(KEPLER, 1.0, 1.0, 0.3, 60.0)
    assert not orbit.captured
    assert orbit.e_drift < 1e-9
    # turning radii of E0 = -0.455: 10/13 and 10/7
    assert orbit.r.min() == pytest.approx(10.0 / 13.0, abs=1e-4)
    assert orbit.r.max() == pytest.approx(10.0 / 7.0, abs=1e-4)
    assert np.all(np.diff(orbit.theta) > 0.0)


def test_plunge_is_captured():
    inner = circular_radii(CORRECTED, 1.0)[0]
    orbit = integrate_orbit(CORRECTED, 1.0, 0.5 * inner.r, -0.1, 50.0)
    assert orbit.captured
    assert orbit.r[-1] <= 1e-3 * 0.5 * inner.r * (1.0 + 1e-9)
    assert orbit.e_drift < 1e-8
    assert orbit.t[-1] < 50.0                  # terminated by the floor event


def test_integrate_orbit_validation():
    with pytest.raises(DomainError):
        integrate_orbit(KEPLER, 1.0, -1.0, 0.0, 10.0)


# -- the closed-form apsidal angle against two oracles -----------------------

def _bound_cases():
    """(params, ell, E) with k2 from 1e-6 to 0.1: ell puts the barrier
    q times over the swallowing threshold ell^4 = 12 k1 k2, and E lies the
    fraction f of the way from the stable circular orbit to the barrier top
    (or to 0 where the top is positive)."""
    for k2 in np.logspace(-6.0, -1.0, 6):
        params = ForceParams(1.0, float(k2))
        for q in (1.05, 2.0, 30.0):
            ell = (12.0 * k2 * q) ** 0.25
            inner, outer = circular_radii(params, ell)
            top = min(inner.energy, 0.0)
            for f in (1e-6, 0.5, 1.0 - 1e-6):
                yield params, ell, outer.energy + f * (top - outer.energy), f


def _mp_apsidal(params, ell, E):
    """The orbit integral at 30 digits from the turning radii the library
    forms: near the barrier top rounding them once moves the angle by far
    more than the closed form's own error. In u = 1/r the radicand is
    2 k2 (u - ua)(up - u)(u3 - u); u = mid - half cos(phi) cancels the
    turning factors and leaves a smooth integrand on [0, pi]."""
    r3, rp, ra = central_force._radial_roots(params, ell, E)
    with mpmath.workdps(30):
        u3, up, ua = (1 / mpmath.mpf(r) for r in (r3, rp, ra))
        mid, half = (ua + up) / 2, (up - ua) / 2
        k2, ell = mpmath.mpf(params.k2), mpmath.mpf(ell)
        return mpmath.quad(
            lambda phi: ell / mpmath.sqrt(2 * k2 * (u3 - mid + half * mpmath.cos(phi))),
            [0, mpmath.pi])


def _quad_apsidal(params, ell, E):
    """The phi-substitution quadrature the closed form replaced: with
    r = mid - half cos(phi) the radicand 2(E - U) = (r - rp)(ra - r) rad
    loses its turning factors against dr = half sin(phi) dphi."""
    roots = central_force._radial_roots(params, ell, E)
    r3 = roots[0] if params.k2 else 0.0
    rp, ra = roots[-2:]
    mid, half = 0.5 * (rp + ra), 0.5 * (ra - rp)

    def f(phi):
        r = mid - half * math.cos(phi)
        return (ell / r ** 2) / math.sqrt(-2.0 * E * (r - r3) / r ** 3)

    return quad(f, 0.0, np.pi, epsabs=1e-13, epsrel=1e-13, limit=200)[0]


def test_apsidal_angle_against_mpmath():
    for params, ell, E, _ in _bound_cases():
        want = _mp_apsidal(params, ell, E)
        got = apsidal_angle(params, ell, E)
        assert abs(float((got - want) / want)) <= 1e-15, (params, ell, E)


def test_apsidal_angle_against_quadrature():
    # the quadrature keeps its 1e-13 tolerance except next to the barrier
    # top, where its integrand grows a 1/phi layer
    cases = [(p, ell, E) for p, ell, E, f in _bound_cases() if f < 0.9]
    cases += [(KEPLER, 1.0, -0.3), (KEPLER, 0.7, -0.45), (CORRECTED, 1.0, -0.3)]
    for params, ell, E in cases:
        want = _quad_apsidal(params, ell, E)
        assert apsidal_angle(params, ell, E) == pytest.approx(want, rel=1e-13)


def test_apsidal_angle_signs_and_barrier_top(monkeypatch):
    assert apsidal_angle(KEPLER, 1.0, -0.3) == np.pi
    assert apsidal_angle(KEPLER, -1.0, -0.3) == -np.pi
    assert apsidal_angle(CORRECTED, -1.0, -0.3) == -apsidal_angle(CORRECTED, 1.0, -0.3)
    # the periapsis merging with the inner root: K(1) diverges
    monkeypatch.setattr(central_force, "_radial_roots", lambda *_: [0.5, 0.5, 2.0])
    assert apsidal_angle(CORRECTED, 1.0, -0.3) == math.inf
