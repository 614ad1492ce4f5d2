"""Quadrature layer: orbit angles, frequencies, arc lengths.

The frozen decimals below were produced by this library and cross-checked
against independent ODE shooting (see the dual-route tests); they pin the
quadrature against silent regressions. The last test compares the four
frequency and length laws with mpmath quadrature at 30 digits.
"""

import mpmath
import numpy as np
import pytest

from revgeo import DomainError, SurfaceSpec
from revgeo.dynamics import (OUTER_EQUATOR, IntegratorConfig,
                             initial_state_from_angle, integrate)
from revgeo.integrals import (QuadratureConfig, _integrand, _w_of_beta0,
                              affine_time, arc_length_bound_period,
                              arc_length_unbound_loop,
                              critical_divergence_estimate, orbit_angle,
                              theta_frequency_bound, theta_frequency_unbound)
from revgeo.potential import critical_angles, turning_point

# launch-angle roots on spec(2,1), solved by brentq on the frequency laws
BETA_11_0 = 0.4097039419613767        # [1,1;0]
BETA_12_0 = 0.34218054380354834       # [1,2;0]
BETA_32_0 = 0.7166635339015204        # [3,2;0]
BETA_71_1 = 0.11902589504689727       # [7,1;1]


def test_quadrature_config_validation():
    with pytest.raises(DomainError):
        QuadratureConfig(abs_tol=0.1)
    with pytest.raises(DomainError):
        QuadratureConfig(rel_tol=0.0)


def test_integrand_edges_follow_numpy():
    # quad sees nan or inf on the edges, as with numpy scalars, never an error
    assert _integrand(True, 1.0, 0.0, 1.0) == np.inf        # w / rho, rho = 0
    assert _integrand(True, 1.0, -0.0, 1.0) == -np.inf
    assert _integrand(False, 2.0, 2.0, 0.0) == np.inf       # radicand 0
    assert np.isnan(_integrand(False, 1.0, 0.0, 0.0))       # 0 / 0
    assert np.isnan(_integrand(True, 1.0, 2.0, -1e-300))    # radicand < 0
    assert _integrand(True, 1.0, 2.0, 4.0) == 0.25


def test_bound_frequency_at_frozen_roots(ring):
    assert theta_frequency_bound(ring, BETA_11_0) == pytest.approx(1.0,
                                                                   abs=1e-15 * 30)
    assert theta_frequency_bound(ring, BETA_12_0) == pytest.approx(0.5,
                                                                   abs=1e-13)
    assert theta_frequency_bound(ring, BETA_32_0) == pytest.approx(1.5,
                                                                   abs=1e-13)


def test_bound_frequency_supremum(ring):
    # N increases toward sqrt(c+2) = sqrt(3) as the launch flattens
    assert theta_frequency_bound(ring, np.pi / 2.0 - 1e-6) == pytest.approx(
        1.7320508075686603, abs=1e-12)
    b = np.array([0.4, 0.7, 1.0, 1.4])
    N = [theta_frequency_bound(ring, x) for x in b]
    assert np.all(np.diff(N) > 0)
    assert N[-1] < np.sqrt(3.0)


def test_unbound_frequency_monotone(ring):
    b = np.array([0.05, 0.15, 0.25, 0.32])
    N = [theta_frequency_unbound(ring, x) for x in b]
    assert np.all(np.diff(N) < 0)       # falls toward 0 at the critical angle
    assert N[0] > 2.0


def test_unbound_small_angle_advance(ring):
    # azimuth gained per meridian loop ~ (4 pi / sqrt(3)) beta0 for c = 1
    for b0 in (1e-6, 1e-8):
        ratio = orbit_angle(ring, b0, 2.0 * np.pi) / b0
        assert ratio == pytest.approx(4.0 * np.pi / np.sqrt(3.0), rel=1e-6)


def test_orbit_angle_rejects_beyond_turning_point(ring):
    with pytest.raises(DomainError):
        orbit_angle(ring, 0.5, 3.0)     # chi_max(0.5) = 2.167...


def test_arc_lengths_frozen(ring):
    assert arc_length_bound_period(ring, BETA_11_0) == pytest.approx(
        15.262246179494941, abs=1e-10)
    assert arc_length_unbound_loop(ring, BETA_71_1) == pytest.approx(
        6.4463595650076515, abs=1e-10)
    # a three-digit rounding of the seven-loop angle is a valid input too
    assert arc_length_unbound_loop(ring, 0.119) == pytest.approx(
        6.446284319164354, abs=1e-10)
    assert arc_length_unbound_loop(ring, 0.119, loops=7) == pytest.approx(
        7.0 * 6.446284319164354, rel=1e-12)


def test_affine_time_meridian(ring):
    # ell = 0 reduces to (r - r0) / sqrt(2 E)
    assert affine_time(ring, 2.0, 0.0, 0.0, 3.0) == pytest.approx(1.5,
                                                                  abs=1e-14)
    assert affine_time(ring, 0.5, 0.0, -1.0, 2.0) == pytest.approx(3.0,
                                                                   abs=1e-13)


def test_affine_time_longer_than_chord(ring):
    # unit speed (E = 1/2) and p = 1.5: the arc is longer than its radial chord
    t = affine_time(ring, 0.5, 1.5, 0.0, 1.0)
    assert t > 1.0
    assert affine_time(ring, 0.5, 1.5, 1.0, 0.0) == -t


@pytest.mark.parametrize("beta0,chi,name", [
    (0.3, np.inf, "chi"),           # the cuts at multiples of pi never end
    (0.3, -np.inf, "chi"),
    (0.3, np.nan, "chi"),
    (np.nan, 0.5, "beta0"),
    (np.inf, 0.5, "beta0"),
])
def test_orbit_angle_rejects_non_finite(ring, beta0, chi, name):
    with pytest.raises(DomainError, match=rf"\b{name} must be finite"):
        orbit_angle(ring, beta0, chi)


@pytest.mark.parametrize("E,ell,r0,r,name", [
    (0.5, 0.5, 0.0, np.inf, "r"),   # the cuts at multiples of pi never end
    (0.5, 0.5, 0.0, np.nan, "r"),
    (np.inf, 0.5, 0.0, 1.0, "E"),
    (np.nan, 0.5, 0.0, 1.0, "E"),
    (0.5, np.nan, 0.0, 1.0, "ell"),
    (0.5, 0.5, np.nan, 1.0, "r0"),
])
def test_affine_time_rejects_non_finite(ring, E, ell, r0, r, name):
    with pytest.raises(DomainError, match=rf"\b{name} must be finite"):
        affine_time(ring, E, ell, r0, r)


def test_critical_divergence_estimate(ring):
    chi = np.pi - 1e-10
    est = critical_divergence_estimate(ring, chi)
    assert est == pytest.approx(np.log(1.0 / (np.pi - chi)) / (2.0 * np.pi),
                                rel=1e-9)


def _ode_period_and_advance(spec, beta0):
    """Independent route: shoot the geodesic ODE and read the period off the
    outer-equator return events."""
    L_est = arc_length_bound_period(spec, beta0)
    cfg = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-13,
                           max_lambda=1.2 * L_est + 1.0, method="DOP853")
    tr = integrate(spec, initial_state_from_angle(spec, beta0), cfg)
    ev = tr.events_of(OUTER_EQUATOR)
    lam = ev[1].lam                     # second upward crossing: full period
    return lam, float(tr.dense(lam)[1])


@pytest.mark.parametrize("beta0", [0.45, 0.62, 0.85, 1.2])
def test_dual_route_bound_ring(ring, beta0):
    tp = turning_point(ring, beta0)
    advance = 4.0 * orbit_angle(ring, beta0, tp.chi_max)
    period = arc_length_bound_period(ring, beta0)
    lam, th = _ode_period_and_advance(ring, beta0)
    assert abs(lam - period) < 1e-8
    assert abs(th - advance) < 1e-7


def test_dual_route_bound_other_families(horn, spindle):
    for spec, beta0 in ((horn, 0.6), (spindle, 0.9)):
        tp = turning_point(spec, beta0)
        advance = 4.0 * orbit_angle(spec, beta0, tp.chi_max)
        period = arc_length_bound_period(spec, beta0)
        lam, th = _ode_period_and_advance(spec, beta0)
        assert abs(lam - period) < 1e-8
        assert abs(th - advance) < 1e-7


def test_dual_route_unbound_loop(ring):
    beta0 = 0.2
    L = arc_length_unbound_loop(ring, beta0)
    cfg = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-13, max_lambda=2.0 * L,
                           method="DOP853")
    tr = integrate(ring, initial_state_from_angle(ring, beta0), cfg)
    # one loop: r runs monotonically from 0 to 2 pi b
    lam = np.linspace(0.0, 2.0 * L, 4000)
    r = tr.dense(lam)[0]
    idx = np.searchsorted(r, 2.0 * np.pi * ring.b)
    lam_loop = np.interp(2.0 * np.pi * ring.b, r[idx - 1:idx + 1],
                         lam[idx - 1:idx + 1])
    assert abs(lam_loop - L) < 1e-6


def test_quadrature_tolerance_actually_used(ring):
    loose = QuadratureConfig(abs_tol=1e-4, rel_tol=1e-4)
    tight = QuadratureConfig()
    a = arc_length_bound_period(ring, 0.5, loose)
    b = arc_length_bound_period(ring, 0.5, tight)
    assert a == pytest.approx(b, rel=1e-3)


def _mp_quarter(c, w, x_t, orbit):
    """Int g(rho) dchi / sqrt(rho^2 - w^2) from chi = 0 to the arc's end.

    With x = cos chi, rho^2 - w^2 = (x - x_t)(rho + w). The arc ends at the
    larger of x_t (a bound turning point) and -1 (the inner equator, for an
    unbound half loop). x = base + (1 - base) sin^2 phi absorbs the 1/sqrt
    factors at 1 and at base, leaving 2 g / sqrt((x - other)(rho + w)) on
    [0, pi/2]; its peak at phi = 0 has width sqrt(|1 + x_t|), so quad gets
    breakpoints there.
    """
    mp = mpmath.mp
    c, w, x_t = mp.mpf(c), mp.mpf(w), mp.mpf(x_t)
    base = max(x_t, mp.mpf(-1))         # where the arc ends
    other = min(x_t, mp.mpf(-1))        # the root just beyond it

    def f(phi):
        x = base + (1 - base) * mp.sin(phi) ** 2
        rho = c + 1 + x
        g = w / rho if orbit else rho
        return 2 * g / mp.sqrt((x - other) * (rho + w))

    width = mp.sqrt(abs(1 + x_t))
    pts = [mp.mpf(0)] + [width * 4 ** k for k in range(12)
                         if width * 4 ** k < mp.pi / 4] + [mp.pi / 2]
    return mp.quad(f, pts)


def _mp_reference(spec, beta0, orbit):
    """One quarter (bound) or half loop (unbound) from mpmath at 30 digits.

    The reference takes the double-precision w and turning point the library
    forms from beta0, so it measures the quadrature alone: at 1e-10 from
    beta_crit, one rounding of either input moves N by about 1e-8.
    """
    w = _w_of_beta0(spec, beta0)
    tp = turning_point(spec, beta0)
    with mpmath.workdps(30):
        x_t = (mpmath.cos(mpmath.mpf(tp.chi_max)) if tp.chi_max is not None
               else mpmath.mpf(w) - spec.c - 1)
        return _mp_quarter(spec.c, w, x_t, orbit)


def _mpmath_cases():
    ring = SurfaceSpec(2.0, 1.0)
    bc = critical_angles(ring).beta_crit
    cases = [(ring, b) for b in (bc - 1e-10, bc + 1e-10, 0.1, 0.5, 1.2)]
    return cases + [(SurfaceSpec(1.0, 1.0), 0.7), (SurfaceSpec(0.5, 1.0), 0.7)]


@pytest.mark.parametrize("spec,beta0", _mpmath_cases())
def test_against_mpmath(spec, beta0):
    orbit = _mp_reference(spec, beta0, True)
    length = _mp_reference(spec, beta0, False)
    if turning_point(spec, beta0).chi_max is None:
        got = (theta_frequency_unbound(spec, beta0),
               arc_length_unbound_loop(spec, beta0))
        want = (2 * mpmath.pi / (2 * orbit), 2 * spec.b * length)
    else:
        got = (theta_frequency_bound(spec, beta0),
               arc_length_bound_period(spec, beta0))
        want = (2 * mpmath.pi / (4 * orbit), 4 * spec.b * length)
    for g, r in zip(got, want):
        assert abs(g - r) <= 1e-11 * abs(r)
