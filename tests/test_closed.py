"""Closed-geodesic spectrum, closure checks, and self-intersection structure.

Root and crossing-radius decimals are frozen from converged runs that were
cross-checked by independent ODE shooting (refine tests), by the
brute-force sign scan at the bottom of this file, and, for the crossing
points, by the DOP853 trace and a 30-digit mpmath orbit angle.
"""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from revgeo import (ClosedLabel, DomainError, InvalidParameterError,
                    NonexistentGeodesicError, SurfaceSpec, closed, dynamics)
from revgeo.closed import (crossing_points, find_closed, precession_rate,
                           refine_via_ode, self_intersections, spectrum,
                           verify_closure)
from revgeo.dynamics import (IntegratorConfig, initial_state_from_angle,
                             integrate)
from revgeo.errors import RevgeoError
from revgeo.integrals import theta_frequency_unbound
from revgeo.potential import critical_angles
from revgeo.surface import embed

BETA_11_0 = 0.4097039419613767


def test_label_validation():
    with pytest.raises(InvalidParameterError):
        ClosedLabel(1, 1, 2)
    with pytest.raises(InvalidParameterError):
        ClosedLabel(0, 0, 0)
    with pytest.raises(InvalidParameterError):
        ClosedLabel(2, 4, 0)        # not primitive
    assert str(ClosedLabel(3, 2, 1)) == "[3,2;1]"


def test_equators_and_meridian(ring):
    outer = find_closed(ring, (0, 1, 0))
    assert outer.beta0 == pytest.approx(np.pi / 2.0)
    assert outer.length == pytest.approx(6.0 * np.pi)
    inner = find_closed(ring, (0, 1, 1))
    assert inner.beta0 is None
    assert inner.length == pytest.approx(2.0 * np.pi)
    meridian = find_closed(ring, (1, 0, 1))
    assert meridian.beta0 == 0.0
    assert meridian.length == pytest.approx(2.0 * np.pi)
    with pytest.raises(NonexistentGeodesicError):
        find_closed(ring, (1, 0, 0))


def test_non_ring_restrictions(horn, spindle, sphere):
    with pytest.raises(NonexistentGeodesicError):
        find_closed(horn, (0, 1, 1))    # inner equator needs c > 0
    with pytest.raises(NonexistentGeodesicError):
        find_closed(spindle, (1, 1, 1))  # no unbound branch off the ring
    with pytest.raises(DomainError):
        find_closed(sphere, (1, 1, 0))


@pytest.mark.parametrize("label,beta0", [
    ((1, 1, 0), 0.4097039419613767),
    ((1, 2, 0), 0.34218054380354834),
    ((3, 2, 0), 0.7166635339015204),
    ((2, 3, 0), 0.35164846461148086),
    ((7, 5, 0), 0.6124030745702985),
])
def test_bound_roots_frozen(ring, label, beta0):
    geo = find_closed(ring, label)
    assert geo.beta0 == pytest.approx(beta0, abs=1e-12)
    assert geo.frequency == pytest.approx(label[0] / label[1])


@pytest.mark.parametrize("label,beta0", [
    ((2, 1, 1), 0.2958846125393459),
    ((3, 1, 1), 0.23827955013835037),
    ((7, 1, 1), 0.11902589504689727),
    ((3, 2, 1), 0.32264329994664015),
    ((3, 4, 1), 0.3395532231853638),
    ((3, 5, 1), 0.3398019082229129),
    ((1, 5, 1), 0.33983690945409367),
])
def test_unbound_roots_frozen(ring, label, beta0):
    geo = find_closed(ring, label)
    assert geo.beta0 == pytest.approx(beta0, abs=1e-12)
    assert geo.chi_max is None


def test_circuit_lengths_frozen(ring):
    assert find_closed(ring, (1, 1, 0)).length == pytest.approx(
        15.262246179494941, abs=1e-9)
    assert find_closed(ring, (1, 2, 0)).length == pytest.approx(
        21.877778642396976, abs=1e-9)
    assert find_closed(ring, (3, 2, 0)).length == pytest.approx(
        36.6647703735143, abs=1e-9)
    assert find_closed(ring, (7, 1, 1)).length == pytest.approx(
        7.0 * 6.4463595650076515, abs=1e-8)
    assert find_closed(ring, (1, 5, 1)).length == pytest.approx(
        36.07173073389404, abs=1e-8)


def test_nonexistent_above_frequency_supremum(ring):
    # bound frequencies stay below sqrt(c + 2) = sqrt(3)
    for label in ((2, 1, 0), (5, 2, 0)):
        with pytest.raises(NonexistentGeodesicError):
            find_closed(ring, label)


def test_spectrum_ring_counts(ring):
    result = spectrum(ring, 5, 5)
    assert result.status == "ok"
    assert len(result.entries) == 42
    by_status = {}
    for e in result.entries:
        by_status.setdefault(e.status, []).append(e)
    assert len(by_status["solved"]) == 36
    assert len(by_status.get("error", [])) == 0
    missing = {(e.label.m, e.label.n, e.label.p)
               for e in by_status["nonexistent"]}
    assert missing == {(1, 0, 0), (2, 1, 0), (3, 1, 0), (4, 1, 0),
                       (5, 1, 0), (5, 2, 0)}
    for e in by_status["solved"]:
        assert e.geodesic is not None and e.geodesic.length > 0.0


def test_spectrum_sphere_unsupported(sphere):
    result = spectrum(sphere, 3, 3)
    assert result.status == "unsupported-family"
    assert result.entries == ()


def test_verify_closure(ring):
    assert verify_closure(ring, find_closed(ring, (1, 2, 0))) < 1e-8
    assert verify_closure(ring, find_closed(ring, (0, 1, 1))) < 1e-12
    # near-critical roots: dN/dbeta is steep, so a 1e-15 root error shows up
    # as a closure residual around 1e-7; that is the honest floor here
    assert verify_closure(ring, find_closed(ring, (3, 5, 1))) < 1e-6


def test_refine_is_fixed_point_of_quadrature_root(ring):
    geo = find_closed(ring, (1, 1, 0))
    res = refine_via_ode(ring, (1, 1, 0), geo.beta0)
    assert abs(res.beta0 - geo.beta0) < 1e-10
    assert abs(res.theta_mismatch) < 1e-10
    assert res.iterations <= 4


def test_refine_recovers_root_from_perturbed_start(ring):
    geo = find_closed(ring, (1, 1, 0))
    res = refine_via_ode(ring, (1, 1, 0), geo.beta0 + 5e-4)
    assert abs(res.beta0 - geo.beta0) < 1e-10


def test_refine_stays_below_critical_angle():
    # the [1,3;1] root lies 2e-13 below beta_crit here; a secant probe of
    # 1e-7 beta0 would cross onto the bound branch
    spec = SurfaceSpec(3.55, 1.0)
    bc = critical_angles(spec).beta_crit
    geo = find_closed(spec, (1, 3, 1))
    res = refine_via_ode(spec, (1, 3, 1), geo.beta0)
    assert 0.0 < bc - res.beta0 < 1e-12
    # N falls to 0 at beta_crit, so N above 1/3 just below the root brackets it
    assert theta_frequency_unbound(spec, res.beta0 * (1.0 - 1e-9)) > 1.0 / 3.0


def test_refine_rejects_equators(ring):
    with pytest.raises(DomainError):
        refine_via_ode(ring, (0, 1, 0), np.pi / 2.0)


def test_precession(ring):
    at_root = precession_rate(ring, BETA_11_0)
    assert at_root.advance == pytest.approx(2.0 * np.pi, abs=1e-12)
    assert at_root.nearest == Fraction(1, 1)
    assert abs(at_root.rate) < 1e-12
    generic = precession_rate(ring, 0.45)
    assert generic.nearest == Fraction(55, 49)
    assert generic.rate == pytest.approx(0.0011942030635667678, abs=1e-12)
    with pytest.raises(DomainError):
        precession_rate(ring, 0.2)      # unbound launch has no oscillation


# -- self-intersection structure ------------------------------------------

def test_simple_geodesics_have_no_crossings(ring):
    for label in ((1, 1, 0), (2, 1, 1), (3, 1, 1)):
        geo = find_closed(ring, label)
        assert self_intersections(ring, geo) == ()


# frozen (|chi|, point count) per crossing radius, inner radius first
CROSSING_TABLE = {
    (1, 2): ((0.0, 1),),
    (3, 2): ((0.0, 3),),
    (1, 3): ((2.859891, 2),),
    (2, 3): ((2.424638, 4),),
    (4, 3): ((1.386345, 8),),
    (5, 3): ((0.495115, 10),),
    (1, 4): ((0.0, 1), (3.084289, 2)),
    (3, 4): ((0.0, 3), (2.568762, 6)),
    (5, 4): ((0.0, 5), (1.853880, 10)),
    (1, 5): ((2.860454, 2), (3.129691, 2)),
    (2, 5): ((2.461671, 4), (3.010113, 4)),
    (3, 5): ((2.148450, 6), (2.822216, 6)),
    (4, 5): ((1.854784, 8), (2.602936, 8)),
}


@pytest.mark.parametrize("mn", sorted(CROSSING_TABLE))
def test_crossing_radii_frozen(ring, mn):
    m, n = mn
    geo = find_closed(ring, (m, n, 0))
    radii = self_intersections(ring, geo)
    expected = CROSSING_TABLE[mn]
    assert len(radii) == len(expected)
    for got, (chi, count) in zip(radii, expected):
        assert got.chi == pytest.approx(chi, abs=2e-5)
        assert got.count == count
        assert len(got.theta_offsets) == count
        assert len(got.points) == count
    # crossings confined to chi = 0 demand an even n
    if any(chi == 0.0 for chi, _ in expected):
        assert n % 2 == 0


def test_crossing_count_rules(ring):
    # floor(n/2) radii: for the table's n <= 5, one radius for n = 2 or 3
    # and two for n = 4 or 5, with the chi = 0 radius present exactly when
    # n is even
    for (m, n), expected in CROSSING_TABLE.items():
        if n in (2, 3):
            assert len(expected) == 1
        else:
            assert len(expected) == 2
        assert (expected[0][0] == 0.0) == (n % 2 == 0)
        for chi, count in expected:
            assert count == (m if chi == 0.0 else 2 * m)


def test_zero_radius_contains_launch_point(ring):
    geo = find_closed(ring, (3, 4, 0))
    radii = self_intersections(ring, geo)
    axial = [r for r in radii if r.chi == 0.0]
    assert len(axial) == 1
    # chi = 0 crossings pair points exactly half a circuit apart, and one of
    # them is the launch point itself (theta = 0 mod 2 pi)
    tol = 1e-6 * geo.length
    assert all(abs(p.lam2 - p.lam1 - 0.5 * geo.length) < tol
               for p in axial[0].points)
    assert any(min(p.theta, 2.0 * np.pi - p.theta) < 1e-6
               for p in axial[0].points)
    # equal azimuthal spacing 2 pi / m on the chi = 0 circle
    offs = np.sort(np.asarray(axial[0].theta_offsets))
    gaps = np.diff(np.concatenate([offs, [offs[0] + 2.0 * np.pi]]))
    assert np.allclose(gaps, 2.0 * np.pi / 3.0, atol=1e-6)


def test_crossing_points_are_geometric_intersections(ring):
    geo = find_closed(ring, (3, 5, 0))
    cfg = IntegratorConfig(rel_tol=1e-11, abs_tol=1e-12,
                           max_lambda=geo.length, method="DOP853")
    trace = integrate(ring, initial_state_from_angle(ring, geo.beta0), cfg)
    for radius in self_intersections(ring, geo):
        for pt in radius.points:
            s1 = trace.dense(pt.lam1)
            s2 = trace.dense(pt.lam2)
            p1 = embed(ring, float(s1[0]), float(s1[1]))
            p2 = embed(ring, float(s2[0]), float(s2[1]))
            assert np.linalg.norm(p1 - p2) < 1e-6
            assert float(s1[2]) * float(s2[2]) < 0.0   # transversal in vr


def _brute_crossing_count(spec, geo, samples=200001, grid_n=150001):
    """Count self-intersections by a sign scan over the azimuth-shifted
    radial profile. Independent of the orbit-angle route under test."""
    cfg = IntegratorConfig(rel_tol=1e-11, abs_tol=1e-12,
                           max_lambda=geo.length, method="DOP853")
    trace = integrate(spec, initial_state_from_angle(spec, geo.beta0), cfg)
    lam = np.linspace(0.0, geo.length, samples)
    Y = trace.dense(lam)
    r, th = Y[0], Y[1]
    n = geo.label.n
    period = 2.0 * np.pi * n

    def rfun(t):
        tm = np.clip(np.mod(t, period), th[0], th[-1])
        return np.interp(tm, th, r)

    total = 0
    for k in range(1, n):
        span = period - 2.0 * np.pi * k
        # half-open window; the -1e-6 shift keeps the launch-point root
        # strictly interior for shift k while excluding its mirror at n - k
        grid = np.linspace(-1e-6, span - 1e-6, grid_n)
        g = rfun(grid) - rfun(grid + 2.0 * np.pi * k)
        total += int(np.count_nonzero(np.diff(np.sign(g)) != 0))
    return total


@pytest.mark.parametrize("mn,total", [((1, 2), 1), ((2, 3), 4),
                                      ((3, 4), 9), ((2, 5), 8)])
def test_crossing_totals_against_brute_force(ring, mn, total):
    geo = find_closed(ring, (mn[0], mn[1], 0))
    radii = self_intersections(ring, geo)
    assert sum(r.count for r in radii) == total
    assert _brute_crossing_count(ring, geo) == total


def _count_rule_fault(m, n, radii):
    """'' when the radii obey the rule for a bound [m, n; 0], else the fault.

    floor(n/2) radii, chi == 0.0 among them exactly when n is even, m points
    at chi = 0 and 2m on every other radius, and within each sign of chi
    azimuths on the 2 pi / m lattice.
    """
    if len(radii) != n // 2:
        return f"{len(radii)} radii, want {n // 2}"
    if (n % 2 == 0) != any(r.chi == 0.0 for r in radii):
        return "zero-radius presence wrong"
    for r in radii:
        want = m if r.chi == 0.0 else 2 * m
        if r.count != want or len(r.points) != want:
            return f"{r.count} points at chi={r.chi:.6f}, want {want}"
        for sign in {math.copysign(1.0, p.chi) for p in r.points}:
            th = np.sort([p.theta for p in r.points
                          if math.copysign(1.0, p.chi) == sign])
            gaps = np.diff(np.concatenate([th, [th[0] + 2.0 * np.pi]]))
            if len(th) != m or not np.allclose(gaps, 2.0 * np.pi / m,
                                               atol=1e-9):
                return f"azimuths off the 2 pi/m lattice at chi={r.chi:.6f}"
    return ""


@pytest.mark.parametrize("ab", [(2.0, 1.0), (1.0, 1.0), (0.5, 1.0),
                                (-0.5, 1.0)])
def test_crossing_count_rule_every_bound_label(ab):
    spec = SurfaceSpec(*ab)
    faults, solved = [], 0
    for m in range(1, 8):
        for n in range(2, 8):
            if math.gcd(m, n) != 1:
                continue
            try:
                geo = find_closed(spec, (m, n, 0))
            except RevgeoError:
                continue
            solved += 1
            fault = _count_rule_fault(m, n, self_intersections(spec, geo))
            if fault:
                faults.append(f"[{m},{n};0]: {fault}")
    assert solved > 0
    assert not faults


# labels where a sampled-polyline sweep missed double points
@pytest.mark.parametrize("ab,mn", [((-0.5, 1.0), (6, 7)), ((1.0, 1.0), (1, 7)),
                                   ((2.0, 1.0), (1, 6)), ((3.6, 1.0), (1, 6)),
                                   ((3.6, 1.0), (1, 7))])
def test_crossing_regressions(ab, mn):
    spec = SurfaceSpec(*ab)
    m, n = mn
    radii = self_intersections(spec, find_closed(spec, (m, n, 0)))
    assert _count_rule_fault(m, n, radii) == ""
    assert sum(r.count for r in radii) == m * (n - 1)


@pytest.mark.parametrize("ab,mn", [((2.0, 1.0), (1, 2)), ((2.0, 1.0), (4, 5)),
                                   ((1.0, 1.0), (1, 7)), ((1.0, 1.0), (2, 3)),
                                   ((0.5, 1.0), (6, 5)), ((-0.5, 1.0), (6, 7))])
def test_crossing_points_on_the_ode_trace(ab, mn):
    spec = SurfaceSpec(*ab)
    geo = find_closed(spec, (mn[0], mn[1], 0))
    cfg = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-13, max_lambda=geo.length)
    trace = integrate(spec, initial_state_from_angle(spec, geo.beta0), cfg)
    points = crossing_points(spec, geo)
    assert len(points) == mn[0] * (mn[1] - 1)
    for pt in points:
        assert 0.0 <= pt.lam1 < pt.lam2 < geo.length
        s1, s2 = trace.dense(pt.lam1), trace.dense(pt.lam2)
        p1 = embed(spec, float(s1[0]), float(s1[1]))
        p2 = embed(spec, float(s2[0]), float(s2[1]))
        assert np.linalg.norm(p1 - p2) < 1e-9
        assert float(s1[0]) / spec.b == pytest.approx(pt.chi, abs=1e-9)
        assert float(s1[2]) * float(s2[2]) < 0.0   # transversal in vr


def test_crossings_integrate_no_ode(ring, monkeypatch):
    geos = [find_closed(ring, label) for label in
            ((3, 4, 0), (2, 5, 0), (1, 1, 0), (2, 1, 1), (0, 1, 0))]

    def no_ode(*args, **kwargs):
        raise AssertionError("crossings must not integrate the ODE")

    monkeypatch.setattr(closed, "integrate", no_ode)
    monkeypatch.setattr(dynamics, "integrate", no_ode)
    for geo in geos:
        crossing_points(ring, geo)
        self_intersections(ring, geo)


def test_crossing_radius_against_mpmath(ring):
    # [1,5;0] sits 1.9e-7 above beta_crit; its inner radius is where the
    # orbit angle reaches pi (5 - 2*2) / 2 = pi / 2
    geo = find_closed(ring, (1, 5, 0))
    chi = self_intersections(ring, geo)[0].chi
    with mpmath.workdps(30):
        c = mpmath.mpf(ring.c)
        w = (c + 2) * mpmath.sin(mpmath.mpf(geo.beta0))

        def dtheta(x):
            rho = c + 1 + mpmath.cos(x)
            return w / rho / mpmath.sqrt(rho ** 2 - w ** 2)

        x = mpmath.mpf(chi)
        for _ in range(3):
            x -= (mpmath.quad(dtheta, [0, x]) - mpmath.pi / 2) / dtheta(x)
        assert abs(float(x) - chi) < 1e-13
