"""Branches of the winding frequency N(beta0) and the existence table.

N is monotone on each branch and its limits at the two ends are known, so a
closed geodesic [m, n; p] exists exactly when m/n lies strictly between
them. The table below is written out independently of the library:

    branch        singular end                far end
    ring unbound  0 at beta_crit              +inf at 0
    ring bound    0 at beta_crit              sqrt(c+2) at pi/2
    horn          0 at 0                      sqrt(2) at pi/2
    apple, lemon  sqrt(-c(c+2)) at the apex   sqrt(c+2) at pi/2
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from revgeo import (ConvergenceError, DomainError, NonexistentGeodesicError,
                    SurfaceSpec, closed)
from revgeo.closed import find_closed, refine_via_ode, verify_closure
from revgeo.integrals import (arc_length_unbound_loop, frequency_branch,
                              orbit_angle, theta_frequency_bound,
                              theta_frequency_unbound)
from revgeo.potential import critical_angles, turning_point

RING = SurfaceSpec(2.0, 1.0)        # c = 1
HORN = SurfaceSpec(1.0, 1.0)        # c = 0
APPLE = SurfaceSpec(0.5, 1.0)       # c = -0.5
LEMON = SurfaceSpec(-0.5, 1.0)      # c = -1.5
BC = math.asin(1.0 / 3.0)

# name: (spec, p, singular end, far end, N at the singular end, N at the
# far end, sign of dN/dbeta0)
BRANCHES = {
    "ring unbound": (RING, 1, BC, 0.0, 0.0, math.inf, -1),
    "ring bound": (RING, 0, BC, math.pi / 2, 0.0, math.sqrt(3.0), 1),
    "horn": (HORN, 0, 0.0, math.pi / 2, 0.0, math.sqrt(2.0), 1),
    "apple": (APPLE, 0, 0.0, math.pi / 2, math.sqrt(0.75), math.sqrt(1.5), 1),
    "lemon": (LEMON, 0, 0.0, math.pi / 2, math.sqrt(0.75), math.sqrt(0.5), -1),
}
# launch angles are drawn at distance width * 10^k from the singular end
EXPONENT = st.floats(min_value=-15.0, max_value=-0.001)
PROPERTY = settings(derandomize=True, max_examples=25, deadline=None)


def _launch(name, k):
    _, _, end, far, *_ = BRANCHES[name]
    return end + (far - end) * 10.0 ** k


def _frequency(name, beta0):
    spec, p = BRANCHES[name][:2]
    freq = theta_frequency_unbound if p == 1 else theta_frequency_bound
    return freq(spec, beta0)


@pytest.mark.parametrize("name", BRANCHES)
def test_frequency_branch_is_the_table(name):
    spec, p, end, far, n_end, n_far, _ = BRANCHES[name]
    br = frequency_branch(spec, p)
    assert br.end == pytest.approx(end, abs=1e-16)
    assert (br.far, br.n_far) == (far, pytest.approx(n_far, rel=1e-15))
    assert br.n_end == pytest.approx(n_end, rel=1e-15)


def test_no_unbound_branch_off_the_ring():
    for spec in (HORN, APPLE, LEMON):
        assert frequency_branch(spec, 1) is None


@pytest.mark.parametrize("name", BRANCHES)
@PROPERTY
@given(k1=EXPONENT, gap=st.floats(min_value=0.05, max_value=5.0))
def test_frequency_is_monotone(name, k1, gap):
    k2 = min(k1 + gap, -0.001)
    assume(k2 > k1)
    b1, b2 = sorted((_launch(name, k1), _launch(name, k2)))
    N1, N2 = _frequency(name, b1), _frequency(name, b2)
    # monotone to within the quadrature's 1e-12 relative tolerance
    assert BRANCHES[name][-1] * (N2 - N1) >= -1e-12 * N1


@pytest.mark.parametrize("name", BRANCHES)
@PROPERTY
@given(k=EXPONENT)
def test_frequency_stays_inside_the_limits(name, k):
    n_end, n_far = BRANCHES[name][4:6]
    N = _frequency(name, _launch(name, k))
    assert min(n_end, n_far) < N < max(n_end, n_far)


@pytest.mark.parametrize("spec", [RING, HORN, APPLE, LEMON])
@PROPERTY
@given(beta0=st.floats(min_value=1e-9, max_value=math.pi / 2 - 1e-9),
       u=st.floats(min_value=1e-6, max_value=1.0))
def test_orbit_angle_is_odd(spec, beta0, u):
    chi_max = turning_point(spec, beta0).chi_max
    chi = u * (2.0 * math.pi if chi_max is None else chi_max)
    theta = orbit_angle(spec, beta0, chi)
    assert orbit_angle(spec, -beta0, chi) == -theta
    assert orbit_angle(spec, beta0, -chi) == -theta
    assert orbit_angle(spec, -beta0, -chi) == theta


def _mp_spindle_frequency(c, beta0):
    """N of a spindle launch at 30 digits, formed from beta0 alone.

    With x = cos chi the quarter orbit is the integral over [x_t, 1] of
    (w / rho) dx / sqrt((1 - x)(1 + x)(x - x_t)(rho + w)), x_t = w - c - 1;
    x = x_t + (1 - x_t) sin^2 phi leaves 2 (w / rho) / sqrt((1 + x)(rho + w)),
    whose apex layer at phi = 0 has width sqrt(w).
    """
    mp = mpmath.mp
    with mpmath.workdps(30):
        c = mp.mpf(c)
        w = (c + 2) * mp.sin(mp.mpf(beta0))
        x_t = w - c - 1

        def f(phi):
            x = x_t + (1 - x_t) * mp.sin(phi) ** 2
            rho = c + 1 + x
            return 2 * (w / rho) / mp.sqrt((1 + x) * (rho + w))

        width = mp.sqrt(w)
        pts = ([mp.mpf(0)] + [width * 4 ** k for k in range(40)
                              if width * 4 ** k < mp.pi / 4] + [mp.pi / 2])
        return float(2 * mp.pi / (4 * mp.quad(f, pts)))


@pytest.mark.parametrize("spec", [APPLE, LEMON])
@pytest.mark.parametrize("beta0", [1e-11, 1e-13, 1e-15])
def test_frequency_near_the_apex(spec, beta0):
    # quadrature once lost the apex layer here and returned N ~ -1e12 (apple)
    # or +1e12 (lemon); both limits are sqrt(3)/2
    N = theta_frequency_bound(spec, beta0)
    lo, hi = sorted((math.sqrt(0.75), math.sqrt(spec.c + 2.0)))
    assert lo < N < hi
    assert N == pytest.approx(_mp_spindle_frequency(spec.c, beta0), rel=1e-13)


@pytest.mark.parametrize("label", [(4, 5, 0), (1, 2, 0)])
def test_apple_rejects_labels_below_the_apex_limit(label):
    # m/n < sqrt(3)/2, the apex limit, so no such geodesic exists
    with pytest.raises(NonexistentGeodesicError):
        find_closed(APPLE, label)


def test_lemon_solves_inside_its_reversed_interval():
    # on the lemon N falls from sqrt(3)/2 to sqrt(1/2), so 4/5 exists
    geo = find_closed(LEMON, (4, 5, 0))
    lo = theta_frequency_bound(LEMON, geo.beta0 - 1e-9)
    hi = theta_frequency_bound(LEMON, geo.beta0 + 1e-9)
    assert lo > 0.8 > hi
    assert verify_closure(LEMON, geo) < 1e-6      # the CLI closure gate


_TABLE_SURFACES = [RING, HORN, APPLE, LEMON]


def _table_says(spec, m, n, p):
    c = spec.c
    q = m / n
    if p == 1:
        return c > 0
    lo, hi = sorted((math.sqrt(max(0.0, -c * (c + 2.0))), math.sqrt(c + 2.0)))
    return lo < q < hi


@pytest.mark.parametrize("spec", _TABLE_SURFACES)
def test_existence_verdict_is_the_table(spec):
    for m in range(1, 8):
        for n in range(1, 8):
            if math.gcd(m, n) != 1:
                continue
            for p in (0, 1):
                try:
                    find_closed(spec, (m, n, p))
                    exists = True
                except NonexistentGeodesicError:
                    exists = False
                except ConvergenceError:
                    exists = True       # a ring label too close to beta_crit
                assert exists == _table_says(spec, m, n, p), (m, n, p)


def test_nonexistent_labels_evaluate_no_frequency(monkeypatch):
    calls = []

    def counting(name):
        real = getattr(closed, name)

        def wrapped(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return wrapped

    for name in ("theta_frequency_bound", "theta_frequency_unbound"):
        monkeypatch.setattr(closed, name, counting(name))
    for spec, label in ((APPLE, (4, 5, 0)), (APPLE, (1, 7, 0)), (LEMON, (1, 1, 0)),
                        (RING, (2, 1, 0)), (HORN, (3, 2, 0)), (HORN, (1, 1, 1))):
        with pytest.raises(NonexistentGeodesicError):
            find_closed(spec, label)
    assert calls == []
    find_closed(LEMON, (4, 5, 0))
    assert calls                            # the counters do see a solve


def test_root_next_to_beta_crit_solves():
    # 8.9e-16 above beta_crit: a few representable angles from it
    spec = SurfaceSpec(3.6, 1.0)
    bc = critical_angles(spec).beta_crit
    geo = find_closed(spec, (1, 7, 0))
    assert 0.0 < geo.beta0 - bc < 2e-15
    assert theta_frequency_bound(spec, geo.beta0 + 4e-16) > 1.0 / 7.0


def test_unbound_launch_rounding_onto_the_inner_equator():
    # one ulp below beta_crit, w = (c+2) sin(beta0) rounds to c: the loop
    # integral diverges, so N takes its limit and the loop has no length
    spec = SurfaceSpec(3.6, 1.0)
    beta0 = 0.6006967529359307
    assert beta0 < critical_angles(spec).beta_crit
    assert (spec.c + 2.0) * math.sin(beta0) == spec.c
    assert theta_frequency_unbound(spec, beta0) == 0.0
    with pytest.raises(DomainError, match="inner equator"):
        arc_length_unbound_loop(spec, beta0)
    below = float(np.nextafter(beta0, 0.0))
    assert 0.0 < theta_frequency_unbound(spec, below) < 0.3
    assert arc_length_unbound_loop(spec, below) > 0.0


@pytest.mark.parametrize("spec,label", [
    (RING, (1, 6, 1)),              # probed first, below beta_crit
    (RING, (1, 40, 0)),             # probed last, above beta_crit
    (HORN, (1, 30_000_000, 0)),     # N(eps * pi/2) ~ 4.9e-8 at the apex
])
def test_root_beyond_the_nearest_angle_raises_convergence_error(spec, label):
    # each root lies closer to the singular end than the nearest launch
    # angle the solver resolves
    with pytest.raises(ConvergenceError):
        find_closed(spec, label)


def test_refine_reports_a_stalled_secant():
    # over +-3 ulp of this root the ODE defect jumps between -1.8e-3 and
    # +4.2e-4, so the secant stops on its 1e-15 step short of the defect
    spec = SurfaceSpec(3.55, 1.0)
    res = refine_via_ode(spec, (1, 3, 1), find_closed(spec, (1, 3, 1)).beta0)
    assert not res.converged
    assert abs(res.theta_mismatch) >= 2e-12      # the stop k 1e-12, k = 2m


def test_refine_reports_convergence(ring):
    res = refine_via_ode(ring, (1, 1, 0), find_closed(ring, (1, 1, 0)).beta0)
    assert res.converged
    assert abs(res.theta_mismatch) < 4e-12       # the stop k 1e-12, k = 4m
    assert np.isfinite(res.beta0)
