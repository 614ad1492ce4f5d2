"""Effective potential, critical angles, turning points, classification."""

import numpy as np
import pytest

from revgeo import DomainError, SurfaceSpec
from revgeo.dynamics import GeodesicState, conserved, initial_state_from_angle
from revgeo.potential import (GeodesicClass, classify, critical_angles,
                              effective_potential, small_oscillation,
                              turning_point)

# analytic values on the unit ring torus (a=2, b=1, c=1)
BETA_CRIT = 0.3398369094541219        # arcsin(c / (c + 2)) = arcsin(1/3)
BETA_POLAR = 0.7297276562269663       # arcsin((c+1) / (c+2)) = arcsin(2/3)


def test_potential_values(ring):
    # U = ell^2 / (2 R^2): 1/18 on the outer equator, 1/2 on the inner
    assert effective_potential(ring, 1.0, 0.0) == pytest.approx(1.0 / 18.0,
                                                                abs=1e-15)
    assert effective_potential(ring, 1.0, np.pi) == pytest.approx(0.5,
                                                                  abs=1e-14)
    # extrema: dU/dr = 0 on both equators, by central differences
    h = 1e-5
    for r in (0.0, np.pi):
        dU = (effective_potential(ring, 1.0, r + h)
              - effective_potential(ring, 1.0, r - h)) / (2.0 * h)
        assert dU == pytest.approx(0.0, abs=1e-10)


def test_potential_scaling_in_ell(ring, rng):
    r = rng.uniform(-np.pi, np.pi, 7)
    u1 = effective_potential(ring, 1.0, r)
    u3 = effective_potential(ring, 3.0, r)
    assert np.allclose(u3, 9.0 * u1, atol=1e-14)


def test_critical_angles_ring(ring):
    crit = critical_angles(ring)
    assert crit.beta_crit == pytest.approx(BETA_CRIT, abs=1e-15)
    assert crit.beta_crit == pytest.approx(np.arcsin(1.0 / 3.0), abs=1e-15)
    assert crit.beta_polar == pytest.approx(BETA_POLAR, abs=1e-15)
    assert np.degrees(crit.beta_polar) == pytest.approx(41.810314895778596,
                                                        abs=1e-10)
    assert crit.chi_inf is None


def test_critical_angles_other_families(horn, spindle):
    crit = critical_angles(horn)
    assert crit.beta_crit is None           # no inner equator on the horn
    assert crit.beta_polar == pytest.approx(np.pi / 6.0, abs=1e-15)
    crit = critical_angles(spindle)
    assert crit.beta_crit is None
    assert crit.chi_inf == pytest.approx(2.0 * np.pi / 3.0, abs=1e-14)


def test_turning_points(ring):
    # bound launch: chi_max = arccos((2+c) sin(beta0) - (1+c))
    tp = turning_point(ring, 0.5)
    assert tp.chi_max == pytest.approx(np.arccos(3.0 * np.sin(0.5) - 2.0),
                                       abs=1e-13)
    assert tp.r_max == tp.chi_max * ring.b
    # unbound launch never turns
    assert turning_point(ring, 0.2).chi_max is None
    # grazing the critical angle from above: chi_max -> pi
    tp = turning_point(ring, BETA_CRIT + 1e-12)
    assert tp.chi_max == pytest.approx(np.pi, abs=1e-5)


def test_classification_ring(ring):
    def classes(beta):
        st = initial_state_from_angle(ring, beta)
        c = conserved(ring, st)
        return tuple(x.value for x in classify(ring, c.E, c.ell))

    assert classes(0.0) == ("meridian",)
    assert classes(0.2) == ("unbound",)
    assert classes(0.5) == ("bound",)
    assert classes(np.pi / 2.0) == ("outer-equator",)
    # the critical level is doubly degenerate
    assert classes(BETA_CRIT) == ("inner-equator", "critical-asymptotic")


def test_classification_spindle_wells(spindle):
    st = initial_state_from_angle(spindle, 0.7)
    c = conserved(spindle, st)
    assert classify(spindle, c.E, c.ell) == (GeodesicClass.APPLE_BOUND,)
    # same surface indexed from the lemon equator
    lemon = SurfaceSpec(-0.5, 1.0)
    st = initial_state_from_angle(lemon, 0.7)
    c = conserved(lemon, st)
    assert classify(lemon, c.E, c.ell) == (GeodesicClass.LEMON_BOUND,)


def test_classification_needs_positive_energy(ring):
    with pytest.raises(DomainError):
        classify(ring, 0.0, 0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_inputs_raise_domain_error(ring, bad):
    calls = [lambda: turning_point(ring, bad),
             lambda: classify(ring, 0.5, bad),
             lambda: classify(ring, bad, 1.0)]
    for call in calls:
        with pytest.raises(DomainError, match="finite"):
            call()


def test_small_oscillation(ring, sphere):
    osc = small_oscillation(ring, 1.0)
    # radial oscillations per equator revolution: sqrt(c + 2) = sqrt(3)
    assert osc.freq_per_rev == pytest.approx(np.sqrt(3.0), abs=1e-14)
    assert osc.half_period_theta == pytest.approx(np.pi / np.sqrt(3.0),
                                                  abs=1e-14)
    assert osc.convergence_length == pytest.approx(np.pi * np.sqrt(3.0),
                                                   abs=1e-13)
    # great circles on the sphere close after one revolution
    assert small_oscillation(sphere, 1.0).freq_per_rev == pytest.approx(
        1.0, abs=1e-14)
