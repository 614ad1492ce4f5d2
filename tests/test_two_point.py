"""Boundary value problem between surface points, and exponential-map fans."""

import numpy as np
import pytest

from revgeo import DomainError, SurfaceSpec, two_point
from revgeo.dynamics import (GeodesicState, IntegratorConfig, exp_map_rays,
                             integrate)
from revgeo.two_point import solve_two_point

HALF_PERIOD = np.pi / np.sqrt(3.0)      # conjugate azimuth of the outer equator


def test_chart_validation(ring, spindle):
    with pytest.raises(DomainError):
        solve_two_point(spindle, 0.0, 3.0, 1.0)     # R(3.0) <= 0 off the band
    for r1, r2, dtheta in ((0.0, 0.0, np.nan), (np.nan, 0.0, 1.0),
                           (0.0, np.inf, 1.0), (0.0, 0.0, -np.inf)):
        with pytest.raises(DomainError):
            solve_two_point(ring, r1, r2, dtheta)


def test_same_point_returns_loops(ring):
    res = solve_two_point(ring, 0.0, 0.0, 0.0)
    assert res.minimal.shape == "meridian"
    assert res.minimal.length == pytest.approx(2.0 * np.pi * ring.b)


def test_meridian_wraps_shorter_way(ring):
    res = solve_two_point(ring, 0.0, 9.0, 0.0)
    assert res.minimal.shape == "meridian"
    assert res.minimal.length == pytest.approx(9.0 - 2.0 * np.pi, abs=1e-12)
    assert res.minimal.radial_windings == -1
    # the direct arc is also reported
    lengths = [c.length for c in res.candidates if c.shape == "meridian"]
    assert any(abs(x - 9.0) < 1e-12 for x in lengths)


def test_antipodal_outer_equator(ring):
    res = solve_two_point(ring, 0.0, 0.0, np.pi)
    assert res.minimal.length == pytest.approx(7.631123089747472, abs=1e-9)
    assert res.minimal.shape == "turn-up"
    assert res.tie                                   # turn-down is congruent
    shapes = [c.shape for c in res.candidates[:2]]
    assert set(shapes) == {"turn-up", "turn-down"}
    assert res.candidates[0].length == pytest.approx(res.candidates[1].length,
                                                     rel=1e-12)
    # both beat the half equator
    assert res.minimal.length < np.pi * (ring.a + ring.b)


def test_equator_arc_minimal_up_to_conjugate_azimuth(ring):
    res = solve_two_point(ring, 0.0, 0.0, HALF_PERIOD - 1e-4)
    assert res.minimal.shape == "equator-arc"
    assert res.minimal.length == pytest.approx(
        (ring.a + ring.b) * (HALF_PERIOD - 1e-4), rel=1e-12)
    assert not res.tie


def test_equator_arc_loses_past_conjugate_azimuth(ring):
    res = solve_two_point(ring, 0.0, 0.0, 1.9)
    assert res.minimal.shape in ("turn-up", "turn-down")
    assert res.minimal.length == pytest.approx(5.678857175766045, abs=1e-8)
    assert res.minimal.length < (ring.a + ring.b) * 1.9
    assert res.tie
    arc = [c for c in res.candidates if c.shape == "equator-arc"]
    assert arc and arc[0].length == pytest.approx(5.7, rel=1e-12)


def _shoot(spec, r1, cand):
    """Re-launch a candidate through the geodesic ODE; independent check."""
    R1 = spec.R(r1)
    vtheta = cand.p / R1 ** 2
    vr = cand.vr_sign * np.sqrt(max(0.0, 1.0 - (cand.p / R1) ** 2))
    cfg = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-13,
                           max_lambda=cand.length, method="DOP853")
    trace = integrate(spec, GeodesicState(r=r1, theta=0.0, vr=vr,
                                          vtheta=vtheta), cfg)
    return trace.final


@pytest.mark.parametrize("r1,r2,dtheta", [
    (0.3, 1.1, 0.8),
    (0.0, np.pi, 2.0),
    (-1.0, 2.4, -1.3),
])
def test_candidates_shoot_to_target(ring, r1, r2, dtheta):
    res = solve_two_point(ring, r1, r2, dtheta)
    two_pi_b = 2.0 * np.pi * ring.b
    for cand in res.candidates[:3]:
        if cand.shape == "equator-arc":
            continue
        end = _shoot(ring, r1, cand)
        dr = (end.r - r2) - two_pi_b * np.round((end.r - r2) / two_pi_b)
        dth = (end.theta - dtheta) - 2.0 * np.pi * np.round(
            (end.theta - dtheta) / (2.0 * np.pi))
        assert abs(dr) < 1e-7
        assert abs(dth) < 1e-7


def test_horn_two_point(horn):
    # no inner equator: only j = 0 meridians, but folds still work
    res = solve_two_point(horn, 0.2, 0.9, 0.6)
    assert res.candidates
    end = _shoot(horn, 0.2, res.minimal)
    assert abs(end.r - 0.9) < 1e-7
    assert abs(end.theta - 0.6) < 1e-7


def test_candidates_sorted_by_length(ring):
    res = solve_two_point(ring, 0.0, 0.0, np.pi)
    lengths = [c.length for c in res.candidates]
    assert lengths == sorted(lengths)


def test_exp_map_rays(ring):
    rays = exp_map_rays(ring, n_rays=5, samples=50)
    assert len(rays) == 5
    assert rays[0].beta0 == 0.0
    assert rays[0].lam[-1] == pytest.approx(2.0 * np.pi * ring.b)
    assert rays[-1].beta0 == pytest.approx(np.pi / 2.0)
    assert rays[-1].lam[-1] == pytest.approx(2.0 * np.pi * (ring.a + ring.b))
    # meridian ray closes; equator ray stays on chi = 0
    assert abs(rays[0].r[-1] - 2.0 * np.pi * ring.b) < 1e-8
    assert np.max(np.abs(rays[-1].r)) < 1e-9
    with pytest.raises(DomainError):
        exp_map_rays(ring, n_rays=1)


def test_exp_map_rays_share_read_only_grids(ring):
    rays = exp_map_rays(ring, n_rays=6, samples=20)
    # spans: meridian 2 pi b; the four interior rays and the equator 2 pi (a+b)
    assert len({id(ray.lam) for ray in rays}) == 2
    assert all(ray.lam is rays[1].lam for ray in rays[1:])
    with pytest.raises(ValueError):
        rays[1].lam[0] = 1.0


@pytest.mark.parametrize("samples", [0, -1])
def test_exp_map_rays_rejects_no_samples(ring, samples):
    with pytest.raises(DomainError, match="sample"):
        exp_map_rays(ring, n_rays=3, samples=samples)


@pytest.mark.parametrize("kwargs", [{"n_rays": 2.5}, {"samples": 2.5},
                                    {"n_rays": "3"}, {"samples": None}])
def test_exp_map_rays_rejects_non_integer_counts(ring, kwargs):
    with pytest.raises(DomainError, match="integer"):
        exp_map_rays(ring, **{"n_rays": 3, "samples": 10, **kwargs})


def test_exp_map_rays_still_importable_from_two_point():
    assert two_point.exp_map_rays is exp_map_rays


@pytest.mark.parametrize("a,b,r1,r2,dtheta", [
    (2.0, 1.0, 0.3, 1.1, 0.8),
    (1.0, 1.0, 0.2, 0.9, 0.6),
    (0.5, 1.0, 0.3, -0.9, 1.3),
])
def test_each_sweep_value_integrated_once(monkeypatch, a, b, r1, r2, dtheta):
    # the windings k share the monotone and fold tables: no orbit integral
    # of a solve repeats its arguments
    calls = []
    for name in ("_monotone_arc", "_bound_tail", "_bound_primitive"):
        def record(*args, _name=name, _fn=getattr(two_point, name)):
            calls.append((_name,) + args)
            return _fn(*args)
        monkeypatch.setattr(two_point, name, record)
    res = solve_two_point(SurfaceSpec(a, b), r1, r2, dtheta)
    assert res.candidates
    assert len(calls) > 100
    assert len(set(calls)) == len(calls)
