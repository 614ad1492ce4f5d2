"""Surface geometry: profiles, families, curvature, embedding."""

import numpy as np
import pytest

from revgeo import InvalidParameterError, SurfaceSpec
from revgeo.surface import Family, embed, gaussian_curvature, make_torus


def test_family_split():
    assert SurfaceSpec(2.0, 1.0).family is Family.RING
    assert SurfaceSpec(1.0, 1.0).family is Family.HORN
    assert SurfaceSpec(0.5, 1.0).family is Family.SPINDLE
    assert SurfaceSpec(0.0, 1.0).family is Family.SPHERE


def test_shape_parameter():
    assert SurfaceSpec(2.0, 1.0).c == 1.0
    assert SurfaceSpec(3.0, 2.0).c == 0.5
    assert SurfaceSpec(0.5, 1.0).c == -0.5


def test_invalid_specs():
    with pytest.raises(InvalidParameterError):
        SurfaceSpec(2.0, 0.0)
    with pytest.raises(InvalidParameterError):
        SurfaceSpec(2.0, -1.0)
    with pytest.raises(InvalidParameterError):
        SurfaceSpec(-1.0, 1.0)     # a <= -b leaves no chart at all
    for a, b in ((np.nan, 1.0), (np.inf, 1.0), (2.0, np.nan), (2.0, np.inf),
                 (-np.inf, 1.0)):
        with pytest.raises(InvalidParameterError):
            SurfaceSpec(a, b)


def test_lemon_range_is_a_spindle():
    # -b < a < 0 reindexes a spindle so the lemon well sits at r = 0
    spec = SurfaceSpec(-0.5, 1.0)
    assert spec.family is Family.SPINDLE
    assert spec.c == -1.5
    assert spec.R(0.0) == pytest.approx(0.5, abs=1e-15)


def test_profile_ring():
    spec = SurfaceSpec(2.0, 1.0)
    # outer equator, top circle, inner equator
    assert spec.R(0.0) == pytest.approx(3.0, abs=1e-15)
    assert spec.R(np.pi / 2.0) == pytest.approx(2.0, abs=1e-12)
    assert spec.R(np.pi) == pytest.approx(1.0, abs=1e-12)
    assert spec.Z(0.0) == pytest.approx(0.0, abs=1e-15)
    assert spec.Z(np.pi / 2.0) == pytest.approx(1.0, abs=1e-12)


def test_gaussian_curvature_signs():
    spec = SurfaceSpec(2.0, 1.0)
    assert gaussian_curvature(spec, 0.0) == pytest.approx(1.0 / 3.0, abs=1e-13)
    assert gaussian_curvature(spec, np.pi) == pytest.approx(-1.0, abs=1e-12)
    assert abs(gaussian_curvature(spec, np.pi / 2.0)) < 1e-12
    # sphere is constant curvature 1/b^2
    sph = SurfaceSpec(0.0, 2.0)
    r = np.linspace(-2.0, 2.0, 41)
    assert np.allclose(gaussian_curvature(sph, r), 0.25, atol=1e-12)


def test_total_curvature_vanishes():
    # integral of K dA over the torus is zero (Gauss-Bonnet, genus 1)
    spec = SurfaceSpec(2.0, 1.0)
    r = np.linspace(-np.pi, np.pi, 20001)
    K = gaussian_curvature(spec, r)
    R = spec.R(r)
    total = np.trapezoid(K * R, r) * 2.0 * np.pi
    assert abs(total) < 1e-8


def test_embedding_consistency():
    spec = SurfaceSpec(2.0, 1.0)
    x = embed(spec, 0.0, 0.0)
    assert np.allclose(x, [3.0, 0.0, 0.0], atol=1e-14)
    x = embed(spec, np.pi / 2.0, np.pi / 2.0)
    assert np.allclose(x, [0.0, 2.0, 1.0], atol=1e-12)
    # embedded distance from axis equals R; components stack as (3, n)
    r = np.linspace(-3.0, 3.0, 17)
    pts = embed(spec, r, 0.7)
    assert np.allclose(np.hypot(pts[0], pts[1]), spec.R(r), atol=1e-12)


def test_make_torus_matches_ctor():
    assert make_torus(2.0, 1.0) == SurfaceSpec(2.0, 1.0)
