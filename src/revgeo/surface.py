"""Surface-of-revolution geometry for the torus family.

The profile circle of radius b centered a from the axis is traversed by
arc length, so the radial coordinate r measures length along the meridian
and the metric takes the form ds^2 = dr^2 + R(r)^2 dtheta^2 with

    R(r) = a + b cos(r/b),      Z(r) = b sin(r/b).

chi = r/b is the angular position on the profile circle; the shape
parameter c = (a - b)/b classifies the family.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameterError, SingularAxisError

# Relative floor below which R counts as sitting on the symmetry axis.
AXIS_EPS = 1e-12


class Family(enum.Enum):
    RING = "ring"
    HORN = "horn"
    SPINDLE = "spindle"
    SPHERE = "sphere"


@dataclass(frozen=True)
class SurfaceSpec:
    """Torus geometry parameters. Build through make_torus."""

    a: float
    b: float
    c: float = field(init=False)
    family: Family = field(init=False)

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise InvalidParameterError(
                f"a and b must be finite, got a={self.a}, b={self.b}")
        if not self.b > 0:
            raise InvalidParameterError(f"profile radius b must be positive, got {self.b}")
        if self.a <= -self.b:
            raise InvalidParameterError(
                f"center offset a={self.a} must exceed -b={-self.b} (R(0) = a + b > 0 required)")
        c = (self.a - self.b) / self.b
        object.__setattr__(self, "c", c)
        if c > 0:
            fam = Family.RING
        elif c == 0:
            fam = Family.HORN
        elif c == -1:
            fam = Family.SPHERE
        else:
            # covers -1 < c < 0 and the redundant lemon range -2 < c < -1
            fam = Family.SPINDLE
        object.__setattr__(self, "family", fam)

    def R(self, r):
        """Distance from the symmetry axis at radial arc length r."""
        return self.a + self.b * np.cos(r / self.b)

    def Z(self, r):
        """Height above the equatorial plane."""
        return self.b * np.sin(r / self.b)


def make_torus(a: float, b: float) -> SurfaceSpec:
    """Validate (a, b) and classify the torus family.

    (2,1) is a ring torus, (1,1) a horn torus, (0.5,1) a spindle torus and
    (0,1) the round sphere. Values -b < a < 0 are accepted: they place the
    lemon equator of the corresponding spindle torus at r = 0, which is how
    the inner (lemon) well is analyzed.
    """
    return SurfaceSpec(float(a), float(b))


def _require_off_axis(spec: SurfaceSpec, r):
    R = spec.R(r)
    if np.any(np.abs(R) < AXIS_EPS * spec.b):
        raise SingularAxisError(f"surface meets the axis at r={r} (R={R})")
    return R


def embed(spec: SurfaceSpec, r, theta) -> np.ndarray:
    """Embedding point in 3-space."""
    R = spec.R(r)
    return np.array([R * np.cos(theta), R * np.sin(theta), spec.Z(r)])


def gaussian_curvature(spec: SurfaceSpec, r):
    """Intrinsic curvature K = cos(chi) / (b R); sign flips across the polar circles."""
    R = _require_off_axis(spec, r)
    return np.cos(r / spec.b) / (spec.b * R)
