"""Connecting geodesics between two surface points, and exponential-map fans.

A geodesic from (r1, 0) to (r2, dtheta) is determined by its Clairaut
constant p = R sin(beta) together with a fold pattern: the radial coordinate
either runs monotonically or reflects off one or two turning circles.
Each pattern gives a one-parameter family; sweeping the parameter and
matching the accumulated azimuth dtheta + 2 pi k reduces the boundary value
problem to one-dimensional root finding on monotone-enough branch functions.

Folded branches are parametrized by the turning radius r_t (so p = R(r_t)
exactly, keeping the radicand factorization clean), monotone branches by p
itself. Azimuth windings k and radial windings j are enumerated over small
ranges; every root found is returned, sorted by arc length.

A winding k only moves the target to dtheta + 2 pi k, so each sweep value
is integrated once per solve and shared by every k: the fold table keeps
its terms per turning radius, and each radial winding j keeps one table of
monotone sweeps per momentum. The tables live for one call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.optimize import brentq

from .dynamics import IntegratorConfig, initial_state_from_angle, integrate
from .errors import DomainError, ForbiddenRegionError, NoSolutionError
from .integrals import (_LENGTH, _ORBIT, _bound_primitive, _bound_tail,
                        _monotone_arc, _rho)
from .potential import chi_sup
from .surface import Family, SurfaceSpec

# two candidates closer than this (relative) in length are flagged as a tie
_TIE_RTOL = 1e-9


@dataclass(frozen=True)
class ConnectingGeodesic:
    p: float                  # Clairaut constant, signed with the azimuth
    length: float
    shape: str                # meridian | equator-arc | monotone | turn-up | ...
    radial_windings: int      # extra signed 2 pi b advances of r
    azimuthal_windings: int   # k in the matched target dtheta + 2 pi k
    theta_span: float         # signed azimuth actually traversed
    vr_sign: int              # initial radial direction at (r1, 0)


@dataclass(frozen=True)
class TwoPointResult:
    spec: SurfaceSpec
    r1: float
    r2: float
    dtheta: float
    candidates: tuple
    tie: bool

    @property
    def minimal(self) -> ConnectingGeodesic:
        return self.candidates[0]


def _chart_check(spec, r, name):
    if spec.R(r) <= 0.0:
        raise DomainError(f"{name} = {r} lies outside the surface chart (R <= 0)")


def _on_circle(chi, which):
    if which == "outer":
        return abs(np.sin(chi / 2.0)) < 1e-12
    return abs(np.cos(chi / 2.0)) < 1e-12


class _FoldTable:
    """Shared quadrature samples for the four folded branch shapes.

    For turning radius t (in chi units) the azimuth and length of any fold
    pattern are linear combinations of the odd primitives T(t), T(chi1),
    T(chi2) with w = rho(t). The sweeps need only the three orbit terms;
    the length terms are computed at accepted roots alone. Each (t, kind)
    is integrated once per table, so the grid pass serves every winding k
    and the bracket ends of every brentq.
    """

    def __init__(self, spec, chi1, chi2):
        self.spec, self.chi1, self.chi2 = spec, chi1, chi2
        self._terms = {}

    def terms(self, t, kind):
        """(T(t), T(chi1), T(chi2)) of one kind, with T(t) computed once."""
        key = (t, kind)
        if key not in self._terms:
            spec = self.spec
            w = _rho(spec.c, t)
            Tt = _bound_tail(spec, w, t, 0.0, kind)
            self._terms[key] = (
                Tt, _bound_primitive(spec, w, t, self.chi1, kind, Tt),
                _bound_primitive(spec, w, t, self.chi2, kind, Tt))
        return self._terms[key]

    # fold-pattern combinations: sweep = az coefficient dot (Tt, T1, T2)
    _COEF = {
        "turn-up":      (2.0, -1.0, -1.0),
        "turn-down":    (2.0, +1.0, +1.0),
        "turn-up-down": (4.0, -1.0, +1.0),
        "turn-down-up": (4.0, +1.0, -1.0),
    }

    def sweep(self, shape, t):
        ct, c1, c2 = self._COEF[shape]
        Tt, T1, T2 = self.terms(t, _ORBIT)
        return ct * Tt + c1 * T1 + c2 * T2

    def length(self, shape, t):
        ct, c1, c2 = self._COEF[shape]
        Lt, L1, L2 = self.terms(t, _LENGTH)
        return ct * Lt + c1 * L1 + c2 * L2


def _fold_grid(t_min, t_sup, ring):
    """Grid over (t_min, t_sup), clustered at both ends; near t_sup the ring
    sweep diverges only logarithmically, so the approach is geometric."""
    span = t_sup - t_min
    lo = t_min + max(1e-5, 1e-9 * span)
    base = lo + (t_sup - 1e-7 - lo) * np.linspace(0.0, 1.0, 33) ** 1.5
    tail_depth = 34.0 if ring else 16.0
    tail = t_sup - span * np.exp(-np.linspace(1.0, tail_depth, 22))
    grid = np.unique(np.concatenate([base, tail]))
    return grid[(grid > t_min) & (grid < t_sup)]


def _min_rho_between(c, chi_lo, chi_hi):
    """Minimum of rho over [chi_lo, chi_hi] and whether it is interior."""
    end_min = min(_rho(c, chi_lo), _rho(c, chi_hi))
    k_lo = np.ceil((chi_lo - np.pi) / (2.0 * np.pi))
    k_hi = np.floor((chi_hi - np.pi) / (2.0 * np.pi))
    if k_lo <= k_hi:   # an odd multiple of pi lies strictly inside
        return c, True
    return end_min, False


def _solve_monotone(spec, chi1, chi_end, target_abs, table):
    """Roots of sweep(q) = target_abs on the monotone branch, as (q, length).

    table maps q to sweep(q) on this arc; the windings k share it.
    """
    q_sup, interior = _min_rho_between(spec.c, min(chi1, chi_end),
                                       max(chi1, chi_end))
    if q_sup <= 0.0:
        return None

    def sweep(q):
        if q not in table:
            table[q] = abs(_monotone_arc(spec, q, chi1, chi_end, _ORBIT))
        return table[q]

    f = lambda q: sweep(q) - target_abs
    hi = None
    # approach the supremum geometrically; interior minima diverge (log),
    # endpoint minima saturate and may leave the target unreachable
    for t in np.linspace(0.5, 32.0, 40):
        q_try = q_sup * (1.0 - np.exp(-t))
        try:
            if f(q_try) > 0.0:
                hi = q_try
                break
        except ForbiddenRegionError:
            break
    if hi is None:
        return None
    lo = q_sup * 1e-12
    if f(lo) >= 0.0:
        return None
    q_root = brentq(f, lo, hi, xtol=1e-14, rtol=4.0 * np.finfo(float).eps)
    length = spec.b * abs(_monotone_arc(spec, q_root, chi1, chi_end, _LENGTH))
    return float(q_root), float(length)


def solve_two_point(spec: SurfaceSpec, r1: float, r2: float, dtheta: float,
                    k_range=(-2, -1, 0, 1, 2)) -> TwoPointResult:
    """All connecting geodesics from (r1, 0) to (r2, dtheta) over the winding
    ranges, sorted by length. Raises NoSolutionError if nothing matches."""
    if not np.all(np.isfinite((r1, r2, dtheta))):
        raise DomainError(
            f"r1, r2 and dtheta must be finite, got {r1}, {r2}, {dtheta}")
    _chart_check(spec, r1, "r1")
    _chart_check(spec, r2, "r2")
    b, c = spec.b, spec.c
    ring = spec.family is Family.RING
    chi1, chi2 = r1 / b, r2 / b
    chi_top = chi_sup(spec)
    cands = []

    j_values = (-1, 0, 1) if ring else (0,)

    def add(p, length, shape, j, k, span, vr_sign):
        if length <= 1e-12:
            return
        for other in cands:
            if (abs(other.length - length) < 1e-8 * (1.0 + length)
                    and abs(abs(other.p) - abs(p)) < 1e-8 * (1.0 + abs(p))
                    and other.vr_sign == vr_sign):
                return
        cands.append(ConnectingGeodesic(float(p), float(length), shape, j, k,
                                        float(span), vr_sign))

    # shared fold table and grid, and one monotone table per j, reused across k
    monotone = {j: {} for j in j_values}
    table = _FoldTable(spec, chi1, chi2)
    t_min = max(abs(chi1), abs(chi2))
    grid = _fold_grid(t_min, chi_top, ring)
    sweeps = {}
    if grid.size:
        terms = np.array([table.terms(t, _ORBIT) for t in grid])
        for shape, (ct, c1, c2) in _FoldTable._COEF.items():
            sweeps[shape] = ct * terms[:, 0] + c1 * terms[:, 1] + c2 * terms[:, 2]

    for k in k_range:
        target = dtheta + 2.0 * np.pi * k
        tabs = abs(target)
        sgn = 1.0 if target >= 0 else -1.0

        if tabs < 1e-14:
            # pure meridian arcs; theta cannot sweep zero otherwise
            for j in j_values:
                chi_end = chi2 + 2.0 * np.pi * j
                if chi_end == chi1:
                    continue
                if not ring:
                    if max(abs(chi1), abs(chi_end)) >= chi_top:
                        continue
                elif _min_rho_between(c, min(chi1, chi_end),
                                      max(chi1, chi_end))[0] <= 0.0:
                    continue
                add(0.0, b * abs(chi_end - chi1), "meridian", j, k, 0.0,
                    int(np.sign(chi_end - chi1)))
            continue

        if _on_circle(chi1, "outer") and _on_circle(chi2, "outer"):
            add(sgn * b * (c + 2.0), (spec.a + b) * tabs, "equator-arc",
                0, k, target, 0)
        if ring and _on_circle(chi1, "inner") and _on_circle(chi2, "inner"):
            add(sgn * b * c, (spec.a - b) * tabs, "equator-arc", 0, k, target, 0)

        for j in j_values:
            chi_end = chi2 + 2.0 * np.pi * j
            if chi_end == chi1:
                continue
            got = _solve_monotone(spec, chi1, chi_end, tabs, monotone[j])
            if got is not None:
                add(sgn * got[0] * b, got[1], "monotone", j, k, target,
                    int(np.sign(chi_end - chi1)))

        for shape in _FoldTable._COEF:
            if not grid.size:
                continue
            vals = sweeps[shape] - tabs
            for i in range(len(grid) - 1):
                if not (np.isfinite(vals[i]) and np.isfinite(vals[i + 1])):
                    continue
                if vals[i] == 0.0:
                    roots = [grid[i]]
                elif vals[i] * vals[i + 1] < 0.0:
                    roots = [brentq(lambda t: table.sweep(shape, t) - tabs,
                                    grid[i], grid[i + 1], xtol=1e-13)]
                else:
                    continue
                for t_root in roots:
                    span_len = table.length(shape, t_root)
                    up_first = shape in ("turn-up", "turn-up-down")
                    vr0 = 1 if up_first else -1
                    if up_first and abs(t_root - chi1) < 1e-11:
                        vr0 = -1   # grazing launch: already at the turn
                    if not up_first and abs(t_root + chi1) < 1e-11:
                        vr0 = 1
                    add(sgn * _rho(c, t_root) * b, b * span_len, shape,
                        0, k, target, vr0)

    if not cands:
        raise NoSolutionError(
            f"no connecting geodesic found for dtheta = {dtheta}",
            branches_searched=("meridian", "equator-arc", "monotone")
            + tuple(_FoldTable._COEF))
    cands.sort(key=lambda g: g.length)
    tie = (len(cands) > 1 and
           abs(cands[0].length - cands[1].length)
           < _TIE_RTOL * max(1.0, cands[0].length))
    return TwoPointResult(spec, r1, r2, dtheta, tuple(cands), tie)


@dataclass(frozen=True)
class RayPath:
    beta0: float
    lam: np.ndarray
    r: np.ndarray
    theta: np.ndarray


def exp_map_rays(spec: SurfaceSpec, n_rays: int = 24,
                 lam_max: Optional[float] = None, samples: int = 400) -> tuple:
    """Fan of unit-speed geodesics from the outer-equator point (0, 0).

    Launch angles run from 0 (meridian) to pi/2 (outer equator) inclusive.
    The two closed extremes are integrated over exactly one circuit
    (2 pi b and 2 pi (a+b)); interior rays run to lam_max, default one
    outer-equator circuit. Rays of equal span share one read-only lam array.
    """
    if n_rays < 2:
        raise DomainError("need at least the meridian and equator rays")
    if samples < 1:
        raise DomainError(f"need at least one sample per ray, got {samples}")
    default_span = 2.0 * np.pi * (spec.a + spec.b)
    grids = {}                      # one read-only sample grid per distinct span
    rays = []
    for beta0 in np.linspace(0.0, np.pi / 2.0, n_rays):
        if beta0 == 0.0:
            span = 2.0 * np.pi * spec.b
        elif beta0 == np.pi / 2.0:
            span = default_span
        else:
            span = lam_max if lam_max is not None else default_span
        cfg = IntegratorConfig(rel_tol=1e-11, abs_tol=1e-12, max_lambda=span)
        trace = integrate(spec, initial_state_from_angle(spec, beta0), cfg)
        lams = grids.get(span)
        if lams is None:
            lams = grids[span] = np.linspace(0.0, span, samples)
            lams.flags.writeable = False
        Y = trace.dense(lams)
        rays.append(RayPath(float(beta0), lams, Y[0].copy(), Y[1].copy()))
    return tuple(rays)
