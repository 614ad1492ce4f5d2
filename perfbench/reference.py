"""Independent reference values for the benchmark's checks.

Nothing here imports revgeo. Frequencies and lengths come from the
substitution x = cos(chi) = x_m + (1 - x_m) sin^2(phi), which turns the
quarter-period integrals of the radicand R^2 - p^2 into integrals over
phi in [0, pi/2] with no endpoint singularity:

    Theta_q = Int 2 w dphi / ((w + K S) sqrt((eps + K S)(2 w + K S)))
    L_q     = Int 2 (w + K S) dphi / sqrt((eps + K S)(2 w + K S))

with S = sin^2 phi, w = (c + 2) sin(beta0), eps = w - c, K = 2 + c - w.
Unbound ring loops use psi = (pi - chi)/2 in the same way. The small
parameters eps and K are formed in 40-digit arithmetic, and the integrals
use a double-exponential (tanh-sinh) rule in numpy, so near-critical
launch angles keep their digits. Geodesic end points are checked by
shooting the geodesic equations with scipy's solve_ivp, which is a
separate route from revgeo's quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import mpmath
import numpy as np
from scipy.integrate import solve_ivp

# a result matches the reference when its relative error is below this
REL_TOL = 1e-9
# worst end-point miss accepted when a connecting geodesic is shot by ODE,
# plus what a relative error P_TOL in its Clairaut constant explains; the
# sensitivity to p is measured by shooting p (1 + _NUDGE) as well
SHOT_TOL = 1e-6
P_TOL = 1e-12
_NUDGE = 1e-11
# conservation drift accepted over one long integration
DRIFT_TOL = 1e-9
# closure gate of the CLI: base value plus the near-critical widening
RESIDUAL_TOL = 1e-6
VERIFY_RTOL = 1e-12


def family(c: float) -> str:
    if c > 0:
        return "ring"
    if c == 0:
        return "horn"
    if -1 < c < 0:
        return "apple"
    if -2 < c < -1:
        return "lemon"
    raise ValueError(f"no torus family for c = {c}")


# ----------------------------------------------------------------- quadrature

def _tanh_sinh(h: float, tmax: float = 4.5):
    """Nodes in (0, 1) and weights of the tanh-sinh rule with step h."""
    t = np.arange(-tmax, tmax + 0.5 * h, h)
    s = 0.5 * np.pi * np.sinh(t)
    # x = (1 + tanh s)/2 and 1 - x in logistic form, so nodes near 0 keep digits
    x = 1.0 / (1.0 + np.exp(-2.0 * s))
    wts = h * np.pi * np.cosh(t) * x * (1.0 / (1.0 + np.exp(2.0 * s)))
    return x, wts


_COARSE = _tanh_sinh(1.0 / 64.0)
_FINE = _tanh_sinh(1.0 / 128.0)


class ReferenceFailed(Exception):
    """The reference quadrature did not reach its own accuracy."""


def _integrate(f) -> float:
    """Integral of f over phi in [0, pi/2], f vectorized over sin^2(phi)."""
    vals = []
    for x, wts in (_COARSE, _FINE):
        S = np.sin(0.5 * np.pi * x) ** 2
        vals.append(0.5 * np.pi * float(np.dot(wts, f(S))))
    coarse, fine = vals
    if not abs(fine - coarse) <= 1e-14 * abs(fine) + 1e-300:
        raise ReferenceFailed(f"tanh-sinh did not converge ({coarse!r} vs {fine!r})")
    return fine


@dataclass(frozen=True)
class Launch:
    """Launch parameters of one beta0 in 40-digit precision, as floats."""
    w: float        # (c + 2) sin(beta0)
    eps: float      # w - c: distance above the inner-equator barrier
    K: float        # 2 + c - w: distance below the outer equator


def launch(c: float, beta0: float) -> Launch:
    with mpmath.workdps(40):
        cc = mpmath.mpf(c)
        w = (cc + 2) * mpmath.sin(mpmath.mpf(beta0))
        return Launch(float(w), float(w - cc), float(cc + 2 - w))


def bound_quarter(c: float, beta0: float):
    """(Theta_q, L_q/b) of a bound launch: quarter orbit angle and length."""
    ln = launch(c, beta0)
    w, eps, K = ln.w, ln.eps, ln.K
    if not eps > 0.0:
        raise ValueError("bound launch needs w > c")

    def root(S):
        return np.sqrt((eps + K * S) * (2.0 * w + K * S))

    theta = _integrate(lambda S: 2.0 * w / ((w + K * S) * root(S)))
    length = _integrate(lambda S: 2.0 * (w + K * S) / root(S))
    return theta, length


def unbound_loop(c: float, beta0: float):
    """(G, L/b) of an unbound ring launch over one radial loop chi -> chi + 2 pi."""
    ln = launch(c, beta0)
    w, gap = ln.w, -ln.eps          # gap = c - w > 0
    if not gap > 0.0:
        raise ValueError("unbound launch needs w < c")

    def root(S):
        return np.sqrt((gap + 2.0 * S) * (c + w + 2.0 * S))

    G = 4.0 * _integrate(lambda S: w / ((c + 2.0 * S) * root(S)))
    L = 4.0 * _integrate(lambda S: (c + 2.0 * S) / root(S))
    return G, L


def beta_crit(c: float) -> Optional[float]:
    return math.asin(c / (c + 2.0)) if c > 0 else None


def frequency(c: float, beta0: float, unbound: bool) -> float:
    """Radial periods per revolution N(beta0), with its limits at the ends."""
    bc = beta_crit(c)
    if unbound:
        if beta0 <= 0.0:
            return math.inf
        if beta0 >= bc:
            return 0.0
        G, _ = unbound_loop(c, beta0)
        return 2.0 * math.pi / G
    if beta0 >= 0.5 * math.pi:
        return math.sqrt(c + 2.0)
    if bc is not None and beta0 <= bc:
        return 0.0
    if bc is None and beta0 <= 0.0:
        return math.sqrt(max(0.0, -c * (c + 2.0)))   # apex limit
    theta, _ = bound_quarter(c, beta0)
    return 2.0 * math.pi / (4.0 * theta)


# ----------------------------------------------------------------- spectrum

def closed_exists(c: float, m: int, n: int, p: int) -> bool:
    """Whether the closed geodesic [m, n; p] exists on the torus with shape c."""
    fam = family(c)
    if (m, n) == (0, 1):
        return p == 0 or fam == "ring"          # outer / inner equator
    if (m, n) == (1, 0):
        return p == 1                           # the meridian
    if p == 1:
        return fam == "ring"
    q = m / n
    sup = math.sqrt(c + 2.0)
    if fam in ("ring", "horn"):
        return q < sup
    apex = math.sqrt(-c * (c + 2.0))
    if fam == "apple":
        return apex < q < sup
    return sup < q < apex                       # lemon: N decreases


@dataclass
class Verdict:
    ok: bool
    rel_err: Optional[float] = None     # for accuracy_digits; None if not numeric
    reason: str = ""
    defect: str = ""                    # known-defect tag when ok is False


def check_closed(a: float, b: float, label, outcome) -> Verdict:
    """Check one find_closed outcome.

    outcome is ("ok", beta0, length, ...) or ("error", exception class name).
    """
    m, n, p = label
    c = (a - b) / b
    fam = family(c)
    exists = closed_exists(c, m, n, p)
    if outcome[0] == "error":
        name = outcome[1]
        if not exists and name == "NonexistentGeodesicError":
            return Verdict(True)
        if exists and name == "NonexistentGeodesicError":
            tag = "b" if fam == "lemon" else ""
            return Verdict(False, reason=f"false nonexistent verdict ({fam})", defect=tag)
        if exists and name == "ConvergenceError" and fam == "ring":
            return Verdict(False, reason="ring label did not converge", defect="c")
        return Verdict(False, reason=f"unexpected {name}")
    beta0, length = outcome[1], outcome[2]
    if not exists:
        tag = "a" if fam in ("apple", "lemon") and beta0 is not None and beta0 < 1e-6 else ""
        return Verdict(False, reason=f"solved a nonexistent label at beta0={beta0!r}",
                       defect=tag)
    if (m, n) in ((0, 1), (1, 0)):
        want_beta, want_len = {
            (0, 1, 0): (0.5 * math.pi, 2.0 * math.pi * (a + b)),
            (0, 1, 1): (None, 2.0 * math.pi * (a - b)),
            (1, 0, 1): (0.0, 2.0 * math.pi * b),
        }[(m, n, p)]
        err = abs(length - want_len) / want_len
        ok = err <= REL_TOL and (beta0 == want_beta if want_beta is None
                                 else abs(beta0 - want_beta) <= 1e-15)
        return Verdict(ok, err, "" if ok else "equator/meridian mismatch")
    return check_root(c, b, m, n, p, beta0, length)


def check_root(c, b, m, n, p, beta0, length=None) -> Verdict:
    """Check that beta0 solves N(beta0) = m/n and, if given, the circuit length."""
    target = m / n
    unbound = p == 1
    if beta0 is None or not math.isfinite(beta0):
        return Verdict(False, reason=f"launch angle {beta0!r}")
    delta = REL_TOL * beta0
    N0 = frequency(c, beta0, unbound)
    N_lo = frequency(c, beta0 - delta, unbound)
    N_hi = frequency(c, beta0 + delta, unbound)
    if (N_lo - target) * (N_hi - target) > 0.0:
        return Verdict(False, reason=f"N({beta0!r}) = {N0!r}, not {target!r} within "
                                      f"the {REL_TOL:g} bracket")
    slope = (N_hi - N_lo) / (2.0 * delta)
    root_err = delta / beta0
    if math.isfinite(slope) and slope != 0.0:
        root_err = min(root_err, abs(N0 - target) / abs(slope) / beta0)
    if length is None:
        return Verdict(True, root_err)
    want = circuit_length(c, b, m, p, beta0)
    # a double beta0 fixes the launch only to an ulp; near the critical angle
    # the length moves measurably within that, so the spread of the reference
    # over +-4 ulp widens the tolerance, like the CLI's closure gate
    cond = 0.0
    for side in (-4.0, 4.0):
        try:
            cond = max(cond, abs(circuit_length(c, b, m, p, beta0 + side * math.ulp(beta0))
                                 - want) / want)
        except ValueError:
            continue                    # that side leaves the branch
    len_err = abs(length - want) / want
    if len_err > REL_TOL + cond:
        return Verdict(False, len_err, f"length {length!r}, reference {want!r} "
                                        f"(+- {cond:.2g} from the last bits of beta0)")
    return Verdict(True, max(root_err, len_err))


def circuit_length(c, b, m, p, beta0) -> float:
    """Length of the closed circuit [m, n; p] launched at beta0."""
    if p == 1:
        return m * b * unbound_loop(c, beta0)[1]
    return m * 4.0 * b * bound_quarter(c, beta0)[1]


# ----------------------------------------------------------------- geodesic flow

def _rhs_batch(a, b):
    """Geodesic equations for a stack of states, each scaled by its span."""
    def rhs(_, y, spans):
        r, _th, vr, vth = y.reshape(4, -1)
        R = a + b * np.cos(r / b)
        Rp = -np.sin(r / b)
        with np.errstate(divide="ignore", invalid="ignore"):
            dvth = np.where(vth == 0.0, 0.0, -2.0 * (Rp / R) * vr * vth)
        out = np.stack([vr, vth, Rp * R * vth * vth, dvth]) * spans
        return out.ravel()
    return rhs


def shoot(a, b, states, spans, samples=None):
    """Integrate unit-speed geodesics from states (4, k) over lambda in [0, span].

    Every ray runs on s = lambda/span in [0, 1], so one solve_ivp call carries
    the whole batch. Returns the end states (4, k), or, when samples (fractions
    in [0, 1]) are given, the states there with shape (4, k, len(samples)).
    """
    states = np.asarray(states, float)
    spans = np.asarray(spans, float)
    k = states.shape[1]
    sol = solve_ivp(_rhs_batch(a, b), (0.0, 1.0), states.ravel(), args=(spans,),
                    method="DOP853", rtol=1e-13, atol=1e-13,
                    dense_output=samples is not None)
    if not sol.success:
        raise ReferenceFailed(f"reference shot failed: {sol.message}")
    if samples is None:
        return sol.y[:, -1].reshape(4, k)
    return sol.sol(np.asarray(samples, float)).reshape(4, k, -1)


def launch_state(a, b, r0, p, vr_sign):
    """Unit-speed state at (r0, 0) with Clairaut constant p."""
    R0 = a + b * math.cos(r0 / b)
    return (r0, 0.0, vr_sign * math.sqrt(max(0.0, 1.0 - (p / R0) ** 2)), p / R0 ** 2)


def check_two_point(a, b, r1, r2, dtheta, cands) -> Verdict:
    """Shoot every candidate (p, length, j, k, theta_span, vr_sign) by ODE.

    Candidates with p close to the inner-equator momentum wind near an
    unstable circle, where the end point moves by S = |d end / d ln p| per
    unit relative change of p, up to 1e9 here. A candidate passes if it
    lands within SHOT_TOL + P_TOL * S: within what a relative error P_TOL
    in p, the accuracy of revgeo's quadratures, moves the end point.
    """
    if not cands:
        return Verdict(False, reason="no candidates")
    lengths = [cd[1] for cd in cands]
    if lengths != sorted(lengths):
        return Verdict(False, reason="candidates not sorted by length")
    states = np.array([launch_state(a, b, r1, cd[0], cd[5]) for cd in cands]).T
    nudged = np.array([launch_state(a, b, r1, cd[0] * (1.0 + _NUDGE), cd[5])
                       for cd in cands]).T
    ends = shoot(a, b, np.hstack([states, nudged]), lengths + lengths)
    n = len(cands)
    R2 = a + b * math.cos(r2 / b)
    worst, rel = None, 0.0
    for i, (p, length, j, k, span, _vr) in enumerate(cands):
        want_th = dtheta + 2.0 * math.pi * k
        if abs(span - want_th) > 1e-12 * max(1.0, abs(want_th)):
            return Verdict(False, reason=f"theta_span {span!r} is not dtheta + 2 pi {k}")
        want_r = r2 + 2.0 * math.pi * b * j
        miss = max(abs(ends[0, i] - want_r), R2 * abs(ends[1, i] - want_th))
        sens = max(abs(ends[0, n + i] - ends[0, i]),
                   R2 * abs(ends[1, n + i] - ends[1, i])) / _NUDGE
        rel = max(rel, miss / max(length, sens))
        if miss > SHOT_TOL + P_TOL * sens and worst is None:
            worst = f"candidate {i} misses its end point by {miss:.3g} (sensitivity {sens:.3g})"
    return Verdict(worst is None, rel, worst or "")


def closure_gate(a, b, beta0) -> float:
    """The CLI's acceptable closure residual for a closed geodesic."""
    tol = RESIDUAL_TOL
    bc = beta_crit((a - b) / b)
    if bc is not None and beta0 is not None and beta0 != bc:
        tol += 10.0 * (a + b) * VERIFY_RTOL / abs(beta0 - bc)
    return tol


def crossing_rule(m, n, p, radii) -> str:
    """Self-intersection structure of [m, n; p]: '' if right, else the fault.

    radii is a list of (chi, count, thetas, signs) per crossing radius.
    Unbound loops and n <= 1 curves are simple; otherwise there are
    floor(n/2) radii, the zero radius iff n is even, m double points at
    chi = 0 and 2m on every other pair, spaced 2 pi/m per sign family.
    """
    if p == 1 or n <= 1 or m == 0:
        return "" if not radii else f"{len(radii)} radii on a simple curve"
    if len(radii) != n // 2:
        return f"{len(radii)} radii, want {n // 2}"
    if (n % 2 == 0) != any(chi == 0.0 for chi, *_ in radii):
        return "zero-radius presence wrong"
    for chi, count, thetas, signs in radii:
        want = m if chi == 0.0 else 2 * m
        if count != want:
            return f"count {count} at chi={chi:.3f}, want {want}"
        groups = [thetas] if chi == 0.0 else [
            [t for t, s in zip(thetas, signs) if s > 0],
            [t for t, s in zip(thetas, signs) if s < 0]]
        for th in groups:
            th = np.sort(th)
            gaps = np.diff(np.concatenate([th, [th[0] + 2.0 * np.pi]]))
            if not np.allclose(gaps, 2.0 * np.pi / m, atol=1e-5):
                return f"spacing at chi={chi:.3f}"
    return ""
