"""
Shortest paths between two points
=================================

The two-point solver shoots over Clairaut momenta and homotopy classes,
then ranks every connecting geodesic by length. Near-antipodal pairs
expose the cut locus: two distinct geodesics tie, and both beat the
naive equator route.
"""

import numpy as np

from revgeo import SurfaceSpec
from revgeo.dynamics import exp_map_rays
from revgeo.two_point import solve_two_point

ring = SurfaceSpec(2.0, 1.0)

# between antipodal outer-equator points the equator arc 3 pi ~ 9.42 is
# a saddle, not a minimum: turn-up and turn-down copies of a shorter
# path through the polar region tie at ~7.63
res = solve_two_point(ring, 0.0, 0.0, np.pi)
print(f"antipodal outer-equator points, dtheta = pi (tie: {res.tie})")
for cand in res.candidates[:4]:
    print(f"  {cand.shape:>10}  length {cand.length:9.6f}"
          f"  p = {cand.p:+.6f}  theta span {cand.theta_span:+.6f}")

# the equator arc is minimal only while it is shorter than half a
# convergence length, pi sqrt(3) b / ... in azimuth: pi / sqrt(3)
half_period = np.pi / np.sqrt(3.0)
for dth in (1.0, half_period - 1e-3, 1.9):
    res = solve_two_point(ring, 0.0, 0.0, dth)
    best = res.candidates[0]
    arc = 3.0 * dth
    verdict = "equator arc wins" if best.shape == "equator-arc" \
        else f"{best.shape} beats the arc ({arc:.4f})"
    print(f"dtheta = {dth:.4f}: best {best.length:.6f}, {verdict}")

# a fan of rays out of one point: the meridian closes after 2 pi b while
# interior rays spread over the tube
rays = exp_map_rays(ring, n_rays=5, samples=200)
for ray in rays:
    print(f"beta0 = {ray.beta0:.4f}: final (chi, theta) = "
          f"({ray.r[-1]:8.4f}, {ray.theta[-1]:7.4f}), lam = {ray.lam[-1]:.4f}")
