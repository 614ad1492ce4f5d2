"""
The closed-geodesic spectrum of a ring torus
============================================

Every closed geodesic carries a label [m,n;p]: m radial oscillations,
n trips around the axis, p net windings through the hole. Bound labels
(p = 0) need m/n inside the allowed frequency band; unbound labels
(p != 0) always solve. We enumerate everything up to m, n = 5.
"""

import numpy as np

from revgeo import SurfaceSpec
from revgeo.closed import spectrum, verify_closure
from revgeo.potential import critical_angles

ring = SurfaceSpec(2.0, 1.0)
crit = critical_angles(ring)

result = spectrum(ring, 5, 5)
solved = sorted(result.solved(), key=lambda e: e.geodesic.length)
missing = [e for e in result.entries if e.status == "nonexistent"]
print(f"labels tried: {len(result.entries)}, solved: {len(solved)}, "
      f"nonexistent: {len(missing)}")

# the bound band is 0 < m/n < sqrt(c + 2) = sqrt(3); integer frequencies
# m/n >= sqrt(3) have no bound representative
print("no bound geodesic for:",
      " ".join(str(e.label) for e in missing))

print(f"{'label':>8} {'beta0 (deg)':>12} {'length':>12} {'residual':>10}")
for entry in solved[:12]:
    geo = entry.geodesic
    deg = 0.0 if geo.beta0 is None else np.degrees(geo.beta0)
    res = verify_closure(ring, geo)
    print(f"{str(geo.label):>8} {deg:12.6f} {geo.length:12.6f} {res:10.2e}")

# high-n unbound launch angles pile up just below the critical angle;
# the closure check runs the first half loop, to the inner-equator
# crossing, and inherits the hyperbolic sensitivity of that approach, so
# residuals grow even at a correct root; [1,5;1] reaches no crossing
# within its run, and its residual is a lower bound
print(f"beta_crit = {np.degrees(crit.beta_crit):.6f} deg")
for label in ((3, 4, 1), (3, 5, 1), (1, 5, 1)):
    geo = next(e.geodesic for e in solved
               if (e.label.m, e.label.n, e.label.p) == label)
    gap = crit.beta_crit - geo.beta0
    print(f"{str(geo.label):>8} sits {gap:9.2e} below critical, "
          f"residual {verify_closure(ring, geo):.2e}")
