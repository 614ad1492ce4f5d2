"""
Where closed geodesics cross themselves
=======================================

Self-intersections only happen on full circles chi = const, in mirror
pairs at +-chi (or on chi = 0 itself). The counting rule depends only on
n: a bound [m,n;0] crosses itself on floor(n/2) radii, where the orbit
angle reaches pi (n - 2l) / (2m) for l = 1 .. n-1, so none for n = 1, and
even n places one of them on the outer equator.
"""

import numpy as np

from revgeo import SurfaceSpec
from revgeo.closed import find_closed, self_intersections, spectrum

ring = SurfaceSpec(2.0, 1.0)

# unbound geodesics (p = 1) are monotone in both coordinates, hence
# embedded; every crossing in the table below comes from a bound label
print(f"{'label':>8} {'radii':>6}  crossing circles (chi: count)")
for e in sorted(spectrum(ring, 5, 5).solved(),
                key=lambda e: (e.label.n, e.label.m, e.label.p)):
    if e.label.m == 0 or e.label.n == 0:
        continue  # equators and meridians are embedded circles
    geo = e.geodesic
    radii = self_intersections(ring, geo)
    cells = ", ".join(f"{r.chi:.4f}: {r.count}" for r in radii)
    print(f"{str(geo.label):>8} {len(radii):>6}  {cells}")

# zoom in on [2,3;0]: four double points on one mirror pair of circles
geo = find_closed(ring, (2, 3, 0))
(radius,) = self_intersections(ring, geo)
print(f"[2,3;0]: chi = {radius.chi:.6f}, {radius.count} double points")
for pt in radius.points:
    print(f"  lam = ({pt.lam1:8.4f}, {pt.lam2:8.4f})"
          f"  chi = {pt.chi:+.6f}  theta = {pt.theta:.6f}")

# within one sign of chi the azimuths step by 2 pi / m; the mirror circle
# carries the interleaved set, so neighbours across signs sit pi / m apart
offs = sorted(p.theta for p in radius.points if p.chi > 0.0)
print("spacing on the +chi circle:",
      np.round(np.diff(offs), 6), "= 2 pi / 2 =", round(np.pi, 6))
