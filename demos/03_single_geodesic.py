"""
Following one geodesic around the torus
=======================================

The [7,1;1] geodesic threads the hole once while winding seven times
around the tube. We solve for its launch angle, integrate the full
circuit, and watch the conserved quantities hold to integrator accuracy.
"""

import numpy as np

from revgeo import SurfaceSpec
from revgeo.closed import find_closed, verify_closure
from revgeo.dynamics import (IntegratorConfig, conserved, initial_state_from_angle,
                             integrate)

ring = SurfaceSpec(2.0, 1.0)

geo = find_closed(ring, (7, 1, 1))
print(f"label     = {geo.label}")
print(f"beta0     = {geo.beta0:.12f} rad = {np.degrees(geo.beta0):.6f} deg")
print(f"length    = {geo.length:.10f}")
print(f"frequency = {geo.frequency:.10f}  (7 radial loops per revolution)")

state0 = initial_state_from_angle(ring, geo.beta0)
cfg = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-13, max_lambda=geo.length)
trace = integrate(ring, state0, cfg)

# unit-speed launch: E = 1/2, ell = R(0) sin(beta0), Clairaut R sin(beta)
c0 = conserved(ring, trace.initial)
c1 = conserved(ring, trace.final)
print(f"E      = {c0.E:.15f}   drift {abs(c1.E - c0.E):.2e}")
print(f"ell    = {c0.ell:.15f}   drift {abs(c1.ell - c0.ell):.2e}")

# unbound in chi: each of the 7 tube loops passes the inner equator once;
# the 6 interior outer-equator passes exclude the launch and closure points
inner = trace.events_of("inner-equator")
outer = trace.events_of("outer-equator")
turns = trace.events_of("turning-point")
print(f"inner-equator crossings = {len(inner)}  (one per tube loop)")
print(f"outer-equator crossings = {len(outer)}  (between consecutive loops)")
print(f"radial turning points   = {len(turns)}  (chi never turns back)")

# endpoint returns to the start up to the closure winding
end = trace.final
dr = abs(end.r - state0.r - 2.0 * np.pi * ring.b * 7.0)
dth = abs(end.theta - state0.theta - 2.0 * np.pi)
print(f"closure defect: dr = {dr:.2e}, dtheta = {dth:.2e}")
print(f"verify_closure residual = {verify_closure(ring, geo):.2e}")
