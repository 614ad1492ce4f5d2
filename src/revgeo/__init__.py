"""Geodesics on tori of revolution via effective-potential reduction.

Layers, roughly bottom to top:

  surface        profile functions, families, curvature, embedding
  dynamics       geodesic ODEs, conservation, event-tagged integration
  potential      1d radial reduction: wells, turning points, critical angles
  integrals      orbit-angle / arc-length / affine-time quadratures
  closed         closed-geodesic spectrum [m, n; p] and self-intersections
  two_point      boundary value problem and exponential-map fans
  flat_torus     the flat comparison case
  central_force  the same reduction applied to planar orbits
"""

import importlib

# public name -> the layer module that defines it; a layer is imported on
# first access to one of its names, so `import revgeo` loads no scipy
_LAYERS = {
    "central_force": ("CircularOrbit", "ForceParams", "OrbitClass", "PlaneOrbit",
                      "apsidal_angle", "circular_radii", "classify_orbit",
                      "epicyclic_frequency", "integrate_orbit",
                      "perihelion_precession", "total_potential"),
    "closed": ("ClosedGeodesic", "ClosedLabel", "CrossingRadius",
               "PrecessionData", "RefineResult", "SelfIntersection",
               "SpectrumEntry", "SpectrumResult", "crossing_points",
               "find_closed", "precession_rate", "refine_via_ode",
               "self_intersections", "spectrum", "verify_closure"),
    "dynamics": ("INNER_EQUATOR", "OUTER_EQUATOR", "TURNING_POINT",
                 "ConservedSet", "Event", "GeodesicState", "IntegratorConfig",
                 "OrbitTrace", "conserved", "initial_state_from_angle",
                 "integrate"),
    "errors": ("ConvergenceError", "DomainError", "ForbiddenRegionError",
               "IntegrationError", "InvalidParameterError",
               "NonexistentGeodesicError", "NoSolutionError", "RevgeoError",
               "SingularAxisError", "UnstableOrbitError"),
    "flat_torus": ("FlatEntry", "flat_lattice", "flat_length", "flat_segments"),
    "integrals": ("FrequencyBranch", "affine_time",
                  "arc_length_bound_period", "arc_length_unbound_loop",
                  "critical_divergence_estimate", "frequency_branch",
                  "orbit_angle", "theta_frequency_bound",
                  "theta_frequency_unbound"),
    "potential": ("CriticalAngles", "GeodesicClass", "OscillationData",
                  "TurningPoints", "chi_sup", "classify", "critical_angles",
                  "effective_potential", "small_oscillation",
                  "turning_point"),
    "surface": ("Family", "SurfaceSpec", "embed", "gaussian_curvature",
                "make_torus"),
    "two_point": ("ConnectingGeodesic", "RayPath", "TwoPointResult",
                  "exp_map_rays", "solve_two_point"),
}
_OWNER = {name: layer for layer, names in _LAYERS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted([*_LAYERS, *_OWNER])


def __getattr__(name):
    if name in _LAYERS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_OWNER[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
