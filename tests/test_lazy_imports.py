"""The package surface loads its layers on first use.

`import revgeo`, `import revgeo.dynamics` and the CLI subcommands that need
no quadrature (flat, potential, kepler, and geodesic and expmap, which like
kepler --t-max run the owned DOP853 integrator) must not import scipy, whose
import costs several times the work of those commands; only integrals
imports it, for quad. `import revgeo.cli`
loads only the modules pinned below, since every CLI process pays for them.
The public names are the pinned list below.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import revgeo

SRC = Path(__file__).resolve().parents[1] / "src"

PUBLIC = [
    'CircularOrbit', 'ClosedGeodesic', 'ClosedLabel', 'ConnectingGeodesic',
    'ConservedSet', 'ConvergenceError', 'CriticalAngles', 'CrossingRadius',
    'DomainError', 'Event', 'Family', 'FlatEntry', 'ForbiddenRegionError',
    'ForceParams', 'FrequencyBranch', 'GeodesicClass', 'GeodesicState',
    'INNER_EQUATOR', 'IntegrationError', 'IntegratorConfig',
    'InvalidParameterError', 'NoSolutionError', 'NonexistentGeodesicError',
    'OUTER_EQUATOR', 'OrbitClass', 'OrbitTrace', 'OscillationData',
    'PlaneOrbit', 'PrecessionData', 'RayPath',
    'RefineResult', 'RevgeoError', 'SelfIntersection', 'SingularAxisError',
    'SpectrumEntry', 'SpectrumResult', 'SurfaceSpec', 'TURNING_POINT',
    'TurningPoints', 'TwoPointResult', 'affine_time',
    'apsidal_angle', 'arc_length_bound_period', 'arc_length_unbound_loop',
    'central_force', 'chi_sup', 'circular_radii',
    'classify', 'classify_orbit', 'closed', 'conserved', 'critical_angles',
    'critical_divergence_estimate', 'crossing_points', 'dynamics',
    'effective_potential', 'embed',
    'errors', 'exp_map_rays', 'find_closed',
    'flat_lattice', 'flat_length', 'flat_segments', 'flat_torus',
    'frequency_branch', 'gaussian_curvature',
    'initial_state_from_angle', 'integrals', 'integrate', 'integrate_orbit',
    'make_torus', 'orbit_angle', 'perihelion_precession',
    'potential', 'precession_rate', 'refine_via_ode',
    'self_intersections', 'small_oscillation',
    'solve_two_point', 'spectrum', 'surface', 'theta_frequency_bound',
    'theta_frequency_unbound', 'total_potential', 'turning_point', 'two_point',
    'verify_closure'
]

_PROBE = """
import contextlib, io, json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

import revgeo
seen = {"import revgeo": scipy_modules()}
from revgeo import cli
cli_loads = sorted(m for m in sys.modules if m.split(".")[0] == "revgeo")
import revgeo.dynamics
seen["import revgeo.dynamics"] = scipy_modules()
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
    seen[" ".join(argv)] = scipy_modules()
print(json.dumps({"scipy": seen, "cli_loads": cli_loads}))
"""

# what `import revgeo.cli` loads of the package; the runners import the rest
CLI_LOADS = ["revgeo", "revgeo.cli", "revgeo.errors", "revgeo.surface", "revgeo.svg"]

SCIPY_FREE = [
    ["flat", "--m-max", "4", "--n-max", "5"],
    ["flat", "--m", "2", "--n", "3", "--format", "svg"],
    ["potential", "--ell", "1.2", "--format", "json"],
    ["potential", "--a", "1", "--b", "2", "--ell", "0.5", "--format", "svg"],
    ["kepler", "--k1", "1", "--ell", "1", "--E", "-0.3"],
    ["kepler", "--k1", "1", "--k2", "1e-4", "--ell", "1", "--E", "-0.4"],
    ["kepler", "--k1", "1", "--k2", "1e-4", "--ell", "1", "--E", "-0.4",
     "--r0", "1.2", "--t-max", "200"],
    ["kepler", "--k1", "1", "--k2", "0.02", "--ell", "1", "--r0", "0.01",
     "--vr0", "-0.1", "--t-max", "50"],
    ["geodesic", "--beta0", "0.5", "--lambda-max", "40", "--samples", "400"],
    ["expmap", "--rays", "6", "--lambda-max", "12", "--samples", "60"],
    ["expmap", "--rays", "24", "--lambda-max", "20", "--format", "svg"],
]


def test_scipy_free_commands_import_no_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", _PROBE, json.dumps(SCIPY_FREE)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    seen = report["scipy"]
    assert len(seen) == 2 + len(SCIPY_FREE)
    assert seen == {step: [] for step in seen}
    assert report["cli_loads"] == CLI_LOADS


def test_only_quadrature_imports_scipy():
    imports = {}
    for path in sorted((SRC / "revgeo").glob("*.py")):
        lines = [line.strip() for line in path.read_text().splitlines()
                 if line.strip().startswith(("import scipy", "from scipy"))]
        if lines:
            imports[path.stem] = lines
    assert imports == {
        "integrals": ["from scipy.integrate import IntegrationWarning, quad"],
    }


def test_public_names_unchanged_and_resolvable():
    assert revgeo.__all__ == PUBLIC
    for name in PUBLIC:
        assert getattr(revgeo, name) is not None, name
    assert revgeo.spectrum is revgeo.closed.spectrum
    assert revgeo.DomainError is revgeo.errors.DomainError
    namespace = {}
    exec("from revgeo import *", namespace)
    assert set(PUBLIC) <= set(namespace)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        revgeo.no_such_name
    with pytest.raises(ImportError):
        exec("from revgeo import no_such_name", {})
