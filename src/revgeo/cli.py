"""Command line interface.

Subcommands map one-to-one onto the library layers: potential, geodesic,
spectrum, bvp, flat, kepler, expmap. Output is a single table per run in
csv (default), json, or svg where a drawing makes sense. A JSON config file
can preload any long option; explicit flags win.

Exit codes: 0 success, 2 domain or usage error, 3 numerical failure, 4 I/O.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

import numpy as np

# the layers each subcommand runs are imported inside its runner, so a
# command loads scipy only if it runs quadrature
from .errors import (ConvergenceError, DomainError, ForbiddenRegionError,
                     IntegrationError, InvalidParameterError,
                     NonexistentGeodesicError, NoSolutionError,
                     RevgeoError, SingularAxisError, _require_finite)
from .surface import Family, SurfaceSpec, make_torus
from .svg import svg_document

# exit codes: 0 success, 2 domain/usage error, 3 numerical failure, 4 I/O
_DOMAIN_EXIT = 2
_RUNTIME_EXIT = 3
_IO_EXIT = 4

class UsageError(Exception):
    """Bad invocation: missing flags, unknown config keys, wrong format."""


_DOMAIN_ERRORS = (DomainError, NonexistentGeodesicError, NoSolutionError,
                  InvalidParameterError, ForbiddenRegionError, SingularAxisError)
_RUNTIME_ERRORS = (ConvergenceError, IntegrationError)

_SVG_COMMANDS = {"potential", "geodesic", "bvp", "flat", "kepler", "expmap"}


def _g(x):
    return float(f"{float(x):.12g}")


def _fmt_cell(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.12g}"
    return "" if v is None else str(v)


def _json_cell(v):
    if isinstance(v, (float, np.floating)):
        return _g(v)
    if isinstance(v, (int, np.integer)):
        return int(v)
    return v


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="revgeo",
        description="Geodesics on tori of revolution via the effective potential")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, surface=True):
        if surface:
            p.add_argument("--a", type=float, default=None,
                           help="ring radius (default 2)")
            p.add_argument("--b", type=float, default=None,
                           help="tube radius (default 1)")
        p.add_argument("--format", choices=("csv", "json", "svg"), default=None)
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--config", default=None, help="JSON file preloading options")

    p = sub.add_parser("potential", help="effective potential profile")
    common(p)
    p.add_argument("--ell", type=float, default=None, required=False)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--chi-span", dest="chi_span", type=float, default=None,
                   help="plot chi in [-span, span] (default pi, non-ring 2 pi)")

    p = sub.add_parser("geodesic", help="integrate one geodesic")
    common(p)
    p.add_argument("--beta0", type=float, default=None)
    p.add_argument("--lambda-max", dest="lambda_max", type=float, default=None)
    p.add_argument("--samples", type=int, default=None)

    p = sub.add_parser("spectrum", help="closed-geodesic launch angles")
    common(p)
    p.add_argument("--m-max", dest="m_max", type=int, default=None)
    p.add_argument("--n-max", dest="n_max", type=int, default=None)
    p.add_argument("--p", type=int, choices=(0, 1), default=None,
                   help="restrict to one class")
    p.add_argument("--no-verify", dest="no_verify", action="store_true",
                   help="skip the per-entry ODE closure check")

    p = sub.add_parser("bvp", help="connect two points")
    common(p)
    p.add_argument("--r1", type=float, default=None)
    p.add_argument("--r2", type=float, default=None)
    p.add_argument("--dtheta", type=float, default=None)
    p.add_argument("--k-max", dest="k_max", type=int, default=None)

    p = sub.add_parser("flat", help="flat-torus lines")
    common(p, surface=False)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--m-max", dest="m_max", type=int, default=None)
    p.add_argument("--n-max", dest="n_max", type=int, default=None)

    p = sub.add_parser("kepler", help="central-force orbit measures")
    common(p, surface=False)
    p.add_argument("--k1", type=float, default=None)
    p.add_argument("--k2", type=float, default=None)
    p.add_argument("--ell", type=float, default=None)
    p.add_argument("--E", type=float, default=None)
    p.add_argument("--r0", type=float, default=None)
    p.add_argument("--vr0", type=float, default=None)
    p.add_argument("--t-max", dest="t_max", type=float, default=None)

    p = sub.add_parser("expmap", help="fan of geodesics from the outer equator")
    common(p)
    p.add_argument("--rays", type=int, default=None)
    p.add_argument("--lambda-max", dest="lambda_max", type=float, default=None)
    p.add_argument("--samples", type=int, default=None)
    return ap


def _merge_config(args) -> None:
    if not getattr(args, "config", None):
        return
    with open(args.config, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise UsageError("config file must hold a JSON object")
    valid = set(vars(args))
    for key, value in cfg.items():
        dest = key.replace("-", "_")
        if dest not in valid:
            raise UsageError(f"config key {key!r} is not an option "
                             f"of '{args.command}'")
        if getattr(args, dest) is None:
            setattr(args, dest, value)


def _default(args, dest, value):
    if getattr(args, dest, None) is None:
        setattr(args, dest, value)


def _surface(args) -> SurfaceSpec:
    _default(args, "a", 2.0)
    _default(args, "b", 1.0)
    return make_torus(float(args.a), float(args.b))


def _require_at_least(args, dest, low):
    if int(getattr(args, dest)) < low:
        flag = "--" + dest.replace("_", "-")
        raise UsageError(f"{args.command} needs {flag} >= {low}, "
                         f"got {getattr(args, dest)}")


def _run_potential(args):
    from . import potential
    spec = _surface(args)
    if args.ell is None:
        raise UsageError("potential needs --ell")
    _default(args, "samples", 512)
    _default(args, "chi_span",
             np.pi if spec.family is Family.RING else 2.0 * np.pi)
    _require_at_least(args, "samples", 1)
    span = float(args.chi_span)
    ell = float(args.ell)
    _require_finite(ell=ell, chi_span=span)
    if not span > 0.0:
        raise UsageError(f"potential needs --chi-span > 0, got {args.chi_span}")
    chi = np.linspace(-span, span, int(args.samples))
    R = spec.R(chi * spec.b)
    inband = R > 1e-9 * spec.b
    U = np.full_like(chi, np.inf)
    U[inband] = potential.effective_potential(spec, ell, chi[inband] * spec.b)
    rows = [[float(c), float(u)] for c, u, ok in zip(chi, U, inband) if ok]
    crit = potential.critical_angles(spec)
    meta = {"family": spec.family.value, "c": _g(spec.c),
            "U_outer": _g(potential.effective_potential(spec, ell, 0.0)),
            "beta_crit": None if crit.beta_crit is None else _g(crit.beta_crit)}
    # svg: one polyline per chart band, walls clipped to keep the wells
    # readable, plus five horizontal energy levels
    finite = U[inband]
    cap = 10.0 * float(np.median(finite))
    curves = []
    idx = np.flatnonzero(inband)
    if idx.size:
        gaps = np.flatnonzero(np.diff(idx) > 1)
        for seg in np.split(idx, gaps + 1):
            curves.append(np.column_stack([chi[seg], np.minimum(U[seg], cap)]))
    lo = float(np.min(finite))
    top = min(cap, float(np.max(finite)))
    for frac in (0.1, 0.3, 0.5, 0.7, 0.9):
        lev = lo + frac * (top - lo)
        curves.append(np.array([[-span, lev], [span, lev]]))
    return ["chi", "U"], rows, meta, curves


def _run_geodesic(args):
    from . import dynamics
    spec = _surface(args)
    if args.beta0 is None:
        raise UsageError("geodesic needs --beta0")
    _default(args, "lambda_max", 2.0 * np.pi * (spec.a + spec.b))
    _default(args, "samples", 800)
    _require_at_least(args, "samples", 1)
    state0 = dynamics.initial_state_from_angle(spec, float(args.beta0))
    cfg = dynamics.IntegratorConfig(max_lambda=float(args.lambda_max))
    partial = False
    try:
        trace = dynamics.integrate(spec, state0, cfg)
    except IntegrationError as exc:
        if exc.trace is None:
            raise
        trace = exc.trace           # flag the truncated trace, exit 3 below
        partial = True
    lams = np.linspace(0.0, float(trace.lam[-1]), int(args.samples))
    Y = trace.dense(lams)

    def state_row(lam, y, tag):
        r, th, vr, vth = (float(v) for v in y)
        R = spec.R(r)
        ell = R * R * vth
        E = 0.5 * (vr * vr + (R * vth) ** 2)
        return [float(lam), r, th, vr, vth, E, ell, tag]

    rows = [state_row(l, (Y[0][i], Y[1][i], Y[2][i], Y[3][i]), "")
            for i, l in enumerate(lams)]
    for ev in trace.events:
        rows.append(state_row(ev.lam, ev.state.as_array(), ev.kind))
    cons = dynamics.conserved(spec, state0)
    meta = {"E": _g(cons.E), "ell": _g(cons.ell),
            "e_drift": _g(trace.e_drift), "events": len(trace.events),
            "partial": partial}
    if partial:
        meta["_exit"] = _RUNTIME_EXIT
    curves = [np.column_stack([Y[1], Y[0] / spec.b])]
    return ["lambda", "r", "theta", "vr", "vtheta", "E", "ell", "event"], \
        rows, meta, curves


_RESIDUAL_TOL = 1e-6   # closure gate away from the critical angle
_VERIFY_RTOL = 1e-12   # matches the verify_closure integrator default


def _closure_gate(spec, beta_crit, geo):
    """Acceptable closure residual for one spectrum entry.

    Roots near beta_crit shadow the unstable inner equator, where the
    verification integrator's own error grows like 1/|beta0 - beta_crit|;
    a fixed gate would flag correct roots, so the gate scales with that
    amplification.
    """
    tol = _RESIDUAL_TOL
    if beta_crit is not None and geo.beta0 is not None:
        dist = abs(geo.beta0 - beta_crit)
        if dist > 0.0:
            tol += 10.0 * (spec.a + spec.b) * _VERIFY_RTOL / dist
    return tol


def _run_spectrum(args):
    from . import closed, potential
    spec = _surface(args)
    _default(args, "m_max", 5)
    _default(args, "n_max", 5)
    _require_at_least(args, "m_max", 0)
    _require_at_least(args, "n_max", 0)
    p_values = (0, 1) if args.p is None else (int(args.p),)
    result = closed.spectrum(spec, int(args.m_max), int(args.n_max),
                             p_values=p_values)
    if result.status != "ok":
        raise DomainError(f"spectrum unsupported on this family: {result.status}")
    solved = [e for e in result.entries if e.status == "solved"]
    rest = [e for e in result.entries if e.status != "solved"]
    solved.sort(key=lambda e: (e.geodesic.length, str(e.label)))
    rest.sort(key=lambda e: str(e.label))
    beta_crit = potential.critical_angles(spec).beta_crit
    worst, all_ok = 0.0, True
    rows = []
    for e in solved + rest:
        g = e.geodesic
        residual = None
        if g is not None and not args.no_verify:
            residual = closed.verify_closure(spec, g)
            worst = max(worst, residual)
            all_ok = all_ok and residual <= _closure_gate(spec, beta_crit, g)
        beta0 = None if g is None or g.beta0 is None else float(g.beta0)
        rows.append([str(e.label), e.status, beta0,
                     None if beta0 is None else float(np.degrees(beta0)),
                     None if g is None else float(g.length),
                     None if g is None or g.frequency is None else float(g.frequency),
                     residual, e.message])
    meta = {"family": spec.family.value, "solved": len(solved),
            "total": len(result.entries)}
    if not args.no_verify:
        meta["max_residual"] = _g(worst)
        meta["verified"] = all_ok
        if not all_ok:
            meta["_exit"] = _RUNTIME_EXIT
    return ["label", "status", "beta0", "beta0_deg", "length", "frequency",
            "residual", "message"], rows, meta, None


def _bvp_curve(spec, r1, cand, samples=400):
    from . import dynamics
    R1 = spec.R(r1)
    vth = cand.p / R1 ** 2
    arg = max(0.0, 1.0 - (cand.p / R1) ** 2)
    vr = cand.vr_sign * np.sqrt(arg)
    state0 = dynamics.GeodesicState(r=r1, theta=0.0, vr=float(vr), vtheta=float(vth))
    cfg = dynamics.IntegratorConfig(max_lambda=cand.length)
    trace = dynamics.integrate(spec, state0, cfg)
    lams = np.linspace(0.0, cand.length, samples)
    Y = trace.dense(lams)
    return np.column_stack([Y[1], Y[0] / spec.b])


def _run_bvp(args):
    from . import two_point
    spec = _surface(args)
    for need in ("r1", "r2", "dtheta"):
        if getattr(args, need) is None:
            raise UsageError(f"bvp needs --{need}")
    _default(args, "k_max", 2)
    _require_at_least(args, "k_max", 0)
    ks = tuple(range(-int(args.k_max), int(args.k_max) + 1))
    result = two_point.solve_two_point(spec, float(args.r1), float(args.r2),
                                       float(args.dtheta), k_range=ks)
    rows = [[float(c.p), float(c.length), c.shape, c.radial_windings,
             c.azimuthal_windings, float(c.theta_span), c.vr_sign]
            for c in result.candidates]
    meta = {"tie": result.tie, "count": len(result.candidates),
            "minimal_length": _g(result.minimal.length)}
    curves = [_bvp_curve(spec, float(args.r1), c)
              for c in result.candidates[:6]]
    return ["p", "length", "shape", "radial_windings", "azimuthal_windings",
            "theta_span", "vr_sign"], rows, meta, curves


def _run_flat(args):
    from . import flat_torus
    if args.m is not None and args.n is not None:
        segs = flat_torus.flat_segments(int(args.m), int(args.n))
        rows = [[s[0][0], s[0][1], s[1][0], s[1][1]] for s in segs]
        meta = {"m": int(args.m), "n": int(args.n),
                "length": _g(flat_torus.flat_length(int(args.m), int(args.n))),
                "segments": len(segs)}
        box = np.array([[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]], float)
        curves = [box] + [np.array(s, float) for s in segs]
        return ["x0", "y0", "x1", "y1"], rows, meta, curves
    if args.m_max is not None and args.n_max is not None:
        entries = flat_torus.flat_lattice(int(args.m_max), int(args.n_max))
        rows = [[e.m, e.n, float(e.length)] for e in entries]
        return ["m", "n", "length"], rows, {"count": len(entries)}, None
    raise UsageError("flat needs --m/--n or --m-max/--n-max")


def _run_kepler(args):
    from . import central_force as cf
    for need in ("k1", "ell"):
        if getattr(args, need) is None:
            raise UsageError(f"kepler needs --{need}")
    _default(args, "k2", 0.0)
    params = cf.ForceParams(float(args.k1), float(args.k2))
    ell = float(args.ell)
    rows = []
    for orb in cf.circular_radii(params, ell):
        kind = "stable" if orb.stable else "unstable"
        rows.append([f"circular_{kind}_r", float(orb.r)])
        rows.append([f"circular_{kind}_E", float(orb.energy)])
    meta = {"k1": _g(params.k1), "k2": _g(params.k2), "ell": _g(ell)}
    curves = None
    if args.E is not None:
        E = float(args.E)
        classes = cf.classify_orbit(params, ell, E)
        rows.append(["classes", "+".join(c.value for c in classes)])
        bound = any(c is cf.OrbitClass.BOUND for c in classes)
        if bound:
            aps = cf.apsidal_angle(params, ell, E)
            rows.append(["apsidal_angle", float(aps)])
            rows.append(["precession", float(2.0 * (aps - np.pi))])
    if args.t_max is not None:
        if args.r0 is None:
            raise UsageError("orbit integration needs --r0")
        _default(args, "vr0", 0.0)
        orbit = cf.integrate_orbit(params, ell, float(args.r0), float(args.vr0),
                                   float(args.t_max))
        rows.append(["captured", orbit.captured])
        rows.append(["e_drift", float(orbit.e_drift)])
        xy = np.column_stack([orbit.r * np.cos(orbit.theta),
                              orbit.r * np.sin(orbit.theta)])
        curves = [xy]
    return ["quantity", "value"], rows, meta, curves


def _run_expmap(args):
    from . import dynamics
    spec = _surface(args)
    _default(args, "rays", 24)
    _default(args, "samples", 400)
    rays = dynamics.exp_map_rays(spec, n_rays=int(args.rays),
                                 lam_max=args.lambda_max,
                                 samples=int(args.samples))
    rows = []
    for idx, ray in enumerate(rays):
        for l, r, th in zip(ray.lam, ray.r, ray.theta):
            rows.append([idx, float(ray.beta0), float(l), float(r), float(th)])
    curves = [np.column_stack([ray.theta, ray.r / spec.b]) for ray in rays]
    meta = {"rays": len(rays)}
    return ["ray", "beta0", "lam", "r", "theta"], rows, meta, curves


_RUNNERS = {
    "potential": _run_potential,
    "geodesic": _run_geodesic,
    "spectrum": _run_spectrum,
    "bvp": _run_bvp,
    "flat": _run_flat,
    "kepler": _run_kepler,
    "expmap": _run_expmap,
}


def _emit(args, header, rows, meta, curves) -> str:
    fmt = args.format or "csv"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt_cell(v) for v in row])
        return buf.getvalue()
    if fmt == "json":
        doc = {"schema": "revgeo/1", "command": args.command,
               "columns": header,
               "rows": [[_json_cell(v) for v in row] for row in rows],
               "meta": meta}
        return json.dumps(doc, indent=2) + "\n"
    if args.command not in _SVG_COMMANDS or curves is None:
        raise UsageError(f"svg output is not defined for '{args.command}'")
    return svg_document(curves, title=f"revgeo {args.command}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _merge_config(args)
        if (args.format or "csv") == "svg" and args.command not in _SVG_COMMANDS:
            raise UsageError(
                f"svg output is not defined for '{args.command}'")
        header, rows, meta, curves = _RUNNERS[args.command](args)
        exit_hint = int(meta.pop("_exit", 0))
        text = _emit(args, header, rows, meta, curves)
    except UsageError as exc:
        print(f"revgeo: {exc}", file=sys.stderr)
        return _DOMAIN_EXIT
    except _RUNTIME_ERRORS as exc:
        print(f"revgeo: {exc}", file=sys.stderr)
        return _RUNTIME_EXIT
    except _DOMAIN_ERRORS as exc:
        print(f"revgeo: {exc}", file=sys.stderr)
        return _DOMAIN_EXIT
    except OSError as exc:
        print(f"revgeo: {exc}", file=sys.stderr)
        return _IO_EXIT
    except RevgeoError as exc:
        print(f"revgeo: {exc}", file=sys.stderr)
        return _RUNTIME_EXIT
    try:
        if args.out:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except OSError as exc:
        print(f"revgeo: {exc}", file=sys.stderr)
        return _IO_EXIT
    return exit_hint


if __name__ == "__main__":
    sys.exit(main())
