"""The four workloads: seeded inputs, the timed call into revgeo, the check.

Each workload turns a seed into one cycle: a list of tasks, grouped by
what drives their cost (surface family, surface, label frequency, command)
and then put in bit-reversed order, so that every prefix of the cycle is
an even sample of the whole list. A run visits the cycle, wrapping round,
until its time is up; whatever the seed and wherever it stops, it has seen
about the same mix of cheap and expensive tasks. The cycles are sized
so that a run covers each at least once. A task is a tuple whose
first item names what it runs. run_task() makes the timed call and returns
a plain outcome; check_task() compares that outcome with the independent
reference and returns a reference.Verdict.

Surface parameters are drawn by systematic sampling: k values per family,
one in each of k equal strata of the family's c range, all at the same
seeded offset inside their stratum. A family's cost depends strongly on
c (spindle bracket marches take 0.2-0.7 s per label), and systematic
sampling keeps the sum over a family nearly the same from seed to seed.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import numpy as np

# surfaces that every seed includes: ring, horn, apple spindle, lemon
FIXED = {"ring": (2.0, 1.0), "horn": (1.0, 1.0), "apple": (0.5, 1.0),
         "lemon": (-0.5, 1.0)}
C_RANGE = {"ring": (0.0, 3.0), "apple": (-1.0, 0.0), "lemon": (-2.0, -1.0)}


def bit_reversed(tasks):
    """tasks reordered so that every prefix samples the list evenly."""
    bits = max(1, (len(tasks) - 1).bit_length())
    order = (int(f"{k:0{bits}b}"[::-1], 2) for k in range(1 << bits))
    return [tasks[i] for i in order if i < len(tasks)]


def _systematic(rng, family, k):
    """k surfaces (a, b) of one family, one per stratum of its c range."""
    lo, hi = C_RANGE[family]
    u = rng.uniform(0.02, 0.98)
    out = []
    for i in range(k):
        c = lo + (i + u) * (hi - lo) / k
        b = float(rng.uniform(0.5, 2.0))
        out.append(((c + 1.0) * b, b))
    return out


def _horn(rng):
    s = float(rng.uniform(0.5, 2.0))
    return (s, s)


def primitive_labels(m_max, n_max):
    """Every primitive [m, n; p] with m <= m_max, n <= n_max, p in {0, 1}."""
    pairs = [(0, 1), (1, 0)] + [(m, n) for m in range(1, m_max + 1)
                                for n in range(1, n_max + 1) if math.gcd(m, n) == 1]
    return [(m, n, p) for m, n in pairs for p in (0, 1)]


def _by_frequency(labels):
    """Labels ordered by p, then m/n."""
    return sorted(labels, key=lambda l: (l[2], Fraction(l[0], l[1]) if l[1] else math.inf,
                                         l[0]))


# ------------------------------------------------------------------ spectrum


def spectrum_cycle(rng):
    """find_closed on every primitive label with m, n <= 7.

    Each label runs on all five rings, so that ring quadrature solves are
    the majority and set the median; on the horns, apples and lemons each
    label runs on one surface of the family, in turn along the frequency
    order, so every surface sees the whole frequency range.
    """
    families = [[FIXED["ring"]] + _systematic(rng, "ring", 4),
                [FIXED["horn"], _horn(rng)],
                [FIXED["apple"]] + _systematic(rng, "apple", 5),
                [FIXED["lemon"]] + _systematic(rng, "lemon", 5)]
    labels = _by_frequency(primitive_labels(7, 7))
    grouped = [[] for _ in families]
    for i, label in enumerate(labels):
        for f, surfaces in enumerate(families):
            chosen = surfaces if f == 0 else [surfaces[i % len(surfaces)]]
            grouped[f].extend(("find_closed", surf, label) for surf in chosen)
    return bit_reversed([t for group in grouped for t in group])


# ------------------------------------------------------------------ closure


def closure_setup(rng):
    """Surfaces, and every label with m, n <= 3 that exists on them.

    Returns (surfaces, set-up solves); the solves are find_closed calls
    that run in set-up, not in the timed loop.
    """
    from reference import closed_exists
    surfaces = [FIXED["ring"], _systematic(rng, "ring", 1)[0], FIXED["horn"],
                _horn(rng), FIXED["apple"], _systematic(rng, "apple", 1)[0]]
    solves = []
    for a, b in surfaces:
        c = (a - b) / b
        for label in primitive_labels(3, 3):
            if label[0] >= 1 and label[1] >= 1 and closed_exists(c, *label):
                solves.append(("find_closed", (a, b), label))
    return surfaces, solves


def closure_cycle(rng, surfaces, geodesics):
    """ODE consumers of the closed geodesics that set-up solved.

    geodesics: list of ((a, b), label, ClosedGeodesic). Every geodesic is
    verified and self-intersected, every third one refined; every surface
    gets one fan of 24 rays, and every other surface one ray integrated to
    lambda = 500, the long rays' launch angles spread systematically over
    (0.05, 1.5). With one long ray per two fans, a run holds fewer than
    ten long rays however fast the machine is, so the tail rank stays
    among the fans instead of jumping between the two classes.
    """
    u = rng.uniform(0.0, 1.0)
    long = surfaces[int(2 * u)::2]
    grouped = [[("verify_closure",) + g for g in geodesics],
               [("self_intersections",) + g for g in geodesics],
               [("refine_via_ode",) + g for g in geodesics[int(3 * u)::3]],
               [("exp_map_rays", surf) for surf in surfaces],
               [("integrate", surf, 0.05 + (i + u) * 1.45 / len(long))
                for i, surf in enumerate(long)]]
    return bit_reversed([t for group in grouped for t in group])


# ------------------------------------------------------------------ two-point

TWO_POINT_RINGS = 4


def _chi_sup(a, b):
    c = (a - b) / b
    return math.pi if c > 0 else math.acos(-(c + 1.0))


def two_point_cycle(rng):
    """solve_two_point with default windings on ring, horn and apple-spindle
    point pairs: one horn and four apple pairs for every ring pair, so the
    cheapest class, the apples, holds both the median and the tail rank.

    End points lie within 0.8 of the chart's radial half-width, and the
    azimuth gap is in (0.2, 3.0). A solve's cost grows with the larger
    |chi| of its pair (a ring solve takes 2 s far from the inner equator
    and up to 9 s near it; apple solves slow down near the apex), and a
    cycle holds only 24 solves. So that larger |chi| is drawn
    systematically: the k-th of the n pairs of a family in the cycle takes
    it in the k-th stratum of bit_reversed(range(n)), at a seeded offset u
    inside it, so every prefix of the cycle spans the range evenly. The
    other end point, its side and dtheta are drawn freely.
    """
    rings = [FIXED["ring"]] + _systematic(rng, "ring", TWO_POINT_RINGS - 1)
    others = []
    for j in range(TWO_POINT_RINGS):
        others += [FIXED["horn"] if j % 2 == 0 else _horn(rng), FIXED["apple"]]
        others += _systematic(rng, "apple", 3)
    others.sort(key=lambda s: (s[0] - s[1]) / s[1])            # horns, then apples
    u = rng.uniform(0.0, 1.0)
    cycle = bit_reversed(rings + others)
    size = Counter(np.sign(a - b) for a, b in cycle)            # pairs per family
    strata = {fam: iter(bit_reversed(range(n))) for fam, n in size.items()}
    tasks = []
    for a, b in cycle:
        fam = np.sign(a - b)
        far = 0.8 * _chi_sup(a, b) * b * (next(strata[fam]) + u) / size[fam]
        near = float(rng.uniform(-far, far))
        r1, r2 = (far, near) if rng.uniform() < 0.5 else (near, -far)
        tasks.append(("solve_two_point", (a, b), r1, r2, float(rng.uniform(0.2, 3.0))))
    return tasks


# ------------------------------------------------------------------ cli

CLI_ROUNDS = 3


def _g(x):
    return f"{x:.6g}"


def cli_cycle(rng):
    """The cheap README commands, each a fresh `python -m revgeo.cli` process."""
    rounds = []
    for _ in range(CLI_ROUNDS):
        (a, b), = _systematic(rng, "ring", 1)
        k2 = float(rng.uniform(1e-5, 1e-3))
        ell = float(rng.uniform(0.8, 1.2))
        # a bound energy between the stable circular orbit and zero
        r_s = (ell ** 2 + math.sqrt(ell ** 4 - 12.0 * k2)) / 2.0
        U_s = ell ** 2 / (2 * r_s ** 2) - 1.0 / r_s - k2 / r_s ** 3
        E = U_s * float(rng.uniform(0.2, 0.8))
        surf = ["--a", _g(a), "--b", _g(b)]
        rounds.append([
            ("cli", ["flat", "--m-max", str(int(rng.integers(3, 12))),
                     "--n-max", str(int(rng.integers(3, 12)))]),
            ("cli", ["kepler", "--k1", "1", "--k2", _g(k2), "--ell", _g(ell),
                     "--E", _g(E)]),
            ("cli", ["geodesic"] + surf + ["--beta0", _g(rng.uniform(0.1, 1.5)),
                                          "--lambda-max", "30", "--samples", "200"]),
            ("cli", ["potential"] + surf + ["--ell", _g(rng.uniform(0.5, 2.5)),
                                           "--format", "json"]),
            ("cli", ["potential"] + surf + ["--ell", _g(rng.uniform(0.5, 2.5)),
                                           "--format", "svg"]),
            ("cli", ["spectrum"] + surf + ["--m-max", "3", "--n-max", "3",
                                          "--no-verify"]),
            ("cli", ["expmap"] + surf + ["--rays", "6", "--lambda-max", "12",
                                        "--samples", "60", "--format", "svg"]),
        ])
    # rounds run in turn, so every command recurs at the same spacing
    return [task for rnd in rounds for task in rnd]


# ------------------------------------------------------------------ running


def spec(surf):
    from revgeo import SurfaceSpec
    return SurfaceSpec(*surf)


def run_task(task, env=None, cli_command=None):
    """The timed call. Returns a plain outcome that check_task() can judge.

    Library calls go through the module attribute at call time, so the
    traced run sees them. A revgeo error is an outcome, not a crash.
    """
    from revgeo import closed, dynamics, two_point
    kind = task[0]
    try:
        if kind == "find_closed":
            geo = closed.find_closed(spec(task[1]), task[2])
            return ("ok", geo.beta0, geo.length, geo)
        if kind == "verify_closure":
            _, surf, _label, geo = task
            return ("ok", closed.verify_closure(spec(surf), geo))
        if kind == "self_intersections":
            _, surf, _label, geo = task
            radii = closed.self_intersections(spec(surf), geo)
            return ("ok", [(r.chi, r.count, list(r.theta_offsets),
                            [float(np.sign(pt.chi)) for pt in sorted(
                                r.points, key=lambda pt: pt.theta)])
                           for r in radii])
        if kind == "refine_via_ode":
            _, surf, label, geo = task
            res = closed.refine_via_ode(spec(surf), label, geo.beta0)
            return ("ok", res.beta0, res.theta_mismatch)
        if kind == "exp_map_rays":
            rays = two_point.exp_map_rays(spec(task[1]), n_rays=24)
            return ("ok", [(ray.beta0, ray.lam, ray.r, ray.theta) for ray in rays])
        if kind == "integrate":
            _, surf, beta0 = task
            s = spec(surf)
            cfg = dynamics.IntegratorConfig(rel_tol=1e-12, abs_tol=1e-13,
                                            max_lambda=500.0, method="DOP853")
            trace = dynamics.integrate(s, dynamics.initial_state_from_angle(s, beta0), cfg)
            return ("ok", trace.states)
        if kind == "solve_two_point":
            _, surf, r1, r2, dtheta = task
            res = two_point.solve_two_point(spec(surf), r1, r2, dtheta)
            return ("ok", [(c.p, c.length, c.radial_windings, c.azimuthal_windings,
                            c.theta_span, c.vr_sign) for c in res.candidates])
        if kind == "cli":
            proc = subprocess.run(cli_command + task[1], env=env, capture_output=True,
                                  text=True, timeout=120)
            return ("ok", proc.returncode, proc.stdout, proc.stderr)
    except Exception as exc:            # a failed task, judged by check_task
        return ("error", type(exc).__name__)
    raise ValueError(f"unknown task kind {kind!r}")


# ------------------------------------------------------------------ checking


def check_task(task, outcome):
    import reference as ref
    kind = task[0]
    if kind == "find_closed":
        (a, b), label = task[1], task[2]
        return ref.check_closed(a, b, label, outcome)
    if outcome[0] == "error":
        if kind == "refine_via_ode" and outcome[1] == "DomainError":
            # the secant's first probe moves beta0 by 1e-7 beta0 and can land
            # across beta_crit when the root lies that close to it
            (a, b), geo = task[1], task[3]
            bc = ref.beta_crit((a - b) / b)
            if bc is not None and abs(geo.beta0 - bc) < 1e-6 * bc:
                return ref.Verdict(False, reason="secant stepped past beta_crit",
                                   defect="d")
        return ref.Verdict(False, reason=f"unexpected {outcome[1]}")
    if kind == "verify_closure":
        (a, b), _label, geo = task[1:]
        residual = outcome[1]
        gate = ref.closure_gate(a, b, geo.beta0)
        ok = math.isfinite(residual) and residual <= gate
        return ref.Verdict(ok, residual / (2.0 * math.pi * (a + b)),
                           "" if ok else f"closure residual {residual:.3g} > gate {gate:.3g}")
    if kind == "self_intersections":
        m, n, p = task[2]
        fault = ref.crossing_rule(m, n, p, outcome[1])
        return ref.Verdict(not fault, None, fault)
    if kind == "refine_via_ode":
        (a, b), (m, n, p) = task[1], task[2]
        # the azimuth mismatch may stay large where the defect function is
        # steep near beta_crit; the refined angle itself is what is checked
        beta, mismatch = outcome[1], outcome[2]
        if not math.isfinite(mismatch):
            return ref.Verdict(False, reason=f"theta mismatch {mismatch!r}")
        return ref.check_root((a - b) / b, b, m, n, p, beta)
    if kind == "exp_map_rays":
        return _check_fan(task[1], outcome[1])
    if kind == "integrate":
        return _check_drift(task[1], task[2], outcome[1])
    if kind == "solve_two_point":
        (a, b), r1, r2, dtheta = task[1:]
        return ref.check_two_point(a, b, r1, r2, dtheta, outcome[1])
    raise ValueError(f"unknown task kind {kind!r}")


def _check_fan(surf, rays):
    """Every ray of the fan re-shot by the reference at its own samples."""
    import reference as ref
    a, b = surf
    if len(rays) != 24:
        return ref.Verdict(False, reason=f"{len(rays)} rays, want 24")
    betas = np.linspace(0.0, 0.5 * np.pi, 24)
    worst = 0.0
    # rays share their sample fractions lam/span; shoot them in one batch
    spans = [ray[1][-1] for ray in rays]
    states = np.array([ref.launch_state(a, b, 0.0, (a + b) * math.sin(beta), 1.0)
                       for beta in betas]).T
    fracs = rays[0][1] / rays[0][1][-1]
    ys = ref.shoot(a, b, states, spans, samples=fracs)
    for i, (beta0, lam, r, theta) in enumerate(rays):
        if abs(beta0 - betas[i]) > 1e-15 or len(lam) != len(fracs):
            return ref.Verdict(False, reason=f"ray {i} launch or sampling differs")
        worst = max(worst, float(np.max(np.abs(r - ys[0, i]))),
                    float(np.max(np.abs(theta - ys[1, i]))))
    scale = 2.0 * np.pi * (a + b)
    if worst > 1e-7 * scale:
        return ref.Verdict(False, worst / scale, f"rays deviate by {worst:.3g}")
    return ref.Verdict(True, worst / scale)


def _check_drift(surf, beta0, states):
    """Energy, angular momentum and Clairaut drift over lambda = 500 (criterion 7)."""
    import reference as ref
    a, b = surf
    r, vr, vth = states[0], states[2], states[3]
    R = a + b * np.cos(r / b)
    E = 0.5 * (vr ** 2 + (R * vth) ** 2)
    ell = R * R * vth
    clair = ell / np.sqrt(2.0 * E)
    drift = max(float(np.max(np.abs(E - 0.5))),
                float(np.max(np.abs(ell - ell[0]))),
                float(np.max(np.abs(clair - (a + b) * math.sin(beta0)))))
    ok = drift < ref.DRIFT_TOL
    return ref.Verdict(ok, drift, "" if ok else f"conservation drift {drift:.3g}")


def check_cli(task, outcome, in_process):
    """Subprocess output against the same call made in-process, plus the
    numbers each command prints against their independent reference."""
    import reference as ref
    if outcome[0] == "error":
        return ref.Verdict(False, reason=f"process failed: {outcome[1]}")
    _, code, text = outcome[:3]
    want_code, want_text = in_process
    if code != want_code or text != want_text:
        return ref.Verdict(False, reason=f"output differs from the in-process call "
                                         f"(exit {code} vs {want_code})")
    if code != 0:
        return ref.Verdict(False, reason=f"exit code {code}")
    argv = task[1]
    opts = dict(zip(argv[1::2], argv[2::2]))
    cmd = argv[0]
    if opts.get("--format") == "svg":
        ok = text.startswith("<svg") or text.startswith("<?xml")
        return ref.Verdict(ok, None, "" if ok else "not an svg document")
    if cmd == "flat":
        rows = list(csv.reader(io.StringIO(text)))[1:]
        err = max(abs(float(L) - math.hypot(int(m), int(n))) / math.hypot(int(m), int(n))
                  for m, n, L in rows)
        return _numeric(err, 1e-11, "flat lengths")
    if cmd == "kepler":
        rows = dict(list(csv.reader(io.StringIO(text)))[1:])
        k2, ell = float(opts["--k2"]), float(opts["--ell"])
        disc = math.sqrt(ell ** 4 - 12.0 * k2)
        err = max(abs(float(rows["circular_stable_r"]) - (ell ** 2 + disc) / 2.0)
                  / ((ell ** 2 + disc) / 2.0),
                  abs(float(rows["circular_unstable_r"]) - (ell ** 2 - disc) / 2.0)
                  / ((ell ** 2 - disc) / 2.0))
        if "apsidal_angle" not in rows:
            return ref.Verdict(False, reason="no apsidal angle for a bound energy")
        return _numeric(err, 1e-10, "circular radii")
    if cmd == "geodesic":
        rows = list(csv.DictReader(io.StringIO(text)))
        err = max(abs(float(row["E"]) - 0.5) / 0.5 for row in rows)
        return _numeric(err, 1e-7, "energy along the geodesic")
    if cmd == "potential":
        doc = json.loads(text)
        a, b, ell = float(opts["--a"]), float(opts["--b"]), float(opts["--ell"])
        err = max(abs(U - ell ** 2 / (2.0 * (a + b * math.cos(chi)) ** 2))
                  / (ell ** 2 / (2.0 * (a + b * math.cos(chi)) ** 2))
                  for chi, U in doc["rows"])
        return _numeric(err, 1e-9, "potential values")
    if cmd == "spectrum":
        # printed launch angles carry 12 digits, too few to re-check near-
        # critical roots; the numbers are already compared with the
        # in-process call, so only each existence verdict is checked here
        a, b = float(opts["--a"]), float(opts["--b"])
        for row in csv.DictReader(io.StringIO(text)):
            label = tuple(int(x) for x in row["label"].strip("[]").replace(";", ",").split(","))
            if row["status"] == "solved":
                ok = ref.closed_exists((a - b) / b, *label)
                v = ref.Verdict(ok, None, "" if ok else f"{row['label']} solved")
            else:
                # a spectrum entry with status "error" caught a ConvergenceError
                # or DomainError; on a ring only the first is expected
                name = ("NonexistentGeodesicError" if row["status"] == "nonexistent"
                        else "ConvergenceError")
                v = ref.check_closed(a, b, label, ("error", name))
            if not v.ok:
                return v
        return ref.Verdict(True)
    return ref.Verdict(False, reason=f"no check for {cmd}")


def _numeric(err, tol, what):
    import reference as ref
    ok = err <= tol
    return ref.Verdict(ok, err, "" if ok else f"{what} off by {err:.3g}")


def in_process_cli(argv):
    """The same CLI call made in this process: (exit code, stdout text)."""
    from revgeo import cli
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, buf.getvalue()


def cli_command():
    return [sys.executable, "-m", "revgeo.cli"]
