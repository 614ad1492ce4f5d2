"""Per-layer spans for the traced run, recorded from outside the package.

install() rebinds, inside every revgeo module, each function that module
imports from another revgeo module (closed.integrate, two_point._bound_tail,
...), each public function in its own module, and scipy's quad, solve_ivp
and brentq where a revgeo module binds them. Every rebound name records a
span: calls and self time (duration minus the spans it caused) per layer
and per function, aggregated in memory. scipy spans also record the work
scipy reports: integrand evaluations, right-hand-side calls and steps, and
root-finder function calls.
"""

from __future__ import annotations

import importlib
import inspect
import time
from collections import Counter, defaultdict

# marks the counters that trace_cli.py appends to its standard error
MARK = "\nperfbench-trace "

MODULES = ("surface", "potential", "dynamics", "integrals", "closed",
           "two_point", "flat_torus", "central_force", "svg", "cli")


class Tracer:
    def __init__(self):
        self.calls = Counter()              # by layer and by layer.function
        self.self_s = defaultdict(float)
        self.work = Counter()               # scipy-reported counts
        self._stack = []                    # child time of each open span
        self._in_two_point_solve = 0

    def _timed(self, keys, fn, *args, **kwargs):
        start = time.perf_counter()
        self._stack.append(0.0)
        try:
            return fn(*args, **kwargs)
        finally:
            took = time.perf_counter() - start
            own = took - self._stack.pop()
            if self._stack:
                self._stack[-1] += took
            for key in keys:
                self.calls[key] += 1
                self.self_s[key] += own

    def wrap(self, layer, name, fn):
        keys = (layer, f"{layer}.{name}")
        solve_two_point = (layer, name) == ("two_point", "solve_two_point")

        def span(*args, **kwargs):
            if not solve_two_point:
                return self._timed(keys, fn, *args, **kwargs)
            self._in_two_point_solve += 1
            try:
                return self._timed(keys, fn, *args, **kwargs)
            finally:
                self._in_two_point_solve -= 1

        span.__wrapped__ = fn
        return span

    def wrap_quad(self, quad):
        def traced_quad(f, a, b, *args, **kwargs):
            if kwargs.get("full_output"):
                return self._timed(("scipy.quad",), quad, f, a, b, *args, **kwargs)
            kwargs["full_output"] = 1
            out = self._timed(("scipy.quad",), quad, f, a, b, *args, **kwargs)
            self.work["scipy.quad.evals"] += out[2]["neval"]
            if self._in_two_point_solve:
                self.work["two_point.quad_calls"] += 1
            return out[0], out[1]
        return traced_quad

    def wrap_brentq(self, brentq):
        def traced_brentq(f, a, b, *args, **kwargs):
            if kwargs.get("full_output"):
                return self._timed(("scipy.brentq",), brentq, f, a, b, *args, **kwargs)
            kwargs["full_output"] = True
            root, info = self._timed(("scipy.brentq",), brentq, f, a, b, *args, **kwargs)
            self.work["scipy.brentq.evals"] += info.function_calls
            return root
        return traced_brentq

    def wrap_solve_ivp(self, solve_ivp, site):
        def traced_solve_ivp(fun, t_span, y0, *args, **kwargs):
            sol = self._timed(("scipy.solve_ivp",), solve_ivp, fun, t_span, y0,
                              *args, **kwargs)
            steps = len(sol.t) - 1
            self.work["scipy.solve_ivp.nfev"] += sol.nfev
            self.work["scipy.solve_ivp.steps"] += steps
            if site == "dynamics":
                self.work["dynamics.nfev"] += sol.nfev
                self.work["dynamics.steps"] += steps
                self.work["dynamics.lambda"] += abs(t_span[1] - t_span[0])
            return sol
        return traced_solve_ivp

    def install(self):
        """Rebind the names in every revgeo module; returns an undo function."""
        saved = []
        for short in MODULES:
            mod = importlib.import_module(f"revgeo.{short}")
            for name, obj in list(vars(mod).items()):
                new = None
                if inspect.isfunction(obj) and obj.__module__.startswith("revgeo."):
                    owner = obj.__module__.split(".", 1)[1]
                    if owner != short or not name.startswith("_"):
                        new = self.wrap(owner, name, obj)
                elif getattr(obj, "__module__", "").startswith("scipy.") and callable(obj):
                    if name == "quad":
                        new = self.wrap_quad(obj)
                    elif name == "brentq":
                        new = self.wrap_brentq(obj)
                    elif name == "solve_ivp":
                        new = self.wrap_solve_ivp(obj, short)
                if new is not None:
                    saved.append((mod, name, obj))
                    setattr(mod, name, new)

        def undo():
            for mod, name, obj in saved:
                setattr(mod, name, obj)
        return undo

    def snapshot(self) -> dict:
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "work": dict(self.work)}


def merge(snapshots) -> dict:
    """Sum several snapshot() dictionaries, e.g. one per CLI process."""
    out = {"calls": Counter(), "self_s": defaultdict(float), "work": Counter()}
    for snap in snapshots:
        for part in out:
            for key, value in snap[part].items():
                out[part][key] += value
    return {part: dict(values) for part, values in out.items()}
