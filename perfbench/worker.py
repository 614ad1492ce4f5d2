"""One workload process: set up, run the timed loop, check, report as JSON.

run.py starts this script as a fresh interpreter, so its set-up time runs
from interpreter start through `import revgeo` and input generation to the
first timed task. Modes:

  probe   set up, report the time set-up finished, exit
  run     set up, run tasks until --seconds have passed, run the tasks of
          the cycle that the loop did not reach, then check every outcome
          against the reference; only the loop is timed
  trace   run the first tasks of the cycle untraced, traced and untraced
          again; report the last two wall times and the counters

The last line of standard output is the JSON report.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import re
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
# tasks in the traced run: the first ones of the cycle, a few seconds' worth
TRACE_TASKS = {"spectrum": 160, "closure": 30, "two-point": 5, "cli": 7}


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def set_up(workload, seed):
    """Import revgeo and build the cycle; returns (tasks, set-up records)."""
    import numpy as np
    import revgeo  # noqa: F401  (set-up time includes the package import)
    import workloads as wl
    rng = np.random.default_rng(seed)
    if workload == "spectrum":
        return wl.spectrum_cycle(rng), []
    if workload == "two-point":
        return wl.two_point_cycle(rng), []
    if workload == "cli":
        import revgeo.cli  # noqa: F401
        return wl.cli_cycle(rng), []
    if workload == "closure":
        surfaces, solves = wl.closure_setup(rng)
        geodesics, records = [], []
        for task in solves:
            outcome = wl.run_task(task)
            verdict = wl.check_task(task, outcome)
            records.append((task, verdict))
            if verdict.ok:
                geodesics.append((task[1], task[2], outcome[3]))
        return wl.closure_cycle(rng, surfaces, geodesics), records
    raise SystemExit(f"unknown workload {workload!r}")


def timed_loop(tasks, seconds, run_one):
    """Tasks back to back, wrapping round, until `seconds` have passed, or
    for one whole cycle if seconds is 0; returns (records, wall). A record
    is (index in the cycle, task, outcome, latency)."""
    records = []
    start = time.perf_counter()
    i = 0
    while True:
        task = tasks[i % len(tasks)]
        t0 = time.perf_counter()
        outcome = run_one(task)
        records.append((i % len(tasks), task, outcome, time.perf_counter() - t0))
        i += 1
        if time.perf_counter() - start >= seconds and (seconds > 0 or i == len(tasks)):
            return records, time.perf_counter() - start


def _verdict_row(kind, verdict):
    return [kind, bool(verdict.ok),
            None if verdict.rel_err is None else float(verdict.rel_err),
            verdict.defect, verdict.reason]


def _fingerprint(outcome):
    """Bytes that are equal for equal outcomes, or None if there are none."""
    try:
        return pickle.dumps(outcome, protocol=4)
    except Exception:
        return None


def check_records(records):
    """Judge (index, task, outcome, latency) records against the reference.

    Each task of the cycle is judged as a whole: a repeat whose outcome is
    identical to the first attempt's shares its verdict, any other attempt
    is checked on its own, and the task fails if any attempt failed.
    Returns (one verdict row per task, in cycle order; ok per record).
    """
    import reference as ref
    import workloads as wl
    rows, first, attempt_ok = {}, {}, []
    in_process = {}
    for index, task, outcome, _latency in records:
        key = _fingerprint(outcome)
        if key is not None and index in first and first[index][0] == key:
            verdict = first[index][1]
        else:
            try:
                if task[0] == "cli":
                    argv = tuple(task[1])
                    if argv not in in_process:
                        in_process[argv] = wl.in_process_cli(task[1])
                    verdict = wl.check_cli(task, outcome, in_process[argv])
                else:
                    verdict = wl.check_task(task, outcome)
            except ref.ReferenceFailed as exc:
                verdict = ref.Verdict(False, reason=f"reference failed: {exc}",
                                      defect="reference")
            first.setdefault(index, (key, verdict))
        attempt_ok.append(bool(verdict.ok))
        if index not in rows or (rows[index][1] and not verdict.ok):
            rows[index] = _verdict_row(task[0], verdict)
    return [rows[i] for i in sorted(rows)], attempt_ok


def run_mode(args, tasks, setup_records, ready):
    import workloads as wl
    if args.workload == "cli":
        env, cmd = _env(), wl.cli_command()
        run_one = lambda task: wl.run_task(task, env=env, cli_command=cmd)  # noqa: E731
    else:
        run_one = wl.run_task
    records, wall = timed_loop(tasks, args.seconds, run_one)
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    rss_kb = resource.getrusage(who).ru_maxrss
    # tasks of the cycle that the loop did not reach run now, outside the
    # timing, so every task is judged and the failures depend only on the seed
    seen = {index for index, *_ in records}
    untimed = [(i, task, run_one(task), None) for i, task in enumerate(tasks)
               if i not in seen]

    rows, attempt_ok = check_records(records + untimed)
    return {"ready": ready, "wall": wall, "rss_kb": rss_kb, "tasks": rows,
            "untimed": len(untimed),
            "timed": [[r[3], ok] for r, ok in zip(records, attempt_ok)],
            "setup_tasks": [_verdict_row(t[0], v) for t, v in setup_records]}


def _import_times():
    """Cumulative import times from `python -X importtime -c 'import revgeo.cli'`."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import revgeo.cli"],
                          env=_env(), capture_output=True, text=True, timeout=120)
    want = {"revgeo": "import.revgeo_s", "scipy.integrate": "import.scipy.integrate_s",
            "scipy.optimize": "import.scipy.optimize_s", "numpy": "import.numpy_s"}
    # a module that `import revgeo.cli` no longer pulls in costs 0 s there
    out = dict.fromkeys(want.values(), 0.0)
    for line in proc.stderr.splitlines():
        m = re.match(r"import time:\s*(\d+)\s*\|\s*(\d+)\s*\|\s*(\S+)\s*$", line)
        if m and m.group(3) in want:
            out[want[m.group(3)]] = int(m.group(2)) * 1e-6
    return out


def trace_mode(args, tasks):
    import tracer
    import workloads as wl
    chosen = tasks[:TRACE_TASKS[args.workload]]
    if args.workload == "cli":
        env = _env()
        traced_cmd = [sys.executable, str(HERE / "trace_cli.py")]
        snaps = []

        def plain(task):
            return wl.run_task(task, env=env, cli_command=wl.cli_command())

        def traced(task):
            outcome = wl.run_task(task, env=env, cli_command=traced_cmd)
            # trace_cli.py ends its standard error with the counters
            snaps.append(json.loads(outcome[3].rsplit(tracer.MARK, 1)[1]))
            return outcome

        def install():
            return lambda: None

        def snapshot():
            return tracer.merge(snaps)
    else:
        tr = tracer.Tracer()
        plain = traced = wl.run_task
        install, snapshot = tr.install, tr.snapshot
    # untraced, traced, untraced: the overhead compares the last two, both
    # after the first round has warmed caches and lazy imports
    timed_loop(chosen, 0.0, plain)
    undo = install()
    try:
        records, traced_wall = timed_loop(chosen, 0.0, traced)
    finally:
        undo()
    _, plain_wall = timed_loop(chosen, 0.0, plain)
    return {"untraced_s": plain_wall, "traced_s": traced_wall, "snapshot": snapshot(),
            "import": _import_times(), "tasks": check_records(records)[0]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--mode", choices=("probe", "run", "trace"), required=True)
    args = ap.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    tasks, setup_records = set_up(args.workload, args.seed)
    ready = time.perf_counter()
    if args.mode == "probe":
        report = {"ready": ready}
    elif args.mode == "run":
        report = run_mode(args, tasks, setup_records, ready)
    else:
        report = trace_mode(args, tasks)
    sys.stdout.write(json.dumps(report) + "\n")


if __name__ == "__main__":
    main()
