"""Tests of the benchmark's checker and of its traced run.

    PYTHONPATH=src python -m pytest perfbench/test_reference.py -q

The checker must accept correct revgeo results and reject the known
defects (a)-(c), which revgeo still has; those tests call revgeo and
assert on the checker's verdict, so they keep passing once a defect is
fixed only if the checker then accepts the fixed result.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import reference as ref  # noqa: E402
import workloads as wl  # noqa: E402
from revgeo import SurfaceSpec  # noqa: E402
from revgeo.closed import find_closed  # noqa: E402
from revgeo.two_point import solve_two_point  # noqa: E402


def _closed(a, b, label):
    return wl.run_task(("find_closed", (a, b), label))


def test_accepts_ring_1_1_0():
    outcome = _closed(2.0, 1.0, (1, 1, 0))
    assert outcome[1] == pytest.approx(0.40970394, abs=1e-8)
    assert outcome[2] == pytest.approx(15.26224617, abs=1e-8)
    verdict = ref.check_closed(2.0, 1.0, (1, 1, 0), outcome)
    assert verdict.ok and verdict.rel_err < 1e-12


@pytest.mark.parametrize("field, factor", [(1, 1.0 + 1e-6), (2, 1.0 + 1e-7)])
def test_rejects_perturbed_root_or_length(field, factor):
    outcome = list(_closed(2.0, 1.0, (1, 1, 0)))
    outcome[field] *= factor
    assert not ref.check_closed(2.0, 1.0, (1, 1, 0), tuple(outcome)).ok


def test_accepts_antipodal_bvp():
    res = solve_two_point(SurfaceSpec(2.0, 1.0), 0.0, 0.0, np.pi)
    assert abs(res.minimal.length - 7.63) <= 0.02
    outcome = wl.run_task(("solve_two_point", (2.0, 1.0), 0.0, 0.0, np.pi))
    assert ref.check_two_point(2.0, 1.0, 0.0, 0.0, np.pi, outcome[1]).ok


def test_rejects_perturbed_bvp_candidate():
    cands = wl.run_task(("solve_two_point", (2.0, 1.0), 0.0, 0.0, np.pi))[1]
    p, *rest = cands[0]
    bad = [(p * (1.0 + 1e-6), *rest)] + cands[1:]
    assert not ref.check_two_point(2.0, 1.0, 0.0, 0.0, np.pi, bad).ok


@pytest.mark.parametrize("label", [(1, 2, 0), (4, 5, 0)])
def test_rejects_defect_a_spurious_spindle_roots(label):
    # N >= sqrt(3)/2 > m/n on the c = -0.5 spindle, so no such geodesic exists
    assert not ref.closed_exists(-0.5, *label)
    verdict = ref.check_closed(0.5, 1.0, label, _closed(0.5, 1.0, label))
    assert not verdict.ok and verdict.defect == "a"


def test_rejects_defect_b_false_lemon_verdict():
    # N runs over (sqrt(0.5), sqrt(0.75)) on the c = -1.5 lemon, and 4/5 is inside
    assert ref.closed_exists(-1.5, 4, 5, 0)
    verdict = ref.check_closed(-0.5, 1.0, (4, 5, 0), _closed(-0.5, 1.0, (4, 5, 0)))
    assert not verdict.ok and verdict.defect == "b"


@pytest.mark.parametrize("a, label", [(2.0, (1, 6, 1)), (2.0, (1, 7, 1)),
                                      (3.0, (1, 5, 1))])
def test_rejects_defect_c_ring_unbound_nonconvergence(a, label):
    verdict = ref.check_closed(a, 1.0, label, _closed(a, 1.0, label))
    assert not verdict.ok and verdict.defect == "c"


def test_existence_limits_match_the_frequency_ends():
    # apex limit sqrt(-c(c+2)) and supremum sqrt(c+2) from the reference N
    for c in (-0.279, -0.5, -0.72, -1.5):
        near_apex = ref.frequency(c, 1e-7, unbound=False)
        assert near_apex == pytest.approx(np.sqrt(-c * (c + 2.0)), rel=1e-5)
        near_top = ref.frequency(c, np.pi / 2 - 1e-7, unbound=False)
        assert near_top == pytest.approx(np.sqrt(c + 2.0), rel=1e-6)
    assert ref.frequency(0.0, 1e-9, unbound=False) < 1e-3


def test_crossing_rule_on_a_real_geodesic():
    spec = SurfaceSpec(2.0, 1.0)
    geo = find_closed(spec, (1, 2, 0))
    outcome = wl.run_task(("self_intersections", (2.0, 1.0), (1, 2, 0), geo))
    assert ref.crossing_rule(1, 2, 0, outcome[1]) == ""
    chi, count, thetas, signs = outcome[1][0]
    assert ref.crossing_rule(1, 2, 0, [(chi, count + 1, thetas, signs)]) != ""


def test_each_task_is_judged_once():
    import worker
    task = ("find_closed", (2.0, 1.0), (1, 1, 0))
    good = _closed(2.0, 1.0, (1, 1, 0))
    bad = (good[0], good[1] * (1.0 + 1e-6)) + good[2:]
    rows, attempt_ok = worker.check_records([(0, task, good, 0.1), (0, task, good, 0.1)])
    assert len(rows) == 1 and rows[0][1] and attempt_ok == [True, True]
    # a repeat that differs is checked on its own, and fails the whole task
    rows, attempt_ok = worker.check_records([(0, task, good, 0.1), (0, task, bad, 0.1)])
    assert len(rows) == 1 and not rows[0][1] and attempt_ok == [True, False]


def _trace_counts(seed):
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), "--workload",
                           "spectrum", "--seed", str(seed), "--mode", "trace"],
                          capture_output=True, text=True, check=True, timeout=170)
    snap = json.loads(proc.stdout.strip().splitlines()[-1])["snapshot"]
    return snap["calls"], snap["work"]


def test_traced_counters_repeat_exactly():
    assert _trace_counts(3) == _trace_counts(3)
