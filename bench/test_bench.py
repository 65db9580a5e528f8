"""Tests of the benchmark itself; none runs a workload.

    python3 -m pytest bench -q
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

import oracle
import run
from spans import PER_LAYER, Tracer, layer_metrics, self_times
from speed import REFERENCE_PROBE_S, ReferenceClock, setup_reference_seconds
from workloads import (MISMATCH, WORKLOADS, Command, check_hilbert, check_plane,
                       check_pn, check_reference)

BENCH = Path(__file__).resolve().parent


# -- oracle against values known by hand from the paper ----------------------

@pytest.mark.parametrize("d, l, value", [
    (4, 5, 13),      # Luroth quartics: one below the ambient 14
    (4, 4, 14),      # l <= 4: every quartic
    (3, 4, 9),
    (6, 5, 27),      # l = 5 away from d = 4: every sextic
    (5, 6, 17),      # d = l - 1: 2l line parameters + l - 1 multipliers
    (6, 7, 20),
    (6, 6, 24),      # C(8,2) - C(6,2) + 11
    (2, 4, None),    # d < l - 1: empty
])
def test_plane_dimension(d, l, value):
    assert oracle.plane_dimension(d, l) == value


def test_pn_bound():
    assert oracle.pn_bound(3, 3, 4) == 19               # ambient C(6,3) - 1
    assert oracle.pn_bound(3, 4, 6) == 35 - 20 + 18 - 1
    # for n = 2 the incidence branch is the plane closed form when l >= 6
    assert all(oracle.pn_bound(2, d, l) == oracle.plane_dimension(d, l)
               for l in range(6, 10) for d in range(l - 1, 14))


def test_star_hilbert():
    assert [oracle.star_hilbert(6, t) for t in range(7)] == \
        [1, 3, 6, 10, 15, 15, 15]


def test_published_reference():
    assert list(oracle.PUBLISHED_REFERENCE.values()) == [14, 12, 12, 14]


# -- self time and per-layer arithmetic on synthetic spans --------------------

def span(name, start, end, parent=None):
    return [name, start, end, parent, None]


def test_self_time_nested():
    spans = [span("a", 0, 10), span("b", 2, 8, 0), span("c", 3, 5, 1)]
    assert self_times(spans) == [4, 4, 2]


def test_self_time_one_after_another():
    spans = [span("a", 0, 10), span("b", 1, 3, 0), span("c", 4, 7, 0)]
    assert self_times(spans) == [5, 2, 3]


def test_self_time_counts_overlap_once():
    spans = [span("a", 0, 10), span("b", 1, 5, 0), span("c", 3, 7, 0)]
    assert self_times(spans)[0] == 4


def test_layer_metrics():
    spans = [span("tangent.certify", 0, 10),
             span("matrices.rank_gf", 2, 6, 0),
             span("matrices.rank_gf", 3, 4, 1),     # nested call, same layer
             span("polynomials.mul", 7, 8, 0)]
    counts = {"matrices.rank.rows": 8, "matrices.rank.rank": 6,
              "matrices.rank_gf.entries": 40}
    m = layer_metrics(spans, counts)
    assert m["tangent.certify.s"] == 10
    assert m["matrices.rank_gf.s"] == 4
    assert m["matrices.rank_gf.calls"] == 2
    assert m["polynomials.mul.self_s"] == 1
    assert m["matrices.rank_gf.entries"] == 40
    assert m["matrices.rank.useful_row_ratio"] == 0.75
    assert m["matrices.rank_q.s"] == 0
    assert set(m) == {name for name, _, _ in PER_LAYER}


def test_count_hook_is_in_no_span():
    # the hook's work (0.1 s) enters neither the span it counts nor the
    # enclosing one
    clock = ReferenceClock()
    tracer = Tracer(clock)

    def slow_hook(counts, args):
        time.sleep(0.05)
        counts["hooked"] += 1
        return lambda result: time.sleep(0.05)

    inner = tracer.wrap(lambda: None, "inner", slow_hook)
    outer = tracer.wrap(lambda: inner(), "outer")
    outer()
    tracer.to_reference()
    assert tracer.counts["hooked"] == 1
    assert [(s[0], s[3]) for s in tracer.spans] == [("outer", None),
                                                     ("inner", 0)]
    (_, o_start, o_end, _, _), (_, i_start, i_end, _, _) = tracer.spans
    assert o_start <= i_start <= i_end <= o_end
    assert o_end - o_start < 0.05
    assert sum(e - s for s, e, _ in clock.marks) >= 0.1


# -- reference seconds -------------------------------------------------------------

def test_reference_seconds_follow_the_probes():
    # probes at the reference speed, then at half of it: the second
    # stretch counts at the mean of the two speeds around it
    clock = ReferenceClock()
    r = REFERENCE_PROBE_S
    clock.marks = [(0.0, r, True), (1.0, 1.0 + r, True),
                   (2.0, 2.0 + 2 * r, True)]
    to_ref = clock.converter()
    assert to_ref(r) == to_ref(0.0) == 0.0          # a probe counts as no time
    assert to_ref(1.0) == pytest.approx(1.0 - r)
    assert to_ref(1.5) - to_ref(1.0 + r) == pytest.approx((0.5 - r) * 0.75)
    assert to_ref(3.0) - to_ref(2.0 + 2 * r) == pytest.approx((1.0 - 2 * r) / 2)


def test_off_clock_work_counts_as_no_time():
    clock = ReferenceClock()
    r = REFERENCE_PROBE_S
    clock.marks = [(0.0, r, True), (1.0, 1.4, False), (2.0, 2.0 + r, True)]
    to_ref = clock.converter()
    assert to_ref(2.0) - to_ref(r) == pytest.approx(2.0 - r - 0.4)
    assert to_ref(1.3) == to_ref(1.0)


def test_probes_sample_a_running_clock():
    with ReferenceClock() as clock:
        end = clock.now() + 0.1
        while clock.now() < end:
            pass
    probes = [m for m in clock.marks if m[2]]
    assert len(probes) >= 5
    assert all(a[1] <= b[0] for a, b in zip(clock.marks, clock.marks[1:]))


def test_setup_reference_seconds():
    r = REFERENCE_PROBE_S
    # probes at half the reference speed: the rest of the wall time halves
    assert setup_reference_seconds(0.1 + 4 * r, [2 * r, 2 * r]) == \
        pytest.approx(0.05)


# -- output checks --------------------------------------------------------------

def plane_row(d, l, lower, verdict="CERTIFIED", theorem=None):
    return {"d": d, "l": l, "lower_bound": lower, "verdict": verdict,
            "theorem_value": oracle.plane_dimension(d, l)
            if theorem is None else theorem}


def test_check_plane():
    ops = [(4, 5), (5, 6), (6, 6), (7, 6)]
    stdout = json.dumps([plane_row(4, 5, 13), plane_row(5, 6, 16),
                         plane_row(6, 6, 20, "GAP")])
    ok, wrong, gap, missing = check_plane(stdout, ops)
    assert ok == []
    assert wrong and all(MISMATCH in r for r in wrong)
    assert gap == ["wrong verdict: GAP"]      # short of the value, not above
    assert missing == ["no output row"]


def test_check_pn_reads_values_not_status():
    rows = [{"n": 2, "d": 4, "l": 5, "lower_bound": 13, "formula_min": 14,
             "status": "REFUTED"},
            {"n": 3, "d": 3, "l": 4, "lower_bound": 20, "formula_min": 19,
             "status": "CONFIRMED"}]
    luroth, above = check_pn(json.dumps(rows), [(2, 4, 5), (3, 3, 4)])
    assert luroth == []
    assert above and MISMATCH in above[0]


def test_check_reference_and_hilbert():
    stdout = "\n".join(f"PASS  {name}: {v} (expected {v})"
                       for name, v in oracle.PUBLISHED_REFERENCE.items())
    stdout = stdout.replace(": 14 (expected 14)", ": 13 (expected 14)", 1)
    reasons = check_reference(stdout, [(n,) for n in oracle.PUBLISHED_REFERENCE])
    assert [bool(r) for r in reasons] == [True, False, False, False]
    table = "  t   rank  formula\n  0      1        1\n  1      3        3\n" \
            "  2      5        6\n"
    assert check_hilbert(6)(table, [(0,), (1,), (2,), (3,)]) == [
        [], [], [f"{MISMATCH}: t=2 rank 5, expected 6"], ["no output row"]]


# -- failure accounting -----------------------------------------------------------

def test_exception_fails_every_operation():
    def main(argv):
        raise RuntimeError("boom")
    cmd = Command([], [(4, 5), (5, 6)], check_plane)
    reasons = run.run_command(SimpleNamespace(main=main), cmd)
    assert reasons == [["no output row", "exception: RuntimeError: boom"]] * 2


def test_nonzero_exit_goes_to_the_failed_operations():
    def main(argv):
        print(json.dumps([plane_row(4, 5, 13), plane_row(5, 6, 16, "GAP")]))
        return 1
    cmd = Command([], [(4, 5), (5, 6)], check_plane)
    reasons = run.run_command(SimpleNamespace(main=main), cmd)
    assert reasons == [[], ["wrong verdict: GAP", "nonzero exit: 1"]]


# -- the benchmark's own contract ----------------------------------------------------

def test_benchmark_json_matches_the_code():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        PER_LAYER + [run.TRACE_OVERHEAD]


def test_workload_operations_are_seed_independent():
    for make in WORKLOADS.values():
        assert [c.ops for c in make(1)] == [c.ops for c in make(2)]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "reference-eval",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
