"""Smoke run of the benchmark harness on every workload it declares.

A very short traced run of each workload must exit 0 and end with a
correct JSON summary, so a removed operation boundary or module of the
program shows up here first.  It must also trace every per-layer span
but the stale ones, so a refactor cannot silently drop a live span.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in
             json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]

#: Spans the harness names whose functions the program no longer has.
STALE_SPANS = {"matrices.ExactMatrix.rank",
               "polynomials.perturbation_coefficient",
               "starconfig.random_general_forms", "pnstar.build_pn_star",
               "pnstar.pn_tangent_dimension"}
UNTRACED = "not traced (absent from the program): "


@pytest.mark.parametrize("workload", WORKLOADS)
def test_bench_workload_runs_correctly(workload):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload",
         workload, "--seed", "1", "--seconds", "0.01", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert summary["correct"] is True
    assert summary["failed"] == 0
    assert summary["attempted"] > 0
    untraced = {name for line in proc.stdout.splitlines()
                if line.startswith(UNTRACED)
                for name in line[len(UNTRACED):].split(", ")}
    assert untraced <= STALE_SPANS, untraced - STALE_SPANS
