#!/usr/bin/env python3
"""Regenerate the benchmark's reference figures.

    python3 bench/figures.py

For each workload of BENCHMARK.json, runs `bench/run.py` for its
`run_seconds` once per seed (1-10, or `--seeds 11-20`) with tracing off and
prints, per end-to-end metric, the median, the quartiles and their distance
as a share of the median next to the metric's bound in BENCHMARK.json, and
the share of failed operations.  Then runs two traced runs with the first
seed, checks that their exact counts agree and prints the per-layer metrics
(times: the median of the two) with the tracing overhead.  Everything is
also written to `.bench_out/figures-seeds<first>-<last>.json`.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n"
                         f"{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    args = parser.parse_args()

    report = {}
    for workload in (w["name"] for w in SPEC["workloads"]):
        results = [run(workload, s, 0) for s in args.seeds]
        rows = {}
        print(f"\n{workload}: {len(results)} runs, seeds {args.seeds[0]}-"
              f"{args.seeds[-1]}, {SPEC['run_seconds']} s each", flush=True)
        for metric in SPEC["end_to_end"]:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = quantiles(values, n=4)
            spread = (q3 - q1) / med
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                          "bound": metric["bound"], "values": values}
            print(f"  {name:<14} median {med:12.6g} {metric['unit']:<3} "
                  f"q1 {q1:12.6g}  q3 {q3:12.6g}  spread {spread:7.2%}  "
                  f"bound {metric['bound']:.0%}")
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"  failed share {sorted(shares)}; correct "
              f"{all(r['correct'] for r in results)}; attempted "
              f"{[r['attempted'] for r in results]}", flush=True)
        report[workload] = {"end_to_end": rows, "failed_shares": sorted(shares),
                            "correct": all(r["correct"] for r in results)}
        traced = [run(workload, args.seeds[0], 1) for _ in range(2)]
        layers = {}
        for metric in SPEC["per_layer"]:
            name = metric["name"]
            a, b = (t["metrics"][name]["value"] for t in traced)
            exact = metric["unit"] != "s"
            layers[name] = a if exact else median([a, b])
            if exact and a != b:
                print(f"  COUNT DIFFERS between traced runs: {name} {a} {b}")
            print(f"  {name:<44} {layers[name]:>14.6g} {metric['unit']}")
        report[workload]["per_layer"] = layers
        report[workload]["traced_correct"] = all(t["correct"] for t in traced)
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    name = f"figures-seeds{args.seeds[0]}-{args.seeds[-1]}.json"
    (out / name).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
