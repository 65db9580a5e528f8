#!/usr/bin/env python3
"""Benchmark of the `starcurves` command line.

    python3 bench/run.py --workload plane-sweep-gf --seed 1 --seconds 20 --trace 0

Runs one workload (see workloads.py) through `starcurves.cli.main` in this
one process, repeating whole rounds of it while another round still fits
in `--seconds`, and checks every output against the independent oracle.  It prints each
metric with its unit, the operations attempted and failed, and ends with
one JSON line {"correct", "attempted", "failed", "metrics"}.

`--trace 0` reports the end-to-end metrics.  Every time is in reference
seconds, wall time corrected for the host's changing speed (speed.py), and
is the median of its repetitions in the run.  `--trace 1` alternates
untraced and traced rounds, reports the per-layer metrics and the tracing
overhead, checks that the exact counts repeat across its traced rounds,
and writes the spans of its last traced round and the layer table to
`.bench_out/`.  The program is imported from `src/` of the checkout this
file sits in; without it the benchmark exits with status 2.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import threading
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from statistics import median

from spans import PER_LAYER, Patches, Tracer, layer_metrics
from speed import SETUP_CODE, ReferenceClock, setup_reference_seconds
from workloads import MISMATCH, WORKLOADS, Command

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("op_p50_s", "s"),
              ("largest_op_s", "s"), ("peak_rss_mb", "MB")]
TRACE_OVERHEAD = ("trace.overhead_s", "s", "lower")

#: Functions of `starcurves.cli` whose calls are the operations.
OP_BOUNDARIES = ["run_one", "conjecture_row", "hilbert_function",
                 "luroth_case_dimension", "six_line_matrix_rank",
                 "block_matrix_rank"]

SETUP_RUNS = 6         # before the rounds, and as many after them


@dataclass
class Round:
    wall: float
    op_times: list[float]
    reasons: list[list[str]]        # failure reasons, one list per operation
    tracer: Tracer | None


def measure_setup() -> list[float]:
    """Times of SETUP_RUNS fresh interpreters that import the CLI and build
    its parser, in reference seconds."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), str(Path(__file__).resolve().parent)]))
    times = []
    for _ in range(SETUP_RUNS):
        start = ReferenceClock.now()
        proc = subprocess.Popen([sys.executable, "-c", SETUP_CODE], cwd=ROOT,
                                env=env, stdout=subprocess.PIPE, text=True)
        # a blocking wait: waiting with a timeout polls with sleeps of up
        # to 50 ms, which would round every reading up to the next poll
        watchdog = threading.Timer(60, proc.kill)
        watchdog.start()
        try:
            out = proc.communicate()[0]
        finally:
            watchdog.cancel()
        wall = ReferenceClock.now() - start
        if proc.returncode:
            raise subprocess.CalledProcessError(proc.returncode, proc.args)
        times.append(setup_reference_seconds(
            wall, [float(x) for x in out.split()]))
    return times


def timed(fn, op_spans: list[tuple[float, float]], tracer: Tracer | None,
          name: str):
    """`fn` with the wall-clock start and end of each call kept as one
    operation."""
    if tracer:
        fn = tracer.wrap(fn, "op." + name)

    def op(*args, **kwargs):
        if tracer:
            tracer.op = len(op_spans)
        start = ReferenceClock.now()
        try:
            return fn(*args, **kwargs)
        finally:
            op_spans.append((start, ReferenceClock.now()))
            if tracer:
                tracer.op = None
    return op


def run_command(cli, cmd: Command) -> list[list[str]]:
    out = io.StringIO()
    common = []
    try:
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(cmd.argv)
    except SystemExit as exc:     # a string code is the CLI's error message
        rc = exc.code if isinstance(exc.code, int) or exc.code is None \
            else f"1 ({exc.code})"
    except Exception as exc:     # the round goes on; the operations fail
        rc = None
        common.append(f"exception: {type(exc).__name__}: {exc}")
    if rc:
        common.append(f"nonzero exit: {rc}")
    reasons = cmd.check(out.getvalue(), cmd.ops)
    if common:
        # command-level faults belong to the operations that went wrong,
        # or to all of them when none did
        hit = [r for r in reasons if r] or reasons
        for r in hit:
            r.extend(common)
    return reasons


def run_round(cli, commands: list[Command], traced: bool) -> Round:
    """One round of the workload, its times in reference seconds."""
    clock = ReferenceClock()
    tracer = Tracer(clock) if traced else None
    op_spans: list[tuple[float, float]] = []
    patches = Patches()
    try:
        if tracer:
            tracer.install(patches)
        for name in OP_BOUNDARIES:
            patches.set(cli, name, timed(getattr(cli, name), op_spans,
                                         tracer, name))
        with clock:
            start = clock.now()
            reasons = [r for cmd in commands for r in run_command(cli, cmd)]
            end = clock.now()
    finally:
        patches.restore()
    to_ref = clock.converter()
    if tracer:
        tracer.to_reference()
    return Round(to_ref(end) - to_ref(start),
                 [to_ref(b) - to_ref(a) for a, b in op_spans], reasons, tracer)


def run_rounds(cli, commands, seconds: float, trace: bool) -> list[Round]:
    """Whole rounds while another one still fits in `seconds` (at least one;
    with tracing, untraced and traced rounds alternate, two of each)."""
    rounds: list[Round] = []
    start = ReferenceClock.now()
    while True:
        rounds.append(run_round(cli, commands,
                                trace and len(rounds) % 2 == 1))
        if trace and len(rounds) < 4:
            continue
        elapsed = ReferenceClock.now() - start
        if elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            return rounds


def end_to_end_metrics(rounds: list[Round],
                       setup_times: list[float]) -> dict[str, float]:
    """Set-up, each operation and the round at the median of their
    repetitions."""
    typical = [median(times) for times in zip(*(r.op_times for r in rounds))]
    return {
        "setup_s": median(setup_times),
        "wall_s": median(r.wall for r in rounds),
        "op_p50_s": median(typical or [0.0]),
        "largest_op_s": max(typical, default=0.0),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer_metrics(rounds: list[Round], stem: str) -> tuple[dict, list[str]]:
    """Per-layer metrics (times: median of the traced rounds; counts:
    exact, checked to repeat), the tracing overhead (median traced round
    minus median untraced round), and any count that did not repeat.
    Writes the spans of the last traced round and the table."""
    traced = [r for r in rounds if r.tracer]
    per_round = [layer_metrics(r.tracer.spans, r.tracer.counts) for r in traced]
    metrics, unsteady = {}, []
    for name, unit, _ in PER_LAYER:
        values = [m[name] for m in per_round]
        if unit == "s":
            metrics[name] = median(values)
        else:
            metrics[name] = values[0]
            if len(set(values)) > 1:
                unsteady.append(f"{name} differs across traced rounds: {values}")
    metrics[TRACE_OVERHEAD[0]] = (median(r.wall for r in traced)
                                  - median(r.wall for r in rounds
                                           if not r.tracer))
    OUT.mkdir(exist_ok=True)
    last = traced[-1].tracer
    origin = last.spans[0][1] if last.spans else 0.0
    with open(OUT / f"{stem}.spans.jsonl", "w") as fh:
        for i, (name, start, end, parent, op) in enumerate(last.spans):
            fh.write(json.dumps({"id": i, "name": name,
                                 "start": start - origin, "end": end - origin,
                                 "parent": parent, "op": op}) + "\n")
    units = {name: unit for name, unit, _ in PER_LAYER + [TRACE_OVERHEAD]}
    with open(OUT / f"{stem}.layers.txt", "w") as fh:
        fh.write("".join(f"{n:<44} {v:>14.6g} {units[n]}\n"
                         for n, v in metrics.items()))
    if last.missing:
        print("not traced (absent from the program): "
              + ", ".join(last.missing))
    return metrics, unsteady


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "starcurves" / "cli.py").is_file():
        print(f"error: no program source at {SRC / 'starcurves'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from starcurves import cli
    missing = [n for n in OP_BOUNDARIES if not hasattr(cli, n)]
    if missing:
        print(f"error: operation boundaries missing from starcurves.cli: "
              f"{missing}", file=sys.stderr)
        return 2

    commands = WORKLOADS[args.workload](args.seed)
    # set-up is timed before and after the rounds, apart in time
    setup_times = [] if args.trace else measure_setup()
    rounds = run_rounds(cli, commands, args.seconds, bool(args.trace))
    reasons = [r for rnd in rounds for r in rnd.reasons]
    failed = sum(1 for r in reasons if r)
    problems = [reason for r in reasons for reason in r if MISMATCH in reason]
    if args.trace:
        values, unsteady = per_layer_metrics(
            rounds, f"{args.workload}-seed{args.seed}")
        problems += unsteady
        units = {n: u for n, u, _ in PER_LAYER + [TRACE_OVERHEAD]}
    else:
        values = end_to_end_metrics(rounds, setup_times + measure_setup())
        units = dict(END_TO_END)

    print(f"workload {args.workload}  seed {args.seed}  rounds {len(rounds)} "
          f"({sum(1 for r in rounds if r.tracer)} traced)")
    for name, value in values.items():
        print(f"  {name:<44} {value:>14.6g} {units[name]}")
    print(f"operations: {len(reasons)} attempted, {failed} failed")
    for reason, n in Counter(x for r in reasons for x in r).most_common(10):
        print(f"  {n} x {reason}")
    print("checks: " + ("every output agrees with the oracle"
                        if not problems else f"{len(problems)} problems"))
    for problem in problems[:10]:
        print(f"  {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": len(reasons),
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]}
                    for n, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
