"""Times in reference seconds: wall time corrected for the host's speed.

On a shared host the same Python code runs at one speed, then at up to
half of it, switching within a second and staying in either state from
milliseconds to minutes (see README.md).  A fixed probe loop, run every
INTERVAL seconds from a SIGALRM handler in the measured process itself,
samples that speed.  Each stretch of wall time between two probes counts
at the mean speed of the probes at its ends, scaled so that a probe taking
REFERENCE_PROBE_S counts as one second per second.  A time in reference
seconds is thus the wall time the same work takes while the probe runs at
REFERENCE_PROBE_S.  Interference that slows the program and the probe alike
cancels out; a change that makes the program itself faster or slower shows
in full.  The probes' own time, and any work run through `off_clock`,
count as no time at all.
"""

from __future__ import annotations

import signal
from bisect import bisect_right
from time import perf_counter

INTERVAL = 0.01
#: The probe's duration on the reference machine (README.md) at its fast
#: speed.  It only scales the reported times; it never changes their ratios.
REFERENCE_PROBE_S = 90e-6


#: Fixed integers of about 300 bits, like the entries of the rational
#: workloads' matrices once their denominators are cleared.
_WIDE = [(1 << 300) // (k + 3) + k for k in range(64)]


def probe() -> None:
    """A fixed piece of interpreter work like the program's inner loops:
    word-size products reduced mod p and kept in a dict, as in the GF(p)
    paths, then products and exact quotients of 300-bit integers, as in
    Bareiss elimination.  It allocates no container the cycle collector
    tracks, so it never starts a collection."""
    table = {}
    x = 12345
    for i in range(120):
        x = (x * 48271 + i) % 2147483647
        table[i & 63] = (table.get(i & 63, 0) + x) % 2147483647
    y = _WIDE[0]
    for i in range(60):
        y = (y * _WIDE[i & 63] - _WIDE[(i + 1) & 63] * x) // _WIDE[(i + 7) & 63]


class ReferenceClock:
    """Samples the host's speed while running; afterwards `converter()`
    maps the wall-clock readings taken meanwhile to reference seconds.

    `marks` holds the (start, end, is_probe) of every probe and every
    `off_clock` call, in order and disjoint."""

    now = staticmethod(perf_counter)

    def __init__(self):
        self.marks: list[tuple[float, float, bool]] = []
        self.holding = 0
        self._previous = None

    def _probe(self, *_):
        if self.holding:          # inside off-clock work or another probe
            return
        self.holding += 1
        start = perf_counter()
        try:
            probe()
        finally:
            self.marks.append((start, perf_counter(), True))
            self.holding -= 1

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        self._probe()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        self._probe()

    def __enter__(self) -> "ReferenceClock":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def off_clock(self, fn, *args):
        """`fn(*args)`, counted as no time and never interrupted by a probe."""
        self.holding += 1
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            self.marks.append((start, perf_counter(), False))
            self.holding -= 1

    def converter(self):
        """A function from a wall-clock reading taken while the clock ran to
        reference seconds (from an arbitrary origin).  Without any probe,
        wall time minus off-clock work."""
        marks = self.marks
        rates = [REFERENCE_PROBE_S / (e - s) if is_probe else None
                 for s, e, is_probe in marks]
        # the speed after each mark: the mean of the probes around the gap
        before, last = [], None
        for r in rates:
            last = r if r is not None else last
            before.append(last)
        after, nxt = [None] * len(rates), None
        for i in range(len(rates) - 1, -1, -1):
            after[i] = nxt
            nxt = rates[i] if rates[i] is not None else nxt
        first = nxt if nxt is not None else 1.0
        gap = [(b + a) / 2 if a is not None and b is not None
               else (b if b is not None else a if a is not None else 1.0)
               for b, a in zip(before, after)]
        starts, cumulative, total = [], [], 0.0
        for i, (s, e, _) in enumerate(marks):
            if i:
                total += (s - marks[i - 1][1]) * gap[i - 1]
            starts.append(s)
            cumulative.append(total)

        def to_reference(t: float) -> float:
            i = bisect_right(starts, t) - 1
            if i < 0:
                return (t - starts[0]) * first if starts else t
            return cumulative[i] + max(t - marks[i][1], 0.0) * gap[i]
        return to_reference


#: Code a fresh interpreter runs to time the program's set-up: probes
#: sample the speed while it imports the CLI and builds the parser, and it
#: prints the probes' durations.  It needs this directory and the program's
#: source on its path.
SETUP_CODE = """from speed import ReferenceClock
clock = ReferenceClock()
clock.start()
import starcurves.cli as cli
cli.build_parser()
clock.stop()
print(*(end - start for start, end, _ in clock.marks))"""


def setup_reference_seconds(wall: float, durations: list[float]) -> float:
    """A fresh interpreter's wall time, less its probes, in reference
    seconds at the mean speed its probes saw."""
    speed = sum(REFERENCE_PROBE_S / d for d in durations) / len(durations)
    return (wall - sum(durations)) * speed
