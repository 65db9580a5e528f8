"""The benchmark's workloads and the checks of their outputs.

A workload is a fixed list of CLI commands; the seed only fills in the
CLI's `--seed`, so every seed runs the same operations on other random
data.  An operation is one certified (d, l) pair, one `pn` row, one
published reference check or one Hilbert-function row.  Every output is
checked against the independent oracle, never against stored output.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Callable

import oracle

MISMATCH = "oracle mismatch"


@dataclass
class Command:
    argv: list[str]
    ops: list[tuple]
    #: (stdout, ops) -> one list of failure reasons per operation
    check: Callable[[str, list[tuple]], list[list[str]]]


def _json_rows(stdout: str, keys: tuple[str, ...]) -> dict[tuple, dict]:
    try:
        rows = json.loads(stdout)
    except ValueError:
        return {}
    return {tuple(r[k] for k in keys): r for r in rows}


def check_plane(stdout: str, ops: list[tuple]) -> list[list[str]]:
    """Rows of `sweep` / `verify`: CERTIFIED, the lower bound equal to the
    closed form and at most the ambient bound."""
    rows = _json_rows(stdout, ("d", "l"))
    out = []
    for d, l in ops:
        row = rows.get((d, l))
        if row is None:
            out.append(["no output row"])
            continue
        value, lower, reasons = oracle.plane_dimension(d, l), row["lower_bound"], []
        certified = row["verdict"] == "CERTIFIED"
        if not certified:
            reasons.append(f"wrong verdict: {row['verdict']}")
        # an uncertified lower bound may fall short, but never exceed
        if lower != value and (certified or lower > value):
            reasons.append(f"{MISMATCH}: lower bound {lower}, closed form {value}")
        if lower > oracle.ambient_bound(d):
            reasons.append(f"{MISMATCH}: lower bound {lower} above the "
                           f"ambient bound {oracle.ambient_bound(d)}")
        if row["theorem_value"] != value:
            reasons.append(f"{MISMATCH}: theorem value {row['theorem_value']}, "
                           f"closed form {value}")
        out.append(reasons)
    return out


def check_pn(stdout: str, ops: list[tuple]) -> list[list[str]]:
    """Rows of `pn`: the bound column equal to the P^n bound and the lower
    bound at most that bound; for n = 2 the lower bound equal to the plane
    closed form.  The status column is not read."""
    rows = _json_rows(stdout, ("n", "d", "l"))
    out = []
    for n, d, l in ops:
        row = rows.get((n, d, l))
        if row is None:
            out.append(["no output row"])
            continue
        bound, lower, reasons = oracle.pn_bound(n, d, l), row["lower_bound"], []
        if row["formula_min"] != bound:
            reasons.append(f"{MISMATCH}: bound {row['formula_min']}, "
                           f"P^n bound {bound}")
        if lower > bound:
            reasons.append(f"{MISMATCH}: lower bound {lower} above {bound}")
        if n == 2 and lower != oracle.plane_dimension(d, l):
            reasons.append(f"{MISMATCH}: lower bound {lower}, closed form "
                           f"{oracle.plane_dimension(d, l)}")
        out.append(reasons)
    return out


_REFERENCE_LINE = re.compile(r"^(PASS|FAIL)  (.+): (-?\d+) \(expected -?\d+\)$")


def check_reference(stdout: str, ops: list[tuple]) -> list[list[str]]:
    """`paper-examples`: each check equal to the published rank."""
    got = {}
    for line in stdout.splitlines():
        m = _REFERENCE_LINE.match(line)
        if m:
            got[m.group(2)] = (m.group(1), int(m.group(3)))
    out = []
    for (name,) in ops:
        if name not in got:
            out.append(["no output row"])
            continue
        label, value = got[name]
        reasons = [] if label == "PASS" else [f"wrong verdict: {label}"]
        if value != oracle.PUBLISHED_REFERENCE[name]:
            reasons.append(f"{MISMATCH}: {value}, published "
                           f"{oracle.PUBLISHED_REFERENCE[name]}")
        out.append(reasons)
    return out


def check_hilbert(l: int):
    """`hilbert`: both the rank and the printed formula equal to the star
    configuration's Hilbert function."""
    def check(stdout: str, ops: list[tuple]) -> list[list[str]]:
        rows = {}
        for line in stdout.splitlines():
            parts = line.split()
            if len(parts) == 3 and all(p.isdigit() for p in parts):
                t, rank, formula = map(int, parts)
                rows[t] = (rank, formula)
        out = []
        for (t,) in ops:
            if t not in rows:
                out.append(["no output row"])
                continue
            expected = oracle.star_hilbert(l, t)
            out.append([f"{MISMATCH}: t={t} {name} {v}, expected {expected}"
                        for name, v in zip(("rank", "formula"), rows[t])
                        if v != expected])
        return out
    return check


def sweep(dmax: int, lmax: int, seed: int) -> Command:
    return Command(
        ["sweep", f"--dmax={dmax}", f"--lmax={lmax}", "--trials=1",
         "--format=json", f"--seed={seed}"],
        [(d, l) for l in range(2, lmax + 1) for d in range(l - 1, dmax + 1)],
        check_plane)


def verify_rational(d: int, l: int, seed: int) -> Command:
    return Command(
        ["verify", f"--d={d}", f"--l={l}", "--field=rational", "--trials=1",
         "--format=json", f"--seed={seed}"],
        [(d, l)], check_plane)


def pn(n: int, dmax: int, lmax: int, seed: int) -> Command:
    return Command(
        ["pn", f"--n={n}", f"--dmax={dmax}", f"--lmax={lmax}", "--trials=1",
         "--format=json", f"--seed={seed}"],
        [(n, d, l) for l in range(max(2, n), lmax + 1)
         for d in range(l - 1, dmax + 1)],
        check_pn)


def hilbert(l: int, tmax: int, field: str, seed: int) -> Command:
    return Command(
        ["hilbert", f"--l={l}", f"--tmax={tmax}", f"--field={field}",
         f"--seed={seed}"],
        [(t,) for t in range(tmax + 1)], check_hilbert(l))


# Each workload stresses other layers (see README.md); sizes keep one round
# of a workload near 4 s on two cores, so a run repeats it several times.
WORKLOADS = {
    "plane-sweep-gf": lambda seed: [sweep(13, 10, seed)],
    "plane-verify-q": lambda seed: [verify_rational(d, l, seed)
                                    for d, l in ((9, 7), (10, 8), (10, 9))],
    "pn3-sweep-gf": lambda seed: [pn(3, 8, 6, seed), pn(2, 6, 5, seed)],
    "reference-eval": lambda seed: [
        Command(["paper-examples", "--field=rational", f"--seed={seed}"],
                [(name,) for name in oracle.PUBLISHED_REFERENCE],
                check_reference),
        hilbert(8, 10, "rational", seed),
        hilbert(16, 20, "prime", seed),
    ],
}
