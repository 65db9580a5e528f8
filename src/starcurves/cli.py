"""Batch driver: verify single cases, sweep ranges, reproduce the known
explicit computations, and run the P^n conjecture experiments.

Exit status: 0 on success (all CERTIFIED/EMPTY, all reference checks
PASS), 1 when a GAP verdict or a FAIL occurs, 2 on usage errors, 3 when
`verify`, `sweep` or `pn` finds a lower bound above the least upper bound
(verdict or status CONTRADICTION).  The worst outcome decides.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import logging
import os
import sys
import time

from .fields import DEFAULT_PRIME, PrimeField, QQ, Field, is_prime
from .formulas import min_upper_bound
from .polynomials import HomogeneousPoly
from .pnstar import conjecture_row
from .reference_cases import (block_matrix_rank, five_line_forms,
                              luroth_case_dimension, six_line_forms,
                              six_line_matrix_rank)
from .starconfig import hilbert_function, random_star
from .tangent import certify

log = logging.getLogger("starcurves")

EXIT_OK = 0
EXIT_GAP = 1
EXIT_USAGE = 2
EXIT_CONTRADICTION = 3

#: Exit status of the verdicts (certify) and statuses (pn) that are not 0.
VERDICT_EXIT = {"GAP": EXIT_GAP, "CONTRADICTION": EXIT_CONTRADICTION}


def exit_status(verdicts) -> int:
    return max((VERDICT_EXIT.get(v, EXIT_OK) for v in verdicts),
               default=EXIT_OK)


def field_from_args(args) -> Field:
    if args.field == "rational":
        return QQ
    prime = args.prime
    if prime is None:
        prime = int(os.environ.get("STARCONFIG_PRIME", DEFAULT_PRIME))
    if not is_prime(prime):
        raise SystemExit(f"error: {prime} is not prime")
    return PrimeField(prime)


def field_label(fld: Field) -> str:
    return "rational" if fld == QQ else f"GF({fld.p})"


def certificate_row(cert, fld, seed, elapsed_ms) -> dict:
    empty = cert.verdict == "EMPTY"
    return {
        "d": cert.d, "l": cert.l, "field": field_label(fld),
        "lower_bound": "" if empty else cert.lower_bound,
        "theorem_value": "EMPTY" if empty else cert.theorem_value,
        "min_upper_bound": "" if empty else min_upper_bound(cert.d, cert.l),
        "verdict": cert.verdict, "seed": seed, "elapsed_ms": elapsed_ms,
    }


def aligned_table(rows: list[dict]) -> list[str]:
    """A header line and one line per row, each column padded to its width."""
    widths = {c: max(len(c), *(len(str(r[c])) for r in rows)) for c in rows[0]}
    return ["  ".join(c.ljust(w) for c, w in widths.items())] + [
        "  ".join(str(r[c]).ljust(w) for c, w in widths.items()) for r in rows]


def emit_rows(rows: list[dict], fmt: str, output: str | None,
              table=aligned_table):
    """Write the nonempty `rows` as CSV, JSON or the lines of `table(rows)`."""
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
        text = buf.getvalue()
    elif fmt == "json":
        text = json.dumps(rows, indent=2) + "\n"
    else:
        text = "\n".join(table(rows)) + "\n"
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def run_one(d: int, l: int, fld: Field, trials: int, seed: int,
            paper_forms: bool) -> dict:
    start = time.monotonic()
    forms = None
    multipliers = None
    if paper_forms:
        if l == 5:
            forms = five_line_forms(fld)
        elif l == 6:
            forms = six_line_forms(fld)
        else:
            raise SystemExit("--paper-forms only available for l = 5 or 6")
        if d == l - 1:
            multipliers = [HomogeneousPoly.one(fld, 3)] * l
    cert = certify(d, l, fld, trials=trials, seed=seed, forms=forms,
                   multipliers=multipliers)
    elapsed_ms = int((time.monotonic() - start) * 1000)
    for t, dim in zip(cert.seeds, cert.trial_dims):
        log.debug("(d=%d, l=%d) trial seed %d: tangent dimension %d",
                  d, l, t, dim)
    return certificate_row(cert, fld, seed, elapsed_ms)


def cmd_verify(args) -> int:
    fld = field_from_args(args)
    row = run_one(args.d, args.l, fld, args.trials, args.seed,
                  args.paper_forms)
    emit_rows([row], args.format, args.output)
    print(f"verdict: {row['verdict']}", file=sys.stderr)
    return exit_status([row["verdict"]])


def cmd_sweep(args) -> int:
    fld = field_from_args(args)
    cases = []
    for l in range(2, args.lmax + 1):
        dmin = 0 if args.include_empty else l - 1
        for d in range(dmin, args.dmax + 1):
            cases.append((d, l))
    if not cases:
        raise SystemExit("error: empty sweep range")

    rows = [run_one(d, l, fld, args.trials, args.seed, False)
            for d, l in cases]
    verdicts = [r["verdict"] for r in rows]
    emit_rows(rows, args.format, args.output)
    summary = ", ".join(f"{verdicts.count(v)} {v}"
                        for v in ("CERTIFIED", "GAP", "EMPTY"))
    if "CONTRADICTION" in verdicts:
        summary += f", {verdicts.count('CONTRADICTION')} CONTRADICTION"
    print(f"summary: {summary}", file=sys.stderr)
    return exit_status(verdicts)


def cmd_paper_examples(args) -> int:
    fld = field_from_args(args)
    checks = [
        ("quartic case dim_k I_4", lambda: luroth_case_dimension(fld), 14),
        ("six-line 12x12 rank, d=5", lambda: six_line_matrix_rank(fld, 5), 12),
        ("six-line 12x12 rank, d=6", lambda: six_line_matrix_rank(fld, 6), 12),
        ("seven-line 14x14 block rank, d=6",
         lambda: block_matrix_rank(fld, 7, 6), 14),
    ]
    failed = False
    for name, fn, expected in checks:
        got = fn()
        ok = got == expected
        failed |= not ok
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {got} "
              f"(expected {expected})")
    return EXIT_GAP if failed else EXIT_OK


def cmd_pn(args) -> int:
    if args.n < 2:
        raise SystemExit("error: ambient dimension n must be at least 2")
    fld = field_from_args(args)
    rows = []
    for l in range(max(2, args.n), args.lmax + 1):
        for d in range(l - 1, args.dmax + 1):
            r = conjecture_row(args.n, d, l, fld, trials=args.trials,
                               seed=args.seed)
            rows.append({"n": r.n, "d": r.d, "l": r.l,
                         "lower_bound": r.lower_bound,
                         "formula_min": r.formula_min, "status": r.status})
    if not rows:
        raise SystemExit("error: empty range")
    emit_rows(rows, args.format, args.output, table=lambda rows: [
        f"n={r['n']} d={r['d']} l={r['l']}  lower={r['lower_bound']}  "
        f"formula={r['formula_min']}  {r['status']}" for r in rows])
    return exit_status(r["status"] for r in rows)


def cmd_hilbert(args) -> int:
    fld = field_from_args(args)
    from math import comb
    star = random_star(args.l, args.seed, fld)
    print(f"{'t':>3}  {'rank':>5}  {'formula':>7}")
    ok = True
    for t in range(args.tmax + 1):
        hf = hilbert_function(star, t)
        formula = min(comb(t + 2, 2), comb(args.l, 2))
        ok &= hf == formula
        print(f"{t:>3}  {hf:>5}  {formula:>7}")
    print("agreement: " + ("yes" if ok else "NO"), file=sys.stderr)
    return EXIT_OK if ok else EXIT_GAP


def add_common_flags(p):
    p.add_argument("--field", choices=["rational", "prime"], default="prime")
    p.add_argument("--prime", type=int, default=None,
                   help="prime modulus (default: STARCONFIG_PRIME env var "
                        f"or {DEFAULT_PRIME})")
    p.add_argument("--trials", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=["table", "csv", "json"],
                   default="table")
    p.add_argument("--output", default=None, help="write report to file")
    p.add_argument("-v", "--verbose", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="starcurves",
        description="Certify dimensions of loci of plane curves containing "
                    "star configurations.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="verify a single (d, l) pair")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--paper-forms", action="store_true",
                   help="use the fixed published forms (l = 5 or 6)")
    add_common_flags(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", help="verify every pair in a range")
    p.add_argument("--dmax", type=int, required=True)
    p.add_argument("--lmax", type=int, required=True)
    p.add_argument("--include-empty", action="store_true",
                   help="also report the d < l - 1 rows")
    add_common_flags(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("paper-examples",
                       help="reproduce the published explicit computations")
    add_common_flags(p)
    p.set_defaults(func=cmd_paper_examples)

    p = sub.add_parser("pn", help="P^n conjecture experiments")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dmax", type=int, required=True)
    p.add_argument("--lmax", type=int, required=True)
    add_common_flags(p)
    p.set_defaults(func=cmd_pn)

    p = sub.add_parser("hilbert",
                       help="Hilbert function table vs the closed formula")
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--tmax", type=int, default=10)
    add_common_flags(p)
    p.set_defaults(func=cmd_hilbert)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(message)s")
    try:
        return args.func(args)
    except SystemExit:
        raise
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
