"""Batch driver: verify single cases, sweep ranges, reproduce the known
explicit computations, and run the P^n conjecture experiments.

Exit status: 0 on success (all CERTIFIED/EMPTY, all reference checks
PASS), 1 when a GAP verdict or a FAIL occurs or when `hilbert` finds a
rank that differs from the closed formula, 2 on usage errors or when
memory runs out, 3 when `verify`, `sweep` or `pn` finds a lower bound
above the least upper bound (verdict or status CONTRADICTION).  The worst
outcome decides.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time
from functools import cache
from math import comb

from .fields import DEFAULT_PRIME, PrimeField, QQ, Field
from .pnstar import conjecture_row
from .reference_cases import (block_matrix_rank, luroth_case_dimension,
                              published_star, six_line_matrix_rank)
from .starconfig import check_arc_bound, hilbert_function, random_star
from .tangent import TrialStars, certify

EXIT_OK = 0
EXIT_GAP = 1
EXIT_USAGE = 2
EXIT_CONTRADICTION = 3

#: Exit status of the verdicts (certify) and statuses (pn) that are not 0.
VERDICT_EXIT = {"GAP": EXIT_GAP, "CONTRADICTION": EXIT_CONTRADICTION}


def exit_status(verdicts) -> int:
    return max((VERDICT_EXIT.get(v, EXIT_OK) for v in verdicts),
               default=EXIT_OK)


def usage_error(msg: str):
    """Report a usage error the way argparse does: exit 2."""
    print(f"error: {msg}", file=sys.stderr)
    raise SystemExit(EXIT_USAGE)


def field_from_args(args) -> Field:
    if args.field == "rational":
        if args.prime is not None:
            usage_error("--prime applies only to --field prime")
        return QQ
    prime = args.prime
    if prime is None:
        env = os.environ.get("STARCONFIG_PRIME", str(DEFAULT_PRIME))
        try:
            prime = int(env)
        except ValueError:
            usage_error(f"STARCONFIG_PRIME must be an integer, got {env!r}")
    try:
        return PrimeField(prime)
    except ValueError:
        usage_error(f"{prime} is not prime")


def field_label(fld: Field) -> str:
    return "rational" if fld == QQ else f"GF({fld.p})"


def certificate_row(cert, fld, seed, elapsed_ms) -> dict:
    empty = cert.verdict == "EMPTY"
    return {
        "d": cert.d, "l": cert.l, "field": field_label(fld),
        "lower_bound": "" if empty else cert.lower_bound,
        "theorem_value": "EMPTY" if empty else cert.theorem_value,
        "min_upper_bound": min((v for _, v in cert.upper_bounds), default=""),
        "verdict": cert.verdict, "seed": seed, "elapsed_ms": elapsed_ms,
    }


def aligned_table(rows: list[dict]) -> list[str]:
    """A header line and one line per row, each column padded to its width."""
    widths = {c: max(len(c), *(len(str(r[c])) for r in rows)) for c in rows[0]}
    return ["  ".join(c.ljust(w) for c, w in widths.items())] + [
        "  ".join(str(r[c]).ljust(w) for c, w in widths.items()) for r in rows]


def emit_rows(rows: list[dict], fmt: str, output: str | None,
              table=aligned_table):
    """Write the nonempty `rows` as CSV, JSON or the lines of `table(rows)`;
    a report file that cannot be written is a usage error."""
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
        try:
            with open(output, "w") as fh:
                fh.write(text)
        except OSError as exc:
            usage_error(f"cannot write report to {output}: {exc.strerror}")
    else:
        sys.stdout.write(text)


def run_one(d: int, l: int, fld: Field, trials: int, seed: int,
            paper_forms: bool, stars=None, verbose: bool = False) -> dict:
    """One certificate row; `stars` as in `certify`, or the published
    lines in every trial with `paper_forms`.  `verbose` writes each
    trial's tangent dimension to stderr."""
    start = time.monotonic()
    multipliers = None
    if paper_forms:
        if l not in (5, 6):
            usage_error("--paper-forms only available for l = 5 or 6")
        stars = [published_star(fld, l)] * trials
        if d == l - 1:
            multipliers = [[1] for _ in range(l)]
    cert = certify(d, l, fld, trials=trials, seed=seed, stars=stars,
                   multipliers=multipliers)
    elapsed_ms = int((time.monotonic() - start) * 1000)
    if verbose:
        for r in cert.trials:
            print(f"DEBUG (d={d}, l={l}) trial seed {r['seed']}: tangent "
                  f"dimension {r['dimension']}", file=sys.stderr)
    return certificate_row(cert, fld, seed, elapsed_ms)


def cmd_verify(args) -> int:
    fld = field_from_args(args)
    row = run_one(args.d, args.l, fld, args.trials, args.seed,
                  args.paper_forms, verbose=args.verbose)
    emit_rows([row], args.format, args.output)
    print(f"verdict: {row['verdict']}", file=sys.stderr)
    return exit_status([row["verdict"]])


def row_cases(args, fld: Field, n: int, empty_message: str,
              include_empty: bool = False):
    """The (d, l, stars) of each row of `sweep` (n = 2) and `pn`: l from
    max(2, n) to --lmax, d from l - 1 (from 0 with `include_empty`) to
    --dmax.  An empty range, then l past the arc bound, is a usage error
    raised before the first case."""
    cases = {l: range(0 if include_empty else l - 1, args.dmax + 1)
             for l in range(max(2, n), args.lmax + 1)}
    if not any(cases.values()):
        usage_error(empty_message)
    # the largest l with a row that draws a star (d >= l - 1)
    check_arc_bound(min(args.lmax, args.dmax + 1), n, fld)
    for l, degrees in cases.items():
        # one draw per trial, by the first row that needs it, kept for l
        stars = TrialStars(l, fld, args.seed, n)
        for d in degrees:
            yield d, l, stars


def cmd_sweep(args) -> int:
    fld = field_from_args(args)
    rows = [run_one(d, l, fld, args.trials, args.seed, False, stars,
                    args.verbose)
            for d, l, stars in row_cases(args, fld, 2, "empty sweep range",
                                         args.include_empty)]
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
        usage_error("ambient dimension n must be at least 2")
    fld = field_from_args(args)
    rows = [conjecture_row(args.n, d, l, fld, trials=args.trials,
                           seed=args.seed, stars=stars)
            for d, l, stars in row_cases(args, fld, args.n, "empty range")]
    emit_rows(rows, args.format, args.output, table=lambda rows: [
        f"n={r['n']} d={r['d']} l={r['l']}  lower={r['lower_bound']}  "
        f"formula={r['formula_min']}  {r['status']}" for r in rows])
    return exit_status(r["status"] for r in rows)


def cmd_hilbert(args) -> int:
    fld = field_from_args(args)
    if args.tmax < 0:
        usage_error("empty range")
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


def add_field_flags(p):
    p.add_argument("--field", choices=["rational", "prime"], default="prime")
    p.add_argument("--prime", type=int, default=None,
                   help="prime modulus (default: STARCONFIG_PRIME env var "
                        f"or {DEFAULT_PRIME})")
    p.add_argument("--seed", type=int, default=0)


def add_report_flags(p):
    """Flags of the commands that certify rows: verify, sweep and pn."""
    add_field_flags(p)
    p.add_argument("--trials", type=int, default=3)
    p.add_argument("--format", choices=["table", "csv", "json"],
                   default="table")
    p.add_argument("--output", default=None, help="write report to file")


@cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="starcurves",
        description="Certify dimensions of loci of plane curves containing "
                    "star configurations.")
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("verify", help="verify a single (d, l) pair")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--paper-forms", action="store_true",
                   help="use the fixed published forms (l = 5 or 6)")
    p.add_argument("-v", "--verbose", action="store_true")
    add_report_flags(p)
    p.set_defaults(func=cmd_verify)

    p = commands.add_parser("sweep", help="verify every pair in a range")
    p.add_argument("--dmax", type=int, required=True)
    p.add_argument("--lmax", type=int, required=True)
    p.add_argument("--include-empty", action="store_true",
                   help="also report the d < l - 1 rows")
    p.add_argument("-v", "--verbose", action="store_true")
    add_report_flags(p)
    p.set_defaults(func=cmd_sweep)

    p = commands.add_parser("paper-examples",
                       help="reproduce the published explicit computations")
    add_field_flags(p)
    p.set_defaults(func=cmd_paper_examples)

    p = commands.add_parser("pn", help="P^n conjecture experiments")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dmax", type=int, required=True)
    p.add_argument("--lmax", type=int, required=True)
    add_report_flags(p)
    p.set_defaults(func=cmd_pn)

    p = commands.add_parser("hilbert",
                       help="Hilbert function table vs the closed formula")
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--tmax", type=int, default=10)
    add_field_flags(p)
    p.set_defaults(func=cmd_hilbert)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:
        print("error: out of memory at this size; try a smaller d or l",
              file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
