"""Acceptance suite: one test per exit criterion, each printing a
pass/fail line.  All checks are exact; run with ``pytest -s`` to see the
per-criterion report."""

import random
import time
from math import comb

from starcurves.fields import PrimeField, QQ
from starcurves.formulas import closed_form_dimension, upper_bounds
from starcurves.pnstar import conjecture_row
from starcurves.reference_cases import (block_matrix_rank,
                                        luroth_case_dimension,
                                        six_line_matrix_rank)
from starcurves.starconfig import random_star
from starcurves.tangent import (certify, generators, ideal_component_dim,
                                random_multipliers, tangent_dim_direct,
                                tangent_dim_points)

GF = PrimeField()


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {status}  {name}" + (f"  ({detail})" if detail else ""))
    assert ok, f"criterion {num} failed: {name} {detail}"


def test_criterion_1_luroth_case():
    start = time.monotonic()
    dim = luroth_case_dimension(QQ)
    cert = certify(4, 5, QQ, trials=1, seed=0)
    elapsed = time.monotonic() - start
    ok = dim == 14 and cert.verdict == "CERTIFIED" and cert.lower_bound == 13
    report(1, "quartic case: dim_k I_4 = 14, dim locus = 13 certified",
           ok and elapsed < 1.0, f"dim={dim}, {elapsed:.2f}s")


def test_criterion_2_twelve_by_twelve_ranks():
    start = time.monotonic()
    r5 = six_line_matrix_rank(QQ, 5)
    t5 = time.monotonic() - start
    start = time.monotonic()
    r6 = six_line_matrix_rank(QQ, 6)
    t6 = time.monotonic() - start
    ok = r5 == 12 and r6 == 12 and t5 < 1.0 and t6 < 1.0
    report(2, "six-line 12x12 evaluation matrix has rank 12 at d=5 and d=6",
           ok, f"ranks {r5}/{r6}, {t5:.2f}s/{t6:.2f}s")


def test_criterion_3_block_case():
    start = time.monotonic()
    rank = block_matrix_rank(QQ, 7, 6)
    lower = certify(6, 7, GF, trials=3, seed=0).lower_bound
    elapsed = time.monotonic() - start
    ok = rank == 14 and lower == 20 and elapsed < 5.0
    report(3, "seven-line 14x14 block matrix rank 14; lower bound 20",
           ok, f"rank={rank}, lower={lower}, {elapsed:.2f}s")


def test_criterion_4_full_sweep():
    start = time.monotonic()
    gaps = []
    for l in range(2, 8):
        for d in range(l - 1, 10):
            cert = certify(d, l, GF, trials=3, seed=0)
            expected = closed_form_dimension(d, l)
            if cert.verdict != "CERTIFIED" or cert.lower_bound != expected:
                gaps.append((d, l, cert.verdict, cert.lower_bound, expected))
    elapsed = time.monotonic() - start
    report(4, "desk-scale sweep 2<=l<=7, l-1<=d<=9: all CERTIFIED",
           not gaps and elapsed < 120.0, f"gaps={gaps}, {elapsed:.1f}s")


def test_criterion_5_emptiness():
    bad = []
    for l in range(2, 8):
        star = random_star(l, 100 + l, GF)
        for d in range(0, l - 1):
            cert = certify(d, l, GF)
            ideal_dim = ideal_component_dim(generators(star), d)
            if cert.verdict != "EMPTY" or ideal_dim != 0:
                bad.append((d, l, cert.verdict, ideal_dim))
    report(5, "d < l-1: verdict EMPTY and the configuration ideal is "
              "zero in degree d", not bad, f"bad={bad}")


def test_criterion_6_hilbert_function_suite():
    start = time.monotonic()
    from starcurves.starconfig import hilbert_function
    bad = []
    for l in range(2, 9):
        for rep in range(5):
            star = random_star(l, 1000 * l + rep, GF)
            for t in range(11):
                hf = hilbert_function(star, t)
                expected = min(comb(t + 2, 2), comb(l, 2))
                if hf != expected:
                    bad.append((l, t, rep, hf, expected))
    elapsed = time.monotonic() - start
    report(6, "Hilbert function equals min{C(t+2,2), C(l,2)} for l<=8, "
              "t<=10, 5 configurations each",
           not bad and elapsed < 30.0, f"bad={bad}, {elapsed:.1f}s")


def test_criterion_7_algorithm_cross_check():
    rng = random.Random(777)
    mismatches = []
    for _ in range(100):
        l = rng.randint(2, 7)
        d = rng.randint(l - 1, 9)
        star = random_star(l, rng.randrange(2**30), GF)
        mult = random_multipliers(star, d, rng)
        a = tangent_dim_direct(star, d, mult)
        b = tangent_dim_points(star, d, mult)
        if a != b:
            mismatches.append((l, d, a, b))
    report(7, "coefficient-matrix and point-evaluation algorithms agree "
              "on 100 random problems", not mismatches,
           f"mismatches={mismatches}")


def test_criterion_8_nondominance_stability():
    dims = set()
    for trial in range(50):
        star = random_star(5, 5000 + trial, GF)
        mult = random_multipliers(star, 4, random.Random(9000 + trial))
        dims.add(tangent_dim_direct(star, 4, mult))
    report(8, "quartic case tangent dimension is 14 in all 50 trials, "
              "never 15", dims == {14}, f"observed={sorted(dims)}")


def test_criterion_9_pn_extension():
    start = time.monotonic()
    mismatch = []
    for l in range(2, 7):
        for d in range(l - 1, 9):
            a = certify(d, l, GF, trials=1, seed=11, n=2).lower_bound
            b = certify(d, l, GF, trials=1, seed=11).lower_bound
            if a != b:
                mismatch.append((d, l, a, b))
    violations = []
    rows = []
    for l in range(3, 6):
        for d in range(max(l - 1, l - 3 + 1), 7):
            lower = certify(d, l, GF, trials=1, seed=13, n=3).lower_bound
            formula = min(v for _, v in upper_bounds(d, l, 3))
            if lower > formula:
                violations.append((d, l, lower, formula))
            rows.append(conjecture_row(3, d, l, GF, trials=1, seed=13))
    elapsed = time.monotonic() - start
    for r in rows:
        print(f"  conjecture n={r['n']} d={r['d']} l={r['l']}: "
              f"lower={r['lower_bound']} formula={r['formula_min']} "
              f"{r['status']}")
    report(9, "P^3 lower bounds respect the closed-form bound; n=2 "
              "specialization matches the plane computation",
           not mismatch and not violations and elapsed < 120.0,
           f"mismatch={mismatch}, violations={violations}, {elapsed:.1f}s")
