"""Exact CLI output at fixed seeds, pinned in `tests/golden/`.

A change that only makes the program faster must leave every byte of a
report alone, apart from the `elapsed_ms` timings, which are masked.
"""

import re
from pathlib import Path

import pytest

from starcurves.cli import main

GOLDEN = Path(__file__).parent / "golden"

COMMANDS = {
    "verify_d12_l9_rational_json": ["verify", "--d", "12", "--l", "9",
                                    "--field", "rational", "--trials", "1",
                                    "--format", "json"],
    "paper_examples_rational": ["paper-examples", "--field", "rational"],
    "paper_examples_prime": ["paper-examples"],
    "paper_examples_prime13": ["paper-examples", "--prime", "13"],
    "hilbert_l8_t10_rational": ["hilbert", "--l", "8", "--tmax", "10",
                                "--field", "rational"],
    "hilbert_l16_t20_prime": ["hilbert", "--l", "16", "--tmax", "20"],
    "hilbert_l30_t31_prime": ["hilbert", "--l", "30", "--tmax", "31"],
    "hilbert_l8_t10_prime13": ["hilbert", "--l", "8", "--tmax", "10",
                               "--prime", "13"],
    # over GF(13) at seed 0 every random draw of l = 9 lines fails, and the
    # lines dual to a conic serve
    "hilbert_l9_t10_prime13": ["hilbert", "--l", "9", "--tmax", "10",
                               "--prime", "13"],
    "hilbert_l8_t9_prime_2p89m1": ["hilbert", "--l", "8", "--tmax", "9",
                                   "--prime", str(2**89 - 1)],
    "pn_n3_d7_l6_rational": ["pn", "--n", "3", "--dmax", "7", "--lmax", "6",
                             "--field", "rational", "--trials", "1"],
    "sweep_d13_l10_prime_json": ["sweep", "--dmax", "13", "--lmax", "10",
                                 "--trials", "1", "--format", "json"],
    "pn_n3_d8_l6_prime_json": ["pn", "--n", "3", "--dmax", "8", "--lmax", "6",
                               "--trials", "1", "--format", "json"],
    "pn_n4_d7_l6_prime_json": ["pn", "--n", "4", "--dmax", "7", "--lmax", "6",
                               "--trials", "1", "--format", "json"],
    "pn_n5_d8_l8_prime_json": ["pn", "--n", "5", "--dmax", "8", "--lmax", "8",
                               "--trials", "1", "--format", "json"],
    "pn_n4_d7_l7_rational": ["pn", "--n", "4", "--dmax", "7", "--lmax", "7",
                             "--field", "rational", "--trials", "1"],
    "pn_n2_d7_l7_prime_json": ["pn", "--n", "2", "--dmax", "7", "--lmax", "7",
                               "--trials", "1", "--format", "json"],
    "pn_n3_d13_l12_prime_json": ["pn", "--n", "3", "--dmax", "13",
                                 "--lmax", "12", "--trials", "1",
                                 "--format", "json"],
    "verify_d30_l20_rational_json": ["verify", "--d", "30", "--l", "20",
                                     "--field", "rational", "--trials", "1",
                                     "--format", "json"],
    # the six published lines: unit multipliers at d = 5, random at d = 7
    **{f"verify_d{d}_l6_paper_{tag}_json":
       ["verify", "--d", str(d), "--l", "6", "--paper-forms", *flags,
        "--trials", "2", "--format", "json"]
       for d in (5, 7)
       for tag, flags in (("rational", ["--field", "rational"]),
                          ("prime13", ["--prime", "13"]))},
}


def mask_elapsed(text):
    return re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": _', text)


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_output_matches_golden(capsys, name):
    code = main(COMMANDS[name] + ["--seed", "0"])
    out = capsys.readouterr().out
    assert code == 0
    expected = (GOLDEN / f"{name}.txt").read_text()
    assert mask_elapsed(out) == mask_elapsed(expected)
