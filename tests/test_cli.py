import csv
import gc
import io
import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

import starcurves.tangent as tangent_mod
from starcurves.cli import certificate_row, exit_status, main
from starcurves.fields import DEFAULT_PRIME, PrimeField
from starcurves.pnstar import conjecture_row
from starcurves.tangent import certify, trial_seed


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def strip_elapsed(csv_text):
    rows = list(csv.DictReader(io.StringIO(csv_text)))
    for r in rows:
        r.pop("elapsed_ms")
    return rows


def test_verify_paper_forms_quartic(capsys):
    code, out, err = run_cli(capsys, "verify", "--d", "4", "--l", "5",
                             "--field", "rational", "--trials", "1",
                             "--paper-forms", "--format", "csv")
    assert code == 0
    rows = strip_elapsed(out)
    assert rows[0]["lower_bound"] == "13"
    assert rows[0]["theorem_value"] == "13"
    assert rows[0]["verdict"] == "CERTIFIED"
    assert "CERTIFIED" in err


def test_verify_empty(capsys):
    code, out, err = run_cli(capsys, "verify", "--d", "3", "--l", "5",
                             "--format", "csv")
    assert code == 0
    assert strip_elapsed(out)[0]["verdict"] == "EMPTY"


def test_verify_seeded_prime(capsys):
    code, out, _ = run_cli(capsys, "verify", "--d", "7", "--l", "7",
                           "--prime", "1073741789", "--trials", "3",
                           "--seed", "42", "--format", "csv")
    assert code == 0
    row = strip_elapsed(out)[0]
    assert row["theorem_value"] == "28"   # C(9,2) - C(7,2) + 13
    assert row["verdict"] == "CERTIFIED"


def test_verify_gap_exit_status(capsys, monkeypatch):
    import starcurves.cli as cli_mod

    def broken(*args, **kwargs):
        from starcurves.tangent import DimensionCertificate
        return DimensionCertificate(5, 6, {"field": "prime"}, [0], 0, 17,
                                    [("ambient", 20)], "GAP")

    monkeypatch.setattr(cli_mod, "certify", broken)
    code, _, _ = run_cli(capsys, "verify", "--d", "5", "--l", "6")
    assert code == 1


def test_out_of_memory_is_one_error_line(capsys, monkeypatch):
    """Running out of memory, as the dense multiplier draw of
    `verify --d 100000 --l 3` does, exits 2 with one `error:` line that
    names the cause and suggests a smaller size, not a traceback."""
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(tangent_mod, "random_multipliers", exhausted)
    code, out, err = run_cli(capsys, "verify", "--d", "4", "--l", "5",
                             "--trials", "1")
    assert (code, out) == (2, "")
    assert err == "error: out of memory at this size; try a smaller d or l\n"


def test_sweep_csv_deterministic(capsys):
    args = ("sweep", "--dmax", "4", "--lmax", "4", "--trials", "1",
            "--seed", "7", "--format", "csv")
    code1, out1, err1 = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert strip_elapsed(out1) == strip_elapsed(out2)
    assert "0 GAP" in err1


def test_sweep_includes_quartic_row(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--dmax", "4", "--lmax", "5",
                           "--trials", "2", "--format", "csv")
    assert code == 0
    rows = strip_elapsed(out)
    q = [r for r in rows if r["d"] == "4" and r["l"] == "5"]
    assert q and q[0]["theorem_value"] == "13"


def test_sweep_empty_range_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--dmax", "0", "--lmax", "1"])
    assert exc.value.code == 2


def test_sweep_json_format(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--dmax", "3", "--lmax", "3",
                           "--trials", "1", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert all(r["verdict"] == "CERTIFIED" for r in rows)


def count_draws(monkeypatch):
    """Record (l, seed, n) of every `random_star` call made for a lower
    bound."""
    real, calls = tangent_mod.random_star, []

    def counting(l, seed, field, n=2):
        calls.append((l, seed, n))
        return real(l, seed, field, n)

    monkeypatch.setattr(tangent_mod, "random_star", counting)
    return calls


@pytest.mark.parametrize("prime", [DEFAULT_PRIME, 7])
def test_sweep_draws_each_star_once(capsys, monkeypatch, prime):
    """l = 7 has only EMPTY rows and draws nothing; every other (l, trial)
    is drawn once, and the rows are those of separate `certify` calls."""
    calls = count_draws(monkeypatch)
    code, out, _ = run_cli(capsys, "sweep", "--dmax", "5", "--lmax", "7",
                           "--trials", "2", "--include-empty", "--seed", "3",
                           "--prime", str(prime), "--format", "json")
    assert calls == [(l, trial_seed(3, t), 2) for l in range(2, 7)
                     for t in range(2)]
    rows = json.loads(out)
    assert len(rows) == 6 * 6
    fld = PrimeField(prime)
    for r in rows:
        cert = certify(r["d"], r["l"], fld, trials=2, seed=3)
        assert r == certificate_row(cert, fld, 3, r["elapsed_ms"])
    assert code == exit_status(r["verdict"] for r in rows)


def test_pn_draws_each_star_once(capsys, monkeypatch):
    calls = count_draws(monkeypatch)
    code, out, _ = run_cli(capsys, "pn", "--n", "3", "--dmax", "7",
                           "--lmax", "6", "--trials", "2", "--seed", "4",
                           "--format", "json")
    assert code == 0
    assert calls == [(l, trial_seed(4, t), 3) for l in range(3, 7)
                     for t in range(2)]
    fld = PrimeField(DEFAULT_PRIME)
    rows = json.loads(out)
    assert [(r["d"], r["l"]) for r in rows] == [
        (d, l) for l in range(3, 7) for d in range(l - 1, 8)]
    for r in rows:
        assert r == conjecture_row(3, r["d"], r["l"], fld, trials=2, seed=4)


def test_star_reuse_ends_with_the_command(capsys, monkeypatch):
    calls = count_draws(monkeypatch)
    args = ("sweep", "--dmax", "5", "--lmax", "4", "--trials", "2")
    run_cli(capsys, *args)
    first = list(calls)
    run_cli(capsys, *args)
    assert len(first) == 3 * 2 and calls == first + first


def test_sweep_frees_the_stars_of_each_l(capsys, monkeypatch):
    """A sweep holds the stars of one l at a time: when the rows of l + 1
    start, those of l are freed."""
    import starcurves.cli as cli_mod

    real, refs, alive = cli_mod.run_one, {}, []

    def recording(*args):
        l = args[1]
        refs.setdefault(l, weakref.ref(args[6]))
        alive.extend(k for k, ref in refs.items() if k < l and ref())
        return real(*args)

    monkeypatch.setattr(cli_mod, "run_one", recording)
    run_cli(capsys, "sweep", "--dmax", "5", "--lmax", "5", "--trials", "1")
    assert sorted(refs) == [2, 3, 4, 5] and alive == []


def test_verbose_after_a_quiet_run_in_one_process(capsys):
    """-v lists each trial's tangent dimension on stderr, also when an
    earlier call in the same process ran without it."""
    args = ("verify", "--d", "5", "--l", "6", "--trials", "2")
    _, _, quiet = run_cli(capsys, *args)
    _, _, loud = run_cli(capsys, *args, "-v")
    assert quiet == "verdict: CERTIFIED\n"
    assert loud == ("DEBUG (d=5, l=6) trial seed 0: tangent dimension 18\n"
                    "DEBUG (d=5, l=6) trial seed 1: tangent dimension 18\n"
                    "verdict: CERTIFIED\n")


def test_paper_examples_pass(capsys):
    code, out, _ = run_cli(capsys, "paper-examples", "--field", "rational")
    assert code == 0
    assert out.count("PASS") == 4
    assert "FAIL" not in out


def test_pn_specialization_rows(capsys):
    code, out, _ = run_cli(capsys, "pn", "--n", "2", "--dmax", "4",
                           "--lmax", "4", "--trials", "1", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows and all(r["status"] == "CONFIRMED" for r in rows)


def test_pn_invalid_dimension(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["pn", "--n", "1", "--dmax", "3", "--lmax", "3"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv, message", [
    (("verify", "--d", "3", "--l", "3", "--prime", "4"), "4 is not prime"),
    (("verify", "--d", "6", "--l", "7", "--paper-forms"),
     "--paper-forms only available for l = 5 or 6"),
    (("sweep", "--dmax", "0", "--lmax", "1"), "empty sweep range"),
    (("pn", "--n", "1", "--dmax", "3", "--lmax", "3"),
     "ambient dimension n must be at least 2"),
    (("pn", "--n", "5", "--dmax", "0", "--lmax", "5"), "empty range"),
    (("hilbert", "--l", "4", "--tmax", "-1"), "empty range"),
    # an empty range is reported before the arc bound, as in sweep
    (("pn", "--n", "3", "--dmax", "1", "--lmax", "9", "--prime", "3"),
     "empty range"),
])
def test_usage_errors_exit_2(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: {message}\n"


#: Commands that read none of the report flags, crossed with those flags;
#: and pn, which reads all but -v.
REFUSED_FLAGS = {
    f"command{i}-flag{j}": (command, flag)
    for i, command in enumerate([("hilbert", "--l", "4"), ("paper-examples",)])
    for j, flag in enumerate([("--trials", "2"), ("--format", "json"),
                              ("--output", "report.txt"), ("-v",)])}
REFUSED_FLAGS["command2-flag3"] = (("pn", "--n", "3", "--dmax", "3",
                                    "--lmax", "3"), ("-v",))


@pytest.mark.parametrize("command, flag", REFUSED_FLAGS.values(),
                         ids=REFUSED_FLAGS.keys())
def test_report_flags_refused_where_ignored(capsys, command, flag):
    """Only verify, sweep and pn read --trials, --format and --output, and
    only verify and sweep read -v; the other commands refuse them instead
    of ignoring them."""
    with pytest.raises(SystemExit) as exc:
        main([*command, *flag])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert f"unrecognized arguments: {' '.join(flag)}" in out.err


def test_second_command_leaves_little_garbage(capsys):
    """The parser is built once per process, so a command run after the
    first leaves few reference cycles (those of json's indenting encoder)
    for the cyclic collector."""
    argv = ["verify", "--d", "4", "--l", "5", "--format", "json"]
    main(argv)
    gc.collect()
    gc.garbage.clear()
    flags = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        main(argv)
        gc.collect()
        left = len(gc.garbage)
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
    capsys.readouterr()
    assert left < 100


@pytest.mark.parametrize("target, reason", [
    (".", "Is a directory"),
    ("missing/x.csv", "No such file or directory"),
], ids=["directory", "missing-parent"])
def test_unwritable_output_is_a_usage_error(tmp_path, target, reason):
    """A report path that cannot be written ends with one error line and
    exit status 2, not a traceback and the GAP status."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "starcurves.cli", "verify", "--d", "2",
         "--l", "2", "--output", target],
        cwd=tmp_path, env=env, capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"error: cannot write report to {target}: {reason}\n"
    assert "Traceback" not in proc.stderr


def test_cli_import_loads_no_dataclasses_or_inspect():
    """Importing the CLI in a bare interpreter (`-S`, so no site hooks)
    pulls in neither `dataclasses` nor `inspect`, whose imports (with
    `ast`, `dis` and `tokenize`) were a fifth of the start-up time."""
    src = str(Path(__file__).parents[1] / "src")
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import starcurves.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code, src],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def count_rows(monkeypatch, name):
    """Record the arguments of every call of the `cli` row function."""
    import starcurves.cli as cli_mod

    real, calls = getattr(cli_mod, name), []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli_mod, name, counting)
    return calls


def test_pn_refuses_lmax_past_arc_bound_before_any_row(capsys, monkeypatch):
    calls = count_rows(monkeypatch, "conjecture_row")
    code, out, err = run_cli(capsys, "pn", "--n", "3", "--dmax", "6",
                             "--lmax", "6", "--prime", "3", "--trials", "1")
    assert code == 2
    assert calls == []
    assert out == ""
    assert "arc bound" in err


def test_pn_arc_bound_ignores_rows_it_cannot_reach(capsys, monkeypatch):
    """With dmax = 4 no row has l > 5, so lmax = 8 over GF(3) in P^3 gives
    the rows of lmax = 5 and draws no larger star."""
    calls = count_draws(monkeypatch)
    argv = ("pn", "--n", "3", "--dmax", "4", "--prime", "3", "--trials", "1")
    code, out, err = run_cli(capsys, *argv, "--lmax", "8")
    assert code == 0 and err == ""
    assert calls and max(l for l, _, _ in calls) == 5
    assert (code, out) == run_cli(capsys, *argv, "--lmax", "5")[:2]


def test_pn_n2_is_the_plane(capsys):
    """pn --n 2 and sweep read the same lower bounds; the pn formula is the
    least bound from no outside fact, so only the Luroth pair differs."""
    args = ("--dmax", "7", "--lmax", "7", "--trials", "1", "--seed", "2",
            "--format", "json")
    pn_rows = json.loads(run_cli(capsys, "pn", "--n", "2", *args)[1])
    sweep_rows = json.loads(run_cli(capsys, "sweep", *args)[1])
    assert [(r["d"], r["l"]) for r in pn_rows] == \
        [(r["d"], r["l"]) for r in sweep_rows]
    for pn, sweep in zip(pn_rows, sweep_rows):
        assert pn["lower_bound"] == sweep["lower_bound"]
        if (pn["d"], pn["l"]) == (4, 5):
            assert (pn["formula_min"], pn["status"]) == (14, "OPEN")
            assert (sweep["min_upper_bound"], sweep["verdict"]) == \
                (13, "CERTIFIED")
        else:
            assert pn["formula_min"] == sweep["min_upper_bound"]


@pytest.mark.parametrize("command", [
    ("verify", "--d", "4", "--l", "5"),
    ("sweep", "--dmax", "4", "--lmax", "4"),
    ("pn", "--n", "3", "--dmax", "4", "--lmax", "4"),
    ("paper-examples",),
    ("hilbert", "--l", "4"),
], ids=lambda command: command[0])
def test_prime_refused_over_the_rationals(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([*command, "--field", "rational", "--prime", "7"])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: --prime applies only to --field prime\n"


def test_sweep_refuses_lmax_past_arc_bound_before_any_row(capsys,
                                                          monkeypatch):
    calls = count_rows(monkeypatch, "run_one")
    code, out, err = run_cli(capsys, "sweep", "--dmax", "6", "--lmax", "5",
                             "--trials", "3", "--prime", "3")
    assert code == 2
    assert calls == []
    assert out == ""
    assert err == ("error: no l = 5 hyperplanes of P^2 over GF(3) are in "
                   "general position (at most 4, the arc bound); use a "
                   "smaller l or a larger prime\n")


def test_sweep_arc_bound_ignores_empty_rows(capsys):
    """Past d = l - 2 every row of l is EMPTY and draws no star, so l = 4
    and 5 over GF(3) are reported at dmax = 2."""
    code, out, err = run_cli(capsys, "sweep", "--dmax", "2", "--lmax", "5",
                             "--prime", "3", "--include-empty",
                             "--format", "json")
    assert code == 0
    verdicts = [r["verdict"] for r in json.loads(out)]
    assert verdicts.count("EMPTY") == 9 and len(verdicts) == 12
    assert "summary: 3 CERTIFIED, 0 GAP, 9 EMPTY" in err


def test_hilbert_table(capsys):
    code, out, err = run_cli(capsys, "hilbert", "--l", "4", "--tmax", "4")
    assert code == 0
    assert "agreement: yes" in err


@pytest.mark.parametrize("field", [("--prime", "7"), ("--field", "rational")])
def test_hilbert_huge_tmax(capsys, field):
    """Past saturation a row costs no monomial basis, so a huge range ends."""
    code, out, err = run_cli(capsys, "hilbert", "--l", "6", "--tmax", "3000",
                             *field)
    assert code == 0
    assert out.splitlines()[-1].split() == ["3000", "15", "15"]
    assert err == "agreement: yes\n"


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["verify"])   # missing required flags
    assert exc.value.code == 2


def test_env_prime_override(capsys, monkeypatch):
    monkeypatch.setenv("STARCONFIG_PRIME", "1073741827")
    code, out, _ = run_cli(capsys, "verify", "--d", "2", "--l", "3",
                           "--trials", "1", "--format", "json")
    assert code == 0
    assert json.loads(out)[0]["field"] == "GF(1073741827)"


@pytest.mark.parametrize("value", ["abc", ""])
def test_env_prime_not_an_integer(capsys, monkeypatch, value):
    monkeypatch.setenv("STARCONFIG_PRIME", value)
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--d", "2", "--l", "3", "--trials", "1"])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == (f"error: STARCONFIG_PRIME must be an integer, got "
                       f"{value!r}\n")


@pytest.mark.parametrize("value, code", [("1073741827", 0), ("4", 2)])
def test_env_prime_tested_once(capsys, monkeypatch, value, code):
    """The prime, here from the environment, goes through Miller-Rabin once,
    in `PrimeField`, whose refusal of a composite is the usage error."""
    import starcurves.cli as cli_mod
    import starcurves.fields as fields_mod
    calls, real = [], fields_mod.is_prime

    def counted(n):
        calls.append(n)
        return real(n)

    monkeypatch.setattr(fields_mod, "is_prime", counted)
    # `cli` holds no name of its own for it; one imported by name counts too
    monkeypatch.setattr(cli_mod, "is_prime", counted, raising=False)
    monkeypatch.setenv("STARCONFIG_PRIME", value)
    try:
        assert main(["verify", "--d", "2", "--l", "3", "--trials", "1"]) == 0
    except SystemExit as exc:
        assert exc.code == code
        assert capsys.readouterr().err == f"error: {value} is not prime\n"
    assert calls == [int(value)]


def test_output_file(tmp_path, capsys):
    target = tmp_path / "report.csv"
    code, out, _ = run_cli(capsys, "verify", "--d", "2", "--l", "3",
                           "--trials", "1", "--format", "csv",
                           "--output", str(target))
    assert code == 0
    assert target.exists()
    assert "CERTIFIED" in target.read_text()


@pytest.mark.parametrize("argv, l, n, q", [
    (("verify", "--d", "5", "--l", "6", "--prime", "3"), 6, 2, 3),
    (("verify", "--d", "5", "--l", "5", "--prime", "2"), 5, 2, 2),
    (("hilbert", "--l", "12", "--prime", "5"), 12, 2, 5),
    (("pn", "--n", "3", "--dmax", "6", "--lmax", "6", "--prime", "3"), 6, 3, 3),
])
def test_lines_past_arc_bound_rejected(capsys, argv, l, n, q):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert f"l = {l} hyperplanes of P^{n} over GF({q})" in err
    assert "arc bound" in err


@pytest.mark.parametrize("argv, key, value", [
    (("verify", "--d", "8", "--l", "7", "--prime", "7"), "verdict",
     "CERTIFIED"),
    (("pn", "--n", "3", "--dmax", "9", "--lmax", "8", "--prime", "7"),
     "status", "CONFIRMED"),
])
def test_small_field_below_arc_bound_completes(capsys, argv, key, value):
    """Every random draw of l = 7 lines over GF(7) at seed 0 fails, and so
    does every draw of 7 and 8 planes of P^3; the hyperplanes dual to the
    normal rational curve serve."""
    code, out, _ = run_cli(capsys, *argv, "--trials", "1", "--format",
                           "json")
    rows = json.loads(out)
    assert code == 0 and rows and all(r[key] == value for r in rows)


@pytest.mark.parametrize("n, lmax", [(4, 6), (5, 7)])
def test_pn_over_gf2_at_the_arc_bound(capsys, n, lmax):
    """n + 2 hyperplanes of P^n over GF(2) are in general position (a
    frame), though random draws of them mostly fail."""
    code, out, err = run_cli(capsys, "pn", "--n", str(n), "--dmax",
                             str(lmax), "--lmax", str(lmax), "--prime", "2",
                             "--trials", "1", "--format", "json")
    rows = json.loads(out)
    assert code == 0 and err == ""
    assert {r["l"] for r in rows} == set(range(n, lmax + 1))


@pytest.mark.parametrize("argv", [
    ("paper-examples", "--prime", "5"),
    ("verify", "--d", "5", "--l", "6", "--prime", "5", "--paper-forms"),
])
def test_published_lines_not_general_over_small_prime(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert err == ("error: the published lines L1, L2, L6 are not in general "
                   "position over GF(5); use --field rational or another "
                   "prime\n")


def test_verify_frontier_certified(capsys):
    code, out, _ = run_cli(capsys, "verify", "--d", "60", "--l", "30",
                           "--trials", "1", "--format", "csv")
    assert code == 0
    row = strip_elapsed(out)[0]
    assert row["lower_bound"] == row["theorem_value"] == "1515"
    assert row["verdict"] == "CERTIFIED"


def inflate_lower_bounds(monkeypatch, by):
    """Make every lower bound `by` above its true value: each trial's
    tangent dimension D gives the lower bound D - 1."""
    import starcurves.tangent as tangent

    real = tangent.tangent_dim_points

    def inflated(*args, **kwargs):
        return real(*args, **kwargs) + by

    monkeypatch.setattr(tangent, "tangent_dim_points", inflated)


def test_verify_contradiction_exit_status(capsys, monkeypatch):
    inflate_lower_bounds(monkeypatch, 1)
    code, out, err = run_cli(capsys, "verify", "--d", "5", "--l", "6",
                             "--trials", "1", "--format", "csv")
    assert code == 3
    assert strip_elapsed(out)[0]["verdict"] == "CONTRADICTION"
    assert "verdict: CONTRADICTION" in err


def test_sweep_contradiction_exit_status(capsys, monkeypatch):
    args = ("sweep", "--dmax", "3", "--lmax", "3", "--trials", "1",
            "--include-empty", "--format", "csv")
    code, _, err = run_cli(capsys, *args)
    assert code == 0
    assert err == "summary: 5 CERTIFIED, 0 GAP, 3 EMPTY\n"
    inflate_lower_bounds(monkeypatch, 1)
    code, out, err = run_cli(capsys, *args)
    assert code == 3
    assert err == "summary: 0 CERTIFIED, 0 GAP, 3 EMPTY, 5 CONTRADICTION\n"
    assert {r["verdict"] for r in strip_elapsed(out)} == \
        {"EMPTY", "CONTRADICTION"}


def test_pn_contradiction_exit_status(capsys, monkeypatch):
    inflate_lower_bounds(monkeypatch, 1)
    code, out, _ = run_cli(capsys, "pn", "--n", "3", "--dmax", "4",
                           "--lmax", "4", "--trials", "1", "--format", "csv")
    assert code == 3
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows and all(r["status"] == "CONTRADICTION" for r in rows)


@pytest.mark.parametrize("d, l", [(2, 5), (5, 2)])
def test_verify_refuses_zero_trials_on_every_row(capsys, d, l):
    """(2, 5) is an EMPTY row, which draws nothing; the flag value is a
    usage error there too, not only where a star is drawn."""
    code, out, err = run_cli(capsys, "verify", "--d", str(d), "--l", str(l),
                             "--trials", "0")
    assert (code, out, err) == (2, "", "error: need at least one trial\n")


def test_sweep_refuses_zero_trials_before_any_row(capsys, monkeypatch):
    """The first rows of this sweep are EMPTY; none is computed."""
    import starcurves.cli as cli_mod

    real, certified = cli_mod.certify, []

    def counting(*args, **kwargs):
        certified.append(real(*args, **kwargs))
        return certified[-1]

    monkeypatch.setattr(cli_mod, "certify", counting)
    code, out, err = run_cli(capsys, "sweep", "--dmax", "3", "--lmax", "20",
                             "--include-empty", "--trials", "0")
    assert (code, out, err) == (2, "", "error: need at least one trial\n")
    assert certified == []
