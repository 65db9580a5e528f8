import csv
import io
import json

import pytest

from starcurves.cli import main


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
    with pytest.raises(SystemExit):
        main(["sweep", "--dmax", "0", "--lmax", "1"])


def test_sweep_json_format(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--dmax", "3", "--lmax", "3",
                           "--trials", "1", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert all(r["verdict"] == "CERTIFIED" for r in rows)


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
    with pytest.raises(SystemExit):
        main(["pn", "--n", "1", "--dmax", "3", "--lmax", "3"])


def test_hilbert_table(capsys):
    code, out, err = run_cli(capsys, "hilbert", "--l", "4", "--tmax", "4")
    assert code == 0
    assert "agreement: yes" in err


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


def inflate_lower_bounds(monkeypatch, by):
    """Make every lower bound `by` above its true value."""
    import starcurves.pnstar as pnstar
    import starcurves.tangent as tangent

    real = tangent.lower_bound_dim_S

    def inflated(*args, **kwargs):
        result = real(*args, **kwargs)
        result.lower_bound += by
        return result

    monkeypatch.setattr(tangent, "lower_bound_dim_S", inflated)
    monkeypatch.setattr(pnstar, "lower_bound_dim_S", inflated)


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
