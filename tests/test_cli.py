import csv
import json
import re

import pytest

import randlab.cli
from randlab.cli import main


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strip_timing(text):
    return "\n".join(line for line in text.splitlines() if not line.startswith("timing_s"))


def test_audit_additivity_pass(capsys):
    code, out, _ = run_cli(capsys, "audit", "--measure", "bernoulli:1/3", "--check", "additivity", "--depth", "12")
    assert code == 0
    assert "check additivity@12: pass" in out


def test_audit_ville(capsys):
    code, out, _ = run_cli(
        capsys,
        "audit",
        "--measure", "fair",
        "--martingale", "quotient:bernoulli:2/3/fair",
        "--check", "ville",
        "--n", "12",
        "--c", "4",
    )
    assert code == 0
    match = re.search(r"fraction=(\d+)/(\d+) bound=1/4", out)
    assert match
    num, den = int(match.group(1)), int(match.group(2))
    assert 4 * num <= den


def test_audit_ville_thresholds_share_one_sweep(capsys, monkeypatch):
    sweeps = []
    real = randlab.cli.ville_audit
    monkeypatch.setattr(randlab.cli, "ville_audit", lambda *a, **k: sweeps.append(a) or real(*a, **k))
    head = ["audit", "--measure", "fair", "--martingale", "quotient:bernoulli:2/3/fair", "--check", "ville", "--n", "8"]
    code, out, _ = run_cli(capsys, *head, "--c", "2,4,8")
    assert code == 0 and len(sweeps) == 1
    lines = [line for line in out.splitlines() if line.startswith("check ville")]
    singles = []
    for c in ("2", "4", "8"):
        _, single, _ = run_cli(capsys, *head, "--c", c)
        singles += [line for line in single.splitlines() if line.startswith("check ville")]
    assert len(lines) == 3 and lines == singles


@pytest.mark.parametrize("check", ["additivity", "fairness", "savings", "ville"])
def test_audit_depth_cap_exit_code(capsys, monkeypatch, check):
    monkeypatch.setenv("RANDLAB_DEPTH_LIMIT", "4")
    head = ["audit", "--measure", "fair", "--martingale", "quotient:bernoulli:2/3/fair", "--check", check]
    code, _, err = run_cli(capsys, *head, "--depth", "8", "--n", "8")
    assert code == 3
    assert "exceeds cap 4" in err
    code, out, _ = run_cli(capsys, *head, "--depth", "4", "--n", "4")
    assert code == 0, out


@pytest.mark.parametrize("value", ["abc", "-1"])
def test_bad_depth_limit_is_a_usage_error(capsys, monkeypatch, value):
    monkeypatch.setenv("RANDLAB_DEPTH_LIMIT", value)
    code, _, err = run_cli(capsys, "audit", "--measure", "fair", "--check", "additivity", "--depth", "2")
    assert code == 2
    assert "RANDLAB_DEPTH_LIMIT must be a nonnegative integer" in err


def test_audit_bad_table_fails(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"start": "1/1", "entries": {"0": "2/1", "1": "2/1"}}))
    code, out, _ = run_cli(
        capsys,
        "audit",
        "--measure", "fair",
        "--martingale", f"table:{path}",
        "--check", "fairness",
        "--depth", "4",
    )
    assert code == 1
    assert "FAIL" in out and "violation" in out


def test_audit_parse_error(capsys):
    code, _, err = run_cli(capsys, "audit", "--measure", "wat:1")
    assert code == 2
    assert "usage error" in err


def test_audit_resource_limit(capsys):
    code, _, err = run_cli(
        capsys,
        "audit",
        "--measure", "fair",
        "--martingale", "quotient:fair/fair",
        "--check", "ville",
        "--n", "25",
    )
    assert code == 3
    assert "resource limit" in err


def test_convert_bounded_ml(capsys, tmp_path):
    out_test = tmp_path / "test.json"
    code, out, _ = run_cli(
        capsys,
        "convert",
        "--measure", "fair",
        "--martingale", "all_in:0",
        "--to", "bounded_ml",
        "--depth", "8",
        "--out-test", str(out_test),
    )
    assert code == 0
    assert "path: martingale -> savings -> integral -> bounded_ml" in out
    assert "bounds@8: pass" in out
    doc = json.loads(out_test.read_text())
    assert doc["kind"] == "bounded_ml"
    assert doc["levels"][0] == ["0000"]


def test_convert_vitali_pieces_match_levels(capsys, tmp_path):
    bundle = tmp_path / "bml.json"
    run_cli(
        capsys,
        "convert",
        "--measure", "fair",
        "--martingale", "all_in:0",
        "--to", "bounded_ml",
        "--depth", "8",
        "--out-test", str(bundle),
    )
    out_vit = tmp_path / "vit.json"
    code, out, _ = run_cli(
        capsys,
        "convert",
        "--input", str(bundle),
        "--to", "vitali",
        "--depth", "8",
        "--out-test", str(out_vit),
    )
    assert code == 0
    ml_doc = json.loads(bundle.read_text())
    vit_doc = json.loads(out_vit.read_text())
    assert vit_doc["pieces"] == ml_doc["levels"]


def test_convert_impossible_path(capsys):
    code, _, err = run_cli(
        capsys, "convert", "--measure", "fair", "--martingale", "all_in:0", "--to", "nowhere"
    )
    assert code == 2
    assert "martingale" in err and "bounded_ml" in err


def test_convert_transfer_report(capsys):
    code, out, _ = run_cli(
        capsys,
        "convert",
        "--transfer", "A=binary", "B=ternary",
        "--measure", "push:binary",
        "--depth", "8",
        "--target-depth", "2",
    )
    assert code == 0
    assert "tau 0: kappa_low=" in out


def test_bet_doubling(capsys, tmp_path):
    cyl = tmp_path / "u.cylinders"
    cyl.write_text("00\n")
    out_csv = tmp_path / "trace.csv"
    code, out, _ = run_cli(
        capsys,
        "bet",
        "--strategy", f"doubling:{cyl}",
        "--measure", "fair",
        "--source", "literal:00",
        "--length", "2",
        "--out-csv", str(out_csv),
    )
    assert code == 0
    assert "final=2/1" in out
    rows = list(csv.DictReader(out_csv.open()))
    assert rows[-1]["capital_num"] == "2" and rows[-1]["capital_den"] == "1"


def test_bet_champernowne_consumes_prefix(capsys, tmp_path):
    out_csv = tmp_path / "trace.csv"
    code, out, _ = run_cli(
        capsys,
        "bet",
        "--strategy", "bit_all_in:1",
        "--measure", "fair",
        "--source", "champernowne",
        "--length", "10",
        "--out-csv", str(out_csv),
    )
    assert code == 0
    rows = list(csv.DictReader(out_csv.open()))
    assert rows[-1]["prefix"] == "1101110010"


def test_bet_likelihood_ratio_runs(capsys, tmp_path):
    out_csv = tmp_path / "trace.csv"
    code, out, _ = run_cli(
        capsys,
        "bet",
        "--strategy", "likelihood_ratio:bernoulli:3/4",
        "--measure", "fair",
        "--source", "bernoulli:3/4,seed=7",
        "--length", "400",
        "--out-csv", str(out_csv),
    )
    assert code == 0
    assert "log2_final~" in out


def test_deficiency_worked_case(capsys, tmp_path):
    mfile = tmp_path / "m.machine"
    mfile.write_text("00\t11\n")
    out_csv = tmp_path / "d.csv"
    code, out, _ = run_cli(
        capsys,
        "deficiency",
        "--machine", str(mfile),
        "--decomposition", "binary",
        "--point", "7/8",
        "--length", "2",
        "--out-csv", str(out_csv),
    )
    assert code == 0
    rows = list(csv.DictReader(out_csv.open()))
    assert rows[0]["d_low"] == "-inf"
    assert rows[1]["d_low"] == "0" and rows[1]["d_high"] == "0"


def test_deficiency_null_point(capsys, tmp_path):
    mfile = tmp_path / "m.machine"
    mfile.write_text("00\t11\n")
    null_doc = tmp_path / "null.json"
    null_doc.write_text(
        json.dumps({"kind": "split_table", "entries": [["", "0/1"]], "default": "1/2", "total": "1/1"})
    )
    code, out, _ = run_cli(
        capsys,
        "deficiency",
        "--machine", str(mfile),
        "--decomposition", f"natural:split_table:{null_doc}",
        "--point", "111",
        "--length", "3",
    )
    assert code == 1
    assert "non-random-by-nullity" in out


def test_deficiency_undetermined_point(capsys, tmp_path):
    mfile = tmp_path / "m.machine"
    mfile.write_text("00\t11\n")
    code, out, _ = run_cli(
        capsys,
        "deficiency",
        "--machine", str(mfile),
        "--point", "1/2",
        "--length", "3",
    )
    assert code == 1
    assert "undetermined at depth 1" in out


def test_name_command(capsys):
    code, out, _ = run_cli(capsys, "name", "--decomposition", "ternary", "--point", "1/2", "--length", "4")
    assert code == 0
    assert "name: 1010" in out
    code, out, _ = run_cli(capsys, "name", "--decomposition", "binary", "--point", "1/2", "--length", "2")
    assert code == 1
    assert "undetermined at depth 1" in out
    assert "resolved: 10" in out


def test_refine_command(capsys):
    code, out, _ = run_cli(
        capsys,
        "refine",
        "--source-dec", "binary",
        "--target-dec", "ternary",
        "--depth", "4",
        "--target-depth", "1",
    )
    assert code == 0
    assert "tau 0: cells=00,0100 covered=5/16 residual=1/48" in out


def test_reports_deterministic_modulo_timing(capsys):
    args = ["audit", "--measure", "bernoulli:1/3", "--check", "additivity", "--depth", "8"]
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert strip_timing(out1) == strip_timing(out2)
