import contextlib
import csv
import hashlib
import io
import itertools
import json
import os
import random
import re
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


@pytest.mark.parametrize("target", ["integral", "bounded_ml", "vitali", "cycle"])
def test_convert_depth_cap_exit_code(capsys, monkeypatch, target):
    monkeypatch.setenv("RANDLAB_DEPTH_LIMIT", "4")
    head = ["convert", "--measure", "fair", "--martingale", "all_in:0", "--to", target]
    code, _, err = run_cli(capsys, *head, "--depth", "8")
    assert code == 3
    assert "exceeds cap 4" in err
    code, out, _ = run_cli(capsys, *head, "--depth", "4")
    assert code == 0, out


@pytest.mark.parametrize("value", ["abc", "-1"])
def test_bad_depth_limit_is_a_usage_error(capsys, monkeypatch, value):
    monkeypatch.setenv("RANDLAB_DEPTH_LIMIT", value)
    code, _, err = run_cli(capsys, "audit", "--measure", "fair", "--check", "additivity", "--depth", "2")
    assert code == 2
    assert "RANDLAB_DEPTH_LIMIT must be a nonnegative integer" in err


NEGATIVE_DEPTHS = [
    ["audit", "--measure", "fair", "--check", "additivity", "--depth", "-1"],
    ["audit", "--measure", "fair", "--martingale", "all_in:0", "--check", "savings", "--depth", "-2"],
    ["audit", "--measure", "fair", "--martingale", "all_in:0", "--check", "fairness", "--depth", "-1"],
    ["convert", "--measure", "fair", "--martingale", "all_in:0", "--to", "integral", "--depth", "-1"],
    ["convert", "--measure", "fair", "--martingale", "all_in:0", "--to", "cycle", "--depth", "-1"],
    ["refine", "--source-dec", "binary", "--target-dec", "ternary", "--depth", "4", "--target-depth", "-1"],
]


@pytest.mark.parametrize("args", NEGATIVE_DEPTHS, ids=lambda args: "-".join(args[:1] + args[-4:]))
def test_negative_depths_are_precondition_errors(capsys, args):
    # they used to pass vacuously ("pass (0 checked)", a lone "tau eps" row)
    # or die with itertools' "repeat argument cannot be negative"
    code, out, err = run_cli(capsys, *args)
    assert (code, out) == (2, "")
    assert "error: exhaustive enumeration depth must be nonnegative" in err


def test_negative_depth_of_an_input_test_is_refused(capsys, tmp_path):
    bundle = tmp_path / "step.json"
    head = ["convert", "--measure", "fair", "--martingale", "all_in:0", "--to", "integral"]
    assert run_cli(capsys, *head, "--depth", "3", "--out-test", str(bundle))[0] == 0
    for target in ("bounded_ml", "vitali", "martingale"):
        code, _, err = run_cli(capsys, "convert", "--input", str(bundle), "--to", target, "--depth", "-1")
        assert code == 2 and "must be nonnegative" in err, target


def test_ville_negative_n_is_refused_in_a_bounded_child():
    # before the fix this walk never reached length n and ran until memory
    # ran out, so it runs in a child with a time limit and an address-space cap
    import os
    import resource
    import subprocess

    import randlab

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    src = os.path.dirname(os.path.dirname(randlab.__file__))
    args = ["audit", "--measure", "fair", "--martingale", "all_in:0", "--check", "ville", "--n", "-2", "--c", "2"]
    proc = subprocess.run(
        [sys.executable, "-m", "randlab", *args],
        env=dict(os.environ, PYTHONPATH=src),
        preexec_fn=cap_memory,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2, proc.stderr[-500:]
    assert "must be nonnegative" in proc.stderr


@pytest.mark.parametrize(
    "args, message",
    [
        (["--n", "4", "--c", "0"], "ville needs n >= 0 and c > 0, got n=4 and c=0"),
        (["--n", "4", "--c", "-1"], "ville needs n >= 0 and c > 0, got n=4 and c=-1"),
        (["--n", "4", "--c", "-2", "--mc-samples", "5"], "ville needs n >= 0 and c > 0, got n=4 and c=-2"),
        (["--n", "-3", "--c", "2", "--mc-samples", "5"], "ville needs n >= 0 and c > 0, got n=-3 and c=2"),
    ],
)
def test_ville_threshold_and_length_are_checked_on_both_paths(capsys, args, message):
    head = ["audit", "--measure", "fair", "--martingale", "all_in:0", "--check", "ville"]
    code, out, err = run_cli(capsys, *head, *args)
    assert (code, out) == (2, "")
    assert message in err


def test_depth_zero_stays_valid(capsys):
    for args in (
        ["audit", "--measure", "fair", "--check", "additivity", "--depth", "0"],
        ["audit", "--measure", "fair", "--martingale", "all_in:0", "--check", "savings,ville", "--depth", "0", "--n", "0"],
        ["convert", "--measure", "fair", "--martingale", "all_in:0", "--to", "vitali", "--depth", "0"],
    ):
        code, out, _ = run_cli(capsys, *args)
        assert code == 0, out


@pytest.mark.parametrize("levels", ["0", "-2"])
def test_convert_levels_below_one_are_usage_errors(capsys, levels):
    # a zero-level test used to be built, and it "passed"
    head = ["convert", "--measure", "fair", "--martingale", "all_in:0", "--to", "bounded_ml", "--depth", "4"]
    code, out, err = run_cli(capsys, *head, "--levels", levels)
    assert (code, out) == (2, "")
    assert f"usage error: --levels must be at least 1, got {levels}" in err


FAIR = {"kind": "fair_coin"}


def _nested_interleave(depth: int) -> str:
    """The text of a measure document: interleaves nested depth deep down their
    left factors, written by hand since json.dumps recurses too."""
    return '{"kind": "interleave", "factors": [' * depth + '{"kind": "fair_coin"}' + ', {"kind": "bernoulli", "p": "1/3"}]}' * depth


MALFORMED_DOCS = {
    "list": ([1, 2], "test doc must be a JSON object, got list"),
    "values-int": (
        {"kind": "integral", "base": FAIR, "bound": FAIR, "values": 5, "depth": 1},
        "test doc field 'values' must be a list of [cell, value] string pairs, got 5",
    ),
    "no-base": ({"kind": "integral"}, "test doc has no 'base' field"),
    "one-element-cell": (
        {"kind": "integral", "base": FAIR, "bound": FAIR, "values": [["0"]], "depth": 1},
        """test doc field 'values' must be a list of [cell, value] string pairs, got [["0"]]""",
    ),
    "levels-string": (
        {"kind": "bounded_ml", "base": FAIR, "bound": FAIR, "levels": "01", "depth": 2},
        "test doc field 'levels' must be a list of lists of generator strings, got \"01\"",
    ),
    "base-string": ({"kind": "vitali", "base": "fair", "pieces": []}, "test doc field 'base' must be an object, got \"fair\""),
    # a plain level test has no bound, so the conversion chain has no place for it
    "ml": ({"kind": "ml", "base": FAIR, "levels": [["0"]]}, "unknown test kind 'ml'"),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_DOCS))
def test_malformed_input_docs_are_usage_errors(capsys, tmp_path, name):
    # these died with a raw AttributeError or TypeError (exit 1), or with a
    # message that did not name the field ("'base'", "not enough values to unpack")
    doc, message = MALFORMED_DOCS[name]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "convert", "--input", str(path), "--to", "martingale", "--depth", "2")
    assert (code, out) == (2, "")
    assert err == f"usage error: {message}\n"


# inputs that once reached the CLI as a raw ValueError, KeyError or TypeError,
# or were played as something else (exit 0 or 1): each is now a parse error
# (exit 2) whose message names the input; "{json}", "{binary}" and "{doc}"
# stand for files holding non-JSON text, undecodable bytes and the case's
# document (or its text)
MALFORMED_INPUTS = {
    "bary-base": (["name", "--decomposition", "bary:x", "--point", "1/3"], "bad digit base 'x'"),
    "interleave-dim": (["name", "--decomposition", "interleave:two", "--point", "1/3"], "bad dimension 'two'"),
    "prng-seed": (["bet", "--strategy", "null", "--measure", "fair", "--source", "prng:abc"], "bad source seed 'abc'"),
    "bernoulli-seed": (["bet", "--strategy", "null", "--measure", "fair", "--source", "bernoulli:1/3,seed=x"], "bad source seed 'x'"),
    "transfer-item": (["convert", "--transfer", "A=binary", "Bternary"], "--transfer needs A=<dec> B=<dec>"),
    "measure-json": (["audit", "--measure", "split_table:{json}"], "not a JSON document"),
    "measure-bytes": (["audit", "--measure", "doc:{binary}"], "not a JSON document"),
    "martingale-json": (["audit", "--measure", "fair", "--martingale", "table:{json}", "--check", "fairness"], "not a JSON document"),
    "input-json": (["convert", "--input", "{json}"], "not a JSON document"),
    "no-p": (["audit", "--measure", "doc:{doc}"], "bernoulli measure doc has no 'p' field", {"kind": "bernoulli"}),
    "no-factors": (["audit", "--measure", "doc:{doc}"], "interleave measure doc has no 'factors' field", {"kind": "interleave"}),
    "three-factors": (
        ["audit", "--measure", "doc:{doc}"],
        "interleave measure doc field 'factors' must list two measure docs",
        {"kind": "interleave", "factors": [FAIR, FAIR, FAIR]},
    ),
    "no-decomposition": (["audit", "--measure", "doc:{doc}"], "pushforward measure doc has no 'decomposition' field", {"kind": "pushforward"}),
    "entry-row": (
        ["audit", "--measure", "doc:{doc}"],
        "split_table measure doc field 'entries' must be a list of [cell, value] string pairs",
        {"kind": "split_table", "entries": [["0", "1/2", "1/3"]]},
    ),
    "test-depth": (
        ["convert", "--input", "{doc}"],
        "bad test depth 'x'",
        {"kind": "bounded_ml", "base": FAIR, "bound": FAIR, "levels": [], "depth": "x"},
    ),
    # a test document without depth was read as depth 0: an integral one
    # passed, and a level or piece was refused as longer than the depth
    "no-depth-bounded-ml": (
        ["convert", "--input", "{doc}"],
        "usage error: bounded_ml test doc has no 'depth' field",
        {"kind": "bounded_ml", "base": FAIR, "bound": FAIR, "levels": [["0"]]},
    ),
    "no-depth-vitali": (
        ["convert", "--input", "{doc}"],
        "usage error: vitali test doc has no 'depth' field",
        {"kind": "vitali", "base": FAIR, "bound": FAIR, "pieces": [["0"]]},
    ),
    "no-depth-integral": (
        ["convert", "--input", "{doc}"],
        "usage error: integral test doc has no 'depth' field",
        {"kind": "integral", "base": FAIR, "bound": FAIR, "values": [["", "1"]]},
    ),
    "no-stake": (
        ["bet", "--strategy", "table:{doc}", "--measure", "fair", "--source", "literal:0101", "--length", "4"],
        "strategy node '' has no 'stake' field",
        {"nodes": {"": {"event": {"kind": "bit", "index": 0, "side": 1}}}},
    ),
    "bit-index": (
        ["bet", "--strategy", "table:{doc}", "--measure", "fair", "--source", "literal:0101", "--length", "4"],
        "bad bit index 'x'",
        {"nodes": {"": {"event": {"kind": "bit", "index": "x", "side": 1}, "stake": "1/2"}}},
    ),
    "bit-index-negative": (
        ["bet", "--strategy", "table:{doc}", "--measure", "fair", "--source", "literal:0101", "--length", "4"],
        "bit event field 'index' must be nonnegative, got -1",
        {"nodes": {"": {"event": {"kind": "bit", "index": -1, "side": 1}, "stake": "1/2"}}},
    ),
    "bit-side": (
        ["bet", "--strategy", "table:{doc}", "--measure", "fair", "--source", "literal:0101", "--length", "4"],
        "bit event field 'side' must be 0 or 1, got 2",
        {"nodes": {"": {"event": {"kind": "bit", "index": 0, "side": 2}, "stake": "1/2"}}},
    ),
    "source-bernoulli-above": (
        ["bet", "--strategy", "likelihood_ratio:fair", "--measure", "fair", "--source", "bernoulli:2,seed=1", "--length", "4"],
        "bernoulli source parameter outside [0,1]: 2",
    ),
    "source-bernoulli-negative": (
        ["bet", "--strategy", "likelihood_ratio:fair", "--measure", "fair", "--source", "bernoulli:-1,seed=1", "--length", "4"],
        "bernoulli source parameter outside [0,1]: -1",
    ),
    "measure-bernoulli-above": (
        ["bet", "--strategy", "likelihood_ratio:fair", "--measure", "bernoulli:3/2", "--source", "prng:1", "--length", "4"],
        "bernoulli parameter outside [0,1]: 3/2",
    ),
    "cylinders-string": (
        ["bet", "--strategy", "table:{doc}", "--measure", "fair", "--source", "literal:0101", "--length", "4"],
        "cylinder event field 'strings' must be a list of bit strings, got \"01\"",
        {"nodes": {"": {"event": {"kind": "cylinders", "strings": "01"}, "stake": "1/2"}}},
    ),
    "cylinders-prefix": (
        ["bet", "--strategy", "table:{doc}", "--measure", "fair", "--source", "literal:0101", "--length", "4"],
        "cylinder event field 'strings' not prefix-free: '0' < '01'",
        {"nodes": {"": {"event": {"kind": "cylinders", "strings": ["0", "01"]}, "stake": "1/2"}}},
    ),
    "cylinders-repeat": (
        ["bet", "--strategy", "table:{doc}", "--measure", "fair", "--source", "literal:0101", "--length", "4"],
        "cylinder event field 'strings' repeats the string '0'",
        {"nodes": {"": {"event": {"kind": "cylinders", "strings": ["0", "0"]}, "stake": "1/2"}}},
    ),
    "cylinder-file-repeat": (
        ["bet", "--strategy", "doubling:{doc}", "--measure", "fair", "--source", "literal:0101", "--length", "4"],
        "cylinder file repeats the string '000'",
        "000\n000\n",
    ),
    "martingale-unknown-field": (
        ["audit", "--measure", "fair", "--martingale", "table:{doc}", "--check", "fairness", "--depth", "3"],
        "table martingale doc has unknown field 'entrys'; it holds only 'start' and 'entries'",
        {"start": "1/1", "entrys": {"0": "2/1", "1": "0/1"}},
    ),
    "strategy-bare-nodes": (
        ["bet", "--strategy", "table:{doc}", "--measure", "fair", "--source", "literal:0101", "--length", "4"],
        "table strategy doc has no 'nodes' field",
        {"": {"event": {"kind": "bit", "index": 0, "side": 1}, "stake": "1/2"}},
    ),
    "strategy-unknown-field": (
        ["bet", "--strategy", "table:{doc}", "--measure", "fair", "--source", "literal:0101", "--length", "4"],
        "table strategy doc has unknown field 'node'; it holds only 'start' and 'nodes'",
        {"start": "1/1", "nodes": {}, "node": {}},
    ),
    "measure-unknown-field": (
        ["audit", "--measure", "doc:{doc}"],
        "bernoulli measure doc has unknown field 'q'; it holds only 'kind' and 'p'",
        {"kind": "bernoulli", "p": "1/3", "q": "x"},
    ),
    "split-table-unknown-field": (
        ["audit", "--measure", "split_table:{doc}"],
        "split_table measure doc has unknown field 'totals'; it holds only 'kind' and 'entries' and 'default' and 'total'",
        {"kind": "split_table", "entries": [["", "1/3"]], "totals": "1/1"},
    ),
    "factor-unknown-field": (
        ["audit", "--measure", "doc:{doc}"],
        "fair_coin measure doc has unknown field 'p'; it holds only 'kind'",
        {"kind": "interleave", "factors": [FAIR, {"kind": "fair_coin", "p": "1/3"}]},
    ),
    "test-unknown-field": (
        ["convert", "--input", "{doc}"],
        "integral test doc has unknown field 'unit_witnes'; it holds only 'kind' and 'base' and 'depth' and 'values' and 'bound' and 'unit_witness'",
        {"kind": "integral", "base": FAIR, "bound": FAIR, "values": [], "depth": 1, "unit_witnes": True},
    ),
    "test-base-unknown-field": (
        ["convert", "--input", "{doc}"],
        "fair_coin measure doc has unknown field 'total'; it holds only 'kind'",
        {"kind": "vitali", "base": {"kind": "fair_coin", "total": "1/1"}, "bound": FAIR, "pieces": [], "depth": 1},
    ),
    # an interleave builds its left factor before it reads its right one
    "interleave-left-factor-first": (
        ["audit", "--measure", "doc:{doc}"],
        "error: bernoulli parameter outside [0,1]: 3/2",
        {"kind": "interleave", "factors": [{"kind": "bernoulli", "p": "3/2"}, {"kind": "nonsense"}]},
    ),
    "point-binary": (["name", "--decomposition", "binary", "--point", "1/3,1/2"], "expected 1 coordinates, got 2"),
    "point-ternary": (["name", "--decomposition", "ternary", "--point", "1/3,1/2", "--length", "4"], "expected 1 coordinates, got 2"),
    "point-bary": (["name", "--decomposition", "bary:5", "--point", "1/3,1/2"], "expected 1 coordinates, got 2"),
    "point-deficiency": (["deficiency", "--machine", "{doc}", "--point", "1/3,1/2"], "expected 1 coordinates, got 2", "0\t1\n"),
    "machine-repeated-codeword": (
        ["deficiency", "--machine", "{doc}", "--point", "1/3"],
        ":2: codeword '0' repeats an earlier line",
        "0\t1\n0\t0\n",
    ),
    "split-table-repeated-string": (
        ["audit", "--measure", "doc:{doc}"],
        "split_table measure doc field 'entries' repeats the string ''",
        {"kind": "split_table", "entries": [["", "1/3"], ["", "2/3"]]},
    ),
    # nesting the JSON decoder cannot read, and interleaves past specfmt.MAX_NESTING (100)
    "measure-json-too-deep": (["audit", "--measure", "doc:{doc}"], "doc.json: JSON document nested too deep to read", _nested_interleave(500)),
    "martingale-json-too-deep": (
        ["audit", "--measure", "fair", "--martingale", "table:{doc}", "--check", "fairness"],
        "doc.json: JSON document nested too deep to read",
        "[" * 5000 + "]" * 5000,
    ),
    "interleave-doc-too-deep": (["audit", "--measure", "doc:{doc}"], "interleave nested deeper than 100 levels", _nested_interleave(101)),
    "interleave-spec-too-deep": (["audit", "--measure", "interleave:fair*" * 1000 + "fair"], "interleave nested deeper than 100 levels"),
    "interleave-spec-past-bound": (["audit", "--measure", "interleave:fair*" * 101 + "fair"], "interleave nested deeper than 100 levels"),
    # push:natural: links count toward the same cap; 600 of them raised RecursionError
    "push-spec-too-deep": (["audit", "--measure", "push:natural:" * 600 + "fair"], "push:natural: nested deeper than 100 levels"),
    "push-spec-past-bound": (["audit", "--measure", "push:natural:" * 101 + "fair"], "push:natural: nested deeper than 100 levels"),
    "push-doc-too-deep": (
        ["audit", "--measure", "doc:{doc}"],
        "push:natural: nested deeper than 100 levels",
        {"kind": "pushforward", "decomposition": "natural:" + "push:natural:" * 599 + "fair"},
    ),
    "push-under-interleaves": (
        ["audit", "--measure", "interleave:fair*" * 60 + "push:natural:" * 41 + "fair"],
        "push:natural: nested deeper than 100 levels",
    ),
    "machine-bytes": (["deficiency", "--machine", "{binary}", "--point", "1/3"], "not a binary string"),
    "source-bytes": (["bet", "--strategy", "null", "--measure", "fair", "--source", "file:{binary}"], "not a binary string"),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_INPUTS))
def test_malformed_inputs_are_parse_errors(capsys, tmp_path, name):
    args, message, *doc = MALFORMED_INPUTS[name]
    files = {"json": tmp_path / "bad.json", "binary": tmp_path / "bad.bin", "doc": tmp_path / "doc.json"}
    files["json"].write_text("{not json")
    files["binary"].write_bytes(b"01\t\xff\xfe1\n")
    files["doc"].write_text(doc[0] if doc and isinstance(doc[0], str) else json.dumps(doc[0] if doc else {}))
    args = [a.format(**files) for a in args]
    code, out, err = run_cli(capsys, *args)
    assert (code, out) == (2, "")
    assert message in err


def test_a_machine_file_skips_blank_lines(capsys, tmp_path):
    mfile = tmp_path / "m.machine"
    args = ["deficiency", "--machine", str(mfile), "--point", "7/8", "--length", "2"]
    mfile.write_text("00\t11\n")
    code, want, _ = run_cli(capsys, *args)
    mfile.write_text("\n00\t11\n  \n")
    code_blank, out, err = run_cli(capsys, *args)
    assert (code_blank, err, strip_timing(out)) == (code, "", strip_timing(want))


def test_a_machine_file_reports_a_repeated_codeword_ahead_of_a_bad_string(capsys, tmp_path):
    # the loader checks only for repeats; PrefixFreeMachine then validates
    # every string, so a repeat anywhere in the file is reported first
    mfile = tmp_path / "m.machine"
    args = ["deficiency", "--machine", str(mfile), "--point", "1/3"]
    mfile.write_text("0\t2\n0\t1\n")
    code, out, err = run_cli(capsys, *args)
    assert (code, out) == (2, "")
    assert err.endswith(":2: codeword '0' repeats an earlier line\n")
    mfile.write_text("0\t1\n1\t2\n")
    code, out, err = run_cli(capsys, *args)
    assert (code, out) == (2, "")
    assert err.endswith("not a binary string: '2'\n")


WRONG_JSON_TYPES = {
    "bernoulli-p": (["audit", "--measure", "doc:{doc}"], "bernoulli measure doc field 'p'", {"kind": "bernoulli", "p": 0.5}),
    "martingale-entries": (
        ["audit", "--measure", "fair", "--martingale", "table:{doc}", "--check", "fairness"],
        "table martingale doc field 'entries' must be an object",
        {"entries": [["0", "1/1"]]},
    ),
    "strategy-nodes": (
        ["bet", "--strategy", "table:{doc}", "--measure", "fair", "--source", "literal:0101", "--length", "4"],
        "table strategy doc field 'nodes' must be an object",
        {"nodes": ["", {"event": {"kind": "bit", "index": 0, "side": 1}, "stake": "1/2"}]},
    ),
    "measure-list": (["audit", "--measure", "doc:{doc}"], "measure doc must be a JSON object", [FAIR]),
    "pushforward-decomposition": (
        ["audit", "--measure", "doc:{doc}"],
        "pushforward measure doc field 'decomposition' must be a string, got 3",
        {"kind": "pushforward", "decomposition": 3},
    ),
    "test-depth-list": (
        ["convert", "--input", "{doc}"],
        "bad test depth []: not an integer",
        {"kind": "bounded_ml", "base": FAIR, "bound": FAIR, "levels": [], "depth": []},
    ),
    "test-depth-float": (
        ["convert", "--input", "{doc}"],
        "bad test depth 1.5: not an integer",
        {"kind": "bounded_ml", "base": FAIR, "bound": FAIR, "levels": [], "depth": 1.5},
    ),
    "unit-witness-string": (
        ["convert", "--input", "{doc}"],
        "test doc field 'unit_witness' must be true or false, got \"false\"",
        {"kind": "integral", "base": FAIR, "bound": FAIR, "values": [], "depth": 1, "unit_witness": "false"},
    ),
    "bit-side-boolean": (
        ["bet", "--strategy", "table:{doc}", "--measure", "fair", "--source", "literal:0101", "--length", "4"],
        "bad bit side True: not an integer",
        {"nodes": {"": {"event": {"kind": "bit", "index": 0, "side": True}, "stake": "1/2"}}},
    ),
    "martingale-list": (
        ["audit", "--measure", "fair", "--martingale", "table:{doc}", "--check", "fairness"],
        "table martingale doc must be a JSON object",
        [],
    ),
    "strategy-list": (
        ["bet", "--strategy", "table:{doc}", "--measure", "fair", "--source", "literal:0101", "--length", "4"],
        "table strategy doc must be a JSON object",
        [],
    ),
    "strategy-node": (
        ["bet", "--strategy", "table:{doc}", "--measure", "fair", "--source", "literal:0101", "--length", "4"],
        "strategy node '' must be a JSON object",
        {"nodes": {"": 5}},
    ),
    "strategy-event": (
        ["bet", "--strategy", "table:{doc}", "--measure", "fair", "--source", "literal:0101", "--length", "4"],
        "bet event must be a JSON object",
        {"nodes": {"": {"event": 3, "stake": "1/2"}}},
    ),
}


@pytest.mark.parametrize("name", sorted(WRONG_JSON_TYPES))
def test_wrong_json_value_types_are_parse_errors(capsys, tmp_path, name):
    args, message, doc = WRONG_JSON_TYPES[name]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, *(a.format(doc=path) for a in args))
    assert (code, out) == (2, "")
    assert message in err


@pytest.mark.parametrize("samples", ["0", "-3"])
@pytest.mark.parametrize("n", ["4", "8"])
def test_audit_refuses_a_nonpositive_mc_sample_count(capsys, monkeypatch, samples, n):
    # below the depth cap this ran the exhaustive audit, above it hit the cap
    monkeypatch.setenv("RANDLAB_DEPTH_LIMIT", "4")
    code, out, err = run_cli(
        capsys,
        "audit",
        "--measure", "fair",
        "--martingale", "quotient:bernoulli:2/3/fair",
        "--check", "ville",
        "--n", n, "--c", "2",
        "--mc-samples", samples,
    )
    assert (code, out) == (2, "")
    assert f"--mc-samples must be at least 1, got {samples}" in err


VILLE_MC = ["audit", "--measure", "fair", "--check", "ville", "--n", "8"]


def test_audit_mc_band_verdicts(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys, *VILLE_MC, "--martingale", "quotient:bernoulli:2/3/fair", "--c", "4",
        "--mc-samples", "50", "--mc-band", "0.05",
    )
    assert code == 0
    assert "check ville n=8 c=4: statistical estimate=0.0200 bound=0.2500 samples=50 seed=0 band=0.05 verdict=pass" in out
    # capital 2 on every path: each sample hits c=2, against a bound of 1/2
    path = tmp_path / "unfair.json"
    path.write_text(json.dumps({"start": "1/1", "entries": {"0": "2/1", "1": "2/1"}}))
    code, out, _ = run_cli(
        capsys, *VILLE_MC, "--martingale", f"table:{path}", "--c", "2", "--mc-samples", "20", "--mc-band", "0.25"
    )
    assert code == 1
    assert "check ville n=8 c=2: statistical estimate=1.0000 bound=0.5000 samples=20 seed=0 band=0.25 verdict=FAIL" in out


def test_audit_mc_thresholds_share_one_sweep(capsys, monkeypatch):
    args = [*VILLE_MC, "--martingale", "quotient:bernoulli:2/3/fair", "--mc-samples", "40", "--seed", "5"]
    singles = []
    for c in ("2", "4", "8"):
        code, out, _ = run_cli(capsys, *args, "--c", c)
        assert code == 0
        singles += [line for line in out.splitlines() if line.startswith("check ville")]
    sweeps = []
    real = randlab.cli.ville_monte_carlo
    monkeypatch.setattr(randlab.cli, "ville_monte_carlo", lambda *a, **k: sweeps.append(1) or real(*a, **k))
    code, out, _ = run_cli(capsys, *args, "--c", "2,4,8")
    assert (code, len(sweeps)) == (0, 1)
    assert [line for line in out.splitlines() if line.startswith("check ville")] == singles


@pytest.mark.parametrize(
    "band, message",
    [
        (["--mc-band=-1", "--mc-samples", "5"], "--mc-band must be at least 0, got -1.0"),
        (["--mc-band", "nan", "--mc-samples", "5"], "--mc-band must be at least 0, got nan"),
        (["--mc-band", "0.1"], "--mc-band needs --mc-samples"),
    ],
)
def test_audit_refuses_a_bad_mc_band(capsys, band, message):
    # a negative or NaN band failed every estimate; a band without samples was ignored
    code, out, err = run_cli(capsys, *VILLE_MC, "--martingale", "quotient:bernoulli:2/3/fair", "--c", "4", *band)
    assert (code, out) == (2, "")
    assert message in err


@pytest.mark.parametrize("error", [ValueError, KeyError])
def test_a_library_error_is_no_usage_error(capsys, monkeypatch, error):
    # ValueError and KeyError are no longer read as usage errors: raised by
    # library code on valid input, they propagate instead of exiting 2
    def broken(*args):
        raise error("library bug")

    monkeypatch.setattr(randlab.cli, "check_additivity", broken)
    with pytest.raises(error, match="library bug"):
        main(["audit", "--measure", "fair", "--depth", "2"])
    assert capsys.readouterr().err == ""


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


@pytest.mark.parametrize("check", ["fairness", "savings", "ville"])
def test_martingale_checks_need_a_martingale(capsys, check):
    code, out, err = run_cli(capsys, "audit", "--measure", "fair", "--check", f"additivity,{check}", "--depth", "2")
    assert (code, out, err) == (2, "", f"usage error: {check} check needs --martingale\n")


def test_convert_needs_a_martingale_or_an_input(capsys):
    code, out, err = run_cli(capsys, "convert", "--measure", "fair")
    assert (code, out, err) == (2, "", "usage error: convert needs --martingale or --input\n")


def test_out_writes_the_report_printed(capsys, tmp_path):
    report = tmp_path / "report.txt"
    code, out, _ = run_cli(capsys, "audit", "--measure", "fair", "--depth", "4", "--out", str(report))
    assert code == 0 and report.read_bytes() == out.encode()


@pytest.mark.parametrize("check", [["savings"], ["ville"], ["ville", "--mc-samples", "5"]])
def test_audit_zero_mass_base_is_a_precondition_error(capsys, tmp_path, check):
    # capital("") is undefined when the base has no mass: refused with exit 2,
    # not a traceback that reads as a failed check
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({"kind": "split_table", "entries": [], "default": "1/2", "total": "0/1"}))
    code, _, err = run_cli(
        capsys,
        "audit",
        "--measure", f"split_table:{path}",
        "--martingale", "all_in:0",
        "--depth", "4", "--n", "4", "--c", "2",
        "--check", *check,
    )
    assert code == 2
    assert "total mass 0" in err


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


def test_convert_out_test_bytes_are_pinned(capsys, tmp_path):
    # the indented, key-sorted document with no trailing newline, as
    # json.dump(doc, fh, indent=1, sort_keys=True) writes it
    out_test = tmp_path / "test.json"
    args = ["convert", "--measure", "fair", "--martingale", "quotient:bernoulli:2/3/fair", "--to", "integral"]
    assert run_cli(capsys, *args, "--depth", "2", "--out-test", str(out_test))[0] == 0
    want = (
        '{\n'
        ' "base": {\n'
        '  "kind": "fair_coin"\n'
        ' },\n'
        ' "bound": {\n'
        '  "default": "1/2",\n'
        '  "entries": [\n'
        '   [\n'
        '    "",\n'
        '    "7/12"\n'
        '   ],\n'
        '   [\n'
        '    "0",\n'
        '    "17/30"\n'
        '   ],\n'
        '   [\n'
        '    "1",\n'
        '    "57/98"\n'
        '   ]\n'
        '  ],\n'
        '  "kind": "split_table",\n'
        '  "total": "1/1"\n'
        ' },\n'
        ' "depth": 2,\n'
        ' "kind": "integral",\n'
        ' "unit_witness": true,\n'
        ' "values": [\n'
        '  [\n'
        '   "10",\n'
        '   "1/6"\n'
        '  ],\n'
        '  [\n'
        '   "11",\n'
        '   "5/14"\n'
        '  ]\n'
        ' ]\n'
        '}'
    )
    assert out_test.read_bytes() == want.encode()


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


TARGETS_FROM = {
    "martingale": "savings, integral, bounded_ml, vitali, cycle",
    "integral": "bounded_ml, vitali, martingale",
    "bounded_ml": "vitali, integral, martingale",
    "vitali": "integral, martingale",
}
CONVERSION_PATHS = {
    ("martingale", "savings"): "martingale -> savings",
    ("martingale", "integral"): "martingale -> savings -> integral",
    ("martingale", "bounded_ml"): "martingale -> savings -> integral -> bounded_ml",
    ("martingale", "vitali"): "martingale -> savings -> integral -> bounded_ml -> vitali",
    ("martingale", "cycle"): "martingale -> savings -> integral -> bounded_ml -> vitali -> integral -> martingale",
    ("integral", "bounded_ml"): "integral -> bounded_ml",
    ("integral", "vitali"): "integral -> bounded_ml -> vitali",
    ("integral", "martingale"): "integral -> martingale",
    ("bounded_ml", "vitali"): "bounded_ml -> vitali",
    ("bounded_ml", "integral"): "bounded_ml -> vitali -> integral",
    ("bounded_ml", "martingale"): "bounded_ml -> vitali -> integral -> martingale",
    ("vitali", "integral"): "vitali -> integral",
    ("vitali", "martingale"): "vitali -> integral -> martingale",
}


@pytest.fixture(scope="module")
def start_tests(tmp_path_factory):
    """Depth-3 test documents of each kind convert reads with --input."""
    folder = tmp_path_factory.mktemp("starts")
    for kind in ("integral", "bounded_ml", "vitali"):
        head = ["convert", "--measure", "fair", "--martingale", "all_in:0", "--to", kind, "--depth", "3"]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(head + ["--out-test", str(folder / f"{kind}.json")]) == 0
    return folder


@pytest.mark.parametrize("start", sorted(TARGETS_FROM))
@pytest.mark.parametrize(
    "target", ["martingale", "savings", "integral", "bounded_ml", "vitali", "cycle", "ml", "nowhere", ""]
)
def test_convert_paths_and_refusals(capsys, start_tests, start, target):
    head = ["--martingale", "all_in:0"] if start == "martingale" else ["--input", str(start_tests / f"{start}.json")]
    code, out, err = run_cli(capsys, "convert", "--measure", "fair", *head, "--to", target, "--depth", "3")
    if (start, target) in CONVERSION_PATHS:
        assert (code, err) == (0, "")
        assert f"path: {CONVERSION_PATHS[start, target]}\n" in out
    else:
        assert (code, out) == (2, "")
        assert err == (
            f"usage error: no conversion path {start} -> {target}; targets from {start}: {TARGETS_FROM[start]} "
            "(all kinds: bounded_ml, cycle, integral, martingale, savings, vitali)\n"
        )


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


def test_bet_doubling_on_a_deep_generator_is_undetermined(capsys, tmp_path):
    # covering [0^32] by the one generator 0^1532 recursed once per bit and
    # raised RecursionError
    cyl = tmp_path / "deep.cylinders"
    cyl.write_text("0" * 1532 + "\n")
    args = ["bet", "--strategy", f"doubling:{cyl}", "--measure", "fair", "--source", "literal:" + "0" * 32, "--length", "32"]
    code, out, err = run_cli(capsys, *args)
    assert (code, err) == (0, "")
    assert "flag: undetermined (source too short to settle a bet)" in out


def test_bet_flags_a_stake_past_the_capital_after_a_first_bet(capsys, tmp_path):
    # the first bet loses half the capital; the second stakes 5 of the 1/2 left
    table = tmp_path / "s.json"
    bit = lambda index: {"kind": "bit", "index": index, "side": 1}
    table.write_text(json.dumps({"nodes": {"": {"event": bit(0), "stake": "1/2"}, "0": {"event": bit(1), "stake": "5"}}}))
    args = ["bet", "--strategy", f"table:{table}", "--measure", "fair", "--source", "literal:0000", "--length", "4"]
    code, out, err = run_cli(capsys, *args)
    assert (code, err) == (1, "")
    assert "flag: strategy violation: stake 5 exceeds capital 1/2 at '0'" in out.splitlines()


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


def test_name_natural_resolves_the_bits_it_was_given(capsys):
    args = ["name", "--decomposition", "natural:fair", "--point", "01", "--length", "4"]
    code, out, err = run_cli(capsys, *args)
    assert (code, err) == (1, "")
    assert strip_timing(out) == "\n".join(
        ["command: randlab " + " ".join(args), "name: undetermined at depth 3 (prefix '01')", "resolved: 01"]
    )


@pytest.mark.parametrize(
    "strategy, message",
    [
        ("bogus:1", "usage error: cannot parse strategy spec 'bogus:1'"),
        ("table:{doc}", "usage error: unknown event kind 'nope'"),
        ("bit_all_in:", "error: sides must be a nonempty binary string"),
    ],
)
def test_bet_refuses_a_strategy_it_cannot_play(capsys, tmp_path, strategy, message):
    doc = tmp_path / "strategy.json"
    doc.write_text(json.dumps({"nodes": {"": {"event": {"kind": "nope"}, "stake": "1/2"}}}))
    args = ["bet", "--strategy", strategy.format(doc=doc), "--measure", "fair", "--source", "literal:0101", "--length", "4"]
    code, out, err = run_cli(capsys, *args)
    assert (code, out, err) == (2, "", message + "\n")


@pytest.mark.parametrize(
    "args",
    [
        ["name", "--decomposition", "natural:fair", "--point", "2a1", "--length", "3"],
        ["deficiency", "--machine", "{machine}", "--decomposition", "natural:bernoulli:1/3", "--point", "xyz"],
    ],
)
def test_natural_points_must_be_bit_strings(capsys, tmp_path, args):
    # these printed a name for "2a1" and a trace for "xyz" read as "000"
    mfile = tmp_path / "m.machine"
    mfile.write_text("00\t11\n")
    code, out, err = run_cli(capsys, *(a.format(machine=mfile) for a in args))
    assert (code, out) == (2, "")
    assert "not a binary string" in err


@pytest.mark.parametrize(
    "args",
    [
        ["name", "--decomposition", "natural:fair", "--point", "0110", "--length", "-1"],
        ["name", "--decomposition", "ternary", "--point", "1/3", "--length", "-4"],
        ["deficiency", "--machine", "{machine}", "--decomposition", "natural:fair", "--point", "0110", "--length", "-1"],
        ["deficiency", "--machine", "{machine}", "--point", "7/8", "--length", "-3"],
        ["bet", "--strategy", "null", "--measure", "fair", "--source", "literal:0101", "--length", "-2"],
        ["bet", "--strategy", "likelihood_ratio:fair", "--measure", "fair", "--source", "prng:1", "--length", "-1"],
    ],
    ids=lambda args: "-".join(args[:1] + args[-3:]),
)
def test_negative_lengths_are_usage_errors(capsys, tmp_path, args):
    # "name ... natural:fair --point 0110 --length -1" printed "name: 011" and
    # "bet ... --length -2" printed "steps=0", both with exit 0
    mfile = tmp_path / "m.machine"
    mfile.write_text("00\t11\n")
    code, out, err = run_cli(capsys, *(a.format(machine=mfile) for a in args))
    assert (code, out) == (2, "")
    assert f"usage error: --length must be nonnegative, got {args[-1]}" in err
    code, out, _ = run_cli(capsys, *(a.format(machine=mfile) for a in args[:-1]), "0")
    assert code == 0 and "timing_s" in out  # a zero length still runs


@pytest.mark.parametrize(
    "args",
    [
        ["bet", "--strategy", "null", "--measure", "fair", "--source", "prng:1"],
        ["name", "--decomposition", "binary", "--point", "1/3"],
        ["deficiency", "--machine", "{machine}", "--decomposition", "ternary", "--point", "5/7"],
    ],
    ids=lambda args: args[0],
)
def test_lengths_past_the_expansion_cap_are_resource_errors(capsys, monkeypatch, tmp_path, args):
    # each ran past a 5 s timeout with --length 10**21
    mfile = tmp_path / "m.machine"
    mfile.write_text("00\t11\n")
    args = [a.format(machine=mfile) for a in args]
    started = time.monotonic()
    code, out, err = run_cli(capsys, *args, "--length", str(10**21))
    assert (code, out) == (3, "") and time.monotonic() - started < 1
    assert f"resource limit: --length {10**21} exceeds 2**20 (set RANDLAB_DEPTH_LIMIT to raise it)" in err
    monkeypatch.setenv("RANDLAB_DEPTH_LIMIT", "3")
    assert run_cli(capsys, *args, "--length", "9")[0] == 3
    code, out, _ = run_cli(capsys, *args, "--length", "8")  # 2**3 bits still run
    assert code == 0 and "timing_s" in out


_QUOTIENT = ["--measure", "fair", "--martingale", "quotient:bernoulli:2/3/fair"]


@pytest.mark.parametrize(
    "args, message, at_cap",
    [
        (["convert", *_QUOTIENT, "--depth", "3", "--levels", str(10**17)], f"--levels {10**17}", "8"),
        (
            ["audit", *_QUOTIENT, "--check", "ville", "--n", "4", "--c", "2", "--mc-samples", str(10**11)],
            f"--mc-samples times --n {4 * 10**11}",
            "2",
        ),
        (["name", "--decomposition", f"interleave:{10**11}", "--point", "1/3", "--length", "3"], f"dimension {10**11}", None),
        (["name", "--decomposition", f"bary:{10**21}", "--point", "1/3", "--length", "3"], f"digit base {10**21}", None),
        (
            ["refine", "--source-dec", "binary", "--target-dec", f"bary:{10**21}", "--depth", "3", "--target-depth", "2"],
            f"digit base {10**21}",
            None,
        ),
    ],
    ids=lambda v: v[0] if isinstance(v, list) else None,
)
def test_sizes_past_the_expansion_cap_are_resource_errors(capsys, monkeypatch, args, message, at_cap):
    # each ran past a 5 s timeout: the level and sample loops, the interleave
    # root box and the bary splits were built before anything was checked
    started = time.monotonic()
    code, out, err = run_cli(capsys, *args)
    assert (code, out) == (3, "") and time.monotonic() - started < 1
    assert f"resource limit: {message} exceeds 2**20 (set RANDLAB_DEPTH_LIMIT to raise it)" in err
    if at_cap:  # 2**3 levels, or 2 samples of 4 steps, still run under a cap of 3
        monkeypatch.setenv("RANDLAB_DEPTH_LIMIT", "3")
        assert run_cli(capsys, *args[:-1], str(int(at_cap) + 1))[0] == 3
        code, out, _ = run_cli(capsys, *args[:-1], at_cap)
        assert code in (0, 1) and "timing_s" in out


def test_bary_builds_no_split_to_name_a_point(capsys):
    # 2**20 digit values pass the cap; naming reads none of the 2**20 - 1
    # splits, which took 1.6 s to build up front
    started = time.monotonic()
    code, out, _ = run_cli(capsys, "name", "--decomposition", f"bary:{2**20}", "--point", "1/3", "--length", "3")
    assert (code, "name: 111\n" in out) == (0, True) and time.monotonic() - started < 1


def test_interleave_checks_the_coordinate_count_before_its_root_box(capsys, monkeypatch):
    # 2**20 dimensions pass the cap; one coordinate is refused before the
    # million-entry root box is built
    started = time.monotonic()
    code, out, err = run_cli(capsys, "name", "--decomposition", f"interleave:{2**20}", "--point", "1/3", "--length", "3")
    assert (code, out) == (2, "") and time.monotonic() - started < 1
    assert f"expected {2**20} coordinates, got 1" in err
    monkeypatch.setenv("RANDLAB_DEPTH_LIMIT", "2")
    code, out, err = run_cli(capsys, "name", "--decomposition", "interleave:5", "--point", "0,0,0,0,0", "--length", "2")
    assert (code, out) == (3, "") and "resource limit: dimension 5 exceeds 2**2" in err
    code, out, _ = run_cli(capsys, "name", "--decomposition", "interleave:4", "--point", "1/3,1/5,1/7,1/9", "--length", "4")
    assert code == 0 and "name: 0000" in out


def test_push_natural_links_nest_to_the_bound(capsys, tmp_path):
    # 100 links: specfmt.MAX_NESTING; a document that names itself stops there too
    code, out, _ = run_cli(capsys, "audit", "--measure", "push:natural:" * 100 + "bernoulli:1/3", "--depth", "4")
    assert code == 0 and "check additivity@4: pass" in out
    doc = tmp_path / "self.json"
    doc.write_text(json.dumps({"kind": "pushforward", "decomposition": f"natural:doc:{doc}"}))
    code, out, err = run_cli(capsys, "audit", "--measure", f"doc:{doc}")
    assert (code, out) == (2, "") and "push:natural: nested deeper than 100 levels" in err


@pytest.mark.parametrize(
    "dec, point",
    [("ternary", "3/2"), ("ternary", "-1/2"), ("binary", "-1/2"), ("interleave:2", "3/2,1/3"), ("interleave:2", "1/3,-1/2")],
)
@pytest.mark.parametrize("command", ["name", "deficiency"])
def test_points_outside_the_unit_interval_are_refused(capsys, tmp_path, command, dec, point):
    # "name --decomposition ternary --point 3/2" printed "name: 1111"
    mfile = tmp_path / "m.machine"
    mfile.write_text("00\t11\n")
    machine = ["--machine", str(mfile)] if command == "deficiency" else []
    code, out, err = run_cli(capsys, command, *machine, "--decomposition", dec, f"--point={point}", "--length", "4")
    assert (code, out) == (2, "")
    assert "lies outside [0, 1]" in err


@pytest.mark.parametrize("dec, point", [("ternary", "1"), ("binary", "0"), ("interleave:2", "1,1/3")])
@pytest.mark.parametrize("command", ["name", "deficiency"])
def test_the_ends_of_the_unit_interval_are_undetermined(capsys, tmp_path, command, dec, point):
    mfile = tmp_path / "m.machine"
    mfile.write_text("00\t11\n")
    machine = ["--machine", str(mfile)] if command == "deficiency" else []
    code, out, _ = run_cli(capsys, command, *machine, "--decomposition", dec, "--point", point, "--length", "4")
    assert code == 1
    assert "undetermined at depth 1" in out


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


# report lines of refine and convert --transfer at depth 6, recorded before
# refinement moved to the integer-endpoint walker
PINNED_REFINEMENTS = {
    "refine --source-dec binary --target-dec ternary --depth 6 --target-depth 2": """
tau eps: cells=eps covered=1/1 residual=0/1
tau 0: cells=00,0100,010100 covered=21/64 residual=1/192
tau 1: cells=01011,011,1 covered=21/32 residual=1/96
tau 00: cells=0000,00010,000110 covered=7/64 residual=1/576
tau 01: cells=001,0100,010100 covered=13/64 residual=11/576
tau 10: cells=01011,011,100,10100 covered=5/16 residual=1/48
tau 11: cells=101011,1011,11 covered=21/64 residual=1/192
""",
    "refine --source-dec ternary --target-dec bary:5 --depth 6 --target-depth 2": """
tau eps: cells=eps covered=1/1 residual=0/1
tau 0: cells=00,0100,01010,010110 covered=16/81 residual=1/405
tau 1: cells=011,1 covered=7/9 residual=1/45
tau 00: cells=000 covered=1/27 residual=2/675
tau 01: cells=001001,00101,0011,0100,01010,010110 covered=38/243 residual=22/6075
tau 10: cells=011,1000,100100 covered=13/81 residual=16/405
tau 11: cells=10011,101,11 covered=16/27 residual=1/135
""",
    "convert --transfer A=ternary B=binary --measure bernoulli:1/3 --depth 6 --target-depth 2": """
transfer bary3 -> binary at depth 6
tau eps: kappa_low=1/1 kappa_high=1/1 residual=0/1
tau 0: kappa_low=206/243 kappa_high=626/729 residual=1/54
tau 1: kappa_low=103/729 kappa_high=37/243 residual=1/54
tau 00: kappa_low=464/729 kappa_high=52/81 residual=1/324
tau 01: kappa_low=50/243 kappa_high=2/9 residual=1/36
tau 10: kappa_low=70/729 kappa_high=82/729 residual=1/36
tau 11: kappa_low=29/729 kappa_high=11/243 residual=1/324
""",
    "convert --transfer A=bary:5 B=binary --measure push:ternary --depth 6 --target-depth 2": """
transfer bary5 -> binary at depth 6
tau eps: kappa_low=1/1 kappa_high=1/1 residual=0/1
tau 0: kappa_low=20/27 kappa_high=61/81 residual=1/50
tau 1: kappa_low=20/81 kappa_high=7/27 residual=1/50
tau 00: kappa_low=13/27 kappa_high=14/27 residual=1/500
tau 01: kappa_low=2/9 kappa_high=22/81 residual=13/500
tau 10: kappa_low=8/81 kappa_high=4/27 residual=9/100
tau 11: kappa_low=1/9 kappa_high=4/27 residual=1/20
""",
}


@pytest.mark.parametrize("command", sorted(PINNED_REFINEMENTS))
def test_refinement_reports_are_pinned(capsys, command):
    code, out, _ = run_cli(capsys, *command.split())
    assert code == 0
    lines = [line for line in out.splitlines() if not line.startswith(("command:", "timing_s"))]
    assert lines == PINNED_REFINEMENTS[command].strip().splitlines()


@pytest.mark.parametrize(
    "args",
    [
        ("refine", "--source-dec", "natural:fair", "--target-dec", "binary", "--depth", "3"),
        ("refine", "--source-dec", "binary", "--target-dec", "natural:fair", "--depth", "3"),
        ("convert", "--transfer", "A=natural:bernoulli:1/3", "B=ternary", "--depth", "4"),
        ("convert", "--transfer", "A=ternary", "B=natural:bernoulli:1/3", "--depth", "4"),
    ],
)
def test_refinement_rejects_natural_cells(capsys, args):
    code, _, err = run_cli(capsys, *args)
    assert code == 2
    assert "interval cells" in err


def test_refinement_respects_the_depth_cap(capsys, monkeypatch):
    monkeypatch.setenv("RANDLAB_DEPTH_LIMIT", "5")
    refine = ["refine", "--source-dec", "binary", "--target-dec", "ternary", "--depth", "8"]
    code, _, err = run_cli(capsys, *refine, "--target-depth", "8")
    assert code == 3 and "exceeds cap 5" in err
    code, _, err = run_cli(capsys, "convert", "--transfer", "A=binary", "B=ternary", "--depth", "8")
    assert code == 3 and "exceeds cap 5" in err
    # only the target depth is capped: each target cell's walk is O(depth)
    code, _, _ = run_cli(capsys, *refine, "--target-depth", "5")
    assert code == 0


def test_deep_refine_command(capsys):
    # 1200 source levels is deeper than the recursion limit
    args = ["refine", "--source-dec", "binary", "--target-dec", "ternary", "--depth", "1200", "--target-depth", "1"]
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    line = next(line for line in out.splitlines() if line.startswith("tau 0:"))
    fields = dict(field.split("=", 1) for field in line.split()[2:])
    assert Fraction(fields["covered"]) + Fraction(fields["residual"]) == Fraction(1, 3)


def test_reports_deterministic_modulo_timing(capsys):
    args = ["audit", "--measure", "bernoulli:1/3", "--check", "additivity", "--depth", "8"]
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert strip_timing(out1) == strip_timing(out2)


_PINNED_CAPITAL_TRACE = (
    "step,prefix,capital_num,capital_den,event\r\n"
    "0,,1,1,\r\n"
    '1,1,5,4,"cyl{00,11}"\r\n'
    "2,11,9,8,bit[2]=1\r\n"
)

_PINNED_DEFICIENCY_TRACE = (
    "n,neg_log_mass_low,neg_log_mass_high,K,d_low,d_high\r\n"
    "1,1,1,inf,-inf,-inf\r\n"
    "2,2,2,2,0,0\r\n"
)


def _assert_csv_pinned(capsys, tmp_path, args, expected):
    out_csv = tmp_path / "trace.csv"
    code, out, _ = run_cli(capsys, *args, "--out-csv", str(out_csv))
    assert code == 0
    assert out.startswith("command: randlab ")
    assert out_csv.read_bytes() == expected.encode()
    # without --out-csv the same bytes go to stdout, ahead of the report
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    assert out[: len(expected)] == expected
    assert out[len(expected):].startswith("command: randlab ")


def test_capital_trace_csv_bytes_are_pinned(capsys, tmp_path):
    strategy = tmp_path / "strategy.json"
    strategy.write_text(
        json.dumps(
            {
                "nodes": {
                    "": {"event": {"kind": "cylinders", "strings": ["00", "11"]}, "stake": "1/4"},
                    "1": {"event": {"kind": "bit", "index": 2, "side": 1}, "stake": "1/8"},
                }
            }
        )
    )
    args = ["bet", "--strategy", f"table:{strategy}", "--measure", "fair", "--source", "literal:110", "--length", "3"]
    _assert_csv_pinned(capsys, tmp_path, args, _PINNED_CAPITAL_TRACE)


def test_deficiency_trace_csv_bytes_are_pinned(capsys, tmp_path):
    mfile = tmp_path / "m.machine"
    mfile.write_text("00\t11\n")
    args = ["deficiency", "--machine", str(mfile), "--decomposition", "binary", "--point", "7/8", "--length", "2"]
    _assert_csv_pinned(capsys, tmp_path, args, _PINNED_DEFICIENCY_TRACE)


_CSV_TABLE_NODES = {
    "": {"event": {"kind": "cylinders", "strings": ["00", "11"]}, "stake": "1/4"},
    "1": {"event": {"kind": "bit", "index": 2, "side": 1}, "stake": "1/8"},
    "10": {"event": {"kind": "cylinders", "strings": ["0001", "1101"]}, "stake": "1/3"},
    "101": {"event": {"kind": "bit", "index": 4, "side": 0}, "stake": "1/2"},
    "1011": {"event": {"kind": "cylinders", "strings": ["000100", "110101", "11010011"]}, "stake": "2/7"},
    "10111": {"event": {"kind": "bit", "index": 5, "side": 1}, "stake": "1/5"},
}


@pytest.mark.parametrize("case", ["likelihood_ratio", "table"])
def test_bet_csv_is_what_the_csv_module_writes(capsys, tmp_path, case):
    # every row of the trace, against csv.writer fed PlayResult.values
    if case == "likelihood_ratio":
        rng = random.Random(5)
        x = "".join(rng.choice("01") for _ in range(1500))
        spec, measure = "likelihood_ratio:fair", "bernoulli:1/3"
    else:
        x, spec, measure = "1101001110", f"table:{tmp_path / 'strategy.json'}", "bernoulli:2/5"
        (tmp_path / "strategy.json").write_text(json.dumps({"nodes": _CSV_TABLE_NODES}))
    (tmp_path / "x.bits").write_text(x)
    mu = randlab.specfmt.parse_measure(measure)
    result = randlab.betting.play(randlab.specfmt.parse_strategy(spec, mu), mu, x)
    assert len(result.factors) == (1500 if case == "likelihood_ratio" else 6)
    expected = io.StringIO(newline="")
    writer = csv.writer(expected, lineterminator="\r\n")
    writer.writerow(("step", "prefix", "capital_num", "capital_den", "event"))
    for step, value in enumerate(result.values):
        writer.writerow((step, x[:step], value.numerator, value.denominator, result.events[step - 1] if step else ""))
    args = ["bet", "--strategy", spec, "--measure", measure, "--source", f"file:{tmp_path / 'x.bits'}", "--length", str(len(x))]
    _assert_csv_pinned(capsys, tmp_path, args, expected.getvalue())


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int->str digit limit before 3.11")
def test_bet_output_is_exact_past_the_int_digit_limit(capsys, tmp_path):
    rng = random.Random(11)
    x = "".join(rng.choice("01") for _ in range(1500))
    source = tmp_path / "x.bits"
    source.write_text(x)
    # fair model against a bernoulli(1/3) base: each 1 pays 3/2, each 0 3/4
    values = [Fraction(1)]
    for b in x:
        values.append(values[-1] * (Fraction(3, 2) if b == "1" else Fraction(3, 4)))
    final, top = values[-1], max(values)
    assert len(str(final.numerator)) > 640
    expected = f"summary: steps=1500 final={final.numerator}/{final.denominator} max={top.numerator}/{top.denominator} "
    last_row = f"1500,{x},{final.numerator},{final.denominator},bit[1499]=1"
    out_csv = tmp_path / "trace.csv"
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code = main(
            ["bet", "--strategy", "likelihood_ratio:fair", "--measure", "bernoulli:1/3",
             "--source", f"file:{source}", "--length", "1500", "--out-csv", str(out_csv)]
        )
        assert sys.get_int_max_str_digits() == 640
    finally:
        sys.set_int_max_str_digits(previous)
    out = capsys.readouterr().out
    assert code == 0
    assert expected in out
    assert out_csv.read_text().splitlines()[-1] == last_row


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int->str digit limit before 3.11")
def test_no_command_dies_on_the_int_digit_limit(capsys, tmp_path, monkeypatch):
    # splits of 1/10**3000 give converted bounds and violation texts past 4300 digits
    monkeypatch.chdir(tmp_path)
    split = "1/1" + "0" * 3000
    Path("F.json").write_text(json.dumps({"kind": "split_table", "entries": [["", split], ["0", split], ["1", split]]}))
    Path("T.json").write_text(json.dumps({"start": "1/1", "entries": {"0": "1" + "0" * 3000 + "/1"}}))
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        convert = run_cli(capsys, "convert", "--measure", "fair", "--martingale", "quotient:split_table:F.json/fair",
                          "--to", "integral", "--depth", "3", "--out-test", "o.json")
        back = run_cli(capsys, "convert", "--measure", "fair", "--input", "o.json", "--to", "vitali", "--depth", "3")
        audit = run_cli(capsys, "audit", "--measure", "split_table:F.json", "--martingale", "table:T.json",
                        "--check", "fairness", "--depth", "2")
        # a spec number past the limit now parses; before, it exited 2
        long_spec = run_cli(capsys, "audit", "--measure", "bernoulli:1/1" + "0" * 5000, "--check", "additivity", "--depth", "2")
        assert sys.get_int_max_str_digits() == 4300
    finally:
        sys.set_int_max_str_digits(previous)
    assert convert[0] == 0 and "check bounds@3: pass (30 checked)" in convert[1]
    assert back[0] == 0 and "path: integral -> bounded_ml -> vitali" in back[1]
    assert audit[0] == 1 and "check fairness@2: FAIL (3 checked)" in audit[1]
    assert "violation: fairness fails at '': " + "9" * 3000 in audit[1]
    assert long_spec[0] == 0 and "check additivity@2: pass" in long_spec[1]
    assert all(err == "" for _, _, err in (convert, back, audit, long_spec))


def test_cli_ville_fail_exits_1(capsys, tmp_path):
    path = tmp_path / "F.json"
    path.write_text('{"start": "1/1", "entries": {"0": "4/1", "1": "4/1"}}')
    code, out, _ = run_cli(capsys, "audit", "--measure", "fair", "--martingale", f"table:{path}", "--check", "ville", "--n", "4", "--c", "2")
    assert code == 1
    assert "check ville n=4 c=2/1: FAIL fraction=1/1 bound=1/2" in out.splitlines()


@pytest.mark.parametrize("command", [["audit", "--check", "fairness,ville"], ["convert", "--to", "integral"]])
@pytest.mark.parametrize("measure", ["bernoulli:1/3", "push:binary"])
def test_quotient_over_another_measure_is_refused(capsys, command, measure):
    # the denominator must write the document --measure writes, so even the
    # equal measure push:binary is refused against fair
    code, out, err = run_cli(capsys, *command, "--measure", measure, "--martingale", "quotient:bernoulli:2/3/fair", "--depth", "3")
    assert (code, out) == (2, "")
    label = "bernoulli(1/3)" if measure.startswith("bernoulli") else "push(binary)"
    assert err == f"usage error: quotient spec 'quotient:bernoulli:2/3/fair' divides by 'fair', not the base measure {label}\n"


def test_table_martingale_without_entries_is_its_start_capital(capsys, tmp_path):
    path = tmp_path / "m.json"
    path.write_text('{"start": "2/1"}')
    code, out, _ = run_cli(capsys, "audit", "--measure", "fair", "--martingale", f"table:{path}", "--check", "fairness", "--depth", "3")
    assert code == 0 and "check fairness@3: pass (7 checked)" in out


# ------------------------------------------------------------ one parser

REUSED_JOBS = [
    ["audit", "--measure", "bernoulli:1/3", "--martingale", "quotient:fair/bernoulli:1/3",
     "--check", "additivity,fairness,ville", "--depth", "4", "--n", "4", "--c", "2"],
    ["bet", "--strategy", "likelihood_ratio:fair", "--measure", "bernoulli:1/3", "--source", "prng:1", "--length", "12"],
    ["deficiency", "--machine", "{machine}", "--decomposition", "ternary", "--point", "2/7", "--length", "6"],
]


def test_one_parser_serves_every_call(capsys, tmp_path, monkeypatch):
    machine = tmp_path / "kc.machine"
    machine.write_text("0\t1\n10\t01\n110\t\n")
    jobs = [[a.format(machine=machine) for a in argv] for argv in REUSED_JOBS]

    def outcomes():
        return [(code, strip_timing(out), err) for code, out, err in (run_cli(capsys, *argv) for argv in jobs)]

    first = outcomes()
    usage = run_cli(capsys, "bet", "--strategy", "null", "--length", "x")
    between = outcomes()
    monkeypatch.setenv("COLUMNS", "40")
    narrow = run_cli(capsys, "deficiency", "--help")
    monkeypatch.setenv("COLUMNS", "200")
    wide = run_cli(capsys, "deficiency", "--help")
    after = outcomes()
    assert first == between == after
    assert [code for code, _, _ in first] == [0, 0, 0]
    assert usage[:2] == (2, "") and usage[2].endswith("randlab bet: error: argument --length: invalid int value: 'x'\n")
    assert narrow[0] == wide[0] == 0 and narrow[1].startswith("usage: randlab deficiency")
    assert narrow[1] != wide[1]  # wrapped to COLUMNS at each call
    assert randlab.cli.build_parser.cache_info().misses == 1


@pytest.mark.parametrize("columns", ["40", "200"])
@pytest.mark.parametrize(
    "argv", [["--help"], ["bet", "--help"], ["audit"], ["convert", "--depth", "x"], ["nosuch"], []], ids=repr
)
def test_the_shared_parser_prints_what_a_fresh_one_prints(capsys, monkeypatch, columns, argv):
    monkeypatch.setenv("COLUMNS", columns)
    with pytest.raises(SystemExit) as stop:
        randlab.cli.build_parser.__wrapped__().parse_args(argv)
    fresh = capsys.readouterr()
    code, out, err = run_cli(capsys, *argv)
    assert (out, err) == (fresh.out, fresh.err)
    assert code == (0 if stop.value.code == 0 else 2)


def test_the_parser_is_built_at_the_first_call_not_at_import():
    script = (
        "import randlab.cli as cli\n"
        "built_at_import = cli.build_parser.cache_info().currsize\n"
        "codes = [cli.main(['name', '--point', '1/3', '--length', '4']) for _ in range(3)]\n"
        "print(built_at_import, codes, cli.build_parser.cache_info().misses)\n"
    )
    src = os.path.dirname(os.path.dirname(randlab.cli.__file__))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 [0, 0, 0] 1"


# ---------------------------------------------------- argv property

HUGE = str(10**30)


def _mostly(usual, *odd):
    """usual values three times in four, so that an odd value mostly meets otherwise valid arguments."""
    return st.one_of(usual, usual, usual, st.sampled_from(odd))


# integers as argv spells them; the only huge one is negative, since a huge
# count of bits, samples, levels, digits or dimensions is a long job, not a
# malformed input
ODD_INTS = ("-1", "0", "-0", "+2", "007", " 3", "\u0663", "x", "", "1.5", "1e3", "inf", "nan", "0x10", "-" + HUGE)
INTS = _mostly(st.sampled_from(["1", "2", "3"]), *ODD_INTS)
SEEDS = _mostly(st.sampled_from(["0", "1", "7"]), *ODD_INTS, HUGE)
DEPTHS = _mostly(st.sampled_from(["1", "2", "3"]), *ODD_INTS, HUGE, "21")  # a depth is capped: a huge one exits 3
RATIONALS = _mostly(
    st.sampled_from(["1/3", "2/3", "1/2", "3/7"]),
    "0", "1", "0/1", "-1/2", "3/2", "1/0", "0/0", "inf", "-inf", "nan", "1e400", "0.5", "x", "", "1/3/5", " 1/2",
    HUGE, f"1/{HUGE}", f"{HUGE}/{HUGE}1", f"-{HUGE}",
)
FLOATS = _mostly(st.sampled_from(["0.1", "0.5"]), "0", "-1", "inf", "-inf", "nan", "1e400", "x", "", HUGE)
NOWHERE = "/nonexistent/randlab-input"


# JSON documents go into argv as "\0<json>\1", which the test writes to a
# file and replaces by its path; json.dumps escapes both control characters
JSON_ODD = st.sampled_from([None, True, False, 0, -1, 2, 1.5, "", "x", "1/2", [], ["0"], [["0", "1/2"]], {}, {"kind": "fair_coin"}])


def _embed(doc):
    return "\0" + json.dumps(doc) + "\1"


@st.composite
def _spoiled(draw, docs):
    """A document from docs three times in four; else one with a field
    dropped, added or of another JSON type, or no object at all."""
    doc = dict(draw(docs))
    how = draw(st.sampled_from(["keep"] * 12 + ["drop", "add", "retype", "whole"]))
    if how == "drop":
        del doc[draw(st.sampled_from(sorted(doc)))]
    elif how in ("add", "retype"):
        name = draw(st.sampled_from(sorted(doc))) if how == "retype" else draw(st.sampled_from(["q", "kind2", "p", "bound", "totl"]))
        doc[name] = draw(JSON_ODD)
    elif how == "whole":
        return draw(JSON_ODD)
    return doc


def _measure_docs(depth=2):
    """Measure documents, nested to depth."""
    cells = st.sampled_from(["", "0", "1", "01", "2"])
    usual = st.one_of(
        st.just({"kind": "fair_coin"}),
        RATIONALS.map(lambda p: {"kind": "bernoulli", "p": p}),
        st.fixed_dictionaries(
            {"kind": st.just("split_table"), "entries": st.lists(st.tuples(cells, RATIONALS).map(list), max_size=3)},
            optional={"default": RATIONALS, "total": RATIONALS},
        ),
        st.sampled_from(["binary", "ternary", "bary:3", "interleave:2", "bary:1"]).map(lambda d: {"kind": "pushforward", "decomposition": d}),
    )
    if depth > 1:
        usual = st.one_of(usual, st.lists(_measure_docs(depth - 1), min_size=2, max_size=2).map(lambda f: {"kind": "interleave", "factors": f}))
    return _spoiled(usual)


MEASURE_DOCS = _measure_docs()
GENERATORS = st.lists(st.lists(st.sampled_from(["0", "1", "00", "01", "10", "11", "2"]), max_size=3), max_size=3)
TEST_DOCS = _spoiled(
    st.one_of(
        st.fixed_dictionaries({"kind": st.just("ml"), "base": MEASURE_DOCS, "levels": GENERATORS}, optional={"depth": st.integers(0, 3)}),
        st.fixed_dictionaries(
            {"kind": st.sampled_from(["bounded_ml", "vitali"]), "base": MEASURE_DOCS, "bound": MEASURE_DOCS, "levels": GENERATORS},
            optional={"depth": st.integers(0, 3)},
        ).map(lambda d: dict(d, pieces=d.pop("levels")) if d["kind"] == "vitali" else d),
        st.fixed_dictionaries(
            {"kind": st.just("integral"), "base": MEASURE_DOCS, "bound": MEASURE_DOCS,
             "values": st.lists(st.tuples(st.sampled_from(["0", "1", "00", "11"]), RATIONALS).map(list), max_size=3)},
            optional={"depth": st.integers(0, 3), "unit_witness": st.booleans()},
        ),
    )
)


def _measures(depth=2):
    """Measure specs, nested to depth."""
    usual = st.one_of(
        st.sampled_from(["fair", "fair_coin", "push:ternary"]), RATIONALS.map("bernoulli:{}".format),
        MEASURE_DOCS.map(lambda d: "doc:" + _embed(d)), MEASURE_DOCS.map(lambda d: "split_table:" + _embed(d)),
    )
    if depth > 1:
        inner = _measures(depth - 1)
        usual = st.one_of(usual, st.tuples(inner, inner).map("interleave:{0[0]}*{0[1]}".format), inner.map("push:natural:{}".format))
    return _mostly(usual, "push:bary:1", "bernoulli", "interleave:fair", "bogus", "", f"doc:{NOWHERE}")


MEASURES = _measures()
HISTORIES = st.sampled_from(["", "0", "1", "01", "2"])
TABLE_MARTINGALE_DOCS = _spoiled(
    st.fixed_dictionaries({"entries": st.dictionaries(HISTORIES, st.one_of(RATIONALS, JSON_ODD), max_size=3)}, optional={"start": RATIONALS})
)
EVENT_DOCS = _spoiled(
    st.one_of(
        st.fixed_dictionaries({"kind": st.just("bit"), "index": st.one_of(st.integers(-1, 3), INTS), "side": st.sampled_from([0, 1, 2, "1", -1])}),
        st.fixed_dictionaries({"kind": st.just("cylinders"), "strings": st.lists(st.sampled_from(["0", "1", "00", "01", "2"]), max_size=3)}),
    )
)
STRATEGY_DOCS = _spoiled(
    st.fixed_dictionaries(
        {"nodes": st.dictionaries(HISTORIES, _spoiled(st.fixed_dictionaries({"event": EVENT_DOCS, "stake": RATIONALS})), max_size=3)},
        optional={"start": RATIONALS},
    )
)
MARTINGALES = _mostly(
    st.one_of(
        st.tuples(MEASURES, MEASURES).map("quotient:{0[0]}/{0[1]}".format), st.sampled_from(["all_in:0", "all_in:1"]),
        st.tuples(st.sampled_from(["table", "file"]), TABLE_MARTINGALE_DOCS.map(_embed)).map(":".join),
    ),
    "all_in:2", "all_in:", "quotient:fair", f"table:{NOWHERE}", "bogus",
)
DECOMPOSITIONS = _mostly(
    st.one_of(
        st.sampled_from(["binary", "ternary", "bary:5", "interleave:2"]),
        _mostly(st.sampled_from(["2", "3", "5"]), *ODD_INTS).map("bary:{}".format),
        INTS.map("interleave:{}".format),
        MEASURES.map("natural:{}".format),
    ),
    "bogus", "bary:", "interleave:",
)
POINTS = _mostly(st.one_of(RATIONALS, st.tuples(RATIONALS, RATIONALS).map("{0[0]},{0[1]}".format)), "0101", "012", "", ",")
SOURCES = _mostly(
    st.one_of(
        st.sampled_from(["champernowne", "literal:0110"]),
        SEEDS.map("prng:{}".format),
        st.tuples(RATIONALS, SEEDS).map("bernoulli:{0[0]},seed={0[1]}".format),
    ),
    "literal:012", "literal:", f"file:{NOWHERE}", "bernoulli:1/3,x=1", "bogus",
)
STRATEGIES = _mostly(
    st.one_of(
        st.sampled_from(["null", "bit_all_in:01", "bit_all_in:1"]), MEASURES.map("likelihood_ratio:{}".format),
        STRATEGY_DOCS.map(lambda d: "table:" + _embed(d)),
    ),
    "bit_all_in:", "bit_all_in:2", f"doubling:{NOWHERE}", f"table:{NOWHERE}", "bogus",
)
CHECKS = _mostly(st.lists(st.sampled_from(["additivity", "fairness", "savings", "ville"]), min_size=1, max_size=2).map(",".join), "bogus", "", ",")


def _argv(command, required, optional):
    """argv for command: each required option with a value, each optional one present or absent."""
    parts = [value.map(lambda v, flag=flag: [flag, v]) for flag, value in required.items()]
    parts += [st.one_of(st.just([]), value.map(lambda v, flag=flag: [flag, v])) for flag, value in optional.items()]
    return st.tuples(*parts).map(lambda words: [command] + [word for pair in words for word in pair])


ARGVS = st.one_of(
    _argv(
        "audit", {"--measure": MEASURES, "--check": CHECKS, "--depth": DEPTHS, "--n": INTS},
        {"--martingale": MARTINGALES, "--c": st.one_of(RATIONALS, st.tuples(RATIONALS, RATIONALS).map(",".join)),
           "--mc-samples": INTS, "--mc-band": FLOATS, "--seed": SEEDS},
    ),
    _argv(
        "convert", {"--martingale": MARTINGALES, "--depth": DEPTHS},
        {"--measure": MEASURES, "--to": _mostly(st.sampled_from(["savings", "integral", "bounded_ml", "vitali", "cycle"]), "martingale", "bogus"),
           "--levels": INTS},
    ),
    _argv(
        "convert", {"--input": TEST_DOCS.map(_embed), "--depth": DEPTHS},
        {"--to": st.sampled_from(["martingale", "integral", "bounded_ml", "vitali", "bogus"]), "--levels": INTS},
    ),
    st.tuples(DECOMPOSITIONS, DECOMPOSITIONS, MEASURES, DEPTHS, DEPTHS).map(
        lambda p: ["convert", "--transfer", f"A={p[0]}", f"B={p[1]}", "--measure", p[2], "--depth", p[3], "--target-depth", p[4]]
    ),
    _argv("bet", {"--strategy": STRATEGIES, "--measure": MEASURES, "--source": SOURCES}, {"--length": INTS}),
    _argv("deficiency", {"--machine": st.just("{machine}"), "--point": POINTS}, {"--decomposition": DECOMPOSITIONS, "--length": INTS}),
    _argv("name", {"--point": POINTS}, {"--decomposition": DECOMPOSITIONS, "--length": INTS}),
    _argv("refine", {"--source-dec": DECOMPOSITIONS, "--target-dec": DECOMPOSITIONS}, {"--depth": INTS, "--target-depth": DEPTHS}),
)


@pytest.fixture(scope="module")
def input_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("inputs")
    (path / "kc.machine").write_text("0\t1\n10\t01\n110\t\n")
    return path


def _write_docs(argv, directory):
    """argv with each embedded document written to a file of its own and replaced by its path."""
    numbers = itertools.count()

    def write(match):
        path = directory / f"doc{next(numbers)}.json"
        path.write_text(match.group(1))
        return str(path)

    return [re.sub("\0(.*?)\1", write, word) for word in argv]


# every command through the one shared parser, each depth given so that an
# example takes milliseconds, with measure, test, table martingale and table
# strategy documents that miss a field, hold an unknown one or one of another
# JSON type: a raw exception fails the test, and exit 1 must say which check
# failed or what was flagged
@given(ARGVS)
@settings(max_examples=1000, deadline=None)
def test_no_argv_gets_a_raw_error_or_a_wrong_exit_code(input_dir, argv):
    argv = _write_docs([word.replace("{machine}", str(input_dir / "kc.machine")) for word in argv], input_dir)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    if code == 1:
        assert re.search(r"FAIL|flag:|undetermined|strategy violation", out + err), (argv, out, err)


README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_commands():
    """The commands of the sh block in README's "Command line" section, one
    argv each, without the leading "randlab"."""
    section = README.read_text().split("## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    assert all(line.startswith("randlab ") for line in lines)
    return [shlex.split(line)[1:] for line in lines]


def test_readme_commands_run(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "u.cylinders").write_text("00\n")
    (tmp_path / "m.machine").write_text("00\t11\n")
    codes = []
    for argv in _readme_commands():
        code, out, err = run_cli(capsys, *argv)
        assert "Traceback" not in err, argv
        codes.append((argv[0], code))
    # the deficiency point 7/8 is a cell endpoint, so its name is undetermined
    assert codes == [
        ("audit", 0), ("audit", 0), ("convert", 0), ("convert", 0), ("convert", 0),
        ("bet", 0), ("bet", 0), ("deficiency", 1), ("name", 0), ("refine", 0),
    ]


# sha256 of the --out-test file, the digest output line and the exit code of
# convert --to bounded_ml --depth 6 over bases of every measure document kind,
# recorded before measures wrote their own documents
_OUTPUT_PINS = {
    ("fair", "all_in:0"): ("113561fabaf2c86b3ab40455710c6178457a403ae86d81b02d59960773695a5b", "274c137e8584dee0", 0),
    ("fair", "quotient"): ("5272b13c4bde09dff560b0e83ffe8e71998bae79bc02ad85f1b1e00393279220", "e9d18962a2fa4b7b", 0),
    ("bernoulli:1/3", "all_in:0"): ("eea41d48e19c165d9d38189900736f6fdfffcbf9295515cba34e94b720a78d3a", "c0e60c9a4af0c37b", 0),
    ("bernoulli:1/3", "quotient"): ("eeeea12e422564c7ee2ae71a42894d2e237c49a713eea19a84c5667eb125002f", "a0304f9f39ad37ab", 0),
    ("split_table:{table}", "all_in:0"): ("8753c7187f9c41fc0a1618c9aef57eda0a4eca12cce3a479f5d8ec4c8eec7784", "2a8b24f41a3d2b16", 0),
    # bernoulli:2/3 charges '11', which the table leaves null
    ("split_table:{table}", "quotient"): ("57af2f3d8a2c765afc1a5a16649e1ac4a6304b4c98041ce5a43ac8bf7b7fd4e1", "fc90674793efd902", 1),
    ("interleave:bernoulli:1/3*push:ternary", "all_in:0"): ("ca5dde393434b7058d7786100c1a3a71ff0414ef5f356ff912df21b4bb468c95", "b194c545ca28f441", 0),
    ("interleave:bernoulli:1/3*push:ternary", "quotient"): ("d2179c980938cdca8288e6577d2c088399d05aa34aea39db47a2fa11d9aa9c50", "4b84a3e3e75bbbc4", 0),
    ("push:bary:5", "all_in:0"): ("5997e42510ed6a380af1c6650d75712ade37460c99bd087f94f2b1b831544311", "7b6b819341f51ff0", 0),
    ("push:bary:5", "quotient"): ("914c1f163068fa6810e542ca720a42849f297aa0a1132f49332dd118de5acb34", "107df53095338d1d", 0),
}


@pytest.mark.parametrize("base, martingale", list(_OUTPUT_PINS), ids=lambda text: text.split(":")[0])
def test_convert_output_bytes_are_pinned_over_every_measure_kind(capsys, tmp_path, base, martingale):
    table = tmp_path / "table.json"
    table.write_text(json.dumps({
        "kind": "split_table", "entries": [["01", "3/4"], ["", "1/3"], ["1", "0/1"]], "default": "2/5", "total": "3/2",
    }))
    out_test = tmp_path / "t.json"
    file_sha, digest, exit_code = _OUTPUT_PINS[base, martingale]
    base = base.format(table=table)
    martingale = "quotient:bernoulli:2/3/" + base if martingale == "quotient" else martingale
    code, out, _ = run_cli(capsys, "convert", "--measure", base, "--martingale", martingale,
                           "--to", "bounded_ml", "--depth", "6", "--out-test", str(out_test))
    assert code == exit_code
    assert hashlib.sha256(out_test.read_bytes()).hexdigest() == file_sha
    assert f"digest output: {digest}" in out.splitlines()


@pytest.mark.parametrize("spec", ["doc:{doc}", "interleave:fair*" * 99 + "doc:{leaf}"], ids=["doc", "compact"])
def test_interleaves_nested_to_the_bound_round_trip(capsys, tmp_path, spec):
    # 100 interleaves deep: specfmt.MAX_NESTING, the deepest nesting read
    (tmp_path / "doc.json").write_text(_nested_interleave(randlab.specfmt.MAX_NESTING))
    (tmp_path / "leaf.json").write_text(_nested_interleave(1))
    spec = spec.format(doc=tmp_path / "doc.json", leaf=tmp_path / "leaf.json")
    out_test = tmp_path / "t.json"
    head = ["convert", "--measure", spec, "--martingale", "all_in:0"]
    code, out, _ = run_cli(capsys, *head, "--to", "bounded_ml", "--depth", "6", "--out-test", str(out_test))
    assert code == 0, out
    base = json.loads(out_test.read_text())["base"]
    assert base == randlab.specfmt.measure_to_doc(randlab.specfmt.parse_measure(spec))
    if spec.startswith("doc:"):
        assert base == json.loads((tmp_path / "doc.json").read_text())
    code, out, _ = run_cli(capsys, "convert", "--input", str(out_test), "--to", "martingale", "--depth", "6")
    assert code == 0, out
