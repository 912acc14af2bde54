import argparse
import importlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import anop
from anop import cli
from anop.cli import execute
import anop.serialize as sz

from conftest import GOLDEN, ROOT, SPECS, same_model

#: directory holding the ``anop`` package this test process imported
PACKAGE_PARENT = Path(anop.__file__).resolve().parent.parent


def run_cli(argv, stdin_text=None, monkeypatch=None):
    out, err = io.StringIO(), io.StringIO()
    if stdin_text is not None:
        # a stdin with a byte buffer, as a process has; surrogate escapes
        # stand for bytes that are not UTF-8
        raw = stdin_text.encode("utf-8", "surrogateescape")
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8"))
    code = execute(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


GOLDEN_CASES = [
    (["classify", "violator_from_below.json"], "classify_from_below.json"),
    (["classify", "positive_tail.json"], "classify_positive_tail.json"),
    (["classify", "selfadjoint_signed.json"], "classify_selfadjoint.json"),
    (["decompose", "uniqueness_full.json"], "decompose_full.json"),
    (["structure", "selfadjoint_signed.json"], "structure_selfadjoint.json"),
]


@pytest.mark.parametrize("argv,golden", GOLDEN_CASES,
                         ids=[g for _, g in GOLDEN_CASES])
def test_golden_outputs_are_stable(argv, golden):
    argv = [argv[0], str(SPECS / argv[1])]
    code, first, _ = run_cli(argv)
    assert code == 0
    code, second, _ = run_cli(argv)
    assert code == 0
    assert first == second
    assert first == (GOLDEN / golden).read_text()


def test_every_shipped_spec_classifies_deterministically():
    for path in sorted(SPECS.glob("*.json")):
        code, first, _ = run_cli(["classify", str(path)])
        assert code == 0, path.name
        code, second, _ = run_cli(["classify", str(path)])
        assert first == second, path.name
        assert first.endswith("\n") and "\n" not in first[:-1]


def test_report_envelope_fields():
    code, out, _ = run_cli(["classify", str(SPECS / "positive_tail.json")])
    env = json.loads(out)
    assert code == 0
    assert env["schema_version"] == "1"
    assert env["command"] == "classify"
    assert env["diagnostics"] == []
    assert env["result"]["is_an"] is True


def test_garbage_stdin_exits_one_with_parse_diagnostic(monkeypatch):
    code, out, _ = run_cli(["classify"], stdin_text="{never json",
                           monkeypatch=monkeypatch)
    assert code == 1
    env = json.loads(out)
    assert env["result"] is None
    assert env["diagnostics"][0]["code"] == "PARSE"


def test_input_that_is_not_utf8_is_one_parse_line_from_file_or_stdin(tmp_path, monkeypatch):
    raw = b"\xff{}"
    path = tmp_path / "latin.json"
    path.write_bytes(raw)
    from_file = run_cli(["classify", str(path)])
    # stdin hands over undecodable bytes as surrogate escapes
    from_stdin = run_cli(["classify"], raw.decode("utf-8", "surrogateescape"),
                         monkeypatch)
    assert from_file == from_stdin
    code, out, err = from_file
    assert code == 1 and err == ""
    assert out.count("\n") == 1
    assert json.loads(out)["diagnostics"][0]["code"] == "PARSE"


def test_missing_file_exits_one_with_io_diagnostic(tmp_path):
    code, out, _ = run_cli(["classify", str(tmp_path / "nope.json")])
    assert code == 1
    env = json.loads(out)
    assert env["diagnostics"][0]["code"] == "IO"


def test_domain_failure_exits_two(monkeypatch):
    code, triple_doc, _ = run_cli(["decompose", str(SPECS / "kernel_case.json")])
    assert code == 0
    code, out, _ = run_cli(["invert"], stdin_text=triple_doc,
                           monkeypatch=monkeypatch)
    assert code == 2
    env = json.loads(out)
    assert env["diagnostics"][0]["code"] == "NOT_INJECTIVE"
    assert env["result"] is None


def test_usage_errors_exit_sixtyfour():
    for argv in ([], ["classify", "--bogus"], ["shift", "x.json"],
                 ["realize", "x.json"], ["blocks", "x.json", "--dim", "8", "--splitter", "f"]):
        code, out, err = run_cli(argv)
        assert code == 64, argv
        assert out == ""
        assert err.startswith("anop:")


def test_help_exits_zero():
    code, out, _ = run_cli(["--help"])
    assert code == 0
    assert out.startswith("usage: anop ")


def test_one_parser_serves_every_call_alike():
    argv = ["classify", str(SPECS / "positive_tail.json")]
    first = run_cli(argv)
    parser = cli._build_parser()
    assert run_cli(["classify", "--bogus"])[0] == 64
    assert run_cli(["verify", "--help"])[0] == 0
    assert run_cli(argv) == first
    assert first[0] == 0 and cli._build_parser() is parser


def _subcommands():
    """The subcommand names, in the parser's order."""
    parser = cli._build_parser()
    [sub] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return list(sub.choices)


#: every (command, option) pair; --tol only where it bounds a judged check
#: (realize --verify, verify)
OPTIONS = [
    ("shift", "--shift"),
    ("realize", "--dim"), ("realize", "--seed"), ("realize", "--tol"), ("realize", "--verify"),
    ("verify", "--dim"), ("verify", "--seed"), ("verify", "--tol"),
    ("blocks", "--dim"), ("blocks", "--seed"),
    ("invert-matrix", "--dim"), ("invert-matrix", "--seed"),
    ("oracle", "--depth"),
    ("fuzz", "--count"), ("fuzz", "--family"), ("fuzz", "--seed"), ("fuzz", "--depth"),
]


def test_command_options_are_pinned():
    assert [(name, flags[0]) for name, _, _, arguments in cli._COMMANDS
            for flags, _ in arguments if flags[0].startswith("-")] == OPTIONS
    assert len(OPTIONS) == 17


def test_readme_names_exactly_the_parsers_commands():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    sentence = re.search(r"\nCommands: (.*?)\.\s", readme, re.DOTALL).group(1)
    assert re.findall(r"`([^`]+)`", sentence) == _subcommands()


@pytest.mark.parametrize("command", _subcommands())
def test_every_subcommand_help_exits_zero(command, capsys):
    code, out, _ = run_cli([command, "--help"])
    assert code == 0
    assert out.startswith(f"usage: anop {command} ")
    assert capsys.readouterr().out == ""


#: the options each command runs with in the sweep below
SWEEP_OPTIONS = {
    "shift": ["--shift", "0.5"],
    "oracle": ["--depth", "6"],
    "fuzz": ["--count", "20", "--depth", "6"],
    **dict.fromkeys(("realize", "verify", "blocks", "invert-matrix"),
                    ["--dim", "16", "--seed", "3"]),
}
#: the commands that read a triple
TAKES_TRIPLE = {"recompose", "square", "sqrt", "invert", "fredholm",
                "realize", "verify", "blocks", "invert-matrix"}


def _clean_run(argv, stdin_text=None, monkeypatch=None):
    """Exit code and report of one run that prints one JSON line, exits 0, 1
    or 2, writes nothing to stderr and raises no warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(argv, stdin_text, monkeypatch)
    assert code in (0, 1, 2) and err == "", argv
    [line] = out.splitlines()
    return code, line


def test_every_command_runs_cleanly_on_every_document(tmp_path, monkeypatch):
    """Every command on each shipped spec, on ``generate_model`` seeds 0-9 of
    each family and, where it reads one, on the triple ``decompose`` pipes
    out of each; polar reads the matrix realize makes of each, and fuzz no
    document.  realize, verify and blocks succeed on every AN document."""
    from anop.oracle import FAMILIES, generate_model
    paths = sorted(SPECS.glob("*.json"))
    assert paths
    for family in FAMILIES:
        for seed in range(10):
            paths.append(tmp_path / f"{family}-{seed}.json")
            paths[-1].write_text(sz.emit(sz.model_payload(generate_model(seed, family))))
    commands = [c for c in _subcommands() if c not in ("fuzz", "polar")]
    _clean_run(["fuzz", *SWEEP_OPTIONS["fuzz"]])
    for path in paths:
        code, line = _clean_run(["classify", str(path)])
        documents = [(path, code == 0 and json.loads(line)["result"]["is_an"], commands)]
        code, line = _clean_run(["decompose", str(path)])
        if code == 0:
            (tmp_path / "triple.json").write_text(line)
            documents.append((tmp_path / "triple.json", True,
                              [c for c in commands if c in TAKES_TRIPLE]))
        for doc, is_an, runs in documents:
            for command in runs:
                argv = [command, str(doc), *SWEEP_OPTIONS.get(command, [])]
                code, line = _clean_run(argv)
                if is_an and command in ("realize", "verify", "blocks"):
                    assert code == 0, (argv, line)
                if command == "realize" and code == 0:
                    _clean_run(["polar", "-"], line, monkeypatch)


def test_pipe_decompose_into_recompose(monkeypatch):
    src = SPECS / "uniqueness_full.json"
    code, piped, _ = run_cli(["decompose", str(src)])
    assert code == 0
    code, out, _ = run_cli(["recompose"], stdin_text=piped,
                           monkeypatch=monkeypatch)
    assert code == 0
    got = sz.parse_model(json.loads(out)["result"])
    want = sz.parse_model(json.loads(src.read_text()))
    assert same_model(got, want, tol=1e-12)


def test_realize_verify_attaches_report(monkeypatch):
    argv = ["realize", str(SPECS / "uniqueness_full.json"),
            "--dim", "10", "--seed", "3", "--verify"]
    code, out, _ = run_cli(argv)
    assert code == 0
    result = json.loads(out)["result"]
    assert result["verification"]["ok"] is True
    assert len(result["matrix"]) == 10
    assert result["labels"][0] == "k"


def test_env_tolerance_must_be_numeric(monkeypatch):
    monkeypatch.setenv("ANOP_TOL", "loose")
    argv = ["verify", str(SPECS / "positive_tail.json"), "--dim", "8"]
    code, out, _ = run_cli(argv)
    assert code == 1
    assert json.loads(out)["diagnostics"][0]["code"] == "PARSE"
    # an explicit flag wins over the broken environment
    code, out, _ = run_cli(argv + ["--tol", "1e-9"])
    assert code == 0
    assert json.loads(out)["result"]["ok"] is True


BAD_TOL_ARGV = [
    ["oracle", "positive_tail.json", "--depth", "1"],
    ["verify", "--dim", "8", "--tol", "0"],
    ["fuzz", "--count", "1", "--depth", "1"],
    ["fuzz", "--count", "-1"],
    ["verify", "positive_tail.json", "--dim", "8", "--tol", "-1"],
]


@pytest.mark.parametrize("argv", BAD_TOL_ARGV, ids=" ".join)
def test_bad_tolerance_or_depth_flag_is_a_usage_error(argv):
    argv = [str(SPECS / a) if a.endswith(".json") else a for a in argv]
    code, out, err = run_cli(argv)
    assert code == 64
    assert out == ""
    assert err.startswith("anop: argument --")


@pytest.mark.parametrize("value", ["-1", "0", "1", "nan", "inf"])
def test_env_tolerance_outside_unit_interval_is_a_parse_failure(monkeypatch, value):
    polar = run_cli(["polar"], "[[2, 0], [0, 1]]", monkeypatch)
    monkeypatch.setenv("ANOP_TOL", value)
    code, out, _ = run_cli(["verify", str(SPECS / "positive_tail.json"), "--dim", "8"])
    assert code == 1
    env = json.loads(out)
    assert env["result"] is None
    assert env["diagnostics"][0]["code"] == "PARSE"
    # polar reads no tolerance: the environment leaves its bytes unchanged
    assert run_cli(["polar"], "[[2, 0], [0, 1]]", monkeypatch) == polar
    assert polar[0] == 0


@pytest.mark.parametrize("argv", [
    ["oracle", "positive_tail.json", "--tol", "0.1"], ["fuzz", "--tol", "0.1"],
    ["blocks", "positive_tail.json", "--dim", "8", "--tol", "0.1"],
    ["invert-matrix", "positive_tail.json", "--dim", "8", "--tol", "0.1"],
    *(["polar", "--tol", tol] for tol in ("0", "1", "nan", "inf"))],
    ids=lambda argv: " ".join(argv) if argv[0] == "polar" else argv[0])
def test_spectral_commands_take_no_tolerance_flag(argv):
    # the oracle decides at the classifier's MERGE_TOL, blocks and
    # invert-matrix split F at CHECK_TOL, and polar's rank cutoff is
    # POLAR_TOL; no flag reaches any of them
    argv = [str(SPECS / a) if a.endswith(".json") else a for a in argv]
    code, out, err = run_cli(argv)
    assert code == 64
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("anop: ")


#: a triple whose F of rank 1 an ANOP_TOL of 0.5 would put in the kernel
RANK_ONE_F = ('{"alpha":1.0,"identity_multiplicity":1,"f":[{"value":0.3,"mult":1}],'
              '"k":{"kind":"positive","points":[{"value":1.0,"mult":1}]}}')


def test_env_tolerance_leaves_oracle_and_fuzz_unchanged(monkeypatch, tmp_path):
    (tmp_path / "triple.json").write_text(RANK_ONE_F)
    # a singular value of 1e-4 that a rank cutoff of 0.5 would drop
    (tmp_path / "matrix.json").write_text("[[1, 0], [0, 1e-4]]")
    matrix = [str(tmp_path / "triple.json"), "--dim", "3", "--seed", "3"]
    runs = (["oracle", str(SPECS / "violator_from_below.json")],
            ["fuzz", "--count", "240"], ["blocks", *matrix], ["invert-matrix", *matrix],
            ["polar", str(tmp_path / "matrix.json")])
    plain = [run_cli(argv) for argv in runs]
    monkeypatch.setenv("ANOP_TOL", "0.5")
    assert [run_cli(argv) for argv in runs] == plain
    assert [code for code, _, _ in plain] == [0, 0, 0, 0, 0]
    assert json.loads(plain[2][1])["result"]["range_dim"] == 1
    # the isometry keeps both directions: (re, im) pairs of the identity
    assert json.loads(plain[4][1])["result"]["isometry"] == [
        [[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]


def test_fuzz_reports_full_agreement():
    code, out, _ = run_cli(["fuzz", "--count", "24", "--seed", "7"])
    assert code == 0
    result = json.loads(out)["result"]
    assert result["agreements"] == 24
    assert result["disagreements"] == []


def test_blocks_and_matrix_inverse_round_trip(monkeypatch):
    src = str(SPECS / "uniqueness_full.json")
    code, out, _ = run_cli(["blocks", src, "--dim", "12", "--seed", "5"])
    assert code == 0
    result = json.loads(out)["result"]
    assert result["range_dim"] + result["kernel_dim"] == 12
    assert result["off_diagonal_norm"] <= 1e-10

    code, out, _ = run_cli(["invert-matrix", src, "--dim", "12", "--seed", "5"])
    assert code == 0
    assert json.loads(out)["result"]["residual"] <= 1e-10


def test_fredholm_reads_model_or_triple(monkeypatch):
    src = str(SPECS / "uniqueness_full.json")
    code, direct, _ = run_cli(["fredholm", src])
    assert code == 0
    code, triple_doc, _ = run_cli(["decompose", src])
    assert code == 0
    code, piped, _ = run_cli(["fredholm", "-"], stdin_text=triple_doc,
                             monkeypatch=monkeypatch)
    assert code == 0
    assert json.loads(piped)["result"] == json.loads(direct)["result"]

    code, out, _ = run_cli(["fredholm", str(SPECS / "selfadjoint_signed.json")])
    assert code == 2
    env = json.loads(out)
    assert env["diagnostics"][0]["code"] == "WRONG_KIND"
    assert env["result"] is None


def test_shift_reports_a_malformed_normal_model_as_malformed(monkeypatch):
    # the model is checked when it is read, before shift looks at its kind
    doc = '{"kind":"normal","points":[{"value":[1,0],"mult":0}]}'
    code, out, _ = run_cli(["shift", "-", "--shift", "0.5"], stdin_text=doc,
                           monkeypatch=monkeypatch)
    assert code == 2
    env = json.loads(out)
    assert env["diagnostics"][0]["code"] == "MALFORMED"
    assert env["result"] is None


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("doc", [None, '{"kind":"selfadjoint","points":[]}'],
                         ids=["selfadjoint_signed", "empty"])
def test_non_finite_shift_is_a_usage_error(doc, value, monkeypatch):
    # the flag is refused before any document is read, whatever it holds
    argv = ["shift", str(SPECS / "selfadjoint_signed.json") if doc is None else "-",
            f"--shift={value}"]
    code, out, err = run_cli(argv, stdin_text=doc, monkeypatch=monkeypatch)
    assert code == 64
    assert out == ""
    assert err == f"anop: argument --shift: shift must be a finite number, got {value!r}\n"


@pytest.mark.parametrize("value", ["-1e-3", "-.5e2", "-1E+2"])
def test_negative_shift_in_exponent_form_is_a_value(value):
    doc = str(SPECS / "selfadjoint_signed.json")
    spaced = run_cli(["shift", doc, "--shift", value])
    assert spaced[0] == 0
    assert spaced == run_cli(["shift", doc, f"--shift={value}"])


def test_negative_infinite_shift_as_its_own_argument_is_not_finite():
    code, out, err = run_cli(["shift", str(SPECS / "selfadjoint_signed.json"),
                              "--shift", "-inf"])
    assert (code, out) == (64, "")
    assert err == "anop: argument --shift: shift must be a finite number, got '-inf'\n"


@pytest.mark.parametrize("block_mult,kernel", [(-2, 0), (1, -3)],
                         ids=["negative_block_mult", "negative_kernel"])
def test_structure_with_negative_multiplicity_is_malformed(block_mult, kernel, monkeypatch):
    # checked when the structure is built, not left to the entry layout
    doc = json.dumps({"alpha": 1.0,
                      "blocks": [{"phase": [1, 0], "part": "k", "value": 0.5,
                                  "mult": block_mult}],
                      "clusters": [], "kernel_multiplicity": kernel})
    code, out, _ = run_cli(["verify", "-", "--dim", "6"], stdin_text=doc,
                           monkeypatch=monkeypatch)
    assert code == 2
    env = json.loads(out)
    assert env["diagnostics"][0]["code"] == "MALFORMED"
    assert env["result"] is None


@pytest.mark.parametrize("command", ["realize", "verify"])
@pytest.mark.parametrize("alpha", ["-1.0", "1e400"], ids=["negative", "overflowing"])
def test_structure_with_bad_alpha_is_malformed(command, alpha, monkeypatch):
    # alpha is checked when the structure is built, with the triple's rule
    doc = ('{"alpha": %s, "blocks": [{"phase": [1, 0], "part": "f", "value": 0.5,'
           ' "mult": 1}], "clusters": [], "kernel_multiplicity": 0}' % alpha)
    code, out, _ = run_cli([command, "-", "--dim", "2"], stdin_text=doc,
                           monkeypatch=monkeypatch)
    assert code == 2
    env = json.loads(out)
    assert env["diagnostics"][0]["code"] == "MALFORMED"
    assert env["result"] is None


def test_deeply_nested_document_is_a_parse_error(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code, out, _ = run_cli(["classify", str(path)])
    assert code == 1
    [line] = out.splitlines()
    assert json.loads(line)["diagnostics"][0]["code"] == "PARSE"


#: documents whose image under a command's spectral map overflows a float
OVERFLOW_CASES = [
    # gram squares the members 2 + 1e308/n of the cluster
    ("gram", '{"kind":"positive","points":[{"value":1.0,"mult":1}],"clusters":['
             '{"limit":2.0,"side":"above","deltas":{"kind":"harmonic","scale":1e308}}]}'),
    # gram squares the point's modulus
    ("gram", '{"kind":"positive","points":[{"value":1e200,"mult":1}]}'),
    # classify, structure and oracle take the modulus of each member 1.2e308(1+i) + d
    ("classify", '{"kind":"normal","points":[{"value":[1.0,0.0],"mult":1}],"clusters":['
                 '{"limit":[1.2e308,1.2e308],"side":"above",'
                 '"deltas":{"kind":"geometric","first":5e307,"ratio":0.5}}]}'),
    ("structure", '{"kind":"normal","clusters":[{"limit":[1.2e308,1.2e308],'
                  '"side":"above","deltas":{"kind":"harmonic","scale":5e307}}]}'),
    ("oracle", '{"kind":"normal","clusters":[{"limit":[1.2e308,1.2e308],'
               '"side":"above","deltas":{"kind":"harmonic","scale":5e307}}]}'),
    # a value whose modulus is beyond the largest float is refused as it is read
    ("classify", '{"kind":"normal","points":[{"value":[1.5e308,1.5e308],"mult":1}]}'),
    ("oracle", '{"kind":"normal","clusters":[{"limit":[1.5e308,1.5e308],'
               '"side":"above","deltas":{"kind":"harmonic","scale":1.0}}]}'),
]


@pytest.mark.parametrize("command,doc", OVERFLOW_CASES,
                         ids=[f"{c}-{i}" for i, (c, _) in enumerate(OVERFLOW_CASES)])
def test_overflowing_image_is_a_malformed_diagnostic(command, doc, monkeypatch):
    code, out, _ = run_cli([command, "-"], stdin_text=doc, monkeypatch=monkeypatch)
    assert code == 2
    [line] = out.splitlines()
    env = json.loads(line)
    assert env["result"] is None
    assert env["diagnostics"][0]["code"] == "MALFORMED"
    assert "overflows" in env["diagnostics"][0]["message"]


#: documents whose cluster has a modulus image with every offset below float
#: resolution; reading such a model as finite would drop an essential value
COLLAPSING_CLUSTERS = {
    "tiny_offsets": '{"kind":"normal","points":[{"value":[1.0,0.0],"mult":1}],"clusters":['
                    '{"limit":[3.0,4.0],"side":"above","deltas":{"kind":"harmonic","scale":1e-17}}]}',
    # gram overflows on this one before it looks at the offsets
    "huge_limit": '{"kind":"normal","points":[{"value":[1.0,0.0],"mult":1}],"clusters":['
                  '{"limit":[1e308,1e308],"side":"above","deltas":{"kind":"harmonic","scale":1.0}}]}',
}


@pytest.mark.parametrize("command", ["classify", "structure", "gram", "oracle"])
@pytest.mark.parametrize("doc", COLLAPSING_CLUSTERS.values(), ids=COLLAPSING_CLUSTERS)
def test_cluster_image_below_float_resolution_is_malformed(command, doc, monkeypatch):
    code, out, _ = run_cli([command, "-"], stdin_text=doc, monkeypatch=monkeypatch)
    assert code == 2
    [line] = out.splitlines()
    env = json.loads(line)
    assert env["result"] is None
    assert env["diagnostics"][0]["code"] == "MALFORMED"


#: an integer literal beyond the float range, which reads as the literal 1e400
HUGE = "1" + "0" * 400


@pytest.mark.parametrize("entry", [
    "NaN", "Infinity", "-Infinity", "[0.0, NaN]", "1e400",
    pytest.param(HUGE, id="huge-integer"),
    pytest.param(f"[0.0, -{HUGE}]", id="huge-negative-integer")])
def test_non_finite_matrix_entry_is_a_parse_error(entry, monkeypatch):
    rows = [[1.0 if i == j else 0.0 for j in range(48)] for i in range(48)]
    rows[5][7] = "ENTRY"
    doc = json.dumps({"matrix": rows}).replace('"ENTRY"', entry)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(["polar", "-"], stdin_text=doc, monkeypatch=monkeypatch)
    assert code == 1 and err == ""
    [line] = out.splitlines()
    diag = json.loads(line)["diagnostics"][0]
    assert diag["code"] == "PARSE"
    assert diag["message"].startswith("matrix entry [5][7] must be finite")


#: documents refused with one MALFORMED line: a huge model value meets the
#: check of non-finite values, T*T of a huge matrix (or F*F, the splitter of
#: a normal model's F) or a huge Hermitian F is beyond the eigensolver's
#: range, and a structure block whose value or phase states no eigenvalue is
#: refused as the structure is built.  The third field starts the message of
#: a Gram product refusal, which names the finite norm of the realized T or
#: F, never that of the product, of the eigensolver's own refusal, or of the
#: block check.
BIG_K = '{"kind":"positive","points":[{"value":2.0,"mult":"inf"},{"value":%s,"mult":2}]}'
BAD_BLOCK = ('{"alpha":1.0,"blocks":[{"phase":%s,"part":"%s","value":%s,"mult":1}],'
             '"clusters":[],"kernel_multiplicity":0}')
MALFORMED_NUMBERS = {
    "value": ("classify", '{"kind":"positive","points":[{"value":%s,"mult":1}]}' % HUGE,
              None),
    "normal-value": ("classify",
                     '{"kind":"normal","points":[{"value":[1.0,-%s],"mult":1}]}' % HUGE,
                     None),
    "polar-1e160": ("polar", '{"matrix":[[1e160,0],[0,1]]}', "T norm 1e+160 "),
    "polar-1e100": ("polar", '{"matrix":[[1e100,0],[0,1]]}', "T norm 1e+100 "),
    "verify-1e100": ("verify --dim 8", BIG_K % "1e100", "T norm 1.414213562373095e+100 "),
    "verify-1e300": ("verify --dim 8", BIG_K % "1e300", "T norm 1.4142135623730952e+300 "),
    "realize-verify-1e100": ("realize --verify --dim 8", BIG_K % "1e100",
                             "T norm 1.414213562373095e+100 "),
    "realize-verify-1e300": ("realize --verify --dim 8", BIG_K % "1e300",
                             "T norm 1.4142135623730952e+300 "),
    "blocks-gram": ("blocks --dim 8",
                    '{"kind":"normal","points":[{"value":[1e300,0],"mult":"inf"},'
                    '{"value":[0,5e299],"mult":1}]}', "F norm 5e+299 "),
    "blocks-f": ("blocks --dim 8",
                 '{"kind":"positive","points":[{"value":1e300,"mult":"inf"},'
                 '{"value":5e299,"mult":1}]}', "eigensolver input norm 5e+299 "),
    "block-value-1e400": ("verify --dim 3", BAD_BLOCK % ("[0.6,0.8]", "k", "1e400"), None),
    "block-value-negative": ("realize --dim 3", BAD_BLOCK % ("[1,0]", "f", "-3.0"),
                             "block value -3.0 "),
    "block-phase-0": ("verify --dim 3", BAD_BLOCK % ("[0,0]", "k", "0.5"), "block phase 0j "),
    "block-phase-2": ("realize --dim 3", BAD_BLOCK % ("[2,0]", "k", "0.5"),
                      "block phase (2+0j) "),
}


@pytest.mark.parametrize("command,doc,named", MALFORMED_NUMBERS.values(),
                         ids=MALFORMED_NUMBERS)
def test_out_of_range_number_is_one_malformed_diagnostic(command, doc, named, monkeypatch):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli([*command.split(), "-"], stdin_text=doc,
                                 monkeypatch=monkeypatch)
    assert code == 2 and err == ""
    [line] = out.splitlines()
    env = json.loads(line)
    assert env["result"] is None
    [diag] = env["diagnostics"]
    assert diag["code"] == "MALFORMED"
    if named is not None:
        assert diag["message"].startswith(named) and "inf" not in diag["message"]


def test_integer_too_long_to_convert_is_one_diagnostic(monkeypatch):
    doc = '{"kind":"positive","points":[{"value":1%s,"mult":1}]}' % ("0" * 5000)
    code, out, err = run_cli(["classify", "-"], stdin_text=doc, monkeypatch=monkeypatch)
    [line] = out.splitlines()
    diag = json.loads(line)["diagnostics"][0]
    # Pythons that cap integer string conversion refuse the literal as it is read
    if hasattr(sys, "get_int_max_str_digits"):
        assert (code, diag["code"]) == (1, "PARSE")
    else:
        assert (code, diag["code"]) == (2, "MALFORMED")
    assert err == ""


def test_huge_multiplicity_is_counted_exactly(monkeypatch):
    doc = '{"kind":"positive","points":[{"value":1.0,"mult":%s}]}' % HUGE
    for command in ("classify", "decompose", "structure", "fredholm", "gram", "oracle"):
        code, out, err = run_cli([command, "-"], stdin_text=doc, monkeypatch=monkeypatch)
        assert code == 0 and err == "", command
    assert json.loads(out)["result"]["is_an"] is True
    code, out, _ = run_cli(["decompose", "-"], stdin_text=doc, monkeypatch=monkeypatch)
    assert json.loads(out)["result"]["k"]["points"][0]["mult"] == int(HUGE)
    code, out, _ = run_cli(["realize", "--dim", "4", "-"], stdin_text=doc,
                           monkeypatch=monkeypatch)
    assert code == 2
    assert json.loads(out)["diagnostics"][0]["code"] == "DIM_TOO_SMALL"


def test_structurally_invalid_triple_exits_one_before_its_model_is_checked(monkeypatch):
    doc = ('{"alpha":1.0,"k":{"kind":"positive","points":[{"value":2.0,"mult":0}]},'
           '"f":"not a list"}')
    code, out, _ = run_cli(["square", "-"], stdin_text=doc, monkeypatch=monkeypatch)
    assert code == 1
    assert json.loads(out)["diagnostics"][0]["code"] == "PARSE"


def _cluster(limit, first=0.25):
    """The geometric cluster of ``specs/uniqueness_full.json``, at ``limit``."""
    return {"limit": limit, "side": "above",
            "deltas": {"kind": "geometric", "first": first, "ratio": 0.25}}


def _triple(k_kind="positive", k_clusters=(), f=()):
    """A triple document at alpha 2 whose compact part has a point at 1.5."""
    return {"alpha": 2.0, "identity_multiplicity": 0, "f": list(f),
            "k": {"kind": k_kind, "points": [{"value": 1.5, "mult": 1}],
                  "clusters": list(k_clusters)}}


#: (command, document, exit code, diagnostic code, message)
DIAGNOSTIC_CASES = {
    "model-is-a-list": ("classify", [1, 2], 1, "PARSE",
                        "model must be a JSON object, got list"),
    "points-object": ("classify", {"kind": "positive", "points": {"value": 1.0, "mult": 1}},
                      1, "PARSE", "points and clusters must be lists"),
    "point-value-string": ("classify", {"kind": "positive", "points": [{"value": "x", "mult": 1}]},
                           1, "PARSE",
                           "point value must be a number or [re, im] pair, got 'x'"),
    "geometric-first-string": ("classify", {"kind": "positive", "clusters": [_cluster(2.0, "a")]},
                               1, "PARSE", "first must be a number, got 'a'"),
    "blocks-object": ("verify", {"alpha": 1.0, "blocks": {}, "clusters": [],
                                 "kernel_multiplicity": 0},
                      1, "PARSE", "blocks and clusters must be lists"),
    "null-result": ("verify", {"schema_version": "1", "command": "structure",
                               "diagnostics": [], "result": None},
                    1, "PARSE", "input document carries no result payload"),
    "unknown-document": ("verify", {"foo": 1}, 1, "PARSE",
                         "input must be a model, triple, or structure document"),
    "k-selfadjoint": ("recompose", _triple(k_kind="selfadjoint"), 2, "MALFORMED",
                      "k_entries must be a positive model"),
    "k-two-clusters": ("recompose", _triple(k_clusters=[_cluster(0.0), _cluster(0.5)]),
                       2, "MALFORMED", "compact part admits at most one cluster"),
    "f-complex": ("recompose", _triple(f=[{"value": [1.0, 0.5], "mult": 1}]), 2, "MALFORMED",
                  "finite-rank part values must be real"),
    "f-mult-inf": ("recompose", _triple(f=[{"value": 1.0, "mult": "inf"}]), 2, "MALFORMED",
                   "finite-rank part multiplicities must be finite"),
    "f-mult-zero": ("recompose", _triple(f=[{"value": 1.0, "mult": 0}]), 2, "MALFORMED",
                    "finite-rank part multiplicity 0 must be a positive integer"),
    "alpha-within-merge-tol": ("invert-matrix", {"alpha": 5e-10, "identity_multiplicity": 1,
                                                 "k": {"kind": "positive",
                                                       "points": [{"value": 1.0, "mult": 1}]},
                                                 "f": []},
                               2, "ALPHA_ZERO", "blockwise inversion requires a positive shift"),
    "negative-cluster": ("decompose", {"kind": "positive",
                                       "points": [{"value": 1.0, "mult": 1}],
                                       "clusters": [_cluster(-1.0)]},
                         2, "NEGATIVE_VALUE", "model declares negative spectral values"),
}


@pytest.mark.parametrize("command,doc,exit_code,diag_code,message",
                         DIAGNOSTIC_CASES.values(), ids=DIAGNOSTIC_CASES)
def test_refused_document_names_its_fault(command, doc, exit_code, diag_code, message,
                                          monkeypatch):
    argv = [command, "-"] + (["--dim", "6"] if command in ("verify", "invert-matrix") else [])
    code, out, err = run_cli(argv, stdin_text=json.dumps(doc), monkeypatch=monkeypatch)
    assert (code, err) == (exit_code, "")
    [line] = out.splitlines()
    env = json.loads(line)
    assert env["result"] is None
    assert env["diagnostics"] == [{"code": diag_code, "message": message}]


def test_recompose_moves_a_near_zero_compact_cluster_to_alpha(monkeypatch):
    doc = _triple(k_clusters=[_cluster(5e-10)])
    code, out, _ = run_cli(["recompose", "-"], stdin_text=json.dumps(doc),
                           monkeypatch=monkeypatch)
    assert code == 0
    [cluster] = json.loads(out)["result"]["clusters"]
    assert cluster["limit"] == 2.0


def test_positive_model_with_a_negative_cluster_is_refused_by_every_check(monkeypatch):
    doc = json.dumps({"kind": "positive", "points": [{"value": 1.0, "mult": 1}],
                      "clusters": [_cluster(-1.0)]})
    code, out, _ = run_cli(["classify", "-"], stdin_text=doc, monkeypatch=monkeypatch)
    assert code == 0
    assert "NEGATIVE_VALUE" in json.loads(out)["result"]["violations"]
    code, out, _ = run_cli(["oracle", "-"], stdin_text=doc, monkeypatch=monkeypatch)
    assert code == 0
    result = json.loads(out)["result"]
    assert not result["is_an"]
    assert "declared_negative" in [f["kind"] for f in result["failures"]]


def test_invert_matrix_reads_model_or_triple(monkeypatch):
    src = str(SPECS / "uniqueness_full.json")
    argv = ["--dim", "12", "--seed", "5"]
    code, direct, _ = run_cli(["invert-matrix", src] + argv)
    assert code == 0
    code, triple_doc, _ = run_cli(["decompose", src])
    assert code == 0
    code, piped, _ = run_cli(["invert-matrix", "-"] + argv,
                             stdin_text=triple_doc, monkeypatch=monkeypatch)
    assert code == 0
    assert (json.loads(piped)["result"]["residual"]
            == json.loads(direct)["result"]["residual"])


def run_module(argv, stdin_text=None, extra_env=None, preexec_fn=None, module="anop"):
    """Run ``python -m anop`` (or another ``module``) as a child process on
    the same ``anop`` package as this process, whether or not it is installed.
    Bytes on stdin give bytes on stdout and stderr."""
    env = dict(os.environ, **(extra_env or {}))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(PACKAGE_PARENT), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", module, *argv],
                          input=stdin_text, capture_output=True,
                          text=not isinstance(stdin_text, bytes),
                          env=env, preexec_fn=preexec_fn)


def test_console_script_reads_file():
    proc = run_module(["classify", str(SPECS / "positive_tail.json")])
    assert proc.returncode == 0
    assert proc.stdout == (GOLDEN / "classify_positive_tail.json").read_text()


def test_console_script_reads_stdin():
    doc = (SPECS / "selfadjoint_signed.json").read_text()
    proc = run_module(["structure", "-"], stdin_text=doc)
    assert proc.returncode == 0
    assert proc.stdout == (GOLDEN / "structure_selfadjoint.json").read_text()


def test_stdin_that_is_not_utf8_is_one_parse_line_under_strict_stdio():
    # a strict stdio error handler must not turn undecodable stdin into a
    # UnicodeDecodeError traceback
    proc = run_module(["classify", "-"], stdin_text=b"\xff{}",
                      extra_env={"PYTHONIOENCODING": "utf-8:strict"})
    assert proc.returncode == 1
    assert proc.stderr == b""
    assert proc.stdout.count(b"\n") == 1
    assert json.loads(proc.stdout)["diagnostics"][0]["code"] == "PARSE"


def test_cli_module_runs_as_main():
    # the benchmark's cli workload spawns `python -m anop.cli`
    argv = ["classify", str(SPECS / "positive_tail.json")]
    direct = run_module(argv, module="anop.cli")
    assert direct.returncode == 0, direct.stderr
    assert direct.stdout == run_module(argv).stdout
    assert direct.stdout == (GOLDEN / "classify_positive_tail.json").read_text()


def test_console_script_entry_point_is_cli_main():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts["anop"] == "anop.cli:main"
    module, _, attr = scripts["anop"].partition(":")
    target = getattr(importlib.import_module(module), attr)
    assert callable(target)
    # `python -m anop` runs the very function the console script runs
    assert importlib.import_module("anop.__main__").main is target


@pytest.mark.skipif(shutil.which("anop") is None,
                    reason="no installed `anop` console script on PATH")
def test_installed_console_script_reads_file():
    proc = subprocess.run(
        ["anop", "classify", str(SPECS / "positive_tail.json")],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == (GOLDEN / "classify_positive_tail.json").read_text()


#: address-space cap for the oracle child: enough for the interpreter and
#: numpy, far below the 2**g-entry tables a subset enumeration would need
ORACLE_AS_CAP = 512 << 20


def test_oracle_tail_scan_runs_in_bounded_memory(tmp_path):
    resource = pytest.importorskip("resource")
    doc = {"kind": "positive", "points": [], "clusters": [
        {"limit": float(k), "side": "below",
         "deltas": {"kind": "geometric", "first": 0.25, "ratio": 0.5}}
        for k in range(1, 41)]}
    path = tmp_path / "below40.json"
    path.write_text(json.dumps(doc))

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (ORACLE_AS_CAP, ORACLE_AS_CAP))

    proc = run_module(["oracle", str(path)],
                      extra_env={"OPENBLAS_NUM_THREADS": "1"},
                      preexec_fn=cap_address_space)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)["result"]
    assert [f["kind"] for f in result["failures"]] == ["unattained_tail"] * 40
    assert [f["witness"][0] for f in result["failures"]] == [float(k) for k in range(1, 41)]
    assert result["subsets_checked"] == 2 ** 40 - 1
