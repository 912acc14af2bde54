import importlib
import io
import json
import os
import re
import subprocess
import sys
import types

import pytest

import anop
from anop import cli

from conftest import ROOT, SPECS

#: the public names, under the submodule each comes from (74 in all)
PUBLIC = {
    "errors": [
        "AlphaZeroError", "AnopError", "DimTooLargeError", "DimTooSmallError",
        "MalformedModelError", "NegativeValueError", "NoConvergenceError",
        "NotANError", "NotHermitianError", "NotInjectiveError", "ParseError",
        "ShapeMismatchError", "WrongKindError"],
    "sequences": ["DecaySequence", "MATERIALIZE_DEPTH", "MERGE_TOL", "merge_sequences"],
    "model": [
        "ABOVE", "ANVerdict", "BELOW", "Cluster", "EigenvalueEntry", "INF", "KINDS",
        "ModuliReport", "NORMAL", "POSITIVE", "SELF_ADJOINT", "SpectrumModel",
        "VIOLATION_ORDER", "classify", "is_finite_dimensional", "moduli_report",
        "modulus_spectrum", "normalize_model"],
    "decompose": [
        "AMForm", "Block", "FredholmReport", "PositiveTriple", "StructuredDecomposition",
        "adjoint_spectrum", "decompose_positive", "fredholm_report", "gram_spectrum",
        "imaginary_shift", "invert_triple", "recompose", "sqrt_triple", "square_triple",
        "structure_normal", "structure_selfadjoint"],
    "matrix": [
        "BlockForm", "EigenDecomposition", "MAX_DIM", "PolarPair", "RealizedOperator",
        "VerificationReport", "WitnessReport", "block_form", "converse_witness",
        "hermitian_eigen", "inverse_via_blocks", "polar_decompose", "realize_matrix",
        "seeded_unitary", "verify_structure"],
    "oracle": [
        "FAMILIES", "OracleFailure", "OracleReport", "TruncationProfile",
        "attainment_oracle", "generate_model", "generate_violator", "mixed_model"],
}


def fresh_python(code, *args, stdin_text=""):
    """Run ``code`` in a new interpreter on this checkout; its stdout."""
    proc = subprocess.run([sys.executable, "-c", code, *args], cwd=ROOT,
                          env=dict(os.environ, PYTHONPATH="src"),
                          input=stdin_text, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_all_lists_no_submodules():
    leaked = [name for name in anop.__all__
              if isinstance(getattr(anop, name), types.ModuleType)]
    assert leaked == []


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    library = readme.split("\n## Library\n", 1)[1]
    example = library.split("```python\n", 1)[1].split("```", 1)[0]
    fresh_python(example)


def test_public_names_resolve_to_their_submodules():
    names = sorted(name for group in PUBLIC.values() for name in group)
    assert len(names) == 74
    assert anop.__all__ == names
    for module, group in PUBLIC.items():
        home = importlib.import_module(f"anop.{module}")
        for name in group:
            assert getattr(anop, name) is getattr(home, name), name
    assert set(names) <= set(dir(anop))
    scope = {}
    exec("from anop import *", scope)
    assert {name: scope[name] for name in names} == {
        name: getattr(anop, name) for name in names}


#: public names that nothing outside the tests calls yet, each with its reason
UNCALLED_ALLOWED = {
    # the adjoint map, kept for the adjoint law that tests/test_laws.py checks
    "adjoint_spectrum",
}


def test_every_public_name_is_used_outside_its_definition():
    # a whole-word mention in src/, scripts/ or perfbench/ besides the
    # definition itself, outside __init__.py: a public name nothing reaches
    # is dead code
    text = "\n".join(path.read_text(encoding="utf-8")
                     for top in ("src", "scripts", "perfbench")
                     for path in sorted((ROOT / top).rglob("*.py"))
                     if path.name != "__init__.py")
    uncalled = {name for name in anop.__all__
                if len(re.findall(rf"\b{re.escape(name)}\b", text)) <= 1}
    assert uncalled == UNCALLED_ALLOWED


def test_the_library_makes_no_lapack_call():
    # one eigensolver in the library, its own Jacobi kernel; numpy's LAPACK
    # is lab equipment for the tests only
    sources = sorted((ROOT / "src" / "anop").rglob("*.py"))
    mentions = [path.name for path in sources if "linalg" in path.read_text(encoding="utf-8")]
    assert mentions == []


def test_unknown_names_and_unimported_submodules_are_not_attributes():
    out = fresh_python(
        "import anop\n"
        "for name in ('cli', 'matrix', 'no_such_name'):\n"
        "    try:\n"
        "        getattr(anop, name)\n"
        "    except AttributeError:\n"
        "        print(name)\n"
        "from anop import cli, matrix\n"
        "print(anop.cli is cli, anop.matrix is matrix)\n")
    assert out.split() == ["cli", "matrix", "no_such_name", "True", "True"]


#: runs one command in-process and prints its exit code and which of the
#: heavy modules it loaded
FOOTPRINT = """
import io, json, sys
from anop import cli
code = cli.execute(sys.argv[1:], out=io.StringIO())
heavy = ("numpy", "anop.matrix", "anop.oracle")
print(json.dumps([code, [m for m in heavy if m in sys.modules]]))
"""

_FULL = str(SPECS / "uniqueness_full.json")
_SIGNED = str(SPECS / "selfadjoint_signed.json")
_TAIL = str(SPECS / "positive_tail.json")

#: the twelve commands that touch no matrix, each on a shipped spec or on a
#: piped decompose report ("-")
SPECTRAL_COMMANDS = [
    ["classify", _TAIL], ["decompose", _FULL], ["recompose", "-"], ["square", "-"],
    ["sqrt", "-"], ["invert", "-"], ["structure", _SIGNED], ["gram", _TAIL],
    ["shift", _SIGNED, "--shift", "0.5"], ["fredholm", _FULL],
    ["oracle", _TAIL], ["fuzz", "--count", "5"],
]


@pytest.mark.parametrize("argv", SPECTRAL_COMMANDS, ids=[a[0] for a in SPECTRAL_COMMANDS])
def test_spectral_commands_never_load_numpy(argv):
    piped = io.StringIO()
    if "-" in argv:
        assert cli.execute(["decompose", _FULL], out=piped) == 0
    code, loaded = json.loads(fresh_python(FOOTPRINT, *argv, stdin_text=piped.getvalue()))
    assert code == 0
    assert loaded == (["anop.oracle"] if argv[0] in ("oracle", "fuzz") else [])


def test_verify_loads_numpy():
    code, loaded = json.loads(fresh_python(FOOTPRINT, "verify", _FULL, "--dim", "8"))
    assert code == 0
    assert loaded == ["numpy", "anop.matrix"]


#: runs one command in-process and prints its exit code and which of the
#: modules that only slow a start it loaded
STARTUP = """
import io, json, sys
from anop import cli
code = cli.execute(sys.argv[1:], out=io.StringIO())
slow = ("dataclasses", "inspect", "anop.decompose")
print(json.dumps([code, [m for m in slow if m in sys.modules]]))
"""


@pytest.mark.parametrize("argv", SPECTRAL_COMMANDS, ids=[a[0] for a in SPECTRAL_COMMANDS])
def test_spectral_commands_skip_dataclasses_and_what_they_never_call(argv):
    # classify, oracle and fuzz decompose nothing, so they never load
    # anop.decompose; no command loads dataclasses or inspect
    piped = io.StringIO()
    if "-" in argv:
        assert cli.execute(["decompose", _FULL], out=piped) == 0
    code, loaded = json.loads(fresh_python(STARTUP, *argv, stdin_text=piped.getvalue()))
    assert code == 0
    assert loaded == ([] if argv[0] in ("classify", "oracle", "fuzz") else ["anop.decompose"])


def test_verify_loads_no_dataclasses():
    # numpy itself imports inspect, so only dataclasses is anop's to avoid here
    code, loaded = json.loads(fresh_python(STARTUP, "verify", _FULL, "--dim", "8"))
    assert code == 0
    assert "dataclasses" not in loaded
