"""Pinned bytes of emitted payloads.

The digests were taken from the code before the triple and every structure
came to share one split at alpha; any change that moves one byte of these
outputs fails here.  The documents are ``mixed_model`` seeds 0-299, each as
written and as a twin rescaled by 1e-9, where values within ``MERGE_TOL`` of
zero and of alpha are common.  ``MATRIX_RESULTS_SHA256`` was taken from the
code before the matrix commands' results went through ``serialize.encoded``,
and re-taken from the code before ``blocks`` chose its own splitter, run
with the splitter it now picks (F*F for the normal documents, F otherwise).
"""

import hashlib
import io
import json

import pytest

import anop.serialize as sz
from anop.cli import execute
from anop.decompose import (
    decompose_positive,
    gram_spectrum,
    imaginary_shift,
    recompose,
    square_triple,
    sqrt_triple,
    structure_normal,
    structure_selfadjoint,
)
from anop.errors import AnopError
from anop.model import (
    ABOVE,
    INF,
    POSITIVE,
    Cluster,
    EigenvalueEntry,
    SpectrumModel,
    classify,
    moduli_report,
)
from anop.oracle import FAMILIES, attainment_oracle, generate_model, mixed_model
from anop.sequences import DecaySequence

SPECTRAL_SHA256 = "344297a021516eb4703e831cf7ad2f69f2060eb69a11724c6bc1ca9e7156d667"
REALIZE_SHA256 = "7b3d946ad4368d3fd603fd01cc01b595ce6418581f4aad7233ae3e70daf739d4"
MATRIX_RESULTS_SHA256 = "bd655323ebabbb03bfe19ac13f345ad830fab68dc712649c007fd2ba947bcae4"


def _rescaled(doc: dict, factor: float) -> dict:
    """The same spectrum multiplied by ``factor``, written in JSON."""
    def scale(raw):
        return [x * factor for x in raw] if isinstance(raw, list) else raw * factor
    out = json.loads(json.dumps(doc))
    for p in out["points"]:
        p["value"] = scale(p["value"])
    for cl in out["clusters"]:
        cl["limit"] = scale(cl["limit"])
        for key in ("first", "scale", "terms"):
            if key in cl["deltas"]:
                cl["deltas"][key] = scale(cl["deltas"][key])
    return out


def _failure(exc: AnopError) -> str:
    return f"{exc.code}: {exc.message}\n"


def _emitted(make) -> str:
    """The payload as emitted, or the failure as the CLI reports it."""
    try:
        return sz.emit(make())
    except AnopError as exc:
        return _failure(exc)


def _spectral_lines(model):
    yield _emitted(lambda: sz.verdict_payload(classify(model), moduli_report(model)))
    try:
        triple = decompose_positive(model)
    except AnopError as exc:
        yield _failure(exc)
    else:
        yield _emitted(lambda: sz.triple_payload(triple))
        yield _emitted(lambda: sz.triple_payload(square_triple(triple)))
        yield _emitted(lambda: sz.triple_payload(sqrt_triple(triple)))
        yield _emitted(lambda: sz.model_payload(recompose(triple)))
    yield _emitted(lambda: sz.model_payload(gram_spectrum(model)))
    yield _emitted(lambda: sz.structure_payload(structure_normal(model)))
    yield _emitted(lambda: sz.model_payload(imaginary_shift(model, 0.5)))
    yield _emitted(lambda: sz.encoded(attainment_oracle(model)))


def test_spectral_payloads_are_pinned():
    digest = hashlib.sha256()
    for seed in range(300):
        doc = sz.model_payload(mixed_model(seed)[1])
        for factor in (1.0, 1e-9):
            text = sz.emit(_rescaled(doc, factor) if factor != 1.0 else doc)
            for line in _spectral_lines(sz.parse_model(sz.load(text))):
                digest.update(line.encode())
    assert digest.hexdigest() == SPECTRAL_SHA256


def test_realize_payloads_are_pinned(tmp_path):
    """Seed 0 keeps the realization diagonal, so the bytes pin the slot
    layout and the recombined eigenvalues but not the last bits of a BLAS
    matrix product, which may differ between BLAS builds."""
    digest = hashlib.sha256()
    for k in range(2):
        for family in FAMILIES:
            doc = tmp_path / f"{family}-{k}.json"
            doc.write_text(sz.emit(sz.model_payload(generate_model(k, family))))
            for dim in (8, 16):
                out = io.StringIO()
                code = execute(["realize", str(doc), "--dim", str(dim)], out, io.StringIO())
                digest.update(f"{code} ".encode() + out.getvalue().encode())
    assert digest.hexdigest() == REALIZE_SHA256


MATRIX_COMMANDS = (
    ["verify", "--dim", "8"],
    ["realize", "--dim", "16", "--verify"],
    ["invert-matrix", "--dim", "8"],
    ["blocks", "--dim", "8"],
)


def test_matrix_results_are_pinned(tmp_path):
    """Exit code and bytes of every matrix command that builds its result
    from a realization.  At seed 0 each matrix is diagonal, so every product
    and eigensolve is exact and the bytes do not depend on the BLAS build."""
    digest = hashlib.sha256()
    for k in range(4):
        for family in FAMILIES:
            doc = tmp_path / f"{family}-{k}.json"
            doc.write_text(sz.emit(sz.model_payload(generate_model(k, family))))
            for argv in MATRIX_COMMANDS:
                out = io.StringIO()
                code = execute([*argv, str(doc)], out, io.StringIO())
                digest.update(f"{code} ".encode() + out.getvalue().encode())
    assert digest.hexdigest() == MATRIX_RESULTS_SHA256


def _positive(*pairs, limit=None):
    points = tuple(EigenvalueEntry(complex(v, 0.0), m) for v, m in pairs)
    clusters = ()
    if limit is not None:
        clusters = (Cluster(complex(limit, 0.0), ABOVE,
                            DecaySequence.geometric(limit, 0.5)),)
    return SpectrumModel(POSITIVE, points, clusters)


K_CLUSTER = '"k":{"clusters":[{"deltas":{"first":%s,"kind":"geometric","ratio":0.5},' \
            '"limit":0.0,"side":"above"}],"kind":"positive","points":[{"mult":1,"value":%s}]}'
CLUSTER_AT = '"clusters":[{"deltas":{"first":%s,"kind":"geometric","ratio":0.5},' \
             '"limit":[%s,0.0],"side":"above"}]'
K_BLOCK = '{"mult":%s,"part":"k","phase":[1.0,0.0],"value":%s}'

# Points within MERGE_TOL of zero, on either side of it, against alpha on
# either side of 2*MERGE_TOL.  The triple splits each point by its own
# signed value; the structure sends every point within MERGE_TOL of zero to
# its kernel first.  Expected bytes are those of the code before the split
# was shared.
SPLIT_EDGES = [
    ("cluster alpha below 2 tol",
     _positive((-0.6e-9, 1), (0.6e-9, 2), (3.0, 1), limit=1.5e-9),
     '{"alpha":1.5e-09,"f":[{"mult":1,"value":1.5e-09}],"identity_multiplicity":2,'
     + K_CLUSTER % ("1.5e-09", "2.9999999985") + '}',
     '{"alpha":1.5e-09,"blocks":[' + K_BLOCK % (1, "2.9999999985") + '],'
     + CLUSTER_AT % ("1.5e-09", "1.5e-09") + ',"kernel_multiplicity":3}'),
    ("cluster alpha above 2 tol",
     _positive((-0.6e-9, 1), (0.6e-9, 2), (1.8e-9, 3), (3.0, 1), limit=2.5e-9),
     '{"alpha":2.5e-09,"f":[{"mult":3,"value":1.9e-09}],"identity_multiplicity":3,'
     + K_CLUSTER % ("2.5e-09", "2.9999999975") + '}',
     '{"alpha":2.5e-09,"blocks":[' + K_BLOCK % (1, "2.9999999975")
     + ',{"mult":3,"part":"identity","phase":[1.0,0.0],"value":0.0}],'
     + CLUSTER_AT % ("2.5e-09", "2.5e-09") + ',"kernel_multiplicity":3}'),
    ("cluster alpha below tol",
     _positive((-0.6e-9, 1), (0.6e-9, 2), (3.0, 1), limit=0.5e-9),
     "MALFORMED: finite-rank part requires a positive shift\n",
     '{"alpha":5e-10,"blocks":[' + K_BLOCK % (1, "2.9999999995") + '],'
     + CLUSTER_AT % ("5e-10", "5e-10") + ',"kernel_multiplicity":3}'),
    ("cluster alpha below tol, positive side only",
     _positive((0.6e-9, 2), (3.0, 1), limit=0.5e-9),
     '{"alpha":5e-10,"f":[],"identity_multiplicity":2,'
     + K_CLUSTER % ("5e-10", "2.9999999995") + '}',
     '{"alpha":5e-10,"blocks":[' + K_BLOCK % (1, "2.9999999995") + '],'
     + CLUSTER_AT % ("5e-10", "5e-10") + ',"kernel_multiplicity":2}'),
    ("infinite multiplicity alpha below 2 tol",
     _positive((0.6e-9, 1), (1.5e-9, INF), (3.0, 2)),
     '{"alpha":6e-10,"f":[],"identity_multiplicity":"inf","k":{"clusters":[],'
     '"kind":"positive","points":[{"mult":2,"value":2.9999999994}]}}',
     '{"alpha":6e-10,"blocks":[' + K_BLOCK % (2, "2.9999999994") + '],'
     '"clusters":[],"kernel_multiplicity":"inf"}'),
    ("infinite multiplicity alpha above 2 tol",
     _positive((-0.6e-9, 1), (0.6e-9, 1), (2.5e-9, INF), (3.0, 2)),
     '{"alpha":2.5e-09,"f":[{"mult":2,"value":1.9e-09}],"identity_multiplicity":"inf",'
     '"k":{"clusters":[],"kind":"positive","points":[{"mult":2,"value":2.9999999975}]}}',
     '{"alpha":2.5e-09,"blocks":[' + K_BLOCK % (2, "2.9999999975")
     + ',{"mult":"inf","part":"identity","phase":[1.0,0.0],"value":0.0}],'
     '"clusters":[],"kernel_multiplicity":2}'),
    ("finite, alpha zero",
     _positive((-0.6e-9, 1), (0.6e-9, 1), (3.0, 2)),
     '{"alpha":0.0,"f":[],"identity_multiplicity":2,"k":{"clusters":[],'
     '"kind":"positive","points":[{"mult":2,"value":3.0}]}}',
     '{"alpha":0.0,"blocks":[' + K_BLOCK % (2, "3.0") + '],'
     '"clusters":[],"kernel_multiplicity":2}'),
]


@pytest.mark.parametrize("model, triple, structure",
                         [case[1:] for case in SPLIT_EDGES],
                         ids=[case[0] for case in SPLIT_EDGES])
def test_triple_and_structure_split_edges_are_pinned(model, triple, structure):
    assert _emitted(lambda: sz.triple_payload(decompose_positive(model))) == (
        triple if triple.endswith("\n") else triple + "\n")
    assert _emitted(lambda: sz.structure_payload(structure_selfadjoint(model))) == (
        structure + "\n")
