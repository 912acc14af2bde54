import io
import json
import math
import sys

import numpy as np
import pytest

import anop.serialize as sz
from anop.cli import execute
from anop.decompose import (
    FredholmReport,
    PositiveTriple,
    decompose_positive,
    invert_triple,
    structure_selfadjoint,
)
from anop.errors import ParseError
from anop.matrix import PolarPair, VerificationReport, WitnessReport
from anop.model import (
    ABOVE,
    BELOW,
    INF,
    NORMAL,
    POSITIVE,
    SELF_ADJOINT,
    ANVerdict,
    Cluster,
    EigenvalueEntry,
    ModuliReport,
    SpectrumModel,
    classify,
    moduli_report,
)
from anop.oracle import OracleFailure, OracleReport
from anop.sequences import DecaySequence

from conftest import PerturbationReport, positive_points


# ---------------------------------------------------------------------------
# delta sequences


def test_geometric_deltas_round_trip():
    seq = DecaySequence.geometric(0.125, 0.5)
    assert sz.parse_deltas(sz.deltas_payload(seq)) == seq


def test_harmonic_deltas_round_trip():
    seq = DecaySequence.harmonic(0.2)
    assert sz.parse_deltas(sz.deltas_payload(seq)) == seq


def test_explicit_deltas_round_trip_with_terminates_flag():
    term = DecaySequence.explicit([0.5, 0.25])
    payload = sz.deltas_payload(term)
    assert "terminates" not in payload  # default true stays implicit
    assert sz.parse_deltas(payload) == term

    tail = DecaySequence.explicit([0.5, 0.25], terminating=False)
    payload = sz.deltas_payload(tail)
    assert payload["terminates"] is False
    assert sz.parse_deltas(payload) == tail


def test_parse_deltas_rejects_garbage():
    with pytest.raises(ParseError):
        sz.parse_deltas({"kind": "fibonacci"})
    with pytest.raises(ParseError):
        sz.parse_deltas({"kind": "explicit", "terms": "0.5"})
    with pytest.raises(ParseError):
        sz.parse_deltas({"kind": "explicit", "terms": [0.5], "terminates": "no"})
    with pytest.raises(ParseError):
        sz.parse_deltas({"kind": "geometric", "first": 1.0})


# ---------------------------------------------------------------------------
# models, triples, structures


def test_model_round_trip_real_kind():
    m = SpectrumModel(SELF_ADJOINT, (
        EigenvalueEntry(-2.0 + 0j, INF),
        EigenvalueEntry(3.0 + 0j, 2),
    ), (Cluster(2.0 + 0j, ABOVE, DecaySequence.geometric(0.125, 0.5)),))
    payload = sz.model_payload(m)
    assert payload["points"][0]["value"] == -2.0  # bare number, not a pair
    assert payload["points"][0]["mult"] == "inf"
    assert sz.parse_model(payload) == m


def test_model_round_trip_normal_kind():
    m = SpectrumModel(NORMAL, (
        EigenvalueEntry(1 + 2j, 1),
    ), (Cluster(3j, ABOVE, DecaySequence.harmonic(0.25)),))
    payload = sz.model_payload(m)
    assert payload["points"][0]["value"] == [1.0, 2.0]
    assert payload["clusters"][0]["limit"] == [0.0, 3.0]
    assert sz.parse_model(payload) == m


def test_parse_model_accepts_pairs_on_real_kinds():
    m = sz.parse_model({"kind": "positive",
                        "points": [{"value": [2.0, 0.0], "mult": 1}]})
    assert m.points[0].value == 2.0 + 0j


def test_parse_model_rejections():
    with pytest.raises(ParseError):
        sz.parse_model({"points": []})
    with pytest.raises(ParseError):
        sz.parse_model({"kind": "unitary"})
    with pytest.raises(ParseError):
        sz.parse_model({"kind": "positive", "points": [{"value": 1.0}]})
    with pytest.raises(ParseError):
        sz.parse_model({"kind": "positive",
                        "points": [{"value": 1.0, "mult": True}]})
    with pytest.raises(ParseError):
        sz.parse_model({"kind": "positive",
                        "points": [{"value": 1.0, "mult": 1.5}]})
    with pytest.raises(ParseError):
        sz.parse_model({"kind": "positive", "points": [],
                        "clusters": [{"limit": 1.0, "side": "sideways",
                                      "deltas": {"kind": "harmonic",
                                                 "scale": 0.1}}]})


def test_triple_round_trip():
    t = decompose_positive(positive_points((3.0, 1), (2.0, INF), (0.5, 2)))
    payload = sz.triple_payload(t)
    assert payload["identity_multiplicity"] == "inf"
    back = sz.parse_triple(payload)
    assert back == t


def test_triple_payload_zero_identity_stays_int():
    t = PositiveTriple(2.0, positive_points((1.0, 1)), (), 0)
    assert sz.triple_payload(t)["identity_multiplicity"] == 0


def test_amform_payload_shape():
    t = decompose_positive(positive_points((3.0, 1), (2.0, INF), (0.5, 2)))
    payload = sz.amform_payload(invert_triple(t))
    assert payload["beta"] == 0.5
    assert payload["identity_multiplicity"] == "inf"
    # the lone small eigenvalue 0.5 maps to 1/0.5 = beta + f1
    assert payload["f1"][0]["value"] == pytest.approx(1.5, abs=1e-12)
    assert payload["k1"]["points"][0]["value"] == pytest.approx(1.0 / 6.0, abs=1e-12)


def test_structure_round_trip():
    m = SpectrumModel(SELF_ADJOINT, (
        EigenvalueEntry(3.0 + 0j, 1),
        EigenvalueEntry(-1.0 + 0j, 1),
        EigenvalueEntry(-2.0 + 0j, INF),
        EigenvalueEntry(0j, 2),
    ))
    sd = structure_selfadjoint(m)
    back = sz.parse_structure(sz.structure_payload(sd))
    assert back == sd


def test_parse_structure_rejects_bad_part():
    with pytest.raises(ParseError):
        sz.parse_structure({"alpha": 1.0, "blocks": [
            {"phase": 1.0, "part": "shift", "value": 0.5, "mult": 1}]})


# ---------------------------------------------------------------------------
# matrices and reports


def test_matrix_round_trip():
    m = np.array([[1 + 2j, 0.5], [0.25j, -1.0]])
    back = sz.parse_matrix(sz.matrix_payload(m))
    assert np.array_equal(back, m)


def _matrix_payload_reference(m):
    """The per-entry scrub that ``matrix_payload`` must reproduce exactly."""
    def scrub(x):
        f = float(x)
        if math.isnan(f) or math.isinf(f):
            raise ParseError(f"non-finite number {f} cannot be emitted")
        return 0.0 if f == 0.0 else f
    return [[[scrub(c.real), scrub(c.imag)] for c in row] for row in m]


def test_matrix_payload_scrubs_negative_zero():
    m = np.array([[complex(-0.0, 1.0), complex(1.0, -0.0)], [complex(-0.0, -0.0), 0.0]])
    out = sz.matrix_payload(m)
    assert out == [[[0.0, 1.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
    assert all(math.copysign(1.0, x) == 1.0
               for row in out for pair in row for x in pair if x == 0.0)
    assert "-0.0" not in sz.emit({"m": out})


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("part", ["real", "imag"])
def test_matrix_payload_rejects_non_finite(bad, part):
    m = np.zeros((2, 2), dtype=complex)
    if part == "real":
        m[1, 0] = complex(bad, 0.0)
    else:
        m[1, 0] = complex(0.0, bad)
    with pytest.raises(ParseError, match=f"non-finite number {bad} cannot be emitted"):
        sz.matrix_payload(m)


def test_matrix_payload_names_the_first_non_finite_part():
    m = np.array([[complex(1.0, math.nan), complex(math.inf, 0.0)]] * 2)
    with pytest.raises(ParseError, match="non-finite number nan"):
        sz.matrix_payload(m)


def test_matrix_payload_of_real_matrix_has_zero_imaginary_parts():
    m = np.array([[1.5, -2.0], [0.25, -0.0]])
    out = sz.matrix_payload(m)
    assert out == [[[1.5, 0.0], [-2.0, 0.0]], [[0.25, 0.0], [0.0, 0.0]]]
    assert all(type(x) is float for row in out for pair in row for x in pair)


def test_matrix_payload_emits_the_reference_bytes():
    rng = np.random.default_rng(64)
    m = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
    m[0, :5] = [-0.0, complex(0.0, -0.0), complex(-0.0, -0.0), 5e-324, -5e-324j]
    m[1, :4] = [1e300, -1e300j, complex(2.2250738585072014e-308, -1e-310), 1e-300]
    m[2, ::3] *= 1e-320
    assert sz.emit({"m": sz.matrix_payload(m)}) == sz.emit({"m": _matrix_payload_reference(m)})


def test_parse_matrix_requires_square():
    with pytest.raises(ParseError):
        sz.parse_matrix([[ [1, 0], [0, 0] ]])  # 1x2
    with pytest.raises(ParseError):
        sz.parse_matrix([])


def test_verdict_payload_shape():
    m = positive_points((2.0, INF), (3.0, 1))
    payload = sz.verdict_payload(classify(m), moduli_report(m))
    assert payload["is_an"] is True
    assert payload["violations"] == []
    assert payload["moduli"]["operator_norm"] == 3.0
    assert payload["moduli"]["essential_min_modulus"] == 2.0


# ---------------------------------------------------------------------------
# report payloads, byte for byte


def _verification(ok, mode, failures=(), **defects):
    """Verification report whose defects are 0.0 unless given."""
    values = dict.fromkeys(
        ("recombination_residual", "kf_residual", "k_hermitian_defect",
         "f_hermitian_defect", "k_psd_defect", "f_psd_defect", "f_bound_defect",
         "normality_defect", "partial_isometry_defect", "off_diagonal_norm",
         "witness_min_eig"), 0.0)
    values.update(defects)
    return VerificationReport(ok=ok, mode=mode, failures=failures, **values)


#: the keys that read 0.0 in all three verification cases, in emitted order
_DEFECTS = '"k_hermitian_defect":0.0,"k_psd_defect":0.0,"kf_residual":0.0,'

#: (payload function, report, emitted text); each -0.0 comes out as 0.0
PINNED_REPORTS = {
    "verification-positive": (sz.encoded, _verification(
        True, "positive", recombination_residual=1.5e-16, k_hermitian_defect=-0.0,
        off_diagonal_norm=3.25e-15, witness_min_eig=-0.0),
        '{"f_bound_defect":0.0,"f_hermitian_defect":0.0,"f_psd_defect":0.0,'
        '"failures":[],' + _DEFECTS + '"mode":"positive","normality_defect":0.0,'
        '"off_diagonal_norm":3.25e-15,"ok":true,"partial_isometry_defect":0.0,'
        '"recombination_residual":1.5e-16,"witness_min_eig":0.0}\n'),
    "verification-polar": (sz.encoded, _verification(
        True, "polar", normality_defect=2e-17, partial_isometry_defect=-0.0,
        f_bound_defect=0.125),
        '{"f_bound_defect":0.125,"f_hermitian_defect":0.0,"f_psd_defect":0.0,'
        '"failures":[],' + _DEFECTS + '"mode":"polar","normality_defect":2e-17,'
        '"off_diagonal_norm":0.0,"ok":true,"partial_isometry_defect":0.0,'
        '"recombination_residual":0.0,"witness_min_eig":0.0}\n'),
    "verification-failing": (sz.encoded, _verification(
        False, "polar", ("normality", "f_below_alpha"), kf_residual=-0.0,
        normality_defect=0.5, f_bound_defect=3.0, f_hermitian_defect=1e300),
        '{"f_bound_defect":3.0,"f_hermitian_defect":1e+300,"f_psd_defect":0.0,'
        '"failures":["normality","f_below_alpha"],' + _DEFECTS + '"mode":"polar",'
        '"normality_defect":0.5,"off_diagonal_norm":0.0,"ok":false,'
        '"partial_isometry_defect":0.0,"recombination_residual":0.0,'
        '"witness_min_eig":0.0}\n'),
    "witness": (sz.encoded, WitnessReport(1e-16, -0.0, 0.5, -2.0, True),
                '{"an_predicted":true,"identity_residual":1e-16,'
                '"partial_isometry_defect":0.0,"script_f_min_eig":-2.0,'
                '"script_k_min_eig":0.5}\n'),
    "perturbation": (sz.encoded, PerturbationReport(False, 3, 2, -0.0, 4.5),
                     '{"grid_hi":4.5,"grid_lo":0.0,"max_count_gap":3,'
                     '"rank_detected":2,"within_bound":false}\n'),
    "oracle": (sz.encoded, OracleReport(False, (
        OracleFailure("unattained_tail", (2.0,), "tail at 2.0"),
        OracleFailure("unattained_mixture", (1.0, -0.0, 1.75), "mixing")), 7, 1),
        '{"failures":[{"detail":"tail at 2.0","kind":"unattained_tail","witness":[2.0]},'
        '{"detail":"mixing","kind":"unattained_mixture","witness":[1.0,0.0,1.75]}],'
        '"is_an":false,"pairs_checked":1,"subsets_checked":7}\n'),
    "fredholm-inf": (sz.fredholm_payload,
                     FredholmReport(INF, False, False, False, -0.0, False),
                     '{"essential_min_modulus":0.0,"is_fredholm":false,'
                     '"is_injective":false,"is_left_semi_fredholm":false,'
                     '"kernel_dimension":"inf","range_closed":false}\n'),
    "fredholm-finite": (sz.fredholm_payload,
                        FredholmReport(2, True, True, True, 0.5, False),
                        '{"essential_min_modulus":0.5,"is_fredholm":true,'
                        '"is_injective":false,"is_left_semi_fredholm":true,'
                        '"kernel_dimension":2,"range_closed":true}\n'),
}


@pytest.mark.parametrize("name", PINNED_REPORTS)
def test_report_payload_bytes_are_pinned(name):
    payload, report, text = PINNED_REPORTS[name]
    assert sz.emit(payload(report)) == text


def test_verdict_payload_bytes_are_pinned():
    # the moduli report nests; the modulus model stays out
    verdict = ANVerdict(False, ("LIMIT_FROM_BELOW",), SpectrumModel(POSITIVE))
    moduli = ModuliReport(2.0, -0.0, 1.0, False, False)
    assert sz.emit(sz.verdict_payload(verdict, moduli)) == (
        '{"is_an":false,"moduli":{"essential_min_modulus":1.0,"finite_dim":false,'
        '"min_modulus":0.0,"norm_attained":false,"operator_norm":2.0},'
        '"violations":["LIMIT_FROM_BELOW"]}\n')


#: a document per splitter ``blocks`` picks: the triple's F is Hermitian, the
#: normal model's F (phase i) is not, so it splits by F*F
BLOCKS_DOCUMENTS = {
    "f": ('{"alpha":1.0,"k":{"kind":"positive","points":[{"value":0.5,"mult":1}]},'
          '"f":[{"value":0.25,"mult":1}],"identity_multiplicity":1}',
          '[[[1.5,0.0],[0.0,0.0]],[[0.0,0.0],[1.0,0.0]]]', '[[[0.75,0.0]]]'),
    "gram": ('{"kind":"normal","points":[{"value":[1.5,0.0],"mult":1},'
             '{"value":[0.0,0.75],"mult":1},{"value":[0.0,1.0],"mult":"inf"}]}',
             '[[[1.5,0.0],[0.0,0.0]],[[0.0,0.0],[0.0,1.0]]]', '[[[0.0,0.75]]]'),
}


@pytest.mark.parametrize("splitter", BLOCKS_DOCUMENTS)
def test_blocks_result_bytes_are_pinned(splitter, monkeypatch):
    # unconjugated (seed 0), so every entry is exact
    doc, on_kernel, on_range = BLOCKS_DOCUMENTS[splitter]
    monkeypatch.setattr(sys, "stdin", io.StringIO(doc))
    out = io.StringIO()
    assert execute(["blocks", "-", "--dim", "3"], out=out) == 0
    assert out.getvalue() == (
        '{"command":"blocks","diagnostics":[],"result":{"kernel_dim":2,'
        '"off_diagonal_norm":0.0,"on_kernel":%s,'
        '"on_range":%s,"range_dim":1,"splitter":"%s"},"schema_version":"1"}\n'
        % (on_kernel, on_range, splitter))


def test_polar_result_bytes_are_pinned(monkeypatch):
    pair = PolarPair(np.array([[1.0, -0.0], [0.0, -1.0]]),
                     np.array([[2.0, 0.5j], [-0.0, 3.0]]))
    monkeypatch.setattr("anop.matrix.polar_decompose", lambda m: pair)
    monkeypatch.setattr(sys, "stdin", io.StringIO('{"matrix":[[2,0],[0,-3]]}'))
    out = io.StringIO()
    assert execute(["polar", "-"], out=out) == 0
    # residual: |diag(2, -3) - isometry @ modulus| / |diag(2, -3)| = 0.5 / sqrt(13)
    assert out.getvalue() == (
        '{"command":"polar","diagnostics":[],"result":{'
        '"isometry":[[[1.0,0.0],[0.0,0.0]],[[0.0,0.0],[-1.0,0.0]]],'
        '"modulus":[[[2.0,0.0],[0.0,0.5]],[[0.0,0.0],[3.0,0.0]]],'
        '"residual":0.1386750490563073},"schema_version":"1"}\n')


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_non_finite_report_float_is_refused(bad):
    with pytest.raises(ParseError):
        sz.encoded(_verification(True, "positive", kf_residual=bad))
    with pytest.raises(ParseError):
        sz.encoded(OracleReport(False, (
            OracleFailure("unattained_tail", (bad,), "tail"),), 1, 0))
    with pytest.raises(ParseError):
        sz.verdict_payload(ANVerdict(True, (), SpectrumModel(POSITIVE)),
                           ModuliReport(bad, 0.0, 0.0, True, True))


# ---------------------------------------------------------------------------
# scalar conventions


def test_negative_zero_is_scrubbed():
    assert sz._scrub(-0.0) == 0.0
    assert math.copysign(1.0, sz._scrub(-0.0)) == 1.0
    assert "-0" not in sz.emit({"x": sz._scrub(-0.0)})


def test_non_finite_numbers_refused():
    with pytest.raises(ParseError):
        sz._scrub(math.inf)
    with pytest.raises(ParseError):
        sz._scrub(math.nan)


def test_emit_is_compact_sorted_and_newline_terminated():
    text = sz.emit({"b": 1, "a": [1.5, 2]})
    assert text == '{"a":[1.5,2],"b":1}\n'


def test_values_survive_emission_exactly():
    # shortest round-trip float printing keeps every bit
    v = 0.1 + 0.2
    assert json.loads(sz.emit({"v": v}))["v"] == v


def test_report_envelope():
    env = sz.report("classify", {"is_an": True})
    assert env["schema_version"] == sz.SCHEMA_VERSION
    assert env["command"] == "classify"
    assert env["diagnostics"] == []
    parsed = sz.load(sz.emit(env))
    assert parsed == env


def test_load_rejects_bad_json():
    with pytest.raises(ParseError):
        sz.load("{not json")
