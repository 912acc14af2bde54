import json
import math

import numpy as np
import pytest

import anop.serialize as sz
from anop.decompose import PositiveTriple, decompose_positive, invert_triple, structure_selfadjoint
from anop.errors import ParseError
from anop.model import (
    ABOVE,
    BELOW,
    INF,
    NORMAL,
    POSITIVE,
    SELF_ADJOINT,
    Cluster,
    EigenvalueEntry,
    SpectrumModel,
    classify,
    moduli_report,
    normalize_model,
)
from anop.sequences import DecaySequence

from conftest import positive_points


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
    m = normalize_model(SpectrumModel(SELF_ADJOINT, (
        EigenvalueEntry(-2.0 + 0j, INF),
        EigenvalueEntry(3.0 + 0j, 2),
    ), (Cluster(2.0 + 0j, ABOVE, DecaySequence.geometric(0.125, 0.5)),)))
    payload = sz.model_payload(m)
    assert payload["points"][0]["value"] == -2.0  # bare number, not a pair
    assert payload["points"][0]["mult"] == "inf"
    assert sz.parse_model(payload) == m


def test_model_round_trip_normal_kind():
    m = normalize_model(SpectrumModel(NORMAL, (
        EigenvalueEntry(1 + 2j, 1),
    ), (Cluster(3j, ABOVE, DecaySequence.harmonic(0.25)),)))
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
