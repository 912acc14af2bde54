"""JSON encoding and decoding for every object the CLI passes around.

Conventions: spectral values are bare numbers for the real kinds and
``[re, im]`` pairs for normal models (parsers accept either everywhere);
infinite multiplicities are the string ``"inf"``; explicit delta sequences
carry an optional ``"terminates"`` flag (default true) distinguishing
finitely-many-eigenvalues sugar from a genuine limit point written out
term by term.  Emission is deterministic: keys sorted, compact separators,
negative zeros scrubbed, one trailing newline.

A report's result keys are its record fields, emitted by :func:`encoded`,
which also writes every other result built of plain values: the verdict, the
Fredholm report and the matrix commands' results are dicts it encodes.
"""

from __future__ import annotations

import json
import math

from .errors import ParseError
from .model import (
    ABOVE,
    BELOW,
    INF,
    KINDS,
    NORMAL,
    POSITIVE,
    Cluster,
    EigenvalueEntry,
    ModuliReport,
    ANVerdict,
    SpectrumModel,
)
from .sequences import EXPLICIT, GEOMETRIC, HARMONIC, DecaySequence

SCHEMA_VERSION = "1"


# ---------------------------------------------------------------------------
# scalar helpers


def _scrub(x: float) -> float:
    f = float(x)
    if not math.isfinite(f):
        raise ParseError(f"non-finite number {f} cannot be emitted")
    return 0.0 if f == 0.0 else f


def _value_out(value: complex, kind: str | None):
    v = complex(value)
    if kind is not None and kind != NORMAL:
        return _scrub(v.real)
    return [_scrub(v.real), _scrub(v.imag)]


def _mult_out(mult):
    if mult == INF:
        return "inf"
    return int(mult)


def _require(obj, key: str, what: str):
    if not isinstance(obj, dict):
        raise ParseError(f"{what} must be a JSON object, got {type(obj).__name__}")
    if key not in obj:
        raise ParseError(f"{what} is missing the {key!r} field")
    return obj[key]


def _is_number(raw) -> bool:
    return isinstance(raw, (int, float)) and not isinstance(raw, bool)


def _number_in(raw, what: str) -> float:
    """The one number reader: a JSON number as a float.  An integer beyond
    the float range reads as the +-inf that a literal such as ``1e400``
    gives, so it meets the same finiteness checks."""
    if not _is_number(raw):
        raise ParseError(f"{what} must be a number, got {raw!r}")
    try:
        return float(raw)
    except OverflowError:
        return INF if raw > 0 else -INF


def _value_in(raw, what: str) -> complex:
    if _is_number(raw):
        return complex(_number_in(raw, what), 0.0)
    if isinstance(raw, list) and len(raw) == 2 and all(map(_is_number, raw)):
        return complex(_number_in(raw[0], what), _number_in(raw[1], what))
    raise ParseError(f"{what} must be a number or [re, im] pair, got {raw!r}")


def _mult_in(raw, what: str):
    if raw == "inf":
        return INF
    if isinstance(raw, bool) or not isinstance(raw, int):
        raise ParseError(f"{what} must be an integer or \"inf\", got {raw!r}")
    return raw


# ---------------------------------------------------------------------------
# delta sequences


def deltas_payload(seq: DecaySequence) -> dict:
    if seq.kind == GEOMETRIC:
        return {"kind": GEOMETRIC, "first": _scrub(seq.first),
                "ratio": _scrub(seq.ratio)}
    if seq.kind == HARMONIC:
        return {"kind": HARMONIC, "scale": _scrub(seq.scale)}
    out = {"kind": EXPLICIT, "terms": [_scrub(t) for t in seq.terms_]}
    if not seq.terminating:
        out["terminates"] = False
    return out


def parse_deltas(obj) -> DecaySequence:
    kind = _require(obj, "kind", "delta sequence")
    if kind == GEOMETRIC:
        return DecaySequence.geometric(
            _number_in(_require(obj, "first", "geometric sequence"), "first"),
            _number_in(_require(obj, "ratio", "geometric sequence"), "ratio"))
    if kind == HARMONIC:
        return DecaySequence.harmonic(
            _number_in(_require(obj, "scale", "harmonic sequence"), "scale"))
    if kind == EXPLICIT:
        raw = _require(obj, "terms", "explicit sequence")
        if not isinstance(raw, list):
            raise ParseError("explicit terms must be a list")
        terms = tuple(_number_in(t, "explicit term") for t in raw)
        terminates = obj.get("terminates", True)
        if not isinstance(terminates, bool):
            raise ParseError(f"terminates must be a boolean, got {terminates!r}")
        return DecaySequence.explicit(terms, terminating=terminates)
    raise ParseError(f"unknown delta sequence kind {kind!r}")


# ---------------------------------------------------------------------------
# spectrum models


def _clusters_in(raw_clusters, what: str) -> tuple:
    """Cluster list of a model or of a structure; ``what`` names the item
    in field errors."""
    out = []
    for rc in raw_clusters:
        side = _require(rc, "side", what)
        if side not in (ABOVE, BELOW):
            raise ParseError(f"cluster side must be above/below, got {side!r}")
        out.append(Cluster(
            _value_in(_require(rc, "limit", what), "cluster limit"),
            side,
            parse_deltas(_require(rc, "deltas", what))))
    return tuple(out)


def model_payload(model: SpectrumModel) -> dict:
    return _spectrum_payload(model.kind, model.points, model.clusters)


def _spectrum_payload(kind: str | None, points, clusters) -> dict:
    """The model writer for any points and clusters; kind None writes pairs."""
    return {
        "kind": kind,
        "points": [{"value": _value_out(p.value, kind),
                    "mult": _mult_out(p.mult)} for p in points],
        "clusters": [{"limit": _value_out(cl.limit, kind),
                      "side": cl.side,
                      "deltas": deltas_payload(cl.deltas)} for cl in clusters],
    }


def parse_model(obj) -> SpectrumModel:
    kind = _require(obj, "kind", "model")
    if kind not in KINDS:
        raise ParseError(f"model kind must be one of {KINDS}, got {kind!r}")
    raw_points = obj.get("points", [])
    raw_clusters = obj.get("clusters", [])
    if not isinstance(raw_points, list) or not isinstance(raw_clusters, list):
        raise ParseError("points and clusters must be lists")
    return SpectrumModel(kind, _entries_in(raw_points, "point"),
                         _clusters_in(raw_clusters, "cluster"))


# ---------------------------------------------------------------------------
# triples, structures, AM forms


def _entries_in(raw, what: str):
    if not isinstance(raw, list):
        raise ParseError(f"{what} must be a list")
    out = []
    for item in raw:
        out.append(EigenvalueEntry(
            _value_in(_require(item, "value", what), f"{what} value"),
            _mult_in(_require(item, "mult", what), f"{what} multiplicity")))
    return tuple(out)


def triple_payload(triple: PositiveTriple) -> dict:
    return {
        "alpha": _scrub(triple.alpha),
        "k": model_payload(triple.k_entries),
        "f": _spectrum_payload(POSITIVE, triple.f_entries, ())["points"],
        "identity_multiplicity": _mult_out(triple.identity_multiplicity),
    }


def parse_triple(obj) -> PositiveTriple:
    from .decompose import PositiveTriple
    alpha = _number_in(_require(obj, "alpha", "triple"), "alpha")
    k = _require(obj, "k", "triple")
    f = _entries_in(obj.get("f", []), "finite-rank entry")
    ident_raw = obj.get("identity_multiplicity", 0)
    ident = _mult_in(ident_raw, "identity multiplicity")
    # the model is built, and so checked, once the whole document has parsed
    return PositiveTriple(alpha, parse_model(k), f, ident)


def amform_payload(form: AMForm) -> dict:
    return {
        "beta": _scrub(form.beta),
        "k1": _spectrum_payload(POSITIVE, form.k1_entries, form.k1_clusters),
        "f1": _spectrum_payload(POSITIVE, form.f1_entries, ())["points"],
        "identity_multiplicity": _mult_out(form.identity_multiplicity),
    }


def structure_payload(sd: StructuredDecomposition) -> dict:
    return {
        "alpha": _scrub(sd.alpha),
        "blocks": [{"phase": _value_out(b.phase, None),
                    "part": b.part,
                    "value": _scrub(b.value),
                    "mult": _mult_out(b.mult)} for b in sd.blocks],
        "clusters": _spectrum_payload(None, (), sd.cluster_blocks)["clusters"],
        "kernel_multiplicity": _mult_out(sd.kernel_multiplicity),
    }


def parse_structure(obj) -> StructuredDecomposition:
    from .decompose import Block, StructuredDecomposition
    alpha = _number_in(_require(obj, "alpha", "structure"), "alpha")
    raw_blocks = obj.get("blocks", [])
    raw_clusters = obj.get("clusters", [])
    if not isinstance(raw_blocks, list) or not isinstance(raw_clusters, list):
        raise ParseError("blocks and clusters must be lists")
    blocks = []
    for rb in raw_blocks:
        part = _require(rb, "part", "block")
        if part not in ("k", "f", "identity"):
            raise ParseError(f"block part must be k/f/identity, got {part!r}")
        blocks.append(Block(
            _value_in(_require(rb, "phase", "block"), "block phase"),
            part,
            _number_in(_require(rb, "value", "block"), "block value"),
            _mult_in(_require(rb, "mult", "block"), "block multiplicity")))
    clusters = _clusters_in(raw_clusters, "cluster block")
    kern = _mult_in(obj.get("kernel_multiplicity", 0), "kernel multiplicity")
    return StructuredDecomposition(alpha, tuple(blocks), clusters, kern)


# ---------------------------------------------------------------------------
# matrices


def matrix_payload(m) -> list:
    """An array of any shape, each entry an ``[re, im]`` pair (a vector as a
    list of pairs, a matrix as rows of them), scrubbed as :func:`_scrub`
    scrubs one number: every part is a float, ``-0.0`` comes out as ``0.0``,
    and a NaN or infinite part raises :class:`ParseError` naming the first
    one in row-major order (real part first)."""
    import numpy as np
    a = np.ascontiguousarray(m, dtype=np.complex128)
    parts = a.view(np.float64).reshape(a.shape + (2,)) + 0.0
    finite = np.isfinite(parts)
    if not finite.all():
        _scrub(parts.flat[int(np.argmin(finite))])
    return parts.tolist()


def parse_matrix(obj):
    import numpy as np
    if not isinstance(obj, list) or not obj:
        raise ParseError("matrix must be a nonempty list of rows")
    rows = []
    for raw_row in obj:
        if not isinstance(raw_row, list) or len(raw_row) != len(obj):
            raise ParseError("matrix must be square")
        rows.append([_value_in(c, "matrix entry") for c in raw_row])
    m = np.array(rows, dtype=np.complex128)
    finite = np.isfinite(m)
    if not finite.all():
        i, j = divmod(int(np.argmin(finite)), m.shape[1])
        raise ParseError(f"matrix entry [{i}][{j}] must be finite, got {obj[i][j]!r}")
    return m


# ---------------------------------------------------------------------------
# report payloads


def encoded(report) -> dict:
    """JSON payload of a report record or a dict: one key per field or
    entry, floats scrubbed, tuples and lists as lists, nested reports and
    dicts encoded the same way and arrays as :func:`matrix_payload` pairs."""
    items = report if isinstance(report, dict) else vars(report)
    return {name: _encoded_value(value) for name, value in items.items()}


def _encoded_value(value):
    if isinstance(value, float):
        return _scrub(value)
    if isinstance(value, (str, int)):  # bools are ints
        return value
    if isinstance(value, (tuple, list)):
        return [_encoded_value(v) for v in value]
    if hasattr(value, "ndim"):
        return matrix_payload(value)
    return encoded(value)


#: the encoder's former names, which perfbench's workloads and tracer call
oracle_payload = verification_payload = witness_payload = perturbation_payload = encoded


def verdict_payload(verdict: ANVerdict, moduli: ModuliReport) -> dict:
    return encoded({"is_an": verdict.is_an, "violations": verdict.violations,
                    "moduli": moduli})


def fredholm_payload(report: FredholmReport) -> dict:
    return encoded({**vars(report), "kernel_dimension": _mult_out(report.kernel_dimension)})


# ---------------------------------------------------------------------------
# report envelope


def report(command: str, result, diagnostics=()) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "result": result,
        "diagnostics": list(diagnostics),
    }


def emit(payload: dict) -> str:
    # every payload is a tree its writers built fresh: no cycle to look for
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), check_circular=False) + "\n"


def load(text: str):
    try:
        return json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer too long to convert
        raise ParseError(f"invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ParseError("invalid JSON: nested too deeply") from exc
