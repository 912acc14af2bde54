"""Spans around the calls into anop's layers, recorded from outside.

``Recorder.install`` replaces each traced public function at every module
attribute bound to it (``anop.decompose.classify`` is a separate binding of
``anop.model.classify``, and ``verify_structure`` reaches
``hermitian_eigen`` through its module global), so calls between anop's
own modules are timed too.  Each call records a span (name, start, end,
parent span, op id) in memory.  A layer's self time is its span minus the
spans of the traced calls inside it.  Counts come from return values.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("sequences", "model", "decompose", "oracle", "matrix", "serialize", "cli")

# metric group -> the functions it covers, as "module:qualname"
GROUPS = {
    "sequences.terms": ["anop.sequences:DecaySequence.terms"],
    "sequences.merge_sequences": ["anop.sequences:merge_sequences"],
    "model.normalize_model": ["anop.model:normalize_model"],
    "model.classify": ["anop.model:classify"],
    "model.modulus_spectrum": ["anop.model:modulus_spectrum"],
    "model.moduli_report": ["anop.model:moduli_report"],
    "decompose.decompose_positive": ["anop.decompose:decompose_positive"],
    "decompose.structure": ["anop.decompose:structure_selfadjoint",
                            "anop.decompose:structure_normal"],
    "decompose.transforms": ["anop.decompose:" + f for f in (
        "square_triple", "sqrt_triple", "recompose", "invert_triple", "gram_spectrum")],
    "oracle.attainment_oracle": ["anop.oracle:attainment_oracle"],
    "matrix.hermitian_eigen": ["anop.matrix:hermitian_eigen"],
    "matrix.seeded_unitary": ["anop.matrix:seeded_unitary"],
    "matrix.realize_matrix": ["anop.matrix:realize_matrix"],
    "matrix.verify_structure": ["anop.matrix:verify_structure"],
    "matrix.converse_witness": ["anop.matrix:converse_witness"],
    "matrix.block_form": ["anop.matrix:block_form"],
    "matrix.inverse_via_blocks": ["anop.matrix:inverse_via_blocks"],
    "serialize.load": ["anop.serialize:load"],
    "serialize.parse": ["anop.serialize:" + f for f in (
        "parse_model", "parse_triple", "parse_structure", "parse_matrix", "parse_deltas")],
    "serialize.payload": ["anop.serialize:" + f for f in (
        "model_payload", "deltas_payload", "triple_payload", "amform_payload",
        "structure_payload", "verdict_payload", "fredholm_payload", "oracle_payload",
        "perturbation_payload", "verification_payload", "witness_payload", "report")],
    "serialize.matrix_payload": ["anop.serialize:matrix_payload"],
    "serialize.emit": ["anop.serialize:emit"],
}

# Every per-layer metric, in report order.  Totals over the traced replay
# are divided by its op count, so runs that fit different op counts compare.
PER_LAYER = [
    ("matrix.hermitian_eigen.calls", "1/op"),
    ("matrix.hermitian_eigen.self_s", "s/op"),
    ("matrix.hermitian_eigen.sweeps", "1/op"),
    ("matrix.hermitian_eigen.self_s.n16", "s/op"),
    ("matrix.hermitian_eigen.self_s.n32", "s/op"),
    ("matrix.hermitian_eigen.self_s.n64", "s/op"),
    ("matrix.verify_structure.eigensolves_per_call", "1/call"),
    ("matrix.seeded_unitary.calls", "1/op"),
    ("matrix.seeded_unitary.self_s", "s/op"),
    ("matrix.realize_matrix.self_s", "s/op"),
    ("matrix.verify_structure.self_s", "s/op"),
    ("matrix.converse_witness.self_s", "s/op"),
    ("matrix.block_form.self_s", "s/op"),
    ("matrix.inverse_via_blocks.self_s", "s/op"),
    ("serialize.load.self_s", "s/op"),
    ("serialize.parse.self_s", "s/op"),
    ("serialize.payload.self_s", "s/op"),
    ("serialize.matrix_payload.self_s", "s/op"),
    ("serialize.emit.self_s", "s/op"),
    ("serialize.emit.bytes", "B/op"),
    ("model.normalize_model.calls", "1/op"),
    ("model.normalize_model.self_s", "s/op"),
    ("model.classify.self_s", "s/op"),
    ("model.modulus_spectrum.self_s", "s/op"),
    ("model.moduli_report.self_s", "s/op"),
    ("model.scale_flips", "1/op"),
    ("sequences.terms.calls", "1/op"),
    ("sequences.terms.self_s", "s/op"),
    ("sequences.merge_sequences.calls", "1/op"),
    ("sequences.merge_sequences.self_s", "s/op"),
    ("decompose.decompose_positive.self_s", "s/op"),
    ("decompose.structure.self_s", "s/op"),
    ("decompose.transforms.self_s", "s/op"),
    ("oracle.attainment_oracle.calls", "1/op"),
    ("oracle.attainment_oracle.self_s", "s/op"),
    ("oracle.subsets_checked", "1/op"),
    ("oracle.pairs_checked", "1/op"),
    ("cli.spawn.wall_s", "s/op"),
    ("cli.import.numpy_s", "s/op"),
    ("cli.import.anop_s", "s/op"),
    ("cli.import.anop_matrix_self_s", "s/op"),
    ("cli.exit_nonzero", "1/op"),
    *((f"{layer}.errors", "1/op") for layer in LAYERS),
    ("trace.op_s", "s/op"),
    ("trace.untraced_op_s", "s/op"),
    ("trace.overhead", "ratio"),
]


def _n_bucket(n: int) -> str:
    return "n16" if n <= 16 else "n32" if n <= 32 else "n64"


class Recorder:
    """Span recorder.  Each op is a root span named "op" whose children are
    the traced calls it made; wrappers pass straight through outside an op,
    so checks made between ops are not traced."""

    def __init__(self):
        self.spans: list = []
        self.active = False
        self.op = -1
        self.untraced_s = 0.0   # op time outside every traced call
        self._op_start = 0.0
        self._stack: list[int] = []
        self._child: list[float] = []
        self._in_verify = 0
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: dict[str, float] = defaultdict(float)
        self.errors: Counter = Counter()
        self._installed: list = []

    # -- installation -----------------------------------------------------

    def install(self, extra_modules=()):
        """Wrap every traced function at each binding in anop's modules and
        in ``extra_modules`` (the benchmark's own)."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == "anop" or name.startswith("anop.")]
        modules += list(extra_modules)
        for group, targets in GROUPS.items():
            for target in targets:
                module_name, qualname = target.split(":")
                owner = importlib.import_module(module_name)
                *path, attr = qualname.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
                wrapper = self._wrap(group, f"{module_name}.{qualname}", original)
                if path:   # a method: one binding, on its class
                    self._bind(owner, attr, original, wrapper)
                    continue
                for module in modules:
                    for name, value in list(vars(module).items()):
                        if value is original:
                            self._bind(module, name, original, wrapper)

    def _bind(self, owner, name, original, wrapper):
        setattr(owner, name, wrapper)
        self._installed.append((owner, name, original))

    def uninstall(self):
        for owner, name, original in reversed(self._installed):
            setattr(owner, name, original)
        self._installed.clear()

    # -- recording --------------------------------------------------------

    def begin_op(self, op: int):
        self.op, self.active = op, True
        self._stack.append(len(self.spans))
        self.spans.append(None)
        self._child.append(0.0)
        self._op_start = perf_counter()

    def end_op(self):
        end = perf_counter()
        self.active = False
        self.untraced_s += end - self._op_start - self._child.pop()
        self.spans[self._stack.pop()] = ("op", self._op_start, end, -1, self.op)

    def _wrap(self, group: str, span_name: str, fn):
        rec = self
        layer = group.split(".", 1)[0]
        is_verify = group == "matrix.verify_structure"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            parent = rec._stack[-1] if rec._stack else -1
            index = len(rec.spans)
            rec.spans.append(None)
            rec._stack.append(index)
            rec._child.append(0.0)
            rec._in_verify += is_verify
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                rec._error(layer, exc)
                raise
            finally:
                end = perf_counter()
                rec._in_verify -= is_verify
                rec._stack.pop()
                own = end - start - rec._child.pop()
                if rec._child:
                    rec._child[-1] += end - start
                rec.spans[index] = (span_name, start, end, parent, rec.op)
                rec.self_s[group] += own
                rec.calls[group] += 1
            rec._count(group, result, own)
            return result

        return traced

    def _error(self, layer: str, exc: Exception):
        """Count an exception once per layer it passes through."""
        seen = exc.__dict__.setdefault("_traced_layers", set())
        if layer not in seen:
            seen.add(layer)
            self.errors[layer] += 1

    def _count(self, group: str, result, own: float):
        c = self.counts
        if group == "matrix.hermitian_eigen":
            c["matrix.hermitian_eigen.sweeps"] += result.sweeps
            c["matrix.hermitian_eigen.self_s." + _n_bucket(result.values.shape[0])] += own
            if self._in_verify:
                c["matrix.verify_structure.eigensolves"] += 1
        elif group == "oracle.attainment_oracle":
            c["oracle.subsets_checked"] += result.subsets_checked
            c["oracle.pairs_checked"] += result.pairs_checked
        elif group == "serialize.emit":   # ASCII JSON: one byte per character
            c["serialize.emit.bytes"] += len(result)

    # -- results ----------------------------------------------------------

    def metrics(self, ops: int) -> dict[str, float]:
        """Per-op values of the metrics this recorder measured."""
        out = {name: value / ops for name, value in self.counts.items()}
        for group in GROUPS:
            out[f"{group}.calls"] = self.calls[group] / ops
            out[f"{group}.self_s"] = self.self_s[group] / ops
        for layer in LAYERS:
            out[f"{layer}.errors"] = self.errors[layer] / ops
        verify_calls = self.calls["matrix.verify_structure"]
        if verify_calls:
            out["matrix.verify_structure.eigensolves_per_call"] = (
                self.counts["matrix.verify_structure.eigensolves"] / verify_calls)
        return out

    def write_spans(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("# name start_s end_s parent_span op\n")
            fh.writelines(f"{s[0]} {s[1]:.9f} {s[2]:.9f} {s[3]} {s[4]}\n"
                          for s in self.spans if s is not None)
