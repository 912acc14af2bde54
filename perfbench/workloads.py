"""The four benchmark workloads.

Each workload is a closed loop with one caller: ``op(i)`` runs the i-th
item and returns its output, and ``check(i, output)`` returns the list of
problems found in that output (empty when correct).  The runner times only
``op``; checks run outside the timed interval.  Inputs are built in the
constructor from the workload seed, so ``make(name, seed).op(i)`` replays
any op exactly.

Importing this module imports anop (and numpy); the runner counts that
import as part of set-up time.
"""

from __future__ import annotations

import io
import json
import math
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

from anop import cli, decompose, matrix, model, oracle
from anop import serialize as sz
from anop.errors import AnopError, DimTooSmallError

ROOT = Path(__file__).resolve().parent.parent
SPECS = ROOT / "specs"
GOLDEN = ROOT / "tests" / "golden"

ORACLE_PROFILE = oracle.TruncationProfile(depth=12)
VERIFY_TOL = 1e-10


def _unitary_seed(seed: int, i: int) -> int:
    """Nonzero conjugation seed for op ``i``; distinct across workload seeds."""
    return seed * 1_000_003 + i + 1


def _decomposition(n):
    """Decomposition by kind, as ``anop verify`` makes it."""
    if n.kind == model.POSITIVE:
        return decompose.decompose_positive(n)
    if n.kind == model.SELF_ADJOINT:
        return decompose.structure_selfadjoint(n)
    return decompose.structure_normal(n)


def _fro(m) -> float:
    return float(np.linalg.norm(m))


# ---------------------------------------------------------------------------
# spectral: model -> verdict -> decomposition -> oracle, no matrices


def _scale_value(raw, factor: float):
    if isinstance(raw, list):
        return [x * factor for x in raw]
    return raw * factor


def _rescaled(doc: dict, factor: float) -> dict:
    """The same spectrum multiplied by ``factor`` > 0, written in JSON."""
    out = json.loads(json.dumps(doc))
    for p in out["points"]:
        p["value"] = _scale_value(p["value"], factor)
    for cl in out["clusters"]:
        cl["limit"] = _scale_value(cl["limit"], factor)
        deltas = cl["deltas"]
        for key in ("first", "scale", "terms"):
            if key in deltas:
                deltas[key] = _scale_value(deltas[key], factor)
    return out


def _model_scale(m) -> float:
    values = [abs(p.value) for p in m.points]
    for cl in m.clusters:
        values.append(abs(cl.limit))
        values.extend(cl.deltas.terms(1))
    return max(values, default=1.0) or 1.0


def _same_model(a, b, rel_tol: float) -> bool:
    """Value-level equality of two normalized models, relative to their scale."""
    tol = rel_tol * max(_model_scale(a), _model_scale(b))
    if a.kind != b.kind or len(a.points) != len(b.points):
        return False
    if len(a.clusters) != len(b.clusters):
        return False
    for p, q in zip(a.points, b.points):
        if p.mult != q.mult or abs(p.value - q.value) > tol:
            return False
    for ca, cb in zip(a.clusters, b.clusters):
        if ca.side != cb.side or abs(ca.limit - cb.limit) > tol:
            return False
        ta, tb = ca.deltas.terms(12), cb.deltas.terms(12)
        if len(ta) != len(tb) or any(abs(x - y) > tol for x, y in zip(ta, tb)):
            return False
    return True


class Spectral:
    """One op is one seeded ``mixed_model`` document taken from JSON text
    through classification, decomposition or structure, and the oracle.

    One document in four is rescaled by a seeded power of ten in
    1e-12..1e12.  AN membership is scale-invariant, so a rescaled document
    whose checks fail while its unscaled twin passes is a scale flip: a
    known defect of the absolute merge tolerance.  Flips are counted apart
    from failed ops (see README.md).
    """

    name = "spectral"
    cycle = 12          # the mixed_model family cycle

    def __init__(self, seed: int, tiny: bool = False):
        pool = 24 if tiny else 1200
        rng = random.Random(f"spectral:{seed}")
        self.docs = []
        for j in range(pool):
            tag, m = oracle.mixed_model(seed * pool + j)
            doc = sz.model_payload(m)
            factor = 10.0 ** rng.randint(-12, 12) if j % 4 == 3 else 1.0
            scaled = _rescaled(doc, factor) if factor != 1.0 else doc
            self.docs.append((tag, factor, sz.emit(scaled), sz.emit(doc)))
        self.flips: dict[int, str] = {}

    def op(self, i: int):
        return self._run(self.docs[i % len(self.docs)][2])

    def _run(self, text: str):
        n = verdict = report = triple = recomposed = None
        try:
            n = model.normalize_model(sz.parse_model(sz.load(text)))
            verdict = model.classify(n)
            out = {"verdict": sz.verdict_payload(verdict, model.moduli_report(n))}
            if verdict.is_an and n.kind == model.POSITIVE:
                triple = decompose.decompose_positive(n)
                recomposed = decompose.recompose(triple)
                out["triple"] = sz.triple_payload(triple)
                out["square"] = sz.triple_payload(decompose.square_triple(triple))
                out["sqrt"] = sz.triple_payload(decompose.sqrt_triple(triple))
                out["recomposed"] = sz.model_payload(recomposed)
                out["gram"] = sz.model_payload(decompose.gram_spectrum(n))
                if triple.alpha > model.MERGE_TOL and triple.is_injective():
                    out["inverse"] = sz.amform_payload(decompose.invert_triple(triple))
            elif verdict.is_an and n.kind == model.SELF_ADJOINT:
                out["structure"] = sz.structure_payload(decompose.structure_selfadjoint(n))
            elif verdict.is_an:
                out["structure"] = sz.structure_payload(decompose.structure_normal(n))
            report = oracle.attainment_oracle(n, ORACLE_PROFILE)
            out["oracle"] = sz.oracle_payload(report)
            emitted = sz.emit(sz.report(self.name, out))
            error = None
        except AnopError as exc:
            # As the CLI does, a domain failure becomes a diagnostics report.
            emitted = sz.emit(sz.report(self.name, None,
                                        [{"code": exc.code, "message": exc.message}]))
            error = exc
        return n, verdict, report, triple, recomposed, emitted, error

    def check(self, i: int, output) -> list[str]:
        tag, factor, _, plain = self.docs[i % len(self.docs)]
        problems = self._problems(tag, output)
        if problems and factor != 1.0:
            twin = self._problems(tag, self._run(plain))
            if twin:
                return [f"unscaled twin: {p}" for p in twin]
            self.flips[i] = f"x{factor:g}: " + "; ".join(problems)
            return []
        return problems

    @staticmethod
    def _problems(tag: str, output) -> list[str]:
        n, verdict, report, triple, recomposed, emitted, error = output
        if error is not None:
            return [f"raised {type(error).__name__}: {error.message}"]
        problems = []
        expect_an = not tag.startswith("violator")
        if verdict.is_an != expect_an:
            problems.append(f"verdict is_an={verdict.is_an} for tag {tag}")
        elif not expect_an and tag.split(":", 1)[1] not in verdict.violations:
            problems.append(f"violations {verdict.violations} miss tag {tag}")
        if report.is_an != verdict.is_an:
            problems.append(f"oracle is_an={report.is_an} disagrees with classifier")
        if triple is not None:
            if not _same_model(recomposed, n, 1e-12):
                problems.append("recompose(decompose(model)) differs at 1e-12")
            again = decompose.decompose_positive(recomposed)
            if not _same_model(decompose.recompose(again), recomposed, 1e-12):
                problems.append("decompose(recompose(triple)) differs at 1e-12")
        if sz.load(emitted).get("result") is None:
            problems.append("emitted report carries no result")
        return problems


# ---------------------------------------------------------------------------
# verify: what `anop verify` and `anop invert-matrix` do


class Verify:
    """One op parses a model document, decomposes it by kind, realizes it,
    runs ``verify_structure`` and, for injective positive triples with
    alpha > 0, ``inverse_via_blocks``; both reports are emitted.

    The cycle is twelve ops over acceptance criterion 06's first twelve
    models (``generate_model(k, family)``, families cycled) at dims
    ``8 + 7k mod 25``, spread over 8..32.  One op in four uses unitary seed
    0 (diagonal input, once per family); the workload seed draws the other
    conjugating unitaries.  Fixed models keep the cost of a cycle fixed:
    with seeded models the eigensolve and sweep counts, and so the cost,
    moved more than the run-to-run noise.
    """

    name = "verify"
    cycle = 12

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        dims = [8 + (7 * k) % (5 if tiny else 25) for k in range(self.cycle)]
        fallback = max(dims)
        self.plan = []
        for k, dim in enumerate(dims):
            family = oracle.FAMILIES[k % len(oracle.FAMILIES)]
            m = oracle.generate_model(k, family)
            try:   # as the acceptance helper: a model that does not fit falls back
                matrix.realize_matrix(_decomposition(m), dim, 0)
            except DimTooSmallError:
                dim = fallback
            self.plan.append((sz.emit(sz.model_payload(m)), dim))

    def op(self, i: int):
        text, dim = self.plan[i % self.cycle]
        useed = 0 if i % 4 == 3 else _unitary_seed(self.seed, i)
        n = model.normalize_model(sz.parse_model(sz.load(text)))
        obj = _decomposition(n)
        ro = matrix.realize_matrix(obj, dim, useed)
        report = matrix.verify_structure(ro.matrix, ro.compact, ro.finite,
                                         ro.isometry, ro.alpha, VERIFY_TOL)
        out = sz.verification_payload(report)
        out["dim"], out["seed"] = dim, useed
        texts = [sz.emit(sz.report("verify", out))]
        inv = None
        if (isinstance(obj, decompose.PositiveTriple) and obj.alpha > model.MERGE_TOL
                and obj.is_injective()):
            inv = matrix.inverse_via_blocks(ro.compact, ro.finite, ro.alpha, VERIFY_TOL)
            residual = _fro(ro.matrix @ inv - np.eye(dim)) / math.sqrt(dim)
            texts.append(sz.emit(sz.report("invert-matrix", {
                "dim": dim, "seed": useed, "residual": sz._scrub(residual),
                "inverse": sz.matrix_payload(inv)})))
        return n, ro, report, inv, texts

    def check(self, i: int, output) -> list[str]:
        n, ro, report, inv, texts = output
        problems = []
        if not report.ok:
            problems.append(f"verify_structure failed {report.failures}")
        dim = ro.matrix.shape[0]
        if inv is not None:
            residual = float(np.linalg.norm(ro.matrix @ inv - np.eye(dim), 2))
            if residual > 1e-8:
                problems.append(f"|T inv - I| = {residual:.3e} > 1e-8")
        if n.kind != model.NORMAL:   # Hermitian: LAPACK as the lab oracle
            lab = np.linalg.eigvalsh(ro.matrix)
            want = np.sort(ro.diagonal.real)
            scale = max(float(np.max(np.abs(want))), 1.0)
            if float(np.max(np.abs(lab - want))) > 1e-8 * scale:
                problems.append("eigvalsh of the realization misses its diagonal")
        if json.loads(texts[0])["result"]["ok"] is not True:
            problems.append("emitted verification report is not ok")
        return problems


# ---------------------------------------------------------------------------
# realize: `anop realize` at large dims


class Realize:
    """One op realizes a decomposition under a nonzero seeded unitary and
    emits the realize document (labels, diagonal, matrix).  Dims cycle
    128/256/512 and the families cycle every three ops, so both layout
    branches of ``realize_matrix`` run."""

    name = "realize"
    cycle = 3

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.dims = [16, 32, 48] if tiny else [128, 256, 512]
        self.pool = []
        for e in range(9):
            family = oracle.FAMILIES[e // 3]
            m = oracle.generate_model(seed * 9 + e, family)
            self.pool.append((_decomposition(m), self.dims[e % 3]))

    def op(self, i: int):
        obj, dim = self.pool[i % len(self.pool)]
        useed = _unitary_seed(self.seed, i)
        ro = matrix.realize_matrix(obj, dim, useed)
        result = {
            "dim": dim,
            "seed": useed,
            "alpha": sz._scrub(ro.alpha),
            "labels": list(ro.labels),
            "diagonal": [sz._value_out(d, None) for d in ro.diagonal],
            "matrix": sz.matrix_payload(ro.matrix),
        }
        return ro, sz.emit(sz.report("realize", result))

    def check(self, i: int, output) -> list[str]:
        ro, text = output
        dim = ro.matrix.shape[0]
        problems = []
        u = ro.unitary
        unitarity = _fro(u.conj().T @ u - np.eye(dim)) / math.sqrt(dim)
        if unitarity > 1e-10:
            problems.append(f"|U*U - I| = {unitarity:.3e} > 1e-10")
        recomb = _fro(ro.matrix - (ro.compact - ro.finite + ro.alpha * ro.isometry))
        if recomb > 1e-10 * max(_fro(ro.matrix), 1.0):
            problems.append(f"|T - (K - F + alpha V)| = {recomb:.3e}")
        doc = sz.load(text)["result"]
        entries = np.array(doc.pop("matrix"), dtype=np.float64)
        if entries.shape != (dim, dim, 2):
            problems.append(f"emitted matrix has shape {entries.shape}, want ({dim}, {dim}, 2)")
        elif not np.array_equal(entries[..., 0] + 1j * entries[..., 1], ro.matrix):
            problems.append("emitted matrix does not load back to the realization")
        if len(doc["labels"]) != dim or len(doc["diagonal"]) != dim:
            problems.append("labels or diagonal length differs from dim")
        return problems


# ---------------------------------------------------------------------------
# cli: one `python -m anop.cli` child per op


GOLDEN_CASES = {
    ("classify", "specs/violator_from_below.json"): "classify_from_below.json",
    ("classify", "specs/positive_tail.json"): "classify_positive_tail.json",
    ("classify", "specs/selfadjoint_signed.json"): "classify_selfadjoint.json",
    ("decompose", "specs/uniqueness_full.json"): "decompose_full.json",
    ("structure", "specs/selfadjoint_signed.json"): "structure_selfadjoint.json",
}

_IMPORTTIME = re.compile(r"^import time:\s+(\d+)\s+\|\s+(\d+)\s+\|\s*(\S+)\s*$")


def child_env() -> dict:
    """Environment for anop children: the checkout's sources on the path."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def parse_importtime(stderr: str) -> dict:
    """Cumulative numpy and anop import seconds and anop.matrix self seconds
    from ``-X importtime`` output."""
    found = {"numpy_s": 0.0, "anop_s": 0.0, "anop_matrix_self_s": 0.0}
    for line in stderr.splitlines():
        hit = _IMPORTTIME.match(line)
        if not hit:
            continue
        self_us, cumulative_us, name = int(hit[1]), int(hit[2]), hit[3]
        if name == "numpy":
            found["numpy_s"] = cumulative_us / 1e6
        elif name == "anop":
            found["anop_s"] = cumulative_us / 1e6
        elif name == "anop.matrix":
            found["anop_matrix_self_s"] = self_us / 1e6
    return found


class Cli:
    """One op is one ``python -m anop.cli`` child, spawned and awaited one
    at a time over a fixed cycle of the shipped specs.  Each child's stdout
    must match in-process ``anop.cli.execute`` on the same argv and stdin
    byte for byte, and the golden file where one exists."""

    name = "cli"
    SPAWN_TIMEOUT_S = 60

    def __init__(self, seed: int, tiny: bool = False):
        specs = sorted(p.name for p in SPECS.glob("*.json"))
        if not specs:
            raise FileNotFoundError(f"no specs under {SPECS}")
        full = "specs/uniqueness_full.json"
        self.argvs = [(["classify", f"specs/{s}"], None)
                      for s in (specs[:3] if tiny else specs)]
        self.argvs += [
            (["decompose", full], None),
            (["recompose", "-"], "decomposed"),
            (["invert", "-"], "decomposed"),
            (["structure", "specs/selfadjoint_signed.json"], None),
            (["oracle", f"specs/{specs[seed % len(specs)]}"], None),
            (["fuzz", "--count", "20" if tiny else "500", "--seed", str(seed * 500)], None),
            (["verify", full, "--dim", "8" if tiny else "16", "--seed", "3"], None),
        ]
        self.cycle = len(self.argvs)
        # The piped input is the decompose report, made in-process; the check
        # on the decompose child proves the child writes the same bytes.
        self.stdin_docs = {None: "", "decomposed": self._in_process(["decompose", full], "")[1]}
        self.expected: dict = {}
        self.traced = False      # spawn with -X importtime and count exits
        self.imports: list[dict] = []
        self.nonzero_exits = 0

    def _in_process(self, argv, stdin_text):
        out, err = io.StringIO(), io.StringIO()
        saved = sys.stdin
        sys.stdin = io.StringIO(stdin_text)
        try:
            code = cli.execute(argv, out=out, err=err)
        finally:
            sys.stdin = saved
        return code, out.getvalue()

    def op(self, i: int):
        argv, stdin_key = self.argvs[i % self.cycle]
        flags = ["-X", "importtime"] if self.traced else []
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "anop.cli", *argv],
            input=self.stdin_docs[stdin_key], capture_output=True, text=True,
            cwd=ROOT, env=child_env(), timeout=self.SPAWN_TIMEOUT_S)
        if self.traced:
            self.imports.append(parse_importtime(proc.stderr))
            self.nonzero_exits += proc.returncode != 0
        return proc.returncode, proc.stdout

    def layer_metrics(self, latencies, failures) -> dict:
        """Per-spawn cli metrics of the traced ops."""
        n = len(latencies)
        out = {f"cli.import.{key}": sum(r[key] for r in self.imports) / n
               for key in ("numpy_s", "anop_s", "anop_matrix_self_s")}
        out["cli.spawn.wall_s"] = sum(latencies) / n
        out["cli.exit_nonzero"] = self.nonzero_exits / n
        out["cli.errors"] = len(failures) / n
        return out

    def check(self, i: int, output) -> list[str]:
        argv, stdin_key = self.argvs[i % self.cycle]
        code, stdout = output
        key = (tuple(argv), stdin_key)
        if key not in self.expected:
            self.expected[key] = self._in_process(argv, self.stdin_docs[stdin_key])
        want_code, want_out = self.expected[key]
        problems = []
        if code != 0 or want_code != 0:
            problems.append(f"exit code {code} (in-process {want_code}, want 0)")
        if stdout != want_out:
            problems.append("stdout differs from in-process execute")
        golden = GOLDEN_CASES.get(tuple(argv))
        if golden and stdout != (GOLDEN / golden).read_text():
            problems.append(f"stdout differs from golden {golden}")
        if argv[0] == "fuzz" and want_code == 0 and json.loads(want_out)["result"]["disagreements"]:
            problems.append("fuzz found classifier/oracle disagreements")
        return problems


WORKLOADS = {w.name: w for w in (Spectral, Verify, Realize, Cli)}


def make(name: str, seed: int, tiny: bool = False):
    return WORKLOADS[name](seed, tiny)

