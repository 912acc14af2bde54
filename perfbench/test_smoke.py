"""Smoke test of the benchmark: every workload at tiny size, traced and
untraced, checked against BENCHMARK.json and the metric names the
benchmark's documentation promises.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TIMEOUT_S = 170

END_TO_END = {"ops_per_s": "op/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
              "setup_s": "s", "peak_rss_mb": "MiB", "error_rate": "ratio"}
PER_LAYER = [
    "matrix.hermitian_eigen.calls", "matrix.hermitian_eigen.self_s",
    "matrix.hermitian_eigen.sweeps", "matrix.hermitian_eigen.self_s.n16",
    "matrix.hermitian_eigen.self_s.n32", "matrix.hermitian_eigen.self_s.n64",
    "matrix.verify_structure.eigensolves_per_call",
    "matrix.seeded_unitary.calls", "matrix.seeded_unitary.self_s",
    "matrix.realize_matrix.self_s", "matrix.verify_structure.self_s",
    "matrix.converse_witness.self_s", "matrix.block_form.self_s",
    "matrix.inverse_via_blocks.self_s",
    "serialize.load.self_s", "serialize.parse.self_s", "serialize.payload.self_s",
    "serialize.matrix_payload.self_s", "serialize.emit.self_s", "serialize.emit.bytes",
    "model.normalize_model.calls", "model.normalize_model.self_s",
    "model.classify.self_s", "model.modulus_spectrum.self_s", "model.moduli_report.self_s",
    "sequences.terms.calls", "sequences.terms.self_s",
    "sequences.merge_sequences.calls", "sequences.merge_sequences.self_s",
    "decompose.decompose_positive.self_s", "decompose.structure.self_s",
    "decompose.transforms.self_s",
    "oracle.attainment_oracle.calls", "oracle.attainment_oracle.self_s",
    "oracle.subsets_checked", "oracle.pairs_checked",
    "cli.spawn.wall_s", "cli.import.numpy_s", "cli.import.anop_s",
    "cli.import.anop_matrix_self_s", "cli.exit_nonzero",
    *(f"{layer}.errors" for layer in
      ("sequences", "model", "decompose", "oracle", "matrix", "serialize", "cli")),
    "trace.overhead",
]
META_KEYS = {"nproc", "cpu", "python", "numpy", "blas", "blas_threads",
             "thread_env", "eigensolver", "commit", "seed", "ops", "workload"}


def bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()

    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    assert result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared

    printed = {}
    for line in lines:
        if line.startswith("metric "):
            _, name, _, _, unit = line.split()[:5]
            printed[name] = unit
    assert printed["error_rate"] == "ratio"
    for name, unit in declared.items():
        assert printed[name] == unit
    if trace:
        assert set(PER_LAYER) <= set(printed)
    else:
        assert {k: printed[k] for k in END_TO_END} == END_TO_END

    meta = json.loads(next(line for line in lines if line.startswith("meta "))[5:])
    assert META_KEYS <= set(meta)
    assert meta["thread_env"]["OPENBLAS_NUM_THREADS"] == "1"
    assert meta["ops"] == result["attempted"]


def test_layer_split_holds_at_tiny_size():
    """The traced run confirms the split each workload was chosen for."""
    layer = {}
    for workload in ("spectral", "verify", "realize"):
        proc = bench(workload, 1)
        assert proc.returncode == 0, proc.stderr
        layer[workload] = {k: v["value"] for k, v in
                           json.loads(proc.stdout.strip().splitlines()[-1])["metrics"].items()}
    assert layer["spectral"]["matrix.hermitian_eigen.calls"] == 0
    assert layer["spectral"]["matrix.seeded_unitary.calls"] == 0
    assert layer["realize"]["matrix.hermitian_eigen.calls"] == 0
    verify = layer["verify"]
    assert verify["matrix.hermitian_eigen.self_s"] > 0.5 * verify["trace.op_s"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("spectral", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
