#!/usr/bin/env python3
"""anop benchmark: one closed-loop workload per run.

    python3 perfbench/run.py --workload spectral --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the benchmark imports anop from
``src/`` of that checkout and exits non-zero without a result when it is
missing.  With ``--trace 0`` it prints every end-to-end metric; with
``--trace 1`` it replays the same ops under the span recorder and prints
every per-layer metric.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  See README.md.
"""

import os
import sys

# Pin BLAS/OpenMP to one thread before numpy loads, here and in every child.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOAD_NAMES = ("spectral", "verify", "realize", "cli")
SETUP_PROBES = 4          # extra set-ups in fresh processes; setup_s is the median
PROBE_TIMEOUT_S = 120

# Times are reported at a reference speed: scaled by PROBE_REF_S over the
# run's median speed-probe time.  The CPU speed of a small shared machine
# drifts by 15-25% between runs; the scaling cancels that drift.
PROBE_LOOP = 15000
PROBE_REF_S = 1e-3
PROBE_EVERY_S = 0.05

END_TO_END = [
    ("ops_per_s", "op/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0,
                   help="timed op time to accumulate")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="smallest input sizes, for the smoke test")
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def set_up(args):
    """Import anop, build the seeded inputs and run one warm-up op.
    Returns the workload, the workloads module and the seconds it took."""
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import workloads
    import anop
    if Path(anop.__file__).resolve().parent != SRC / "anop":
        raise SystemExit(f"anop imported from {anop.__file__}, not from {SRC}")
    w = workloads.make(args.workload, args.seed, args.tiny)
    problems = w.check(0, w.op(0))
    elapsed = time.perf_counter() - start
    if problems:
        raise SystemExit(f"warm-up op failed: {problems}")
    return w, workloads, elapsed


def speed_probe():
    """Seconds for a fixed pure-Python loop: the machine's current speed."""
    start = time.perf_counter()
    total = 0
    for k in range(PROBE_LOOP):
        total += k * k
    return time.perf_counter() - start


def closed_loop(w, seconds=None, count=None, recorder=None):
    """Run ops 0, 1, ... one at a time until ``seconds`` of op time have
    accumulated and the workload's cycle is complete (or ``count`` ops ran).
    Ending on a whole cycle keeps the op mix the same in every run.  Each
    output is checked outside its timed interval, and the speed probe runs
    between ops at least every PROBE_EVERY_S of op time.
    Returns (latencies, failures, probe times)."""
    latencies, failures, probes = [], [], []
    spent, since_probe, i = 0.0, PROBE_EVERY_S, 0
    while (spent < seconds or i % w.cycle) if count is None else (i < count):
        if since_probe >= PROBE_EVERY_S:
            probes.append(speed_probe())
            since_probe = 0.0
        if recorder:
            recorder.begin_op(i)
        start = time.perf_counter()
        try:
            output, error = w.op(i), None
        except Exception:   # an op that raises is a failed op; keep measuring
            output, error = None, traceback.format_exc(limit=3).strip().splitlines()[-1]
        elapsed = time.perf_counter() - start
        if recorder:
            recorder.end_op()
        latencies.append(elapsed)
        spent += elapsed
        since_probe += elapsed
        problems = [error] if error else w.check(i, output)
        if problems:
            failures.append((i, problems))
        i += 1
    return latencies, failures, probes


def tail(latencies, cycle):
    """Median of the slowest 1/cycle of the ops, near percentile
    100 * (1 - 1 / (2 * cycle)).  A run is whole cycles, so this falls on
    the same op of the cycle whatever the op count.
    Returns (seconds, description)."""
    n = len(latencies)
    slowest = sorted(latencies)[-max(1, n // cycle):]
    pct = 100.0 * (1 - 1 / (2 * cycle))
    return statistics.median(slowest), f"median of the slowest {len(slowest)} of {n} ops, ~p{pct:.1f}"


def probe_setups(args):
    """Set-up times of fresh processes doing the same set-up."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        cmd.append("--tiny")
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise SystemExit(f"set-up probe failed: {proc.stderr.strip()}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def blas_threads():
    """Thread count reported by the OpenBLAS numpy loaded, if it is one."""
    import ctypes
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def source_digest():
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def machine_record(args, ops):
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "ops": ops,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "thread_env": {v: os.environ[v] for v in THREAD_VARS},
        "eigensolver": "numba" if importlib.util.find_spec("numba") else "python-fallback",
        "commit": commit(),
        "src_sha256": source_digest(),
    }


def report_failures(args, failures, limit=20):
    for i, problems in failures[:limit]:
        print(f"FAIL workload={args.workload} seed={args.seed} op={i}: "
              + "; ".join(problems))
    if len(failures) > limit:
        print(f"FAIL ... {len(failures) - limit} more")


def print_metric(name, value, unit, note=""):
    print(f"metric {name} = {value!r} {unit}" + (f"  ({note})" if note else ""))


def untraced_run(args, w, setup_s):
    latencies, failures, probes = closed_loop(w, seconds=args.seconds)
    usage = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(usage).ru_maxrss / 1024.0
    setups = [setup_s] + probe_setups(args)
    n, total = len(latencies), sum(latencies)
    probe_s = statistics.median(probes)
    scale = PROBE_REF_S / probe_s
    tail_s, tail_label = tail(latencies, w.cycle)
    raw = {
        "ops_per_s": n / total,
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_tail_ms": tail_s * 1e3,
        "setup_s": statistics.median(setups),
    }
    metrics = {name: value * scale for name, value in raw.items()}
    metrics["ops_per_s"] = raw["ops_per_s"] / scale
    metrics["peak_rss_mb"] = peak_rss_mb
    notes = {name: f"measured {value:.6g}" for name, value in raw.items()}
    notes["ops_per_s"] += f"; {n} ops in {total:.3f} s of op time"
    notes["op_tail_ms"] += f"; {tail_label}"
    notes["setup_s"] += (f"; median of {len(setups)} set-ups: "
                         + ", ".join(f"{v:.3f}" for v in setups))
    notes["peak_rss_mb"] = "largest child" if args.workload == "cli" else "this process"
    print(f"speed probe: median {probe_s * 1e3:.4f} ms over {len(probes)} probes; "
          f"times are scaled by {scale:.4f} to the {PROBE_REF_S * 1e3:g} ms reference")
    return latencies, failures, metrics, notes


def traced_run(args, w, workloads):
    """Untraced ops for half the time, then the same ops replayed under the
    span recorder; the ratio of the two op times is the trace overhead."""
    import tracer
    plain, failures, _ = closed_loop(w, seconds=args.seconds / 2)
    n = len(plain)
    rec = tracer.Recorder()
    rec.install(extra_modules=[workloads])
    if args.workload == "cli":
        w.traced = True
    if args.workload == "spectral":
        w.flips.clear()      # count the replay's flips only
    try:
        traced, traced_failures, _ = closed_loop(w, count=n, recorder=rec)
    finally:
        rec.uninstall()
    failures += traced_failures
    values = {name: 0.0 for name, _ in tracer.PER_LAYER}
    values.update(rec.metrics(n))
    values["trace.op_s"] = sum(traced) / n
    values["trace.untraced_op_s"] = sum(plain) / n
    values["trace.overhead"] = sum(traced) / sum(plain) - 1.0
    values["model.scale_flips"] = len(getattr(w, "flips", ())) / n
    if args.workload == "cli":
        values.update(w.layer_metrics(traced, traced_failures))
    rec.write_spans(HERE / "out" / f"spans-{args.workload}.txt")
    metrics = {name: values[name] for name, _ in tracer.PER_LAYER}
    return plain + traced, failures, metrics, dict(tracer.PER_LAYER), rec, n


def print_shares(rec, ops):
    """Self-time shares of the traced groups, largest first; "untraced" is
    op time spent outside every traced call (for cli, the whole child)."""
    own_times = {g: t for g, t in rec.self_s.items() if t > 0}
    own_times["untraced"] = rec.untraced_s
    total = sum(own_times.values())
    for group, own in sorted(own_times.items(), key=lambda kv: -kv[1])[:8]:
        print(f"share {group} = {own / total:.3f} of traced self time "
              f"({own / ops * 1e3:.3f} ms/op)")


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "anop" / "__init__.py").is_file():
        print(f"perfbench: no anop sources at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    w, workloads, setup_s = set_up(args)
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    print(f"# anop benchmark: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} closed loop, 1 caller")
    if args.trace:
        latencies, failures, metrics, units, rec, replayed = traced_run(args, w, workloads)
        notes = {}
    else:
        latencies, failures, metrics, notes = untraced_run(args, w, setup_s)
        units = dict(END_TO_END)

    attempted = len(latencies)
    print("meta " + json.dumps(machine_record(args, attempted), sort_keys=True))
    report_failures(args, failures)
    flips = getattr(w, "flips", {})
    if flips:
        print(f"known defect: {len(flips)} rescaled documents flipped "
              f"(scale invariance, merge tolerance); first: "
              f"op={min(flips)} {flips[min(flips)]}")
    print_metric("error_rate", len(failures) / attempted, "ratio",
                 f"{len(failures)} failed of {attempted} attempted")
    for name, value in metrics.items():
        print_metric(name, value, units[name], notes.get(name, ""))
    if args.trace:
        print(f"trace: {replayed} ops replayed; spans in "
              f"{(HERE / 'out').relative_to(ROOT)}/spans-{args.workload}.txt")
        print_shares(rec, replayed)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
