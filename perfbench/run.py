"""Repository benchmark: run one workload with one seed and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload corpus --seed 0 --seconds 24 --trace 0

Workloads (see ``workloads.py`` and ``README.md`` in this directory):
``corpus`` (simulate + featurise), ``train`` (fit + evaluate) and
``serve`` (closed- and open-loop fleet serving).

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` measures the workload once untraced and once with spans
recorded around the public callables of every layer, and prints the
per-layer metrics.  The last line of standard output is always one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
lines before it carry provenance, the check results and ``failed_frac``.

The program under test is built from ``src/`` next to this directory;
the run exits with status 2 when it is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREADS = 1
"""BLAS threads for the one load-generating process (<= nproc)."""

_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def pin_blas_threads(n: int) -> int:
    """Set every BLAS thread variable; only effective before numpy loads."""
    n = max(1, min(int(n), os.cpu_count() or 1))
    for var in _THREAD_VARS:
        os.environ[var] = str(n)
    return n


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    """The command line of the benchmark."""
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("corpus", "train", "serve"))
    parser.add_argument("--seed", type=int, default=0, help="workload seed")
    parser.add_argument("--seconds", type=float, default=24.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--trace-out", type=Path, default=None,
        help="write every recorded span as JSON here (traced runs only)",
    )
    parser.add_argument(
        "--smoke", action="store_true", help="tiny sizes, for the benchmark's own tests"
    )
    return parser.parse_args(argv)


def _git(*args: str) -> str | None:
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), *args],
            capture_output=True, text=True, timeout=20, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest() -> str:
    """sha256 over every ``src/**/*.py`` path and content, sorted."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(seed: int, threads: int) -> dict:
    """Where the numbers come from: code, libraries, machine, seed."""
    import numpy as np

    # Only a checkout whose root is a git work tree; never a parent repo.
    sha = _git("rev-parse", "HEAD") if (ROOT / ".git").exists() else None
    status = _git("status", "--porcelain", "--untracked-files=no") if sha else None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas_build = "unknown"
    return {
        "git_sha": sha,
        "git_dirty": bool(status) if sha else None,
        "src_sha256": source_digest(),
        "numpy": np.__version__,
        "blas": blas_build,
        "blas_threads": threads,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "seed": seed,
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process (``ru_maxrss`` is KiB on Linux)."""
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(args: argparse.Namespace, threads: int) -> dict:
    """Set up (several times), measure, and collect every metric."""
    import workloads
    from spans import (
        SpanRecorder,
        instrument,
        layer_metrics,
        layer_targets,
        leftover_wrappers,
    )

    scale = workloads.SMOKE if args.smoke else workloads.FULL
    cls = workloads.WORKLOADS[args.workload]
    meter = workloads.ReferenceMeter()
    setup_s = []
    for _ in range(scale.setup_repeats):
        meter.sample(3)
        bench = cls(args.seed, scale)
        t0 = time.perf_counter()
        bench.setup()
        setup_s.append(time.perf_counter() - t0)
    outcome = bench.measure(args.seconds, nullcontext, meter)
    # Throughput and set-up time at the nominal reference speed (see
    # ReferenceMeter); latency stays raw.
    speedup = workloads.ReferenceMeter.NOMINAL_OPS_PER_S / outcome.ref_speed
    result = {
        "provenance": provenance(args.seed, threads),
        "setup_runs_s": setup_s,
        "end_to_end": {
            "calibrated_throughput_per_s": outcome.throughput_per_s * speedup,
            "latency_p50_ms": outcome.latency_p50_ms,
            "setup_s": statistics.median(setup_s) / speedup,
            "peak_rss_mb": peak_rss_mb(),
        },
        "raw": {
            "throughput_per_s": outcome.throughput_per_s,
            "setup_s": statistics.median(setup_s),
            "ref_ops_per_s": outcome.ref_speed,
        },
        "phase": dict(outcome.phase),
        "checks": dict(outcome.checks),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
    }
    if args.trace:
        recorder = SpanRecorder()
        targets = layer_targets()
        traced = bench.measure(
            args.seconds, lambda: instrument(recorder, targets), workloads.ReferenceMeter()
        )
        layers = layer_metrics(recorder, getattr(bench, "lanes", 0))
        layers.update(traced.loadgen)
        layers["trace.measured_ms"] = traced.measured_s * 1e3
        layers["machine.ref_ops_per_s"] = outcome.ref_speed
        layers["trace.overhead_frac"] = 1.0 - (
            traced.throughput_per_s / traced.ref_speed
        ) / (outcome.throughput_per_s / outcome.ref_speed)
        result["layers"] = layers
        result["attempted"] += traced.attempted
        result["failed"] += traced.failed
        result["checks"].update(
            {f"traced.{name}": ok for name, ok in traced.checks.items()}
        )
        result["checks"]["trace.wrappers_restored"] = not leftover_wrappers(targets)
        if args.trace_out is not None:
            args.trace_out.write_text(json.dumps({"spans": recorder.export()}) + "\n")
    result["failed_frac"] = result["failed"] / max(result["attempted"], 1)
    return result


def final_metrics(result: dict, spec: dict, traced: bool) -> dict:
    """The metric set ``BENCHMARK.json`` declares for this kind of run."""
    if traced:
        values = dict(result["layers"])
        values.update(result["phase"])
        values["failed_frac"] = result["failed_frac"]
        declared = spec["per_layer"]
    else:
        values = result["end_to_end"]
        declared = spec["end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise RuntimeError(f"metrics declared but not measured: {missing}")
    return {
        m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in declared
    }


def main(argv: list[str] | None = None) -> int:
    """Run one workload; print the report lines and the result line."""
    args = parse_args(argv)
    threads = pin_blas_threads(BLAS_THREADS)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    for path in (str(HERE), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    result = run(args, threads)
    metrics = final_metrics(result, spec, bool(args.trace))
    correct = result["failed"] == 0 and all(result["checks"].values())
    out = sys.stdout
    out.write(f"perfbench workload={args.workload} seed={args.seed} "
              f"seconds={args.seconds:g} trace={args.trace}\n")
    out.write("provenance " + json.dumps(result["provenance"], sort_keys=True) + "\n")
    out.write("checks " + json.dumps(result["checks"], sort_keys=True) + "\n")
    out.write(f"failed_frac {result['failed_frac']:.6g} "
              f"({result['failed']}/{result['attempted']})\n")
    out.write("setup_runs_s " + json.dumps(result["setup_runs_s"]) + "\n")
    out.write("raw " + json.dumps(result["raw"], sort_keys=True) + "\n")
    for name, value in sorted(result["phase"].items()):
        if value:
            out.write(f"phase {name} {value:.6g}\n")
    for name, entry in metrics.items():
        out.write(f"metric {name} {entry['value']:.6g} {entry['unit']}\n")
    out.write(json.dumps({
        "correct": bool(correct),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }) + "\n")
    out.flush()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
