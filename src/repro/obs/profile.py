"""Profiling harness: per-stage latency percentiles for the M²AI path.

Run as a module::

    PYTHONPATH=src python -m repro.obs.profile --quick

The harness builds a small but complete workload — simulated reader
inventory, phase calibration, a trained 2-class pipeline, a continuous
wave-then-walk stream — enables the observability layer, exercises the
instrumented ingest→DSP→inference path, and writes
``BENCH_obs_realtime.json``: p50/p95/p99 wall-clock latency for every
instrumented stage plus a real-time margin for the end-to-end window.

The required stage set (hub merge, calibration, MUSIC, periodogram,
network forward, fused LSTM, end-to-end window, supervised runtime
window) is asserted before the artifact is written, so a refactor that
silently drops an instrumentation point fails the benchmark job
instead of producing a hollow artifact.

The float32 serve pack's accuracy-parity gate runs inside the measured
block: decisions on the eval set must match float64 exactly before the
streaming stages are measured through it.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

REQUIRED_STAGES = (
    "hub.merge",
    "dsp.calibration.fit",
    "dsp.music.batch",
    "dsp.periodogram.batch",
    "nn.forward",
    "nn.fused",
    "streaming.window",
    "runtime.window",
)
"""Stages the artifact must cover for the benchmark to count.

``dsp.music.batch`` / ``dsp.periodogram.batch`` are the stacked DSP
kernels the featurisation path runs.  ``nn.fused`` is the fused-GEMM
LSTM inner stage — its presence proves the recurrent fast path (not a
fallback) served the measured windows.
"""

_WINDOW_S = 4.0
_SLOT_S = 0.025


def build_workload(quick: bool, seed: int):
    """Train a small 2-class pipeline and build a continuous stream.

    Mirrors the tier-1 streaming test setup (laboratory room, 3 tags on
    hand/arm/shoulder, wave vs. walk) so the profiled path is exactly
    the one the tests pin down.

    Returns:
        ``(pipeline, calibrator, stream, calibration_log, window_logs)``
        where ``window_logs`` are single-window logs used to exercise
        the featurise + hub-merge stages directly.
    """
    from repro.core import ActivityDataset, M2AIConfig, M2AIPipeline
    from repro.dsp.calibration import PhaseCalibrator
    from repro.dsp.features import M2AIFeaturizer
    from repro.geometry import Vec2, make_laboratory
    from repro.hardware import (
        Reader,
        ReaderConfig,
        Scene,
        TagTrack,
        UniformLinearArray,
        concatenate_logs,
        make_tag,
    )
    from repro.motion import get_primitive, perform

    room = make_laboratory()
    array = UniformLinearArray(center=Vec2(room.bounds.width / 2.0, 0.3))
    reader = Reader(ReaderConfig(array=array), room, seed=seed)
    rng = np.random.default_rng(seed + 1)
    anchor = Vec2(room.bounds.width / 2.0 + 0.8, 4.0)
    tags = [make_tag(f"P{i}", rng) for i in range(3)]

    def scene_for(primitive_name: str, t_offset: float, duration: float) -> Scene:
        n_slots = int(round(duration / _SLOT_S))
        t = t_offset + (np.arange(n_slots) + 0.5) * _SLOT_S
        motion = perform(get_primitive(primitive_name), anchor, t, rng, facing=np.pi / 2)
        tracks = tuple(
            TagTrack(tag=tags[i], positions=motion.tag_position(site), carrier=0)
            for i, site in enumerate(("hand", "arm", "shoulder"))
        )
        return Scene(tag_tracks=tracks, bodies=(motion.body_track(),))

    calibration_s = 10.0 if quick else 20.0
    calibration_log = reader.inventory(
        scene_for("stand_still", 0.0, calibration_s), calibration_s
    )
    calibrator = PhaseCalibrator.fit(calibration_log)

    featurizer = M2AIFeaturizer()
    n_frames = int(round(_WINDOW_S / reader.hopper.dwell_s))
    reps = 3 if quick else 6
    samples, labels, window_logs = [], [], []
    for label, primitive in (("wave", "wave_hand"), ("walk", "walk_line")):
        for _rep in range(reps):
            log = reader.inventory(scene_for(primitive, 0.0, _WINDOW_S), _WINDOW_S)
            psi = calibrator.calibrate(log)
            samples.append(featurizer.transform(log, psi, n_frames=n_frames, label=label))
            labels.append(label)
            if len(window_logs) < 2:
                window_logs.append(log)
    dataset = ActivityDataset(samples=samples, labels=labels)
    epochs = 8 if quick else 15
    pipeline = M2AIPipeline(
        M2AIConfig(epochs=epochs, batch_size=6, warmup_frames=2, seed=seed)
    ).fit(dataset)

    n_windows = 2 if quick else 4
    parts = []
    for w in range(n_windows):
        primitive = "wave_hand" if w % 2 == 0 else "walk_line"
        parts.append(
            reader.inventory(
                scene_for(primitive, w * _WINDOW_S, _WINDOW_S),
                _WINDOW_S,
                t0=w * _WINDOW_S,
            )
        )
    stream = concatenate_logs(parts)
    return pipeline, calibrator, stream, calibration_log, window_logs, dataset


def run_nn_stage(pipeline, dataset, repeat: int) -> dict:
    """The ``nn`` stage: float64-vs-float32 serve timing.

    The full-model ``predict_proba`` is timed at training precision and
    through the cast-once float32 serve pack (installed via the
    accuracy-parity gate, which must accept).  The pack is left
    installed, so stages profiled after this one serve float32.

    Returns:
        The ``"nn"`` section of the benchmark document.

    Raises:
        repro.core.pipeline.ServeParityError: when the float32 pack
            changes any decision on the eval set.
    """
    n_windows = len(dataset.labels)
    loops = max(repeat, 2)
    pipeline.set_serve_dtype("float64")
    pipeline.predict_proba(dataset)  # warm
    t0 = time.perf_counter()
    for _ in range(loops):
        pipeline.predict_proba(dataset)
    float64_ms = (time.perf_counter() - t0) * 1000.0 / loops
    parity_report = pipeline.set_serve_dtype("float32", parity=dataset)
    pipeline.predict_proba(dataset)  # warm
    t0 = time.perf_counter()
    for _ in range(loops):
        pipeline.predict_proba(dataset)
    float32_ms = (time.perf_counter() - t0) * 1000.0 / loops

    return {
        "serve": {
            "windows": int(n_windows),
            "float64_ms": float64_ms,
            "float32_ms": float32_ms,
            "speedup_x": float64_ms / max(float32_ms, 1e-9),
            "float64_per_window_ms": float64_ms / max(n_windows, 1),
            "float32_per_window_ms": float32_ms / max(n_windows, 1),
            "parity_gate": parity_report,
        },
    }


def run_profile(quick: bool = True, seed: int = 0, repeat: int | None = None) -> dict:
    """Execute the instrumented workload and aggregate stage latencies.

    Args:
        quick: smaller workload (CI-sized; a couple of minutes on CPU).
        seed: workload seed.
        repeat: measured iterations per stage driver (defaults to 2
            quick / 5 full).

    Returns:
        The benchmark document (also the JSON artifact's content).

    Raises:
        RuntimeError: when a required stage produced no spans — i.e.
            an instrumentation point was lost.
    """
    from repro import obs
    from repro.dsp.calibration import PhaseCalibrator
    from repro.dsp.features import M2AIFeaturizer
    from repro.dsp.music import steering_cache_info
    from repro.hardware.hub import merge_hub_features

    if repeat is None:
        repeat = 2 if quick else 5

    t_setup = time.perf_counter()
    pipeline, calibrator, stream, calibration_log, window_logs, dataset = (
        build_workload(quick, seed)
    )
    setup_s = time.perf_counter() - t_setup

    from repro.core.streaming import StreamingIdentifier

    identifier = StreamingIdentifier(pipeline, calibrator=calibrator, window_s=_WINDOW_S)

    featurizer = M2AIFeaturizer()
    per_view = []
    for log in window_logs:
        psi = calibrator.calibrate(log)
        per_view.append(featurizer.transform(log, psi))

    obs.enable()
    obs.reset()
    t_measure = time.perf_counter()
    try:
        for _ in range(repeat):
            PhaseCalibrator.fit(calibration_log)
        # The nn stage runs first: it installs the float32 serve pack
        # (parity-gated), so the streaming/runtime stages below measure
        # the production serve path, not the training-precision one.
        nn_doc = run_nn_stage(pipeline, dataset, repeat=max(repeat, 2))
        identifier.serve_dtype = "float32"
        for _ in range(repeat):
            identifier.identify(stream)
        from repro.runtime import PipelineSupervisor

        supervisor = PipelineSupervisor(identifier)
        for _ in range(repeat):
            supervisor.process(stream)
        supervisor_health = supervisor.health().as_dict()
        for _ in range(max(repeat * 10, 20)):
            merge_hub_features(list(per_view))
        measure_s = time.perf_counter() - t_measure
        durations = obs.get_collector().durations_by_name()
        metrics_doc = json.loads(obs.get_registry().to_json())
    finally:
        obs.disable()

    missing = [name for name in REQUIRED_STAGES if not durations.get(name)]
    if missing:
        raise RuntimeError(f"required stages produced no spans: {missing}")

    stages = {}
    for name, values in sorted(durations.items()):
        arr = np.asarray(values, dtype=np.float64)
        stages[name] = {
            "count": int(arr.size),
            "p50_ms": float(np.percentile(arr, 50)),
            "p95_ms": float(np.percentile(arr, 95)),
            "p99_ms": float(np.percentile(arr, 99)),
            "mean_ms": float(arr.mean()),
            "total_ms": float(arr.sum()),
        }

    window_p95_ms = stages["streaming.window"]["p95_ms"]
    # Inference is batched across windows now, so the honest per-window
    # cost is the whole identify pass amortised over its windows.
    identify_per_window_ms = stages["streaming.identify"]["total_ms"] / max(
        stages["streaming.window"]["count"], 1
    )
    # streaming.predict spans cover only batched inference calls; their
    # window counts live in the serve section of the nn stage, so the
    # per-window predict cost amortises the span total over the same
    # denominator as identify.
    predict_per_window_ms = stages.get("streaming.predict", {}).get(
        "total_ms", 0.0
    ) / max(stages["streaming.window"]["count"], 1)
    doc = {
        "schema": "repro.obs.bench.v1",
        "quick": bool(quick),
        "seed": int(seed),
        "repeat": int(repeat),
        "setup_s": round(setup_s, 3),
        "measure_s": round(measure_s, 3),
        "required_stages": list(REQUIRED_STAGES),
        "stages": stages,
        "realtime": {
            "window_s": _WINDOW_S,
            "window_p95_ms": window_p95_ms,
            "margin_x": float(_WINDOW_S * 1000.0 / max(window_p95_ms, 1e-9)),
            "identify_per_window_ms": identify_per_window_ms,
            "identify_margin_x": float(
                _WINDOW_S * 1000.0 / max(identify_per_window_ms, 1e-9)
            ),
            "predict_per_window_ms": predict_per_window_ms,
            "serve_dtype": pipeline.serve_dtype,
        },
        "steering_cache": steering_cache_info(),
        "nn": nn_doc,
        "runtime": {
            "supervised_window_p95_ms": stages["runtime.window"]["p95_ms"],
            "health": supervisor_health,
        },
        "metrics": metrics_doc,
    }
    return doc


def main(argv: list[str] | None = None) -> int:
    """CLI entry point: run the profile and write the JSON artifact."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.profile",
        description="Profile the instrumented ingest→DSP→inference path.",
    )
    parser.add_argument(
        "--quick", action="store_true", help="CI-sized workload (smaller, faster)"
    )
    parser.add_argument("--seed", type=int, default=0, help="workload seed")
    parser.add_argument(
        "--repeat", type=int, default=None, help="measured iterations per driver"
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=Path("BENCH_obs_realtime.json"),
        help="artifact path (default: BENCH_obs_realtime.json)",
    )
    args = parser.parse_args(argv)

    doc = run_profile(quick=args.quick, seed=args.seed, repeat=args.repeat)
    args.out.write_text(json.dumps(doc, indent=2, sort_keys=False) + "\n")

    out = sys.stdout.write
    out(f"wrote {args.out}\n")
    out(f"{'stage':<28}{'count':>7}{'p50 ms':>10}{'p95 ms':>10}{'p99 ms':>10}\n")
    for name, st in doc["stages"].items():
        out(
            f"{name:<28}{st['count']:>7}{st['p50_ms']:>10.3f}"
            f"{st['p95_ms']:>10.3f}{st['p99_ms']:>10.3f}\n"
        )
    rt = doc["realtime"]
    out(
        f"real-time margin: {rt['margin_x']:.1f}x "
        f"(p95 window {rt['window_p95_ms']:.0f} ms vs {rt['window_s']:.0f} s budget)\n"
    )
    out(
        f"identify per window: {rt['identify_per_window_ms']:.2f} ms "
        f"({rt['identify_margin_x']:.1f}x real time, inference batched)\n"
    )
    out(
        f"predict per window: {rt['predict_per_window_ms']:.3f} ms "
        f"(serve_dtype={rt['serve_dtype']})\n"
    )
    nn = doc["nn"]
    serve = nn["serve"]
    out(
        f"nn serve: {serve['float64_ms']:.2f} ms float64 vs "
        f"{serve['float32_ms']:.2f} ms float32 over {serve['windows']} windows "
        f"({serve['speedup_x']:.1f}x, parity gate "
        f"{'accepted' if serve['parity_gate']['accepted'] else 'REJECTED'})\n"
    )
    runtime = doc["runtime"]
    out(
        f"supervised window p95: {runtime['supervised_window_p95_ms']:.2f} ms, "
        f"health={runtime['health']['state']}\n"
    )
    cache = doc["steering_cache"]
    out(f"steering cache: {cache['size']}/{cache['maxsize']} entries\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
