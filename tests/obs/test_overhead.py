"""The instrumented serve path: every stage span fires, disabled is near-free.

The enabled test drives the same calls a served session makes
(calibration fit, the float32 serve pack's parity gate, ``identify``,
the supervised runtime, the hub merge) and asserts that each in-source
stage span fires, that the float32 pack is accepted and that identify
keeps up with the window it serves.

The overhead test is deterministic rather than an A/B wall-clock
comparison (noisy on shared CI runners): count how many spans one
``identify`` call actually opens, measure the disabled-path cost of a
single span and a single counter-facade call in a tight loop, and
check that the implied total is under 2% of the measured identify wall
time.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro import obs
from repro.core.streaming import StreamingIdentifier
from repro.obs.metrics import counter
from repro.obs.tracing import span

STAGE_SPANS = (
    "hub.merge",
    "dsp.calibration.fit",
    "dsp.music.batch",
    "dsp.periodogram.batch",
    "nn.forward",
    "nn.fused",
    "streaming.window",
    "runtime.window",
)
"""In-source spans the serve path must open; a missing one means an
instrumentation point was lost in a refactor."""

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


@pytest.fixture(scope="module")
def workload():
    """Quick workload: trained pipeline + 2-window stream."""
    return build_workload(quick=True, seed=11)


def _identify_wall_s(identifier, stream, repeats: int = 3) -> float:
    """Median identify wall time with instrumentation disabled."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        identifier.identify(stream)
        times.append(time.perf_counter() - t0)
    times.sort()
    return times[len(times) // 2]


def test_enabled_identify_produces_span_tree_and_metrics(workload):
    from repro.dsp.calibration import PhaseCalibrator
    from repro.dsp.features import M2AIFeaturizer
    from repro.hardware.hub import merge_hub_features
    from repro.runtime import PipelineSupervisor

    pipeline, calibrator, stream, calibration_log, window_logs, dataset = workload
    featurizer = M2AIFeaturizer()
    per_view = [
        featurizer.transform(log, calibrator.calibrate(log)) for log in window_logs
    ]
    obs.enable()
    try:
        PhaseCalibrator.fit(calibration_log)
        report = pipeline.set_serve_dtype("float32", parity=dataset)
        assert report["accepted"] is True
        identifier = StreamingIdentifier(
            pipeline, calibrator=calibrator, window_s=_WINDOW_S, serve_dtype="float32"
        )
        t0 = time.perf_counter()
        decisions = identifier.identify(stream)
        identify_s = time.perf_counter() - t0
        PipelineSupervisor(identifier).process(stream)
        merge_hub_features(per_view)
    finally:
        pipeline.set_serve_dtype("float64")

    assert len(decisions) == 2
    assert identify_s / len(decisions) < _WINDOW_S, "identify slower than real time"
    roots = obs.get_collector().snapshot()
    names = {s.name for s in obs.walk_spans(roots)}
    missing = [name for name in STAGE_SPANS if name not in names]
    assert not missing, f"stage spans never opened: {missing}"
    assert "streaming.identify" in names
    metrics = {m.name: m for m in obs.get_registry().collect()}
    # identify and the supervised pass serve the 2-window stream once each.
    assert metrics["streaming.windows_total"].value == 4.0
    assert "streaming.window.latency_ms" in metrics


def test_disabled_overhead_under_two_percent(workload):
    pipeline, calibrator, stream = workload[:3]
    identifier = StreamingIdentifier(
        pipeline, calibrator=calibrator, window_s=_WINDOW_S
    )

    # How many spans does one identify call actually open?
    obs.enable()
    obs.reset()
    identifier.identify(stream)
    n_spans = sum(1 for _ in obs.walk_spans(obs.get_collector().drain()))
    obs.disable()
    obs.reset()
    assert n_spans > 0

    # Disabled-path unit costs, amortised over a tight loop.
    n_iter = 50_000
    t0 = time.perf_counter()
    for _ in range(n_iter):
        with span("overhead.probe"):
            pass
    span_cost_s = (time.perf_counter() - t0) / n_iter
    t0 = time.perf_counter()
    for _ in range(n_iter):
        counter("overhead.probe_total").inc()
    counter_cost_s = (time.perf_counter() - t0) / n_iter
    assert obs.get_collector().snapshot() == []  # probes were no-ops

    identify_s = _identify_wall_s(identifier, stream)

    # Counter facade calls are far rarer than spans (per window/decision,
    # not per frame); 2 per span is a generous ceiling.
    implied_overhead_s = n_spans * (span_cost_s + 2.0 * counter_cost_s)
    ratio = implied_overhead_s / identify_s
    assert ratio < 0.02, (
        f"disabled obs overhead {ratio:.2%} >= 2% "
        f"({n_spans} spans, span={span_cost_s * 1e9:.0f}ns, "
        f"counter={counter_cost_s * 1e9:.0f}ns, identify={identify_s * 1e3:.1f}ms)"
    )
