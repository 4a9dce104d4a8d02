"""The three benchmark workloads: ``corpus``, ``train`` and ``serve``.

Each workload is driven only through public entry points of ``repro``
(:class:`SyntheticDatasetGenerator`, :class:`M2AIPipeline`,
:class:`FleetServer`, :class:`StreamingIdentifier`).  ``setup()`` builds
every input from the workload seed; ``measure()`` times the workload's
phase for a given number of seconds, runs its correctness checks, and
counts failed operations against attempted ones.

``measure(seconds, scope)`` enters ``scope()`` around each timed region
only, so a traced run records spans of measured work and never of the
checks.
"""

from __future__ import annotations

import hashlib
import time
from collections import Counter, deque
from dataclasses import dataclass, field, replace
from typing import Callable, ContextManager

import numpy as np

WINDOW_FRAMES = 10
"""Serve window length in 400 ms dwells: the paper-like 4 s window."""

RUNTIME_REASONS = (
    "stage_failure",
    "breaker_open",
    "deadline_exceeded",
    "admission_rejected",
)
"""Abstain reasons caused by the serving runtime; each one is a failure."""

MODEL_REASONS = ("too_few_reads", "dead_ports", "low_confidence")
"""Abstain reasons the identifier gives for the window's content."""

PHASE_METRICS = (
    "simulate_samples_per_s",
    "featurize_samples_per_s",
    "train_sample_epochs_per_s",
    "serve_windows_per_s",
    "serve_latency_p50_ms",
    "serve_latency_p99_ms",
    "serve_latency_samples",
)
"""Per-phase metrics; a workload that does not run a phase reads 0."""

LOADGEN_METRICS = (
    *(f"runtime.abstain.{r}" for r in RUNTIME_REASONS + MODEL_REASONS),
    "runtime.breaker_trips",
    "serving.shed_windows",
    "serving.queue_wait_p50_ms",
    "serving.queue_wait_p99_ms",
    "loadgen.lag_p99_ms",
)
"""Per-layer metrics the serve load generator measures itself."""


@dataclass(frozen=True)
class Scale:
    """Sizes of every workload (the full benchmark, or a smoke test)."""

    setup_repeats: int
    corpus_mix: tuple[tuple[str, int, str], ...]
    corpus_duration_s: float
    corpus_calibration_s: float
    train_labels: tuple[str, ...]
    train_per_class: int
    train_test_fraction: float
    train_duration_s: float
    train_epochs: int
    accuracy_floor: float
    serve_labels: tuple[str, ...]
    serve_per_class: int
    serve_epochs: int
    serve_streams: int
    serve_copies: int
    serve_rate_per_s: float
    serve_min_latency_samples: int


FULL = Scale(
    setup_repeats=3,
    # Both rooms (the laboratory has furniture scatterers, the hall has
    # none) x 1, 2 and 3 persons with 3 tags each.
    corpus_mix=(
        ("laboratory", 1, "A01"),
        ("laboratory", 2, "A06"),
        ("laboratory", 3, "A11"),
        ("hall", 1, "A03"),
        ("hall", 2, "A07"),
        ("hall", 3, "A09"),
    ),
    corpus_duration_s=8.0,
    corpus_calibration_s=20.0,
    train_labels=("A01", "A03", "A06", "A11"),
    train_per_class=12,
    train_test_fraction=1 / 3,
    train_duration_s=8.0,
    train_epochs=15,
    accuracy_floor=0.25,
    serve_labels=("A01", "A03", "A06", "A11"),
    serve_per_class=4,
    serve_epochs=8,
    serve_streams=32,
    serve_copies=16,
    serve_rate_per_s=100.0,
    # >= 10 samples beyond the reported p99.
    serve_min_latency_samples=1000,
)

SMOKE = Scale(
    setup_repeats=2,
    corpus_mix=(("hall", 1, "A01"), ("laboratory", 1, "A03")),
    corpus_duration_s=2.0,
    corpus_calibration_s=2.0,
    train_labels=("A01", "A03"),
    train_per_class=2,
    train_test_fraction=0.5,
    train_duration_s=2.0,
    train_epochs=3,
    accuracy_floor=0.0,
    serve_labels=("A01", "A03"),
    serve_per_class=1,
    serve_epochs=1,
    serve_streams=4,
    serve_copies=2,
    serve_rate_per_s=40.0,
    serve_min_latency_samples=1,
)


class ReferenceMeter:
    """How fast this host runs right now, from a fixed reference kernel.

    On a shared host the speed a run gets drifts by 10-30% over minutes,
    in CPU time as much as in wall time.  The kernel is timed in short
    samples between a workload's timed units (never inside them), about
    a tenth of the measured time spread over the run.  The run scales
    its throughput and set-up time by ``NOMINAL_OPS_PER_S / speed``:
    what they would read at the nominal reference speed.  Latency is
    reported raw: the kernel's speed swings more than a latency does, so
    scaling moved its median between sets of runs by up to 27%.  The kernel is a
    120x120 product and symmetric eigendecomposition; a kernel of
    small-array calls did not track the workloads at all.  It uses
    nothing in ``src/``, so no change to the program under test can
    move it.
    """

    NOMINAL_OPS_PER_S = 700.0
    """Reference speed the calibrated metrics are expressed at."""

    OPS_PER_SAMPLE = 15

    def __init__(self) -> None:
        self._matrix = np.random.default_rng(12345).standard_normal((120, 120))
        self.samples: list[float] = []

    def sample(self, repeats: int = 1) -> None:
        """Time ``repeats`` samples of the kernel; keep each one's rate."""
        for _ in range(repeats):
            t0 = time.perf_counter()
            for _ in range(self.OPS_PER_SAMPLE):
                np.linalg.eigh(self._matrix @ self._matrix.T)
            self.samples.append(self.OPS_PER_SAMPLE / (time.perf_counter() - t0))

    @property
    def speed(self) -> float:
        """Median reference rate over every sample so far (ops/s)."""
        return float(np.median(self.samples))


@dataclass
class Outcome:
    """What one measurement of a workload produced.

    Attributes:
        throughput_per_s: the workload's unit of work per second.
        latency_p50_ms: median latency of the workload's user-facing wait.
        phase: the named per-phase metrics (``simulate_samples_per_s``...).
        attempted: operations attempted.
        failed: operations that failed a check.
        checks: check name -> passed.
        ref_speed: median reference-kernel rate sampled between the
            timed units (see :class:`ReferenceMeter`).
        loadgen: per-layer metrics the load generator itself measures.
        measured_s: wall time of the timed regions.
    """

    throughput_per_s: float
    latency_p50_ms: float
    phase: dict[str, float]
    attempted: int
    failed: int
    checks: dict[str, bool]
    ref_speed: float
    loadgen: dict[str, float] = field(default_factory=dict)
    measured_s: float = 0.0

    def __post_init__(self) -> None:
        for given, names in ((self.phase, PHASE_METRICS), (self.loadgen, LOADGEN_METRICS)):
            unknown = set(given) - set(names)
            if unknown:
                raise ValueError(f"undeclared metrics: {sorted(unknown)}")
            for name in names:
                given.setdefault(name, 0.0)


def derive_seed(seed: int, *keys: object) -> int:
    """A stable 31-bit seed for one input, derived from the workload seed."""
    words = [int(seed)] + [
        int.from_bytes(hashlib.sha256(str(k).encode()).digest()[:4], "little")
        for k in keys
    ]
    return int(np.random.SeedSequence(words).generate_state(1)[0] >> 1)


def percentile(values: list[float], q: float) -> float:
    """``np.percentile`` that reads 0 for an empty sample."""
    return float(np.percentile(values, q)) if values else 0.0


# -- corpus -------------------------------------------------------------------


class CorpusWorkload:
    """``generate_raw`` + ``featurize`` over a fixed mix of scenes.

    One pass renders every scene of the mix once, with fresh per-pass
    seeds; only whole passes are measured so each run sees the same mix.
    """

    name = "corpus"

    def __init__(self, seed: int, scale: Scale = FULL) -> None:
        self.seed = int(seed)
        self.scale = scale

    def config(self, pass_index: int, slot: int):
        """The generation config of one scene of one pass."""
        from repro.data.generator import GenerationConfig

        environment, persons, label = self.scale.corpus_mix[slot]
        return GenerationConfig(
            environment=environment,
            scenario_labels=(label,),
            samples_per_class=1,
            n_persons=persons,
            tags_per_person=3,
            duration_s=self.scale.corpus_duration_s,
            calibration_s=self.scale.corpus_calibration_s,
            seed=derive_seed(self.seed, "corpus", pass_index, slot),
        )

    def setup(self) -> None:
        """Warm first-call imports and the steering cache on a tiny scene."""
        from repro.data.generator import GenerationConfig, SyntheticDatasetGenerator

        warm = GenerationConfig(
            environment="laboratory",
            scenario_labels=("A01",),
            samples_per_class=1,
            n_persons=1,
            duration_s=0.8,
            calibration_s=0.8,
            seed=derive_seed(self.seed, "corpus-warm"),
        )
        SyntheticDatasetGenerator(warm).generate()

    def measure(
        self, seconds: float, scope: Callable[[], ContextManager], meter: ReferenceMeter
    ) -> Outcome:
        """Render whole passes of the mix until ``seconds`` have elapsed."""
        from repro.data.generator import SyntheticDatasetGenerator

        simulate_s = featurize_s = 0.0
        latencies: list[float] = []
        per_slot: list[list[float]] = [[] for _ in self.scale.corpus_mix]
        failures = Counter()
        attempted = 0
        deadline = time.perf_counter() + seconds
        pass_index = 0
        while True:
            for slot in range(len(self.scale.corpus_mix)):
                cfg = self.config(pass_index, slot)
                meter.sample(2)
                with scope():
                    t0 = time.perf_counter()
                    generator = SyntheticDatasetGenerator(cfg)
                    raw = generator.generate_raw()
                    t1 = time.perf_counter()
                    dataset = generator.featurize(raw)
                    t2 = time.perf_counter()
                simulate_s += t1 - t0
                featurize_s += t2 - t1
                per_slot[slot].append(t2 - t0)
                latencies.append((t2 - t0) * 1e3)
                attempted += 1
                bad = self._check(cfg, raw, dataset)
                failures.update(bad)
                failures["recordings"] += bool(bad)
            pass_index += 1
            if time.perf_counter() >= deadline:
                break
        n = len(latencies)
        # One pass at the median cost of each scene: robust to a burst
        # of host contention landing on a single recording.
        pass_s = sum(float(np.median(times)) for times in per_slot)
        return Outcome(
            throughput_per_s=len(per_slot) / pass_s,
            latency_p50_ms=percentile(latencies, 50),
            phase={
                "simulate_samples_per_s": n / simulate_s,
                "featurize_samples_per_s": n / featurize_s,
            },
            attempted=attempted,
            failed=failures["recordings"],
            checks={
                "corpus.finite_phases": failures["finite_phases"] == 0,
                "corpus.reads_per_tag": failures["reads_per_tag"] == 0,
                "corpus.frame_shapes": failures["frame_shapes"] == 0,
            },
            measured_s=simulate_s + featurize_s,
            ref_speed=meter.speed,
        )

    @staticmethod
    def _check(cfg, raw: list, dataset) -> list[str]:
        """Names of the checks one rendered recording fails."""
        bad = []
        if len(raw) != 1 or len(dataset) != 1:
            return ["frame_shapes"]
        rec, sample = raw[0], dataset.samples[0]
        if not (
            np.isfinite(rec.log.phase_rad).all()
            and np.isfinite(rec.calibration_log.phase_rad).all()
        ):
            bad.append("finite_phases")
        n_tags = cfg.n_persons * cfg.tags_per_person
        per_tag = np.bincount(rec.log.tag_index, minlength=n_tags)
        if rec.log.n_tags != n_tags or per_tag.size != n_tags or not (per_tag > 0).all():
            bad.append("reads_per_tag")
        n_frames = int(round(cfg.duration_s / rec.log.meta.dwell_s))
        expected = {
            "pseudo": (n_frames, n_tags, 180),
            "period": (n_frames, n_tags, cfg.n_antennas),
        }
        shapes = {name: arr.shape for name, arr in sample.channels.items()}
        finite = all(np.isfinite(arr).all() for arr in sample.channels.values())
        if shapes != expected or not finite:
            bad.append("frame_shapes")
        return bad


# -- train --------------------------------------------------------------------


def render_dataset(seed: int, labels, per_class: int, duration_s: float, key: str):
    """Simulate and featurise a two-person hall corpus.

    Returns:
        ``(raw_samples, dataset)``.
    """
    from repro.data.generator import GenerationConfig, SyntheticDatasetGenerator

    cfg = GenerationConfig(
        environment="hall",
        scenario_labels=tuple(labels),
        samples_per_class=per_class,
        n_persons=2,
        tags_per_person=3,
        duration_s=duration_s,
        calibration_s=20.0,
        seed=derive_seed(seed, key),
    )
    generator = SyntheticDatasetGenerator(cfg)
    raw = generator.generate_raw()
    return raw, generator.featurize(raw)


class TrainWorkload:
    """``M2AIPipeline.fit`` with the paper-default config, then ``evaluate``.

    Setup renders the corpus; each measured operation fits a fresh
    pipeline for a fixed epoch count and scores the held-out split.
    """

    name = "train"

    def __init__(self, seed: int, scale: Scale = FULL) -> None:
        self.seed = int(seed)
        self.scale = scale

    def setup(self) -> None:
        """Render and split the corpus; warm the training path."""
        from repro.core import M2AIConfig, M2AIPipeline

        scale = self.scale
        _raw, dataset = render_dataset(
            self.seed, scale.train_labels, scale.train_per_class,
            scale.train_duration_s, "train-corpus",
        )
        self.train, self.test = dataset.split(
            scale.train_test_fraction,
            rng=np.random.default_rng(derive_seed(self.seed, "train-split")),
        )
        # Paper defaults (cnn_lstm, 2x32 LSTM, Adam, augmentation on);
        # only the epoch budget and the seed are set here.
        self.config = M2AIConfig(epochs=scale.train_epochs, seed=self.seed)
        M2AIPipeline(replace(self.config, epochs=1)).fit(self.train.subset([0, 1]))

    def measure(
        self, seconds: float, scope: Callable[[], ContextManager], meter: ReferenceMeter
    ) -> Outcome:
        """Fit and evaluate repeatedly until ``seconds`` have elapsed."""
        from repro.core import M2AIPipeline

        fit_s: list[float] = []
        failures = Counter()
        reference = None
        deadline = time.perf_counter() + seconds
        while True:
            meter.sample(20)
            with scope():
                t0 = time.perf_counter()
                pipeline = M2AIPipeline(self.config).fit(self.train)
                t1 = time.perf_counter()
                result = pipeline.evaluate(self.test)
            fit_s.append(t1 - t0)
            loss = list(pipeline.history.loss)
            bad = []
            if not np.isfinite(loss).all():
                bad.append("finite_loss")
            if not loss[-1] < loss[0]:
                bad.append("loss_decreased")
            if not result.accuracy >= self.scale.accuracy_floor:
                bad.append("accuracy_floor")
            reference = loss if reference is None else reference
            if loss != reference:
                bad.append("deterministic")
            failures.update(bad)
            failures["fits"] += bool(bad)
            if time.perf_counter() >= deadline:
                break
        rate = float(np.median([len(self.train) * self.config.epochs / s for s in fit_s]))
        return Outcome(
            throughput_per_s=rate,
            latency_p50_ms=percentile([s * 1e3 for s in fit_s], 50),
            phase={"train_sample_epochs_per_s": rate},
            attempted=len(fit_s),
            failed=failures["fits"],
            checks={
                "train.finite_loss": failures["finite_loss"] == 0,
                "train.loss_decreased": failures["loss_decreased"] == 0,
                "train.accuracy_floor": failures["accuracy_floor"] == 0,
                "train.deterministic": failures["deterministic"] == 0,
            },
            measured_s=sum(fit_s),
            ref_speed=meter.speed,
        )


# -- serve --------------------------------------------------------------------


def _decision_key(decision) -> tuple:
    return (round(decision.t_start_s, 6), decision.label, decision.abstained, decision.reason)


class ServeWorkload:
    """A float32 paper-default model served by an inline one-shard fleet.

    Phase (a) drains a submitted backlog (closed loop); phase (b) offers
    windows at a fixed rate and times each from when it was due.
    """

    name = "serve"
    windows_per_stream = 4

    def __init__(self, seed: int, scale: Scale = FULL) -> None:
        self.seed = int(seed)
        self.scale = scale
        self._reference: list[list[tuple]] | None = None

    @property
    def lanes(self) -> int:
        """Windows one tick can serve: streams x windows per stream."""
        return self.scale.serve_streams * self.windows_per_stream

    def setup(self) -> None:
        """Train and gate the serve pack; build the stream logs; warm."""
        from repro.core import M2AIConfig, M2AIPipeline
        from repro.core.streaming import split_windows
        from repro.dsp.calibration import PhaseCalibrator
        from repro.hardware import concatenate_logs

        scale = self.scale
        raw, dataset = render_dataset(
            self.seed, scale.serve_labels, scale.serve_per_class,
            WINDOW_FRAMES * 0.4, "serve-corpus",
        )
        pipeline = M2AIPipeline(M2AIConfig(epochs=scale.serve_epochs, seed=self.seed))
        pipeline.fit(dataset)
        # A ServeParityError here is a setup failure, never a fall-back.
        self.parity = pipeline.set_serve_dtype("float32", parity=dataset)
        self.pipeline = pipeline
        dwell = raw[0].log.meta.dwell_s
        self.window_s = WINDOW_FRAMES * dwell
        self.calibrators = [
            r.calibrator or PhaseCalibrator.fit(r.calibration_log) for r in raw
        ]
        # One stream log per recording: the recording repeated with
        # shifted timestamps, so every copy is exactly one window.
        self.logs = [
            concatenate_logs(
                [
                    replace(r.log, timestamp_s=r.log.timestamp_s + k * self.window_s)
                    for k in range(scale.serve_copies)
                ]
            )
            for r in raw
        ]
        self.windows = [split_windows(log, self.window_s) for log in self.logs]
        for windows in self.windows:
            if len(windows) != scale.serve_copies:
                raise RuntimeError(
                    f"stream log cut into {len(windows)} windows, "
                    f"expected {scale.serve_copies}"
                )
        self.stream_ids = [f"stream-{i:03d}" for i in range(scale.serve_streams)]
        warm = self._fleet(n_streams=2)
        for i in range(2):
            warm.submit(self.stream_ids[i], self.logs[i % len(self.logs)])
        warm.drain()
        warm.stop()

    def _identifier(self):
        from repro.core.streaming import StreamingIdentifier

        return StreamingIdentifier(
            self.pipeline, window_s=self.window_s, serve_dtype="float32"
        )

    def _fleet(self, n_streams: int | None = None):
        from repro.serving import FleetServer

        n = self.scale.serve_streams if n_streams is None else n_streams
        fleet = FleetServer(
            self._identifier,
            capacity=n,
            n_shards=1,
            mode="inline",
            windows_per_stream_per_tick=self.windows_per_stream,
            max_queued_windows=n * self.scale.serve_copies,
        )
        for i in range(n):
            fleet.admit(
                self.stream_ids[i], calibrator=self.calibrators[i % len(self.logs)]
            )
        return fleet

    def reference(self) -> list[list[tuple]]:
        """``StreamingIdentifier.identify`` decisions per recording log."""
        if self._reference is None:
            self._reference = []
            for log, calibrator in zip(self.logs, self.calibrators):
                identifier = self._identifier()
                identifier.calibrator = calibrator
                self._reference.append(
                    [_decision_key(d) for d in identifier.identify(log)]
                )
        return self._reference

    def measure(
        self, seconds: float, scope: Callable[[], ContextManager], meter: ReferenceMeter
    ) -> Outcome:
        """Half the time closed loop (a), half open loop (b)."""
        reference = self.reference()
        closed = self._closed_loop(seconds / 2, scope, reference, meter)
        meter.sample(20)
        opened = self._open_loop(seconds / 2, scope)
        meter.sample(20)
        reasons = closed["reasons"] + opened["reasons"]
        attempted = closed["attempted"] + opened["attempted"]
        failed = closed["failed"] + opened["failed"]
        latencies = opened["latency_ms"]
        loadgen = {f"runtime.abstain.{r}": float(reasons[r]) for r in RUNTIME_REASONS}
        loadgen.update({f"runtime.abstain.{r}": float(reasons[r]) for r in MODEL_REASONS})
        loadgen.update(
            {
                "runtime.breaker_trips": float(closed["trips"] + opened["trips"]),
                "serving.shed_windows": float(closed["shed"] + opened["shed"]),
                "serving.queue_wait_p50_ms": percentile(opened["queue_wait_ms"], 50),
                "serving.queue_wait_p99_ms": percentile(opened["queue_wait_ms"], 99),
                "loadgen.lag_p99_ms": percentile(opened["lag_ms"], 99),
            }
        )
        rate = closed["rate"]
        p50 = percentile(latencies, 50)
        return Outcome(
            throughput_per_s=rate,
            latency_p50_ms=p50,
            phase={
                "serve_windows_per_s": rate,
                "serve_latency_p50_ms": p50,
                "serve_latency_p99_ms": percentile(latencies, 99),
                "serve_latency_samples": float(len(latencies)),
            },
            attempted=attempted,
            failed=failed,
            checks={
                "serve.parity_gate_accepted": bool(self.parity.get("accepted")),
                "serve.one_decision_per_window": closed["missing"] + opened["missing"] == 0,
                "serve.closed_loop_matches_identify": closed["mismatched"] == 0,
                "serve.no_runtime_abstains": sum(reasons[r] for r in RUNTIME_REASONS) == 0,
                "serve.latency_samples": len(latencies)
                >= self.scale.serve_min_latency_samples,
            },
            loadgen=loadgen,
            measured_s=closed["busy_s"] + opened["wall_s"],
            ref_speed=meter.speed,
        )

    def _closed_loop(self, seconds: float, scope, reference, meter) -> dict:
        """Phase (a): submit every stream's log, drain; repeat."""
        fleet = self._fleet()
        n_logs = len(self.logs)
        busy_s = 0.0
        drain_rates: list[float] = []
        attempted = failed = missing = mismatched = 0
        reasons = Counter()
        deadline = time.perf_counter() + seconds
        try:
            while True:
                meter.sample(3)
                with scope():
                    t0 = time.perf_counter()
                    for i, sid in enumerate(self.stream_ids):
                        fleet.submit(sid, self.logs[i % n_logs])
                    out = fleet.drain()
                    drain_s = time.perf_counter() - t0
                busy_s += drain_s
                drain_rates.append(sum(len(d) for d in out.values()) / drain_s)
                for i, sid in enumerate(self.stream_ids):
                    expected = reference[i % n_logs]
                    got = sorted(out.get(sid, []), key=lambda d: d.t_start_s)
                    reasons.update(d.reason for d in got if d.abstained)
                    keys = [_decision_key(d) for d in got]
                    attempted += len(expected)
                    missing += abs(len(expected) - len(got))
                    wrong = sum(a != b for a, b in zip(keys, expected))
                    mismatched += wrong
                    failed += wrong + max(0, len(expected) - len(got))
                if time.perf_counter() >= deadline:
                    break
            health = fleet.health()
        finally:
            fleet.stop()
        return {
            "busy_s": busy_s,
            "rate": float(np.median(drain_rates)),
            "attempted": attempted,
            "failed": failed,
            "missing": missing,
            "mismatched": mismatched,
            "reasons": reasons,
            "trips": _breaker_trips(health),
            "shed": health.shed_windows_total,
        }

    def _open_loop(self, seconds: float, scope) -> dict:
        """Phase (b): windows due at a fixed rate, round-robin over streams."""
        fleet = self._fleet()
        rate = self.scale.serve_rate_per_s
        n_total = max(1, int(rate * seconds))
        n_streams, n_logs = len(self.stream_ids), len(self.logs)
        pending = {sid: deque() for sid in self.stream_ids}
        latency_ms: list[float] = []
        queue_wait_ms: list[float] = []
        lag_ms: list[float] = []
        reasons = Counter()
        failed = decided = 0
        submitted = 0
        try:
            with scope():
                start = time.perf_counter() + 0.005
                give_up = start + seconds + 30.0
                while decided < n_total:
                    now = time.perf_counter()
                    while submitted < n_total and start + submitted / rate <= now:
                        stream = submitted % n_streams
                        copy = (submitted // n_streams) % self.scale.serve_copies
                        t_start, window_log = self.windows[stream % n_logs][copy]
                        sid = self.stream_ids[stream]
                        due = start + submitted / rate
                        fleet.submit(sid, window_log)
                        pending[sid].append((due, round(t_start, 6)))
                        lag_ms.append((now - due) * 1e3)
                        submitted += 1
                    if fleet.total_queued():
                        t_tick = time.perf_counter()
                        out = fleet.tick()
                        t_done = time.perf_counter()
                        for sid, decisions in out.items():
                            for d in decisions:
                                if not pending[sid]:
                                    failed += 1
                                    continue
                                due, t_start = pending[sid].popleft()
                                decided += 1
                                latency_ms.append((t_done - due) * 1e3)
                                queue_wait_ms.append((t_tick - due) * 1e3)
                                if d.abstained:
                                    reasons[d.reason] += 1
                                if (
                                    round(d.t_start_s, 6) != t_start
                                    or d.reason in RUNTIME_REASONS
                                ):
                                    failed += 1
                    elif submitted < n_total:
                        time.sleep(max(0.0, start + submitted / rate - time.perf_counter()))
                    else:
                        break
                    if time.perf_counter() > give_up:
                        break
                wall_s = time.perf_counter() - start
            health = fleet.health()
        finally:
            fleet.stop()
        missing = n_total - decided
        return {
            "wall_s": wall_s,
            "attempted": n_total,
            "failed": failed + missing,
            "missing": missing,
            "reasons": reasons,
            "latency_ms": latency_ms,
            "queue_wait_ms": queue_wait_ms,
            "lag_ms": lag_ms,
            "trips": _breaker_trips(health),
            "shed": health.shed_windows_total,
        }


def _breaker_trips(health) -> int:
    """Breakers not closed across every stream of a fleet health roll-up."""
    return sum(
        state != "closed"
        for shard in health.shards
        for report in shard.streams.values()
        for state in report["breaker_states"].values()
    )


WORKLOADS = {w.name: w for w in (CorpusWorkload, TrainWorkload, ServeWorkload)}
"""Workload name -> class."""
