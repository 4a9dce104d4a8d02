"""One shard: many supervised streams, one batched inference call.

A shard owns a set of *lanes* — one admitted stream each, wrapped in
its own :class:`~repro.runtime.supervisor.PipelineSupervisor` so one
stream's breaker trips, deadline misses and poison-pill windows
degrade only that stream.  Each :meth:`ShardServer.tick`:

1. dequeues up to ``windows_per_stream`` windows per lane (highest
   priority first) and runs the *prepare* phase (admission checks +
   DSP featurisation) under that lane's guards;
2. quarantines non-finite feature vectors (batch hygiene: a NaN
   poison must never ride into the shared batch) as stage-attributed
   dead letters on their own lane;
3. pushes every surviving sample from **all** lanes through ONE
   ``predict_proba`` call — the cross-stream batching speed trick —
   and scores each row back to its lane;
4. if the shared batch call itself fails, falls back to per-lane
   inference under each lane's ``predict`` breaker, so a fault that
   only manifests inside the network forward still converts to
   per-stream degradation instead of shard-wide loss.

Lanes share the process-wide steering-matrix cache and the fitted
pipeline; their supervisors (queues, breakers, dead letters) are
fully independent.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.obs.metrics import counter, gauge, histogram
from repro.obs.tracing import span
from repro.runtime.breaker import StageFailureError, guard_scope
from repro.runtime.supervisor import PipelineSupervisor, PreparedWindow

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.streaming import StreamingIdentifier, WindowDecision
    from repro.hardware.llrp import ReadLog

__all__ = [
    "NonFiniteSampleError",
    "ShardServer",
    "StreamLane",
]

STAGE_BATCH_GUARD = "serving.batch"
"""Dead-letter stage for windows quarantined by batch hygiene."""

STAGE_SHED = "serving.shed"
"""Dead-letter stage for windows dropped by fleet load shedding."""

STAGE_SHARD_LOST = "serving.shard_lost"
"""Dead-letter stage for windows queued on a shard when it stopped."""


class NonFiniteSampleError(RuntimeError):
    """A featurised window carried NaN/Inf and was kept out of the batch."""

    def __init__(self, channel: str) -> None:
        super().__init__(
            f"featurised window has non-finite values in channel {channel!r}"
        )
        self.channel = channel


@dataclass
class StreamLane:
    """One admitted stream and its isolation machinery.

    Attributes:
        stream_id: fleet-unique stream name.
        supervisor: the lane's own supervisor (queue, breakers, dead
            letters, health) — never shared between lanes.
        priority: shed order; *lower* priorities are shed first.
    """

    stream_id: str
    supervisor: PipelineSupervisor
    priority: int = 0


class ShardServer:
    """Serves a set of lanes with cross-stream batched inference.

    Pooling is the only serving mode: whenever more than one window is
    ready in a tick, the prepare phase runs one pooled DSP batch and
    inference runs one ``predict_proba`` per feature-shape group.  The
    per-lane path (:meth:`_predict_singles`, per-lane prepare) remains
    only as the fallback for suspect (non-finite) windows, breaker
    probes, groups of one window and a failed shared call.  For clean
    lanes the decisions equal :meth:`StreamingIdentifier.identify` run
    on each stream's log on its own.

    Args:
        shard_id: index of this shard within the fleet (metrics).
        identifier_factory: zero-argument callable returning a fresh
            :class:`StreamingIdentifier` over the shared fitted
            pipeline; called once per lane (plus once for the shard's
            batch-scoring identifier) so per-stream calibrators never
            alias.
        windows_per_stream: max windows dequeued per lane per tick
            (bounds tick latency under backlog).
        supervisor_kwargs: forwarded to every lane's
            :class:`PipelineSupervisor` (queue bound, deadline,
            breaker thresholds, clock...).
    """

    def __init__(
        self,
        shard_id: int,
        identifier_factory: Callable[[], "StreamingIdentifier"],
        windows_per_stream: int = 4,
        supervisor_kwargs: dict | None = None,
    ) -> None:
        if windows_per_stream < 1:
            raise ValueError("windows_per_stream must be >= 1")
        self.shard_id = int(shard_id)
        self.identifier_factory = identifier_factory
        self.windows_per_stream = int(windows_per_stream)
        self.supervisor_kwargs = dict(supervisor_kwargs or {})
        self.lanes: dict[str, StreamLane] = {}
        # The shard's own identifier scores the shared batch; it never
        # carries a calibrator (lanes calibrate during prepare).
        self._identifier = identifier_factory()
        self._stopped = False

    # -- lifecycle -------------------------------------------------------

    def alive(self) -> bool:
        """True until :meth:`stop`; the fleet replaces a dead shard."""
        return not self._stopped

    def stop(self) -> None:
        """Mark the shard dead (idempotent)."""
        self._stopped = True

    # -- lane management ------------------------------------------------

    def add_stream(
        self, stream_id: str, priority: int = 0, calibrator: object = None
    ) -> None:
        """Create a lane (fresh supervisor) for an admitted stream.

        Raises:
            ValueError: when the stream already has a lane.
        """
        if stream_id in self.lanes:
            raise ValueError(f"stream {stream_id!r} already admitted")
        identifier = self.identifier_factory()
        if calibrator is not None:
            identifier.calibrator = calibrator
        self.lanes[stream_id] = StreamLane(
            stream_id=stream_id,
            supervisor=PipelineSupervisor(identifier, **self.supervisor_kwargs),
            priority=int(priority),
        )

    def remove_stream(self, stream_id: str) -> None:
        """Evict a lane; queued windows are discarded with it.

        Raises:
            KeyError: when the stream has no lane here.
        """
        del self.lanes[stream_id]

    def stream_ids(self) -> list[str]:
        """Streams currently laned on this shard."""
        return list(self.lanes)

    # -- ingest ----------------------------------------------------------

    def submit(self, stream_id: str, log: "ReadLog") -> int:
        """Window a continuous log into the stream's queue.

        Returns:
            Number of complete windows enqueued.

        Raises:
            KeyError: when the stream has no lane here.
        """
        return self.lanes[stream_id].supervisor.submit_stream(log)

    def queue_depths(self) -> dict[str, int]:
        """Stream id → windows waiting in that lane's queue."""
        return {
            sid: lane.supervisor.queue_depth for sid, lane in self.lanes.items()
        }

    def pop_queued(self, stream_id: str) -> list:
        """Dequeue every window waiting in one lane, oldest first (none when unknown)."""
        lane = self.lanes.get(stream_id)
        items = []
        while lane is not None and (item := lane.supervisor.pop_window()) is not None:
            items.append(item)
        return items

    def shed(self, stream_id: str, n_windows: int) -> int:
        """Drop up to ``n_windows`` oldest queued windows of one lane.

        Every dropped window is dead-lettered on its own lane with the
        :data:`STAGE_SHED` stage — shed work is lost, never silent.

        Returns:
            Windows actually dropped.
        """
        lane = self.lanes[stream_id]
        dropped = 0
        while dropped < n_windows:
            item = lane.supervisor.pop_window()
            if item is None:
                break
            lane.supervisor.drop_window(item, stage=STAGE_SHED)
            dropped += 1
        if dropped:
            counter(
                "serving.shed_windows_total", stream=stream_id
            ).inc(dropped)
        return dropped

    # -- serving ---------------------------------------------------------

    def tick(self) -> dict[str, list["WindowDecision"]]:
        """Serve one round across every lane; never raises per-window.

        Returns:
            Stream id → decisions emitted this tick (ids with no
            decisions are omitted).
        """
        t0 = time.perf_counter()
        out: dict[str, list["WindowDecision"]] = defaultdict(list)
        pending: list[tuple[StreamLane, PreparedWindow]] = []
        with span("serving.tick", shard=self.shard_id):
            entries: list[tuple[StreamLane, object]] = []
            for lane in self._lane_order():
                for _ in range(self.windows_per_stream):
                    item = lane.supervisor.pop_window()
                    if item is None:
                        break
                    entries.append((lane, item))
            for lane, prep in self._prepare_entries(entries):
                if prep.decision is not None:
                    out[lane.stream_id].append(
                        lane.supervisor.finish_window(prep)
                    )
                    continue
                poisoned = self._poisoned_channel(prep.sample)
                if poisoned is not None:
                    counter(
                        "serving.batch.poison_total",
                        stream=lane.stream_id,
                    ).inc()
                    cause = NonFiniteSampleError(poisoned)
                    out[lane.stream_id].append(
                        lane.supervisor.finish_window(
                            prep,
                            error=StageFailureError(
                                STAGE_BATCH_GUARD, cause
                            ),
                        )
                    )
                    continue
                pending.append((lane, prep))
            self._score_pending(pending, out)
        # Surface the shared identifier's serving precision so a fleet
        # dashboard can tell which shards run the float32 fast path
        # (a refit silently drops the pack back to float64).
        serve_dtype = getattr(
            getattr(self._identifier, "pipeline", None), "serve_dtype", "float64"
        )
        gauge("serving.serve_float32", shard=self.shard_id).set(
            1.0 if serve_dtype == "float32" else 0.0
        )
        counter("serving.ticks_total").inc()
        histogram("serving.tick.latency_ms").observe(
            (time.perf_counter() - t0) * 1e3
        )
        return dict(out)

    def health(self) -> dict[str, dict]:
        """Stream id → that lane's supervisor health, JSON-ready."""
        return {
            sid: lane.supervisor.health().as_dict()
            for sid, lane in self.lanes.items()
        }

    # -- internals -------------------------------------------------------

    def _lane_order(self) -> list[StreamLane]:
        """Highest priority first; stable by id within a priority."""
        return sorted(
            self.lanes.values(), key=lambda lane: (-lane.priority, lane.stream_id)
        )

    def _prepare_entries(
        self, entries: list[tuple[StreamLane, object]]
    ) -> list[tuple[StreamLane, PreparedWindow]]:
        """Run the prepare phase for every dequeued window.

        When more than one window is ready, windows from *clean* lanes
        (every breaker closed, every log value finite) are featurised
        through ONE pooled DSP batch
        (:meth:`StreamingIdentifier.prepare_windows`)
        and handed to each lane via ``begin_window(precomputed=...)``.
        Suspect windows — non-finite logs, or lanes mid-breaker-probe —
        take the per-lane scalar path so the pooled eigendecomposition
        never sees poison and breaker half-open probes stay attributed
        to their own lane.  A pooled-prepare failure falls back to the
        scalar path for every pooled window: slower, never lossier.
        """
        preps: list[PreparedWindow | None] = [None] * len(entries)
        if len(entries) > 1:
            pooled = [
                i
                for i, (lane, item) in enumerate(entries)
                if self._poolable(lane, item)
            ]
            if len(pooled) > 1:
                try:
                    with span("serving.batch.prepare", windows=len(pooled)):
                        batch = []
                        for i in pooled:
                            lane, item = entries[i]
                            calibrator = lane.supervisor.identifier.calibrator
                            psi = (
                                calibrator.calibrate(item.log)
                                if calibrator is not None
                                else None
                            )
                            batch.append((item.log, item.t_start_s, psi))
                        results = self._identifier.prepare_windows(batch)
                except Exception:
                    # Pooled prepare must never take the shard down:
                    # every window retries on its own lane below, where
                    # a real DSP fault degrades only that stream.
                    counter("serving.batch.prepare_fallback_total").inc()
                else:
                    counter("serving.batch.prepares_total").inc()
                    for i, result in zip(pooled, results):
                        lane, item = entries[i]
                        preps[i] = lane.supervisor.begin_window(
                            item, precomputed=result
                        )
        return [
            (lane, preps[i] if preps[i] is not None
             else lane.supervisor.begin_window(item))
            for i, (lane, item) in enumerate(entries)
        ]

    @staticmethod
    def _poolable(lane: StreamLane, item: object) -> bool:
        """True when a window may join the shared DSP batch.

        A lane with any non-closed breaker keeps the scalar path so
        half-open probes run (and are attributed) under its own
        guards; a log carrying NaN/Inf keeps the scalar path so a
        poison pill can only fail its own lane's prepare, never the
        pooled batch.
        """
        from repro.runtime.breaker import STATE_CLOSED

        supervisor = lane.supervisor
        if any(
            breaker.state != STATE_CLOSED
            for breaker in supervisor.breakers.values()
        ):
            return False
        log = item.log
        return bool(
            np.isfinite(log.phase_rad).all()
            and np.isfinite(log.rssi_dbm).all()
            and np.isfinite(log.timestamp_s).all()
        )

    @staticmethod
    def _poisoned_channel(sample: object) -> str | None:
        """Name of the first non-finite feature channel, if any."""
        channels = getattr(sample, "channels", None)
        if not isinstance(channels, dict):
            return None
        for name in sorted(channels):
            if not np.all(np.isfinite(channels[name])):
                return str(name)
        return None

    @staticmethod
    def _shape_key(sample: object) -> tuple:
        """Batch-compatibility signature of a featurised sample."""
        channels = getattr(sample, "channels", {})
        return tuple(
            (name, tuple(np.shape(channels[name]))) for name in sorted(channels)
        )

    def _score_pending(
        self,
        pending: list[tuple[StreamLane, PreparedWindow]],
        out: dict[str, list["WindowDecision"]],
    ) -> None:
        """Run inference for every prepared window and finish each."""
        if not pending:
            return
        groups: dict[tuple, list[tuple[StreamLane, PreparedWindow]]] = (
            defaultdict(list)
        )
        for lane, prep in pending:
            groups[self._shape_key(prep.sample)].append((lane, prep))
        for group in groups.values():
            if len(group) > 1:
                self._predict_batched(group, out)
            else:
                self._predict_singles(group, out)

    def _predict_batched(
        self,
        group: list[tuple[StreamLane, PreparedWindow]],
        out: dict[str, list["WindowDecision"]],
    ) -> None:
        """One shared ``predict_proba`` for the group; fall back on error."""
        samples = [prep.sample for _, prep in group]
        try:
            with span("serving.batch.predict", windows=len(samples)):
                probas = self._identifier.predict_prepared(samples)
        except Exception:
            # The shared call must never take the shard down: retry
            # each window under its own lane's predict breaker so the
            # failure converts to per-stream degradation.
            counter("serving.batch.fallback_total").inc()
            self._predict_singles(group, out)
            return
        counter("serving.batch.predicts_total").inc()
        histogram("serving.batch.size").observe(float(len(samples)))
        for (lane, prep), proba in zip(group, probas):
            out[lane.stream_id].append(
                lane.supervisor.finish_window(prep, proba=proba)
            )

    def _predict_singles(
        self,
        group: list[tuple[StreamLane, PreparedWindow]],
        out: dict[str, list["WindowDecision"]],
    ) -> None:
        """Per-window inference under each lane's own guards."""
        for lane, prep in group:
            try:
                with guard_scope(prep.guards):
                    probas = lane.supervisor.identifier.predict_prepared(
                        [prep.sample]
                    )
            except Exception as exc:
                out[lane.stream_id].append(
                    lane.supervisor.finish_window(prep, error=exc)
                )
            else:
                out[lane.stream_id].append(
                    lane.supervisor.finish_window(prep, proba=probas[0])
                )
