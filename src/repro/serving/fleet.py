"""The fleet: admission, sharding, shedding, crash recovery, health.

:class:`FleetServer` spreads admitted (room, reader, person-set)
streams over in-process :class:`~repro.serving.shard.ShardServer`
shards, wraps each stream in its own supervisor, and cross-stream
batches inference inside each shard.  On top sit the fleet-level
robustness controls:

* **admission control** — past ``capacity`` a new stream is rejected
  with an explicit decision; windows submitted for a rejected stream
  are answered with ``REASON_ADMISSION`` abstains, never dropped
  silently;
* **load shedding** — when the fleet-wide queue backlog stays above
  ``max_queued_windows`` for ``overload_grace_ticks`` consecutive
  ticks, oldest windows are dropped (dead-lettered) from the
  *lowest-priority* streams first until the backlog fits;
* **crash recovery** — a stopped shard is detected at the next tick
  or submit, replaced, and its streams reassigned to the replacement
  (their supervisor state restarts; the windows queued on it are
  dead-lettered on the replacement lanes with stage ``serving.shard_lost``;
  the reassignment and the lost windows are counted);
* **health roll-up** — per-stream supervisor states aggregate to
  per-shard and fleet-wide HEALTHY/DEGRADED/FAILED, exported through
  ``repro.obs`` gauges and counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.obs.metrics import counter, gauge
from repro.runtime.supervisor import (
    HEALTH_DEGRADED,
    HEALTH_FAILED,
    HEALTH_HEALTHY,
)
from repro.serving.shard import STAGE_SHARD_LOST, ShardServer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.streaming import WindowDecision
    from repro.hardware.llrp import ReadLog

__all__ = [
    "AdmissionResult",
    "FleetHealth",
    "FleetServer",
    "ShardHealth",
    "SubmitReceipt",
]

REASON_CAPACITY = "capacity"
"""Admission rejection reason: the fleet is at stream capacity."""

_HEALTH_RANK = {HEALTH_HEALTHY: 0, HEALTH_DEGRADED: 1, HEALTH_FAILED: 2}
_HEALTH_VALUE = {HEALTH_HEALTHY: 0.0, HEALTH_DEGRADED: 1.0, HEALTH_FAILED: 2.0}


@dataclass(frozen=True)
class AdmissionResult:
    """The explicit outcome of one admission request.

    Attributes:
        stream_id: the requesting stream.
        admitted: whether a lane was created.
        reason: rejection reason (:data:`REASON_CAPACITY`), None when
            admitted.
        shard: index of the shard the stream landed on, None when
            rejected.
    """

    stream_id: str
    admitted: bool
    reason: str | None = None
    shard: int | None = None


@dataclass(frozen=True)
class SubmitReceipt:
    """What happened to one submitted log.

    Attributes:
        stream_id: the submitting stream.
        enqueued: complete windows added to the stream's queue.
        decisions: immediate decisions for windows that were *not*
            enqueued — ``REASON_ADMISSION`` abstains when the stream
            was rejected at admission (empty for admitted streams).
    """

    stream_id: str
    enqueued: int
    decisions: list["WindowDecision"] = field(default_factory=list)


@dataclass(frozen=True)
class ShardHealth:
    """One shard's health roll-up.

    Attributes:
        shard_id: shard index.
        state: worst state across the shard's streams (FAILED when
            the shard itself is stopped).
        worker_alive: whether the shard is running.
        streams: stream id → that stream's supervisor health dict.
    """

    shard_id: int
    state: str
    worker_alive: bool
    streams: dict[str, dict]

    def as_dict(self) -> dict:
        """JSON-ready representation."""
        return {
            "shard_id": self.shard_id,
            "state": self.state,
            "worker_alive": self.worker_alive,
            "streams": dict(self.streams),
        }


@dataclass(frozen=True)
class FleetHealth:
    """The fleet-wide health roll-up.

    Attributes:
        state: worst state across shards.
        shards: per-shard roll-ups.
        n_streams: admitted streams currently laned.
        admitted_total: streams admitted since construction.
        rejected_total: admission rejections since construction.
        shed_windows_total: windows dropped by fleet load shedding.
        reassigned_total: stream reassignments after shard crashes.
        lost_windows_total: windows that were queued on a shard when it
            stopped (each one dead-lettered, never served).
    """

    state: str
    shards: list[ShardHealth]
    n_streams: int
    admitted_total: int
    rejected_total: int
    shed_windows_total: int
    reassigned_total: int
    lost_windows_total: int

    def stream_states(self) -> dict[str, str]:
        """Stream id → HEALTHY/DEGRADED/FAILED across the fleet."""
        states: dict[str, str] = {}
        for shard in self.shards:
            for sid, report in shard.streams.items():
                states[sid] = str(report["state"])
        return states

    def as_dict(self) -> dict:
        """JSON-ready representation."""
        return {
            "state": self.state,
            "n_streams": self.n_streams,
            "admitted_total": self.admitted_total,
            "rejected_total": self.rejected_total,
            "shed_windows_total": self.shed_windows_total,
            "reassigned_total": self.reassigned_total,
            "lost_windows_total": self.lost_windows_total,
            "shards": [shard.as_dict() for shard in self.shards],
        }


@dataclass
class _StreamInfo:
    shard: int
    priority: int
    calibrator: object = None


class FleetServer:
    """Multi-tenant serving over in-process shards.

    Args:
        identifier_factory: zero-argument callable returning a fresh
            :class:`~repro.core.streaming.StreamingIdentifier` over the
            shared fitted pipeline.
        capacity: max admitted streams; admission past it is rejected.
        n_shards: shards to spread streams over.
        mode: must be ``"inline"`` (the default and only legal value;
            every shard runs in this process).
        windows_per_stream_per_tick: windows a lane may serve per tick.
        max_queued_windows: fleet-wide backlog watermark that arms
            load shedding.
        overload_grace_ticks: consecutive over-watermark ticks before
            shedding actually drops windows.
        supervisor_kwargs: forwarded to every stream's supervisor
            (queue bound, deadline, breaker thresholds, clock...).

    Raises:
        ValueError: on a non-positive capacity, shard count, backlog
            watermark, grace period or per-tick window budget, or any
            mode but ``"inline"`` — checked before any shard is built.
    """

    def __init__(
        self,
        identifier_factory: Callable,
        capacity: int = 256,
        n_shards: int = 1,
        mode: str = "inline",
        windows_per_stream_per_tick: int = 4,
        max_queued_windows: int = 1024,
        overload_grace_ticks: int = 2,
        supervisor_kwargs: dict | None = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        if mode != "inline":
            raise ValueError(
                f"unknown fleet mode {mode!r}; the only mode is 'inline'"
            )
        if max_queued_windows < 1:
            raise ValueError("max_queued_windows must be >= 1")
        if overload_grace_ticks < 1:
            raise ValueError("overload_grace_ticks must be >= 1")
        if windows_per_stream_per_tick < 1:
            raise ValueError("windows_per_stream_per_tick must be >= 1")
        self.capacity = int(capacity)
        self.max_queued_windows = int(max_queued_windows)
        self.overload_grace_ticks = int(overload_grace_ticks)
        self._factory = identifier_factory
        self._windows_per_stream = int(windows_per_stream_per_tick)
        self._supervisor_kwargs = dict(supervisor_kwargs or {})
        self.workers: list[ShardServer] = [
            self._spawn_worker(i) for i in range(int(n_shards))
        ]
        # Windowing parameters for answering rejected streams' windows.
        self._reference_identifier = identifier_factory()
        self._streams: dict[str, _StreamInfo] = {}
        self._rejected: set[str] = set()
        self._overloaded_ticks = 0
        self._admitted_total = 0
        self._rejected_total = 0
        self._shed_total = 0
        self._reassigned_total = 0
        self._lost_total = 0

    # -- admission -------------------------------------------------------

    def admit(
        self, stream_id: str, priority: int = 0, calibrator: object = None
    ) -> AdmissionResult:
        """Request a lane for a new stream.

        Past ``capacity`` the request is rejected with an explicit
        :class:`AdmissionResult` (and counted); otherwise the stream
        lands on the least-loaded shard.

        Raises:
            ValueError: when the stream is already admitted.
        """
        if stream_id in self._streams:
            raise ValueError(f"stream {stream_id!r} already admitted")
        if len(self._streams) >= self.capacity:
            self._rejected_total += 1
            self._rejected.add(stream_id)
            counter(
                "serving.admission.rejected_total", reason=REASON_CAPACITY
            ).inc()
            return AdmissionResult(
                stream_id=stream_id, admitted=False, reason=REASON_CAPACITY
            )
        shard = self._least_loaded_shard()
        self.workers[shard].add_stream(
            stream_id, priority=priority, calibrator=calibrator
        )
        self._streams[stream_id] = _StreamInfo(
            shard=shard, priority=int(priority), calibrator=calibrator
        )
        self._rejected.discard(stream_id)
        self._admitted_total += 1
        counter("serving.admission.admitted_total").inc()
        gauge("serving.streams.active").set(float(len(self._streams)))
        return AdmissionResult(stream_id=stream_id, admitted=True, shard=shard)

    def evict(self, stream_id: str) -> None:
        """Remove an admitted stream and free its capacity slot.

        Raises:
            KeyError: when the stream is not admitted.
        """
        info = self._streams.pop(stream_id)
        self.workers[info.shard].remove_stream(stream_id)
        gauge("serving.streams.active").set(float(len(self._streams)))

    # -- ingest ----------------------------------------------------------

    def submit(self, stream_id: str, log: "ReadLog") -> SubmitReceipt:
        """Route one continuous log to its stream's queue.

        A rejected stream's windows are answered immediately with
        ``REASON_ADMISSION`` abstain decisions — the fleet never
        silently swallows data it declined to serve.  Stopped shards
        are replaced first, so a stream whose shard died enqueues on
        the replacement instead of a queue no tick will serve.

        Raises:
            KeyError: when the stream was never offered to
                :meth:`admit` at all.
        """
        info = self._streams.get(stream_id)
        if info is None:
            if stream_id not in self._rejected:
                raise KeyError(
                    f"stream {stream_id!r} was never admitted; call admit()"
                )
            return SubmitReceipt(
                stream_id=stream_id,
                enqueued=0,
                decisions=self._admission_decisions(log),
            )
        self._recover_crashed_workers()
        enqueued = self.workers[info.shard].submit(stream_id, log)
        return SubmitReceipt(stream_id=stream_id, enqueued=enqueued)

    # -- serving ---------------------------------------------------------

    def tick(self) -> dict[str, list["WindowDecision"]]:
        """One fleet round: recover crashes, shed overload, serve.

        Returns:
            Stream id → decisions emitted this tick.
        """
        self._recover_crashed_workers()
        self._shed_if_overloaded()
        merged: dict[str, list["WindowDecision"]] = {}
        for worker in self.workers:
            for sid, decisions in worker.tick().items():
                merged.setdefault(sid, []).extend(decisions)
        self._export_health_gauges()
        return merged

    def drain(self, max_ticks: int = 10_000) -> dict[str, list["WindowDecision"]]:
        """Tick until every queue is empty; merged decisions per stream.

        Raises:
            RuntimeError: when queues fail to empty within
                ``max_ticks`` (a wedged shard would otherwise spin
                this loop forever).
        """
        merged: dict[str, list["WindowDecision"]] = {}
        for _ in range(max_ticks):
            for sid, decisions in self.tick().items():
                merged.setdefault(sid, []).extend(decisions)
            if self.total_queued() == 0:
                return merged
        raise RuntimeError(f"fleet failed to drain within {max_ticks} ticks")

    def total_queued(self) -> int:
        """Fleet-wide queued-window backlog (stopped shards count 0)."""
        return sum(
            sum(worker.queue_depths().values())
            for worker in self.workers
            if worker.alive()
        )

    # -- health ----------------------------------------------------------

    def health(self) -> FleetHealth:
        """The fleet-wide HEALTHY/DEGRADED/FAILED roll-up."""
        shards: list[ShardHealth] = []
        for index, worker in enumerate(self.workers):
            alive = worker.alive()
            streams = worker.health() if alive else {}
            if not alive:
                state = HEALTH_FAILED
            elif streams:
                state = max(
                    (str(report["state"]) for report in streams.values()),
                    key=lambda s: _HEALTH_RANK.get(s, 2),
                )
            else:
                state = HEALTH_HEALTHY
            shards.append(
                ShardHealth(
                    shard_id=index,
                    state=state,
                    worker_alive=alive,
                    streams=streams,
                )
            )
        fleet_state = (
            max(
                (shard.state for shard in shards),
                key=lambda s: _HEALTH_RANK.get(s, 2),
            )
            if shards
            else HEALTH_HEALTHY
        )
        return FleetHealth(
            state=fleet_state,
            shards=shards,
            n_streams=len(self._streams),
            admitted_total=self._admitted_total,
            rejected_total=self._rejected_total,
            shed_windows_total=self._shed_total,
            reassigned_total=self._reassigned_total,
            lost_windows_total=self._lost_total,
        )

    def stop(self) -> None:
        """Stop every shard (idempotent)."""
        for worker in self.workers:
            worker.stop()

    # -- internals -------------------------------------------------------

    def _spawn_worker(self, shard_id: int) -> ShardServer:
        return ShardServer(
            shard_id,
            self._factory,
            windows_per_stream=self._windows_per_stream,
            supervisor_kwargs=self._supervisor_kwargs,
        )

    def _least_loaded_shard(self) -> int:
        loads = [0] * len(self.workers)
        for info in self._streams.values():
            loads[info.shard] += 1
        return int(min(range(len(loads)), key=lambda i: loads[i]))

    def _admission_decisions(self, log: "ReadLog") -> list["WindowDecision"]:
        """One explicit REASON_ADMISSION abstain per complete window."""
        from repro.core.streaming import (
            REASON_ADMISSION,
            abstain_decision,
            split_windows,
        )

        identifier = self._reference_identifier
        windows = split_windows(log, identifier.window_s, identifier.hop_s)
        return [
            abstain_decision(
                t_start,
                t_start + identifier.window_s,
                window_log.n_reads,
                REASON_ADMISSION,
            )
            for t_start, window_log in windows
        ]

    def _recover_crashed_workers(self) -> None:
        """Replace stopped shards, reassign their streams, account their queues."""
        for index, worker in enumerate(self.workers):
            if worker.alive():
                continue
            replacement = self._spawn_worker(index)
            self.workers[index] = replacement
            orphaned = [
                (sid, info)
                for sid, info in self._streams.items()
                if info.shard == index
            ]
            for sid, info in orphaned:
                # The stream survives with a fresh supervisor; the
                # windows queued on the dead shard are not served, but
                # each one is dead-lettered on the new lane and counted.
                replacement.add_stream(
                    sid, priority=info.priority, calibrator=info.calibrator
                )
                self._reassigned_total += 1
                counter("serving.workers.reassigned_total").inc()
                lost = worker.pop_queued(sid)
                supervisor = replacement.lanes[sid].supervisor
                for item in lost:
                    supervisor.drop_window(
                        item,
                        stage=STAGE_SHARD_LOST,
                        error=RuntimeError(f"shard {index} stopped with the window queued"),
                    )
                if lost:
                    self._lost_total += len(lost)
                    counter("serving.workers.lost_windows_total").inc(len(lost))
            if orphaned:
                counter("serving.workers.replaced_total").inc()

    def _shed_if_overloaded(self) -> None:
        """Drop-oldest from lowest-priority streams under sustained load."""
        total = self.total_queued()
        if total <= self.max_queued_windows:
            self._overloaded_ticks = 0
            return
        self._overloaded_ticks += 1
        if self._overloaded_ticks < self.overload_grace_ticks:
            return
        excess = total - self.max_queued_windows
        depths: dict[str, int] = {}
        for worker in self.workers:
            depths.update(worker.queue_depths())
        # Lowest priority first; deepest queue first within a priority.
        order = sorted(
            (sid for sid in depths if sid in self._streams),
            key=lambda sid: (self._streams[sid].priority, -depths[sid]),
        )
        for sid in order:
            if excess <= 0:
                break
            take = min(depths[sid], excess)
            if take <= 0:
                continue
            dropped = self.workers[self._streams[sid].shard].shed(sid, take)
            excess -= dropped
            self._shed_total += dropped

    def _export_health_gauges(self) -> None:
        health = self.health()
        for shard in health.shards:
            gauge("serving.shard.health", shard=str(shard.shard_id)).set(
                _HEALTH_VALUE.get(shard.state, 2.0)
            )
        gauge("serving.streams.active").set(float(len(self._streams)))
