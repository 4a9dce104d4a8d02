"""Shard workers: in-process shards and supervised worker processes.

The fleet never touches a bare ``multiprocessing.Pool`` (lint rule
RPR011): shards run behind the :class:`ShardWorker` interface, either
in-process (:class:`InlineShardWorker` — the default, right for small
fleets where process isolation would cost more than it buys) or in a
dedicated OS process (:class:`ProcessShardWorker` — one process per
shard, read logs shipped through shared memory above a size
threshold).  The process variant is what makes worker *crash*
detection meaningful: :meth:`ShardWorker.alive` goes False when the
worker dies, and the fleet reassigns its streams to a replacement.

The RPC protocol is deliberately tiny — one request queue, one
response queue, strictly one outstanding request — because the fleet
drives every shard from a single control thread.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.serving.shard import ShardServer
from repro.serving.sharedlog import ShippedLog, ship_log, unship_log

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.streaming import WindowDecision
    from repro.hardware.llrp import ReadLog

__all__ = [
    "InlineShardWorker",
    "ProcessShardWorker",
    "ShardWorker",
    "TickResult",
    "WorkerCrashedError",
]

_RESPONSE_POLL_S = 0.1
_DEFAULT_RPC_TIMEOUT_S = 120.0


class WorkerCrashedError(RuntimeError):
    """The worker process died before answering a request."""

    def __init__(self, shard_id: int, detail: str) -> None:
        super().__init__(f"shard {shard_id} worker crashed: {detail}")
        self.shard_id = shard_id


@dataclass(frozen=True)
class TickResult:
    """One worker tick's outcome.

    Attributes:
        decisions: stream id → decisions emitted this tick.
        depths: stream id → queue depth *after* the tick.
    """

    decisions: dict[str, list["WindowDecision"]]
    depths: dict[str, int]


class ShardWorker:
    """The interface every shard worker implements.

    Methods mirror :class:`~repro.serving.shard.ShardServer`; the
    fleet only ever talks to workers through this surface, so swapping
    inline shards for process workers is a constructor argument, not a
    rewrite.
    """

    shard_id: int

    def add_stream(
        self, stream_id: str, priority: int = 0, calibrator: object = None
    ) -> None:
        """Create a lane for an admitted stream."""
        raise NotImplementedError

    def remove_stream(self, stream_id: str) -> None:
        """Evict a lane."""
        raise NotImplementedError

    def stream_ids(self) -> list[str]:
        """Streams laned on this worker."""
        raise NotImplementedError

    def submit(self, stream_id: str, log: "ReadLog") -> int:
        """Window a log into the stream's queue; returns windows added."""
        raise NotImplementedError

    def tick(self) -> TickResult:
        """Serve one round; returns decisions and post-tick depths."""
        raise NotImplementedError

    def queue_depths(self) -> dict[str, int]:
        """Stream id → queued windows."""
        raise NotImplementedError

    def shed(self, stream_id: str, n_windows: int) -> int:
        """Drop up to n oldest windows of one stream; returns dropped."""
        raise NotImplementedError

    def health(self) -> dict[str, dict]:
        """Stream id → supervisor health dict."""
        raise NotImplementedError

    def alive(self) -> bool:
        """True while the worker can serve."""
        raise NotImplementedError

    def stop(self) -> None:
        """Shut the worker down (idempotent)."""
        raise NotImplementedError


class InlineShardWorker(ShardWorker):
    """A shard served in the fleet's own process.

    Args:
        shard_id: shard index (metrics).
        identifier_factory: see :class:`ShardServer`.
        windows_per_stream: see :class:`ShardServer`.
        supervisor_kwargs: see :class:`ShardServer`.
    """

    def __init__(
        self,
        shard_id: int,
        identifier_factory: Callable,
        windows_per_stream: int = 4,
        supervisor_kwargs: dict | None = None,
    ) -> None:
        self.shard_id = int(shard_id)
        self._shard = ShardServer(
            shard_id,
            identifier_factory,
            windows_per_stream=windows_per_stream,
            supervisor_kwargs=supervisor_kwargs,
        )
        self._stopped = False

    def add_stream(
        self, stream_id: str, priority: int = 0, calibrator: object = None
    ) -> None:
        """Create a lane for an admitted stream."""
        self._shard.add_stream(stream_id, priority=priority, calibrator=calibrator)

    def remove_stream(self, stream_id: str) -> None:
        """Evict a lane."""
        self._shard.remove_stream(stream_id)

    def stream_ids(self) -> list[str]:
        """Streams laned on this worker."""
        return self._shard.stream_ids()

    def submit(self, stream_id: str, log: "ReadLog") -> int:
        """Window a log into the stream's queue; returns windows added."""
        return self._shard.submit(stream_id, log)

    def tick(self) -> TickResult:
        """Serve one round; returns decisions and post-tick depths."""
        decisions = self._shard.tick()
        return TickResult(decisions=decisions, depths=self._shard.queue_depths())

    def queue_depths(self) -> dict[str, int]:
        """Stream id → queued windows."""
        return self._shard.queue_depths()

    def shed(self, stream_id: str, n_windows: int) -> int:
        """Drop up to n oldest windows of one stream; returns dropped."""
        return self._shard.shed(stream_id, n_windows)

    def health(self) -> dict[str, dict]:
        """Stream id → supervisor health dict."""
        return self._shard.health()

    def alive(self) -> bool:
        """Inline workers live exactly as long as the fleet process."""
        return not self._stopped

    def stop(self) -> None:
        """Shut the worker down (idempotent)."""
        self._stopped = True


def _worker_main(
    shard_id: int,
    requests,
    responses,
    identifier_factory: Callable,
    windows_per_stream: int,
    supervisor_kwargs: dict | None,
) -> None:
    """Worker-process loop: build the shard, answer RPCs until 'stop'."""
    shard = ShardServer(
        shard_id,
        identifier_factory,
        windows_per_stream=windows_per_stream,
        supervisor_kwargs=supervisor_kwargs,
    )
    while True:
        cmd, args = requests.get()
        if cmd == "stop":
            responses.put(("ok", None))
            return
        if cmd == "crash":  # test hook: simulate a hard worker death
            os._exit(13)
        try:
            if cmd == "add_stream":
                result = shard.add_stream(*args)
            elif cmd == "remove_stream":
                result = shard.remove_stream(*args)
            elif cmd == "stream_ids":
                result = shard.stream_ids()
            elif cmd == "submit":
                shipped: ShippedLog = args[1]
                result = shard.submit(args[0], unship_log(shipped))
            elif cmd == "tick":
                result = TickResult(
                    decisions=shard.tick(), depths=shard.queue_depths()
                )
            elif cmd == "queue_depths":
                result = shard.queue_depths()
            elif cmd == "shed":
                result = shard.shed(*args)
            elif cmd == "health":
                result = shard.health()
            else:
                raise ValueError(f"unknown worker command {cmd!r}")
        except Exception as exc:
            responses.put(("error", (type(exc).__name__, str(exc))))
        else:
            responses.put(("ok", result))


class ProcessShardWorker(ShardWorker):
    """A shard served by a dedicated OS process.

    Read logs are shipped through shared memory above the
    :data:`~repro.serving.sharedlog.SHARED_MEMORY_MIN_BYTES`
    threshold; everything else crosses the command queues pickled.
    ``identifier_factory`` must be importable from the child process
    (a module-level callable).

    Args:
        shard_id: shard index (metrics).
        identifier_factory: zero-argument callable building the
            shard's identifiers inside the worker process.
        windows_per_stream: see :class:`ShardServer`.
        supervisor_kwargs: see :class:`ShardServer`.
        rpc_timeout_s: how long a single request may take before the
            worker is declared crashed.
    """

    def __init__(
        self,
        shard_id: int,
        identifier_factory: Callable,
        windows_per_stream: int = 4,
        supervisor_kwargs: dict | None = None,
        rpc_timeout_s: float = _DEFAULT_RPC_TIMEOUT_S,
    ) -> None:
        import multiprocessing as mp

        self.shard_id = int(shard_id)
        self.rpc_timeout_s = float(rpc_timeout_s)
        ctx = mp.get_context()
        self._requests = ctx.Queue()
        self._responses = ctx.Queue()
        self._process = ctx.Process(
            target=_worker_main,
            args=(
                shard_id,
                self._requests,
                self._responses,
                identifier_factory,
                windows_per_stream,
                supervisor_kwargs,
            ),
            daemon=True,
        )
        self._process.start()
        self._stopped = False

    def _call(self, cmd: str, *args: object):
        import queue as queue_mod
        import time

        if not self.alive():
            raise WorkerCrashedError(self.shard_id, "worker is not running")
        self._requests.put((cmd, args))
        deadline = time.monotonic() + self.rpc_timeout_s
        while True:
            try:
                status, payload = self._responses.get(timeout=_RESPONSE_POLL_S)
            except queue_mod.Empty:
                if not self._process.is_alive():
                    raise WorkerCrashedError(
                        self.shard_id,
                        f"exitcode={self._process.exitcode} during {cmd!r}",
                    ) from None
                if time.monotonic() > deadline:
                    raise WorkerCrashedError(
                        self.shard_id, f"request {cmd!r} timed out"
                    ) from None
                continue
            if status == "error":
                name, message = payload
                raise RuntimeError(
                    f"shard {self.shard_id} worker error in {cmd!r}: "
                    f"{name}: {message}"
                )
            return payload

    def crash(self) -> None:
        """Test hook: make the worker process die hard (``os._exit``)."""
        if self.alive():
            self._requests.put(("crash", ()))
            self._process.join(timeout=5.0)

    def add_stream(
        self, stream_id: str, priority: int = 0, calibrator: object = None
    ) -> None:
        """Create a lane for an admitted stream."""
        self._call("add_stream", stream_id, priority, calibrator)

    def remove_stream(self, stream_id: str) -> None:
        """Evict a lane."""
        self._call("remove_stream", stream_id)

    def stream_ids(self) -> list[str]:
        """Streams laned on this worker."""
        return self._call("stream_ids")

    def submit(self, stream_id: str, log: "ReadLog") -> int:
        """Ship a log to the worker; returns windows enqueued there."""
        return self._call("submit", stream_id, ship_log(log))

    def tick(self) -> TickResult:
        """Serve one round; returns decisions and post-tick depths."""
        return self._call("tick")

    def queue_depths(self) -> dict[str, int]:
        """Stream id → queued windows."""
        return self._call("queue_depths")

    def shed(self, stream_id: str, n_windows: int) -> int:
        """Drop up to n oldest windows of one stream; returns dropped."""
        return self._call("shed", stream_id, n_windows)

    def health(self) -> dict[str, dict]:
        """Stream id → supervisor health dict."""
        return self._call("health")

    def alive(self) -> bool:
        """True while the worker process is running."""
        return (
            not self._stopped
            and self._process is not None
            and self._process.is_alive()
        )

    def stop(self) -> None:
        """Shut the worker process down (idempotent)."""
        if self._stopped:
            return
        self._stopped = True
        if self._process.is_alive():
            try:
                self._requests.put(("stop", ()))
                self._process.join(timeout=5.0)
            finally:
                if self._process.is_alive():  # pragma: no cover - hard stop
                    self._process.terminate()
                    self._process.join(timeout=5.0)
        self._requests.close()
        self._responses.close()
