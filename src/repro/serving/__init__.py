"""Multi-tenant fleet serving with per-stream fault isolation.

One fitted pipeline, many independent read streams: the fleet admits
streams up to capacity, shards them across in-process
:class:`ShardServer` shards, wraps each stream in its own supervisor
so faults degrade only their own stream, and batches inference across
streams inside each shard.  Quickstart::

    from repro.serving import FleetServer

    fleet = FleetServer(make_identifier, capacity=64, n_shards=4)
    fleet.admit("room-12", priority=1)
    fleet.submit("room-12", log)
    decisions = fleet.tick()          # {"room-12": [WindowDecision, ...]}
    print(fleet.health().state)       # "healthy" / "degraded" / "failed"

``python -m repro.eval.serving`` checks the isolation guarantees and
the fleet's control surface; perfbench's ``serve`` workload
(``python3 perfbench/run.py --workload serve``) is where serving
throughput and latency are measured.
"""

from repro.serving.fleet import (
    REASON_CAPACITY,
    AdmissionResult,
    FleetHealth,
    FleetServer,
    ShardHealth,
    SubmitReceipt,
)
from repro.serving.shard import (
    STAGE_BATCH_GUARD,
    STAGE_SHARD_LOST,
    STAGE_SHED,
    NonFiniteSampleError,
    ShardServer,
    StreamLane,
)

__all__ = [
    "REASON_CAPACITY",
    "STAGE_BATCH_GUARD",
    "STAGE_SHARD_LOST",
    "STAGE_SHED",
    "AdmissionResult",
    "FleetHealth",
    "FleetServer",
    "NonFiniteSampleError",
    "ShardHealth",
    "ShardServer",
    "StreamLane",
    "SubmitReceipt",
]
