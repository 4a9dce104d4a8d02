"""The isolation smoke test: poison one stream, the rest don't notice.

This is the fleet's core promise — a NaN-poisoned tenant degrades
only itself.  The benchmark (``python -m repro.eval.serving``) proves
the same property at scale with latency bounds; this test is the fast
CI gate.
"""

from __future__ import annotations

from repro.serving import FleetServer

from .conftest import make_factory, make_log, poison_log

N_STREAMS = 10
POISONED = {"s0"}  # 10% of the fleet


def _decision_keys(decisions):
    return {
        sid: [(round(d.t_start_s, 6), d.label, d.abstained, d.reason) for d in ds]
        for sid, ds in decisions.items()
    }


def _run_fleet(poison: bool):
    fleet = FleetServer(make_factory(), capacity=N_STREAMS, n_shards=2)
    logs = {
        f"s{i}": make_log(n=1200, seed=i, duration_s=10.0)
        for i in range(N_STREAMS)
    }
    for sid in logs:
        fleet.admit(sid)
    for sid, log in logs.items():
        if poison and sid in POISONED:
            fleet.submit(sid, poison_log(log, fraction=0.5, seed=99))
        else:
            fleet.submit(sid, log)
    decisions = fleet.drain()
    health = fleet.health()
    fleet.stop()
    return _decision_keys(decisions), health


def test_poisoned_stream_leaves_healthy_streams_unchanged():
    baseline, _ = _run_fleet(poison=False)
    poisoned, health = _run_fleet(poison=True)

    healthy = [sid for sid in baseline if sid not in POISONED]
    unchanged = [sid for sid in healthy if poisoned[sid] == baseline[sid]]
    # The acceptance bar is >= 95% unchanged; this fleet should be exact.
    assert len(unchanged) >= 0.95 * len(healthy), (
        sorted(set(healthy) - set(unchanged))
    )

    # The poisoned stream itself still answered every window.
    assert len(poisoned["s0"]) == len(baseline["s0"])

    # And the damage is visible where it belongs: only s0 degraded.
    states = health.stream_states()
    assert all(
        states[sid] == "healthy" for sid in healthy
    ), {s: states[s] for s in healthy if states[s] != "healthy"}


def test_poisoned_stream_never_raises_out_of_tick():
    fleet = FleetServer(make_factory(), capacity=4, n_shards=1)
    for i in range(4):
        fleet.admit(f"s{i}")
    log = make_log(n=1200, seed=3, duration_s=10.0)
    for i in range(4):
        fleet.submit(
            f"s{i}", poison_log(log, fraction=1.0) if i == 0 else log
        )
    decisions = fleet.drain()  # must not raise
    assert sum(len(ds) for ds in decisions.values()) == 4 * 4
