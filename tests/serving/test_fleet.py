"""FleetServer: admission, shedding, crash recovery, health roll-up."""

from __future__ import annotations

import pytest

from repro import obs
from repro.core.streaming import REASON_ADMISSION
from repro.runtime.supervisor import HEALTH_FAILED, HEALTH_HEALTHY
from repro.serving import REASON_CAPACITY, FleetServer

from .conftest import make_factory, make_identifier, make_log


def _fleet(**kwargs) -> FleetServer:
    kwargs.setdefault("capacity", 8)
    kwargs.setdefault("n_shards", 2)
    return FleetServer(make_factory(), **kwargs)


class TestAdmission:
    def test_admits_up_to_capacity_then_rejects_explicitly(self):
        fleet = _fleet(capacity=3)
        for i in range(3):
            result = fleet.admit(f"s{i}")
            assert result.admitted
            assert result.shard is not None
        rejected = fleet.admit("s3")
        assert not rejected.admitted
        assert rejected.reason == REASON_CAPACITY
        assert rejected.shard is None
        health = fleet.health()
        assert health.admitted_total == 3
        assert health.rejected_total == 1

    def test_rejected_stream_submissions_get_admission_abstains(self):
        fleet = _fleet(capacity=1)
        fleet.admit("in")
        fleet.admit("out")
        receipt = fleet.submit("out", make_log(n=1500, seed=0, duration_s=10.0))
        assert receipt.enqueued == 0
        assert len(receipt.decisions) == 4  # one per complete window
        assert all(d.abstained for d in receipt.decisions)
        assert all(d.reason == REASON_ADMISSION for d in receipt.decisions)

    def test_unknown_stream_submission_raises(self):
        fleet = _fleet()
        with pytest.raises(KeyError):
            fleet.submit("ghost", make_log(n=100))

    def test_duplicate_admission_raises(self):
        fleet = _fleet()
        fleet.admit("s0")
        with pytest.raises(ValueError):
            fleet.admit("s0")

    def test_eviction_frees_a_capacity_slot(self):
        fleet = _fleet(capacity=1)
        fleet.admit("a")
        assert not fleet.admit("b").admitted
        fleet.evict("a")
        assert fleet.admit("b").admitted

    def test_streams_spread_across_shards(self):
        fleet = _fleet(capacity=8, n_shards=2)
        shards = [fleet.admit(f"s{i}").shard for i in range(8)]
        assert shards.count(0) == 4
        assert shards.count(1) == 4

    def test_admission_counters_observable(self):
        obs.enable()
        fleet = _fleet(capacity=1)
        fleet.admit("a")
        fleet.admit("b")
        values = {m.name: m.value for m in obs.get_registry().collect()
                  if m.name.startswith("serving.admission")}
        assert values["serving.admission.admitted_total"] == 1.0
        assert values["serving.admission.rejected_total"] == 1.0


class TestConstruction:
    @pytest.mark.parametrize("mode", ["inline", "process"])
    def test_rejects_empty_tick_budget_before_spawning(self, mode, monkeypatch):
        spawned = []
        monkeypatch.setattr(
            FleetServer, "_spawn_worker", lambda self, i: spawned.append(i)
        )
        with pytest.raises(ValueError, match="windows_per_stream_per_tick"):
            FleetServer(make_identifier, mode=mode, windows_per_stream_per_tick=0)
        assert spawned == []


class TestServing:
    def test_drain_serves_every_stream(self):
        fleet = _fleet(capacity=4, n_shards=2)
        for i in range(4):
            fleet.admit(f"s{i}")
            fleet.submit(f"s{i}", make_log(n=1500, seed=i, duration_s=10.0))
        decisions = fleet.drain()
        assert set(decisions) == {f"s{i}" for i in range(4)}
        assert all(len(ds) == 4 for ds in decisions.values())
        assert fleet.total_queued() == 0

    def test_fleet_matches_single_supervisor_decisions(self):
        from repro.runtime import PipelineSupervisor

        log = make_log(n=1500, seed=7, duration_s=10.0)
        solo = PipelineSupervisor(make_identifier())
        solo.submit_stream(log)
        expected = [
            (round(d.t_start_s, 6), d.label, d.abstained) for d in solo.drain()
        ]

        fleet = _fleet(capacity=1, n_shards=1)
        fleet.admit("only")
        fleet.submit("only", log)
        got = [
            (round(d.t_start_s, 6), d.label, d.abstained)
            for d in fleet.drain()["only"]
        ]
        assert got == expected


class TestLoadShedding:
    def test_sustained_overload_sheds_lowest_priority_first(self):
        fleet = _fleet(
            capacity=4,
            n_shards=1,
            max_queued_windows=6,
            overload_grace_ticks=2,
            windows_per_stream_per_tick=1,
            supervisor_kwargs={"max_queue": 64},
        )
        fleet.admit("vip", priority=10)
        fleet.admit("std", priority=0)
        log = make_log(n=1500, seed=0, duration_s=10.0)
        for _ in range(2):
            fleet.submit("vip", log)
            fleet.submit("std", log)
        assert fleet.total_queued() == 16

        fleet.tick()  # tick 1: over watermark, within grace -> no shed yet
        health = fleet.health()
        assert health.shed_windows_total == 0

        fleet.tick()  # tick 2: sustained -> shed down to the watermark
        health = fleet.health()
        assert health.shed_windows_total > 0
        depths = fleet.workers[0].queue_depths()
        # The VIP stream must keep its windows; "std" pays the shed.
        assert depths["vip"] >= depths["std"]

    def test_transient_spike_not_shed(self):
        fleet = _fleet(
            capacity=2,
            n_shards=1,
            max_queued_windows=2,
            overload_grace_ticks=3,
            windows_per_stream_per_tick=8,
            supervisor_kwargs={"max_queue": 64},
        )
        fleet.admit("s0")
        fleet.submit("s0", make_log(n=1500, seed=0, duration_s=10.0))
        fleet.tick()  # backlog clears within one tick: grace never expires
        assert fleet.health().shed_windows_total == 0


class TestHealth:
    def test_healthy_fleet_reports_healthy(self):
        fleet = _fleet(capacity=2, n_shards=2)
        fleet.admit("a")
        fleet.admit("b")
        health = fleet.health()
        assert health.state == HEALTH_HEALTHY
        assert len(health.shards) == 2
        assert health.stream_states() == {"a": HEALTH_HEALTHY, "b": HEALTH_HEALTHY}

    def test_health_gauges_exported_on_tick(self):
        obs.enable()
        fleet = _fleet(capacity=2, n_shards=2)
        fleet.admit("a")
        fleet.tick()
        gauges = {
            (m.name, dict(m.labels).get("shard")): m.value
            for m in obs.get_registry().collect()
            if m.name == "serving.shard.health"
        }
        assert gauges[("serving.shard.health", "0")] == 0.0
        assert gauges[("serving.shard.health", "1")] == 0.0

    def test_dead_inline_worker_reports_failed_shard(self):
        fleet = _fleet(capacity=2, n_shards=2)
        fleet.admit("a")
        fleet.workers[0].stop()
        health = fleet.health()
        assert health.state == HEALTH_FAILED
        assert health.shards[0].state == HEALTH_FAILED
        assert health.shards[1].state == HEALTH_HEALTHY
