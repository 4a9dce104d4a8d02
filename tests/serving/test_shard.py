"""ShardServer: cross-stream batching, poison hygiene, per-lane isolation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.streaming import REASON_STAGE_FAILURE
from repro.runtime.supervisor import HEALTH_DEGRADED, HEALTH_HEALTHY
from repro.serving import FleetServer
from repro.serving.shard import STAGE_BATCH_GUARD, STAGE_SHED, ShardServer

from .conftest import StubPipeline, make_factory, make_log, poison_log


def _decisions_by_key(out):
    return {
        (sid, round(d.t_start_s, 6)): (
            d.label, d.confidence, d.n_reads, d.abstained, d.reason
        )
        for sid, ds in out.items()
        for d in ds
    }


def _shard_decisions(factory, logs):
    shard = ShardServer(0, factory, windows_per_stream=8)
    for sid, log in logs.items():
        shard.add_stream(sid)
        shard.submit(sid, log)
    out = {}
    while sum(shard.queue_depths().values()):
        for sid, ds in shard.tick().items():
            out.setdefault(sid, []).extend(ds)
    return out


def _fleet_decisions(factory, logs):
    fleet = FleetServer(
        factory,
        capacity=len(logs),
        n_shards=2,
        mode="inline",
        windows_per_stream_per_tick=8,
    )
    for sid in logs:
        fleet.admit(sid)
    for sid, log in logs.items():
        fleet.submit(sid, log)
    out = fleet.drain()
    fleet.stop()
    return out


class TestBatchingEquivalence:
    @pytest.mark.parametrize(
        "serve", [_shard_decisions, _fleet_decisions], ids=["shard", "fleet"]
    )
    def test_decisions_equal_identify(self, serve):
        """Pooled serving decides exactly what per-log ``identify`` does."""
        factory = make_factory()
        logs = {
            f"s{i}": make_log(n=1500, seed=i, duration_s=10.0) for i in range(4)
        }
        served = _decisions_by_key(serve(factory, logs))
        reference = _decisions_by_key(
            {sid: factory().identify(log) for sid, log in logs.items()}
        )
        assert served == reference
        assert len(served) == 4 * 4  # 4 streams x 4 windows

    def test_batched_mode_actually_batches(self):
        from repro import obs

        obs.enable()
        shard = ShardServer(0, make_factory(), windows_per_stream=4)
        for i in range(3):
            shard.add_stream(f"s{i}")
            shard.submit(f"s{i}", make_log(n=1500, seed=i, duration_s=10.0))
        shard.tick()
        values = {
            m.name: getattr(m, "value", None)
            for m in obs.get_registry().collect()
            if m.name.startswith("serving.batch")
        }
        assert values.get("serving.batch.predicts_total", 0) >= 1


class TestPoisonHygiene:
    def test_nan_stream_quarantined_others_unchanged(self):
        clean_logs = {
            f"s{i}": make_log(n=1500, seed=i, duration_s=10.0) for i in range(4)
        }
        # Baseline: all streams clean.
        shard = ShardServer(0, make_factory(), windows_per_stream=8)
        for sid, log in clean_logs.items():
            shard.add_stream(sid)
            shard.submit(sid, log)
        baseline = _decisions_by_key(shard.tick())

        # Same fleet, but s0's log is NaN-poisoned.
        shard = ShardServer(0, make_factory(), windows_per_stream=8)
        for sid, log in clean_logs.items():
            shard.add_stream(sid)
            shard.submit(sid, poison_log(log) if sid == "s0" else log)
        poisoned = _decisions_by_key(shard.tick())

        for key, value in baseline.items():
            sid = key[0]
            if sid == "s0":
                continue
            assert poisoned[key] == value, key  # healthy streams unchanged

        s0 = [v for k, v in poisoned.items() if k[0] == "s0"]
        assert s0, "poisoned stream must still emit decisions"
        assert all(abstained for *_, abstained, _ in s0)

    def test_poison_lands_in_own_lane_dead_letters_only(self):
        shard = ShardServer(0, make_factory(), windows_per_stream=8)
        shard.add_stream("bad")
        shard.add_stream("good")
        log = make_log(n=1500, seed=0, duration_s=10.0)
        shard.submit("bad", poison_log(log))
        shard.submit("good", make_log(n=1500, seed=1, duration_s=10.0))
        shard.tick()
        health = shard.health()
        assert health["bad"]["state"] == HEALTH_DEGRADED
        assert health["bad"]["dead_letter_count"] > 0
        assert health["good"]["state"] == HEALTH_HEALTHY
        assert health["good"]["dead_letter_count"] == 0

    def test_nonfinite_sample_never_reaches_the_shared_batch(self):
        calls = []

        class RecordingPipeline(StubPipeline):
            def predict_proba(self, dataset):
                for sample in dataset.samples:
                    for arr in sample.channels.values():
                        calls.append(bool(np.all(np.isfinite(arr))))
                return super().predict_proba(dataset)

        shard = ShardServer(
            0, make_factory(pipeline=RecordingPipeline()), windows_per_stream=8
        )
        shard.add_stream("bad")
        shard.add_stream("good")
        log = make_log(n=1500, seed=0, duration_s=10.0)
        shard.submit("bad", poison_log(log))
        shard.submit("good", make_log(n=1500, seed=1, duration_s=10.0))
        out = shard.tick()
        assert calls, "the healthy stream must still be scored"
        assert all(calls), "no non-finite sample may enter predict_proba"
        bad = out.get("bad", [])
        # Quarantined windows degrade with batch-stage attribution when
        # featurisation produced a non-finite sample, or fail earlier in
        # DSP; either way they abstain.
        assert all(d.abstained for d in bad)


class TestBatchFallback:
    def test_batch_failure_falls_back_to_per_lane_predicts(self):
        class FlakyBatchPipeline(StubPipeline):
            def predict_proba(self, dataset):
                if len(dataset.samples) > 1:
                    raise RuntimeError("batched forward pass exploded")
                return super().predict_proba(dataset)

        shard = ShardServer(
            0, make_factory(pipeline=FlakyBatchPipeline()), windows_per_stream=8
        )
        for i in range(3):
            shard.add_stream(f"s{i}")
            shard.submit(f"s{i}", make_log(n=1500, seed=i, duration_s=10.0))
        out = shard.tick()
        # Every window still gets a labelled decision via the fallback.
        assert sum(len(ds) for ds in out.values()) == 3 * 4
        assert all(not d.abstained for ds in out.values() for d in ds)


class TestShedAndLanes:
    def test_shed_drops_oldest_and_dead_letters(self):
        shard = ShardServer(0, make_factory())
        shard.add_stream("s0")
        n = shard.submit("s0", make_log(n=1500, seed=0, duration_s=10.0))
        assert n == 4
        dropped = shard.shed("s0", 2)
        assert dropped == 2
        assert shard.queue_depths()["s0"] == 2
        letters = shard.lanes["s0"].supervisor.dead_letters()
        assert len(letters) == 2
        assert all(dl.stage == STAGE_SHED for dl in letters)
        # Oldest first: the surviving windows are the latest two.
        out = shard.tick()
        starts = sorted(d.t_start_s for d in out["s0"])
        assert starts == pytest.approx([4.8, 7.2])

    def test_shed_more_than_queued_returns_actual(self):
        shard = ShardServer(0, make_factory())
        shard.add_stream("s0")
        shard.submit("s0", make_log(n=400, seed=0, duration_s=3.0))
        assert shard.shed("s0", 99) == 1
        assert shard.shed("s0", 1) == 0

    def test_duplicate_stream_rejected(self):
        shard = ShardServer(0, make_factory())
        shard.add_stream("s0")
        with pytest.raises(ValueError):
            shard.add_stream("s0")

    def test_priority_orders_lane_service(self):
        shard = ShardServer(0, make_factory(), windows_per_stream=1)
        shard.add_stream("low", priority=0)
        shard.add_stream("high", priority=5)
        order = [lane.stream_id for lane in shard._lane_order()]
        assert order == ["high", "low"]

    def test_remove_stream_discards_queue(self):
        shard = ShardServer(0, make_factory())
        shard.add_stream("s0")
        shard.submit("s0", make_log(n=1500, seed=0, duration_s=10.0))
        shard.remove_stream("s0")
        assert shard.stream_ids() == []
        assert shard.tick() == {}


def test_stage_failure_reason_used_for_quarantine():
    assert STAGE_BATCH_GUARD == "serving.batch"
    assert REASON_STAGE_FAILURE == "stage_failure"
