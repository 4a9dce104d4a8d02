"""ResultsStore durability: atomic publish, quarantine, resume."""

from __future__ import annotations

import json
import warnings

import pytest

from repro.experiments import ResultRecord, ResultsStore, make_spec
from repro.experiments.store import atomic_write_text
from tests.experiments.toyreg import run_toy


def make_record(seed=0, elapsed=1.0):
    spec = make_spec("toy", "quick", seed)
    return ResultRecord.from_result(spec, run_toy(seed=seed), elapsed)


@pytest.fixture()
def store(tmp_path):
    return ResultsStore(tmp_path / "results")


class TestRoundTrip:
    def test_put_get(self, store):
        record = make_record()
        store.put(record)
        assert record.spec.key in store
        back = store.get(record.spec.key)
        assert back.to_payload() == record.to_payload()

    def test_absent_key(self, store):
        assert store.get("missing--quick--s0--000000000000") is None
        assert "whatever" not in store

    def test_keys_and_records_sorted(self, store):
        for seed in (3, 1, 2):
            store.put(make_record(seed))
        keys = store.keys()
        assert keys == sorted(keys)
        assert [r.spec.seed for r in store.records()] == [
            int(k.split("--s")[1].split("--")[0]) for k in keys
        ]

    def test_delete(self, store):
        record = make_record()
        store.put(record)
        assert store.delete(record.spec.key) is True
        assert store.delete(record.spec.key) is False
        assert record.spec.key not in store


class TestAtomicity:
    def test_no_temp_droppings(self, store):
        store.put(make_record())
        leftovers = [p for p in store.root.iterdir() if p.suffix == ".tmp"]
        assert leftovers == []

    def test_overwrite_is_atomic(self, store):
        record = make_record()
        store.put(record)
        record.elapsed_s = 42.0
        store.put(record)
        assert store.get(record.spec.key).elapsed_s == 42.0
        assert len(list(store.root.glob("*.json"))) == 1

    def test_failed_write_leaves_old_record(self, store, monkeypatch):
        record = make_record()
        store.put(record)

        def boom(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr("repro.experiments.store.os.replace", boom)
        broken = make_record(elapsed=99.0)
        with pytest.raises(OSError):
            store.put(broken)
        monkeypatch.undo()
        assert store.get(record.spec.key).elapsed_s == 1.0
        leftovers = [p for p in store.root.iterdir() if p.suffix == ".tmp"]
        assert leftovers == []


class TestQuarantine:
    def test_torn_write_is_quarantined_with_warning(self, store):
        record = make_record()
        path = store.put(record)
        # Simulate a crash mid-write that somehow hit the final path.
        path.write_text(record.to_json()[: len(record.to_json()) // 2])
        with pytest.warns(RuntimeWarning, match="unreadable"):
            assert store.get(record.spec.key) is None
        assert not path.exists()
        assert path.with_suffix(".corrupt").exists()

    def test_garbage_json_is_quarantined(self, store):
        record = make_record()
        path = store.path_for(record.spec.key)
        atomic_write_text(path, "{not json at all")
        with pytest.warns(RuntimeWarning):
            assert store.get(record.spec.key) is None

    def test_misfiled_record_is_quarantined(self, store):
        """A record copied under the wrong key must not be served."""
        record = make_record(seed=0)
        other = make_spec("toy", "quick", 9)
        atomic_write_text(store.path_for(other.key), record.to_json())
        with pytest.warns(RuntimeWarning, match="belongs to"):
            assert store.get(other.key) is None

    def test_records_skips_corrupt(self, store):
        good = make_record(seed=0)
        store.put(good)
        bad = make_record(seed=1)
        store.path_for(bad.spec.key).write_text("garbage")
        with pytest.warns(RuntimeWarning):
            records = store.records()
        assert [r.spec.key for r in records] == [good.spec.key]

    def test_tampered_payload_key_is_quarantined(self, store):
        record = make_record()
        payload = record.to_payload()
        payload["rows"][0]["measured"] = 0.123  # tamper without re-keying
        payload["key"] = "forged--quick--s0--abcdefabcdef"
        atomic_write_text(
            store.path_for(record.spec.key),
            json.dumps(payload, sort_keys=True),
        )
        with pytest.warns(RuntimeWarning):
            assert store.get(record.spec.key) is None


class TestStaleVersusUnreadable:
    def _stale(self, store):
        """A parseable record whose stored key is an older scheme's."""
        record = make_record(seed=2)
        payload = record.to_payload()
        payload["key"] = "toy--quick--s2--000000000000"
        atomic_write_text(store.path_for(payload["key"]), json.dumps(payload))
        return payload["key"]

    def _unreadable(self, store):
        key = make_record(seed=3).spec.key
        atomic_write_text(store.path_for(key), "{torn")
        return key

    def test_get_warning_names_the_kind(self, store):
        stale, unreadable = self._stale(store), self._unreadable(store)
        with pytest.warns(RuntimeWarning, match="^stale experiment record"):
            assert store.get(stale) is None
        with pytest.warns(RuntimeWarning, match="^unreadable experiment record"):
            assert store.get(unreadable) is None
        assert store.keys() == []

    def test_survey_reports_without_renaming(self, store):
        good = make_record(seed=0)
        store.put(good)
        stale, unreadable = self._stale(store), self._unreadable(store)
        before = sorted(p.name for p in store.root.iterdir())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            survey = store.survey()
        assert [r.spec.key for r in survey.records] == [good.spec.key]
        assert survey.stale == [stale]
        assert survey.unreadable == [unreadable]
        assert sorted(p.name for p in store.root.iterdir()) == before
