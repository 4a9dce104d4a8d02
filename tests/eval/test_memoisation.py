"""Harness memoisation: one corpus, one training, many drivers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import M2AIConfig
from repro.data import GenerationConfig
from repro.eval import clear_cache, get_dataset, train_eval_m2ai

TINY = GenerationConfig(
    scenario_labels=("A01", "A03"),
    samples_per_class=3,
    duration_s=3.2,
    calibration_s=20.0,
    seed=171,
)
TRAIN = M2AIConfig(
    conv_channels=(3, 4), branch_dim=6, merge_dim=8, lstm_hidden=6,
    lstm_layers=1, epochs=3, batch_size=4, warmup_frames=1,
)


@pytest.fixture(autouse=True)
def isolated_cache(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    clear_cache()
    yield
    clear_cache()


class TestDatasetMemo:
    def test_same_object_returned(self):
        a = get_dataset(TINY)
        b = get_dataset(TINY)
        assert a is b

    def test_featurizer_key_separates(self):
        from repro.dsp.features import M2AIFeaturizer

        a = get_dataset(TINY)
        b = get_dataset(TINY, featurizer=M2AIFeaturizer("rssi"))
        assert a is not b
        assert set(b.channel_shapes) == {"rssi"}

    def test_calibration_key_separates(self):
        a = get_dataset(TINY, use_calibration=True)
        b = get_dataset(TINY, use_calibration=False)
        assert a is not b


class TestTrainMemo:
    def test_repeat_call_returns_same_model(self):
        ds = get_dataset(TINY)
        result_a, pipe_a = train_eval_m2ai(ds, TRAIN, split_seed=0, test_fraction=0.34)
        result_b, pipe_b = train_eval_m2ai(ds, TRAIN, split_seed=0, test_fraction=0.34)
        assert pipe_a is pipe_b
        assert result_a.accuracy == result_b.accuracy

    def test_different_mode_not_shared(self):
        ds = get_dataset(TINY)
        _r1, pipe_a = train_eval_m2ai(ds, TRAIN, mode="cnn_lstm", split_seed=0, test_fraction=0.34)
        _r2, pipe_b = train_eval_m2ai(ds, TRAIN, mode="cnn", split_seed=0, test_fraction=0.34)
        assert pipe_a is not pipe_b

    def test_dead_dataset_entries_are_evicted(self):
        """Regression: the memo was keyed on id(dataset).

        After a dataset died, CPython could hand its id to a new
        dataset and a later caller got a model trained on *different*
        data.  The handle-keyed memo evicts entries when their dataset
        is collected, and a recycled id can never alias a stale key.
        """
        import gc

        from repro.eval import harness

        base = get_dataset(TINY)
        indices = np.arange(len(base))

        d1 = base.subset(indices)
        key1 = harness._train_memo_key(d1, TRAIN, "cnn_lstm", 0, 0.34)
        harness._TRAIN_MEMO[key1] = ("stale-sentinel", None)
        old_id = id(d1)
        del d1
        gc.collect()
        # Eviction: the dead dataset's entry is gone, not waiting to
        # be served to whoever inherits its id.
        assert key1 not in harness._TRAIN_MEMO

        # Force the id-reuse scenario: allocate identical datasets
        # until CPython hands back the dead object's address (the
        # freelist usually does this on the first try).
        d2 = base.subset(indices)
        for _ in range(64):
            if id(d2) == old_id:
                break
            del d2
            gc.collect()
            d2 = base.subset(indices)
        key2 = harness._train_memo_key(d2, TRAIN, "cnn_lstm", 0, 0.34)
        # Whether or not the id was recycled, the new dataset must get
        # a fresh key; with the old id()-keying this assertion fails
        # whenever the loop above achieved reuse.
        assert key2 != key1

    def test_same_dataset_key_is_stable(self):
        from repro.eval import harness

        ds = get_dataset(TINY)
        key_a = harness._train_memo_key(ds, TRAIN, "cnn_lstm", 0, 0.34)
        key_b = harness._train_memo_key(ds, TRAIN, "cnn_lstm", 0, 0.34)
        assert key_a == key_b

    def test_clear_cache_resets(self):
        ds = get_dataset(TINY)
        _r, pipe_a = train_eval_m2ai(ds, TRAIN, split_seed=0, test_fraction=0.34)
        clear_cache()
        ds2 = get_dataset(TINY)
        _r2, pipe_b = train_eval_m2ai(ds2, TRAIN, split_seed=0, test_fraction=0.34)
        assert pipe_a is not pipe_b
