"""Harness memoisation: one corpus, one training, many drivers."""

from __future__ import annotations

from dataclasses import replace

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
        a = get_dataset(TINY)
        b = get_dataset(TINY, channel_set="rssi")
        assert a is not b
        assert set(b.channel_shapes) == {"rssi"}

    def test_calibration_key_separates(self):
        a = get_dataset(TINY, use_calibration=True)
        b = get_dataset(TINY, use_calibration=False)
        assert a is not b


class TestTrainMemo:
    def test_repeat_call_returns_same_model(self):
        result_a, pipe_a = train_eval_m2ai(TINY, TRAIN, split_seed=0)
        result_b, pipe_b = train_eval_m2ai(TINY, TRAIN, split_seed=0)
        assert pipe_a is pipe_b
        assert result_a.accuracy == result_b.accuracy

    def test_different_mode_not_shared(self):
        _r1, pipe_a = train_eval_m2ai(TINY, TRAIN, mode="cnn_lstm", split_seed=0)
        _r2, pipe_b = train_eval_m2ai(TINY, TRAIN, mode="cnn", split_seed=0)
        assert pipe_a is not pipe_b

    def test_equal_configs_built_separately_share_one_fit(self):
        """The memo keys on content, not on which object was passed."""
        corpus = replace(TINY, seed=TINY.seed)
        training = replace(TRAIN, epochs=TRAIN.epochs)
        assert corpus is not TINY and training is not TRAIN
        _r1, pipe_a = train_eval_m2ai(TINY, TRAIN, split_seed=0)
        _r2, pipe_b = train_eval_m2ai(corpus, training, split_seed=0)
        assert pipe_a is pipe_b

    @pytest.mark.parametrize(
        "change",
        [
            pytest.param({"corpus": replace(TINY, seed=TINY.seed + 1)}, id="corpus"),
            pytest.param({"channel_set": "rssi"}, id="channel_set"),
            pytest.param({"use_calibration": False}, id="use_calibration"),
            pytest.param({"training": replace(TRAIN, seed=TRAIN.seed + 1)}, id="training"),
            pytest.param({"mode": "cnn"}, id="mode"),
            pytest.param({"split_seed": 1}, id="split_seed"),
        ],
    )
    def test_changing_one_key_field_gives_a_new_fit(self, change):
        _r, base = train_eval_m2ai(TINY, TRAIN, split_seed=0)
        args = {"corpus": TINY, "training": TRAIN, "split_seed": 0, **change}
        _r, changed = train_eval_m2ai(args.pop("corpus"), args.pop("training"), **args)
        assert changed is not base

    def test_clear_cache_resets(self):
        _r, pipe_a = train_eval_m2ai(TINY, TRAIN, split_seed=0)
        clear_cache()
        _r2, pipe_b = train_eval_m2ai(TINY, TRAIN, split_seed=0)
        assert pipe_a is not pipe_b
