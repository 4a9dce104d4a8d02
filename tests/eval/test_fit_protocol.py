"""No test-split sample reaches a fit or a val pass, in any driver.

Every M2AI fit (``Trainer.fit``) and every baseline fit records a digest
of each sample it is handed; the M2AI val pass is recorded from
``Trainer.fit``'s val inputs.  The scalers are made the identity for
these runs, so a digest (the sorted values of one sample) is the same
whether the sample reaches a fit as network channels, as a flat
baseline vector or as an HMM frame sequence.  The test parts are
recomputed here from the paper's rule, on every dataset the drivers
build.  Budgets are tiny: only who sees which sample matters.
"""

from __future__ import annotations

import hashlib
from collections import defaultdict

import numpy as np
import pytest

from repro.core.config import M2AIConfig
from repro.core.trainer import Trainer
from repro.data.generator import GenerationConfig, SyntheticDatasetGenerator, vary
from repro.eval import experiments as paper_drivers
from repro.eval import extensions, harness
from repro.experiments import domain_shift
from repro.ml.preprocessing import StandardScaler
from tests.experiments.toyreg import tiny_budget

SEED = 1
CORPUS = GenerationConfig(
    scenario_labels=("A01", "A03", "A07"),
    samples_per_class=5,
    duration_s=3.2,
    calibration_s=20.0,
    seed=SEED,
)
TRAINING = M2AIConfig(
    conv_channels=(3, 4), branch_dim=6, merge_dim=8, lstm_hidden=6,
    lstm_layers=1, epochs=2, batch_size=4, warmup_frames=1, seed=SEED,
)


def _tiny(quick=True, seed=0):
    return {"corpus": CORPUS, "training": TRAINING}


def _tiny_sweep(quick=True, seed=0):
    environments = ("laboratory", "hall")
    return {
        "corpus": {env: vary(CORPUS, environment=env) for env in environments},
        "training": TRAINING,
    }


def _tiny_runtime(quick=True, seed=0):
    corpus = vary(CORPUS, scenario_labels=("A01", "A03"), samples_per_class=8)
    return {"corpus": corpus, "training": TRAINING}


def _digest(values) -> str:
    flat = np.sort(np.asarray(values, dtype=np.float64).ravel())
    return hashlib.sha256(flat.tobytes()).hexdigest()


def _digests(dataset) -> set[str]:
    return {_digest(sample.flatten()) for sample in dataset.samples}


def _row_digests(rows) -> set[str]:
    return {_digest(row) for row in rows}


def _channel_digests(inputs: dict) -> set[str]:
    names = sorted(inputs)
    n = len(inputs[names[0]])
    return {_digest(np.concatenate([inputs[k][i].ravel() for k in names])) for i in range(n)}


class _StopAfterFit(Exception):
    pass


@pytest.fixture(scope="module")
def corpora(tmp_path_factory):
    """One corpus cache on disk for the whole module."""
    mp = pytest.MonkeyPatch()
    mp.setenv("REPRO_CACHE_DIR", str(tmp_path_factory.mktemp("corpora")))
    harness.clear_cache()
    yield
    harness.clear_cache()
    mp.undo()


@pytest.fixture
def seen(monkeypatch, corpora):
    """Record what every fit and val pass sees, and every dataset built."""
    harness.clear_cache()  # every driver fits afresh (corpora come from disk)
    log = defaultdict(set)
    log["datasets"] = []
    log["stop_after_fit"] = False
    real_fit = Trainer.fit

    def trainer_fit(self, inputs, label_ids, val_inputs=None, val_label_ids=None, **kw):
        log["m2ai fit"] |= _channel_digests(inputs)
        if val_inputs is not None:
            log["m2ai val"] |= _channel_digests(val_inputs)
        history = real_fit(self, inputs, label_ids, val_inputs, val_label_ids, **kw)
        if log["stop_after_fit"]:
            raise _StopAfterFit
        return history

    real_zoo = harness.baseline_zoo

    def zoo(rng):
        models = real_zoo(rng)
        for name, model in models.items():
            def fit(x, y, _model=model, _name=name):
                log[f"fit {_name}"] |= _row_digests(x)
                return type(_model).fit(_model, x, y)

            model.fit = fit
        return models

    class RecordingHMM(harness.HMMActivityClassifier):
        def fit(self, sequences, y):
            log["fit HMM"] |= _row_digests(sequences)
            return super().fit(sequences, y)

    real_get_dataset = harness.get_dataset

    def get_dataset(*args, **kwargs):
        dataset = real_get_dataset(*args, **kwargs)
        log["datasets"].append(dataset)
        return dataset

    monkeypatch.setattr(Trainer, "fit", trainer_fit)
    monkeypatch.setattr(StandardScaler, "transform", lambda self, x: np.array(x, dtype=float))
    monkeypatch.setattr(harness, "baseline_zoo", zoo)
    monkeypatch.setattr(harness, "HMMActivityClassifier", RecordingHMM)
    for module in (harness, paper_drivers, domain_shift):
        monkeypatch.setattr(module, "get_dataset", get_dataset, raising=False)
    for name in ("_headline", "_ablation"):
        monkeypatch.setattr(paper_drivers, name, _tiny)
    monkeypatch.setattr(paper_drivers, "_fig12", _tiny_sweep)
    monkeypatch.setattr(extensions, "_augmentation", _tiny)
    monkeypatch.setattr(domain_shift, "_budget", tiny_budget)
    monkeypatch.setattr(harness, "runtime_budget", _tiny_runtime)
    return log


def _test_part(dataset, fraction=0.2, seed=SEED):
    """The held-out part under the paper's rule, recomputed here."""
    return dataset.split(fraction, np.random.default_rng(seed))[1]


def _seen_by_fits(log) -> set[str]:
    keys = [k for k in log if k.startswith(("m2ai", "fit "))]
    return set().union(*(log[k] for k in keys))


def _assert_no_test_sample_seen(log, test_digests: set[str]) -> None:
    assert log["m2ai fit"] and log["m2ai val"], "no fit or no val pass was recorded"
    for key in [k for k in log if k.startswith(("m2ai", "fit "))]:
        assert not log[key] & test_digests, f"{key} saw test samples"


@pytest.mark.parametrize(
    "driver",
    [
        paper_drivers.run_fig09,
        paper_drivers.run_fig10,
        paper_drivers.run_fig12,
        paper_drivers.run_fig16,
        paper_drivers.run_fig17,
        extensions.run_ext_augmentation,
    ],
    ids=["fig09", "fig10", "fig12", "fig16", "fig17", "ext-augment"],
)
def test_figure_drivers_pick_nothing_on_test(seen, driver):
    driver(quick=True, seed=SEED)
    assert seen["datasets"]
    test_digests = set().union(*(_digests(_test_part(d)) for d in seen["datasets"]))
    _assert_no_test_sample_seen(seen, test_digests)
    # Every sample a fit saw belongs to one of the drivers' datasets.
    every = set().union(*(_digests(d) for d in seen["datasets"]))
    assert _seen_by_fits(seen) <= every


def test_fig09_baselines_fit_on_the_m2ai_fit_part(seen):
    paper_drivers.run_fig09(quick=True, seed=SEED)
    baseline_keys = [k for k in seen if k.startswith("fit ")]
    assert len(baseline_keys) == 10
    for key in baseline_keys:
        assert seen[key] == seen["m2ai fit"], key
    assert not seen["m2ai fit"] & seen["m2ai val"]


def test_domain_shift_same_env_arm_scores_an_unpicked_test_part(seen):
    domain_shift.run_domain_shift(quick=True, seed=SEED, source="laboratory", target="hall")
    source, target = seen["datasets"]
    tests = _digests(_test_part(source)) | _digests(_test_part(target, 0.5, SEED + 1))
    _assert_no_test_sample_seen(seen, tests)


def test_runtime_study_picks_its_epoch_on_train_alone(seen):
    from repro.eval.robustness import run_ext_robustness

    seen["stop_after_fit"] = True
    with pytest.raises(_StopAfterFit):
        run_ext_robustness(quick=True, seed=SEED)
    workload = harness.runtime_workload(True, SEED)
    held_out = SyntheticDatasetGenerator(_tiny_runtime()["corpus"]).featurize(workload.held_out)
    _assert_no_test_sample_seen(seen, _digests(held_out))
    assert seen["m2ai fit"] | seen["m2ai val"] == _digests(workload.train)
