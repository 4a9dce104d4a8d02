"""Shared machinery for the experiment drivers.

Datasets are expensive (each sample simulates ~26 s of RF inventory),
so raw recordings are memoised per :class:`GenerationConfig` within the
process: Fig. 9, Table I, Fig. 10, Fig. 16 and Fig. 17 all reuse one
simulated corpus, exactly as the paper evaluates many methods on one
collected dataset.

Every model is chosen one way: :func:`split_test` holds out the
paper's test 20%, :func:`carve_val` takes a val part out of the rest,
and :func:`fit_m2ai` and :func:`eval_baselines` train on what is left.
The val part picks; the test part only scores.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.core.config import M2AIConfig
from repro.core.dataset import ActivityDataset
from repro.core.pipeline import EvaluationResult, M2AIPipeline, baseline_arrays
from repro.data.generator import GenerationConfig, RawSample, SyntheticDatasetGenerator
from repro.dsp.features import M2AIFeaturizer
from repro.ml import (
    AdaBoostClassifier,
    DecisionTreeClassifier,
    GaussianNB,
    GaussianProcessClassifier,
    HMMActivityClassifier,
    KNeighborsClassifier,
    LinearSVM,
    QuadraticDiscriminantAnalysis,
    RandomForestClassifier,
    RbfSVM,
    StandardScaler,
)

_RAW_CACHE: dict[GenerationConfig, list[RawSample]] = {}

_CACHE_VERSION = "v1"


def _disk_cache_dir() -> "Path | None":
    """Directory for on-disk corpus caching, or None when disabled.

    Defaults to ``<repo>/.repro_cache``; override with the
    ``REPRO_CACHE_DIR`` environment variable, or set it to the empty
    string to disable disk caching entirely.
    """
    import os
    from pathlib import Path

    value = os.environ.get("REPRO_CACHE_DIR")
    if value == "":
        return None
    if value:
        return Path(value)
    return Path(__file__).resolve().parents[3] / ".repro_cache"


def _cache_key(config: GenerationConfig) -> str:
    import hashlib

    return hashlib.sha256(
        f"{_CACHE_VERSION}|{config!r}".encode()
    ).hexdigest()[:24]


def get_raw_samples(config: GenerationConfig) -> list[RawSample]:
    """Simulated recordings for a config, memoised in process and on disk.

    The disk cache lets a later experiments run (or a worker process of
    the same run) reuse corpora instead of re-simulating tens of
    minutes of RF inventory.
    """
    import pickle

    if config in _RAW_CACHE:
        return _RAW_CACHE[config]
    cache_dir = _disk_cache_dir()
    path = cache_dir / f"raw-{_cache_key(config)}.pkl" if cache_dir else None
    if path is not None and path.exists():
        with open(path, "rb") as fh:
            samples = pickle.load(fh)
    else:
        samples = SyntheticDatasetGenerator(config).generate_raw()
        if path is not None:
            # Atomic publish: concurrent writers (parallel experiment
            # workers sharing the cache) must never expose a
            # half-written pickle.
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_suffix(f".tmp-{id(samples)}")
            with open(tmp, "wb") as fh:
                pickle.dump(samples, fh)
            tmp.replace(path)
    _RAW_CACHE[config] = samples
    return samples


_DATASET_MEMO: dict[tuple, ActivityDataset] = {}
_TRAIN_MEMO: dict[tuple, tuple[EvaluationResult, M2AIPipeline]] = {}


def get_dataset(
    config: GenerationConfig, channel_set: str = "m2ai", use_calibration: bool = True
) -> ActivityDataset:
    """The recordings of ``config`` featurised to one channel set, memoised per argument."""
    key = (config, channel_set, use_calibration)
    if key not in _DATASET_MEMO:
        _DATASET_MEMO[key] = SyntheticDatasetGenerator(config).featurize(
            get_raw_samples(config), M2AIFeaturizer(channel_set), use_calibration
        )
    return _DATASET_MEMO[key]


def clear_cache() -> None:
    """Drop memoised recordings (tests use this to bound memory)."""
    _RAW_CACHE.clear()
    _DATASET_MEMO.clear()
    _TRAIN_MEMO.clear()


def split_test(
    dataset: ActivityDataset, split_seed: int = 0
) -> tuple[ActivityDataset, ActivityDataset]:
    """The paper's stratified 80/20 ``(train, test)``; test only scores."""
    return dataset.split(0.2, np.random.default_rng(split_seed))


def carve_val(
    train: ActivityDataset, split_seed: int = 0
) -> tuple[ActivityDataset, ActivityDataset]:
    """Stratified ``(fit, val)`` parts of train; val (20%) picks, fit trains."""
    return train.split(0.2, np.random.default_rng(split_seed + 1))


def fit_m2ai(
    train: ActivityDataset,
    training: M2AIConfig,
    mode: str = "cnn_lstm",
    split_seed: int = 0,
) -> M2AIPipeline:
    """Fit on train's fit part, restoring the epoch best on its val part."""
    fit, val = carve_val(train, split_seed)
    return M2AIPipeline(training, mode=mode).fit(fit, val=val)


def train_eval_m2ai(
    corpus: GenerationConfig,
    training: M2AIConfig,
    *,
    channel_set: str = "m2ai",
    use_calibration: bool = True,
    mode: str = "cnn_lstm",
    split_seed: int = 0,
) -> tuple[EvaluationResult, M2AIPipeline]:
    """Split off the test 20%, :func:`fit_m2ai` on the rest, score on test.

    Memoised per process on the arguments, all of them values: Fig. 9
    and Table I report the same trained model, so the second driver
    does not pay for a second fit.
    """
    key = (corpus, training, channel_set, use_calibration, mode, split_seed)
    if key not in _TRAIN_MEMO:
        dataset = get_dataset(corpus, channel_set, use_calibration)
        train, test = split_test(dataset, split_seed)
        pipeline = fit_m2ai(train, training, mode, split_seed)
        _TRAIN_MEMO[key] = (pipeline.evaluate(test), pipeline)
    return _TRAIN_MEMO[key]


def runtime_training(quick: bool, seed: int) -> M2AIConfig:
    """The compact training config of the runtime studies."""
    return M2AIConfig(epochs=25 if quick else 45, batch_size=8, seed=seed)


def runtime_budget(quick: bool = True, seed: int = 0) -> dict:
    """The corpus and training budget of the runtime studies.

    Four activities; :func:`runtime_workload` renders the corpus.
    """
    corpus = GenerationConfig(
        scenario_labels=("A01", "A03", "A07", "A11"),
        samples_per_class=6 if quick else 12,
        duration_s=6.0,
        calibration_s=20.0,
        seed=seed,
    )
    return {"corpus": corpus, "training": runtime_training(quick, seed)}


@dataclass(frozen=True)
class RuntimeWorkload:
    """Recordings of the runtime studies, split into train and held out.

    Attributes:
        raw: every recording, in generation order.
        held_out: the seeded 25% (at least 4) the studies serve.
        train: the featurised remainder.
        training: :func:`runtime_training` for the same mode and seed.
    """

    raw: list[RawSample]
    held_out: list[RawSample]
    train: ActivityDataset
    training: M2AIConfig

    @property
    def window_s(self) -> float:
        """One whole recording as a serving window."""
        return self.raw[0].n_frames * self.raw[0].log.meta.dwell_s


def runtime_workload(quick: bool, seed: int) -> RuntimeWorkload:
    """The shared workload of the robustness, resilience and serving studies.

    Four activities, featurised training split; the held-out
    recordings are left raw so the studies can serve them as streams.
    """
    budget = runtime_budget(quick, seed)
    config = budget["corpus"]
    raw = get_raw_samples(config)
    order = np.random.default_rng(seed).permutation(len(raw))
    n_held = max(4, int(0.25 * len(raw)))
    train = SyntheticDatasetGenerator(config).featurize(
        [raw[i] for i in order[n_held:]]
    )
    return RuntimeWorkload(
        raw=raw,
        held_out=[raw[i] for i in order[:n_held]],
        train=train,
        training=budget["training"],
    )


def baseline_zoo(rng: np.random.Generator) -> dict[str, object]:
    """Fresh instances of the nine flat-feature Fig. 9 baselines.

    The HMM baseline is handled separately (it consumes frame
    *sequences*, not flat vectors) — see :func:`eval_baselines`.
    """
    zoo: dict[str, object] = {
        "Nearest Neighbors": KNeighborsClassifier(n_neighbors=3),
        "Linear SVM": LinearSVM(
            epochs=30, rng=np.random.default_rng(rng.integers(2**31))
        ),
        "RBF SVM": RbfSVM(epochs=20, rng=np.random.default_rng(rng.integers(2**31))),
        "Gaussian Process": GaussianProcessClassifier(),
        "Decision Tree": DecisionTreeClassifier(
            max_depth=10, rng=np.random.default_rng(rng.integers(2**31))
        ),
        "Random Forest": RandomForestClassifier(
            n_estimators=25, rng=np.random.default_rng(rng.integers(2**31))
        ),
        "Adaptive Boosting": AdaBoostClassifier(
            n_estimators=25,
            max_depth=2,
            max_features="sqrt",
            rng=np.random.default_rng(rng.integers(2**31)),
        ),
        "Bayesian Net": GaussianNB(),
        "QDA": QuadraticDiscriminantAnalysis(reg_param=0.5),
    }
    return zoo


class BaselineScore(NamedTuple):
    """One baseline's accuracy on the val part and on the test part."""

    val: float
    test: float


def eval_baselines(
    dataset: ActivityDataset,
    split_seed: int = 0,
    include_hmm: bool = True,
) -> dict[str, BaselineScore]:
    """Every classical baseline fitted on the part :func:`fit_m2ai` fits on.

    The split is :func:`split_test` then :func:`carve_val`, so a caller
    picks the best baseline by ``val`` and reports its ``test``.
    """
    train, test = split_test(dataset, split_seed)
    fit, val = carve_val(train, split_seed)
    x_fit, y_fit, x_val, y_val = baseline_arrays(fit, val)
    _, _, x_test, y_test = baseline_arrays(fit, test)
    rng = np.random.default_rng(split_seed + 99)
    scores: dict[str, BaselineScore] = {}
    for name, model in baseline_zoo(rng).items():
        model.fit(x_fit, y_fit)
        scores[name] = BaselineScore(model.score(x_val, y_val), model.score(x_test, y_test))
    if include_hmm:
        seq_fit = fit.to_sequences()
        scaler = StandardScaler().fit(seq_fit.reshape(-1, seq_fit.shape[-1]))

        def scaled(part: ActivityDataset) -> np.ndarray:
            seq = part.to_sequences()
            return scaler.transform(seq.reshape(-1, seq.shape[-1])).reshape(seq.shape)

        hmm = HMMActivityClassifier(
            n_states=4,
            n_components=8,
            n_iter=8,
            rng=np.random.default_rng(rng.integers(2**31)),
        )
        hmm.fit(scaled(fit), y_fit)
        scores["HMM"] = BaselineScore(
            hmm.score(scaled(val), y_val), hmm.score(scaled(test), y_test)
        )
    return scores
