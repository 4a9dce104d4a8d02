"""Shared machinery for the experiment drivers.

Datasets are expensive (each sample simulates ~26 s of RF inventory),
so raw recordings are memoised per :class:`GenerationConfig` within the
process: Fig. 9, Table I, Fig. 10, Fig. 16 and Fig. 17 all reuse one
simulated corpus, exactly as the paper evaluates many methods on one
collected dataset.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

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


def get_dataset(
    config: GenerationConfig,
    featurizer: M2AIFeaturizer | None = None,
    use_calibration: bool = True,
) -> ActivityDataset:
    """Featurised dataset over the memoised raw recordings.

    Memoised per (config, featuriser, calibration) so repeat callers —
    and the training memo keyed on dataset identity — see one object.
    """
    feat_key = featurizer.name if featurizer is not None else "m2ai"
    key = (config, feat_key, use_calibration)
    if key not in _DATASET_MEMO:
        raw = get_raw_samples(config)
        _DATASET_MEMO[key] = SyntheticDatasetGenerator(config).featurize(
            raw, featurizer=featurizer, use_calibration=use_calibration
        )
    return _DATASET_MEMO[key]


def clear_cache() -> None:
    """Drop memoised recordings (tests use this to bound memory)."""
    _RAW_CACHE.clear()
    _DATASET_MEMO.clear()
    _TRAIN_MEMO.clear()
    _DATASET_HANDLES.clear()


_TRAIN_MEMO: dict[tuple, tuple[EvaluationResult, M2AIPipeline]] = {}


class _DatasetHandle:
    """Memo-key component whose lifetime tracks one dataset object.

    The training memo used to key on ``id(dataset)``; after a dataset
    was garbage-collected CPython could hand the same id to a *new*
    dataset, and a later caller silently received a model trained on
    different data.  A handle is allocated once per live dataset (via a
    weak-key table) and its memo entries are evicted the moment the
    dataset dies, so a recycled id can never alias a stale entry.
    """

    __slots__ = ("__weakref__",)


# id -> handle for *live* datasets only.  ActivityDataset is not
# hashable, so a WeakKeyDictionary cannot hold it; instead the
# finalizer below removes the id entry when the dataset dies — and
# CPython runs finalizers before the memory (hence the id) can be
# reused, so this table never serves a stale handle.
_DATASET_HANDLES: dict[int, _DatasetHandle] = {}


def _evict_train_memo(dataset_id: int, handle: _DatasetHandle) -> None:
    """Drop a dead dataset's handle and every memo entry keyed on it."""
    _DATASET_HANDLES.pop(dataset_id, None)
    for key in [k for k in _TRAIN_MEMO if k[0] is handle]:
        del _TRAIN_MEMO[key]


def _train_memo_key(
    dataset: ActivityDataset,
    training: M2AIConfig,
    mode: str,
    split_seed: int,
    test_fraction: float,
) -> tuple:
    """Identity-safe memo key for :func:`train_eval_m2ai`."""
    handle = _DATASET_HANDLES.get(id(dataset))
    if handle is None:
        handle = _DatasetHandle()
        _DATASET_HANDLES[id(dataset)] = handle
        weakref.finalize(dataset, _evict_train_memo, id(dataset), handle)
    return (handle, training, mode, split_seed, test_fraction)


def train_eval_m2ai(
    dataset: ActivityDataset,
    training: M2AIConfig,
    mode: str = "cnn_lstm",
    split_seed: int = 0,
    test_fraction: float = 0.2,
) -> tuple[EvaluationResult, M2AIPipeline]:
    """80/20 split, train the network, evaluate on the held-out 20%.

    Memoised per process on (dataset identity, training config, mode,
    split) — Fig. 9 and Table I report the same trained model, so the
    second driver should not pay for a second training run.
    """
    key = _train_memo_key(dataset, training, mode, split_seed, test_fraction)
    if key in _TRAIN_MEMO:
        return _TRAIN_MEMO[key]
    train, test = dataset.split(test_fraction, np.random.default_rng(split_seed))
    pipeline = M2AIPipeline(training, mode=mode)
    pipeline.fit(train, val=test)
    result = (pipeline.evaluate(test), pipeline)
    _TRAIN_MEMO[key] = result
    return result


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


def eval_baselines(
    dataset: ActivityDataset,
    split_seed: int = 0,
    include_hmm: bool = True,
    test_fraction: float = 0.2,
) -> dict[str, float]:
    """Accuracy of every classical baseline on an 80/20 split."""
    train, test = dataset.split(test_fraction, np.random.default_rng(split_seed))
    x_train, y_train, x_test, y_test = baseline_arrays(train, test)
    rng = np.random.default_rng(split_seed + 99)
    scores: dict[str, float] = {}
    for name, model in baseline_zoo(rng).items():
        model.fit(x_train, y_train)
        scores[name] = model.score(x_test, y_test)
    if include_hmm:
        from repro.ml.preprocessing import StandardScaler

        seq_train = train.to_sequences()
        seq_test = test.to_sequences()
        scaler = StandardScaler().fit(seq_train.reshape(-1, seq_train.shape[-1]))
        seq_train = scaler.transform(
            seq_train.reshape(-1, seq_train.shape[-1])
        ).reshape(seq_train.shape)
        seq_test = scaler.transform(seq_test.reshape(-1, seq_test.shape[-1])).reshape(
            seq_test.shape
        )
        hmm = HMMActivityClassifier(
            n_states=4,
            n_components=8,
            n_iter=8,
            rng=np.random.default_rng(rng.integers(2**31)),
        )
        hmm.fit(seq_train, y_train)
        scores["HMM"] = hmm.score(seq_test, y_test)
    return scores
