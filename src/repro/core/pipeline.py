"""End-to-end M2AI pipeline: frames in, activity labels out.

Glues the scaler, the Fig. 6 network and the trainer behind a
classifier-like ``fit``/``predict``/``evaluate`` interface operating on
:class:`~repro.core.dataset.ActivityDataset` objects.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from repro.core.config import M2AIConfig
from repro.core.dataset import ActivityDataset, ChannelScaler
from repro.core.model import M2AINet
from repro.core.trainer import TrainHistory, Trainer
from repro.ml.base import LabelEncoder
from repro.ml.metrics import ConfusionMatrix, accuracy, confusion_matrix
from repro.nn.losses import softmax
from repro.nn.module import DEFAULT_DTYPE, INFERENCE_DTYPE, cast_once, inference_mode

SERVE_DTYPES = ("float64", "float32")
"""Dtypes :meth:`M2AIPipeline.set_serve_dtype` accepts."""


class ServeParityError(RuntimeError):
    """Float32 serve model rejected by the accuracy-parity gate.

    Raised by :meth:`M2AIPipeline.set_serve_dtype` when the cast-once
    float32 model's argmax decisions differ from the float64 reference
    on the supplied parity dataset.  The pipeline is left serving
    float64 — a rejected pack is discarded, never installed.
    """


@dataclass
class EvaluationResult:
    """Scored predictions on a dataset."""

    accuracy: float
    confusion: ConfusionMatrix
    predictions: np.ndarray
    labels: np.ndarray


@dataclass
class M2AIPipeline:
    """The deployable classifier.

    Args:
        config: network/training hyper-parameters.
        mode: ``"cnn_lstm"`` (the paper), ``"cnn"`` or ``"lstm"``
            (Fig. 17 ablations).
    """

    config: M2AIConfig = field(default_factory=M2AIConfig)
    mode: str = "cnn_lstm"
    model: M2AINet | None = None
    history: TrainHistory | None = None
    serve_dtype: str = "float64"
    _scaler: ChannelScaler = field(default_factory=ChannelScaler)
    _encoder: LabelEncoder = field(default_factory=LabelEncoder)
    _serve_model: M2AINet | None = field(default=None, repr=False)
    _serve_report: dict | None = field(default=None, repr=False)

    def fit(
        self, train: ActivityDataset, val: ActivityDataset | None = None
    ) -> "M2AIPipeline":
        """Train on ``train``; ``val`` drives best-epoch selection.

        Invalidates any installed float32 serve pack (the weights it
        was validated against are being replaced).
        """
        self._drop_serve_pack()
        channels, labels = train.to_arrays()
        channels = self._scaler.fit_transform(channels)
        ids = self._encoder.fit_transform(labels)
        self.model = M2AINet(
            channel_shapes=train.channel_shapes,
            n_classes=self._encoder.n_classes,
            cfg=self.config,
            mode=self.mode,
            rng=np.random.default_rng(self.config.seed),
        )
        trainer = Trainer(self.model, self.config)
        val_channels = val_ids = None
        if val is not None:
            raw_val, val_labels = val.to_arrays()
            val_channels = self._scaler.transform(raw_val)
            val_ids = self._encoder.transform(val_labels)
        self.history = trainer.fit(channels, ids, val_channels, val_ids)
        return self

    def fine_tune(
        self, train: ActivityDataset, epochs: int = 10, learning_rate: float | None = None
    ) -> "M2AIPipeline":
        """Continue training a fitted pipeline on new data.

        Supports the paper's Section VII deployment story: a model
        trained in one environment is adapted to another with a short
        retraining pass.  The feature scaler and label vocabulary are
        kept from the original fit (new data must use known classes).

        Raises:
            RuntimeError: when the pipeline was never fitted.
        """
        if self.model is None:
            raise RuntimeError("fine_tune requires a fitted pipeline")
        self._drop_serve_pack()
        from dataclasses import replace

        channels, labels = train.to_arrays()
        channels = self._scaler.transform(channels)
        ids = self._encoder.transform(labels)
        cfg = replace(
            self.config,
            epochs=epochs,
            learning_rate=learning_rate or self.config.learning_rate / 2,
        )
        Trainer(self.model, cfg).fit(channels, ids)
        return self

    def predict(self, dataset: ActivityDataset) -> np.ndarray:
        """Predicted labels for every sample."""
        proba = self.predict_proba(dataset)
        return self._encoder.inverse(proba.argmax(axis=1))

    def predict_proba(self, dataset: ActivityDataset) -> np.ndarray:
        """Class probabilities per sample, ``(B, n_classes)``.

        Columns follow ``self.classes`` ordering.  When a float32 serve
        pack is installed (:meth:`set_serve_dtype`), the forward pass
        runs through the cast-once model inside ``inference_mode()``;
        the returned probabilities are always float64 either way.
        """
        if self.model is None:
            raise RuntimeError("pipeline not fitted")
        channels, _ = dataset.to_arrays()
        channels = self._scaler.transform(channels)
        if self._serve_model is not None:
            return self._serve_proba(channels)
        return softmax(self.model.predict_logits(channels))

    def _serve_proba(self, channels: dict[str, np.ndarray]) -> np.ndarray:
        """Forward scaled ``channels`` through the float32 serve pack.

        Every narrow operation — the down-cast, the forward pass, the
        softmax — happens lexically inside ``inference_mode()``, and the
        probabilities are widened back to float64 before the scope
        exits, so nothing narrow ever escapes (the contract RPR012 and
        the runtime sanitizer enforce).
        """
        assert self._serve_model is not None
        with inference_mode():
            narrow = {
                name: arr.astype(INFERENCE_DTYPE) for name, arr in channels.items()
            }
            logits = self._serve_model.predict_logits(narrow)
            proba = softmax(logits).astype(DEFAULT_DTYPE)
        return proba

    def set_serve_dtype(
        self, dtype: str, parity: ActivityDataset | None = None
    ) -> dict:
        """Select the inference precision, gated by decision parity.

        ``"float64"`` (the default) drops any installed serve pack and
        restores the training-precision path.  ``"float32"`` builds a
        cast-once serve model: the trained weights are deep-copied,
        cast to :data:`~repro.nn.module.INFERENCE_DTYPE` inside
        ``inference_mode()`` (frozen read-only), and accepted only if
        its argmax decisions on ``parity`` equal the float64 reference
        exactly.  Training state is untouched —
        ``fit``/``fine_tune`` keep operating on the float64 model and
        invalidate the pack.

        Idempotent: requesting ``"float32"`` while a pack is installed
        returns the original acceptance report without re-validating.

        Args:
            dtype: one of :data:`SERVE_DTYPES`.
            parity: labelled or unlabelled eval windows for the parity
                gate; required for ``"float32"``.

        Returns:
            A report dict: ``serve_dtype``, ``accepted``, ``n_windows``,
            ``n_mismatches``, ``max_abs_proba_delta``.

        Raises:
            ValueError: unknown ``dtype``, or float32 without ``parity``.
            RuntimeError: pipeline not fitted.
            ServeParityError: decisions differ; the pack is discarded
                and the pipeline keeps serving float64.
        """
        if dtype not in SERVE_DTYPES:
            raise ValueError(f"serve_dtype must be one of {SERVE_DTYPES}, got {dtype!r}")
        if dtype == "float64":
            self._drop_serve_pack()
            return {"serve_dtype": "float64", "accepted": True}
        if self.model is None:
            raise RuntimeError("pipeline not fitted")
        if self._serve_model is not None:
            return dict(self._serve_report or {})
        if parity is None:
            raise ValueError("float32 serving requires a parity dataset")
        proba64 = self.predict_proba(parity)
        serve = copy.deepcopy(self.model)
        with inference_mode():
            cast_once(serve, INFERENCE_DTYPE)
        channels, _ = parity.to_arrays()
        channels = self._scaler.transform(channels)
        self._serve_model = serve
        try:
            proba32 = self._serve_proba(channels)
        finally:
            self._serve_model = None
        decisions64 = proba64.argmax(axis=1)
        decisions32 = proba32.argmax(axis=1)
        mismatches = int(np.count_nonzero(decisions64 != decisions32))
        max_delta = float(np.abs(proba32 - proba64).max()) if proba64.size else 0.0
        report = {
            "serve_dtype": "float32",
            "accepted": mismatches == 0,
            "n_windows": int(decisions64.size),
            "n_mismatches": mismatches,
            "max_abs_proba_delta": max_delta,
        }
        if mismatches:
            raise ServeParityError(
                f"float32 parity gate rejected the cast: {mismatches}/"
                f"{decisions64.size} decisions differ from float64 "
                f"(max |dp| = {max_delta:.3e}); pipeline stays float64"
            )
        self._serve_model = serve
        self._serve_report = report
        self.serve_dtype = "float32"
        return dict(report)

    def _drop_serve_pack(self) -> None:
        """Remove any installed serve pack and return to float64."""
        self._serve_model = None
        self._serve_report = None
        self.serve_dtype = "float64"

    @property
    def classes(self) -> np.ndarray:
        """Label vocabulary in probability-column order."""
        if self._encoder.classes_ is None:
            raise RuntimeError("pipeline not fitted")
        return self._encoder.classes_

    def evaluate(self, dataset: ActivityDataset) -> EvaluationResult:
        """Accuracy + confusion matrix on a labelled dataset.

        The confusion matrix is indexed by the encoder's full
        vocabulary (``self.classes``), not just the labels present in
        ``dataset`` — a test split missing a class would otherwise
        silently shift the columns relative to other evaluations.
        """
        predictions = self.predict(dataset)
        labels = np.asarray(dataset.labels)
        return EvaluationResult(
            accuracy=accuracy(labels, predictions),
            confusion=confusion_matrix(
                labels, predictions, labels=np.asarray(self.classes)
            ),
            predictions=predictions,
            labels=labels,
        )


def baseline_arrays(
    train: ActivityDataset, test: ActivityDataset
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Flattened, standardised features for the classical baselines.

    The scaler is fitted on the training split only.

    Returns:
        ``(x_train, y_train, x_test, y_test)``.
    """
    from repro.ml.preprocessing import StandardScaler

    scaler = StandardScaler()
    x_train = scaler.fit_transform(train.flatten_features())
    x_test = scaler.transform(test.flatten_features())
    return x_train, np.asarray(train.labels), x_test, np.asarray(test.labels)
