"""Training loop for the M2AI network.

Implements the paper's recipe (Section VI-A): minibatch stochastic
optimisation of the frame-wise cross entropy (Eq. 17) with global
gradient-norm scaling.  When a validation set is given, its accuracy is
measured after every epoch and the best epoch's snapshot is kept.

Training computes only what is read.  The per-epoch train accuracy is a
running count over the logits the training forward already produced, so
it is measured in training mode: augmented inputs, dropout on, and
weights that move from batch to batch within the epoch.  The model
input gets no gradient (``M2AINet.backward(..., input_grad=False)``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.augment import AugmentConfig, augment_batch
from repro.core.config import M2AIConfig
from repro.core.model import M2AINet
from repro.ml.base import LabelEncoder
from repro.nn.losses import softmax_cross_entropy
from repro.nn.optim import SGD, Adam, clip_grad_norm
from repro.obs.metrics import counter
from repro.obs.tracing import span


@dataclass
class TrainHistory:
    """Per-epoch training curves.

    ``train_accuracy[e]`` is the share of training samples that epoch
    ``e``'s training forward classified correctly (sample logits as in
    :meth:`M2AINet.predict_logits`).  It is measured in training mode —
    augmented inputs, dropout on, weights moving within the epoch — so
    it is not an eval-mode accuracy of any one snapshot.
    ``val_accuracy[e]`` is the eval-mode accuracy on the validation set
    after epoch ``e`` (empty without validation).
    """

    loss: list[float] = field(default_factory=list)
    train_accuracy: list[float] = field(default_factory=list)
    val_accuracy: list[float] = field(default_factory=list)

    @property
    def best_val_accuracy(self) -> float:
        """Best validation accuracy seen (NaN when no validation ran)."""
        return max(self.val_accuracy) if self.val_accuracy else float("nan")


class Trainer:
    """Fits an :class:`M2AINet` on stacked channel arrays."""

    def __init__(self, model: M2AINet, cfg: M2AIConfig | None = None) -> None:
        self.model = model
        self.cfg = cfg or model.cfg
        self._rng = np.random.default_rng(self.cfg.seed + 1)
        params = model.parameters()
        if self.cfg.optimizer == "adam":
            self.optimizer: SGD | Adam = Adam(
                params, lr=self.cfg.learning_rate, weight_decay=self.cfg.weight_decay
            )
        else:
            self.optimizer = SGD(
                params,
                lr=self.cfg.learning_rate,
                momentum=self.cfg.momentum,
                weight_decay=self.cfg.weight_decay,
            )

    def fit(
        self,
        inputs: dict[str, np.ndarray],
        label_ids: np.ndarray,
        val_inputs: dict[str, np.ndarray] | None = None,
        val_label_ids: np.ndarray | None = None,
        checkpoint_path: str | None = None,
        checkpoint_every: int = 1,
        resume_from: str | None = None,
    ) -> TrainHistory:
        """Train for ``cfg.epochs`` epochs, restoring the best snapshot.

        Crash resilience: with ``checkpoint_path`` set, the full
        training state (model parameters, optimizer slots, RNG state,
        history, best-snapshot tracking) is written atomically every
        ``checkpoint_every`` epochs; ``resume_from`` restores such a
        checkpoint and continues the run *bit-exact* — the resumed
        run's final parameters equal the uninterrupted run's.  A
        ``KeyboardInterrupt`` mid-run is caught: the best snapshot
        seen so far is restored (when validation ran) and the partial
        history is returned instead of losing the run.

        Args:
            inputs: ``{channel: (B, T, n, D)}`` training tensors.
            label_ids: ``(B,)`` integer class ids.
            val_inputs: optional held-out tensors for model selection
                (the paper saves the model and computes test accuracy
                each epoch).
            val_label_ids: held-out labels.
            checkpoint_path: where to write periodic epoch
                checkpoints (None disables checkpointing).
            checkpoint_every: checkpoint cadence in epochs.
            resume_from: path of a checkpoint to restore before
                training; the run continues at the epoch after the
                one the checkpoint captured.

        Returns:
            The :class:`TrainHistory` (partial after an interrupt).

        Raises:
            ValueError: on a non-positive ``checkpoint_every``.
            CheckpointError: when ``resume_from`` cannot be read
                (from :mod:`repro.core.serialization`).
        """
        if checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        label_ids = np.asarray(label_ids)
        n = len(label_ids)
        history = TrainHistory()
        best_val = -1.0
        best_state = None
        start_epoch = 0
        if resume_from is not None:
            from repro.core.serialization import load_training_checkpoint

            state = load_training_checkpoint(resume_from)
            self.model.set_state(state["model_state"])
            self.optimizer.set_state(state["optimizer_state"])
            self._rng.bit_generator.state = state["rng_state"]
            history = TrainHistory(**state["history"])
            best_val = state["best_val"]
            best_state = state["best_state"]
            for gen, rng_state in zip(
                self._model_rngs(), state["model_rng_states"]
            ):
                gen.bit_generator.state = rng_state
            start_epoch = state["epoch"] + 1
            counter("train.resumes_total").inc()
        try:
            for _epoch in range(start_epoch, self.cfg.epochs):
                order = self._rng.permutation(n)
                epoch_loss = 0.0
                batches = 0
                correct = 0
                with span("train.epoch", epoch=_epoch, samples=n):
                    for start in range(0, n, self.cfg.batch_size):
                        idx = order[start : start + self.cfg.batch_size]
                        batch = {k: v[idx] for k, v in inputs.items()}
                        if self.cfg.augment:
                            batch = augment_batch(batch, self._rng, AugmentConfig())
                        logits = self.model.forward(batch, training=True)
                        frames = logits.shape[1]
                        warmup_start = 0
                        if self.model.mode != "cnn":
                            warmup_start = min(self.cfg.warmup_frames, frames - 1)
                        frame_labels = np.repeat(
                            label_ids[idx][:, None], frames - warmup_start, axis=1
                        )
                        loss, dsliced = softmax_cross_entropy(
                            logits[:, warmup_start:, :], frame_labels
                        )
                        dlogits = np.zeros_like(logits)
                        dlogits[:, warmup_start:, :] = dsliced
                        correct += int(
                            np.count_nonzero(
                                self.model.sample_logits(logits).argmax(axis=1)
                                == label_ids[idx]
                            )
                        )
                        self.model.zero_grad()
                        self.model.backward(dlogits, input_grad=False)
                        clip_grad_norm(self.model.parameters(), self.cfg.clip_norm)
                        self.optimizer.step()
                        epoch_loss += loss
                        batches += 1
                counter("train.batches_total").inc(batches)
                history.loss.append(epoch_loss / max(batches, 1))
                history.train_accuracy.append(correct / n if n else float("nan"))
                if val_inputs is not None and val_label_ids is not None:
                    val_acc = self.accuracy(val_inputs, val_label_ids)
                    history.val_accuracy.append(val_acc)
                    if val_acc > best_val:
                        best_val = val_acc
                        best_state = self.model.get_state()
                if checkpoint_path is not None and (
                    (_epoch + 1) % checkpoint_every == 0
                    or _epoch == self.cfg.epochs - 1
                ):
                    self._write_checkpoint(
                        checkpoint_path, _epoch, history, best_val, best_state
                    )
        except KeyboardInterrupt:
            counter("train.interrupted_total").inc()
        if best_state is not None:
            self.model.set_state(best_state)
        return history

    def _write_checkpoint(
        self,
        path: str,
        epoch: int,
        history: TrainHistory,
        best_val: float,
        best_state: list[np.ndarray] | None,
    ) -> None:
        """Atomically persist the full post-epoch training state."""
        from repro.core.serialization import save_training_checkpoint

        save_training_checkpoint(
            path,
            epoch=epoch,
            model_state=self.model.get_state(),
            optimizer_state=self.optimizer.get_state(),
            rng_state=self._rng.bit_generator.state,
            history={
                "loss": list(history.loss),
                "train_accuracy": list(history.train_accuracy),
                "val_accuracy": list(history.val_accuracy),
            },
            best_val=best_val,
            best_state=best_state,
            model_rng_states=[
                gen.bit_generator.state for gen in self._model_rngs()
            ],
        )
        counter("train.checkpoints_total").inc()

    def _model_rngs(self) -> list[np.random.Generator]:
        """Distinct RNGs the model consumes during training, stable order.

        Dropout layers keep drawing from the generator they were built
        with, so a bit-exact resume must restore those states alongside
        the trainer's own RNG.  Walks the module tree the same way
        ``Module.parameters`` does, deduplicating shared generators.
        """
        from repro.nn.layers import Dropout
        from repro.nn.module import Module

        rngs: list[np.random.Generator] = []
        seen: set[int] = set()
        stack: list[Module] = [self.model]
        while stack:
            module = stack.pop()
            if isinstance(module, Dropout) and id(module.rng) not in seen:
                seen.add(id(module.rng))
                rngs.append(module.rng)
            for _name, attr in sorted(vars(module).items(), reverse=True):
                if isinstance(attr, Module):
                    stack.append(attr)
                elif isinstance(attr, (list, tuple)):
                    stack.extend(a for a in attr if isinstance(a, Module))
        return rngs

    def predict_ids(self, inputs: dict[str, np.ndarray]) -> np.ndarray:
        """Predicted class ids, ``(B,)``."""
        return self.model.predict_logits(inputs).argmax(axis=1)

    def accuracy(self, inputs: dict[str, np.ndarray], label_ids: np.ndarray) -> float:
        """Sample-level accuracy."""
        return float(np.mean(self.predict_ids(inputs) == np.asarray(label_ids)))


__all__ = ["LabelEncoder", "TrainHistory", "Trainer"]
