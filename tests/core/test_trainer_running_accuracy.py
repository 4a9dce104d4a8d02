"""Training computes only what is read, and changes nothing by it.

``Trainer.fit`` takes the train accuracy from the training forward's
own logits and asks the model for no input gradient.  The reference
below is the loop those two replaced: an eval-mode accuracy pass over
the whole training set after every epoch and a full backward.  The
eval pass draws no randomness, so dropping it must leave the loss
history, the weights, the optimiser slots and every RNG bit-identical.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.analysis.sanitize import anomaly_detection
from repro.core import ActivityDataset, M2AIConfig, M2AINet, Trainer
from repro.core import trainer as trainer_module
from repro.core.augment import AugmentConfig, augment_batch
from repro.dsp.frames import FeatureFrames
from repro.nn.losses import softmax_cross_entropy
from repro.nn.optim import clip_grad_norm

MODES = ("cnn_lstm", "cnn", "lstm")

# Augmentation on and dropout > 0: both draw randomness mid-epoch, which
# is what an extra (or a missing) pass would have to perturb.
CFG = M2AIConfig(
    conv_channels=(3, 4),
    branch_dim=6,
    merge_dim=8,
    lstm_hidden=6,
    lstm_layers=1,
    dropout=0.3,
    epochs=3,
    batch_size=8,
    learning_rate=0.01,
    warmup_frames=1,
    augment=True,
)


def make_data(per_class=7, frames=4, seed=0):
    """A wide (conv) and a narrow (dense) channel; 21 samples, 3 batches."""
    rng = np.random.default_rng(seed)
    samples, labels = [], []
    for cls in range(3):
        for _ in range(per_class):
            pseudo = rng.normal(0, 0.3, (frames, 2, 40))
            pseudo[:, :, 5 + cls * 12 : 12 + cls * 12] += 2.0
            period = rng.normal(0, 0.3, (frames, 2, 4))
            period[:, :, cls] += 1.0
            samples.append(
                FeatureFrames(channels={"pseudo": pseudo, "period": period}, label=f"K{cls}")
            )
            labels.append(f"K{cls}")
    ds = ActivityDataset(samples=samples, labels=labels)
    channels, label_names = ds.to_arrays()
    ids = np.array([int(label[1]) for label in label_names])
    return ds.channel_shapes, channels, ids


def reference_fit(trainer, inputs, label_ids, val_inputs=None, val_label_ids=None):
    """The loop before the running accuracy, restoring the best val epoch."""
    model, cfg = trainer.model, trainer.cfg
    n = len(label_ids)
    losses, train_acc, val_acc = [], [], []
    best_val, best_state = -1.0, None
    for _epoch in range(cfg.epochs):
        order = trainer._rng.permutation(n)
        epoch_loss, batches = 0.0, 0
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            batch = {k: v[idx] for k, v in inputs.items()}
            if cfg.augment:
                batch = augment_batch(batch, trainer._rng, AugmentConfig())
            logits = model.forward(batch, training=True)
            frames = logits.shape[1]
            warmup = 0 if model.mode == "cnn" else min(cfg.warmup_frames, frames - 1)
            frame_labels = np.repeat(label_ids[idx][:, None], frames - warmup, axis=1)
            loss, dsliced = softmax_cross_entropy(logits[:, warmup:, :], frame_labels)
            dlogits = np.zeros_like(logits)
            dlogits[:, warmup:, :] = dsliced
            model.zero_grad()
            model.backward(dlogits)
            clip_grad_norm(model.parameters(), cfg.clip_norm)
            trainer.optimizer.step()
            epoch_loss += loss
            batches += 1
        losses.append(epoch_loss / batches)
        train_acc.append(trainer.accuracy(inputs, label_ids))
        if val_inputs is not None:
            acc = trainer.accuracy(val_inputs, val_label_ids)
            val_acc.append(acc)
            if acc > best_val:
                best_val, best_state = acc, model.get_state()
    if best_state is not None:
        model.set_state(best_state)
    return losses, train_acc, val_acc


def val_kwargs(with_val):
    """``fit`` keywords for a small validation set, or none."""
    if not with_val:
        return {}
    _, val_channels, val_ids = make_data(per_class=3, seed=1)
    return {"val_inputs": val_channels, "val_label_ids": val_ids}


def fresh_trainer(shapes, mode):
    return Trainer(M2AINet(shapes, 3, cfg=CFG, mode=mode), CFG)


def rng_states(trainer):
    return [trainer._rng.bit_generator.state] + [
        gen.bit_generator.state for gen in trainer._model_rngs()
    ]


class TestDroppingThePassPerturbsNothing:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("with_val", [False, True])
    def test_matches_reference_loop(self, mode, with_val):
        shapes, channels, ids = make_data()
        val = val_kwargs(with_val)
        ref = fresh_trainer(shapes, mode)
        ref_loss, _ref_train_acc, ref_val_acc = reference_fit(ref, channels, ids, **val)
        new = fresh_trainer(shapes, mode)
        history = new.fit(channels, ids, **val)

        assert history.loss == ref_loss
        assert history.val_accuracy == ref_val_acc
        for a, b in zip(new.model.get_state(), ref.model.get_state()):
            assert np.array_equal(a, b)
        new_slots, ref_slots = new.optimizer.get_state(), ref.optimizer.get_state()
        assert new_slots["t"] == ref_slots["t"]
        for key in ("m", "v"):
            for a, b in zip(new_slots[key], ref_slots[key]):
                assert np.array_equal(a, b)
        assert rng_states(new) == rng_states(ref)

    @pytest.mark.parametrize("with_val", [False, True])
    def test_accuracy_pass_runs_only_for_validation(self, monkeypatch, with_val):
        shapes, channels, ids = make_data()
        calls = []
        original = Trainer.accuracy

        def counting(self, inputs, label_ids):
            calls.append(len(label_ids))
            return original(self, inputs, label_ids)

        monkeypatch.setattr(Trainer, "accuracy", counting)
        val = val_kwargs(with_val)
        fresh_trainer(shapes, "cnn_lstm").fit(channels, ids, **val)
        # Each call scores the val set; none scores the training set.
        expected = [len(val["val_label_ids"])] * CFG.epochs if with_val else []
        assert calls == expected


class TestRunningAccuracy:
    @pytest.mark.parametrize("mode", MODES)
    def test_is_the_training_forwards_own_hit_rate(self, monkeypatch, mode):
        # The loss sees every training-mode batch's scored frames and
        # labels; recount the sample-level hits from those.
        shapes, channels, ids = make_data()
        seen = []
        original = trainer_module.softmax_cross_entropy

        def spy(logits, labels):
            seen.append((logits.copy(), labels[:, 0].copy()))
            return original(logits, labels)

        monkeypatch.setattr(trainer_module, "softmax_cross_entropy", spy)
        history = fresh_trainer(shapes, mode).fit(channels, ids)

        n = len(ids)
        per_epoch = -(-n // CFG.batch_size)
        assert len(seen) == per_epoch * CFG.epochs
        for epoch, acc in enumerate(history.train_accuracy):
            batches = seen[epoch * per_epoch : (epoch + 1) * per_epoch]
            hits = sum(
                int(np.count_nonzero(logits.mean(axis=1).argmax(axis=1) == labels))
                for logits, labels in batches
            )
            assert acc == hits / n
            assert 0.0 <= acc <= 1.0


class TestSanitizedFit:
    def test_fit_completes_under_anomaly_detection(self):
        # The trainer's backward returns no input gradients; the
        # sanitizer's shape check must only look at arrays.
        shapes, channels, ids = make_data()
        cfg = dataclasses.replace(CFG, epochs=1)
        with anomaly_detection(check_shapes=True):
            history = Trainer(M2AINet(shapes, 3, cfg=cfg), cfg).fit(channels, ids)
        assert len(history.loss) == 1 and np.isfinite(history.loss[0])
