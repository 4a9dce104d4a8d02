"""Crash-safe training: periodic checkpoints, bit-exact resume."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core import ActivityDataset, M2AIConfig, M2AINet, Trainer
from repro.core.serialization import load_training_checkpoint
from repro.dsp.frames import FeatureFrames

# dropout > 0 on purpose: dropout masks draw from the model's own RNG,
# which the checkpoint must capture for the resume to stay bit-exact.
CKPT_CFG = M2AIConfig(
    conv_channels=(3, 4),
    branch_dim=6,
    merge_dim=8,
    lstm_hidden=6,
    lstm_layers=1,
    dropout=0.2,
    epochs=6,
    batch_size=8,
    learning_rate=0.01,
    warmup_frames=1,
    augment=False,
)


def make_data(per_class=6, frames=4, seed=0):
    rng = np.random.default_rng(seed)
    samples, labels = [], []
    for cls in range(3):
        for _ in range(per_class):
            pseudo = rng.normal(0, 0.3, (frames, 2, 40))
            pseudo[:, :, 5 + cls * 12 : 12 + cls * 12] += 2.0
            samples.append(
                FeatureFrames(
                    channels={
                        "pseudo": pseudo,
                        "period": rng.normal(size=(frames, 2, 4)),
                    },
                    label=f"K{cls}",
                )
            )
            labels.append(f"K{cls}")
    ds = ActivityDataset(samples=samples, labels=labels)
    channels, label_names = ds.to_arrays()
    ids = np.array([int(label[1]) for label in label_names])
    return ds.channel_shapes, channels, ids


def run_training(cfg, channels, ids, shapes, **fit_kwargs):
    net = M2AINet(shapes, 3, cfg=cfg)
    trainer = Trainer(net, cfg)
    history = trainer.fit(channels, ids, **fit_kwargs)
    return net, trainer, history


class TestBitExactResume:
    @pytest.mark.parametrize("optimizer", ["sgd", "adam"])
    def test_kill_after_epoch_k_and_resume(self, tmp_path, optimizer):
        # Uninterrupted 6-epoch run vs: 3-epoch run that checkpoints,
        # then a *fresh* model resumed from the checkpoint.  The final
        # parameters must be identical to the last bit.
        # With validation, so the resumed val curve is compared too.
        cfg = dataclasses.replace(CKPT_CFG, optimizer=optimizer)
        shapes, channels, ids = make_data()
        _, val_channels, val_ids = make_data(per_class=3, seed=1)
        val = {"val_inputs": val_channels, "val_label_ids": val_ids}
        full_net, _, full_history = run_training(cfg, channels, ids, shapes, **val)

        short_cfg = dataclasses.replace(cfg, epochs=3)
        ckpt = tmp_path / "train.npz"
        _, _, short_history = run_training(
            short_cfg, channels, ids, shapes, checkpoint_path=str(ckpt), **val
        )
        assert ckpt.exists()

        resumed_net, _, resumed_history = run_training(
            cfg, channels, ids, shapes, resume_from=str(ckpt), **val
        )
        for a, b in zip(full_net.get_state(), resumed_net.get_state()):
            assert np.array_equal(a, b)
        assert resumed_history.loss == full_history.loss
        assert resumed_history.loss[:3] == short_history.loss
        assert resumed_history.train_accuracy == full_history.train_accuracy
        assert resumed_history.val_accuracy == full_history.val_accuracy
        assert len(resumed_history.val_accuracy) == cfg.epochs

    def test_checkpoint_captures_model_dropout_rngs(self, tmp_path):
        shapes, channels, ids = make_data()
        ckpt = tmp_path / "train.npz"
        cfg = dataclasses.replace(CKPT_CFG, epochs=2)
        run_training(cfg, channels, ids, shapes, checkpoint_path=str(ckpt))
        state = load_training_checkpoint(ckpt)
        assert state["epoch"] == 1
        assert len(state["model_rng_states"]) >= 1
        for rng_state in state["model_rng_states"]:
            assert "bit_generator" in rng_state

    def test_checkpoint_every_controls_cadence(self, tmp_path):
        shapes, channels, ids = make_data()
        ckpt = tmp_path / "train.npz"
        cfg = dataclasses.replace(CKPT_CFG, epochs=5)
        run_training(
            cfg,
            channels,
            ids,
            shapes,
            checkpoint_path=str(ckpt),
            checkpoint_every=3,
        )
        # Epoch 2 (cadence) was overwritten by epoch 4 (final epoch
        # always checkpoints so a resume never loses the tail).
        assert load_training_checkpoint(ckpt)["epoch"] == 4

    def test_invalid_cadence_rejected(self):
        shapes, channels, ids = make_data(per_class=2)
        net = M2AINet(shapes, 3, cfg=CKPT_CFG)
        with pytest.raises(ValueError):
            Trainer(net, CKPT_CFG).fit(channels, ids, checkpoint_every=0)


class TestKeyboardInterrupt:
    def test_interrupt_returns_partial_history(self):
        shapes, channels, ids = make_data()
        net = M2AINet(shapes, 3, cfg=CKPT_CFG)
        trainer = Trainer(net, CKPT_CFG)
        original_step = trainer.optimizer.step
        calls = {"n": 0}

        def interrupting_step():
            calls["n"] += 1
            if calls["n"] == 8:  # mid-epoch 2 (3 batches per epoch)
                raise KeyboardInterrupt
            original_step()

        trainer.optimizer.step = interrupting_step
        history = trainer.fit(channels, ids)  # must not raise
        assert len(history.loss) == 2

    def test_interrupt_restores_best_validation_snapshot(self):
        shapes, channels, ids = make_data()
        net = M2AINet(shapes, 3, cfg=CKPT_CFG)
        trainer = Trainer(net, CKPT_CFG)
        original_step = trainer.optimizer.step
        calls = {"n": 0}

        def interrupting_step():
            calls["n"] += 1
            if calls["n"] == 11:
                raise KeyboardInterrupt
            original_step()

        trainer.optimizer.step = interrupting_step
        history = trainer.fit(channels, ids, channels, ids)
        assert history.val_accuracy, "expected at least one completed epoch"
        assert trainer.accuracy(channels, ids) == pytest.approx(
            max(history.val_accuracy), abs=1e-9
        )

    def test_interrupted_run_resumes_from_its_checkpoint(self, tmp_path):
        shapes, channels, ids = make_data()
        full_net, _, _ = run_training(CKPT_CFG, channels, ids, shapes)

        ckpt = tmp_path / "train.npz"
        net = M2AINet(shapes, 3, cfg=CKPT_CFG)
        trainer = Trainer(net, CKPT_CFG)
        original_step = trainer.optimizer.step
        calls = {"n": 0}

        def interrupting_step():
            calls["n"] += 1
            if calls["n"] == 8:
                raise KeyboardInterrupt
            original_step()

        trainer.optimizer.step = interrupting_step
        trainer.fit(channels, ids, checkpoint_path=str(ckpt))

        # The kill landed mid-epoch 2; the checkpoint holds epoch 1,
        # and a fresh model resumed from it matches the uninterrupted
        # run exactly.
        assert load_training_checkpoint(ckpt)["epoch"] == 1
        resumed_net, _, _ = run_training(
            CKPT_CFG, channels, ids, shapes, resume_from=str(ckpt)
        )
        for a, b in zip(full_net.get_state(), resumed_net.get_state()):
            assert np.array_equal(a, b)
