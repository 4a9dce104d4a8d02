"""The M2AI network: shapes, modes, gradients."""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.core import M2AIConfig, M2AINet
from repro.nn import parallel, softmax_cross_entropy
from tests.nn.gradcheck import numerical_gradient

SHAPES = {"pseudo": (3, 180), "period": (3, 4)}
SMALL_CFG = M2AIConfig(
    conv_channels=(4, 6),
    branch_dim=8,
    merge_dim=10,
    lstm_hidden=6,
    lstm_layers=2,
    dropout=0.0,
    epochs=1,
)


def make_inputs(batch=2, frames=4, rng=None):
    rng = rng or np.random.default_rng(0)
    return {
        name: rng.normal(size=(batch, frames, n, d))
        for name, (n, d) in SHAPES.items()
    }


class TestForwardShapes:
    @pytest.mark.parametrize("mode,frames_out", [("cnn_lstm", 4), ("lstm", 4), ("cnn", 1)])
    def test_logit_shape(self, mode, frames_out):
        net = M2AINet(SHAPES, n_classes=5, cfg=SMALL_CFG, mode=mode)
        logits = net.forward(make_inputs())
        assert logits.shape == (2, frames_out, 5)

    def test_predict_logits_shape(self):
        net = M2AINet(SHAPES, n_classes=5, cfg=SMALL_CFG)
        assert net.predict_logits(make_inputs()).shape == (2, 5)

    def test_missing_channel_rejected(self):
        net = M2AINet(SHAPES, n_classes=5, cfg=SMALL_CFG)
        with pytest.raises(ValueError):
            net.forward({"pseudo": make_inputs()["pseudo"]})

    def test_inconsistent_batch_rejected(self):
        net = M2AINet(SHAPES, n_classes=5, cfg=SMALL_CFG)
        inputs = make_inputs()
        inputs["period"] = inputs["period"][:1]
        with pytest.raises(ValueError):
            net.forward(inputs)

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            M2AINet(SHAPES, n_classes=5, cfg=SMALL_CFG, mode="transformer")

    def test_empty_channels_rejected(self):
        with pytest.raises(ValueError):
            M2AINet({}, n_classes=5, cfg=SMALL_CFG)


class TestBranchSelection:
    def test_wide_channel_gets_conv(self):
        net = M2AINet(SHAPES, n_classes=5, cfg=SMALL_CFG, mode="cnn_lstm")
        from repro.core.model import ConvBranch, DenseBranch

        by_name = dict(zip(net.channel_names, net.branches))
        assert isinstance(by_name["pseudo"], ConvBranch)
        assert isinstance(by_name["period"], DenseBranch)

    def test_lstm_mode_uses_linear_branches(self):
        net = M2AINet(SHAPES, n_classes=5, cfg=SMALL_CFG, mode="lstm")
        from repro.core.model import LinearBranch

        assert all(isinstance(b, LinearBranch) for b in net.branches)


class TestGradients:
    @pytest.mark.parametrize("mode", ["cnn_lstm", "cnn", "lstm"])
    def test_input_gradient_matches_numerical(self, mode):
        tiny_shapes = {"pseudo": (2, 40), "period": (2, 4)}
        cfg = M2AIConfig(
            conv_channels=(2, 3),
            branch_dim=4,
            merge_dim=5,
            lstm_hidden=3,
            lstm_layers=1,
            dropout=0.0,
            epochs=1,
            warmup_frames=0,
        )
        net = M2AINet(tiny_shapes, n_classes=3, cfg=cfg, mode=mode)
        rng = np.random.default_rng(1)
        inputs = {
            name: rng.normal(size=(2, 3, n, d))
            for name, (n, d) in tiny_shapes.items()
        }
        labels = np.array([0, 2])

        logits = net.forward(inputs)
        frames_out = logits.shape[1]
        frame_labels = np.repeat(labels[:, None], frames_out, axis=1)
        _loss, dlogits = softmax_cross_entropy(logits, frame_labels)
        net.zero_grad()
        grads = net.backward(dlogits)

        def loss_for(channel):
            def f(arr):
                probe = dict(inputs)
                probe[channel] = arr
                out = net.forward(probe)
                fl = np.repeat(labels[:, None], out.shape[1], axis=1)
                return softmax_cross_entropy(out, fl)[0]

            return f

        for channel in tiny_shapes:
            numeric = numerical_gradient(loss_for(channel), inputs[channel].copy(), eps=1e-5)
            denom = max(np.linalg.norm(numeric), 1e-12)
            rel = np.linalg.norm(grads[channel] - numeric) / denom
            assert rel < 1e-4, f"{mode}/{channel}: {rel}"

    @pytest.mark.parametrize("mode", ["cnn_lstm", "cnn", "lstm"])
    def test_input_grad_false_keeps_every_parameter_gradient(self, mode):
        # SHAPES gives a ConvBranch and a DenseBranch ("lstm": two
        # LinearBranches), so every first-layer kind skips its dx here.
        net = M2AINet(SHAPES, n_classes=5, cfg=SMALL_CFG, mode=mode)
        logits = net.forward(make_inputs(batch=3), training=True)
        frame_labels = np.zeros(logits.shape[:2], dtype=int)
        _loss, dlogits = softmax_cross_entropy(logits, frame_labels)
        net.zero_grad()
        assert set(net.backward(dlogits)) == set(SHAPES)
        full = [p.grad.copy() for p in net.parameters()]
        net.zero_grad()
        assert net.backward(dlogits, input_grad=False) == {}
        for p, grad in zip(net.parameters(), full):
            assert np.array_equal(p.grad, grad), p.name

    def test_parameter_count_reasonable(self):
        net = M2AINet(SHAPES, n_classes=12, cfg=SMALL_CFG)
        assert 0 < net.n_parameters() < 500_000

    def test_backward_before_forward_raises(self):
        net = M2AINet(SHAPES, n_classes=5, cfg=SMALL_CFG)
        with pytest.raises(RuntimeError):
            net.backward(np.zeros((2, 4, 5)))


class TestWarmup:
    def test_prediction_skips_warmup_frames(self):
        cfg = M2AIConfig(
            conv_channels=(2, 3), branch_dim=4, merge_dim=5, lstm_hidden=3,
            lstm_layers=1, dropout=0.0, epochs=1, warmup_frames=2,
        )
        net = M2AINet({"period": (2, 4)}, n_classes=3, cfg=cfg, mode="cnn_lstm")
        inputs = {"period": np.random.default_rng(0).normal(size=(1, 5, 2, 4))}
        logits = net.forward(inputs)
        expected = logits[:, 2:, :].mean(axis=1)
        np.testing.assert_allclose(net.predict_logits(inputs), expected)


class TestSpans:
    @pytest.mark.parametrize(
        "mode,pool_width,batch,workers",
        # 4 frames per sample: 16 samples are 2 conv chunks, 8 are one.
        [("cnn_lstm", 2, 16, 2), ("cnn_lstm", 2, 8, 1), ("cnn_lstm", 1, 16, 1), ("lstm", 2, 16, 1)],
    )
    def test_nn_spans_carry_the_conv_walk_workers(
        self, monkeypatch, mode, pool_width, batch, workers
    ):
        monkeypatch.setattr(parallel, "WIDTH", pool_width)
        net = M2AINet(SHAPES, n_classes=5, cfg=SMALL_CFG, mode=mode)
        obs.disable()
        obs.reset()
        obs.enable()
        try:
            logits = net.forward(make_inputs(batch=batch))
            net.backward(np.ones_like(logits))
            attrs = {root.name: root.attrs for root in obs.get_collector().drain()}
        finally:
            obs.disable()
            obs.reset()
        assert attrs["nn.forward"]["workers"] == workers
        assert attrs["nn.backward"]["workers"] == workers
