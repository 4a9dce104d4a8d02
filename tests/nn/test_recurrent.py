"""LSTM: exact BPTT gradients, state semantics, learnability."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import (
    LSTM,
    Adam,
    Dense,
    LastStep,
    Sequential,
    softmax_cross_entropy,
)
from tests.nn.gradcheck import check_module_gradients

RNG = np.random.default_rng(5)


class TestLSTM:
    def test_output_shape(self):
        lstm = LSTM(4, 6, RNG)
        out = lstm(RNG.normal(size=(3, 7, 4)))
        assert out.shape == (3, 7, 6)

    def test_wrong_input_dim_rejected(self):
        lstm = LSTM(4, 6, RNG)
        with pytest.raises(ValueError):
            lstm(RNG.normal(size=(3, 7, 5)))

    def test_gradients_exact(self):
        lstm = LSTM(3, 4, RNG)
        errors = check_module_gradients(lstm, RNG.normal(size=(2, 5, 3)), RNG)
        assert max(errors.values()) < 1e-6

    def test_forget_gate_bias_initialised_to_one(self):
        lstm = LSTM(3, 4, RNG)
        hid = 4
        np.testing.assert_allclose(lstm.bias.value[hid : 2 * hid], 1.0)
        np.testing.assert_allclose(lstm.bias.value[:hid], 0.0)

    def test_output_bounded_by_tanh(self):
        lstm = LSTM(3, 4, RNG)
        out = lstm(RNG.normal(size=(2, 50, 3)) * 10)
        assert np.abs(out).max() <= 1.0

    def test_state_carries_information(self):
        """The output at step t must depend on inputs before t."""
        lstm = LSTM(2, 8, np.random.default_rng(0))
        x = RNG.normal(size=(1, 6, 2))
        base = lstm(x)[0, -1]
        x2 = x.copy()
        x2[0, 0] += 5.0  # change only the FIRST step
        changed = lstm(x2)[0, -1]
        assert not np.allclose(base, changed)

    def test_no_lookahead(self):
        """The output at step t must NOT depend on inputs after t."""
        lstm = LSTM(2, 8, np.random.default_rng(0))
        x = RNG.normal(size=(1, 6, 2))
        base = lstm(x)[0, 2].copy()
        x2 = x.copy()
        x2[0, 4] += 5.0  # change only a LATER step
        changed = lstm(x2)[0, 2]
        np.testing.assert_allclose(base, changed)


class TestLastStep:
    def test_selects_final(self):
        layer = LastStep()
        x = RNG.normal(size=(2, 5, 3))
        np.testing.assert_allclose(layer(x), x[:, -1, :])

    def test_gradient_routing(self):
        layer = LastStep()
        x = RNG.normal(size=(2, 5, 3))
        layer(x)
        grad = layer.backward(np.ones((2, 3)))
        assert grad[:, :-1].sum() == 0.0
        np.testing.assert_allclose(grad[:, -1, :], 1.0)

    def test_float32_backward_stays_float32(self):
        layer = LastStep()
        x = RNG.normal(size=(2, 5, 3)).astype(np.float32)
        out = layer(x)
        assert out.dtype == np.float32
        assert layer.backward(np.ones_like(out)).dtype == np.float32


class TestLearnability:
    def test_learns_temporal_order(self):
        """Distinguish rising from falling ramps — impossible without
        temporal state given per-step-identical marginals."""
        rng = np.random.default_rng(0)
        steps = 8
        n = 120
        x = np.zeros((n, steps, 1))
        y = np.zeros(n, dtype=int)
        for i in range(n):
            ramp = np.linspace(-1, 1, steps)
            if i % 2:
                ramp = ramp[::-1]
                y[i] = 1
            x[i, :, 0] = ramp + rng.normal(0, 0.05, steps)
        net = Sequential(LSTM(1, 8, rng), LastStep(), Dense(8, 2, rng))
        optimizer = Adam(net.parameters(), lr=0.02)
        for _ in range(60):
            logits = net(x, training=True)
            _loss, grad = softmax_cross_entropy(logits, y)
            net.zero_grad()
            net.backward(grad)
            optimizer.step()
        accuracy = float((net(x).argmax(axis=1) == y).mean())
        assert accuracy > 0.95
