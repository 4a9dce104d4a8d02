"""Composite network gradients: the exact configurations M2AI uses."""

from __future__ import annotations

import numpy as np

from repro.nn import (
    LSTM,
    Conv1d,
    Dense,
    Flatten,
    LastStep,
    MaxPool1d,
    ReLU,
    Sequential,
)
from tests.nn.gradcheck import check_module_gradients

RNG = np.random.default_rng(7)


class TestCompositeGradients:
    def test_conv_relu_pool_dense_chain(self):
        net = Sequential(
            Conv1d(2, 3, 5, RNG, stride=1, padding=2),
            ReLU(),
            MaxPool1d(2),
            Conv1d(3, 4, 3, RNG, stride=2, padding=1),
            ReLU(),
            Flatten(),
            Dense(4 * 5, 6, RNG),
        )
        x = RNG.normal(size=(3, 2, 20)) * 3  # scaled away from pool ties
        errors = check_module_gradients(net, x, RNG)
        assert max(errors.values()) < 1e-6

    def test_stacked_lstm_chain(self):
        net = Sequential(LSTM(3, 5, RNG), LSTM(5, 4, RNG), LastStep(), Dense(4, 2, RNG))
        x = RNG.normal(size=(2, 6, 3))
        errors = check_module_gradients(net, x, RNG)
        assert max(errors.values()) < 1e-6

    def test_deep_chain_stable(self):
        """Gradients through a deeper stack stay finite and non-zero."""
        net = Sequential(
            Dense(8, 16, RNG, relu_init=True), ReLU(),
            Dense(16, 16, RNG, relu_init=True), ReLU(),
            Dense(16, 16, RNG, relu_init=True), ReLU(),
            Dense(16, 4, RNG),
        )
        x = RNG.normal(size=(5, 8))
        y = net(x)
        net.zero_grad()
        net.backward(np.ones_like(y))
        grads = [np.abs(p.grad).max() for p in net.parameters()]
        assert all(np.isfinite(g) for g in grads)
        assert max(grads) > 0
