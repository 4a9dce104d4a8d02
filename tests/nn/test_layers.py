"""Dense/ReLU/Dropout/Flatten layers: shapes and exact gradients."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import Dense, Dropout, Flatten, ReLU, Tanh
from tests.nn.gradcheck import check_module_gradients

RNG = np.random.default_rng(0)


class TestDense:
    def test_output_shape(self):
        layer = Dense(5, 3, RNG)
        assert layer(RNG.normal(size=(7, 5))).shape == (7, 3)

    def test_leading_axes_preserved(self):
        layer = Dense(5, 3, RNG)
        assert layer(RNG.normal(size=(2, 4, 5))).shape == (2, 4, 3)

    def test_gradients(self):
        layer = Dense(4, 3, RNG)
        errors = check_module_gradients(layer, RNG.normal(size=(5, 4)), RNG)
        assert max(errors.values()) < 1e-7

    def test_gradients_3d_input(self):
        layer = Dense(4, 3, RNG)
        errors = check_module_gradients(layer, RNG.normal(size=(2, 5, 4)), RNG)
        assert max(errors.values()) < 1e-7

    def test_backward_before_forward(self):
        with pytest.raises(RuntimeError):
            Dense(4, 3, RNG).backward(np.zeros((5, 3)))

    def test_grad_accumulates(self):
        layer = Dense(4, 3, RNG)
        x = RNG.normal(size=(5, 4))
        layer(x)
        layer.backward(np.ones((5, 3)))
        first = layer.weight.grad.copy()
        layer(x)
        layer.backward(np.ones((5, 3)))
        np.testing.assert_allclose(layer.weight.grad, 2 * first)


class TestActivations:
    def test_relu_forward(self):
        out = ReLU()(np.array([-1.0, 0.0, 2.0]))
        np.testing.assert_allclose(out, [0.0, 0.0, 2.0])

    def test_relu_gradients(self):
        errors = check_module_gradients(ReLU(), RNG.normal(size=(4, 6)) + 0.1, RNG)
        assert errors["input"] < 1e-7

    def test_tanh_gradients(self):
        errors = check_module_gradients(Tanh(), RNG.normal(size=(4, 6)), RNG)
        assert errors["input"] < 1e-7


class TestDropout:
    def test_identity_at_inference(self):
        layer = Dropout(0.5, RNG)
        x = RNG.normal(size=(10, 10))
        np.testing.assert_allclose(layer.forward(x, training=False), x)

    def test_scales_at_training(self):
        layer = Dropout(0.5, np.random.default_rng(0))
        x = np.ones((200, 200))
        out = layer.forward(x, training=True)
        kept = out[out != 0]
        assert kept[0] == pytest.approx(2.0)
        assert out.mean() == pytest.approx(1.0, abs=0.05)

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            Dropout(1.0, RNG)

    def test_backward_masks(self):
        layer = Dropout(0.5, np.random.default_rng(1))
        x = np.ones((8, 8))
        out = layer.forward(x, training=True)
        grad = layer.backward(np.ones_like(x))
        np.testing.assert_allclose((grad != 0), (out != 0))


class TestFlatten:
    def test_roundtrip(self):
        layer = Flatten()
        x = RNG.normal(size=(3, 4, 5))
        out = layer(x)
        assert out.shape == (3, 20)
        np.testing.assert_allclose(layer.backward(out), x)
