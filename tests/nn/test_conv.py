"""Conv1d and pooling: shapes, known outputs, exact gradients."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import Conv1d, GlobalAveragePool1d, MaxPool1d
from tests.nn.gradcheck import check_module_gradients

RNG = np.random.default_rng(3)


class TestConv1d:
    def test_output_length(self):
        conv = Conv1d(2, 4, kernel=5, rng=RNG, stride=2, padding=2)
        out = conv(RNG.normal(size=(3, 2, 20)))
        assert out.shape == (3, 4, 10)

    def test_identity_kernel(self):
        conv = Conv1d(1, 1, kernel=1, rng=RNG)
        conv.weight.value[...] = 1.0
        conv.bias.value[...] = 0.0
        x = RNG.normal(size=(2, 1, 7))
        np.testing.assert_allclose(conv(x), x)

    def test_known_convolution(self):
        conv = Conv1d(1, 1, kernel=3, rng=RNG)
        conv.weight.value[0, 0] = [1.0, 2.0, 3.0]
        conv.bias.value[...] = 0.5
        x = np.arange(5.0).reshape(1, 1, 5)
        out = conv(x)
        # Cross-correlation: [0,1,2]@[1,2,3]+0.5 = 8.5, ...
        np.testing.assert_allclose(out[0, 0], [8.5, 14.5, 20.5])

    @pytest.mark.parametrize("stride,padding", [(1, 0), (2, 1), (3, 2)])
    def test_gradients(self, stride, padding):
        conv = Conv1d(2, 3, kernel=3, rng=RNG, stride=stride, padding=padding)
        errors = check_module_gradients(conv, RNG.normal(size=(2, 2, 11)), RNG)
        assert max(errors.values()) < 1e-7

    def test_wrong_channels_rejected(self):
        conv = Conv1d(2, 3, kernel=3, rng=RNG)
        with pytest.raises(ValueError):
            conv(RNG.normal(size=(2, 5, 11)))

    def test_too_small_input_rejected(self):
        conv = Conv1d(1, 1, kernel=9, rng=RNG)
        with pytest.raises(ValueError):
            conv(RNG.normal(size=(1, 1, 4)))

    def test_param_validation(self):
        with pytest.raises(ValueError):
            Conv1d(1, 1, kernel=0, rng=RNG)


class TestMaxPool1d:
    def test_known_output(self):
        pool = MaxPool1d(2)
        x = np.array([[[1.0, 5.0, 2.0, 3.0, 7.0, 0.0]]])
        np.testing.assert_allclose(pool(x), [[[5.0, 3.0, 7.0]]])

    def test_overlapping_stride(self):
        pool = MaxPool1d(3, stride=1)
        x = np.array([[[1.0, 5.0, 2.0, 3.0]]])
        np.testing.assert_allclose(pool(x), [[[5.0, 5.0]]])

    def test_gradients(self):
        pool = MaxPool1d(2)
        # Perturb away from ties for a stable argmax.
        x = RNG.normal(size=(2, 3, 8)) * 10
        errors = check_module_gradients(pool, x, RNG)
        assert errors["input"] < 1e-7

    def test_gradient_routing(self):
        pool = MaxPool1d(2)
        x = np.array([[[1.0, 5.0, 2.0, 3.0]]])
        pool(x)
        grad = pool.backward(np.array([[[1.0, 1.0]]]))
        np.testing.assert_allclose(grad, [[[0.0, 1.0, 0.0, 1.0]]])

    def test_float32_backward_stays_float32(self):
        pool = MaxPool1d(2)
        x = RNG.normal(size=(2, 3, 8)).astype(np.float32)
        out = pool(x)
        assert out.dtype == np.float32
        assert pool.backward(np.ones_like(out)).dtype == np.float32


class TestGlobalAveragePool:
    def test_output(self):
        gap = GlobalAveragePool1d()
        x = np.arange(6.0).reshape(1, 2, 3)
        np.testing.assert_allclose(gap(x), [[1.0, 4.0]])

    def test_gradients(self):
        gap = GlobalAveragePool1d()
        errors = check_module_gradients(gap, RNG.normal(size=(2, 3, 5)), RNG)
        assert errors["input"] < 1e-7
