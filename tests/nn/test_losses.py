"""Loss functions: values, gradients, stability."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.nn import log_softmax, mse_loss, softmax, softmax_cross_entropy
from tests.nn.gradcheck import numerical_gradient

RNG = np.random.default_rng(2)


class TestSoftmax:
    def test_rows_sum_to_one(self):
        p = softmax(RNG.normal(size=(5, 7)))
        np.testing.assert_allclose(p.sum(axis=-1), 1.0)

    def test_shift_invariance(self):
        logits = RNG.normal(size=(3, 4))
        np.testing.assert_allclose(softmax(logits), softmax(logits + 100.0))

    def test_stable_for_large_logits(self):
        p = softmax(np.array([[1e4, 0.0]]))
        assert np.isfinite(p).all()
        assert p[0, 0] == pytest.approx(1.0)

    def test_log_softmax_consistent(self):
        logits = RNG.normal(size=(3, 4))
        np.testing.assert_allclose(np.exp(log_softmax(logits)), softmax(logits))


class TestCrossEntropy:
    def test_perfect_prediction_low_loss(self):
        logits = np.array([[100.0, 0.0], [0.0, 100.0]])
        loss, _grad = softmax_cross_entropy(logits, np.array([0, 1]))
        assert loss < 1e-6

    def test_uniform_loss_is_log_k(self):
        logits = np.zeros((4, 12))
        loss, _grad = softmax_cross_entropy(logits, np.zeros(4, dtype=int))
        assert loss == pytest.approx(np.log(12))

    def test_gradient_matches_numerical(self):
        logits = RNG.normal(size=(4, 5))
        labels = np.array([0, 2, 4, 1])

        def f(arr):
            return softmax_cross_entropy(arr, labels)[0]

        _loss, analytic = softmax_cross_entropy(logits, labels)
        numeric = numerical_gradient(f, logits.copy())
        np.testing.assert_allclose(analytic, numeric, atol=1e-7)

    def test_sequence_labels(self):
        logits = RNG.normal(size=(2, 3, 4))
        labels = np.array([[0, 1, 2], [3, 3, 3]])
        loss, grad = softmax_cross_entropy(logits, labels)
        assert grad.shape == logits.shape
        assert loss > 0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            softmax_cross_entropy(np.zeros((3, 4)), np.zeros(2, dtype=int))

    def test_label_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            softmax_cross_entropy(np.zeros((2, 3)), np.array([0, 3]))

    @given(st.integers(min_value=2, max_value=8))
    def test_gradient_sums_to_zero_per_row(self, k):
        logits = np.random.default_rng(k).normal(size=(3, k))
        _loss, grad = softmax_cross_entropy(logits, np.zeros(3, dtype=int))
        np.testing.assert_allclose(grad.sum(axis=-1), 0.0, atol=1e-12)


class TestMSE:
    def test_zero_at_match(self):
        x = RNG.normal(size=(3, 3))
        loss, grad = mse_loss(x, x)
        assert loss == 0.0
        np.testing.assert_allclose(grad, 0.0)

    def test_gradient_matches_numerical(self):
        pred = RNG.normal(size=(3, 4))
        target = RNG.normal(size=(3, 4))

        def f(arr):
            return mse_loss(arr, target)[0]

        _loss, analytic = mse_loss(pred, target)
        numeric = numerical_gradient(f, pred.copy())
        np.testing.assert_allclose(analytic, numeric, atol=1e-7)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            mse_loss(np.zeros((2, 2)), np.zeros((2, 3)))
