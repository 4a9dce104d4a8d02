"""Fused LSTM vs scalar reference: forward/backward parity.

The fused forward computes every timestep's input-gate GEMM at once
and keeps only the recurrence in the Python loop; the pre-fusion
per-timestep path is the oracle in :mod:`tests.nn.lstm_oracle`.  These
tests pin the fused layer to it across hypothesis-drawn shapes.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import LSTM
from tests.nn.lstm_oracle import backward_reference, forward_reference

RTOL = 1e-9
ATOL = 1e-12

shapes = st.tuples(
    st.integers(min_value=1, max_value=5),  # batch
    st.integers(min_value=1, max_value=9),  # steps
    st.integers(min_value=1, max_value=6),  # in_dim
    st.integers(min_value=1, max_value=7),  # hidden
)


def _grads(lstm: LSTM) -> dict[str, np.ndarray]:
    return {
        "w_x": lstm.w_x.grad.copy(),
        "w_h": lstm.w_h.grad.copy(),
        "bias": lstm.bias.grad.copy(),
    }


class TestFusedForwardParity:
    @given(shapes, st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_forward_matches_reference(self, shape, seed):
        batch, steps, in_dim, hidden = shape
        rng = np.random.default_rng(seed)
        lstm = LSTM(in_dim, hidden, rng)
        x = rng.normal(size=(batch, steps, in_dim))
        np.testing.assert_allclose(
            lstm.forward(x), forward_reference(lstm, x)[0], rtol=RTOL, atol=ATOL
        )

    def test_forward_matches_reference_large_activations(self):
        """Saturating inputs: the tanh-based in-place sigmoid must agree
        with the branchy reference sigmoid even for large |a|."""
        rng = np.random.default_rng(3)
        lstm = LSTM(4, 6, rng)
        x = rng.normal(size=(2, 10, 4)) * 50.0
        np.testing.assert_allclose(
            lstm.forward(x), forward_reference(lstm, x)[0], rtol=RTOL, atol=ATOL
        )


class TestFusedBackwardParity:
    @given(shapes, st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_backward_matches_reference(self, shape, seed):
        batch, steps, in_dim, hidden = shape
        rng = np.random.default_rng(seed)
        lstm = LSTM(in_dim, hidden, rng)
        x = rng.normal(size=(batch, steps, in_dim))
        grad = rng.normal(size=(batch, steps, hidden))

        lstm.forward(x)
        lstm.zero_grad()
        dx_fused = lstm.backward(grad)
        grads_fused = _grads(lstm)

        _out, cache = forward_reference(lstm, x)
        lstm.zero_grad()
        dx_ref = backward_reference(lstm, cache, x.shape, grad)
        grads_ref = _grads(lstm)

        np.testing.assert_allclose(dx_fused, dx_ref, rtol=RTOL, atol=ATOL)
        for name in grads_fused:
            np.testing.assert_allclose(
                grads_fused[name], grads_ref[name], rtol=RTOL, atol=ATOL
            )

    def test_backward_accumulates_like_reference(self):
        """Both paths += into Parameter.grad; two passes double it."""
        rng = np.random.default_rng(7)
        lstm = LSTM(3, 4, rng)
        x = rng.normal(size=(2, 5, 3))
        grad = rng.normal(size=(2, 5, 4))
        lstm.forward(x)
        lstm.zero_grad()
        lstm.backward(grad)
        once = lstm.w_x.grad.copy()
        lstm.forward(x)
        lstm.backward(grad)
        np.testing.assert_allclose(lstm.w_x.grad, 2.0 * once, rtol=RTOL)

    def test_backward_before_forward_raises(self):
        lstm = LSTM(3, 4, np.random.default_rng(0))
        with pytest.raises(RuntimeError, match="backward before forward"):
            lstm.backward(np.zeros((1, 2, 4)))


class TestFusedDtypePolymorphism:
    def test_float32_input_yields_float32_activations(self):
        """With float32 weights and input the fused path stays narrow."""
        rng = np.random.default_rng(1)
        lstm = LSTM(3, 4, rng)
        for p in lstm.parameters():
            p.value = p.value.astype(np.float32)
        x = rng.normal(size=(2, 5, 3)).astype(np.float32)
        out = lstm.forward(x)
        assert out.dtype == np.float32

    def test_mixed_dtype_follows_result_type(self):
        """float64 weights promote a float32 input back to float64."""
        rng = np.random.default_rng(1)
        lstm = LSTM(3, 4, rng)
        x = rng.normal(size=(2, 5, 3)).astype(np.float32)
        assert lstm.forward(x).dtype == np.float64
