"""Chunked im2col Conv1d vs per-tap reference: parity, dtype and memory.

The im2col kernel walks the batch in chunks of :data:`repro.nn.conv.CHUNK`
samples; the per-tap kernel it replaced is the oracle in
:mod:`tests.nn.conv_oracle`.  These tests pin forward ``y`` and
backward ``dx``/``dW``/``db`` to it across strides, paddings, kernel
sizes and batch sizes on both sides of a chunk boundary, and hold the
forward's peak allocation to a small multiple of its input and output —
the unchunked im2col buffer this design avoids is ``K`` times the input.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.nn import Conv1d
from repro.nn import conv as conv_module
from repro.nn.module import INFERENCE_DTYPE, cast_once, inference_mode
from tests.nn.conv_oracle import backward_reference, forward_reference

RTOL = 1e-12
ATOL = 1e-12
CHUNK = conv_module.CHUNK
BATCHES = (1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 5)


def _run(conv: Conv1d, x: np.ndarray, grad_seed: int):
    y = conv.forward(x, training=True)
    grad = np.random.default_rng(grad_seed).normal(size=y.shape).astype(y.dtype)
    conv.zero_grad()
    dx = conv.backward(grad)
    return y, grad, dx, conv.weight.grad, conv.bias.grad


@pytest.mark.parametrize("batch", BATCHES)
@pytest.mark.parametrize("stride", (1, 2, 3))
def test_matches_per_tap_reference(batch, stride):
    rng = np.random.default_rng(1000 * batch + stride)
    for padding in range(4):
        for kernel in range(1, 10):
            conv = Conv1d(3, 4, kernel, rng, stride=stride, padding=padding)
            conv.bias.value[...] = rng.normal(size=4)
            x = rng.normal(size=(batch, 3, 13))
            y, grad, dx, dw, db = _run(conv, x, kernel)
            dx_ref, dw_ref, db_ref = backward_reference(conv, x, grad)
            np.testing.assert_allclose(y, forward_reference(conv, x), rtol=RTOL, atol=ATOL)
            np.testing.assert_allclose(dx, dx_ref, rtol=RTOL, atol=ATOL)
            np.testing.assert_allclose(dw, dw_ref, rtol=RTOL, atol=ATOL)
            np.testing.assert_allclose(db, db_ref, rtol=RTOL, atol=ATOL)


def test_float32_stays_float32_and_matches_reference():
    rng = np.random.default_rng(7)
    conv = Conv1d(6, 16, 7, rng, stride=2, padding=3)
    conv.bias.value[...] = rng.normal(size=16)
    with inference_mode():
        cast_once(conv, INFERENCE_DTYPE)
    # The oracle runs float64 on the float32-representable weights.
    reference = Conv1d(6, 16, 7, rng, stride=2, padding=3)
    reference.weight.value[...] = conv.weight.value
    reference.bias.value[...] = conv.bias.value
    x = rng.normal(size=(2 * CHUNK + 5, 6, 40)).astype(np.float32)
    y, grad, dx, dw, db = _run(conv, x, 3)
    for out in (y, dx, dw, db):
        assert out.dtype == np.float32
    x64, grad64 = x.astype(np.float64), grad.astype(np.float64)
    dx_ref, dw_ref, db_ref = backward_reference(reference, x64, grad64)
    np.testing.assert_allclose(y, forward_reference(reference, x64), rtol=1e-5, atol=1e-5)
    np.testing.assert_allclose(dx, dx_ref, rtol=1e-5, atol=1e-5)
    np.testing.assert_allclose(dw, dw_ref, rtol=1e-5, atol=1e-4)
    np.testing.assert_allclose(db, db_ref, rtol=1e-5, atol=1e-4)


def _serve_size_peak() -> tuple[int, int]:
    """Peak traced bytes of one float32 forward at serve size, and its bound."""
    rng = np.random.default_rng(0)
    batch, length = 1280, 180
    conv = Conv1d(6, 16, 7, rng, stride=1, padding=3)
    with inference_mode():
        cast_once(conv, INFERENCE_DTYPE)
    x = rng.normal(size=(batch, 6, length)).astype(np.float32)
    tracemalloc.start()
    try:
        y = conv.forward(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    padded_bytes = batch * 6 * (length + 6) * x.itemsize
    return peak, int(1.5 * (padded_bytes + y.nbytes))


def test_forward_memory_stays_near_input_plus_output():
    peak, bound = _serve_size_peak()
    assert peak < bound, f"peak {peak / 1e6:.1f} MB >= bound {bound / 1e6:.1f} MB"


def test_memory_guard_catches_unchunked_im2col(monkeypatch):
    # One chunk spanning the whole batch is the unchunked im2col buffer.
    monkeypatch.setattr(conv_module, "CHUNK", 1 << 30)
    peak, bound = _serve_size_peak()
    assert peak >= bound
