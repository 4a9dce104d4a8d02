"""ConvBranch chunk walk vs the layer-at-a-time walk: bit-equal, end to end.

:class:`repro.core.model.ConvBranch` walks each chunk of
:data:`repro.nn.conv.CHUNK` samples through conv1 -> ReLU -> conv2 ->
ReLU (-> pool) before the next chunk; the oracle in
:mod:`tests.nn.branch_oracle` walks each layer over the whole batch.
These tests compare their bytes (output, input gradient, every
parameter gradient) across batch sizes on both sides of chunk
boundaries, both dtypes, both pooling geometries, both ``input_grad``
settings and a chunk list split into 1, 2 and 3 parts
(:mod:`repro.nn.parallel`); check that two threads can share the pool
and that a failing part surfaces only after every part has joined;
check that a short fit is bit-equal under the two walks; and pin the
pieces the walk is built from: the pad-free im2col, the fmax ReLU and
the bitwise ReLU gradient.
"""

from __future__ import annotations

import sys
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from repro.core import M2AIConfig, M2AINet, Trainer
from repro.core.model import ConvBranch
from repro.nn import Conv1d, ReLU, parallel
from repro.nn.conv import CHUNK
from repro.nn.layers import relu, relu_grad
from tests.core.test_trainer_pipeline import TINY_CFG
from tests.nn.branch_oracle import oracle_backward, oracle_forward

BATCHES = (1, CHUNK - 1, CHUNK, CHUNK + 1, 70, 320, 1280)


def _branch(width: int, dtype: type) -> ConvBranch:
    branch = ConvBranch(6, width, M2AIConfig(), np.random.default_rng(width), "pseudo")
    rng = np.random.default_rng(1)
    for p in branch.parameters():
        # Non-zero biases, so the bias row of every GEMM carries signal.
        if p.name.endswith(".b"):
            p.value = rng.normal(0.0, 0.1, p.shape)
        p.value = p.value.astype(dtype)
        p.grad = np.zeros_like(p.value)
    return branch


def _walk(branch, forward, backward, x, grad, input_grad):
    branch.zero_grad()
    y = forward(branch, x, training=True)
    dx = backward(branch, grad, input_grad=input_grad)
    return y, dx, [p.grad.copy() for p in branch.parameters()]


def _bytes(y, dx, grads) -> list[bytes | None]:
    return [y.tobytes(), None if dx is None else dx.tobytes()] + [g.tobytes() for g in grads]


def _walk_bytes(branch, x, grad, input_grad=True) -> list[bytes | None]:
    return _bytes(*_walk(branch, ConvBranch.forward, ConvBranch.backward, x, grad, input_grad))


def _case(batch: int, width: int, dtype: type):
    branch = _branch(width, dtype)
    rng = np.random.default_rng(batch)
    x = rng.normal(size=(batch, 6, width)).astype(dtype)
    grad = rng.normal(size=(batch, branch.fc.weight.shape[1])).astype(dtype)
    return branch, x, grad


@pytest.mark.parametrize("input_grad", (True, False))
@pytest.mark.parametrize("dtype", (np.float64, np.float32))
@pytest.mark.parametrize("width", (180, 360))
@pytest.mark.parametrize("batch", BATCHES)
def test_chunk_walk_matches_layer_walk_bit_for_bit(
    monkeypatch, batch, width, dtype, input_grad
):
    # One oracle walk, compared with the chunk walk split into 1 (the
    # serial loop), 2 and 3 parts: the bits must not depend on cores.
    branch, x, grad = _case(batch, width, dtype)
    assert (branch.pool is not None) == (width == 360)
    y_ref, dx_ref, grads_ref = _walk(
        branch, oracle_forward, oracle_backward, x, grad, input_grad
    )
    assert y_ref.dtype == dtype
    assert dx_ref is None or dx_ref.dtype == dtype
    expected = _bytes(y_ref, dx_ref, grads_ref)
    for pool_width in (1, 2, 3):
        monkeypatch.setattr(parallel, "WIDTH", pool_width)
        y, dx, grads = _walk(
            branch, ConvBranch.forward, ConvBranch.backward, x, grad, input_grad
        )
        assert y.dtype == dtype
        assert (dx is None) == (not input_grad)
        assert dx is None or dx.dtype == dtype
        got = _bytes(y, dx, grads)
        names = ["y", "dx"] + [p.name for p in branch.parameters()]
        for name, a, b in zip(names, got, expected):
            assert a == b, (pool_width, name)


@pytest.mark.parametrize("width", (180, 360))
def test_two_threads_share_the_pool_bit_for_bit(monkeypatch, width):
    # Two user threads walk two branches at once through the one pool,
    # with more threads than cores and a short switch interval.
    cases = [_case(batch, width, np.float64) for batch in (320, 257)]
    monkeypatch.setattr(parallel, "WIDTH", 1)
    serial = [_walk_bytes(*case) for case in cases]
    monkeypatch.setattr(parallel, "WIDTH", 3)
    barrier = threading.Barrier(2)
    results: list[list] = [[], []]

    def run(i: int) -> None:
        barrier.wait(timeout=60)
        for _ in range(3):
            results[i].append(_walk_bytes(*cases[i]))

    threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for got, want in zip(results, serial):
        assert got == [want] * 3


def test_worker_error_surfaces_after_every_part_joins(monkeypatch):
    monkeypatch.setattr(parallel, "WIDTH", 3)
    finished: list[int] = []

    def part(lo: int, hi: int) -> None:
        if lo == raising:
            raise ValueError(f"part {lo}")
        time.sleep(0.05)
        finished.append(lo)

    for raising in (1, 0):  # a pool part, then the caller's own part
        finished.clear()
        with pytest.raises(ValueError, match=f"part {raising}"):
            parallel.run_parts(3, part)
        assert sorted(finished) == sorted({0, 1, 2} - {raising})

    # Through the branch: a pool thread's chunk raises, the caller sees
    # it, and the next call runs clean and bit-equal.
    branch, x, grad = _case(320, 360, np.float64)
    expected = _walk_bytes(branch, x, grad)
    real = branch.conv2.forward_chunk

    def flaky(*args):
        if threading.current_thread() is not threading.main_thread():
            raise FloatingPointError("chunk failed")
        return real(*args)

    monkeypatch.setattr(branch.conv2, "forward_chunk", flaky)
    with pytest.raises(FloatingPointError, match="chunk failed"):
        branch.forward(x, training=True)
    monkeypatch.undo()
    monkeypatch.setattr(parallel, "WIDTH", 3)
    assert _walk_bytes(branch, x, grad) == expected


@pytest.mark.parametrize("width", (40, 300))
def test_short_fit_matches_layer_walk_fit(monkeypatch, width):
    # 8 samples x 5 frames = 40 rows per batch: one full chunk and a
    # remainder; width 300 takes the pooled geometry.
    rng = np.random.default_rng(width)
    shapes = {"pseudo": (2, width), "period": (2, 4)}
    inputs = {name: rng.normal(size=(24, 5, *shape)) for name, shape in shapes.items()}
    ids = np.arange(24) % 3
    cfg = replace(TINY_CFG, epochs=2, augment=True, dropout=0.2)

    def fit():
        net = M2AINet(shapes, 3, cfg=cfg)
        history = Trainer(net, cfg).fit(inputs, ids)
        return [np.asarray(history.loss)] + net.get_state()

    walked = fit()
    monkeypatch.setattr(ConvBranch, "forward", oracle_forward)
    monkeypatch.setattr(ConvBranch, "backward", oracle_backward)
    layered = fit()
    assert all(a.tobytes() == b.tobytes() for a, b in zip(walked, layered))


def test_parameter_names_and_order_unchanged():
    # Adam's slots, clip_grad_norm's sum and checkpoints follow this order.
    net = M2AINet({"pseudo": (6, 180), "period": (6, 8)}, 4)
    assert [p.name for p in net.parameters()] == [
        "period.fc.b", "period.fc.W",
        "pseudo.conv1.b", "pseudo.conv1.W",
        "pseudo.conv2.b", "pseudo.conv2.W",
        "pseudo.fc.b", "pseudo.fc.W",
        "head.b", "head.W",
        "lstm0.b", "lstm0.Wh", "lstm0.Wx",
        "lstm1.b", "lstm1.Wh", "lstm1.Wx",
        "merge.fc.b", "merge.fc.W",
    ]


@pytest.mark.parametrize("length", (2, 17))
@pytest.mark.parametrize("stride", (1, 2, 3))
@pytest.mark.parametrize("padding", (2, 3, 4))
def test_pad_free_im2col_equals_explicit_padding(length, stride, padding):
    # Length 2 leaves some taps entirely in the padding.
    rng = np.random.default_rng(10 * stride + padding)
    padded = Conv1d(3, 5, 5, rng, stride=stride, padding=padding)
    padded.bias.value[...] = rng.normal(size=5)
    plain = Conv1d(3, 5, 5, rng, stride=stride)
    plain.weight.value[...] = padded.weight.value
    plain.bias.value[...] = padded.bias.value
    x = rng.normal(size=(CHUNK + 3, 3, length))
    x_pad = np.zeros((CHUNK + 3, 3, length + 2 * padding))
    x_pad[:, :, padding : padding + length] = x
    y = padded.forward(x)
    assert y.tobytes() == plain.forward(x_pad).tobytes()
    grad = rng.normal(size=y.shape)
    dx = padded.backward(grad)
    dx_pad = plain.backward(grad)[:, :, padding : padding + length]
    assert dx.tobytes() == np.ascontiguousarray(dx_pad).tobytes()
    assert padded.weight.grad.tobytes() == plain.weight.grad.tobytes()
    assert padded.bias.grad.tobytes() == plain.bias.grad.tobytes()


SPECIALS = np.array([-np.inf, -2.0, -0.0, 0.0, 3.0, np.inf, np.nan, -np.nan])


@pytest.mark.parametrize("dtype", (np.float64, np.float32))
def test_relu_is_bit_equal_to_where_on_special_values(dtype):
    x = SPECIALS.astype(dtype)
    y = relu(x)
    assert y.dtype == dtype
    assert y.tobytes() == np.where(x > 0, x, 0.0).astype(dtype).tobytes()
    assert np.array_equal(y > 0, x > 0)
    assert ReLU().forward(x).tobytes() == y.tobytes()


@pytest.mark.parametrize("dtype", (np.float64, np.float32))
def test_relu_grad_is_bit_equal_to_where_on_special_values(dtype):
    # Every (output, gradient) pair of specials, NaN and -0.0 gradients
    # under both mask values included.
    y_vals = relu(SPECIALS.astype(dtype))
    y, grad = (a.ravel() for a in np.meshgrid(y_vals, SPECIALS.astype(dtype)))
    expected = np.where(y > 0, grad, 0.0).astype(dtype)
    assert relu_grad(grad, y).tobytes() == expected.tobytes()
    out = np.full_like(grad, 7.0)
    assert relu_grad(grad[::-1], y[::-1], out=out[::-1]) is not None
    assert out.tobytes() == expected.tobytes()
    relu_layer = ReLU()
    relu_layer.forward(y)
    assert relu_layer.backward(grad).tobytes() == expected.tobytes()
