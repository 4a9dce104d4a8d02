"""1-D convolution and pooling (the spectrum-frame encoders).

The paper's CONV-E1/E2/E3 layers slide over the 180-angle axis of the
pseudospectrum frame; 1-D convolution over that axis with the tag axis
as channels realises the same structure.

:class:`Conv1d` is a chunked im2col kernel.  A batch is walked in fixed
chunks of :data:`CHUNK` samples.  Each chunk's input, channel-major
``(C, b, L)``, is gathered into ``cols (C·K + 1, b·L_out)`` by ``K``
strided copies; taps that fall in the zero padding are zero-filled in
``cols`` itself, so no padded copy of the input is made or cached.  The
layer is then one ``[W|b] @ cols`` GEMM forward (the ones row of
``cols`` carries the bias) and two GEMMs backward (``[dW|db]`` and
``dcols``, then a ``K``-tap col2im add).  Chunking keeps the column
buffer ~2 MB (43 rows x 32 x 180 columns x 8 B for the first
pseudospectrum stage), inside cache: an unchunked im2col buffer is
``K`` times the whole input (tens of MB at serve batch sizes) and its
copies cost what the single GEMM saves.

The per-chunk kernel is public (:meth:`Conv1d.forward_chunk`,
:meth:`Conv1d.backward_chunk`) so that a conv stack can walk each chunk
through all of its layers while the chunk is still in cache, and split
its chunks across cores (:class:`repro.core.model.ConvBranch`,
:mod:`repro.nn.parallel`); :meth:`Conv1d.forward` and
:meth:`Conv1d.backward` are the serial one-layer walk over the same
kernel.
The per-tap kernel it replaced is the parity oracle in
``tests/nn/conv_oracle.py``.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.nn.init import he_uniform
from repro.nn.module import Module, Parameter

CHUNK = 32
"""Samples per im2col chunk: sizes the column buffer, not the result."""


def _out_length(length: int, kernel: int, stride: int, padding: int) -> int:
    out = (length + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"conv output length {out} <= 0 (L={length}, K={kernel}, "
            f"stride={stride}, pad={padding})"
        )
    return out


@lru_cache(maxsize=64)
def _tap_plan(
    kernel: int, stride: int, padding: int, length: int
) -> tuple[tuple[int, int, int, slice], ...]:
    """Per tap ``k``: ``(k, o_lo, o_hi, source)``.

    Output columns ``o_lo:o_hi`` of tap ``k`` read the input at
    ``source`` (a strided slice of the unpadded axis); the columns
    outside that range read padding and are zero.
    """
    l_out = _out_length(length, kernel, stride, padding)
    plan = []
    for k in range(kernel):
        o_lo = min(l_out, max(0, -((k - padding) // stride)))
        o_hi = max(o_lo, min(l_out, (length - 1 - k + padding) // stride + 1))
        first = o_lo * stride + k - padding
        stop = first + stride * (o_hi - o_lo - 1) + 1 if o_hi > o_lo else first
        plan.append((k, o_lo, o_hi, slice(first, stop, stride)))
    return tuple(plan)


class Conv1d(Module):
    """Cross-correlation over the last axis: ``(B, C_in, L) -> (B, C_out, L_out)``."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel: int,
        rng: np.random.Generator,
        stride: int = 1,
        padding: int = 0,
        name: str = "conv",
    ) -> None:
        if kernel < 1 or stride < 1 or padding < 0:
            raise ValueError("kernel/stride must be >= 1, padding >= 0")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel = kernel
        self.stride = stride
        self.padding = padding
        fan_in = in_channels * kernel
        self.weight = Parameter(
            he_uniform((out_channels, in_channels, kernel), rng, fan_in=fan_in),
            name=f"{name}.W",
        )
        self.bias = Parameter(np.zeros(out_channels), name=f"{name}.b")
        self._x: np.ndarray | None = None

    def out_length(self, length: int) -> int:
        """Output length for an input of ``length``."""
        return _out_length(length, self.kernel, self.stride, self.padding)

    def col_size(self, chunk: int, length: int) -> int:
        """Elements of a column buffer for chunks of ``chunk`` samples of ``length``."""
        return (self.in_channels * self.kernel + 1) * chunk * self.out_length(length)

    def weight_matrix(self, dtype: np.dtype) -> np.ndarray:
        """``[W|b]`` in ``dtype``, the forward GEMM's left side, shape: ``(C_out, C*K + 1)``."""
        c_out, rows = self.out_channels, self.in_channels * self.kernel
        w_bias = np.empty((c_out, rows + 1), dtype=dtype)
        w_bias[:, :rows] = self.weight.value.reshape(c_out, rows)
        w_bias[:, rows] = self.bias.value
        return w_bias

    def _im2col(self, x_cm: np.ndarray, buf: np.ndarray) -> np.ndarray:
        """Gather one chunk's columns into ``buf``.

        ``x_cm`` is a channel-major ``(C, b, L)`` chunk (any strides) and
        ``buf`` a flat scratch buffer of at least :meth:`col_size`
        elements.  Returns the columns, shape: ``(C*K + 1, b*L_out)``;
        row ``c·K + k`` holds tap ``k`` of channel ``c``, matching the
        free contiguous view ``weight.reshape(C_out, C·K)``, with the
        taps that read padding zero-filled, and the last row is ones, so
        the bias rides in the same GEMM (forward) and its gradient falls
        out of the ``dW`` GEMM (backward).
        """
        channels, b, length = x_cm.shape
        l_out = self.out_length(length)
        rows = channels * self.kernel
        cols = buf[: (rows + 1) * b * l_out].reshape(rows + 1, b * l_out)
        cols[rows] = 1.0
        taps = cols[:rows].reshape(channels, self.kernel, b, l_out)
        for k, o_lo, o_hi, source in _tap_plan(self.kernel, self.stride, self.padding, length):
            taps[:, k, :, :o_lo] = 0.0
            taps[:, k, :, o_lo:o_hi] = x_cm[:, :, source]
            taps[:, k, :, o_hi:] = 0.0
        return cols

    def forward_chunk(
        self, x_cm: np.ndarray, w_bias: np.ndarray, col_buf: np.ndarray, out_buf: np.ndarray
    ) -> np.ndarray:
        """One chunk forward: ``[W|b] @ cols`` into ``out_buf``.

        Args:
            x_cm: channel-major input chunk, shape: ``(C, b, L)``.
            w_bias: :meth:`weight_matrix` in the output dtype.
            col_buf: flat column scratch (:meth:`col_size` elements).
            out_buf: flat output scratch, ``C_out·b·L_out`` elements or more.

        Returns:
            The chunk output, channel-major, shape: ``(C_out, b, L_out)``
            (a view of ``out_buf``).
        """
        cols = self._im2col(x_cm, col_buf)
        c_out, width = self.out_channels, cols.shape[1]
        out = out_buf[: c_out * width].reshape(c_out, width)
        np.matmul(w_bias, cols, out=out)
        return out.reshape(c_out, x_cm.shape[1], width // x_cm.shape[1])

    def backward_chunk(
        self,
        g_mat: np.ndarray,
        x_cm: np.ndarray,
        dw_bias: np.ndarray,
        col_buf: np.ndarray,
        dx_cm: np.ndarray | None = None,
    ) -> None:
        """One chunk backward: write its ``[dW|db]``, optionally its ``dx``.

        Args:
            g_mat: the chunk's output gradient, contiguous, shape:
                ``(C_out, b*L_out)``.
            x_cm: the chunk's forward input, channel-major, shape:
                ``(C, b, L)``.
            dw_bias: contiguous ``(C_out, C·K + 1)`` slot that receives
                this chunk's ``g_mat @ cols.T``; the walk adds the
                slots in chunk order (see :meth:`add_grads`).
            col_buf: flat column scratch (:meth:`col_size` elements).
            dx_cm: when given, the chunk's input gradient is written
                into it, shape: ``(C, b, L)``; None skips the ``dcols``
                GEMM and the col2im adds.
        """
        np.matmul(g_mat, self._im2col(x_cm, col_buf).T, out=dw_bias)
        if dx_cm is None:
            return
        channels, b, length = x_cm.shape
        c_out, k_taps = self.out_channels, self.kernel
        w_mat_t = self.weight.value.reshape(c_out, channels * k_taps).T
        dcols = (w_mat_t @ g_mat).reshape(channels, k_taps, b, -1)
        dx_cm.fill(0.0)
        for k, o_lo, o_hi, source in _tap_plan(k_taps, self.stride, self.padding, length):
            # Overlapping taps (stride < kernel) accumulate correctly
            # because each tap's += runs on its own strided view in turn.
            dx_cm[:, :, source] += dcols[:, k, :, o_lo:o_hi]

    def add_grads(self, dw_bias: np.ndarray) -> None:
        """Add a walk's summed ``[dW|db]`` into the parameter gradients."""
        rows = self.in_channels * self.kernel
        self.weight.grad += dw_bias[:, :rows].reshape(self.weight.value.shape)
        self.bias.grad += dw_bias[:, rows]

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        """Forward pass (caches what :meth:`backward` needs).

        Input shape: ``(B, C, L)``; output shape: ``(B, C_out, L_out)``.
        The output dtype follows ``np.result_type(x, weight)``, so a
        cast-once float32 serve model runs narrow end to end while
        float64 training is untouched.
        """
        if x.ndim != 3 or x.shape[1] != self.in_channels:
            raise ValueError(
                f"expected (B, {self.in_channels}, L), got {x.shape}"
            )
        batch, _, length = x.shape
        c_out, l_out = self.out_channels, self.out_length(length)
        self._x = x
        dtype = np.result_type(x.dtype, self.weight.value.dtype)
        w_bias = self.weight_matrix(dtype)
        chunk = min(batch, CHUNK)
        col_buf = np.empty(self.col_size(chunk, length), dtype=dtype)
        out_buf = np.empty(c_out * chunk * l_out, dtype=dtype)
        y = np.empty((batch, c_out, l_out), dtype=dtype)
        for start in range(0, batch, chunk):
            x_cm = x[start : start + chunk].transpose(1, 0, 2)
            out = self.forward_chunk(x_cm, w_bias, col_buf, out_buf)
            y[start : start + chunk] = out.transpose(1, 0, 2)
        return y

    def backward(self, grad: np.ndarray, input_grad: bool = True) -> np.ndarray | None:
        """Backprop through the cached forward pass; returns the input gradient.

        With ``input_grad=False`` only ``dW`` and ``db`` are accumulated:
        the ``dcols`` GEMM and the col2im adds are skipped and None is
        returned (a model input needs no gradient outside gradchecks).
        """
        x = self._x
        if x is None:
            raise RuntimeError("backward before forward")
        batch, channels, length = x.shape
        c_out, l_out = self.out_channels, grad.shape[2]
        dtype = np.result_type(grad.dtype, x.dtype, self.weight.value.dtype)
        # [dW | db]: the ones row of the columns turns the bias gradient
        # into one more column of the weight-gradient GEMM.
        dw_bias = np.zeros((c_out, channels * self.kernel + 1), dtype=dtype)
        dw_chunk = np.empty_like(dw_bias)
        chunk = min(batch, CHUNK)
        col_buf = np.empty(self.col_size(chunk, length), dtype=dtype)
        dx = dx_buf = None
        if input_grad:
            # One chunk's input gradient, channel-major so the col2im
            # adds run along contiguous rows.
            dx_buf = np.empty(channels * chunk * length, dtype=dtype)
            dx = np.empty(x.shape, dtype=dtype)
        for start in range(0, batch, chunk):
            stop = min(start + chunk, batch)
            b = stop - start
            g_mat = np.ascontiguousarray(grad[start:stop].transpose(1, 0, 2))
            dx_cm = None
            if dx_buf is not None:
                dx_cm = dx_buf[: channels * b * length].reshape(channels, b, length)
            self.backward_chunk(
                g_mat.reshape(c_out, b * l_out),
                x[start:stop].transpose(1, 0, 2),
                dw_chunk,
                col_buf,
                dx_cm,
            )
            dw_bias += dw_chunk
            if dx is not None:
                dx[start:stop] = dx_cm.transpose(1, 0, 2)
        self.add_grads(dw_bias)
        return dx


class MaxPool1d(Module):
    """Max pooling over the last axis."""

    def __init__(self, kernel: int, stride: int | None = None) -> None:
        if kernel < 1:
            raise ValueError("kernel must be >= 1")
        self.kernel = kernel
        self.stride = stride or kernel
        self._x_shape: tuple[int, ...] | None = None
        self._argmax: np.ndarray | None = None

    def _gather(self, length: int) -> np.ndarray:
        """Input index of every window tap, shape: ``(L_out, K)``."""
        l_out = _out_length(length, self.kernel, self.stride, 0)
        return np.arange(l_out)[:, None] * self.stride + np.arange(self.kernel)[None, :]

    def pool(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Window maxima of a 3-D ``x`` over its last axis, and their argmax.

        Any leading axis order works (``(B, C, L)`` or channel-major
        ``(C, b, L)``); returns ``(y, argmax)``, both shaped like ``x``
        with the last axis ``L_out``.
        """
        windows = x[:, :, self._gather(x.shape[2])]  # (., ., L_out, K)
        return windows.max(axis=3), windows.argmax(axis=3)

    def unpool(self, grad: np.ndarray, argmax: np.ndarray, length: int) -> np.ndarray:
        """Scatter ``grad`` back to each window's argmax: the input gradient of :meth:`pool`."""
        dx = np.zeros(grad.shape[:2] + (length,), dtype=grad.dtype)
        a_idx, c_idx, o_idx = np.indices(grad.shape)
        src = self._gather(length)[o_idx, argmax]
        np.add.at(dx, (a_idx, c_idx, src), grad)
        return dx

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        """Forward pass (caches what :meth:`backward` needs)."""
        if x.ndim != 3:
            raise ValueError(f"expected (B, C, L), got {x.shape}")
        y, self._argmax = self.pool(x)
        self._x_shape = x.shape
        return y

    def backward(self, grad: np.ndarray) -> np.ndarray:
        """Backprop through the cached forward pass; returns the input gradient."""
        if self._x_shape is None or self._argmax is None:
            raise RuntimeError("backward before forward")
        return self.unpool(grad, self._argmax, self._x_shape[2])


class GlobalAveragePool1d(Module):
    """Mean over the last axis: ``(B, C, L) -> (B, C)``."""

    def __init__(self) -> None:
        self._x_shape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        """Forward pass (caches what :meth:`backward` needs)."""
        self._x_shape = x.shape
        return x.mean(axis=2)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        """Backprop through the cached forward pass; returns the input gradient."""
        if self._x_shape is None:
            raise RuntimeError("backward before forward")
        batch, channels, length = self._x_shape
        return np.broadcast_to(grad[:, :, None] / length, self._x_shape).copy()
