"""1-D convolution and pooling (the spectrum-frame encoders).

The paper's CONV-E1/E2/E3 layers slide over the 180-angle axis of the
pseudospectrum frame; 1-D convolution over that axis with the tag axis
as channels realises the same structure.

:class:`Conv1d` is a chunked im2col kernel.  The batch is walked in
fixed chunks of :data:`CHUNK` samples; each chunk's padded input is
gathered channel-major into ``cols (C·K, b·L_out)`` by ``K`` strided
copies, so the layer is one ``(C_out, C·K) @ cols`` GEMM forward and
two GEMMs backward (``dW`` and ``dcols``, then a ``K``-tap col2im add);
a ones row appended to ``cols`` carries the bias and its gradient
through the same GEMMs.  Chunking keeps the column buffer ~1 MB,
inside cache: an unchunked im2col buffer is ``K`` times the whole
input (tens of MB at serve batch sizes) and its copies cost what the
single GEMM saves.  The per-tap kernel it replaced is the parity
oracle in ``tests/nn/conv_oracle.py``.
"""

from __future__ import annotations

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
        self._x_pad: np.ndarray | None = None
        self._x_shape: tuple[int, ...] | None = None

    def _im2col(self, x_pad: np.ndarray, l_out: int, buf: np.ndarray) -> np.ndarray:
        """Gather one chunk's columns channel-major into ``buf``.

        ``x_pad`` is a padded ``(b, C, L_pad)`` chunk and ``buf`` a flat
        scratch buffer of at least ``(C·K + 1)·b·L_out`` elements.
        Returns the columns, shape: ``(C*K + 1, b*L_out)``; row
        ``c·K + k`` holds tap ``k`` of channel ``c``, matching the free
        contiguous view ``weight.reshape(C_out, C·K)``, and the last row
        is ones, so the bias rides in the same GEMM (forward) and its
        gradient falls out of the ``dW`` GEMM (backward).
        """
        b, channels, _ = x_pad.shape
        rows = channels * self.kernel
        cols = buf[: (rows + 1) * b * l_out].reshape(rows + 1, b * l_out)
        cols[rows] = 1.0
        taps = cols[:rows].reshape(channels, self.kernel, b, l_out)
        x_cm = x_pad.transpose(1, 0, 2)  # (C, b, L_pad) view
        for k in range(self.kernel):
            taps[:, k] = x_cm[:, :, k : k + self.stride * l_out : self.stride]
        return cols

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
        batch, channels, length = x.shape
        c_out, rows = self.out_channels, channels * self.kernel
        l_out = _out_length(length, self.kernel, self.stride, self.padding)
        if self.padding:
            # Direct zero-buffer fill: np.pad's generality costs more
            # Python time than this whole layer at serve batch sizes.
            x_pad = np.zeros(
                (batch, channels, length + 2 * self.padding), dtype=x.dtype
            )
            x_pad[:, :, self.padding : self.padding + length] = x
        else:
            x_pad = x
        self._x_pad = x_pad
        self._x_shape = x.shape
        dtype = np.result_type(x.dtype, self.weight.value.dtype)
        w_bias = np.empty((c_out, rows + 1), dtype=dtype)
        w_bias[:, :rows] = self.weight.value.reshape(c_out, rows)
        w_bias[:, rows] = self.bias.value
        chunk = min(batch, CHUNK)
        col_buf = np.empty((rows + 1) * chunk * l_out, dtype=dtype)
        out_buf = np.empty(c_out * chunk * l_out, dtype=dtype)
        y = np.empty((batch, c_out, l_out), dtype=dtype)
        for start in range(0, batch, chunk):
            stop = min(start + chunk, batch)
            b = stop - start
            out = out_buf[: c_out * b * l_out].reshape(c_out, b * l_out)
            np.matmul(w_bias, self._im2col(x_pad[start:stop], l_out, col_buf), out=out)
            y[start:stop] = out.reshape(c_out, b, l_out).transpose(1, 0, 2)
        return y

    def backward(self, grad: np.ndarray, input_grad: bool = True) -> np.ndarray | None:
        """Backprop through the cached forward pass; returns the input gradient.

        With ``input_grad=False`` only ``dW`` and ``db`` are accumulated:
        the ``dcols`` GEMM and the col2im adds are skipped and None is
        returned (a model input needs no gradient outside gradchecks).
        """
        if self._x_pad is None or self._x_shape is None:
            raise RuntimeError("backward before forward")
        x_pad = self._x_pad
        batch, channels, length = self._x_shape
        c_out, k_taps, stride = self.out_channels, self.kernel, self.stride
        rows = channels * k_taps
        l_out, l_pad = grad.shape[2], x_pad.shape[2]
        w = self.weight.value
        dtype = np.result_type(grad.dtype, x_pad.dtype, w.dtype)
        w_mat_t = w.reshape(c_out, rows).T
        # [dW | db]: the ones row of the columns turns the bias gradient
        # into one more column of the weight-gradient GEMM.
        dw_bias = np.zeros((c_out, rows + 1), dtype=dtype)
        chunk = min(batch, CHUNK)
        col_buf = np.empty((rows + 1) * chunk * l_out, dtype=dtype)
        if input_grad:
            # One chunk's padded input gradient, channel-major so the
            # col2im adds run along contiguous rows.
            dxp_buf = np.empty(channels * chunk * l_pad, dtype=dtype)
            dx = np.empty(self._x_shape, dtype=dtype)
        for start in range(0, batch, chunk):
            stop = min(start + chunk, batch)
            b = stop - start
            g_mat = np.ascontiguousarray(grad[start:stop].transpose(1, 0, 2))
            g_mat = g_mat.reshape(c_out, b * l_out)
            dw_bias += g_mat @ self._im2col(x_pad[start:stop], l_out, col_buf).T
            if not input_grad:
                continue
            dcols = (w_mat_t @ g_mat).reshape(channels, k_taps, b, l_out)
            dxp = dxp_buf[: channels * b * l_pad].reshape(channels, b, l_pad)
            dxp.fill(0.0)
            for k in range(k_taps):
                # Overlapping taps (stride < kernel) accumulate correctly
                # because each tap's += runs on its own strided view in turn.
                dxp[:, :, k : k + stride * l_out : stride] += dcols[:, k]
            dx[start:stop] = dxp[:, :, self.padding : self.padding + length].transpose(
                1, 0, 2
            )
        self.weight.grad += dw_bias[:, :rows].reshape(w.shape)
        self.bias.grad += dw_bias[:, rows]
        return dx if input_grad else None


class MaxPool1d(Module):
    """Max pooling over the last axis."""

    def __init__(self, kernel: int, stride: int | None = None) -> None:
        if kernel < 1:
            raise ValueError("kernel must be >= 1")
        self.kernel = kernel
        self.stride = stride or kernel
        self._x_shape: tuple[int, ...] | None = None
        self._argmax: np.ndarray | None = None
        self._gather: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        """Forward pass (caches what :meth:`backward` needs)."""
        if x.ndim != 3:
            raise ValueError(f"expected (B, C, L), got {x.shape}")
        batch, channels, length = x.shape
        l_out = _out_length(length, self.kernel, self.stride, 0)
        gather = (
            np.arange(l_out)[:, None] * self.stride + np.arange(self.kernel)[None, :]
        )
        windows = x[:, :, gather]  # (B, C, L_out, K)
        self._argmax = windows.argmax(axis=3)
        self._x_shape = x.shape
        self._gather = gather
        return windows.max(axis=3)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        """Backprop through the cached forward pass; returns the input gradient."""
        if self._x_shape is None or self._argmax is None or self._gather is None:
            raise RuntimeError("backward before forward")
        batch, channels, length = self._x_shape
        dx = np.zeros(self._x_shape, dtype=grad.dtype)
        l_out = grad.shape[2]
        b_idx, c_idx, o_idx = np.indices((batch, channels, l_out))
        src = self._gather[o_idx, self._argmax]
        np.add.at(dx, (b_idx, c_idx, src), grad)
        return dx


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
