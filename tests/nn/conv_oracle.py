"""Per-tap Conv1d reference: the parity oracle for the im2col kernel.

This is the pre-im2col kernel: forward issues one broadcast matmul
``(C_out, C) @ (B, C, L_out)`` per kernel tap over strided views of the
padded input, and backward walks the taps again, accumulating each
tap's weight gradient and scattering its input gradient.
:class:`repro.nn.Conv1d` must match it to ``rtol=1e-12`` in float64
(the GEMM sums the ``C·K`` products in a different order, so
bit-equality is not expected).  Test support code only.
"""

from __future__ import annotations

import numpy as np

from repro.nn import Conv1d


def _pad(layer: Conv1d, x: np.ndarray) -> np.ndarray:
    if not layer.padding:
        return x
    batch, channels, length = x.shape
    x_pad = np.zeros((batch, channels, length + 2 * layer.padding), dtype=x.dtype)
    x_pad[:, :, layer.padding : layer.padding + length] = x
    return x_pad


def _tap(layer: Conv1d, x_pad: np.ndarray, k: int, l_out: int) -> np.ndarray:
    """Strided view of tap ``k``'s input columns, shape: ``(B, C, L_out)``."""
    return x_pad[:, :, k : k + layer.stride * l_out : layer.stride]


def forward_reference(layer: Conv1d, x: np.ndarray) -> np.ndarray:
    """Per-tap forward through ``layer``'s weights.

    Args:
        layer: the Conv1d whose parameters and geometry to use.
        x: input, shape: ``(B, C, L)``.

    Returns:
        The ``(B, C_out, L_out)`` output in ``np.result_type(x, weight)``.
    """
    x_pad = _pad(layer, x)
    l_out = (x_pad.shape[2] - layer.kernel) // layer.stride + 1
    w = layer.weight.value
    dtype = np.result_type(x.dtype, w.dtype)
    y = np.empty((x.shape[0], layer.out_channels, l_out), dtype=dtype)
    y[...] = layer.bias.value[:, None].astype(dtype, copy=False)
    for k in range(layer.kernel):
        y += np.matmul(w[:, :, k], _tap(layer, x_pad, k, l_out))
    return y


def backward_reference(
    layer: Conv1d, x: np.ndarray, grad: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-tap backward for input ``x`` and output gradient ``grad``.

    Args:
        layer: the Conv1d whose parameters and geometry to use.
        x: the forward input, shape: ``(B, C, L)``.
        grad: gradient w.r.t. the output, shape: ``(B, C_out, L_out)``.

    Returns:
        ``(dx, dW, db)`` — fresh arrays; ``layer``'s own ``.grad``
        buffers are not touched.
    """
    x_pad = _pad(layer, x)
    l_out = grad.shape[2]
    w = layer.weight.value
    dw = np.zeros(w.shape, dtype=np.result_type(grad.dtype, w.dtype))
    dx_pad = np.zeros_like(x_pad)
    for k in range(layer.kernel):
        dw[:, :, k] = np.tensordot(
            grad, _tap(layer, x_pad, k, l_out), axes=([0, 2], [0, 2])
        )
        # Overlapping taps (stride < kernel) accumulate correctly
        # because each tap's += runs on its own strided view in turn.
        dx_pad[:, :, k : k + layer.stride * l_out : layer.stride] += np.matmul(
            w[:, :, k].T, grad
        )
    db = grad.sum(axis=(0, 2))
    length = x.shape[2]
    return dx_pad[:, :, layer.padding : layer.padding + length], dw, db
