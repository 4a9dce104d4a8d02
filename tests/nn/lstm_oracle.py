"""Per-timestep LSTM reference: the parity oracle for the fused layer.

This is the pre-fusion loop: every timestep computes
``x_t @ W_ih + h @ W_hh + b`` on its own and keeps its own gate cache,
and backward walks those caches in reverse, accumulating every
parameter gradient step by step.  :class:`repro.nn.LSTM` must match it
to ``rtol=1e-9`` (the fused path sums the gate terms in a different
order, so bit-equality is not expected).  Test support code only.
"""

from __future__ import annotations

import numpy as np

from repro.nn import LSTM


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def forward_reference(layer: LSTM, x: np.ndarray) -> tuple[np.ndarray, list[dict]]:
    """Per-timestep forward through ``layer``'s weights.

    Args:
        layer: the LSTM whose parameters to use.
        x: input sequence, shape: ``(B, T, D)``.

    Returns:
        ``(outputs, cache)``: the ``(B, T, H)`` hidden-state sequence
        and the per-step cache :func:`backward_reference` consumes.

    Raises:
        ValueError: when ``x`` is not ``(B, T, in_dim)``.
    """
    if x.ndim != 3 or x.shape[2] != layer.in_dim:
        raise ValueError(f"expected (B, T, {layer.in_dim}), got {x.shape}")
    batch, steps, _dim = x.shape
    hid = layer.hidden
    dtype = np.result_type(x.dtype, layer.w_x.value.dtype)
    h = np.zeros((batch, hid), dtype=dtype)
    c = np.zeros((batch, hid), dtype=dtype)
    outputs = np.empty((batch, steps, hid), dtype=dtype)
    cache: list[dict[str, np.ndarray]] = []
    for t in range(steps):
        x_t = x[:, t, :]
        a = x_t @ layer.w_x.value + h @ layer.w_h.value + layer.bias.value
        i = _sigmoid(a[:, :hid])
        f = _sigmoid(a[:, hid : 2 * hid])
        g = np.tanh(a[:, 2 * hid : 3 * hid])
        o = _sigmoid(a[:, 3 * hid :])
        c_new = f * c + i * g
        tanh_c = np.tanh(c_new)
        h_new = o * tanh_c
        cache.append(
            {
                "x": x_t,
                "h_prev": h,
                "c_prev": c,
                "i": i,
                "f": f,
                "g": g,
                "o": o,
                "tanh_c": tanh_c,
            }
        )
        h, c = h_new, c_new
        outputs[:, t, :] = h
    return outputs, cache


def backward_reference(
    layer: LSTM, cache: list[dict], x_shape: tuple[int, ...], grad: np.ndarray
) -> np.ndarray:
    """Per-timestep backward matching :func:`forward_reference`.

    Accumulates (``+=``) into ``layer``'s parameter gradients, like the
    fused :meth:`repro.nn.LSTM.backward`.

    Args:
        layer: the LSTM the forward pass ran through.
        cache: the per-step cache :func:`forward_reference` returned.
        x_shape: the ``(B, T, D)`` shape of that forward's input.
        grad: upstream gradient, shape: ``(B, T, H)``.

    Returns:
        Input gradient, shape: ``(B, T, D)``.
    """
    batch, steps, _dim = x_shape
    hid = layer.hidden
    dx = np.zeros(x_shape)
    dh_next = np.zeros((batch, hid))
    dc_next = np.zeros((batch, hid))
    for t in reversed(range(steps)):
        step = cache[t]
        dh = grad[:, t, :] + dh_next
        do = dh * step["tanh_c"]
        dc = dh * step["o"] * (1.0 - step["tanh_c"] ** 2) + dc_next
        di = dc * step["g"]
        df = dc * step["c_prev"]
        dg = dc * step["i"]
        dc_next = dc * step["f"]
        da = np.concatenate(
            [
                di * step["i"] * (1.0 - step["i"]),
                df * step["f"] * (1.0 - step["f"]),
                dg * (1.0 - step["g"] ** 2),
                do * step["o"] * (1.0 - step["o"]),
            ],
            axis=1,
        )
        layer.w_x.grad += step["x"].T @ da
        layer.w_h.grad += step["h_prev"].T @ da
        layer.bias.grad += da.sum(axis=0)
        dx[:, t, :] = da @ layer.w_x.value.T
        dh_next = da @ layer.w_h.value.T
    return dx
