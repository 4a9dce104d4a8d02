"""Long Short-Term Memory layer with full backpropagation through time.

The paper stacks two LSTM layers of 32 memory cells on top of the CNN
encoder (Section IV-B.2); the gating follows Hochreiter & Schmidhuber
with the usual forget-gate bias of 1 so memories persist early in
training.

The forward pass is *fused*: the input-gate contribution of every
timestep is one GEMM (``x`` reshaped to ``(B*T, D)`` against the packed
``(D, 4H)`` input weights, bias folded in), so the Python timestep loop
only carries the recurrence ``h @ W_hh`` — a ``(B, H) @ (H, 4H)``
matmul plus elementwise gate math per step.  Backward mirrors this: the
per-step loop only produces the packed gate deltas; all three parameter
gradients and the input gradient collapse into one stacked GEMM each
afterwards.  The test suite holds both passes to a per-timestep
reference loop at ``rtol=1e-9``.
"""

from __future__ import annotations

import numpy as np

from repro.nn.init import glorot_uniform, orthogonal
from repro.nn.module import Module, Parameter
from repro.obs.tracing import span


class LSTM(Module):
    """Sequence-to-sequence LSTM: ``(B, T, D) -> (B, T, H)``.

    Gate order in the packed weight matrices is (input, forget, cell,
    output).  The layer is dtype-polymorphic: activations follow
    ``np.result_type(input, weights)``, so a cast-once float32 serve
    model runs narrow end to end while training stays float64.
    """

    def __init__(
        self, in_dim: int, hidden: int, rng: np.random.Generator, name: str = "lstm"
    ) -> None:
        self.in_dim = in_dim
        self.hidden = hidden
        self.w_x = Parameter(
            glorot_uniform((in_dim, 4 * hidden), rng), name=f"{name}.Wx"
        )
        w_h = np.concatenate(
            [orthogonal((hidden, hidden), rng) for _ in range(4)], axis=1
        )
        self.w_h = Parameter(w_h, name=f"{name}.Wh")
        bias = np.zeros(4 * hidden)
        bias[hidden : 2 * hidden] = 1.0  # forget-gate bias
        self.bias = Parameter(bias, name=f"{name}.b")
        self._cache: dict[str, np.ndarray] | None = None
        self._x_shape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        """Fused forward pass (caches what :meth:`backward` needs).

        One GEMM computes ``x @ W_ih + b`` for *all* timesteps up
        front; the timestep loop then only adds the recurrent
        ``h @ W_hh`` term and applies the gate nonlinearities.

        Args:
            x: input sequence, shape: ``(B, T, D)``.

        Returns:
            Hidden-state sequence, shape: ``(B, T, H)``.

        Raises:
            ValueError: when ``x`` is not ``(B, T, in_dim)``.
        """
        if x.ndim != 3 or x.shape[2] != self.in_dim:
            raise ValueError(f"expected (B, T, {self.in_dim}), got {x.shape}")
        batch, steps, _dim = x.shape
        hid = self.hidden
        w_x = self.w_x.value
        w_h = self.w_h.value
        dtype = np.result_type(x.dtype, w_x.dtype)
        with span("nn.fused", batch=batch, steps=steps):
            # The fused input-gate GEMM: every timestep's x @ W_ih (+ bias)
            # in one matmul instead of T small ones.
            gates = x.reshape(batch * steps, -1) @ w_x
            gates += self.bias.value.astype(dtype, copy=False)
            gates = gates.reshape(batch, steps, 4 * hid)

            h = np.zeros((batch, hid), dtype=dtype)
            c = np.zeros((batch, hid), dtype=dtype)
            outputs = np.empty((batch, steps, hid), dtype=dtype)
            g_all = np.empty((batch, steps, hid), dtype=dtype)
            c_prev_all = np.empty((batch, steps, hid), dtype=dtype)
            tanh_c_all = np.empty((batch, steps, hid), dtype=dtype)
            ig = np.empty((batch, hid), dtype=dtype)
            for t in range(steps):
                a = gates[:, t, :]
                a += h @ w_h
                # Cell candidate first (its columns are about to be
                # overwritten by the slab-wide sigmoid below).
                g = g_all[:, t, :]
                np.tanh(a[:, 2 * hid : 3 * hid], out=g)
                # In-place sigmoid over the whole slab via
                # 0.5 * (tanh(0.5 a) + 1): stable for large |a|, no
                # temporaries, no boolean-mask copies.
                a *= 0.5
                np.tanh(a, out=a)
                a += 1.0
                a *= 0.5
                c_prev_all[:, t, :] = c
                np.multiply(a[:, :hid], g, out=ig)
                np.multiply(c, a[:, hid : 2 * hid], out=c)
                c += ig
                tanh_c = tanh_c_all[:, t, :]
                np.tanh(c, out=tanh_c)
                np.multiply(a[:, 3 * hid :], tanh_c, out=h)
                outputs[:, t, :] = h
        self._cache = {
            "x": x,
            "outputs": outputs,
            "gates": gates,
            "g": g_all,
            "c_prev": c_prev_all,
            "tanh_c": tanh_c_all,
        }
        self._x_shape = x.shape
        return outputs

    def backward(self, grad: np.ndarray) -> np.ndarray:
        """Batch-vectorised backprop through the cached fused forward.

        The reversed timestep loop only produces the packed gate deltas
        ``da``; the three parameter gradients and the input gradient
        are then each one stacked GEMM over all ``B*T`` rows.

        Args:
            grad: upstream gradient, shape: ``(B, T, H)``.

        Returns:
            Input gradient, shape: ``(B, T, D)``.

        Raises:
            RuntimeError: when called before :meth:`forward`.
        """
        if self._cache is None or self._x_shape is None:
            raise RuntimeError("backward before forward")
        batch, steps, _dim = self._x_shape
        hid = self.hidden
        cache = self._cache
        gates, g_all = cache["gates"], cache["g"]
        c_prev_all, tanh_c_all = cache["c_prev"], cache["tanh_c"]
        w_h_t = self.w_h.value.T
        da_all = np.empty((batch, steps, 4 * hid), dtype=gates.dtype)
        dh_next = np.zeros((batch, hid), dtype=gates.dtype)
        dc_next = np.zeros((batch, hid), dtype=gates.dtype)
        for t in reversed(range(steps)):
            slab = gates[:, t, :]
            i, f, o = slab[:, :hid], slab[:, hid : 2 * hid], slab[:, 3 * hid :]
            g = g_all[:, t]
            tanh_c = tanh_c_all[:, t]
            dh = grad[:, t, :] + dh_next
            do = dh * tanh_c
            dc = dh * o * (1.0 - tanh_c**2) + dc_next
            di = dc * g
            df = dc * c_prev_all[:, t]
            dg = dc * i
            dc_next = dc * f
            da = da_all[:, t, :]
            da[:, :hid] = di * i * (1.0 - i)
            da[:, hid : 2 * hid] = df * f * (1.0 - f)
            da[:, 2 * hid : 3 * hid] = dg * (1.0 - g**2)
            da[:, 3 * hid :] = do * o * (1.0 - o)
            dh_next = da @ w_h_t
        flat_da = da_all.reshape(batch * steps, 4 * hid)
        x = cache["x"]
        self.w_x.grad += x.reshape(batch * steps, -1).T @ flat_da
        # h_prev over all steps is the output sequence shifted right by
        # one frame with a zero initial state.
        h_prev = np.zeros_like(cache["outputs"])
        h_prev[:, 1:, :] = cache["outputs"][:, :-1, :]
        self.w_h.grad += h_prev.reshape(batch * steps, hid).T @ flat_da
        self.bias.grad += flat_da.sum(axis=0)
        dx = (flat_da @ self.w_x.value.T).reshape(self._x_shape)
        return dx


class LastStep(Module):
    """Select the final timestep: ``(B, T, H) -> (B, H)``."""

    def __init__(self) -> None:
        self._shape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        """Forward pass (caches what :meth:`backward` needs)."""
        self._shape = x.shape
        return x[:, -1, :]

    def backward(self, grad: np.ndarray) -> np.ndarray:
        """Backprop through the cached forward pass; returns the input gradient."""
        if self._shape is None:
            raise RuntimeError("backward before forward")
        dx = np.zeros(self._shape, dtype=grad.dtype)
        dx[:, -1, :] = grad
        return dx
