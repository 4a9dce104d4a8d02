"""Dense and element-wise layers."""

from __future__ import annotations

import numpy as np

from repro.nn.init import glorot_uniform, he_uniform
from repro.nn.module import Module, Parameter


class Dense(Module):
    """Affine layer ``y = x W + b`` over the last axis.

    Accepts any leading batch shape: ``(..., in_dim) -> (..., out_dim)``.
    """

    def __init__(
        self,
        in_dim: int,
        out_dim: int,
        rng: np.random.Generator,
        relu_init: bool = False,
        name: str = "dense",
    ) -> None:
        init = he_uniform if relu_init else glorot_uniform
        self.weight = Parameter(init((in_dim, out_dim), rng), name=f"{name}.W")
        self.bias = Parameter(np.zeros(out_dim), name=f"{name}.b")
        self._x: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        """Forward pass (caches what :meth:`backward` needs)."""
        self._x = x
        return x @ self.weight.value + self.bias.value

    def backward(self, grad: np.ndarray, input_grad: bool = True) -> np.ndarray | None:
        """Backprop through the cached forward pass; returns the input gradient.

        With ``input_grad=False`` only ``dW`` and ``db`` are accumulated
        and None is returned: the ``grad @ W.T`` product is skipped.
        """
        x = self._x
        if x is None:
            raise RuntimeError("backward before forward")
        flat_x = x.reshape(-1, x.shape[-1])
        flat_g = grad.reshape(-1, grad.shape[-1])
        self.weight.grad += flat_x.T @ flat_g
        self.bias.grad += flat_g.sum(axis=0)
        return grad @ self.weight.value.T if input_grad else None


def relu(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``max(x, 0)`` into ``out`` (a new array when None).

    Bit-equal to ``np.where(x > 0, x, 0.0)`` for every input, ±0, NaN
    and ±inf included: ``fmax`` returns the non-NaN operand, and the
    ``+= 0.0`` turns the ``-0.0`` that ``fmax(-0.0, 0.0)`` keeps into
    ``+0.0``.  ``out > 0`` holds exactly where ``x > 0``, so a cached
    output doubles as the backward mask.
    """
    out = np.fmax(x, 0.0, out=out)
    out += 0.0
    return out


def relu_grad(grad: np.ndarray, y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``grad`` where the ReLU output ``y`` is positive, else ``+0.0``, into ``out``.

    Bit-equal to ``np.where(y > 0, grad, 0.0)`` for every gradient, NaN
    and ``-0.0`` included (``grad * mask`` is not: it keeps a masked
    NaN and signs a masked zero), and branch-free: the mask, sign-
    extended to all-ones or all-zeros, is ANDed into the bits of
    ``grad``.  ``out`` (a new array when None) has ``grad``'s dtype.
    """
    if out is None:
        out = np.empty(grad.shape, dtype=grad.dtype)
    ints = np.dtype(f"i{grad.itemsize}")
    mask = np.greater(y, 0).view(np.int8)
    np.negative(mask, out=mask)
    np.bitwise_and(grad.view(ints), mask, out=out.view(ints))
    return out


class ReLU(Module):
    """Rectified linear unit."""

    def __init__(self) -> None:
        self._y: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        """Forward pass; caches its output, which must not be modified in place."""
        self._y = relu(x)
        return self._y

    def backward(self, grad: np.ndarray) -> np.ndarray:
        """Backprop through the cached forward pass; returns the input gradient."""
        if self._y is None:
            raise RuntimeError("backward before forward")
        return relu_grad(grad, self._y)


class Tanh(Module):
    """Hyperbolic tangent."""

    def __init__(self) -> None:
        self._y: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        """Forward pass (caches what :meth:`backward` needs)."""
        self._y = np.tanh(x)
        return self._y

    def backward(self, grad: np.ndarray) -> np.ndarray:
        """Backprop through the cached forward pass; returns the input gradient."""
        if self._y is None:
            raise RuntimeError("backward before forward")
        return grad * (1.0 - self._y**2)


class Dropout(Module):
    """Inverted dropout; identity at inference time."""

    def __init__(self, rate: float, rng: np.random.Generator) -> None:
        if not 0.0 <= rate < 1.0:
            raise ValueError("rate must be in [0, 1)")
        self.rate = rate
        self._rng = rng
        self._mask: np.ndarray | None = None

    @property
    def rng(self) -> np.random.Generator:
        """The generator feeding the masks (checkpointing captures it)."""
        return self._rng

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        """Forward pass (caches what :meth:`backward` needs)."""
        if not training or self.rate == 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.rate
        self._mask = (self._rng.random(x.shape) < keep) / keep
        return x * self._mask

    def backward(self, grad: np.ndarray) -> np.ndarray:
        """Backprop through the cached forward pass; returns the input gradient."""
        if self._mask is None:
            return grad
        return grad * self._mask


class Flatten(Module):
    """Collapse all but the first axis: ``(B, ...) -> (B, D)``."""

    def __init__(self) -> None:
        self._shape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        """Forward pass (caches what :meth:`backward` needs)."""
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        """Backprop through the cached forward pass; returns the input gradient."""
        if self._shape is None:
            raise RuntimeError("backward before forward")
        return grad.reshape(self._shape)
