"""Layer-at-a-time ConvBranch walk: the parity oracle for its chunk walk.

This is the walk :class:`repro.core.model.ConvBranch` ran before it
walked each chunk through the whole conv stack: a :class:`Sequential`
of conv1 -> ReLU -> conv2 -> ReLU (-> MaxPool1d) -> Flatten -> fc ->
ReLU, every layer over the whole batch in turn, with the ReLU written
as ``np.where`` and its mask cached.  It shares the branch's conv and
fc layers (so their parameters and gradients), and the chunk walk must
match it bit for bit: every GEMM sees the same operands and chunk
boundaries.  Test support code only.
"""

from __future__ import annotations

import weakref

import numpy as np

from repro.core.model import ConvBranch
from repro.nn import Flatten, MaxPool1d, Module, Sequential


class WhereReLU(Module):
    """The ``np.where`` ReLU with a cached mask."""

    def __init__(self) -> None:
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        """Forward pass (caches the mask)."""
        self._mask = x > 0
        return np.where(self._mask, x, 0.0)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        """Backprop through the cached mask."""
        return np.where(self._mask, grad, 0.0)


def layer_walk(branch: ConvBranch) -> Sequential:
    """The layer-at-a-time walk over ``branch``'s own layers."""
    layers: list[Module] = [branch.conv1, WhereReLU(), branch.conv2, WhereReLU()]
    if branch.pool is not None:
        layers.append(MaxPool1d(branch.pool.kernel, branch.pool.stride))
    layers += [Flatten(), branch.fc, WhereReLU()]
    return Sequential(*layers)


# Kept outside the branch: an attribute would add the walk's layers to
# ``branch.parameters()`` a second time.
_WALKS: weakref.WeakKeyDictionary[ConvBranch, Sequential] = weakref.WeakKeyDictionary()


def oracle_forward(branch: ConvBranch, x: np.ndarray, training: bool = False) -> np.ndarray:
    """Drop-in for ``ConvBranch.forward`` that runs :func:`layer_walk`."""
    _WALKS[branch] = layer_walk(branch)
    return _WALKS[branch].forward(x, training=training)


def oracle_backward(
    branch: ConvBranch, grad: np.ndarray, input_grad: bool = True
) -> np.ndarray | None:
    """Drop-in for ``ConvBranch.backward`` over the last :func:`oracle_forward`."""
    return _WALKS[branch].backward(grad, input_grad=input_grad)
