"""Minimal deep-learning framework: parameters and modules.

The paper trains its CNN+LSTM in Keras/TensorFlow; this environment has
neither, so ``repro.nn`` implements the needed subset from scratch on
numpy with explicit forward/backward passes.  Every layer caches what
its backward pass needs during forward, so the usage contract is the
classic one: ``forward`` then ``backward`` once, gradients accumulate
into ``Parameter.grad`` until ``zero_grad``.
"""

from __future__ import annotations

import contextvars
from contextlib import contextmanager
from typing import Iterator

import numpy as np

DEFAULT_DTYPE = np.dtype(np.float64)
"""The library-wide parameter/activation dtype.

Single source of truth for the numeric standard: ``Parameter`` casts to
it by default and the runtime sanitizer
(:func:`repro.analysis.sanitize.anomaly_detection`) treats any drift
away from it as an anomaly.
"""

INFERENCE_DTYPE = np.dtype(np.float32)  # reprolint: disable=RPR012 -- the one sanctioned narrow dtype must be named here
"""The sanctioned narrow dtype for cast-once inference serving.

Training stays float64 end to end; a serve path may cast a trained
model's activations down to this dtype *inside* an
:func:`inference_mode` scope.  Both enforcement layers key off that
scope: the RPR012 dtype-flow lint admits narrow-float values proven to
stay inside ``with inference_mode():``, and the runtime sanitizer
accepts this dtype (plus its complex companion) only while the scope
is active.
"""

_INFERENCE_DEPTH: contextvars.ContextVar[int] = contextvars.ContextVar(
    "repro_inference_mode_depth", default=0
)


@contextmanager
def inference_mode() -> Iterator[None]:
    """Scope in which float32 inference tensors are sanctioned.

    The float64 discipline (lint rule RPR012, sanitizer dtype checks)
    applies everywhere *except* inside this context manager: a serve
    path that casts a trained model down to :data:`INFERENCE_DTYPE`
    once and runs narrow activations must do every narrow operation
    within the scope and cast back (or emit non-array decisions)
    before leaving it.

    The scope is tracked with a :class:`contextvars.ContextVar`, so it
    is thread- and task-local: arming it on a serving thread never
    relaxes checks for a concurrently training thread.  Nesting is
    allowed and counts depth.
    """
    token = _INFERENCE_DEPTH.set(_INFERENCE_DEPTH.get() + 1)
    try:
        yield
    finally:
        _INFERENCE_DEPTH.reset(token)


def in_inference_mode() -> bool:
    """True while the calling thread/task is inside :func:`inference_mode`."""
    return _INFERENCE_DEPTH.get() > 0


class Parameter:
    """A trainable tensor with an accumulated gradient.

    Args:
        value: initial value; cast to ``dtype``.
        name: diagnostic name (surfaces in gradcheck and sanitizer
            reports).
        dtype: target floating dtype.  The historical behaviour was a
            silent upcast to float64; the cast is now an explicit,
            validated argument so precision policy lives in one place.

    Raises:
        TypeError: when ``dtype`` is not a floating dtype.
    """

    def __init__(
        self,
        value: np.ndarray,
        name: str = "",
        dtype: np.dtype | type = DEFAULT_DTYPE,
    ) -> None:
        dt = np.dtype(dtype)
        if dt.kind != "f":
            raise TypeError(
                f"Parameter dtype must be a floating dtype, got {dt} "
                f"(the library standard is {DEFAULT_DTYPE})"
            )
        self.value = np.asarray(value, dtype=dt)
        self.grad = np.zeros_like(self.value)
        self.name = name

    @property
    def shape(self) -> tuple[int, ...]:
        """Shape of the parameter value."""
        return self.value.shape

    @property
    def size(self) -> int:
        """Number of scalar elements."""
        return int(self.value.size)

    def zero_grad(self) -> None:
        """Reset the gradient to zero."""
        self.grad[...] = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Parameter({self.name or 'unnamed'}, shape={self.shape})"


class Module:
    """Base class for layers and models.

    Subclasses register :class:`Parameter` attributes and sub-``Module``
    attributes directly on ``self``; :meth:`parameters` discovers both
    recursively.  ``forward`` takes a ``training`` flag (dropout etc.);
    ``backward`` receives the upstream gradient and returns the
    gradient with respect to the input.
    """

    fused: tuple[str, ...] = ()
    """Sub-module attributes whose kernels this module runs inline.

    Their own ``forward``/``backward`` are never called, so the runtime
    sanitizer checks their parameters at this module's boundary.
    """

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        """Compute the layer output for ``x``."""
        raise NotImplementedError

    def backward(self, grad: np.ndarray) -> np.ndarray:
        """Propagate ``grad``; returns the gradient w.r.t. the input."""
        raise NotImplementedError

    def __call__(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        return self.forward(x, training=training)

    def parameters(self) -> list[Parameter]:
        """All trainable parameters, depth-first, deterministic order."""
        params: list[Parameter] = []
        for _name, attr in sorted(vars(self).items()):
            if isinstance(attr, Parameter):
                params.append(attr)
            elif isinstance(attr, Module):
                params.extend(attr.parameters())
            elif isinstance(attr, (list, tuple)):
                for item in attr:
                    if isinstance(item, Module):
                        params.extend(item.parameters())
                    elif isinstance(item, Parameter):
                        params.append(item)
        return params

    def zero_grad(self) -> None:
        """Reset every parameter gradient to zero."""
        for p in self.parameters():
            p.zero_grad()

    def n_parameters(self) -> int:
        """Total scalar parameter count."""
        return sum(p.size for p in self.parameters())

    def get_state(self) -> list[np.ndarray]:
        """Snapshot of all parameter values (for checkpointing)."""
        return [p.value.copy() for p in self.parameters()]

    def set_state(self, state: list[np.ndarray]) -> None:
        """Restore a snapshot taken by :meth:`get_state`.

        Raises:
            ValueError: on a count or shape mismatch.
        """
        params = self.parameters()
        if len(state) != len(params):
            raise ValueError(
                f"state has {len(state)} tensors, model has {len(params)}"
            )
        for p, value in zip(params, state):
            if p.value.shape != value.shape:
                raise ValueError(f"shape mismatch for {p.name}: {p.value.shape} vs {value.shape}")
            p.value[...] = value


def cast_once(module: Module, dtype: np.dtype | type) -> Module:
    """Cast every parameter of ``module`` to ``dtype`` and freeze it.

    The serve-path primitive: a trained model is deep-copied by the
    caller, cast down *once* here, and then only ever run forward.  Two
    things happen, in order:

    1. every :class:`Parameter` value is cast to ``dtype`` (gradients are
       re-zeroed in the new dtype so the invariant ``value.dtype ==
       grad.dtype`` holds),
    2. every parameter value is frozen read-only, so in-place training
       updates (and :meth:`Module.set_state`) on a serve model fail
       loudly instead of silently changing the weights its parity gate
       accepted.

    Narrow targets (anything below :data:`DEFAULT_DTYPE`) must be
    requested inside :func:`inference_mode` — the same scope the RPR012
    lint and the runtime sanitizer key off — so a float32 pack can never
    be built on a code path where narrow activations would leak into
    training.

    Idempotent: casting to the current dtype only re-freezes.

    Args:
        module: the model to cast in place (cast your own deepcopy).
        dtype: target floating dtype.

    Returns:
        ``module``, for chaining.

    Raises:
        TypeError: when ``dtype`` is not a floating dtype.
        RuntimeError: when ``dtype`` is narrower than the library
            standard and the caller is not inside :func:`inference_mode`.
    """
    dt = np.dtype(dtype)
    if dt.kind != "f":
        raise TypeError(f"cast_once target must be a floating dtype, got {dt}")
    if dt != DEFAULT_DTYPE and not in_inference_mode():
        raise RuntimeError(
            f"cast_once to {dt} is a narrow cast and must run inside "
            "inference_mode() (see DESIGN.md section 14)"
        )
    for p in module.parameters():
        if p.value.dtype != dt:
            p.value = p.value.astype(dt)
            p.grad = np.zeros_like(p.value)
        p.value.flags.writeable = False
    return module


class Sequential(Module):
    """Feed-forward chain of modules."""

    def __init__(self, *layers: Module) -> None:
        self.layers = list(layers)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        """Run the layers in order."""
        for layer in self.layers:
            x = layer.forward(x, training=training)
        return x

    def backward(self, grad: np.ndarray, input_grad: bool = True) -> np.ndarray | None:
        """Backprop through the layers in reverse order.

        With ``input_grad=False`` the walk ends at the first layer that
        has parameters, which is called with ``input_grad=False`` and
        accumulates only its parameter gradients; the parameter-free
        layers before it are skipped and None is returned.
        """
        if input_grad:
            for layer in reversed(self.layers):
                grad = layer.backward(grad)
            return grad
        first = next(i for i, layer in enumerate(self.layers) if layer.parameters())
        for layer in reversed(self.layers[first + 1 :]):
            grad = layer.backward(grad)
        return self.layers[first].backward(grad, input_grad=False)
