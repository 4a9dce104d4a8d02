"""Numerical gradient checking for layers and whole models.

Every analytic backward pass in :mod:`repro.nn` is validated in the
test suite against central finite differences through these helpers;
nothing in ``src/`` uses them, so they live with the tests.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.nn.module import Module


def numerical_gradient(
    f: Callable[[np.ndarray], float], x: np.ndarray, eps: float = 1e-6
) -> np.ndarray:
    """Central-difference gradient of a scalar function of an array."""
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    out = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        plus = f(x)
        flat[i] = orig - eps
        minus = f(x)
        flat[i] = orig
        out[i] = (plus - minus) / (2.0 * eps)
    return grad


def check_module_gradients(
    module: Module,
    x: np.ndarray,
    rng: np.random.Generator,
    eps: float = 1e-6,
    training: bool = False,
) -> dict[str, float]:
    """Compare analytic and numerical gradients of a module.

    Builds a random linear probe ``loss = sum(w * forward(x))`` so the
    loss is scalar and every output element matters, then checks the
    gradient with respect to the input and every parameter.

    Returns:
        Mapping from ``"input"`` / parameter name to relative error.
    """
    probe = rng.normal(0.0, 1.0, module.forward(x, training=training).shape)

    def loss_given_input(arr: np.ndarray) -> float:
        return float(np.sum(probe * module.forward(arr, training=training)))

    module.zero_grad()
    y = module.forward(x, training=training)
    analytic_dx = module.backward(probe * np.ones_like(y))
    errors: dict[str, float] = {}
    numeric_dx = numerical_gradient(loss_given_input, x.copy(), eps)
    errors["input"] = _relative_error(analytic_dx, numeric_dx)

    for p in module.parameters():
        def loss_given_param(_arr: np.ndarray, p=p) -> float:
            return float(np.sum(probe * module.forward(x, training=training)))

        numeric = numerical_gradient(loss_given_param, p.value, eps)
        errors[p.name or "param"] = _relative_error(p.grad, numeric)
    return errors


def _relative_error(a: np.ndarray, b: np.ndarray) -> float:
    denom = max(float(np.linalg.norm(a) + np.linalg.norm(b)), 1e-12)
    return float(np.linalg.norm(a - b) / denom)
