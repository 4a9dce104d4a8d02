"""Vectorised geometry kernels for the propagation inner loop.

The channel model evaluates thousands of (path-leg, blocker, time-step)
combinations per simulated sample.  These helpers operate on whole time
axes at once so the simulator stays in numpy; the leg × blocker tests
themselves run as one batched pass inside
:meth:`repro.channel.model.MultipathChannel.path_components`.

Shapes follow one convention: a trajectory is an ``(T, 2)`` float array
of planar positions over ``T`` time steps; a static point may be passed
as a plain ``(2,)`` array and broadcasts.
"""

from __future__ import annotations

import numpy as np


def as_traj(p: np.ndarray, steps: int) -> np.ndarray:
    """Broadcast a point or trajectory to shape ``(steps, 2)``.

    Args:
        p: either a static ``(2,)`` point or a ``(steps, 2)`` trajectory.
        steps: the required number of time steps.

    Returns:
        A ``(steps, 2)`` view or tiled array.

    Raises:
        ValueError: when the input shape is incompatible.
    """
    arr = np.asarray(p, dtype=np.float64)
    if arr.shape == (2,):
        return np.broadcast_to(arr, (steps, 2))
    if arr.shape == (steps, 2):
        return arr
    raise ValueError(f"expected (2,) or ({steps}, 2), got {arr.shape}")


def pairwise_distance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-timestep Euclidean distance between two trajectories.

    Args:
        a: ``(T, 2)`` trajectory (or ``(2,)`` static point).
        b: ``(T, 2)`` trajectory (or ``(2,)`` static point).

    Returns:
        ``(T,)`` distances.
    """
    steps = max(np.atleast_2d(a).shape[0], np.atleast_2d(b).shape[0])
    if np.asarray(a).ndim == 1 and np.asarray(b).ndim == 1:
        steps = 1
    ta, tb = as_traj(a, steps), as_traj(b, steps)
    return np.linalg.norm(ta - tb, axis=1)
