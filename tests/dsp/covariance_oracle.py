"""Reference single-dwell covariance: the parity oracle for the stacked kernel.

Production computes every dwell's spatial covariance in one stacked
pass (:func:`repro.dsp.correlation.spatial_covariance_stack`), with the
snapshot selection expressed as a 0/1 row weighting.  This module keeps
the three-step scalar pipeline that pass replaced — sample covariance
over the selected rows, forward-backward averaging, diagonal loading —
so the tests compare the kernel against an independent second
implementation instead of against itself.

The two are not byte-identical: where a dwell has incomplete rows the
stack zero-weights them and this oracle drops them, which may change
the last bit of a sum.  The contract is ``rtol=1e-12``.
"""

from __future__ import annotations

import numpy as np


def sample_covariance(snapshots: np.ndarray, valid: np.ndarray | None = None) -> np.ndarray:
    """Sample spatial covariance ``R = E[x x^H]`` over snapshots.

    Args:
        snapshots: ``(K, N)`` complex array, one row per snapshot.
        valid: optional ``(K, N)`` mask; snapshots missing any antenna
            are dropped, and when *every* snapshot has gaps the gaps
            are zero-filled (conservative fallback).

    Returns:
        ``(N, N)`` Hermitian covariance.

    Raises:
        ValueError: when no snapshot is available at all.
    """
    x = np.asarray(snapshots, dtype=np.complex128)
    if x.ndim != 2:
        raise ValueError("snapshots must be (K, N)")
    if valid is not None:
        complete = valid.all(axis=1)
        if complete.any():
            x = x[complete]
        elif not valid.any():
            raise ValueError("no valid snapshots")
        else:
            x = np.where(valid, x, 0.0)
    if x.shape[0] == 0:
        raise ValueError("no valid snapshots")
    # R[i, j] = E[x_i * conj(x_j)] — rows of ``x`` are snapshots.
    return x.T @ x.conj() / x.shape[0]


def forward_backward(r: np.ndarray) -> np.ndarray:
    """Forward-backward averaged covariance ``(R + J R* J) / 2``.

    ``J`` is the exchange matrix.  For a ULA this doubles the effective
    snapshot count and de-correlates coherent path pairs.
    """
    r = np.asarray(r)
    n = r.shape[0]
    j = np.eye(n)[::-1]
    return 0.5 * (r + j @ r.conj() @ j)


def diagonal_load(r: np.ndarray, level: float = 1e-6) -> np.ndarray:
    """Add ``level * trace(R)/N`` to the diagonal for numerical safety."""
    n = r.shape[0]
    return r + np.eye(n) * (level * np.trace(r).real / n)


def spatial_covariance(
    snapshots: np.ndarray,
    valid: np.ndarray | None = None,
    use_forward_backward: bool = True,
    loading: float = 1e-6,
) -> np.ndarray:
    """The full scalar covariance pipeline of one dwell."""
    r = sample_covariance(snapshots, valid)
    if use_forward_backward:
        r = forward_backward(r)
    return diagonal_load(r, loading)
