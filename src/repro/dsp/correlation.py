"""Spatial correlation matrices (Eq. 10) with coherent-source fixes.

Backscatter multipath components are *coherent* — they are copies of
one tag reply — so the plain sample covariance is rank-deficient and
plain MUSIC cannot separate them.  Forward-backward averaging restores
rank for a uniform linear array and is standard practice; it is the
de-correlation step implied by the paper's "de-couple multipath
signals" stage.
"""

from __future__ import annotations

import numpy as np


def spatial_covariance(
    snapshots: np.ndarray,
    valid: np.ndarray | None = None,
    use_forward_backward: bool = True,
    loading: float = 1e-6,
) -> np.ndarray:
    """Spatial covariance of one dwell's snapshots.

    A batch of one of :func:`spatial_covariance_stack`.

    Args:
        snapshots: ``(K, N)`` complex array, one row per snapshot.
        valid: optional ``(K, N)`` observation mask.
        use_forward_backward: apply FB averaging (ULA de-correlation).
        loading: diagonal loading level.

    Returns:
        ``(N, N)`` Hermitian covariance.

    Raises:
        ValueError: on a non-2-D input or when no snapshot is
            available at all.
    """
    x = np.asarray(snapshots, dtype=np.complex128)
    if x.ndim != 2:
        raise ValueError("snapshots must be (K, N)")
    return spatial_covariance_stack(
        x[None],
        None if valid is None else np.asarray(valid)[None],
        use_forward_backward=use_forward_backward,
        loading=loading,
    )[0]


def spatial_covariance_stack(
    snapshots: np.ndarray,
    valid: np.ndarray | None = None,
    use_forward_backward: bool = True,
    loading: float = 1e-6,
) -> np.ndarray:
    """The spatial covariance kernel: one stacked pass over W dwells.

    Sample covariance ``R = E[x x^H]`` over each dwell's snapshots,
    then forward-backward averaging ``(R + J R* J) / 2`` (``J`` the
    exchange matrix) and diagonal loading by ``loading * trace(R)/N``.
    The per-window snapshot selection (only complete rows count when a
    complete one exists; otherwise every row counts with its gaps
    zero-filled) is a 0/1 row weighting, so the whole stack runs as one
    matmul chain.  A zero-weighted row contributes nothing to the Gram
    product, which is what makes pooling dwells exact.

    Args:
        snapshots: ``(W, K, N)`` complex snapshots.
        valid: optional ``(W, K, N)`` observation mask.
        use_forward_backward: apply FB averaging (ULA de-correlation).
        loading: diagonal loading level.

    Returns:
        ``(W, N, N)`` stack of Hermitian covariances.

    Raises:
        ValueError: on a non-3-D stack, or when some window has no
            rounds or no observed snapshot at all.
    """
    x = np.asarray(snapshots, dtype=np.complex128)
    if x.ndim != 3:
        raise ValueError("snapshots must be (W, K, N)")
    n_windows, n_rounds, n = x.shape
    if n_windows == 0:
        return np.zeros((0, n, n), dtype=np.complex128)
    if n_rounds == 0:
        raise ValueError("no valid snapshots")
    if valid is not None:
        if valid.shape != x.shape:
            raise ValueError("valid must match snapshots")
        complete = valid.all(axis=2)  # (W, K)
        has_complete = complete.any(axis=1)
        if not (has_complete | valid.any(axis=(1, 2))).all():
            raise ValueError("no valid snapshots in some window")
        weights = np.where(has_complete[:, None], complete, True)
        x = np.where(valid, x, 0.0)
    else:
        weights = np.ones(x.shape[:2], dtype=bool)
    xw = x * weights[:, :, None]
    counts = weights.sum(axis=1).astype(np.float64)
    r = np.matmul(xw.transpose(0, 2, 1), xw.conj()) / counts[:, None, None]
    if use_forward_backward:
        j = np.eye(n)[::-1]
        r = 0.5 * (r + j @ r.conj() @ j)
    trace = np.trace(r, axis1=-2, axis2=-1).real
    return r + np.eye(n) * (loading * trace / n)[:, None, None]
