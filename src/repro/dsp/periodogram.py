"""Periodogram power estimation (Section III-C.2, Eq. 13-16).

The paper pairs the pseudospectrum (accurate angles, unreliable
powers) with the periodogram (accurate powers): the DFT of the
snapshot across the antenna aperture gives a coarse spatial power
density with N bins — "four values" on the R420 (Fig. 5b).

This module also provides the generic discrete-time periodogram
(Eq. 14) because tests pin it to Parseval's theorem (Eq. 16's
footnote), and the FFT-based featuriser of Fig. 16 reuses it.
"""

from __future__ import annotations

import numpy as np

from repro.obs.tracing import span


def periodogram_psd(y: np.ndarray) -> np.ndarray:
    """The classical periodogram ``phi_p(omega_k) = |Y(k)|^2 / N``.

    Evaluated at the standard frequency sampling ``omega_k = 2*pi*k/N``
    (Eq. 15) via the FFT (Eq. 16).

    Args:
        y: ``(N,)`` complex or real sequence.

    Returns:
        Non-negative power densities, shape: ``(N,)``.

    Raises:
        ValueError: on an empty sequence.
    """
    arr = np.asarray(y, dtype=np.complex128)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("y must be a non-empty 1-D sequence")
    spectrum = np.fft.fft(arr)
    return (np.abs(spectrum) ** 2) / arr.size


def spatial_periodogram(
    snapshots: np.ndarray,
    valid: np.ndarray | None = None,
    liveness: np.ndarray | None = None,
) -> np.ndarray:
    """Average spatial periodogram of one dwell's snapshots.

    A batch of one of :func:`spatial_periodogram_batch`.

    Args:
        snapshots: ``(K, N)`` complex snapshots (rounds x antennas).
        valid: optional ``(K, N)`` observation mask.
        liveness: optional ``(N,)`` port-liveness mask.

    Returns:
        Mean power per spatial-frequency bin, shape: ``(N,)``.

    Raises:
        ValueError: when nothing is observed, or no port is live.
    """
    x = np.asarray(snapshots, dtype=np.complex128)
    if x.ndim != 2:
        raise ValueError("snapshots must be (K, N)")
    return spatial_periodogram_batch(
        x[None], None if valid is None else np.asarray(valid)[None], liveness
    )[0]


def spatial_periodogram_batch(
    snapshots: np.ndarray,
    valid: np.ndarray | None = None,
    liveness: np.ndarray | None = None,
) -> np.ndarray:
    """The spatial periodogram kernel: average power per bin, per dwell.

    One FFT over the whole ``(W, K, N)`` stack.  Per-window snapshot
    selection is a 0/1 row weighting, which is exact because a
    zero-weighted row contributes nothing to the average: incomplete
    snapshots are dropped when any complete one exists; when *no*
    snapshot is complete (a degraded dwell), every row counts with its
    unobserved entries zero-filled — whatever values sit in unobserved
    slots are measurement garbage and must not leak into the average.

    Args:
        snapshots: ``(W, K, N)`` complex snapshots (windows x rounds x
            antennas).
        valid: optional ``(W, K, N)`` observation mask.
        liveness: optional ``(N,)`` port-liveness mask shared by the
            batch (one log = one liveness verdict).  Dead ports are
            excluded from the completeness check, forced to zero, and
            the power density is rescaled by ``N / n_live`` so the
            per-live-element power level stays comparable to the
            healthy array instead of silently sagging.  None (or
            all-live) is the healthy path exactly.

    Returns:
        Mean power per spatial-frequency bin, shape: ``(W, N)``.

    Raises:
        ValueError: on shape mismatches, when no port is live, or when
            some window has no rounds or no observed entry at all.
    """
    x = np.asarray(snapshots, dtype=np.complex128)
    if x.ndim != 3:
        raise ValueError("snapshots must be (W, K, N)")
    n_windows, n_rounds, n_ant = x.shape
    if n_windows == 0:
        return np.zeros((0, n_ant))
    if n_rounds == 0:
        raise ValueError("no valid snapshots")
    with span("dsp.periodogram.batch", windows=n_windows, snapshots=n_rounds):
        live = None
        if liveness is not None:
            live = np.asarray(liveness, dtype=bool)
            if live.shape != (n_ant,):
                raise ValueError("liveness must be (N,)")
            if not live.any():
                raise ValueError("no live ports")
            if live.all():
                live = None
        if valid is not None:
            if valid.shape != x.shape:
                raise ValueError("valid must match snapshots")
            complete = (
                valid.all(axis=2)
                if live is None
                else valid[:, :, live].all(axis=2)
            )  # (W, K)
            has_complete = complete.any(axis=1)
            if not (has_complete | valid.any(axis=(1, 2))).all():
                raise ValueError("no valid snapshots in some window")
            # Keep complete rows where they exist; otherwise keep every
            # row but silence the unobserved entries.
            weights = np.where(has_complete[:, None], complete, True)
            x = np.where(valid, x, 0.0)
        else:
            weights = np.ones((n_windows, n_rounds), dtype=bool)
        scale = 1.0
        if live is not None:
            x = np.where(live[None, None, :], x, 0.0)
            scale = n_ant / float(live.sum())
        powers = np.abs(np.fft.fft(x, axis=2)) ** 2 / n_ant
        counts = weights.sum(axis=1).astype(np.float64)
        mean = (powers * weights[:, :, None]).sum(axis=1) / counts[:, None]
        return scale * mean


def total_power(y: np.ndarray) -> float:
    """Sum of squared magnitudes — the Parseval-side invariant."""
    arr = np.asarray(y, dtype=np.complex128)
    return float(np.sum(np.abs(arr) ** 2))
