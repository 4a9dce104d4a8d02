"""Reference single-dwell MUSIC and periodogram: oracles for the stacked kernels.

Production runs every dwell through one stacked call per kernel
(:func:`repro.dsp.music.music_spectra_batch`,
:func:`repro.dsp.music.masked_spectra_batch`,
:func:`repro.dsp.periodogram.spatial_periodogram_batch`); the
single-dwell names in ``src/`` are batches of one of those kernels.
This module keeps the scalar bodies they replaced — one ``eigh`` and
one noise projection per covariance, one FFT per dwell with the
incomplete rows dropped — so the tests compare the kernels against an
independent second implementation.  The contract is ``rtol=1e-12``.
"""

from __future__ import annotations

import numpy as np

from repro.dsp.music import (
    DEFAULT_ANGLES_DEG,
    DEFAULT_GAP_RATIO,
    PHASE_MULTIPLIER,
    MusicResult,
    steering_matrix,
)
from tests.dsp.covariance_oracle import spatial_covariance


def estimate_n_sources(eigenvalues: np.ndarray) -> int:
    """Count eigenvalues above the gap ratio of the largest, in ``[1, N-1]``."""
    lam = np.sort(np.abs(np.asarray(eigenvalues)))[::-1]
    n = lam.size
    cap = max(1, n - 1)
    count = int(np.sum(lam > DEFAULT_GAP_RATIO * lam[0]))
    return max(1, min(count, cap))


def music_pseudospectrum(
    covariance: np.ndarray,
    spacing_m: float,
    wavelength_m: float,
    angles_deg: np.ndarray | None = None,
    n_sources: int | None = None,
    phase_multiplier: float = PHASE_MULTIPLIER,
    element_indices: np.ndarray | None = None,
) -> MusicResult:
    """MUSIC pseudospectrum of one ``(N, N)`` covariance."""
    r = np.asarray(covariance, dtype=np.complex128)
    if r.ndim != 2 or r.shape[0] != r.shape[1]:
        raise ValueError("covariance must be square")
    grid = DEFAULT_ANGLES_DEG if angles_deg is None else np.asarray(angles_deg)
    eigvals, eigvecs = np.linalg.eigh(r)
    order = np.argsort(eigvals)[::-1]
    eigvals = eigvals[order].real
    eigvecs = eigvecs[:, order]
    m = n_sources if n_sources is not None else estimate_n_sources(eigvals)
    m = max(1, min(m, r.shape[0] - 1))
    noise = eigvecs[:, m:]
    a = steering_matrix(
        grid, r.shape[0], spacing_m, wavelength_m, phase_multiplier,
        element_indices=element_indices,
    )
    proj = noise.conj().T @ a
    denom = np.maximum(np.sum(np.abs(proj) ** 2, axis=0), 1e-12)
    return MusicResult(
        angles_deg=np.asarray(grid, dtype=np.float64),
        spectrum=1.0 / denom,
        n_sources=m,
        eigenvalues=eigvals,
    )


def masked_pseudospectrum(
    snapshots: np.ndarray,
    valid: np.ndarray,
    liveness: np.ndarray,
    spacing_m: float,
    wavelength_m: float,
    angles_deg: np.ndarray | None = None,
    n_sources: int | None = None,
) -> MusicResult:
    """MUSIC over the live subarray of one ``(K, N)`` dwell."""
    live = np.asarray(liveness, dtype=bool)
    if int(live.sum()) < 2:
        raise ValueError("need at least two live ports for AoA")
    if live.all():
        cov = spatial_covariance(snapshots, valid)
        return music_pseudospectrum(
            cov, spacing_m, wavelength_m, angles_deg, n_sources
        )
    indices = np.flatnonzero(live)
    gaps = np.diff(indices)
    uniform = bool(gaps.size == 0 or np.all(gaps == gaps[0]))
    cov = spatial_covariance(
        snapshots[:, indices], valid[:, indices], use_forward_backward=uniform
    )
    return music_pseudospectrum(
        cov, spacing_m, wavelength_m, angles_deg, n_sources,
        element_indices=indices,
    )


def spatial_periodogram(
    snapshots: np.ndarray,
    valid: np.ndarray | None = None,
    liveness: np.ndarray | None = None,
) -> np.ndarray:
    """Average spatial periodogram of one ``(K, N)`` dwell."""
    x = np.asarray(snapshots, dtype=np.complex128)
    if x.ndim != 2:
        raise ValueError("snapshots must be (K, N)")
    live = None
    if liveness is not None:
        live = np.asarray(liveness, dtype=bool)
        if live.shape != (x.shape[1],):
            raise ValueError("liveness must be (N,)")
        if not live.any():
            raise ValueError("no live ports")
        if live.all():
            live = None
    if valid is not None:
        complete = valid.all(axis=1) if live is None else valid[:, live].all(axis=1)
        if complete.any():
            x = x[complete]
        elif not valid.any():
            raise ValueError("no valid snapshots")
        else:
            x = np.where(valid, x, 0.0)
    if x.shape[0] == 0:
        raise ValueError("no valid snapshots")
    scale = 1.0
    if live is not None:
        x = np.where(live[None, :], x, 0.0)
        scale = x.shape[1] / float(live.sum())
    powers = np.abs(np.fft.fft(x, axis=1)) ** 2 / x.shape[1]
    return scale * powers.mean(axis=0)
