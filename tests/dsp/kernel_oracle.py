"""The pooled featurisation kernels as plain numpy: byte-exact parity oracles.

Production bins a tick's reads, builds every dwell's covariance, runs
MUSIC and normalises the spectra in one vectorised pass per stage
(:func:`repro.dsp.snapshots.build_snapshots_many`,
:func:`repro.dsp.correlation.spatial_covariance_stack`,
:func:`repro.dsp.music.music_spectra_batch`,
:func:`repro.dsp.frames.normalize_pseudospectrum`).  This module keeps
the straightforward bodies those passes replaced, so the tests compare
each kernel against a second implementation byte for byte:

* binning keeps each bin's last read through two ``np.unique`` calls
  over the reversed reads, after dropping reads off the frame grid;
* forward-backward averaging multiplies by the exchange matrix,
  ``J @ R* @ J``;
* MUSIC groups entries by ``(subspace dim, wavelength)`` with one dict
  insert per entry and projects each group out of place;
* normalisation clips with ``np.clip`` on fresh temporaries.

Unlike :mod:`tests.dsp.covariance_oracle` and
:mod:`tests.dsp.spectrum_oracle` (scalar per-dwell bodies, compared at
``rtol=1e-12``), these run the same numerical operations on the same
stacks, so the contract is equal bytes (NaN where the oracle is NaN).
"""

from __future__ import annotations

import numpy as np

from repro.channel.link import rssi_dbm_to_amplitude
from repro.channel.params import SPEED_OF_LIGHT, ChannelParams
from repro.dsp.music import (
    DEFAULT_ANGLES_DEG,
    PHASE_MULTIPLIER,
    cached_steering_matrix,
    estimate_n_sources,
)
from repro.dsp.snapshots import _grid_origin
from repro.hardware.llrp import ReadLog

_DB_FLOOR = -40.0


def build_snapshots_many(
    logs: list[ReadLog],
    psis: list[np.ndarray],
    n_frames: int,
    channel_params: ChannelParams | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Bin many windows' reads; duplicate bins keep the last read."""
    if any(len(psi) != log.n_reads for log, psi in zip(logs, psis)):
        raise ValueError("each psi must align with its log")
    params = channel_params or ChannelParams()
    meta = logs[0].meta
    n_ant = meta.n_antennas
    n_tags = logs[0].n_tags
    round_s = meta.slot_s * n_ant
    rounds_per_dwell = max(1, int(round(meta.dwell_s / round_s)))
    n_windows = len(logs)

    counts = np.array([log.n_reads for log in logs])
    w_idx = np.repeat(np.arange(n_windows), counts)
    t = np.concatenate([log.timestamp_s for log in logs])
    antennas = np.concatenate([log.antenna for log in logs])
    tags = np.concatenate([log.tag_index for log in logs])
    freqs = np.concatenate([log.frequency_hz for log in logs])
    psi = np.concatenate(list(psis))
    amps = rssi_dbm_to_amplitude(
        np.concatenate([log.rssi_dbm for log in logs]), params
    )

    t0_w = np.array([_grid_origin(log) for log in logs])
    rel = t - t0_w[w_idx]
    dwell_idx = np.floor(rel / meta.dwell_s).astype(int)
    round_idx = np.floor(rel / round_s).astype(int)
    k_idx = np.clip(round_idx - dwell_idx * rounds_per_dwell, 0, rounds_per_dwell - 1)

    shape = (n_windows, n_tags, n_frames, rounds_per_dwell, n_ant)
    z = np.zeros(shape, dtype=np.complex128)
    valid = np.zeros(shape, dtype=bool)
    wavelength = np.full((n_windows, n_tags, n_frames), np.nan)

    in_range = (dwell_idx >= 0) & (dwell_idx < n_frames)
    values = (amps * np.exp(1j * psi))[in_range]
    wt = w_idx[in_range] * n_tags + tags[in_range]
    f_sel = dwell_idx[in_range]
    flat = (
        (wt * n_frames + f_sel) * rounds_per_dwell + k_idx[in_range]
    ) * n_ant + antennas[in_range]
    bins, first_in_reversed = np.unique(flat[::-1], return_index=True)
    last = flat.size - 1 - first_in_reversed
    z.reshape(-1)[bins] = values[last]
    valid.reshape(-1)[bins] = True
    tf = wt * n_frames + f_sel
    tf_seen, first_in_reversed = np.unique(tf[::-1], return_index=True)
    wavelength.reshape(-1)[tf_seen] = (
        SPEED_OF_LIGHT / freqs[in_range][tf.size - 1 - first_in_reversed]
    )

    finite = np.isfinite(wavelength)
    n_finite = finite.sum(axis=2)
    sums = np.where(finite, wavelength, 0.0).sum(axis=2)
    centre = np.where(n_finite > 0, sums / np.maximum(n_finite, 1), 0.328)
    wavelength = np.where(np.isnan(wavelength), centre[:, :, None], wavelength)

    frame_time = t0_w[:, None] + np.arange(n_frames) * meta.dwell_s
    return z, valid, wavelength, frame_time


def spatial_covariance_stack(
    snapshots: np.ndarray,
    valid: np.ndarray | None = None,
    use_forward_backward: bool = True,
    loading: float = 1e-6,
) -> np.ndarray:
    """Stacked covariance with exchange-matrix FB averaging."""
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
        complete = valid.all(axis=2)
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


def music_spectra_batch(
    covariances: np.ndarray,
    spacing_m: float,
    wavelength_m: float | np.ndarray,
    angles_deg: np.ndarray | None = None,
    n_sources: int | np.ndarray | None = None,
    phase_multiplier: float = PHASE_MULTIPLIER,
    element_indices: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """MUSIC over a stack, one dict-built group per (dim, wavelength)."""
    r = np.asarray(covariances, dtype=np.complex128)
    if r.ndim != 3 or r.shape[1] != r.shape[2]:
        raise ValueError("covariances must be a (W, N, N) stack")
    n_windows, n = r.shape[0], r.shape[1]
    grid = DEFAULT_ANGLES_DEG if angles_deg is None else np.asarray(angles_deg)
    wavelengths = np.broadcast_to(
        np.asarray(wavelength_m, dtype=np.float64), (n_windows,)
    )
    if n_windows == 0:
        return np.empty((0, grid.size)), np.empty(0, dtype=int), np.empty((0, n))
    eigvals, eigvecs = np.linalg.eigh(r)
    eigvals = eigvals[:, ::-1].real
    eigvecs = eigvecs[:, :, ::-1]
    if n_sources is None:
        dims = estimate_n_sources(eigvals)
    else:
        forced = np.broadcast_to(np.asarray(n_sources, dtype=np.int64), (n_windows,))
        dims = np.clip(forced, 1, max(1, n - 1))
    spectra = np.empty((n_windows, grid.size))
    groups: dict[tuple[int, float], list[int]] = {}
    for w in range(n_windows):
        groups.setdefault((int(dims[w]), float(wavelengths[w])), []).append(w)
    for (m, wl), members in groups.items():
        a = cached_steering_matrix(
            grid, n, spacing_m, wl, phase_multiplier,
            element_indices=element_indices,
        )
        noise = eigvecs[members][:, :, m:]
        proj = np.matmul(noise.conj().transpose(0, 2, 1), a)
        denom = np.maximum(np.sum(np.abs(proj) ** 2, axis=1), 1e-12)
        spectra[members] = 1.0 / denom
    return spectra, np.asarray(dims, dtype=int), eigvals


def masked_spectra_batch(
    snapshots: np.ndarray,
    valid: np.ndarray,
    liveness: np.ndarray,
    spacing_m: float,
    wavelength_m: float | np.ndarray,
    angles_deg: np.ndarray | None = None,
    n_sources: int | np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """MUSIC on the live subarray; FB only while the survivors stay uniform."""
    live = np.asarray(liveness, dtype=bool)
    if int(live.sum()) < 2:
        raise ValueError("need at least two live ports for AoA")
    indices = None
    uniform = True
    if not live.all():
        indices = np.flatnonzero(live)
        snapshots = np.asarray(snapshots)[:, :, indices]
        valid = np.asarray(valid)[:, :, indices]
        gaps = np.diff(indices)
        uniform = bool(gaps.size == 0 or np.all(gaps == gaps[0]))
    covs = spatial_covariance_stack(snapshots, valid, use_forward_backward=uniform)
    return music_spectra_batch(
        covs, spacing_m, wavelength_m, angles_deg=angles_deg,
        n_sources=n_sources, element_indices=indices,
    )


def normalize_pseudospectrum(spectrum: np.ndarray) -> np.ndarray:
    """dB relative to each row's peak, clipped at -40 dB, mapped to [0, 1]."""
    s = np.asarray(spectrum, dtype=np.float64)
    peak = np.maximum(s.max(axis=-1, keepdims=True), 1e-300)
    db = 10.0 * np.log10(np.maximum(s, 1e-300) / peak)
    return np.clip(db, _DB_FLOOR, 0.0) / (-_DB_FLOOR) + 1.0
