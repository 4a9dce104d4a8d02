"""Reference per-window featurisation: the parity oracle for the pooled path.

Production featurises every window through
:func:`repro.dsp.frames.build_spectrum_frames_many` (a single window is
a pooled batch of one).  This module keeps the independent per-window
implementation it replaced — per-tag binning over one log, a Python
list of valid ``(tag, frame)`` entries, and an explicit per-tag,
per-frame scatter with forward fill — so the tests compare the single
production path against a second implementation bit for bit instead of
against itself.  Its covariance, MUSIC and normalisation steps are the
plain bodies in :mod:`tests.dsp.kernel_oracle`, not the vectorised
kernels in ``src/``.
"""

from __future__ import annotations

import numpy as np

from repro.channel.link import rssi_dbm_to_amplitude
from repro.channel.params import SPEED_OF_LIGHT, ChannelParams
from repro.dsp.frames import FeatureFrames, power_to_db
from repro.dsp.music import DEFAULT_ANGLES_DEG
from repro.dsp.periodogram import spatial_periodogram_batch
from repro.dsp.snapshots import TagSnapshots
from repro.hardware.llrp import ReadLog
from tests.dsp.kernel_oracle import (
    masked_spectra_batch,
    music_spectra_batch,
    normalize_pseudospectrum,
    spatial_covariance_stack,
)


def build_snapshots_all(
    log: ReadLog,
    psi: np.ndarray,
    n_frames: int | None = None,
    channel_params: ChannelParams | None = None,
) -> list[TagSnapshots]:
    """Snapshots for every tag of one window, binned in one pass."""
    if len(psi) != log.n_reads:
        raise ValueError("psi must align with the log")
    params = channel_params or ChannelParams()
    meta = log.meta
    n_ant = meta.n_antennas
    n_tags = log.n_tags
    round_s = meta.slot_s * n_ant
    rounds_per_dwell = max(1, int(round(meta.dwell_s / round_s)))

    t = log.timestamp_s
    amps = rssi_dbm_to_amplitude(log.rssi_dbm, params)

    min_t = float(t.min()) if log.n_reads else 0.0
    t0 = np.floor(min_t / meta.dwell_s) * meta.dwell_s
    dwell_idx = np.floor((t - t0) / meta.dwell_s).astype(int)
    round_idx = np.floor((t - t0) / round_s).astype(int)
    k_idx = np.clip(round_idx - dwell_idx * rounds_per_dwell, 0, rounds_per_dwell - 1)

    if n_frames is None:
        span = t.max() - t0 if log.n_reads else 0.0
        n_frames = max(1, int(np.ceil((span + 1e-9) / meta.dwell_s)))

    z = np.zeros((n_tags, n_frames, rounds_per_dwell, n_ant), dtype=np.complex128)
    valid = np.zeros((n_tags, n_frames, rounds_per_dwell, n_ant), dtype=bool)
    wavelength = np.full((n_tags, n_frames), np.nan)

    in_range = (dwell_idx >= 0) & (dwell_idx < n_frames)
    tags_sel = log.tag_index[in_range]
    f_sel = dwell_idx[in_range]
    values = (amps * np.exp(1j * psi))[in_range]
    # Duplicate (tag, dwell, round, antenna) bins keep the last read.
    flat = (
        (tags_sel * n_frames + f_sel) * rounds_per_dwell + k_idx[in_range]
    ) * n_ant + log.antenna[in_range]
    bins, first_in_reversed = np.unique(flat[::-1], return_index=True)
    last = flat.size - 1 - first_in_reversed
    z.reshape(-1)[bins] = values[last]
    valid.reshape(-1)[bins] = True
    tf = tags_sel * n_frames + f_sel
    tf_seen, first_in_reversed = np.unique(tf[::-1], return_index=True)
    wavelength.reshape(-1)[tf_seen] = (
        SPEED_OF_LIGHT / log.frequency_hz[in_range][tf.size - 1 - first_in_reversed]
    )

    # Unobserved frames take the tag's band-centre wavelength.
    centre = np.array(
        [
            float(np.nanmean(row)) if np.isfinite(row).any() else 0.328
            for row in wavelength
        ]
    )
    wavelength = np.where(np.isnan(wavelength), centre[:, None], wavelength)

    frame_time = t0 + np.arange(n_frames) * meta.dwell_s
    return [
        TagSnapshots(
            z=z[k], valid=valid[k], wavelength_m=wavelength[k], frame_time_s=frame_time
        )
        for k in range(n_tags)
    ]


def _collect_entries(snapshot_sets):
    """Every valid ``(tag, frame)`` dwell with its snapshot rows."""
    entries, z_rows, valid_rows, wavelengths = [], [], [], []
    for k, snaps in enumerate(snapshot_sets):
        for f in range(snaps.n_frames):
            if snaps.frame_valid(f):
                entries.append((k, f))
                z_rows.append(snaps.z[f])
                valid_rows.append(snaps.valid[f])
                wavelengths.append(float(snaps.wavelength_m[f]))
    return entries, z_rows, valid_rows, wavelengths


def _fill_tag_frames(snapshot_sets, entries, spectra, powers, pseudo, period):
    """Scatter per-entry outputs; invalid frames repeat the previous one."""
    position = {entry: i for i, entry in enumerate(entries)}
    for k in range(len(snapshot_sets)):
        for f in range(snapshot_sets[0].n_frames):
            i = position.get((k, f))
            if i is None:
                if f > 0:
                    if pseudo is not None:
                        pseudo[f, k] = pseudo[f - 1, k]
                    if period is not None:
                        period[f, k] = period[f - 1, k]
                continue
            if pseudo is not None and spectra is not None:
                pseudo[f, k] = spectra[i]
            if period is not None and powers is not None:
                period[f, k] = powers[i]


def build_spectrum_frames(
    log: ReadLog,
    psi: np.ndarray,
    n_frames: int | None = None,
    include_pseudo: bool = True,
    include_period: bool = True,
    label: str | None = None,
) -> FeatureFrames:
    """Featurise one window on its own (healthy or dead-port)."""
    grid = DEFAULT_ANGLES_DEG
    snapshot_sets = build_snapshots_all(log, psi, n_frames)
    frames = snapshot_sets[0].n_frames
    n_tags = len(snapshot_sets)
    live = log.antenna_liveness()
    healthy = bool(live.all())
    can_aoa = int(live.sum()) >= 2
    pseudo = np.zeros((frames, n_tags, grid.size)) if include_pseudo else None
    period = np.zeros((frames, n_tags, log.meta.n_antennas)) if include_period else None

    entries, z_rows, valid_rows, wavelengths = _collect_entries(snapshot_sets)
    spectra = powers = None
    if entries:
        z_stack = np.stack(z_rows)
        v_stack = np.stack(valid_rows)
        if period is not None:
            powers = power_to_db(
                spatial_periodogram_batch(
                    z_stack, v_stack, liveness=None if healthy else live
                )
            )
        if pseudo is not None and healthy:
            raw, _dims, _eigs = music_spectra_batch(
                spatial_covariance_stack(z_stack, v_stack),
                spacing_m=log.meta.spacing_m,
                wavelength_m=np.asarray(wavelengths),
                angles_deg=grid,
            )
            spectra = normalize_pseudospectrum(raw)
        elif pseudo is not None and can_aoa:
            spectra = np.concatenate(
                [
                    normalize_pseudospectrum(
                        masked_spectra_batch(
                            z_rows[i][None],
                            valid_rows[i][None],
                            live,
                            spacing_m=log.meta.spacing_m,
                            wavelength_m=wavelengths[i],
                            angles_deg=grid,
                        )[0]
                    )
                    for i in range(len(entries))
                ]
            )
    _fill_tag_frames(snapshot_sets, entries, spectra, powers, pseudo, period)

    channels = {}
    if pseudo is not None:
        channels["pseudo"] = pseudo
    if period is not None:
        channels["period"] = period
    return FeatureFrames(channels=channels, label=label, meta={"antenna_liveness": live})
