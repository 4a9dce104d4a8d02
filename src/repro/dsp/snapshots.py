"""Snapshot assembly: read log -> per-tag array snapshots.

The R420 time-multiplexes its four ports (25 ms each), so one *round*
of port switching (100 ms) yields one spatial snapshot — a complex
value per antenna — and one 400 ms channel dwell yields four snapshots
at a single carrier frequency.  Grouping per dwell keeps every spatial
correlation matrix single-frequency, which is what makes MUSIC steering
exact; successive dwells become successive *spectrum frames* for the
learning engine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.channel.link import rssi_dbm_to_amplitude
from repro.channel.params import SPEED_OF_LIGHT, ChannelParams
from repro.hardware.llrp import ReadLog


@dataclass
class TagSnapshots:
    """Per-dwell spatial snapshots of one tag.

    Attributes:
        z: ``(F, K, N)`` complex snapshots — F dwells (frames), K
            rounds per dwell, N antennas.  Invalid entries are 0.
        valid: ``(F, K, N)`` bool mask of entries actually observed.
        wavelength_m: ``(F,)`` carrier wavelength of each dwell.
        frame_time_s: ``(F,)`` dwell start times.
    """

    z: np.ndarray
    valid: np.ndarray
    wavelength_m: np.ndarray
    frame_time_s: np.ndarray

    @property
    def n_frames(self) -> int:
        """Number of frames."""
        return int(self.z.shape[0])

    @property
    def n_antennas(self) -> int:
        """Number of antenna elements."""
        return int(self.z.shape[2])

    def frame_valid(self, f: int, min_antennas: int = 2) -> bool:
        """True when frame ``f`` observed at least ``min_antennas`` ports."""
        seen = self.valid[f].any(axis=0)
        return int(seen.sum()) >= min_antennas


def frame_count(log: ReadLog) -> int:
    """Frames a window spans on its dwell grid (1 for an empty log).

    The frame count every builder uses when the caller does not force
    one: dwells from the grid-snapped first read through the last read.
    """
    if not log.n_reads:
        return 1
    span = log.timestamp_s.max() - _grid_origin(log)
    return max(1, int(np.ceil((span + 1e-9) / log.meta.dwell_s)))


def _grid_origin(log: ReadLog) -> float:
    """The first read's time snapped down onto the dwell grid.

    The first *read* may fall mid-dwell (earlier reads lost to harvest
    failures), but frames must align with hop boundaries or a frame
    would mix two carriers.
    """
    if not log.n_reads:
        return 0.0
    dwell = log.meta.dwell_s
    return float(np.floor(float(log.timestamp_s.min()) / dwell) * dwell)


def build_snapshots(
    log: ReadLog,
    psi: np.ndarray,
    tag: int,
    n_frames: int | None = None,
    channel_params: ChannelParams | None = None,
) -> TagSnapshots:
    """Assemble snapshots for one tag.

    Each read becomes a complex sample ``a * exp(1j * psi)`` where the
    amplitude comes from RSSI and ``psi`` is the (calibrated) doubled
    phase.  Reads are binned by (dwell, round-within-dwell, antenna);
    duplicate bins keep the last read.  This is one tag's slice of
    :func:`build_snapshots_many` over the single window ``log``.

    Args:
        log: the full session read log.
        psi: ``(R,)`` doubled phases aligned with ``log`` (calibrated
            or raw, the caller chooses — this is the Fig. 10 toggle).
        tag: tag index to extract.
        n_frames: force the number of frames (defaults to the span of
            the log).
        channel_params: link-budget constants for the RSSI inverse
            mapping.

    Returns:
        The tag's :class:`TagSnapshots`.
    """
    frames = frame_count(log) if n_frames is None else n_frames
    z, valid, wavelength, frame_time = build_snapshots_many(
        [log], [psi], frames, channel_params
    )
    return TagSnapshots(
        z=z[0, tag],
        valid=valid[0, tag],
        wavelength_m=wavelength[0, tag],
        frame_time_s=frame_time[0],
    )


def build_snapshots_many(
    logs: list[ReadLog],
    psis: list[np.ndarray],
    n_frames: int,
    channel_params: ChannelParams | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Bin *many* windows' reads into snapshots in one pass.

    The only snapshot binner: the window and tag indices lead the flat
    bin, so W windows cost one concatenate + one ``np.maximum.at``
    instead of W binning passes, and :func:`build_snapshots` is a
    slice of a batch of one.  Every window must share the same array
    geometry (tag count, antennas, dwell/slot timing) and frame count —
    the caller groups by exactly that key.  Duplicate (window, tag,
    dwell, round, antenna) bins keep the window's last read in log
    order.

    Args:
        logs: one read log per window.
        psis: doubled phases aligned with each log.
        n_frames: common frame count across the windows.
        channel_params: link-budget constants for the RSSI inverse
            mapping.

    Returns:
        ``(z, valid, wavelength_m, frame_time_s)`` stacked over
        windows: ``z`` and ``valid`` are ``(W, n_tags, F, K, N)``,
        ``wavelength_m`` is ``(W, n_tags, F)`` and ``frame_time_s``
        is ``(W, F)``.

    Raises:
        ValueError: when a ``psi`` does not align with its log.
    """
    if any(len(psi) != log.n_reads for log, psi in zip(logs, psis)):
        raise ValueError("each psi must align with its log")
    params = channel_params or ChannelParams()
    meta = logs[0].meta
    n_ant = meta.n_antennas
    n_tags = logs[0].n_tags
    round_s = meta.slot_s * n_ant
    rounds_per_dwell = max(1, int(round(meta.dwell_s / round_s)))
    n_windows = len(logs)
    shape = (n_windows, n_tags, n_frames, rounds_per_dwell, n_ant)
    n_bins = int(np.prod(shape))

    counts = np.array([log.n_reads for log in logs])
    w_idx = np.repeat(np.arange(n_windows), counts)
    t = np.concatenate([log.timestamp_s for log in logs])
    t0_w = np.array([_grid_origin(log) for log in logs])
    rel = t - t0_w[w_idx]
    dwell_idx = np.floor(rel / meta.dwell_s).astype(np.intp)
    round_idx = np.floor(rel / round_s).astype(np.intp)
    k_idx = np.clip(round_idx - dwell_idx * rounds_per_dwell, 0, rounds_per_dwell - 1)

    # The last read of each bin, by read index: the window index leads
    # the flat bin so windows never collide, and reads off the frame
    # grid land in one spare bin past the end.
    flat = w_idx * n_tags + np.concatenate([log.tag_index for log in logs])
    flat *= n_frames
    flat += dwell_idx
    flat *= rounds_per_dwell
    flat += k_idx
    flat *= n_ant
    flat += np.concatenate([log.antenna for log in logs])
    flat[(dwell_idx < 0) | (dwell_idx >= n_frames)] = n_bins
    last = np.full(n_bins + 1, -1, dtype=np.intp)
    np.maximum.at(last, flat, np.arange(flat.size))
    last = last[:n_bins]
    observed = last >= 0
    reads = last[observed]
    z = np.zeros(shape, dtype=np.complex128)
    z.reshape(-1)[observed] = rssi_dbm_to_amplitude(
        np.concatenate([log.rssi_dbm for log in logs])[reads], params
    ) * np.exp(1j * np.concatenate(list(psis))[reads])
    valid = observed.reshape(shape)
    # A dwell's last read is the last read over its bins.
    last_tf = last.reshape(-1, rounds_per_dwell * n_ant).max(axis=1)
    seen = last_tf >= 0
    wavelength = np.full((n_windows, n_tags, n_frames), np.nan)
    wavelength.reshape(-1)[seen] = SPEED_OF_LIGHT / np.concatenate(
        [log.frequency_hz for log in logs]
    )[last_tf[seen]]

    # Frames never observed (tag missed for a whole dwell) get the
    # tag's band-centre wavelength so downstream steering stays finite
    # (0.328 m for a tag with no reads at all).
    finite = np.isfinite(wavelength)
    n_finite = finite.sum(axis=2)
    sums = np.where(finite, wavelength, 0.0).sum(axis=2)
    centre = np.where(n_finite > 0, sums / np.maximum(n_finite, 1), 0.328)
    wavelength = np.where(np.isnan(wavelength), centre[:, :, None], wavelength)

    frame_time = t0_w[:, None] + np.arange(n_frames) * meta.dwell_s
    return z, valid, wavelength, frame_time
