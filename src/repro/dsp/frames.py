"""Spectrum frames: the learning engine's input tensors (Section IV-A).

A *frame* is one 400 ms dwell reduced to per-tag feature vectors:

* the pseudospectrum frame, ``(n_tags, 180)`` — angle structure;
* the periodogram frame, ``(n_tags, N)`` — power structure.

A sample is the frame sequence over the observation window; stacking
all tags into each frame is what lets the network reason about the
*joint* multi-tag, multi-path state of the room.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.dsp.correlation import spatial_covariance_stack
from repro.dsp.music import (
    DEFAULT_ANGLES_DEG,
    MusicResult,
    masked_spectra_batch,
    music_spectra_batch,
)
from repro.dsp.periodogram import spatial_periodogram_batch
from repro.dsp.snapshots import build_snapshots, build_snapshots_many, frame_count
from repro.hardware.llrp import ReadLog
from repro.obs.tracing import span
from repro.runtime.breaker import stage_boundary

_DB_FLOOR = -40.0


def normalize_pseudospectrum(spectrum: np.ndarray) -> np.ndarray:
    """Scale-free dB compression of a MUSIC pseudospectrum.

    MUSIC peak heights span orders of magnitude and carry no absolute
    power meaning (that is the periodogram's job), so each spectrum is
    expressed in dB relative to its own peak and clipped at -40 dB,
    then mapped to ``[0, 1]``.  A stacked input normalises each row
    against its own peak.

    Args:
        spectrum: pseudospectrum values over the angle grid, single or
            stacked, shape: ``(..., A)``.

    Returns:
        The compressed spectrum, shape: ``(..., A)`` matching the
        input grid.
    """
    s = np.asarray(spectrum, dtype=np.float64)
    peak = np.maximum(s.max(axis=-1, keepdims=True), 1e-300)
    db = 10.0 * np.log10(np.maximum(s, 1e-300) / peak)
    return np.clip(db, _DB_FLOOR, 0.0) / (-_DB_FLOOR) + 1.0


def power_to_db(power: np.ndarray, floor_db: float = -120.0) -> np.ndarray:
    """Power to decibels with a floor (periodogram frames).

    Args:
        power: non-negative power densities, single spectrum or any
            stacking of them, shape: ``(..., N)``.
        floor_db: lower clamp applied after the log.

    Returns:
        Decibel values, shape: ``(..., N)`` matching the input.
    """
    p = np.asarray(power, dtype=np.float64)
    return np.maximum(10.0 * np.log10(np.maximum(p, 1e-30)), floor_db)


def tag_music_spectra(
    log: ReadLog, psi: np.ndarray, tag: int, n_frames: int | None = None
) -> list[MusicResult]:
    """MUSIC pseudospectra of one tag's usable dwells, in frame order.

    A dwell is usable when the tag was observed on at least two ports
    (:meth:`~repro.dsp.snapshots.TagSnapshots.frame_valid`); all of
    them go through one stacked covariance and one MUSIC call on the
    full healthy array and the paper's 180-angle grid.

    Args:
        log: session read log.
        psi: doubled phases aligned with the log.
        tag: tag index.
        n_frames: force the frame count.

    Returns:
        One :class:`~repro.dsp.music.MusicResult` per usable dwell
        (empty when there is none).
    """
    snaps = build_snapshots(log, psi, tag, n_frames=n_frames)
    usable = np.flatnonzero(snaps.valid.any(axis=1).sum(axis=1) >= 2)
    covs = spatial_covariance_stack(snaps.z[usable], snaps.valid[usable])
    spectra, dims, eigvals = music_spectra_batch(
        covs, log.meta.spacing_m, snaps.wavelength_m[usable]
    )
    grid = np.asarray(DEFAULT_ANGLES_DEG, dtype=np.float64)
    return [
        MusicResult(
            angles_deg=grid,
            spectrum=spectra[i],
            n_sources=int(dims[i]),
            eigenvalues=eigvals[i],
        )
        for i in range(usable.size)
    ]


@dataclass
class FeatureFrames:
    """One sample: named feature channels over frames and tags.

    Attributes:
        channels: mapping from channel name (``"pseudo"``,
            ``"period"``, ...) to a ``(F, n_tags, D)`` float array.
        label: the activity class, when known.
    """

    channels: dict[str, np.ndarray]
    label: str | None = None
    meta: dict = field(default_factory=dict)

    @property
    def n_frames(self) -> int:
        """Number of frames."""
        return int(next(iter(self.channels.values())).shape[0])

    @property
    def n_tags(self) -> int:
        """Number of tags."""
        return int(next(iter(self.channels.values())).shape[1])

    def channel_dims(self) -> dict[str, int]:
        """Feature width of each channel (used to size the network)."""
        return {k: int(v.shape[2]) for k, v in self.channels.items()}

    def flatten(self) -> np.ndarray:
        """Whole sample as one flat vector (classical-baseline input)."""
        return np.concatenate(
            [v.reshape(-1) for _, v in sorted(self.channels.items())]
        )


def build_spectrum_frames(
    log: ReadLog,
    psi: np.ndarray,
    n_frames: int | None = None,
    angles_deg: np.ndarray | None = None,
    include_pseudo: bool = True,
    include_period: bool = True,
    label: str | None = None,
) -> FeatureFrames:
    """The M2AI preprocessing output: pseudospectrum + periodogram frames.

    One window featurised as a pooled batch of one — exactly
    :func:`build_spectrum_frames_many` on ``[(log, psi, n_frames)]``
    with ``label`` attached, so training samples and served windows
    share a single featurisation path.

    Frames where a tag was not observed on at least two ports repeat
    the tag's previous frame (zero for a missing first frame) — the
    streaming-friendly imputation a real deployment would use.

    Dead antenna ports (no reads anywhere in ``log``) degrade the
    computation instead of poisoning it: the pseudospectrum shrinks to
    the surviving subarray and the periodogram is re-normalised to the
    live aperture.  Feature shapes are unchanged, so a model trained on
    the healthy array still accepts the degraded frames; with every
    port live, the output is identical to the healthy path.

    Args:
        log: session read log.
        psi: doubled phases aligned with the log (calibrated or not).
        n_frames: force the frame count.
        angles_deg: pseudospectrum angle grid (paper default, 180 pts).
        include_pseudo: emit the ``"pseudo"`` channel.
        include_period: emit the ``"period"`` channel.
        label: ground-truth activity class to attach.

    Returns:
        The assembled :class:`FeatureFrames`: channel ``"pseudo"`` has
        shape: ``(F, n_tags, 180)`` and channel ``"period"`` has
        shape: ``(F, n_tags, N)`` for ``N`` antennas;
        ``meta["antenna_liveness"]`` records the port mask the features
        were computed under.
    """
    (frames,) = build_spectrum_frames_many(
        [(log, psi, n_frames)],
        angles_deg=angles_deg,
        include_pseudo=include_pseudo,
        include_period=include_period,
    )
    frames.label = label
    return frames


def build_spectrum_frames_many(
    windows: list[tuple[ReadLog, np.ndarray, int | None]],
    angles_deg: np.ndarray | None = None,
    include_pseudo: bool = True,
    include_period: bool = True,
) -> list[FeatureFrames]:
    """Featurise many windows through one pooled DSP batch.

    The single featurisation path: every valid ``(tag, dwell)`` of
    every window — across all streams a fleet shard is ticking, or the
    one window of :func:`build_spectrum_frames` — goes into *one*
    stacked periodogram and *one* stacked MUSIC batch, so the per-call
    dispatch cost of the small-matrix DSP kernels is paid once per
    batch rather than once per window.  Every kernel in the stacks is
    per-row, so pooling never changes a window's output.

    Windows are grouped by array geometry, frame count and antenna
    liveness mask.  A group with a dead port (but at least two live
    ones) runs its one stacked MUSIC call on the surviving subarray
    (:func:`~repro.dsp.music.masked_spectra_batch`) and re-normalises
    the periodogram to the live aperture; fewer than two live ports
    leave the pseudospectrum channel zero.

    Args:
        windows: ``(log, psi, n_frames)`` per window; ``n_frames``
            None derives the frame count from the log span
            (:func:`~repro.dsp.snapshots.frame_count`).
        angles_deg: pseudospectrum angle grid shared by the batch.
        include_pseudo: emit the ``"pseudo"`` channel.
        include_period: emit the ``"period"`` channel.

    Returns:
        One :class:`FeatureFrames` per input window, in order; each
        window's ``"pseudo"`` channel has shape: ``(F, n_tags, 180)``
        and its ``"period"`` channel shape: ``(F, n_tags, N)``.
    """
    grid = DEFAULT_ANGLES_DEG if angles_deg is None else np.asarray(angles_deg)
    out: list[FeatureFrames | None] = [None] * len(windows)
    # Normally exactly one group across the whole fleet: its windows
    # share one binning pass, one DSP stack and one scatter.
    groups: dict[tuple, list[tuple[int, ReadLog, np.ndarray, np.ndarray]]] = {}
    with span("dsp.frames.build", windows=len(windows)):
        for w, (log, psi, n_frames) in enumerate(windows):
            meta = log.meta
            live = log.antenna_liveness()
            key = (
                log.n_tags,
                frame_count(log) if n_frames is None else int(n_frames),
                meta.n_antennas,
                float(meta.dwell_s),
                float(meta.slot_s),
                float(meta.spacing_m),
                tuple(live.tolist()),
            )
            groups.setdefault(key, []).append((w, log, psi, live))

        for key, members in groups.items():
            _pool_spectrum_group(
                key, members, grid, include_pseudo, include_period, out
            )
    return out  # type: ignore[return-value]  # every slot is filled above


def _pool_spectrum_group(
    key: tuple,
    members: list[tuple[int, ReadLog, np.ndarray, np.ndarray]],
    grid: np.ndarray,
    include_pseudo: bool,
    include_period: bool,
    out: list[FeatureFrames | None],
) -> None:
    """Featurise one group of same-geometry, same-liveness windows.

    One :func:`build_snapshots_many` binning pass, one stacked
    periodogram/MUSIC call over every valid ``(window, tag, dwell)``
    entry in the group, then a vectorised scatter + forward fill.
    """
    n_tags, frames, n_ant, _dwell, _slot, spacing, _live = key
    live = members[0][3]
    with stage_boundary("dsp.frames"):
        z, valid, wavelength, _frame_time = build_snapshots_many(
            [log for _w, log, _psi, _live in members],
            [psi for _w, _log, psi, _live in members],
            frames,
        )
        # A (window, tag, dwell) joins the batch when it saw >= 2 ports
        # — exactly TagSnapshots.frame_valid.
        ok = valid.any(axis=3).sum(axis=3) >= 2  # (W, T, F)
        w_e, t_e, f_e = np.nonzero(ok)
        z_rows = z[w_e, t_e, f_e]
        v_rows = valid[w_e, t_e, f_e]
        wavelengths = wavelength[w_e, t_e, f_e]

    powers = spectra = None
    if w_e.size:
        if include_period:
            with stage_boundary("dsp.periodogram"):
                powers = power_to_db(
                    spatial_periodogram_batch(z_rows, v_rows, liveness=live)
                )
        if include_pseudo and int(live.sum()) >= 2:
            with stage_boundary("dsp.music"):
                raw, _dims, _eigs = masked_spectra_batch(
                    z_rows,
                    v_rows,
                    live,
                    spacing_m=spacing,
                    wavelength_m=wavelengths,
                    angles_deg=grid,
                )
                spectra = normalize_pseudospectrum(raw)

    n_windows = len(members)
    pseudo = (
        np.zeros((n_windows, frames, n_tags, grid.size))
        if include_pseudo
        else None
    )
    period = (
        np.zeros((n_windows, frames, n_tags, n_ant)) if include_period else None
    )
    if pseudo is not None and spectra is not None:
        pseudo[w_e, f_e, t_e] = spectra
    if period is not None and powers is not None:
        period[w_e, f_e, t_e] = powers
    # Invalid frames repeat the tag's previous frame (zero for a
    # missing first frame), vectorised over the whole group.
    have = ok.transpose(0, 2, 1)  # (W, F, T)
    for f in range(1, frames):
        miss = ~have[:, f]
        if miss.any():
            if pseudo is not None:
                pseudo[:, f][miss] = pseudo[:, f - 1][miss]
            if period is not None:
                period[:, f][miss] = period[:, f - 1][miss]

    for i, (w, _log, _psi, live) in enumerate(members):
        channels: dict[str, np.ndarray] = {}
        if pseudo is not None:
            channels["pseudo"] = pseudo[i]
        if period is not None:
            channels["period"] = period[i]
        out[w] = FeatureFrames(
            channels=channels, meta={"antenna_liveness": live}
        )
