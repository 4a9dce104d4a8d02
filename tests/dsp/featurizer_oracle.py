"""Reference featurisers: the parity oracle for the named channel sets.

Production has one featuriser, :class:`repro.dsp.features.M2AIFeaturizer`,
whose named channel sets all reduce the one pooled snapshot tensor of
:func:`repro.dsp.frames.build_spectrum_frames_many`.  This module keeps
the per-set classes it replaced — per-window binning, then Python loops
over (tag, frame) for phase and RSSI and over (frame, antenna) for
Doppler, with the scalar slope fit :func:`doppler_from_phases` — so the
tests compare every named set against a second implementation bit for
bit.  Snapshots come from the independent binner in
:mod:`tests.dsp.frames_oracle`, and the spectral sets from its
per-window builder.
"""

from __future__ import annotations

import numpy as np

from repro.dsp.angles import wrap_pm_pi
from repro.dsp.frames import FeatureFrames, power_to_db
from repro.dsp.music import PHASE_MULTIPLIER
from repro.dsp.snapshots import TagSnapshots
from repro.hardware.llrp import ReadLog
from tests.dsp import frames_oracle


def doppler_from_phases(
    psi: np.ndarray, times_s: np.ndarray, phase_multiplier: float = PHASE_MULTIPLIER
) -> float:
    """Doppler (Hz) from a short run of doubled phases at one carrier.

    Fits the unwrapped phase-vs-time slope; the multiplier converts
    the doubled backscatter rotation back to one-way Doppler.

    Args:
        psi: doubled phases, radians, time-ordered.
        times_s: matching timestamps.
        phase_multiplier: domain multiplier (4 = round trip x ambiguity
            folding).

    Returns:
        Estimated one-way Doppler shift in Hz (0 for < 2 samples).
    """
    psi = np.asarray(psi, dtype=np.float64)
    times = np.asarray(times_s, dtype=np.float64)
    if psi.shape != times.shape:
        raise ValueError("psi and times must align")
    if psi.size < 2:
        return 0.0
    increments = wrap_pm_pi(np.diff(psi))
    unwrapped = np.concatenate([[psi[0]], psi[0] + np.cumsum(increments)])
    dt = times - times[0]
    denom = float(np.sum((dt - dt.mean()) ** 2))
    if denom <= 0:
        return 0.0
    slope = float(np.sum((dt - dt.mean()) * (unwrapped - unwrapped.mean())) / denom)
    return slope / (np.pi * phase_multiplier)


def dwell_doppler(snapshots: TagSnapshots, round_s: float) -> np.ndarray:
    """Per-frame, per-antenna Doppler estimates, ``(F, N)`` Hz.

    Unobserved entries (fewer than two rounds) are 0.
    """
    frames, rounds, n_ant = snapshots.z.shape
    out = np.zeros((frames, n_ant))
    times = np.arange(rounds) * round_s
    for f in range(frames):
        for a in range(n_ant):
            mask = snapshots.valid[f, :, a]
            if mask.sum() < 2:
                continue
            psi = np.angle(snapshots.z[f, mask, a])
            out[f, a] = doppler_from_phases(psi, times[mask])
    return out


class M2AIFeaturizer:
    """The paper's preprocessing: pseudospectrum + periodogram frames."""

    name = "m2ai"
    include_pseudo = True
    include_period = True

    def transform(
        self, log: ReadLog, psi: np.ndarray, n_frames: int | None = None, label: str | None = None
    ) -> FeatureFrames:
        return frames_oracle.build_spectrum_frames(
            log,
            psi,
            n_frames,
            include_pseudo=self.include_pseudo,
            include_period=self.include_period,
            label=label,
        )


class MusicOnlyFeaturizer(M2AIFeaturizer):
    """Pseudospectrum frames alone ("MUSIC-based" in Fig. 16)."""

    name = "music"
    include_period = False


class FftOnlyFeaturizer(M2AIFeaturizer):
    """Periodogram frames alone ("FFT-based" in Fig. 16)."""

    name = "fft"
    include_pseudo = False


class PhaseFeaturizer:
    """Per-antenna circular-mean phase as ``(cos, sin)`` pairs."""

    name = "phase"

    def transform(
        self, log: ReadLog, psi: np.ndarray, n_frames: int | None = None, label: str | None = None
    ) -> FeatureFrames:
        snapshot_sets = frames_oracle.build_snapshots_all(log, psi, n_frames)
        frames = snapshot_sets[0].n_frames
        n_tags = len(snapshot_sets)
        n_ant = log.meta.n_antennas
        out = np.zeros((frames, n_tags, 2 * n_ant))
        for k, snaps in enumerate(snapshot_sets):
            for f in range(frames):
                if not snaps.valid[f].any():
                    if f > 0:
                        out[f, k] = out[f - 1, k]
                    continue
                unit = np.where(
                    np.abs(snaps.z[f]) > 0, snaps.z[f] / np.maximum(np.abs(snaps.z[f]), 1e-12), 0
                )
                counts = np.maximum(snaps.valid[f].sum(axis=0), 1)
                mean_vec = unit.sum(axis=0) / counts
                out[f, k, :n_ant] = mean_vec.real
                out[f, k, n_ant:] = mean_vec.imag
        return FeatureFrames(channels={"phase": out}, label=label)


class RssiFeaturizer:
    """Per-antenna mean power in dB ("RSSI-based" in Fig. 16)."""

    name = "rssi"

    def transform(
        self, log: ReadLog, psi: np.ndarray, n_frames: int | None = None, label: str | None = None
    ) -> FeatureFrames:
        snapshot_sets = frames_oracle.build_snapshots_all(log, psi, n_frames)
        frames = snapshot_sets[0].n_frames
        n_tags = len(snapshot_sets)
        n_ant = log.meta.n_antennas
        out = np.zeros((frames, n_tags, n_ant))
        for k, snaps in enumerate(snapshot_sets):
            for f in range(frames):
                if not snaps.valid[f].any():
                    if f > 0:
                        out[f, k] = out[f - 1, k]
                    continue
                power = np.abs(snaps.z[f]) ** 2
                counts = np.maximum(snaps.valid[f].sum(axis=0), 1)
                out[f, k] = power_to_db(power.sum(axis=0) / counts)
        return FeatureFrames(channels={"rssi": out}, label=label)


class DopplerFeaturizer:
    """Per-antenna Doppler frames: the FEMO-style extension."""

    name = "doppler"

    def transform(
        self, log: ReadLog, psi: np.ndarray, n_frames: int | None = None, label: str | None = None
    ) -> FeatureFrames:
        snapshot_sets = frames_oracle.build_snapshots_all(log, psi, n_frames)
        round_s = log.meta.slot_s * log.meta.n_antennas
        frames = snapshot_sets[0].n_frames
        n_tags = len(snapshot_sets)
        n_ant = log.meta.n_antennas
        out = np.zeros((frames, n_tags, n_ant))
        for k, snaps in enumerate(snapshot_sets):
            out[:, k, :] = dwell_doppler(snaps, round_s)
        return FeatureFrames(channels={"doppler": out}, label=label)


FEATURIZERS = {
    f.name: f
    for f in (
        M2AIFeaturizer(),
        MusicOnlyFeaturizer(),
        FftOnlyFeaturizer(),
        PhaseFeaturizer(),
        RssiFeaturizer(),
        DopplerFeaturizer(),
    )
}
"""One reference featuriser per named channel set."""
