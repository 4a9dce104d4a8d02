"""Featurisers: the preprocessing variants compared in Fig. 16.

The paper compares its joint pseudospectrum+periodogram preprocessing
against MUSIC-only, FFT-only, raw-phase and RSSI inputs, holding the
deep network fixed.  Every featuriser here maps ``(log, psi)`` to a
:class:`~repro.dsp.frames.FeatureFrames`, so they are drop-in
interchangeable in the pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dsp.frames import (
    FeatureFrames,
    build_spectrum_frames,
    build_spectrum_frames_many,
    power_to_db,
)
from repro.dsp.snapshots import tag_snapshot_set
from repro.hardware.llrp import ReadLog


@dataclass(frozen=True)
class M2AIFeaturizer:
    """The paper's preprocessing: pseudospectrum + periodogram frames."""

    angles_deg: np.ndarray | None = None
    name: str = "m2ai"

    def transform(
        self, log: ReadLog, psi: np.ndarray, n_frames: int | None = None, label: str | None = None
    ) -> FeatureFrames:
        """Featurise one calibrated log into :class:`FeatureFrames`."""
        return build_spectrum_frames(
            log,
            psi,
            n_frames=n_frames,
            angles_deg=self.angles_deg,
            include_pseudo=True,
            include_period=True,
            label=label,
        )

    def transform_many(
        self, windows: list[tuple[ReadLog, np.ndarray, int | None]]
    ) -> list[FeatureFrames]:
        """Featurise many windows through one pooled DSP batch.

        Output per window is identical to :meth:`transform`; see
        :func:`~repro.dsp.frames.build_spectrum_frames_many` for how
        the pooling works and why it pays on a fleet shard.
        """
        return build_spectrum_frames_many(
            windows,
            angles_deg=self.angles_deg,
            include_pseudo=True,
            include_period=True,
        )


@dataclass(frozen=True)
class MusicOnlyFeaturizer:
    """Pseudospectrum frames alone ("MUSIC-based" in Fig. 16)."""

    angles_deg: np.ndarray | None = None
    name: str = "music"

    def transform(
        self, log: ReadLog, psi: np.ndarray, n_frames: int | None = None, label: str | None = None
    ) -> FeatureFrames:
        """Featurise one calibrated log into :class:`FeatureFrames`."""
        return build_spectrum_frames(
            log,
            psi,
            n_frames=n_frames,
            angles_deg=self.angles_deg,
            include_pseudo=True,
            include_period=False,
            label=label,
        )


@dataclass(frozen=True)
class FftOnlyFeaturizer:
    """Periodogram frames alone ("FFT-based" in Fig. 16)."""

    name: str = "fft"

    def transform(
        self, log: ReadLog, psi: np.ndarray, n_frames: int | None = None, label: str | None = None
    ) -> FeatureFrames:
        """Featurise one calibrated log into :class:`FeatureFrames`."""
        return build_spectrum_frames(
            log,
            psi,
            n_frames=n_frames,
            include_pseudo=False,
            include_period=True,
            label=label,
        )


@dataclass(frozen=True)
class PhaseFeaturizer:
    """Per-antenna phase frames ("Phase-based" in Fig. 16).

    The per-dwell circular-mean phase of each antenna, embedded as
    ``(cos, sin)`` pairs so the wrap-around does not create artificial
    discontinuities for the learner.
    """

    name: str = "phase"

    def transform(
        self, log: ReadLog, psi: np.ndarray, n_frames: int | None = None, label: str | None = None
    ) -> FeatureFrames:
        """Featurise one calibrated log into :class:`FeatureFrames`."""
        snapshot_sets = tag_snapshot_set(log, psi, n_frames)
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


@dataclass(frozen=True)
class RssiFeaturizer:
    """Per-antenna RSSI frames ("RSSI-based" in Fig. 16)."""

    name: str = "rssi"

    def transform(
        self, log: ReadLog, psi: np.ndarray, n_frames: int | None = None, label: str | None = None
    ) -> FeatureFrames:
        """Featurise one calibrated log into :class:`FeatureFrames`."""
        snapshot_sets = tag_snapshot_set(log, psi, n_frames)
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


FEATURIZERS = {
    f.name: f
    for f in (
        M2AIFeaturizer(),
        MusicOnlyFeaturizer(),
        FftOnlyFeaturizer(),
        PhaseFeaturizer(),
        RssiFeaturizer(),
    )
}
"""Default instance of every featuriser, keyed by Fig. 16 name."""
