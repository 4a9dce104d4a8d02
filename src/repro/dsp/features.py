"""The featuriser: named channel sets, including the Fig. 16 inputs.

The paper compares its joint pseudospectrum+periodogram preprocessing
against MUSIC-only, FFT-only, raw-phase and RSSI inputs, holding the
deep network fixed.  Each input is a different reduction of the same
dwell snapshots, so each is a named channel set of one featuriser over
the one pooled path, :func:`~repro.dsp.frames.build_spectrum_frames_many`;
the FEMO-style Doppler set rides along as an extension.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dsp.frames import FeatureFrames, build_spectrum_frames_many
from repro.hardware.llrp import ReadLog
from repro.nn import parallel
from repro.runtime.breaker import active_guards

CHANNEL_SETS: dict[str, tuple[str, ...]] = {
    "m2ai": ("pseudo", "period"),
    "music": ("pseudo",),
    "fft": ("period",),
    "phase": ("phase",),
    "rssi": ("rssi",),
    "doppler": ("doppler",),
}
"""The channels each named set emits: the paper's joint input, the four
Fig. 16 baselines ("MUSIC-based", "FFT-based", "Phase-based",
"RSSI-based") and the Doppler extension."""


@dataclass(frozen=True)
class M2AIFeaturizer:
    """Maps ``(log, psi)`` windows to :class:`FeatureFrames` of one channel set.

    Attributes:
        name: the channel set, a key of :data:`CHANNEL_SETS`; the
            default is the paper's pseudospectrum + periodogram input.

    Raises:
        ValueError: on an unknown set name.
    """

    name: str = "m2ai"

    def __post_init__(self) -> None:
        if self.name not in CHANNEL_SETS:
            raise ValueError(
                f"unknown channel set {self.name!r}; known: {sorted(CHANNEL_SETS)}"
            )

    def transform(
        self, log: ReadLog, psi: np.ndarray, n_frames: int | None = None, label: str | None = None
    ) -> FeatureFrames:
        """Featurise one calibrated log into :class:`FeatureFrames`."""
        (frames,) = build_spectrum_frames_many(
            [(log, psi, n_frames)], channels=CHANNEL_SETS[self.name]
        )
        frames.label = label
        return frames

    def transform_many(
        self, windows: list[tuple[ReadLog, np.ndarray, int | None]]
    ) -> list[FeatureFrames]:
        """Featurise many windows through pooled DSP batches, one per core.

        The window list is cut into contiguous parts
        (:func:`repro.nn.parallel.run_parts`): the calling thread
        featurises the first part and the process-wide pool the rest,
        each part through one
        :func:`~repro.dsp.frames.build_spectrum_frames_many` call that
        writes its own slice of the result.  Every kernel of the
        pooled batch works per row, so a window's frames do not depend
        on which windows share its part: output per window is
        identical to :meth:`transform` for any core count.  One
        window, one core, or a caller under stage guards (which are
        installed per thread) takes a single call on the caller.
        """
        channels = CHANNEL_SETS[self.name]
        if active_guards() is not None:
            return build_spectrum_frames_many(windows, channels=channels)
        out: list[FeatureFrames] = [None] * len(windows)  # type: ignore[list-item]

        def part(lo: int, hi: int) -> None:
            out[lo:hi] = build_spectrum_frames_many(windows[lo:hi], channels=channels)

        parallel.run_parts(len(windows), part)
        return out
