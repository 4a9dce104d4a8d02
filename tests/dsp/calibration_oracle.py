"""Reference per-group calibration fit: the parity oracle for the grouped fit.

Production fits every (tag, port, channel) median in one grouped pass
(:func:`repro.dsp.angles.grouped_circular_median` inside
:meth:`repro.dsp.calibration.PhaseCalibrator.fit`).  This module keeps
the loop that pass replaced — one boolean mask and one scalar
:func:`~repro.dsp.angles.circular_median` call per group — so the tests
compare the production fit against an independent second
implementation bit for bit instead of against itself.
"""

from __future__ import annotations

import numpy as np

from repro.dsp.angles import circular_median, fold_double
from repro.dsp.calibration import PhaseCalibrator, _fit_antenna
from repro.hardware.llrp import ReadLog


def fit(calibration_log: ReadLog) -> PhaseCalibrator:
    """:meth:`PhaseCalibrator.fit` as one loop over (tag, port, channel)."""
    if calibration_log.n_reads == 0:
        raise ValueError("calibration log is empty")
    meta = calibration_log.meta
    freqs = np.asarray(meta.frequencies_hz, dtype=np.float64)
    calibrator = PhaseCalibrator(
        frequencies_hz=freqs, reference_channel=meta.reference_channel
    )
    psi = fold_double(calibration_log.phase_rad)
    for tag in range(calibration_log.n_tags):
        tag_mask = calibration_log.tag_index == tag
        for ant in range(meta.n_antennas):
            mask = tag_mask & (calibration_log.antenna == ant)
            offsets = np.full(freqs.size, np.nan)
            for ch in np.unique(calibration_log.channel[mask]):
                ch_mask = mask & (calibration_log.channel == ch)
                offsets[ch] = circular_median(psi[ch_mask])
            calibrator._tables[(tag, ant)] = _fit_antenna(offsets, freqs)
    return calibrator


def channel_medians(log: ReadLog, psi: np.ndarray, antenna: int) -> tuple[np.ndarray, np.ndarray]:
    """Observed channels of one port and each one's scalar circular median."""
    mask = log.antenna == antenna
    channels = np.unique(log.channel[mask])
    medians = np.array(
        [circular_median(psi[mask & (log.channel == ch)]) for ch in channels]
    )
    return channels, medians
