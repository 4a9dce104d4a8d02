"""Doppler-shift estimation from intra-dwell phase rotation.

LLRP readers report a Doppler estimate per read (Section III notes the
"low-level data reports, such as the phase and Doppler shift"), and
the FEMO prior work [10] builds its exercise recognition entirely on
such frequency shifts.  This module recovers the same quantity from
our snapshot tensors: within one 400 ms dwell the carrier is fixed, so
the phase rotation rate across the dwell's rounds is the backscatter
Doppler of the tag.

A moving tag at radial velocity ``v`` shifts the backscatter carrier
by ``2 v / lambda`` Hz; in the doubled-phase domain used throughout
the DSP the observed rotation is twice that again, so the estimator
divides the fitted phase rate by the same multiplier MUSIC uses.

Alias limit: phases are sampled once per TDM round (100 ms with four
ports), so the unambiguous one-way Doppler is
``1 / (multiplier * round_s)`` ~ +/-1.25 Hz — radial speeds up to
~0.2 m/s, which covers human limb motion between rounds but not a
sprint.  Faster motion folds, exactly as it would on the real reader's
per-read Doppler field.
"""

from __future__ import annotations

import numpy as np

from repro.dsp.angles import wrap_pm_pi
from repro.dsp.music import PHASE_MULTIPLIER
from repro.dsp.snapshots import TagSnapshots
from repro.hardware.llrp import ReadLog


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
    # slope [rad/s] = multiplier/2 * 2*pi * f_doppler  (the doubled
    # domain rotates at twice the physical backscatter rate, which is
    # itself twice the one-way rate).
    return slope / (np.pi * phase_multiplier)


def dwell_doppler(snapshots: TagSnapshots, round_s: float) -> np.ndarray:
    """Per-frame, per-antenna Doppler estimates, ``(F, N)`` Hz.

    Args:
        snapshots: one tag's dwell-aligned snapshots.
        round_s: time between consecutive snapshots (one TDM round).

    Returns:
        Doppler per frame and antenna; unobserved entries are 0.
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


class DopplerFeaturizer:
    """Doppler frames: the FEMO-style featurisation, as an extension.

    Produces a ``"doppler"`` channel of shape ``(F, n_tags, N)``.  Not
    part of the paper's Fig. 16 comparison set, but useful to quantify
    how much the pseudospectrum adds over pure motion-rate features.
    """

    name = "doppler"

    def transform(
        self,
        log: ReadLog,
        psi: np.ndarray,
        n_frames: int | None = None,
        label: str | None = None,
    ):
        """Featurise ``log`` into Doppler-rate frames."""
        from repro.dsp.frames import FeatureFrames
        from repro.dsp.snapshots import tag_snapshot_set

        snapshot_sets = tag_snapshot_set(log, psi, n_frames)
        round_s = log.meta.slot_s * log.meta.n_antennas
        frames = snapshot_sets[0].n_frames
        n_tags = len(snapshot_sets)
        n_ant = log.meta.n_antennas
        out = np.zeros((frames, n_tags, n_ant))
        for k, snaps in enumerate(snapshot_sets):
            out[:, k, :] = dwell_doppler(snaps, round_s)
        return FeatureFrames(channels={"doppler": out}, label=label)
