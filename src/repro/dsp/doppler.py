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


def snapshot_doppler(z: np.ndarray, valid: np.ndarray, round_s: float) -> np.ndarray:
    """One-way Doppler (Hz) of every dwell and antenna in a snapshot stack.

    Each antenna's run of rounds within a dwell is fitted on its own:
    the phases are unwrapped along the run and the least-squares slope
    of phase against round time, divided by the doubled-domain
    multiplier, is the Doppler.  Runs with fewer than two observed
    rounds read 0.  Runs sharing a round-validity pattern (at most
    ``2**K`` of them) share their time axis, so each pattern is one
    vectorised fit.

    Args:
        z: complex snapshots, shape: ``(..., K, N)`` for ``K`` rounds
            and ``N`` antennas (any leading window/tag/frame axes).
        valid: bool mask of observed entries, same shape as ``z``.
        round_s: time between consecutive rounds (one TDM round).

    Returns:
        Doppler per dwell and antenna, shape: ``(..., N)``.
    """
    rounds = z.shape[-2]
    runs_z = np.moveaxis(z, -2, -1).reshape(-1, rounds)
    runs_valid = np.moveaxis(valid, -2, -1).reshape(-1, rounds)
    out = np.zeros(runs_z.shape[0])
    times = np.arange(rounds) * round_s
    codes = runs_valid @ (1 << np.arange(rounds))
    for code in np.unique(codes):
        rows = np.flatnonzero(codes == code)
        mask = runs_valid[rows[0]]
        if mask.sum() < 2:
            continue
        psi = np.angle(runs_z[rows][:, mask])
        increments = wrap_pm_pi(np.diff(psi, axis=1))
        unwrapped = np.concatenate(
            [psi[:, :1], psi[:, :1] + np.cumsum(increments, axis=1)], axis=1
        )
        dt = times[mask] - times[mask][0]
        centred = dt - dt.mean()
        denom = float(np.sum(centred**2))
        slope = (
            np.sum(centred * (unwrapped - unwrapped.mean(axis=1, keepdims=True)), axis=1)
            / denom
        )
        # slope [rad/s] = multiplier/2 * 2*pi * f_doppler  (the doubled
        # domain rotates at twice the physical backscatter rate, which is
        # itself twice the one-way rate).
        out[rows] = slope / (np.pi * PHASE_MULTIPLIER)
    return out.reshape(z.shape[:-2] + z.shape[-1:])
