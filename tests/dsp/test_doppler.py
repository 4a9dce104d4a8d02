"""Doppler estimation from intra-dwell phase rotation.

Each known-rate case runs through both the production kernel
(:func:`~repro.dsp.doppler.snapshot_doppler`, which the ``"doppler"``
channel set uses) and the scalar slope fit it replaced
(:func:`tests.dsp.featurizer_oracle.doppler_from_phases`).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dsp import M2AIFeaturizer, snapshot_doppler, uncalibrated
from repro.dsp.music import PHASE_MULTIPLIER
from repro.dsp.snapshots import build_snapshots
from tests.dsp.featurizer_oracle import doppler_from_phases, dwell_doppler


def kernel_doppler(psi, times):
    """The production kernel on one antenna's run of uniformly spaced rounds."""
    z = np.exp(1j * np.asarray(psi))[:, None]  # (K rounds, 1 antenna)
    round_s = float(times[1] - times[0]) if len(times) > 1 else 0.1
    return float(snapshot_doppler(z, np.ones(z.shape, dtype=bool), round_s)[0])


ESTIMATORS = (doppler_from_phases, kernel_doppler)


class TestDopplerFromPhases:
    def test_stationary_zero(self):
        times = np.arange(4) * 0.1
        psi = np.full(4, 1.2)
        for estimate in ESTIMATORS:
            assert estimate(psi, times) == pytest.approx(0.0)

    def test_known_rotation_rate(self):
        # One-way Doppler f means doubled-phase rotation of
        # pi * multiplier * f rad/s.
        f_true = 1.0  # inside the +/-1.25 Hz alias limit
        times = np.arange(4) * 0.1
        psi = np.mod(np.pi * PHASE_MULTIPLIER * f_true * times, 2 * np.pi)
        for estimate in ESTIMATORS:
            assert estimate(psi, times) == pytest.approx(f_true, rel=1e-6)

    def test_negative_doppler(self):
        f_true = -0.8
        times = np.arange(4) * 0.1
        psi = np.mod(np.pi * PHASE_MULTIPLIER * f_true * times, 2 * np.pi)
        for estimate in ESTIMATORS:
            assert estimate(psi, times) == pytest.approx(f_true, rel=1e-6)

    def test_wrap_handling(self):
        # Rotation fast enough to wrap within the window but slow
        # enough per step.
        f_true = 0.9
        times = np.arange(8) * 0.1
        psi = np.mod(np.pi * PHASE_MULTIPLIER * f_true * times + 5.0, 2 * np.pi)
        for estimate in ESTIMATORS:
            assert estimate(psi, times) == pytest.approx(f_true, rel=1e-6)

    def test_single_sample_zero(self):
        for estimate in ESTIMATORS:
            assert estimate(np.array([1.0]), np.array([0.0])) == 0.0

    def test_misaligned_rejected(self):
        with pytest.raises(ValueError):
            doppler_from_phases(np.zeros(3), np.zeros(4))


class TestDwellDoppler:
    def test_moving_vs_still(self, lab_reader):
        """A walking tag shows larger Doppler magnitudes than a
        stationary one."""
        import numpy as np

        from repro.hardware.scene import Scene, TagTrack
        from repro.hardware.tag import make_tag

        rng = np.random.default_rng(0)
        duration, slot = 3.2, lab_reader.config.slot_s
        n_slots = int(round(duration / slot))
        t = (np.arange(n_slots) + 0.5) * slot
        still = np.broadcast_to(np.array([6.0, 4.0]), (n_slots, 2)).copy()
        moving = np.stack([6.0 + 0.5 * np.sin(2 * np.pi * 1.0 * t), np.full(n_slots, 4.0)], axis=1)
        scene = Scene(
            tag_tracks=(
                TagTrack(tag=make_tag("still", rng), positions=still),
                TagTrack(tag=make_tag("move", rng), positions=moving),
            )
        )
        log = lab_reader.inventory(scene, duration)
        psi = uncalibrated(log)
        round_s = log.meta.slot_s * log.meta.n_antennas
        d_still = dwell_doppler(build_snapshots(log, psi, 0), round_s)
        d_move = dwell_doppler(build_snapshots(log, psi, 1), round_s)
        assert np.abs(d_move).mean() > np.abs(d_still).mean()
        frames = M2AIFeaturizer("doppler").transform(log, psi).channels["doppler"]
        assert np.abs(frames[:, 1]).mean() > np.abs(frames[:, 0]).mean()
        np.testing.assert_array_equal(frames[:, 0], d_still)
        np.testing.assert_array_equal(frames[:, 1], d_move)


class TestDopplerFeaturizer:
    def test_shapes(self, small_log):
        psi = uncalibrated(small_log)
        frames = M2AIFeaturizer("doppler").transform(small_log, psi, label="A01")
        arr = frames.channels["doppler"]
        assert arr.shape[1] == small_log.n_tags
        assert arr.shape[2] == small_log.meta.n_antennas
        assert np.isfinite(arr).all()
        assert frames.label == "A01"
