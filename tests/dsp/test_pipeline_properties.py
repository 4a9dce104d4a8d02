"""End-to-end DSP invariants across random tag placements."""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dsp import PhaseCalibrator, build_spectrum_frames
from repro.dsp.snapshots import build_snapshots
from repro.dsp.correlation import spatial_covariance
from repro.dsp.music import music_pseudospectrum
from repro.geometry import Vec2, make_open_space
from repro.hardware import Reader, ReaderConfig, UniformLinearArray, make_tag, stationary_scene

angles = st.floats(min_value=35.0, max_value=145.0)
distances = st.floats(min_value=2.0, max_value=5.0)


def single_tag_session(angle_deg: float, distance: float, seed: int):
    room = make_open_space()
    array = UniformLinearArray(center=Vec2(0.0, 0.0))
    reader = Reader(ReaderConfig(array=array), room, seed=seed)
    rng = np.random.default_rng(seed)
    rad = math.radians(angle_deg)
    pos = (distance * math.cos(rad), distance * math.sin(rad))
    scene = stationary_scene([(make_tag("prop", rng), pos)])
    calibrator = PhaseCalibrator.fit(reader.inventory(scene, 20.0))
    log = reader.inventory(scene, 1.2)
    return log, calibrator.calibrate(log)


class TestAoAProperty:
    @given(angles, distances)
    @settings(max_examples=8, deadline=None)
    def test_dominant_peak_tracks_geometry(self, angle_deg, distance):
        """In free space, the MUSIC peak must stay within a few degrees
        of the true bearing for any placement in the field of view."""
        log, psi = single_tag_session(angle_deg, distance, seed=13)
        snaps = build_snapshots(log, psi, 0)
        errors = []
        for f in range(snaps.n_frames):
            if not snaps.frame_valid(f):
                continue
            cov = spatial_covariance(snaps.z[f], snaps.valid[f])
            result = music_pseudospectrum(
                cov,
                spacing_m=log.meta.spacing_m,
                wavelength_m=float(snaps.wavelength_m[f]),
            )
            errors.append(abs(result.peaks(1)[0][0] - angle_deg))
        assert np.median(errors) < 12.0


class TestFrameProperty:
    @given(angles)
    @settings(max_examples=5, deadline=None)
    def test_frames_always_well_formed(self, angle_deg):
        log, psi = single_tag_session(angle_deg, 3.5, seed=29)
        frames = build_spectrum_frames(log, psi)
        pseudo = frames.channels["pseudo"]
        assert np.isfinite(pseudo).all()
        assert pseudo.min() >= 0.0 and pseudo.max() <= 1.0 + 1e-9
        # The peak bin of each frame should broadly agree with geometry.
        peak_angles = pseudo[:, 0, :].argmax(axis=1) + 0.5
        assert np.median(np.abs(peak_angles - angle_deg)) < 20.0
