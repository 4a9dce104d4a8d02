"""Spectrum frame building and featurisers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.dsp import (
    CHANNEL_SETS,
    FeatureFrames,
    M2AIFeaturizer,
    build_spectrum_frames,
    normalize_pseudospectrum,
    power_to_db,
    uncalibrated,
)


class TestNormalisation:
    def test_pseudospectrum_unit_range(self):
        spectrum = np.array([1e3, 1.0, 1e-9])
        out = normalize_pseudospectrum(spectrum)
        assert out.max() == pytest.approx(1.0)
        assert (out >= 0).all() and (out <= 1).all()

    def test_scale_invariant(self):
        spectrum = np.array([5.0, 1.0, 0.2])
        np.testing.assert_allclose(
            normalize_pseudospectrum(spectrum),
            normalize_pseudospectrum(spectrum * 1e6),
        )

    def test_power_to_db(self):
        assert power_to_db(np.array([1.0]))[0] == pytest.approx(0.0)
        assert power_to_db(np.array([0.1]))[0] == pytest.approx(-10.0)
        assert power_to_db(np.array([0.0]))[0] == -120.0


class TestBuildSpectrumFrames:
    def test_shapes_and_label(self, small_log):
        psi = uncalibrated(small_log)
        frames = build_spectrum_frames(small_log, psi, label="A01")
        assert set(frames.channels) == {"pseudo", "period"}
        f, n, a = frames.channels["pseudo"].shape
        assert n == small_log.n_tags
        assert a == 180
        assert frames.channels["period"].shape == (f, n, 4)
        assert frames.label == "A01"
        assert frames.n_frames == f and frames.n_tags == n

    def test_selective_channels(self, small_log):
        psi = uncalibrated(small_log)
        pseudo_only = build_spectrum_frames(small_log, psi, channels=("pseudo",))
        assert set(pseudo_only.channels) == {"pseudo"}
        period_only = build_spectrum_frames(small_log, psi, channels=("period",))
        assert set(period_only.channels) == {"period"}

    def test_values_finite(self, small_log):
        psi = uncalibrated(small_log)
        frames = build_spectrum_frames(small_log, psi)
        for arr in frames.channels.values():
            assert np.isfinite(arr).all()

    def test_flatten_width(self, small_log):
        psi = uncalibrated(small_log)
        frames = build_spectrum_frames(small_log, psi)
        flat = frames.flatten()
        expected = sum(arr.size for arr in frames.channels.values())
        assert flat.shape == (expected,)

    def test_channel_dims(self, small_log):
        psi = uncalibrated(small_log)
        frames = build_spectrum_frames(small_log, psi)
        assert frames.channel_dims() == {"pseudo": 180, "period": 4}


class TestFeaturizers:
    @pytest.mark.parametrize("name", sorted(CHANNEL_SETS))
    def test_transform_shapes(self, small_log, name):
        psi = uncalibrated(small_log)
        frames = M2AIFeaturizer(name).transform(small_log, psi, label="A02")
        assert isinstance(frames, FeatureFrames)
        assert frames.label == "A02"
        assert frames.n_tags == small_log.n_tags
        for arr in frames.channels.values():
            assert np.isfinite(arr).all()

    def test_unknown_set_rejected(self):
        with pytest.raises(ValueError):
            M2AIFeaturizer("nope")

    def test_m2ai_has_both_channels(self, small_log):
        psi = uncalibrated(small_log)
        frames = M2AIFeaturizer("m2ai").transform(small_log, psi)
        assert set(frames.channels) == {"pseudo", "period"}

    def test_phase_featurizer_unit_circle(self, small_log):
        psi = uncalibrated(small_log)
        frames = M2AIFeaturizer("phase").transform(small_log, psi)
        arr = frames.channels["phase"]
        n_ant = small_log.meta.n_antennas
        magnitudes = np.hypot(arr[..., :n_ant], arr[..., n_ant:])
        assert (magnitudes <= 1.0 + 1e-9).all()

    def test_rssi_featurizer_in_db_range(self, small_log):
        psi = uncalibrated(small_log)
        frames = M2AIFeaturizer("rssi").transform(small_log, psi)
        arr = frames.channels["rssi"]
        observed = arr[arr != 0.0]
        assert (observed > -120.0).all() and (observed < 0.0).all()
