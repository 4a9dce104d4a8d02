"""Synthetic dataset generation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import GenerationConfig, SyntheticDatasetGenerator, tiny_generation, vary
from repro.dsp.features import M2AIFeaturizer


class TestGenerationConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            GenerationConfig(environment="spaceship")
        with pytest.raises(ValueError):
            GenerationConfig(scenario_labels=("A99",))
        with pytest.raises(ValueError):
            GenerationConfig(samples_per_class=0)
        with pytest.raises(ValueError):
            GenerationConfig(n_antennas=1)

    def test_vary(self):
        base = tiny_generation()
        changed = vary(base, n_antennas=3)
        assert changed.n_antennas == 3
        assert changed.scenario_labels == base.scenario_labels


class TestGenerateRaw:
    @pytest.fixture(scope="class")
    def raw(self):
        config = GenerationConfig(
            scenario_labels=("A01", "A03"),
            samples_per_class=2,
            duration_s=4.0,
            seed=5,
        )
        return config, SyntheticDatasetGenerator(config).generate_raw()

    def test_sample_count_and_labels(self, raw):
        config, samples = raw
        assert len(samples) == 4
        assert sorted({s.label for s in samples}) == ["A01", "A03"]

    def test_logs_nonempty(self, raw):
        _config, samples = raw
        for s in samples:
            assert s.log.n_reads > 100
            assert s.calibration_log.n_reads > s.log.n_reads  # 20 s vs 4 s

    def test_six_tags_per_sample(self, raw):
        _config, samples = raw
        for s in samples:
            assert s.log.n_tags == 6  # 2 people x 3 tags

    def test_frame_count_matches_duration(self, raw):
        config, samples = raw
        assert samples[0].n_frames == int(round(config.duration_s / 0.4))

    def test_psi_toggle(self, raw):
        _config, samples = raw
        sample = samples[0]
        calibrated = sample.psi(use_calibration=True)
        uncal = sample.psi(use_calibration=False)
        assert calibrated.shape == uncal.shape
        assert not np.allclose(calibrated, uncal)

    def test_deterministic_in_seed(self):
        config = GenerationConfig(
            scenario_labels=("A01",), samples_per_class=1, duration_s=2.0, seed=9
        )
        a = SyntheticDatasetGenerator(config).generate_raw()[0]
        b = SyntheticDatasetGenerator(config).generate_raw()[0]
        np.testing.assert_allclose(a.log.phase_rad, b.log.phase_rad)

    def test_different_seeds_differ(self):
        base = GenerationConfig(
            scenario_labels=("A01",), samples_per_class=1, duration_s=2.0, seed=9
        )
        a = SyntheticDatasetGenerator(base).generate_raw()[0]
        c = SyntheticDatasetGenerator(vary(base, seed=10)).generate_raw()[0]
        assert a.log.n_reads != c.log.n_reads or not np.allclose(
            a.log.phase_rad[: min(100, c.log.n_reads)],
            c.log.phase_rad[: min(100, c.log.n_reads)],
        )


class TestFeaturize:
    def test_dataset_shapes(self, tiny_dataset):
        assert len(tiny_dataset) == 12  # 3 classes x 4
        shapes = tiny_dataset.channel_shapes
        assert shapes["pseudo"] == (6, 180)
        assert shapes["period"] == (6, 4)
        assert sorted(tiny_dataset.classes) == ["A01", "A03", "A05"]

    def test_alternate_featurizer(self):
        config = GenerationConfig(
            scenario_labels=("A01",), samples_per_class=1, duration_s=2.0, seed=3
        )
        generator = SyntheticDatasetGenerator(config)
        raw = generator.generate_raw()
        ds = generator.featurize(raw, featurizer=M2AIFeaturizer("rssi"))
        assert set(ds.channel_shapes) == {"rssi"}

    def test_calibration_toggle_changes_features(self):
        config = GenerationConfig(
            scenario_labels=("A01",), samples_per_class=1, duration_s=2.0, seed=3
        )
        generator = SyntheticDatasetGenerator(config)
        raw = generator.generate_raw()
        with_cal = generator.featurize(raw, use_calibration=True)
        without = generator.featurize(raw, use_calibration=False)
        assert not np.allclose(
            with_cal.samples[0].channels["pseudo"],
            without.samples[0].channels["pseudo"],
        )

    def test_environment_presets(self):
        for env in ("laboratory", "hall"):
            config = GenerationConfig(
                environment=env,
                scenario_labels=("A01",),
                samples_per_class=1,
                duration_s=2.0,
                seed=1,
            )
            generator = SyntheticDatasetGenerator(config)
            room = generator.make_room()
            assert room.name == env
            array = generator.make_array(room)
            assert room.contains(array.center)
