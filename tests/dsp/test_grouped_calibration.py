"""The grouped calibration fit against the per-group loop, byte for byte."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dsp import PhaseCalibrator, circular_median, grouped_circular_median
from repro.dsp.calibration import _AntennaCalibration, _fit_antenna
from repro.geometry import Vec2, make_laboratory, make_open_space
from repro.hardware import Reader, ReaderConfig, UniformLinearArray, make_tag, stationary_scene
from tests.dsp import calibration_oracle


def session(seed: int, n_tags: int = 1, room=None):
    room = room or make_open_space()
    array = UniformLinearArray(center=Vec2(0.0, 0.0))
    reader = Reader(ReaderConfig(array=array), room, seed=seed)
    rng = np.random.default_rng(seed)
    positions = [(3.5, 3.5), (2.0, 4.0), (-1.5, 3.0)]
    scene = stationary_scene(
        [(make_tag(f"cal{k}", rng), positions[k]) for k in range(n_tags)]
    )
    return reader, scene


def assert_same_fit(cal_log, runtime) -> PhaseCalibrator:
    fitted = PhaseCalibrator.fit(cal_log)
    oracle = calibration_oracle.fit(cal_log)
    assert sorted(fitted._tables) == sorted(oracle._tables)
    for key, table in oracle._tables.items():
        got = fitted._tables[key]
        assert got.offsets.tobytes() == table.offsets.tobytes(), key
        assert (got.has_fit, got.fit_intercept, got.fit_slope_per_mhz) == (
            table.has_fit,
            table.fit_intercept,
            table.fit_slope_per_mhz,
        ), key
    assert fitted._dense_offsets().tobytes() == oracle._dense_offsets().tobytes()
    assert fitted.calibrate(runtime).tobytes() == oracle.calibrate(runtime).tobytes()
    return fitted


def group_sizes(log) -> np.ndarray:
    keys = (log.tag_index * log.meta.n_antennas + log.antenna) * 64 + log.channel
    return np.unique(keys, return_counts=True)[1]


class TestGroupedFitMatchesOracle:
    def test_sixty_second_bootstrap(self):
        # Groups larger than 8 take numpy's unrolled pairwise-sum path.
        reader, scene = session(11, n_tags=2, room=make_laboratory())
        cal_log = reader.inventory(scene, 60.0)
        assert group_sizes(cal_log).max() > 8
        assert_same_fit(cal_log, reader.inventory(scene, 4.0, t0=60.0))

    def test_groups_of_size_one_even_and_odd(self):
        reader, scene = session(12, n_tags=2)
        full = reader.inventory(scene, 60.0)
        # Keep the first k reads of every group, k cycling through 1..12.
        keys = (full.tag_index * 8 + full.antenna) * 64 + full.channel
        rank = np.zeros(full.n_reads, dtype=np.int64)
        for key in np.unique(keys):
            idx = np.flatnonzero(keys == key)
            rank[idx] = np.arange(idx.size)
        quota = 1 + (keys * 7919) % 12
        cal_log = full.select(rank < quota)
        sizes = set(group_sizes(cal_log).tolist())
        assert {1, 2, 3}.issubset(sizes) and max(sizes) > 8
        assert_same_fit(cal_log, reader.inventory(scene, 4.0, t0=60.0))

    def test_port_without_calibration_reads(self):
        reader, scene = session(13, n_tags=2)
        full = reader.inventory(scene, 20.0)
        cal_log = full.select(~((full.tag_index == 1) & (full.antenna == 2)))
        fitted = assert_same_fit(cal_log, reader.inventory(scene, 4.0, t0=20.0))
        assert np.isnan(fitted._tables[(1, 2)].offsets).all()

    def test_reads_of_unknown_ports_are_ignored(self):
        reader, scene = session(14)
        full = reader.inventory(scene, 10.0)
        antenna = full.antenna.copy()
        antenna[::5] = full.meta.n_antennas  # a port outside the table
        cal_log = dataclasses.replace(full, antenna=antenna)
        assert_same_fit(cal_log, reader.inventory(scene, 4.0, t0=10.0))

    def test_channel_outside_table_rejected(self):
        reader, scene = session(15)
        cal_log = reader.inventory(scene, 4.0)
        channel = cal_log.channel.copy()
        channel[0] = cal_log.meta.frequencies_hz.size
        cal_log = dataclasses.replace(cal_log, channel=channel)
        with pytest.raises(ValueError, match="channel table"):
            PhaseCalibrator.fit(cal_log)


def per_group(values: np.ndarray, keys: np.ndarray) -> np.ndarray:
    return np.array([circular_median(values[keys == k]) for k in np.unique(keys)])


class TestGroupedCircularMedian:
    def test_matches_scalar_median_bytes(self):
        rng = np.random.default_rng(3)
        # Sizes 1..9, plus groups past numpy's 128-element pairwise block.
        sizes = np.r_[np.arange(1, 10), 129, 300, 300]
        keys = rng.permutation(np.repeat(rng.permutation(1000)[: sizes.size], sizes))
        values = rng.uniform(0.0, 2 * np.pi, keys.size)
        got_keys, got = grouped_circular_median(values, keys)
        np.testing.assert_array_equal(got_keys, np.unique(keys))
        assert got.tobytes() == per_group(values, keys).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=6),
                st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
            ),
            min_size=1,
            max_size=80,
        )
    )
    def test_property_matches_scalar_median(self, pairs):
        keys = np.array([k for k, _ in pairs])
        values = np.array([v for _, v in pairs])
        got_keys, got = grouped_circular_median(values, keys)
        np.testing.assert_array_equal(got_keys, np.unique(keys))
        assert got.tobytes() == per_group(values, keys).tobytes()

    def test_empty_input(self):
        keys, medians = grouped_circular_median(np.array([]), np.array([], dtype=np.int64))
        assert keys.size == 0 and medians.size == 0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            grouped_circular_median(np.zeros(3), np.zeros(2, dtype=np.int64))


class TestResolvedOffsets:
    """The masked fallback table against the per-channel ``offset_for`` chain."""

    FREQS = 902.75e6 + 0.5e6 * np.arange(8)

    @staticmethod
    def assert_matches_chain(table: _AntennaCalibration, freqs: np.ndarray) -> None:
        want = np.array([table.offset_for(c, freqs) for c in range(freqs.size)])
        assert table.resolved_offsets(freqs).tobytes() == want.tobytes()

    def test_observed(self):
        offsets = np.linspace(-3.0, 3.0, self.FREQS.size)
        table = _fit_antenna(offsets, self.FREQS)
        assert table.has_fit
        self.assert_matches_chain(table, self.FREQS)
        assert table.resolved_offsets(self.FREQS).tobytes() == offsets.tobytes()

    def test_linear_fit(self):
        offsets = 0.01 * np.arange(self.FREQS.size) ** 2
        offsets[[0, 3, 7]] = np.nan
        table = _fit_antenna(offsets, self.FREQS)
        assert table.has_fit
        self.assert_matches_chain(table, self.FREQS)

    def test_nearest_observed_first_on_ties(self):
        offsets = np.full(self.FREQS.size, np.nan)
        offsets[[1, 3, 6]] = [0.4, -0.0, 2.5]
        table = _fit_antenna(offsets, self.FREQS)
        assert not table.has_fit
        # Channel 2 is as far from channel 1 as from channel 3: the first wins.
        assert table.resolved_offsets(self.FREQS)[2] == 0.4
        self.assert_matches_chain(_fit_antenna(offsets, self.FREQS), self.FREQS)

    def test_nothing_observed(self):
        table = _fit_antenna(np.full(self.FREQS.size, np.nan), self.FREQS)
        self.assert_matches_chain(table, self.FREQS)
        assert not table.resolved_offsets(self.FREQS).any()

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=6),
                st.one_of(st.none(), st.floats(min_value=-7.0, max_value=7.0)),
            ),
            min_size=1,
            max_size=12,
        ),
        st.booleans(),
    )
    def test_property_matches_chain(self, channels, force_no_fit):
        # Coarse frequencies make equidistant (tied) neighbours common.
        freqs = 902.75e6 + 0.5e6 * np.array([k for k, _ in channels], dtype=np.float64)
        offsets = np.array([np.nan if v is None else v for _, v in channels])
        table = _fit_antenna(offsets, freqs)
        if force_no_fit:
            table = _AntennaCalibration(offsets, 0.0, 0.0, has_fit=False)
        self.assert_matches_chain(table, freqs)
