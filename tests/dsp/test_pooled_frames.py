"""The single featurisation path against the per-window oracle.

Every window — a training sample, one served window, or a fleet
shard's whole tick — is featurised by
:func:`~repro.dsp.frames.build_spectrum_frames_many`.  These tests pin
it *bit for bit* against the independent per-window implementation in
:mod:`tests.dsp.frames_oracle` (the throughput studies assert identical
decisions; a drift would originate here): healthy windows, mixed frame
counts, dead-port masks and empty windows.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dsp import (
    build_snapshots,
    build_snapshots_many,
    build_spectrum_frames,
    build_spectrum_frames_many,
    uncalibrated,
)
from repro.dsp.features import M2AIFeaturizer
from repro.dsp.snapshots import frame_count, tag_snapshot_set
from tests.dsp import frames_oracle


def _time_windows(log, n_windows=3):
    """Cut a log into equal time slices (distinct spans and t0s)."""
    t = log.timestamp_s
    edges = np.linspace(t.min(), t.max() + 1e-9, n_windows + 1)
    return [
        log.select((t >= lo) & (t < hi))
        for lo, hi in zip(edges[:-1], edges[1:])
    ]


def _assert_frames_equal(got, want):
    assert sorted(got.channels) == sorted(want.channels)
    for name in want.channels:
        np.testing.assert_array_equal(got.channels[name], want.channels[name])
    np.testing.assert_array_equal(
        got.meta["antenna_liveness"], want.meta["antenna_liveness"]
    )


def _assert_matches_oracle(windows, **kwargs):
    many = build_spectrum_frames_many(windows, **kwargs)
    assert len(many) == len(windows)
    for (log, psi, n_frames), pooled in zip(windows, many):
        want = frames_oracle.build_spectrum_frames(log, psi, n_frames, **kwargs)
        _assert_frames_equal(pooled, want)
    return many


class TestBuildSnapshotsMany:
    def test_slices_match_per_window_builder(self, small_log):
        logs = _time_windows(small_log, 3)
        psis = [uncalibrated(log) for log in logs]
        z, valid, wavelength, frame_time = build_snapshots_many(logs, psis, 4)
        for w, (log, psi) in enumerate(zip(logs, psis)):
            sets = frames_oracle.build_snapshots_all(log, psi, n_frames=4)
            for k, snaps in enumerate(sets):
                np.testing.assert_array_equal(z[w, k], snaps.z)
                np.testing.assert_array_equal(valid[w, k], snaps.valid)
                np.testing.assert_array_equal(
                    wavelength[w, k], snaps.wavelength_m
                )
                np.testing.assert_array_equal(
                    frame_time[w], snaps.frame_time_s
                )

    @pytest.mark.parametrize("n_frames", [None, 3, 9])
    def test_single_window_slices_match_oracle(self, small_log, n_frames):
        psi = uncalibrated(small_log)
        want = frames_oracle.build_snapshots_all(small_log, psi, n_frames)
        got = tag_snapshot_set(small_log, psi, n_frames)
        assert len(got) == len(want) == small_log.n_tags
        for k, (mine, ref) in enumerate(zip(got, want)):
            one = build_snapshots(small_log, psi, k, n_frames=n_frames)
            for snaps in (mine, one):
                np.testing.assert_array_equal(snaps.z, ref.z)
                np.testing.assert_array_equal(snaps.valid, ref.valid)
                np.testing.assert_array_equal(snaps.wavelength_m, ref.wavelength_m)
                np.testing.assert_array_equal(snaps.frame_time_s, ref.frame_time_s)

    def test_frame_count_is_the_span_rule(self, small_log):
        sets = frames_oracle.build_snapshots_all(small_log, uncalibrated(small_log))
        assert frame_count(small_log) == sets[0].n_frames
        empty = small_log.select(np.zeros(small_log.n_reads, dtype=bool))
        assert frame_count(empty) == 1

    def test_duplicate_bins_keep_last_read(self, small_log):
        # Same log twice: duplicate resolution must stay per-window.
        psis = [uncalibrated(small_log)] * 2
        z, valid, _wl, _ft = build_snapshots_many(
            [small_log, small_log], psis, 4
        )
        np.testing.assert_array_equal(z[0], z[1])
        np.testing.assert_array_equal(valid[0], valid[1])

    def test_misaligned_psi_rejected(self, small_log):
        with pytest.raises(ValueError):
            build_snapshots_many(
                [small_log], [uncalibrated(small_log)[:-1]], 4
            )


class TestBuildSpectrumFramesMany:
    def test_matches_scalar_per_window(self, small_log):
        logs = _time_windows(small_log, 3)
        # Mixed frame counts force two geometry groups; None derives
        # the count from the window span.
        windows = [
            (logs[0], uncalibrated(logs[0]), 4),
            (logs[1], uncalibrated(logs[1]), 4),
            (logs[2], uncalibrated(logs[2]), 2),
            (logs[0], uncalibrated(logs[0]), None),
        ]
        _assert_matches_oracle(windows)

    def test_batch_of_one_matches_oracle(self, small_log):
        psi = uncalibrated(small_log)
        grid = np.linspace(-60.0, 60.0, 31)
        for kwargs in (
            {},
            {"include_pseudo": False},
            {"include_period": False},
            {"angles_deg": grid},
        ):
            got = build_spectrum_frames(small_log, psi, label="A01", **kwargs)
            want = frames_oracle.build_spectrum_frames(
                small_log, psi, label="A01", **kwargs
            )
            assert got.label == want.label == "A01"
            _assert_frames_equal(got, want)

    def test_dead_port_windows_match_oracle(self, small_log):
        # Healthy windows share one batch with two different dead-port
        # masks, a two-port window and a single-port window (no frame
        # sees two ports, so it featurises to zeros).
        logs = _time_windows(small_log, 2)
        dead_2 = small_log.select(small_log.antenna != 2)
        dead_0 = logs[1].select(logs[1].antenna != 0)
        one_port = logs[0].select(logs[0].antenna == 1)
        two_ports = logs[1].select(logs[1].antenna <= 1)
        windows = [
            (logs[0], uncalibrated(logs[0]), 4),
            (dead_2, uncalibrated(dead_2), 4),
            (logs[1], uncalibrated(logs[1]), 4),
            (dead_0, uncalibrated(dead_0), 4),
            (one_port, uncalibrated(one_port), 4),
            (dead_2, uncalibrated(dead_2), None),
            (two_ports, uncalibrated(two_ports), 4),
        ]
        many = _assert_matches_oracle(windows)
        assert many[0].meta["antenna_liveness"].all()
        assert not many[1].meta["antenna_liveness"][2]
        assert not many[3].meta["antenna_liveness"][0]
        for name in ("pseudo", "period"):
            assert not many[4].channels[name].any()
            assert many[6].channels[name].any()

    def test_zero_read_window_is_one_zero_frame(self, small_log):
        empty = small_log.select(np.zeros(small_log.n_reads, dtype=bool))
        windows = [
            (small_log, uncalibrated(small_log), 4),
            (empty, uncalibrated(empty), None),
            (empty, uncalibrated(empty), 4),
        ]
        many = _assert_matches_oracle(windows)
        assert many[1].n_frames == 1
        assert many[2].n_frames == 4
        for frames in many[1:]:
            assert not frames.meta["antenna_liveness"].any()
            for values in frames.channels.values():
                assert not values.any()

    def test_featurizer_transform_many_matches_transform(self, small_log):
        feat = M2AIFeaturizer()
        logs = _time_windows(small_log, 2)
        windows = [(log, uncalibrated(log), 4) for log in logs]
        many = feat.transform_many(windows)
        for (log, psi, n_frames), pooled in zip(windows, many):
            one = feat.transform(log, psi, n_frames=n_frames)
            for name in one.channels:
                np.testing.assert_array_equal(
                    pooled.channels[name], one.channels[name]
                )

    def test_empty_input(self):
        assert build_spectrum_frames_many([]) == []
