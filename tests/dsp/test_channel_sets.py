"""Every named channel set against its reference featuriser, byte for byte.

:class:`~repro.dsp.features.M2AIFeaturizer` builds all of its channel
sets from one pooled snapshot pass.  These tests pin each set against
the per-window, per-(tag, frame) classes it replaced
(:mod:`tests.dsp.featurizer_oracle`) with ``tobytes()`` equality, over
windows hypothesis cuts from two simulated recordings: raw and
calibrated phases, one dead port or all but one, a tag with zero
reads, an empty window and frame counts forced past the log span —
and over mixed batches of those through ``transform_many``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.dsp import CHANNEL_SETS, M2AIFeaturizer, PhaseCalibrator, uncalibrated
from repro.dsp.snapshots import frame_count
from repro.geometry import Vec2, make_laboratory
from repro.hardware import Reader, ReaderConfig, Scene, TagTrack, UniformLinearArray, make_tag
from tests.dsp import featurizer_oracle

SETS = sorted(CHANNEL_SETS)
HYPOTHESIS = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@pytest.fixture(scope="module")
def recordings():
    """Two laboratory recordings with their raw and calibrated phases.

    One has three stationary tags; in the other a tag sways at 1 Hz
    beside a still one, so the Doppler set sees real rotation.  Each
    recording is its own calibration log's source: a stationary
    inventory of the same tags.
    """
    room = make_laboratory()
    array = UniformLinearArray(center=Vec2(room.bounds.width / 2.0, 0.3))
    reader = Reader(ReaderConfig(array=array), room, seed=29)
    rng = np.random.default_rng(3)
    slot = reader.config.slot_s
    n_slots = int(round(3.2 / slot))
    t = (np.arange(n_slots) + 0.5) * slot
    still = np.broadcast_to(np.array([6.0, 4.0]), (n_slots, 2)).copy()
    sway = np.stack(
        [6.0 + 0.5 * np.sin(2 * np.pi * 1.0 * t), np.full(n_slots, 4.5)], axis=1
    )
    positions = [
        [still, still + [0.8, 0.4], still + [1.6, 0.8]],
        [still, sway],
    ]
    out = []
    for tracks in positions:
        tags = [make_tag(f"parity-{i}", rng) for i in range(len(tracks))]
        scene = Scene(
            tag_tracks=tuple(TagTrack(tag=tag, positions=p) for tag, p in zip(tags, tracks))
        )
        log = reader.inventory(scene, 3.2)
        calibrator = PhaseCalibrator.fit(reader.inventory(scene.frozen(), 6.0))
        out.append((log, {"raw": uncalibrated(log), "calibrated": calibrator.calibrate(log)}))
    return out


@st.composite
def windows(draw, recordings):
    """One ``(log, psi, n_frames)`` window cut from a recording."""
    log, psis = recordings[draw(st.integers(0, len(recordings) - 1))]
    psi = psis[draw(st.sampled_from(["raw", "calibrated"]))]
    keep = np.ones(log.n_reads, dtype=bool)
    t = log.timestamp_s
    lo, hi = sorted(draw(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0))))
    if draw(st.booleans()):
        span = t.max() - t.min()
        keep &= (t >= t.min() + lo * span) & (t <= t.min() + hi * span)
    ports = draw(st.sampled_from(["all", "one dead", "one live"]))
    port = draw(st.integers(0, log.meta.n_antennas - 1))
    if ports == "one dead":
        keep &= log.antenna != port
    elif ports == "one live":
        keep &= log.antenna == port
    if draw(st.booleans()):
        keep &= log.tag_index != draw(st.integers(0, log.n_tags - 1))
    if draw(st.integers(0, 9)) == 0:
        keep[:] = False
    window = log.select(keep)
    frames = draw(st.sampled_from([None, "span", "past span", "short"]))
    n_frames = {
        None: None,
        "span": frame_count(window),
        "past span": frame_count(window) + draw(st.integers(1, 3)),
        "short": max(1, frame_count(window) - 2),
    }[frames]
    return window, psi[keep], n_frames


def _assert_bytes_equal(got, want):
    assert list(got.channels) == list(want.channels)
    for name, values in want.channels.items():
        assert got.channels[name].shape == values.shape
        assert got.channels[name].dtype == values.dtype
        assert got.channels[name].tobytes() == values.tobytes(), name


class TestChannelSetParity:
    @HYPOTHESIS
    @given(data=st.data())
    def test_every_set_matches_oracle(self, recordings, data):
        log, psi, n_frames = data.draw(windows(recordings))
        for name in SETS:
            got = M2AIFeaturizer(name).transform(log, psi, n_frames=n_frames, label="A03")
            want = featurizer_oracle.FEATURIZERS[name].transform(
                log, psi, n_frames=n_frames, label="A03"
            )
            assert got.label == want.label == "A03"
            _assert_bytes_equal(got, want)

    @HYPOTHESIS
    @given(data=st.data())
    def test_transform_many_matches_one_at_a_time(self, recordings, data):
        batch = data.draw(st.lists(windows(recordings), min_size=1, max_size=5))
        for name in SETS:
            feat = M2AIFeaturizer(name)
            many = feat.transform_many(batch)
            assert len(many) == len(batch)
            for (log, psi, n_frames), pooled in zip(batch, many):
                _assert_bytes_equal(pooled, feat.transform(log, psi, n_frames=n_frames))

    def test_sets_cover_the_recordings(self, recordings):
        # The hypothesis windows above include these whole recordings;
        # pin them explicitly so every set is checked on real motion.
        for log, psis in recordings:
            for psi in psis.values():
                for name in SETS:
                    _assert_bytes_equal(
                        M2AIFeaturizer(name).transform(log, psi),
                        featurizer_oracle.FEATURIZERS[name].transform(log, psi),
                    )
