"""Streaming edge cases: degenerate logs and explicit abstention.

These run against a stubbed pipeline/featurizer so they exercise the
window bookkeeping and abstain logic alone, without training a model.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.streaming import (
    ABSTAIN,
    REASON_DEAD_PORTS,
    REASON_LOW_CONFIDENCE,
    REASON_TOO_FEW_READS,
    StreamingIdentifier,
)
from repro.dsp.frames import FeatureFrames
from repro.hardware import ReadLog, ReaderMeta

DWELL_S = 0.4
META = ReaderMeta(
    n_antennas=4,
    slot_s=0.025,
    dwell_s=DWELL_S,
    spacing_m=0.04,
    frequencies_hz=np.linspace(902.75e6, 927.25e6, 50),
    reference_channel=15,
)


def make_log(timestamps, antennas) -> ReadLog:
    timestamps = np.asarray(timestamps, dtype=float)
    antennas = np.asarray(antennas, dtype=int)
    n = timestamps.size
    channel = np.zeros(n, dtype=int)
    return ReadLog(
        epcs=("T",),
        tag_index=np.zeros(n, dtype=int),
        antenna=antennas,
        channel=channel,
        frequency_hz=META.frequencies_hz[channel],
        timestamp_s=timestamps,
        phase_rad=np.zeros(n),
        rssi_dbm=np.full(n, -60.0),
        meta=META,
    )


class StubFeaturizer:
    """Returns a fixed tiny FeatureFrames regardless of the window."""

    def transform(self, log, psi, n_frames, label=None):
        return FeatureFrames(
            channels={"pseudo": np.zeros((n_frames, 1, 3))}, label=label
        )

    def transform_many(self, windows):
        return [self.transform(log, psi, n_frames) for log, psi, n_frames in windows]


class StubPipeline:
    """Duck-typed fitted pipeline with a fixed softmax output."""

    def __init__(self, proba=(0.9, 0.1)):
        self.model = object()  # non-None == fitted
        self.classes = np.array(["sit", "walk"])
        self._proba = np.asarray(proba, dtype=float)

    def predict_proba(self, dataset):
        return np.tile(self._proba, (len(dataset), 1))


def identifier(**kwargs) -> StreamingIdentifier:
    defaults = dict(
        pipeline=StubPipeline(),
        window_s=DWELL_S,
        featurizer=StubFeaturizer(),
        min_reads=2,
    )
    defaults.update(kwargs)
    return StreamingIdentifier(**defaults)


class TestDegenerateLogs:
    def test_empty_log_yields_no_decisions(self):
        log = make_log([], [])
        assert identifier().identify(log) == []

    def test_single_read_abstains_too_few(self):
        log = make_log([0.1], [0])
        decisions = identifier().identify(log)
        assert len(decisions) == 1
        d = decisions[0]
        assert d.abstained and d.label == ABSTAIN
        assert d.reason == REASON_TOO_FEW_READS
        assert d.n_reads == 1 and d.confidence == 0.0

    def test_exactly_min_reads_classifies(self):
        times = [0.0125, 0.0375, 0.0625, 0.0875]
        log = make_log(times, [0, 1, 2, 3])
        decisions = identifier(min_reads=4).identify(log)
        assert len(decisions) == 1
        d = decisions[0]
        assert not d.abstained and d.reason is None
        assert d.label == "sit" and d.confidence == pytest.approx(0.9)
        assert d.n_reads == 4

    def test_reads_preceding_first_complete_window(self):
        # 0.3 s of reads cannot fill a 6 s window: no decision at all.
        log = make_log(np.linspace(0.0, 0.3, 20), np.tile([0, 1, 2, 3], 5))
        assert identifier(window_s=6.0).identify(log) == []


class TestAbstention:
    def test_midstream_gap_is_reported_not_dropped(self):
        times = np.concatenate(
            [np.linspace(0.0, 0.39, 16), np.linspace(0.8, 1.19, 16)]
        )
        ants = np.tile([0, 1, 2, 3], 8)
        decisions = identifier().identify(make_log(times, ants))
        assert len(decisions) == 3  # windows at 0.0, 0.4, 0.8 — none skipped
        assert [d.abstained for d in decisions] == [False, True, False]
        gap = decisions[1]
        assert gap.reason == REASON_TOO_FEW_READS and gap.n_reads == 0

    def test_single_live_port_abstains_dead_ports(self):
        log = make_log(np.linspace(0.0, 0.39, 16), np.zeros(16, dtype=int))
        decisions = identifier().identify(log)
        assert len(decisions) == 1
        assert decisions[0].abstained
        assert decisions[0].reason == REASON_DEAD_PORTS

    def test_low_confidence_abstains_when_enabled(self):
        log = make_log(np.linspace(0.0, 0.39, 16), np.tile([0, 1, 2, 3], 4))
        shaky = StubPipeline(proba=(0.55, 0.45))
        decisions = identifier(pipeline=shaky, min_confidence=0.9).identify(log)
        assert decisions[0].abstained
        assert decisions[0].reason == REASON_LOW_CONFIDENCE

    def test_low_confidence_disabled_by_default(self):
        log = make_log(np.linspace(0.0, 0.39, 16), np.tile([0, 1, 2, 3], 4))
        shaky = StubPipeline(proba=(0.55, 0.45))
        decisions = identifier(pipeline=shaky).identify(log)
        assert not decisions[0].abstained
        assert decisions[0].confidence == pytest.approx(0.55)


class TestWindowParameterValidation:
    """A non-positive hop used to loop forever (``hop_s or window_s``
    treated 0.0 as unset only for None-like falsiness, and a negative
    hop walked the window backwards).  These must fail fast — each
    call below returns or raises immediately, no timeout machinery."""

    def test_zero_hop_raises(self):
        log = make_log(np.linspace(0.0, 0.39, 16), np.tile([0, 1, 2, 3], 4))
        with pytest.raises(ValueError, match="hop_s"):
            identifier(hop_s=0.0).identify(log)

    def test_negative_hop_raises(self):
        log = make_log(np.linspace(0.0, 0.39, 16), np.tile([0, 1, 2, 3], 4))
        with pytest.raises(ValueError, match="hop_s"):
            identifier(hop_s=-0.1).identify(log)

    def test_non_positive_window_raises(self):
        log = make_log(np.linspace(0.0, 0.39, 16), np.tile([0, 1, 2, 3], 4))
        with pytest.raises(ValueError, match="window_s"):
            identifier(window_s=0.0).identify(log)
        with pytest.raises(ValueError, match="window_s"):
            identifier(window_s=-1.0).identify(log)

    def test_none_hop_still_defaults_to_window(self):
        times = np.concatenate(
            [np.linspace(0.0, 0.39, 16), np.linspace(0.4, 0.79, 16)]
        )
        decisions = identifier(hop_s=None).identify(
            make_log(times, np.tile([0, 1, 2, 3], 8))
        )
        assert len(decisions) == 2  # back-to-back, non-overlapping


class TestUnsortedLogs:
    def test_unsorted_log_matches_sorted(self):
        """The searchsorted fast path must not assume input order."""
        times = np.linspace(0.0, 0.79, 32)
        ants = np.tile([0, 1, 2, 3], 8)
        rng = np.random.default_rng(3)
        perm = rng.permutation(times.size)
        sorted_decisions = identifier().identify(make_log(times, ants))
        shuffled_decisions = identifier().identify(
            make_log(times[perm], ants[perm])
        )
        assert sorted_decisions == shuffled_decisions
        assert len(sorted_decisions) == 2
