"""Streaming identifier plumbing that needs no trained model."""

from __future__ import annotations

import pytest

from repro.core import M2AIPipeline
from repro.core.streaming import StreamingIdentifier, WindowDecision


class TestWindowDecision:
    def test_frozen_record(self):
        decision = WindowDecision(0.0, 6.0, "A01", 0.9, 120)
        with pytest.raises(AttributeError):
            decision.label = "A02"  # type: ignore[misc]

    def test_fields(self):
        decision = WindowDecision(2.0, 8.0, "A05", 0.75, 240)
        assert decision.t_end_s - decision.t_start_s == 6.0
        assert decision.confidence == 0.75


class TestDefaults:
    def test_default_hop_equals_window(self):
        identifier = StreamingIdentifier(M2AIPipeline(), window_s=4.0)
        assert identifier.hop_s is None  # resolved to window at identify()

    def test_min_reads_guard(self):
        identifier = StreamingIdentifier(M2AIPipeline(), min_reads=10)
        assert identifier.min_reads == 10
