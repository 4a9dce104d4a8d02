"""The learning-free experiment drivers (Fig. 2 / Fig. 3)."""

from __future__ import annotations

import pytest

from repro.eval import run_fig02, run_fig03


@pytest.fixture(scope="module")
def fig02_result():
    return run_fig02(seed=0)


@pytest.fixture(scope="module")
def fig03_result():
    return run_fig03(quick=True, seed=0)


class TestFig02:
    def test_stationary_spectrum_stable(self, fig02_result):
        measured = fig02_result.measured_by_name()
        assert measured["stationary: top-peak angle std (deg)"] < 10.0

    def test_blocker_reshapes_spectrum(self, fig02_result):
        measured = fig02_result.measured_by_name()
        assert measured["moving blocker: peak power swing (dB)"] > 3.0

    def test_renderable(self, fig02_result):
        text = fig02_result.render()
        assert "fig02" in text and "blocker" in text


class TestFig03:
    def test_linearity(self, fig03_result):
        measured = fig03_result.measured_by_name()
        assert measured["phase-frequency linearity R^2"] > 0.9

    def test_all_channels_visited(self, fig03_result):
        measured = fig03_result.measured_by_name()
        assert measured["channels observed"] == 50

    def test_slope_in_session_range(self, fig03_result):
        # Doubled-domain slope = 2 x (oscillator + tag - geometry) slopes;
        # anything wildly outside the configured ranges indicates a bug.
        measured = fig03_result.measured_by_name()
        assert 0.0 < measured["fitted slope magnitude (rad/MHz)"] < 3.0
