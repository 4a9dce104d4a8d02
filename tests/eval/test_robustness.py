"""Fault sweep harness, exercised with a stub serving path.

The one corruption protocol (:func:`fault_sweep`) is served two ways:
through the bare identifier (robustness) and through a fresh
supervisor per cell (resilience).  With nothing failing, both must
count the same decisions cell for cell.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.core.streaming import (
    ABSTAIN,
    REASON_DEAD_PORTS,
    REASON_TOO_FEW_READS,
    WindowDecision,
)
from repro.data.generator import RawSample
from repro.eval.resilience import _check_contract, resilience_sweep
from repro.eval.robustness import RobustnessReport, fault_sweep, robustness_sweep
from repro.hardware import ReadLog, ReaderMeta

KINDS = ("dropout", "dead_port", "calibration_gap")
SEVERITIES = (0.0, 0.3, 0.9)
MIN_READS = 60


def make_log(n: int, seed: int) -> ReadLog:
    meta = ReaderMeta(
        n_antennas=4,
        slot_s=0.025,
        dwell_s=0.4,
        spacing_m=0.04,
        frequencies_hz=np.linspace(902.75e6, 927.25e6, 50),
        reference_channel=15,
    )
    rng = np.random.default_rng(seed)
    channel = rng.integers(0, 50, n)
    return ReadLog(
        epcs=("T",),
        tag_index=np.zeros(n, dtype=int),
        antenna=rng.integers(0, 4, n),
        channel=channel,
        frequency_hz=meta.frequencies_hz[channel],
        timestamp_s=np.sort(rng.uniform(0.0, 6.0, n)),
        phase_rad=rng.uniform(0.0, 2.0 * np.pi, n),
        rssi_dbm=np.full(n, -60.0),
        meta=meta,
    )


class StubIdentifier:
    """One decision per log, driven only by read count and liveness.

    A recording spans one 6 s window, so the supervisor's per-window
    path (``identify_window``) sees the same reads as ``identify``.
    """

    window_s = 6.0
    hop_s = None

    def __init__(self):
        self.calibrator = None

    def identify(self, log: ReadLog) -> list[WindowDecision]:
        if log.n_reads == 0:
            return []
        return [self.identify_window(log, 0.0)]

    def identify_window(self, log: ReadLog, t_start_s: float) -> WindowDecision:
        t_end_s = t_start_s + self.window_s
        if int(log.antenna_liveness().sum()) < 2:
            return WindowDecision(
                t_start_s, t_end_s, ABSTAIN, 0.0, log.n_reads, True,
                REASON_DEAD_PORTS,
            )
        if log.n_reads < MIN_READS:
            return WindowDecision(
                t_start_s, t_end_s, ABSTAIN, 0.0, log.n_reads, True,
                REASON_TOO_FEW_READS,
            )
        return WindowDecision(t_start_s, t_end_s, "act", 0.9, log.n_reads)


@pytest.fixture()
def samples() -> list[RawSample]:
    return [
        RawSample(
            label="act",
            log=make_log(200, seed=i),
            calibration_log=make_log(400, seed=100 + i),
            n_frames=15,
        )
        for i in range(3)
    ]


@pytest.fixture()
def report(samples) -> RobustnessReport:
    return robustness_sweep(
        StubIdentifier(), samples, kinds=KINDS, severities=SEVERITIES, seed=0
    )


class TestRobustnessSweep:
    def test_full_grid_covered(self, report):
        assert len(report.cells) == len(KINDS) * len(SEVERITIES)
        for kind in KINDS:
            for severity in SEVERITIES:
                cell = report.cell(kind, severity)
                assert cell.n_windows == 3
                assert 0.0 <= cell.abstain_rate <= 1.0

    def test_unknown_cell_raises(self, report):
        with pytest.raises(KeyError):
            report.cell("dropout", 0.5)

    def test_clean_baseline_shared_across_kinds(self, report):
        for kind in KINDS:
            cell = report.cell(kind, 0.0)
            assert cell.accuracy == 1.0
            assert cell.abstain_rate == 0.0

    def test_heavy_dropout_abstains(self, report):
        cell = report.cell("dropout", 0.9)  # ~81% loss: below MIN_READS
        assert cell.abstain_rate == 1.0
        assert np.isnan(cell.accuracy)

    def test_heavy_dead_port_abstains(self, report):
        cell = report.cell("dead_port", 0.9)  # one surviving port
        assert cell.abstain_rate == 1.0

    def test_mild_faults_still_decided(self, report):
        assert report.cell("dropout", 0.3).abstain_rate == 0.0
        assert report.cell("dead_port", 0.3).accuracy == 1.0

    def test_calibration_gap_refits_calibrator(self, report):
        # The runtime log stays clean, so decisions still land; the
        # refitted calibrator must interpolate the blanked reference.
        cell = report.cell("calibration_gap", 0.9)
        assert cell.abstain_rate == 0.0
        assert cell.accuracy == 1.0

    def test_render_table(self, report):
        table = report.render()
        assert isinstance(table, str)
        for kind in KINDS:
            assert kind in table
        assert "s=0.00" in table and "s=0.90" in table


class TestFaultSweep:
    def test_clean_pass_served_once(self, samples):
        opened = []

        def open_cell(identifier):
            opened.append(identifier)
            return identifier.identify

        cells = fault_sweep(
            StubIdentifier(), samples, open_cell,
            kinds=KINDS, severities=SEVERITIES, seed=0,
        )
        assert len(cells) == len(KINDS) * len(SEVERITIES)
        # One shared clean pass plus one pass per faulted cell.
        assert len(opened) == 1 + len(KINDS) * (len(SEVERITIES) - 1)
        clean = {id(serve) for cell, serve in cells if cell.severity == 0.0}
        assert len(clean) == 1


@pytest.fixture()
def cells(samples):
    return resilience_sweep(
        StubIdentifier(), samples, kinds=KINDS, severities=SEVERITIES, seed=0
    )


class TestSupervisedSweep:
    def test_full_grid_covered(self, cells):
        assert [(c.kind, c.severity) for c in cells] == [
            (kind, severity) for kind in KINDS for severity in SEVERITIES
        ]

    def test_zero_uncaught(self, cells):
        assert all(c.uncaught == 0 for c in cells)

    def test_clean_cells_shared(self, cells):
        clean = [c for c in cells if c.severity == 0.0]
        assert len(clean) == len(KINDS)
        assert len({replace(c, kind="") for c in clean}) == 1

    def test_counts_match_robustness_sweep(self, cells, report):
        for cell in cells:
            ref = report.cell(cell.kind, cell.severity)
            assert (cell.n_windows, cell.decided, cell.abstained) == (
                ref.n_windows, ref.decided, ref.abstained,
            ), (cell.kind, cell.severity)
            assert cell.dead_letters == cell.shed == 0


class TestResilienceContract:
    """The checks ``run_resilience_bench`` raises on before writing."""

    TRANSPORT = {"severity": 0.9, "windows_delivered": 9, "uncaught_exceptions": 0}
    BREAKER = {"full_cycle_observed": True}

    def test_healthy_run_passes(self, cells):
        _check_contract(cells, self.TRANSPORT, self.BREAKER)

    def test_uncaught_exception_raises(self, cells):
        cells[-1] = replace(cells[-1], uncaught=1)
        with pytest.raises(RuntimeError, match="uncaught"):
            _check_contract(cells, self.TRANSPORT, self.BREAKER)

    def test_undecided_clean_window_raises(self, cells):
        i = next(i for i, c in enumerate(cells) if c.severity == 0.0)
        cells[i] = replace(cells[i], decided=cells[i].n_windows - 1)
        with pytest.raises(RuntimeError, match=cells[i].kind):
            _check_contract(cells, self.TRANSPORT, self.BREAKER)

    def test_undecided_faulted_window_is_allowed(self, cells):
        i = next(i for i, c in enumerate(cells) if c.severity > 0.0)
        cells[i] = replace(cells[i], decided=0)
        _check_contract(cells, self.TRANSPORT, self.BREAKER)

    def test_nothing_delivered_raises(self, cells):
        transport = {**self.TRANSPORT, "windows_delivered": 0}
        with pytest.raises(RuntimeError, match="delivered no window"):
            _check_contract(cells, transport, self.BREAKER)

    def test_incomplete_breaker_cycle_raises(self, cells):
        with pytest.raises(RuntimeError, match="breaker"):
            _check_contract(cells, self.TRANSPORT, {"full_cycle_observed": False})
