"""Robustness evaluation: accuracy under injected deployment faults.

The paper's accuracy numbers are measured on clean captures; a
deployment sees collisions, blockage, dead ports and calibration gaps.
This driver sweeps fault severity x fault kind (via
:mod:`repro.faults`) against one fitted pipeline and reports the
degradation curve — accuracy over decided windows plus the abstain
rate — giving the repo a quantified robustness baseline.

Decisions go through :class:`~repro.core.streaming.StreamingIdentifier`
so the numbers reflect the *serving* path, including its graceful
abstentions, not just batch featurisation.  The corruption protocol,
:func:`fault_sweep`, is shared with :mod:`repro.eval.resilience`,
which serves the same cells through the supervised runtime.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from repro.core.streaming import StreamingIdentifier
from repro.data.generator import RawSample
from repro.dsp.calibration import PhaseCalibrator
from repro.eval.reporting import ExperimentResult, ExperimentRow
from repro.faults import FaultSpec, apply_faults
from repro.hardware.llrp import ReadLog

DEFAULT_FAULT_KINDS = (
    "dropout",
    "dead_port",
    "phase_noise",
    "ghost_reads",
    "calibration_gap",
)
"""Fault kinds the standard sweep covers."""

DEFAULT_SEVERITIES = (0.0, 0.3, 0.6, 0.9)
"""Severity grid of the standard sweep."""


@dataclass(frozen=True)
class RobustnessCell:
    """One (fault kind, severity) measurement.

    Attributes:
        kind: fault kind swept.
        severity: fault severity in ``[0, 1]``.
        n_windows: decisions the cell is measured over (a recording
            too degraded to hold one window counts as one abstention).
        decided: labelled (non-abstain) decisions.
        abstained: abstain decisions.
        correct: decided windows whose label matched the recording.
    """

    kind: str
    severity: float
    n_windows: int
    decided: int
    abstained: int
    correct: int

    @property
    def accuracy(self) -> float:
        """Accuracy over the decided windows; NaN when all abstained."""
        return self.correct / self.decided if self.decided else float("nan")

    @property
    def abstain_rate(self) -> float:
        """Abstained windows / total windows."""
        return self.abstained / max(self.n_windows, 1)


@dataclass
class RobustnessReport:
    """A full severity x kind sweep against one pipeline."""

    cells: list[RobustnessCell] = field(default_factory=list)

    def cell(self, kind: str, severity: float) -> RobustnessCell:
        """Lookup one measurement.

        Raises:
            KeyError: when the sweep did not cover (kind, severity).
        """
        for c in self.cells:
            if c.kind == kind and c.severity == severity:
                return c
        raise KeyError((kind, severity))

    def render(self) -> str:
        """Severity -> accuracy/abstain-rate table, one row per kind."""
        severities = sorted({c.severity for c in self.cells})
        kinds = list(dict.fromkeys(c.kind for c in self.cells))
        width = max([len(k) for k in kinds] + [10])
        header = f"{'fault':<{width}}  " + "  ".join(
            f"s={s:<4.2f} acc/abst" for s in severities
        )
        lines = [header, "-" * len(header)]
        for kind in kinds:
            parts = []
            for s in severities:
                c = self.cell(kind, s)
                acc = "  -- " if np.isnan(c.accuracy) else f"{c.accuracy:5.2f}"
                parts.append(f"{acc}/{c.abstain_rate:4.2f} ")
            lines.append(f"{kind:<{width}}  " + "  ".join(parts))
        return "\n".join(lines)


def fault_sweep(
    identifier: StreamingIdentifier,
    raw_samples: list[RawSample],
    open_cell: Callable[[StreamingIdentifier], Callable[[ReadLog], list]],
    kinds: tuple[str, ...] = DEFAULT_FAULT_KINDS,
    severities: tuple[float, ...] = DEFAULT_SEVERITIES,
    seed: int = 0,
) -> list[tuple[RobustnessCell, Callable[[ReadLog], list]]]:
    """The corruption protocol: sweep fault severity x kind.

    Every recording is corrupted per (kind, severity) with the
    deterministic per-sample seed ``seed * 100_003 + i``, then served;
    a window's decision counts as correct when its label matches the
    recording's class.  ``calibration_gap`` corrupts the *calibration*
    log (refitting the calibrator; ``None`` when the bootstrap is
    wiped out) while the runtime log stays clean; every other kind
    corrupts the runtime log.  Severity zero reuses one shared clean
    pass — the injectors are exact no-ops there, so per-kind clean
    baselines are identical by construction.  A recording that yields
    no decision at all counts as one abstention, not a silent skip.

    Args:
        identifier: serving-path identifier wrapping the fitted
            pipeline (its calibrator is replaced per sample).
        raw_samples: held-out recordings with their calibration logs.
        open_cell: called with ``identifier`` once per served cell;
            returns the callable that turns one corrupted log into
            its decisions.
        kinds: fault kinds to sweep.
        severities: severity grid (should include 0.0 for a baseline).
        seed: base seed for the fault scenarios.

    Returns:
        ``(cell, serve)`` per (kind, severity), in sweep order, where
        ``serve`` is the callable ``open_cell`` returned for that cell
        (the severity-zero cells share one).
    """
    clean: tuple[RobustnessCell, Callable] | None = None
    cells: list[tuple[RobustnessCell, Callable]] = []
    for kind in kinds:
        for severity in severities:
            if severity == 0.0:
                if clean is None:
                    clean = _serve_cell(
                        identifier, raw_samples, open_cell, kind, 0.0, seed
                    )
                cell, serve = clean
                cells.append((replace(cell, kind=kind), serve))
                continue
            cells.append(
                _serve_cell(
                    identifier, raw_samples, open_cell, kind, severity, seed
                )
            )
    return cells


def _serve_cell(
    identifier: StreamingIdentifier,
    raw_samples: list[RawSample],
    open_cell: Callable[[StreamingIdentifier], Callable[[ReadLog], list]],
    kind: str,
    severity: float,
    seed: int,
) -> tuple[RobustnessCell, Callable[[ReadLog], list]]:
    """Serve every recording under one fault setting."""
    serve = open_cell(identifier)
    correct = decided = abstained = total = 0
    spec = FaultSpec(kind=kind, severity=severity)
    for i, raw in enumerate(raw_samples):
        sample_seed = seed * 100_003 + i
        if kind == "calibration_gap" and severity > 0.0:
            cal_log = apply_faults(raw.calibration_log, [spec], seed=sample_seed)
            log = raw.log
            try:
                calibrator = PhaseCalibrator.fit(cal_log)
            except ValueError:  # bootstrap wiped out entirely
                calibrator = None
        else:
            log = apply_faults(raw.log, [spec], seed=sample_seed)
            calibrator = _clean_calibrator(raw)
        identifier.calibrator = calibrator
        decisions = serve(log)
        if not decisions:
            # Log too degraded to hold one complete window: count the
            # recording as an abstention, not a silent skip.
            abstained += 1
            total += 1
            continue
        for decision in decisions:
            total += 1
            if decision.abstained:
                abstained += 1
            else:
                decided += 1
                correct += int(decision.label == raw.label)
    cell = RobustnessCell(
        kind=kind,
        severity=severity,
        n_windows=total,
        decided=decided,
        abstained=abstained,
        correct=correct,
    )
    return cell, serve


def robustness_sweep(
    identifier: StreamingIdentifier,
    raw_samples: list[RawSample],
    kinds: tuple[str, ...] = DEFAULT_FAULT_KINDS,
    severities: tuple[float, ...] = DEFAULT_SEVERITIES,
    seed: int = 0,
) -> RobustnessReport:
    """:func:`fault_sweep` served through the bare identifier.

    Each recording goes through ``identifier.identify``; see
    :func:`fault_sweep` for the corruption protocol.

    Returns:
        The :class:`RobustnessReport`.
    """
    cells = fault_sweep(
        identifier,
        raw_samples,
        lambda ident: ident.identify,
        kinds=kinds,
        severities=severities,
        seed=seed,
    )
    return RobustnessReport(cells=[cell for cell, _serve in cells])


def _clean_calibrator(raw: RawSample) -> PhaseCalibrator:
    """The recording's clean-bootstrap calibrator, fitted once."""
    if raw.calibrator is None:
        raw.calibrator = PhaseCalibrator.fit(raw.calibration_log)
    return raw.calibrator


def run_ext_robustness(quick: bool = True, seed: int = 0) -> ExperimentResult:
    """Degradation curves: accuracy/abstain rate vs fault severity.

    Trains a compact pipeline on clean recordings of four activities,
    then sweeps :data:`DEFAULT_FAULT_KINDS` x
    :data:`DEFAULT_SEVERITIES` over the held-out recordings through the
    streaming serving path.
    """
    from repro.core.pipeline import M2AIPipeline
    from repro.eval.harness import runtime_workload

    workload = runtime_workload(quick, seed)
    pipeline = M2AIPipeline(workload.training).fit(workload.train)
    identifier = StreamingIdentifier(
        pipeline, window_s=workload.window_s, min_reads=32
    )
    report = robustness_sweep(identifier, workload.held_out, seed=seed)

    rows = []
    for cell in report.cells:
        acc = 0.0 if np.isnan(cell.accuracy) else cell.accuracy
        rows.append(
            ExperimentRow(f"{cell.kind} s={cell.severity:.1f}", None, acc)
        )
        rows.append(
            ExperimentRow(
                f"{cell.kind} s={cell.severity:.1f} abstain",
                None,
                cell.abstain_rate,
                unit="rate",
            )
        )
    return ExperimentResult(
        experiment_id="ext-robustness",
        title="Fault robustness: accuracy/abstain vs severity",
        rows=rows,
        notes=(
            "Accuracy is over decided windows only; the abstain rate is "
            "the fraction of windows the streaming identifier declined "
            "with an explicit reason. Severity 0 is the clean baseline "
            "(injectors are exact no-ops)."
        ),
        extras={"degradation table": report.render()},
    )
