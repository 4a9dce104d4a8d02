"""Resilience evaluation: the fault sweep served through the supervisor.

:mod:`repro.eval.robustness` measures what injected faults do to
*accuracy* through the bare
:class:`~repro.core.streaming.StreamingIdentifier`; this driver serves
the same sweep (:func:`~repro.eval.robustness.fault_sweep`, one
corruption protocol for both) through the
:class:`~repro.runtime.supervisor.PipelineSupervisor` and records what
the *runtime* does with those faults: decided, abstain and
dead-letter counts, shed windows, escaped exceptions, and breaker
behaviour — plus two focused studies:

* a **transport study**: a FlakyReader-style ingest transport that
  drops fetches with probability equal to the sweep's highest severity
  (0.9), recovered through seeded full-jitter retries;
* a **breaker-cycle study**: an induced inference fault drives the
  ``predict`` breaker through a full closed → open → half-open →
  closed cycle on an injected fake clock (no sleeping), with the
  transitions recorded in the metrics registry.

Run as a module to produce the benchmark artifact::

    PYTHONPATH=src python -m repro.eval.resilience --quick

which writes ``BENCH_ext_resilience.json``.  The contract asserted by
the artifact: the *entire* sweep completes with zero uncaught
exceptions — every failed window degrades to an abstain decision and
a dead letter — clean (severity 0) serving decides every window, the
transport study delivers at least one window, and the breaker
completes its cycle.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass

import numpy as np

from repro.core.streaming import StreamingIdentifier, split_windows
from repro.eval.reporting import ExperimentResult, ExperimentRow
from repro.eval.robustness import (
    DEFAULT_FAULT_KINDS,
    DEFAULT_SEVERITIES,
    _clean_calibrator,
    fault_sweep,
)
from repro.runtime import (
    PipelineSupervisor,
    RetryExhaustedError,
    RetryPolicy,
    call_with_retry,
)

TRANSPORT_SEVERITY = 0.9
"""Ingest-transport failure probability of the transport study (the
sweep's highest severity)."""


@dataclass(frozen=True)
class ResilienceCell:
    """Supervised serving under one (fault kind, severity) setting.

    Attributes:
        kind: fault kind swept.
        severity: fault severity in ``[0, 1]``.
        n_windows: decisions emitted (exactly one per window).
        decided: labelled (non-abstain) decisions.
        abstained: abstain decisions (graceful degradations included).
        dead_letters: windows dead-lettered by the supervisor.
        shed: windows dropped by backpressure.
        uncaught: exceptions that escaped the supervisor (must be 0).
        accuracy: accuracy over decided windows (NaN when none).
    """

    kind: str
    severity: float
    n_windows: int
    decided: int
    abstained: int
    dead_letters: int
    shed: int
    uncaught: int
    accuracy: float


class _SupervisedCell:
    """Serves one sweep cell through a fresh supervisor.

    An exception escaping :meth:`PipelineSupervisor.process` is tallied
    as uncaught; the recording then yields no decision, which the sweep
    counts as one abstention.
    """

    def __init__(self, identifier: StreamingIdentifier) -> None:
        self.supervisor = PipelineSupervisor(identifier)
        self.uncaught = 0

    def __call__(self, log) -> list:
        try:
            return self.supervisor.process(log)
        except Exception:  # the supervisor contract says: never
            self.uncaught += 1
            return []


def resilience_sweep(
    identifier: StreamingIdentifier,
    raw_samples: list,
    kinds: tuple[str, ...] = DEFAULT_FAULT_KINDS,
    severities: tuple[float, ...] = DEFAULT_SEVERITIES,
    seed: int = 0,
) -> list[ResilienceCell]:
    """:func:`~repro.eval.robustness.fault_sweep` through the supervisor.

    Every cell is served by a fresh :class:`PipelineSupervisor`, so
    stage failures degrade to abstains/dead letters instead of
    raising; the supervisor's dead-letter and shed counts and any
    escaped exception are added to the cell's decision tallies.

    Returns:
        One :class:`ResilienceCell` per (kind, severity).
    """
    cells = []
    for cell, serve in fault_sweep(
        identifier,
        raw_samples,
        _SupervisedCell,
        kinds=kinds,
        severities=severities,
        seed=seed,
    ):
        health = serve.supervisor.health()
        cells.append(
            ResilienceCell(
                kind=cell.kind,
                severity=cell.severity,
                n_windows=cell.n_windows,
                decided=cell.decided,
                abstained=cell.abstained,
                dead_letters=health.windows_failed,
                shed=health.shed_windows,
                uncaught=serve.uncaught,
                accuracy=cell.accuracy,
            )
        )
    return cells


class _FlakyInference:
    """``predict_proba`` facade failing its first N calls (breaker study)."""

    def __init__(self, pipeline, fail_calls: int) -> None:
        self._pipeline = pipeline
        self._fails_left = int(fail_calls)

    @property
    def model(self):
        return self._pipeline.model

    @property
    def classes(self):
        return self._pipeline.classes

    def predict_proba(self, dataset):
        if self._fails_left > 0:
            self._fails_left -= 1
            raise RuntimeError("induced inference fault (resilience bench)")
        return self._pipeline.predict_proba(dataset)


class _FakeClock:
    """Manually advanced monotonic clock for deterministic breaker timing."""

    def __init__(self) -> None:
        self.t = 0.0

    def now(self) -> float:
        return self.t


def transport_study(
    identifier: StreamingIdentifier,
    windows: list[tuple[float, object]],
    severity: float = TRANSPORT_SEVERITY,
    seed: int = 0,
) -> dict:
    """FlakyReader-style ingest at the sweep's highest severity.

    Each window fetch fails with probability ``severity`` per attempt
    (seeded), recovered via :func:`repro.runtime.retry.call_with_retry`
    under a zero-delay policy; recovered windows are served through a
    supervisor.  Nothing here may raise — exhausted fetches count as
    lost ingest windows, not errors.

    Returns:
        The ``"transport"`` section of the benchmark document.
    """
    policy = RetryPolicy(
        max_attempts=10,
        base_delay_s=0.0,
        max_delay_s=0.0,
        retry_on=(ConnectionError,),
        jitter_seed=seed,
    )
    fail_rng = np.random.default_rng(seed + 17)
    supervisor = PipelineSupervisor(identifier)
    attempts = delivered = lost = uncaught = 0
    for t_start, window_log in windows:

        def fetch(log=window_log):
            nonlocal attempts
            attempts += 1
            if fail_rng.random() < severity:
                raise ConnectionError("simulated LLRP transport drop")
            return log

        try:
            fetched = call_with_retry(
                fetch, policy=policy, stage="bench.transport"
            )
        except RetryExhaustedError:
            lost += 1
            continue
        delivered += 1
        supervisor.submit(fetched, t_start)
    try:
        decisions = supervisor.drain()
    except Exception:  # the supervisor contract says: never
        decisions = []
        uncaught += 1
    decided = sum(1 for d in decisions if not d.abstained)
    return {
        "severity": float(severity),
        "windows_offered": len(windows),
        "fetch_attempts": attempts,
        "windows_delivered": delivered,
        "windows_lost_to_transport": lost,
        "windows_decided": decided,
        "windows_abstained": len(decisions) - decided,
        "uncaught_exceptions": uncaught,
        "retry_policy": {
            "max_attempts": policy.max_attempts,
            "base_delay_s": policy.base_delay_s,
            "jitter_seed": policy.jitter_seed,
        },
    }


def breaker_cycle_study(
    identifier: StreamingIdentifier, window: tuple[float, object]
) -> dict:
    """Drive the ``predict`` breaker through a full recovery cycle.

    An induced inference fault fails the first two windows (opening
    the breaker at ``failure_threshold=2``), two more windows are
    rejected while open, then a fake-clock jump past the reset timeout
    lets a half-open probe through — which succeeds and closes the
    breaker.  The observed transition list must contain the full
    closed → open → half-open → closed cycle.

    Returns:
        The ``"breaker_cycle"`` section of the benchmark document.
    """
    t_start, window_log = window
    flaky = StreamingIdentifier(
        pipeline=_FlakyInference(identifier.pipeline, fail_calls=2),
        calibrator=identifier.calibrator,
        window_s=identifier.window_s,
        min_reads=identifier.min_reads,
        min_live_ports=identifier.min_live_ports,
    )
    clock = _FakeClock()
    supervisor = PipelineSupervisor(
        flaky, failure_threshold=2, reset_timeout_s=5.0, clock=clock.now
    )
    reasons: list[str | None] = []
    states: list[str] = []
    for _step in range(4):
        supervisor.submit(window_log, t_start)
        for decision in supervisor.drain():
            reasons.append(decision.reason)
        states.append(supervisor.breakers["predict"].state)
        clock.t += 1.0
    clock.t += 10.0  # past reset_timeout_s: next call is the probe
    supervisor.submit(window_log, t_start)
    probe_decisions = supervisor.drain()
    reasons.extend(d.reason for d in probe_decisions)
    states.append(supervisor.breakers["predict"].state)
    transitions = list(supervisor.breakers["predict"].transitions)
    return {
        "transitions": [list(t) for t in transitions],
        "full_cycle_observed": (
            ("closed", "open") in transitions
            and ("open", "half_open") in transitions
            and ("half_open", "closed") in transitions
        ),
        "window_reasons": reasons,
        "breaker_state_after_each_step": states,
        "probe_decision_labelled": bool(
            probe_decisions and not probe_decisions[-1].abstained
        ),
        "health_after": supervisor.health().as_dict(),
    }


def _check_contract(
    cells: list[ResilienceCell], transport: dict, breaker: dict
) -> None:
    """Raise unless a resilience run kept the supervision contract.

    Raises:
        RuntimeError: an exception escaped the supervisor; a severity-0
            cell left a window undecided; the transport study delivered
            no window; or the breaker did not complete a
            closed→open→half-open→closed cycle.
    """
    uncaught = sum(c.uncaught for c in cells) + transport["uncaught_exceptions"]
    if uncaught:
        raise RuntimeError(
            f"supervision contract violated: {uncaught} uncaught exception(s)"
        )
    undecided = [
        c.kind for c in cells if c.severity == 0.0 and c.decided != c.n_windows
    ]
    if undecided:
        raise RuntimeError(
            f"clean serving left windows undecided for: {', '.join(undecided)}"
        )
    if transport["windows_delivered"] == 0:
        raise RuntimeError(
            f"transport at severity {transport['severity']} delivered no window"
        )
    if not breaker["full_cycle_observed"]:
        raise RuntimeError(
            "breaker did not complete a closed→open→half-open→closed cycle"
        )


def run_resilience_bench(quick: bool = True, seed: int = 0) -> dict:
    """Build the workload and produce the full benchmark document.

    Trains the same compact 4-class pipeline as the robustness driver,
    then runs the supervised fault sweep, the transport study, and the
    breaker-cycle study with observability enabled, and assembles the
    ``BENCH_ext_resilience.json`` content (including the metrics
    registry snapshot as evidence of breaker transitions and retry
    counts).

    Raises:
        RuntimeError: when the run violated the supervision contract
            (see the module docstring) — the artifact must not be
            written from such a run.
    """
    from repro import obs
    from repro.core.pipeline import M2AIPipeline
    from repro.eval.harness import runtime_workload

    workload = runtime_workload(quick, seed)
    t_setup = time.perf_counter()
    pipeline = M2AIPipeline(workload.training).fit(workload.train)
    setup_s = time.perf_counter() - t_setup

    identifier = StreamingIdentifier(
        pipeline, window_s=workload.window_s, min_reads=32
    )
    test_raws = workload.held_out

    obs.enable()
    obs.reset()
    try:
        cells = resilience_sweep(identifier, test_raws, seed=seed)

        first = test_raws[0]
        identifier.calibrator = _clean_calibrator(first)
        windows = split_windows(first.log, identifier.window_s)
        reps = 20 if quick else 60
        offered = [windows[i % len(windows)] for i in range(reps)]
        transport = transport_study(identifier, offered, seed=seed)
        breaker = breaker_cycle_study(identifier, windows[0])
        metrics_doc = json.loads(obs.get_registry().to_json())
    finally:
        obs.disable()

    _check_contract(cells, transport, breaker)

    cell_docs = []
    for c in cells:
        c_doc = asdict(c)
        if np.isnan(c_doc["accuracy"]):
            c_doc["accuracy"] = None  # strict-JSON-safe "all abstained"
        cell_docs.append(c_doc)
    return {
        "schema": "repro.runtime.bench.v1",
        "quick": bool(quick),
        "seed": int(seed),
        "setup_s": round(setup_s, 3),
        "epochs": int(workload.training.epochs),
        "n_test_recordings": len(test_raws),
        "zero_uncaught_exceptions": True,
        "cells": cell_docs,
        "transport": transport,
        "breaker_cycle": breaker,
        "metrics": metrics_doc,
    }


def run_ext_resilience(quick: bool = True, seed: int = 0) -> ExperimentResult:
    """Supervised-runtime resilience: the fault sweep that cannot crash.

    The extension-study entry point (``ext-resilience``): runs
    :func:`run_resilience_bench` and reports a decided-rate row per
    fault cell plus the transport and breaker-cycle outcomes.
    """
    doc = run_resilience_bench(quick=quick, seed=seed)
    rows = []
    for cell in doc["cells"]:
        decided_rate = cell["decided"] / max(cell["n_windows"], 1)
        rows.append(
            ExperimentRow(
                f"{cell['kind']} s={cell['severity']:.1f} decided",
                None,
                decided_rate,
                unit="rate",
            )
        )
    transport = doc["transport"]
    rows.append(
        ExperimentRow(
            "transport s=0.9 delivered rate",
            None,
            transport["windows_delivered"] / max(transport["windows_offered"], 1),
            unit="rate",
        )
    )
    rows.append(
        ExperimentRow(
            "breaker full cycle observed",
            None,
            1.0 if doc["breaker_cycle"]["full_cycle_observed"] else 0.0,
        )
    )
    return ExperimentResult(
        experiment_id="ext-resilience",
        title="Supervised runtime: fault sweep through the supervisor",
        rows=rows,
        notes=(
            "Every window of the ext-robustness fault sweep served through "
            "PipelineSupervisor: failures degrade to abstain/dead-letter "
            "decisions (zero uncaught exceptions asserted); transport "
            "faults at severity 0.9 are recovered by seeded full-jitter "
            "retries; the predict breaker demonstrably recovers "
            "closed→open→half-open→closed on a fake clock."
        ),
        extras={
            "transport": str(transport),
            "breaker transitions": str(doc["breaker_cycle"]["transitions"]),
        },
    )


def main(argv: list[str] | None = None) -> int:
    """CLI entry point: run the bench and write the JSON artifact."""
    import argparse
    import sys
    from pathlib import Path

    parser = argparse.ArgumentParser(
        prog="python -m repro.eval.resilience",
        description="Fault sweep through the supervised runtime.",
    )
    parser.add_argument(
        "--quick", action="store_true", help="CI-sized workload (smaller, faster)"
    )
    parser.add_argument("--seed", type=int, default=0, help="workload seed")
    parser.add_argument(
        "--out",
        type=Path,
        default=Path("BENCH_ext_resilience.json"),
        help="artifact path (default: BENCH_ext_resilience.json)",
    )
    args = parser.parse_args(argv)

    doc = run_resilience_bench(quick=args.quick, seed=args.seed)
    args.out.write_text(json.dumps(doc, indent=2, sort_keys=False) + "\n")

    out = sys.stdout.write
    out(f"wrote {args.out}\n")
    out(
        f"{'fault':<18}{'sev':>5}{'windows':>9}{'decided':>9}"
        f"{'abstain':>9}{'dead':>6}\n"
    )
    for cell in doc["cells"]:
        out(
            f"{cell['kind']:<18}{cell['severity']:>5.1f}{cell['n_windows']:>9}"
            f"{cell['decided']:>9}{cell['abstained']:>9}"
            f"{cell['dead_letters']:>6}\n"
        )
    transport = doc["transport"]
    out(
        f"transport s={transport['severity']:.1f}: "
        f"{transport['windows_delivered']}/{transport['windows_offered']} windows "
        f"delivered in {transport['fetch_attempts']} attempts, "
        f"{transport['windows_decided']} decided\n"
    )
    out(
        "breaker cycle: "
        + " -> ".join("/".join(t) for t in doc["breaker_cycle"]["transitions"])
        + "\n"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
