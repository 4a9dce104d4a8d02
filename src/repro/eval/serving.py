"""Fleet-serving benchmark: isolation and the control surface.

The fleet's load-bearing claim, checked on a real fitted pipeline and
committed as evidence:

* **isolation** — NaN-poisoning 10% of the fleet's streams must leave
  the remaining 90% with zero uncaught exceptions, decisions
  identical to a fault-free run, and p95 per-window latency within
  :data:`LATENCY_P95_TOLERANCE` of the fault-free run's.

A second section exercises the fleet's control surface (admission
rejection, sustained-overload shedding, shard crash reassignment) so
the counters the operators would alert on are demonstrably live.

Serving throughput and latency are measured by perfbench's ``serve``
workload (``python3 perfbench/run.py --workload serve``), not here.

Run as a module to produce the benchmark artifact::

    PYTHONPATH=src python -m repro.eval.serving --quick

which writes ``BENCH_ext_serving.json``.  The driver raises instead
of writing an artifact whenever a contract is violated.
"""

from __future__ import annotations

import json
import time

import numpy as np

from repro.core.streaming import REASON_ADMISSION, StreamingIdentifier
from repro.eval.reporting import ExperimentResult, ExperimentRow, declares
from repro.eval.robustness import _clean_calibrator, _runtime_budget
from repro.serving import FleetServer

LATENCY_P95_TOLERANCE = 1.25
"""Faulted-run healthy p95 latency must stay within this factor."""

HEALTHY_UNCHANGED_FLOOR = 0.95
"""Minimum fraction of healthy streams with identical decisions."""

POISON_FRACTION = 0.1
"""Fraction of isolation-study streams that get NaN-poisoned."""

WINDOW_FRAMES = 4
"""Frames per serving window — the short-window regime a dense
multi-room deployment lives in (many rooms, short decision windows)."""


def _poison_log(log, fraction: float, seed: int):
    """NaN-poison a fraction of a log's phases (returns a copy)."""
    from dataclasses import replace

    rng = np.random.default_rng(seed)
    phase = np.array(log.phase_rad, dtype=np.float64, copy=True)
    k = max(1, int(round(fraction * len(phase))))
    phase[rng.choice(len(phase), size=k, replace=False)] = np.nan
    return replace(log, phase_rad=phase)


def _stream_workload(raws, n_streams: int):
    """(stream_id, log, calibrator) per stream, cycling the recordings."""
    out = []
    for i in range(n_streams):
        raw = raws[i % len(raws)]
        out.append((f"stream-{i:03d}", raw.log, _clean_calibrator(raw)))
    return out


def _build_fleet(identifier_factory, workload, n_shards: int) -> FleetServer:
    fleet = FleetServer(
        identifier_factory,
        capacity=len(workload),
        n_shards=n_shards,
        windows_per_stream_per_tick=4,
        max_queued_windows=100_000,  # isolation runs never shed
    )
    for sid, _log, calibrator in workload:
        fleet.admit(sid, calibrator=calibrator)
    return fleet


def _serve_all(fleet: FleetServer, workload) -> tuple[dict, list[float]]:
    """Submit every stream's log and drain; returns decisions + timings.

    Returns:
        ``(decisions, per_window_latency_s)`` where the latency samples
        are per-tick elapsed divided by windows served that tick (the
        per-window cost a tenant actually observes).
    """
    for sid, log, _cal in workload:
        fleet.submit(sid, log)
    decisions: dict[str, list] = {}
    samples: list[float] = []
    while True:
        t_tick = time.perf_counter()
        out = fleet.tick()
        dt = time.perf_counter() - t_tick
        n = sum(len(ds) for ds in out.values())
        if n:
            samples.extend([dt / n] * n)
        for sid, ds in out.items():
            decisions.setdefault(sid, []).extend(ds)
        if fleet.total_queued() == 0:
            break
    return decisions, samples


def _decision_keys(decisions) -> dict[str, list[tuple]]:
    return {
        sid: [
            (round(d.t_start_s, 6), d.label, d.abstained, d.reason)
            for d in sorted(ds, key=lambda d: d.t_start_s)
        ]
        for sid, ds in decisions.items()
    }


def isolation_study(
    identifier_factory, raws, n_streams: int, seed: int = 0
) -> dict:
    """Poison 10% of the fleet; measure what the other 90% notice.

    Runs the same workload twice — fault-free, then with
    :data:`POISON_FRACTION` of the streams NaN-poisoned — through
    identical batched fleets, and compares the healthy streams'
    decisions and per-window latency distributions.

    Returns:
        The ``"isolation"`` section of the benchmark document.

    Raises:
        RuntimeError: on any uncaught exception, a changed healthy
            decision beyond :data:`HEALTHY_UNCHANGED_FLOOR`, or a
            healthy p95 latency regression beyond
            :data:`LATENCY_P95_TOLERANCE`.
    """
    workload = _stream_workload(raws, n_streams)
    n_poisoned = max(1, int(round(POISON_FRACTION * n_streams)))
    poisoned_ids = {sid for sid, _l, _c in workload[:n_poisoned]}

    fleet = _build_fleet(identifier_factory, workload, n_shards=2)
    base_decisions, base_samples = _serve_all(fleet, workload)
    fleet.stop()

    faulted_workload = [
        (
            sid,
            _poison_log(log, 0.5, seed + 7) if sid in poisoned_ids else log,
            cal,
        )
        for sid, log, cal in workload
    ]
    uncaught = 0
    fleet = _build_fleet(identifier_factory, faulted_workload, n_shards=2)
    try:
        fault_decisions, fault_samples = _serve_all(fleet, faulted_workload)
    except Exception:  # the fleet contract says: never
        uncaught += 1
        fault_decisions, fault_samples = {}, []
    health = fleet.health()
    fleet.stop()

    base_keys = _decision_keys(base_decisions)
    fault_keys = _decision_keys(fault_decisions)
    healthy = [sid for sid, _l, _c in workload if sid not in poisoned_ids]
    unchanged = [
        sid for sid in healthy if fault_keys.get(sid) == base_keys.get(sid)
    ]
    unchanged_fraction = len(unchanged) / max(len(healthy), 1)

    base_p95 = float(np.percentile(base_samples, 95)) if base_samples else 0.0
    fault_p95 = (
        float(np.percentile(fault_samples, 95)) if fault_samples else 0.0
    )
    p95_ratio = fault_p95 / max(base_p95, 1e-9)

    poisoned_degraded = [
        sid
        for sid in poisoned_ids
        if health.stream_states().get(sid) == "degraded"
    ]

    if uncaught:
        raise RuntimeError(
            "isolation contract violated: the faulted fleet raised"
        )
    if unchanged_fraction < HEALTHY_UNCHANGED_FLOOR:
        raise RuntimeError(
            f"isolation contract violated: only {unchanged_fraction:.0%} of "
            f"healthy streams kept their decisions (floor "
            f"{HEALTHY_UNCHANGED_FLOOR:.0%})"
        )
    if p95_ratio > LATENCY_P95_TOLERANCE:
        raise RuntimeError(
            f"isolation contract violated: healthy p95 per-window latency "
            f"regressed {p95_ratio:.2f}x (tolerance "
            f"{LATENCY_P95_TOLERANCE:.2f}x)"
        )

    return {
        "n_streams": int(n_streams),
        "n_poisoned": n_poisoned,
        "poisoned_streams": sorted(poisoned_ids),
        "uncaught_exceptions": uncaught,
        "healthy_streams": len(healthy),
        "healthy_unchanged": len(unchanged),
        "healthy_unchanged_fraction": unchanged_fraction,
        "poisoned_streams_degraded": sorted(poisoned_degraded),
        "baseline_p95_window_s": base_p95,
        "faulted_p95_window_s": fault_p95,
        "p95_ratio": p95_ratio,
        "p95_tolerance": LATENCY_P95_TOLERANCE,
        "fleet_state_after": health.state,
    }


def controls_study(identifier_factory, raws) -> dict:
    """Exercise admission, shedding, and crash reassignment end to end.

    Returns:
        The ``"controls"`` section of the benchmark document.

    Raises:
        RuntimeError: when any control fails to engage (no rejection,
            no shed under sustained overload, or no reassignment after
            a shard death).
    """
    workload = _stream_workload(raws, 6)

    # Admission: capacity 4, offer 6 -> exactly 2 explicit rejections,
    # and the rejected streams' windows come back REASON_ADMISSION.
    fleet = FleetServer(
        identifier_factory,
        capacity=4,
        n_shards=2,
        max_queued_windows=100_000,
    )
    admitted = rejected = 0
    for sid, _log, cal in workload:
        if fleet.admit(sid, calibrator=cal).admitted:
            admitted += 1
        else:
            rejected += 1
    rejected_receipt = fleet.submit(workload[-1][0], workload[-1][1])
    admission_reasons = {d.reason for d in rejected_receipt.decisions}
    fleet.stop()

    # Shedding: sustained overload drops lowest-priority windows first.
    shed_fleet = FleetServer(
        identifier_factory,
        capacity=2,
        n_shards=1,
        max_queued_windows=4,
        overload_grace_ticks=2,
        windows_per_stream_per_tick=1,
    )
    shed_fleet.admit("vip", priority=10, calibrator=workload[0][2])
    shed_fleet.admit("std", priority=0, calibrator=workload[1][2])
    for _ in range(3):
        shed_fleet.submit("vip", workload[0][1])
        shed_fleet.submit("std", workload[1][1])
    shed_fleet.tick()
    shed_fleet.tick()
    shed_health = shed_fleet.health()
    vip_depth = shed_fleet.workers[0].queue_depths()["vip"]
    std_depth = shed_fleet.workers[0].queue_depths()["std"]
    shed_fleet.stop()

    # Crash recovery: stop a shard; the next tick reassigns its
    # streams and serving resumes.
    crash_fleet = FleetServer(
        identifier_factory,
        capacity=4,
        n_shards=2,
        max_queued_windows=100_000,
    )
    for sid, _log, cal in workload[:4]:
        crash_fleet.admit(sid, calibrator=cal)
    victims = list(crash_fleet.workers[0].stream_ids())
    crash_fleet.workers[0].stop()
    crash_fleet.tick()
    crash_health = crash_fleet.health()
    for sid, log, _cal in workload[:4]:
        crash_fleet.submit(sid, log)
    post_crash = crash_fleet.drain()
    crash_fleet.stop()

    doc = {
        "admission": {
            "capacity": 4,
            "offered": len(workload),
            "admitted": admitted,
            "rejected": rejected,
            "rejected_submit_reasons": sorted(
                r for r in admission_reasons if r
            ),
        },
        "shedding": {
            "shed_windows_total": shed_health.shed_windows_total,
            "vip_depth_after": int(vip_depth),
            "std_depth_after": int(std_depth),
            "lowest_priority_shed_first": bool(vip_depth >= std_depth),
        },
        "crash_recovery": {
            "victim_streams": victims,
            "reassigned_total": crash_health.reassigned_total,
            "served_after_recovery": {
                sid: len(ds) for sid, ds in sorted(post_crash.items())
            },
        },
    }
    if rejected != 2 or admission_reasons != {REASON_ADMISSION}:
        raise RuntimeError("admission control did not engage as configured")
    if shed_health.shed_windows_total == 0 or vip_depth < std_depth:
        raise RuntimeError("load shedding did not engage under overload")
    if crash_health.reassigned_total != len(victims) or not all(
        post_crash.get(sid) for sid, _log, _cal in workload[:4]
    ):
        raise RuntimeError("crash recovery did not reassign and resume")
    return doc


def run_serving_bench(quick: bool = True, seed: int = 0) -> dict:
    """Build the workload, run both studies, assemble the artifact.

    Trains the same compact 4-class pipeline as the other runtime
    benches, then serves it fleet-wide with short
    (:data:`WINDOW_FRAMES`-frame) windows.

    Raises:
        RuntimeError: when any contract is violated — the artifact is
            never written from a run that broke its own claims.
    """
    from dataclasses import replace

    from repro import obs
    from repro.eval.harness import fit_m2ai, runtime_workload

    workload = runtime_workload(quick, seed)
    t_setup = time.perf_counter()
    # A compact edge-serving config: the bench checks the *serving
    # infrastructure* (isolation, controls), so it deploys the
    # smallest member of the model family.
    model_cfg = replace(
        workload.training,
        conv_channels=(8, 12),
        conv_kernels=(5, 3),
        branch_dim=24,
        merge_dim=24,
        lstm_hidden=16,
        lstm_layers=1,
    )
    pipeline = fit_m2ai(workload.train, model_cfg, split_seed=seed)
    setup_s = time.perf_counter() - t_setup

    serve_raws = workload.held_out
    dwell = serve_raws[0].log.meta.dwell_s
    window_s = WINDOW_FRAMES * dwell

    def identifier_factory() -> StreamingIdentifier:
        return StreamingIdentifier(
            pipeline, window_s=window_s, min_reads=8
        )

    isolation_streams = 10 if quick else 20

    obs.enable()
    obs.reset()
    try:
        isolation = isolation_study(
            identifier_factory, serve_raws, isolation_streams, seed=seed
        )
        controls = controls_study(identifier_factory, serve_raws)
        metrics_doc = json.loads(obs.get_registry().to_json())
    finally:
        obs.disable()

    return {
        "schema": "repro.serving.bench.v1",
        "quick": bool(quick),
        "seed": int(seed),
        "setup_s": round(setup_s, 3),
        "epochs": int(model_cfg.epochs),
        "window_s": float(window_s),
        "window_frames": WINDOW_FRAMES,
        "n_serve_recordings": len(serve_raws),
        "isolation": isolation,
        "controls": controls,
        "metrics": metrics_doc,
    }


@declares(_runtime_budget)
def run_ext_serving(quick: bool = True, seed: int = 0) -> ExperimentResult:
    """Fleet serving: isolation evidence and the control surface.

    The extension-study entry point (``ext-serving``): runs
    :func:`run_serving_bench` and reports the isolation outcomes as
    rows.
    """
    doc = run_serving_bench(quick=quick, seed=seed)
    iso = doc["isolation"]
    rows = [
        ExperimentRow(
            "healthy decisions unchanged",
            None,
            iso["healthy_unchanged_fraction"],
            unit="rate",
        ),
        ExperimentRow(
            "healthy p95 latency ratio", None, iso["p95_ratio"], unit="x"
        ),
    ]
    return ExperimentResult(
        experiment_id="ext-serving",
        title="Fleet serving: cross-stream batching with per-stream isolation",
        rows=rows,
        notes=(
            "Many independent read streams sharded across workers, each "
            "stream under its own supervisor; classifiable windows from all "
            "streams of a shard share one predict_proba call per tick. "
            "NaN-poisoning 10% of streams leaves the rest with identical "
            "decisions and bounded latency; admission, shedding, and crash "
            "reassignment counters are exercised live."
        ),
        extras={"fleet state after faults": iso["fleet_state_after"]},
    )


def main(argv: list[str] | None = None) -> int:
    """CLI entry point: run the bench and write the JSON artifact."""
    import argparse
    import sys
    from pathlib import Path

    parser = argparse.ArgumentParser(
        prog="python -m repro.eval.serving",
        description="Fleet serving benchmark: isolation and controls.",
    )
    parser.add_argument(
        "--quick", action="store_true", help="CI-sized workload (smaller, faster)"
    )
    parser.add_argument("--seed", type=int, default=0, help="workload seed")
    parser.add_argument(
        "--out",
        type=Path,
        default=Path("BENCH_ext_serving.json"),
        help="artifact path (default: BENCH_ext_serving.json)",
    )
    args = parser.parse_args(argv)

    doc = run_serving_bench(quick=args.quick, seed=args.seed)
    args.out.write_text(json.dumps(doc, indent=2, sort_keys=False) + "\n")

    out = sys.stdout.write
    out(f"wrote {args.out}\n")
    iso = doc["isolation"]
    out(
        f"isolation: {iso['n_poisoned']}/{iso['n_streams']} poisoned, "
        f"{iso['healthy_unchanged']}/{iso['healthy_streams']} healthy streams "
        f"unchanged, p95 ratio {iso['p95_ratio']:.2f}x\n"
    )
    controls = doc["controls"]
    out(
        f"controls: {controls['admission']['rejected']} rejected at admission, "
        f"{controls['shedding']['shed_windows_total']} windows shed, "
        f"{controls['crash_recovery']['reassigned_total']} streams reassigned\n"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
