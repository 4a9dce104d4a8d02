"""Domain-shift eval: train in one environment, test in another.

The paper trains and tests in the same two rooms; production means
unseen rooms daily.  This workload quantifies the gap in both transfer
directions (laboratory -> hall and hall -> laboratory) with three arms
per direction:

* **same-env** — held-out accuracy in the training room (the ceiling);
* **cross-env** — zero-shot accuracy in the *other* room;
* **k-shot adapted** — cross-env accuracy after a short
  :meth:`~repro.core.pipeline.M2AIPipeline.fine_tune` pass on ``k``
  windows per class from the target room (the paper's Section VII
  "re-train for different settings" story, made cheap).

Cells sweep seeds in parallel through
:func:`~repro.experiments.runner.run_batch` and land in the durable
results store, so a killed sweep resumes instead of restarting.  Run
as a module to produce the benchmark artifact::

    PYTHONPATH=src python -m repro.experiments.domain_shift --quick

which writes ``BENCH_ext_domain_shift.json``.
"""

from __future__ import annotations

import json
import time

import numpy as np

from repro.core.config import M2AIConfig
from repro.core.pipeline import M2AIPipeline
from repro.data.generator import GenerationConfig, vary
from repro.eval.harness import get_dataset
from repro.eval.reporting import ExperimentResult, ExperimentRow
from repro.experiments.metrics import aggregate_records
from repro.experiments.runner import register_runner, run_batch
from repro.experiments.spec import make_spec
from repro.experiments.store import ResultsStore, atomic_write_text

__all__ = [
    "EXPERIMENT_ID",
    "DIRECTIONS",
    "k_shot_subset",
    "run_domain_shift",
    "run_domain_shift_bench",
]

EXPERIMENT_ID = "ext-domain-shift"
"""Registry id of the per-cell driver."""

DIRECTIONS = (("laboratory", "hall"), ("hall", "laboratory"))
"""Both transfer directions the bench sweeps."""

ROW_SAME = "same-env"
ROW_CROSS = "cross-env"
ROW_ADAPTED = "k-shot adapted"

BENCH_SCHEMA = 1


def _gen_config(quick: bool, seed: int, **overrides) -> GenerationConfig:
    base = GenerationConfig(
        samples_per_class=6 if quick else 16,
        duration_s=6.0,
        calibration_s=20.0,
        seed=seed,
    )
    return vary(base, **overrides)


def _train_config(quick: bool, seed: int) -> M2AIConfig:
    return M2AIConfig(epochs=30 if quick else 50, batch_size=16, seed=seed)


def k_shot_subset(dataset, k: int, seed: int):
    """``k`` seeded samples per class (all of them when a class has < k).

    This is the adaptation budget of the k-shot arm: the windows a
    deployment could plausibly label in a new room on day one.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    rng = np.random.default_rng(seed)
    labels = np.asarray(dataset.labels)
    chosen: list[int] = []
    for label in sorted(set(dataset.labels)):
        indices = np.flatnonzero(labels == label)
        take = min(k, indices.size)
        chosen.extend(rng.choice(indices, size=take, replace=False).tolist())
    return dataset.subset(np.sort(np.asarray(chosen)))


def run_domain_shift(
    quick: bool = True,
    seed: int = 0,
    source: str = "laboratory",
    target: str = "hall",
    k_shot: "int | None" = None,
) -> ExperimentResult:
    """One transfer cell: train in ``source``, evaluate in ``target``.

    Raises:
        ValueError: ``source`` and ``target`` name the same environment.
    """
    if source == target:
        raise ValueError("source and target must be different environments")
    k = k_shot if k_shot is not None else (2 if quick else 4)

    source_ds = get_dataset(_gen_config(quick, seed, environment=source))
    target_ds = get_dataset(_gen_config(quick, seed, environment=target))
    training = _train_config(quick, seed)

    src_train, src_test = source_ds.split(0.2, np.random.default_rng(seed))
    pipeline = M2AIPipeline(training).fit(src_train, val=src_test)
    same_env = pipeline.evaluate(src_test).accuracy

    adapt_pool, tgt_test = target_ds.split(0.5, np.random.default_rng(seed + 1))
    cross_env = pipeline.evaluate(tgt_test).accuracy

    shots = k_shot_subset(adapt_pool, k, seed + 2)
    pipeline.fine_tune(shots, epochs=15 if quick else 25)
    adapted = pipeline.evaluate(tgt_test).accuracy

    gap = same_env - cross_env
    recovered = adapted - cross_env
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=f"Domain shift: train {source}, test {target}",
        rows=[
            ExperimentRow(ROW_SAME, None, same_env),
            ExperimentRow(ROW_CROSS, None, cross_env),
            ExperimentRow(ROW_ADAPTED, None, adapted),
            ExperimentRow("k (windows/class)", None, float(k), unit="n"),
        ],
        notes=(
            f"Unseen-room generalization, {source} -> {target}: zero-shot "
            f"transfer moves accuracy by {-gap * 100:+.0f} points from the "
            f"in-room ceiling; fine-tuning on {k} windows/class from the "
            f"target room moves it back {recovered * 100:+.0f} points "
            f"({len(shots)} adaptation windows). The paper predicts the "
            "model is environment-specific and needs a short retrain "
            "(Section VII)."
        ),
    )


register_runner(EXPERIMENT_ID, run_domain_shift)


def _direction_summary(aggregates, source: str, target: str) -> dict:
    """Bench rows for one direction from its aggregate rows.

    ``gap_recovered_frac`` is None unless the transfer gap exceeds the
    summed seed std of the same-env and cross-env arms.

    Raises:
        ValueError: a required arm is missing from the records.
    """
    by_name = {}
    for row in aggregates:
        by_name[row.name] = row
    stats = {}
    for arm, name in (
        ("same_env", ROW_SAME),
        ("cross_env", ROW_CROSS),
        ("k_shot_adapted", ROW_ADAPTED),
    ):
        row = by_name.get(name)
        if row is None:
            raise ValueError(
                f"direction {source}->{target} is missing the {name!r} arm"
            )
        stats[arm] = {
            "mean": row.mean,
            "std": row.std,
            "min": row.low,
            "max": row.high,
            "seeds": list(row.seeds),
        }
    gap = stats["same_env"]["mean"] - stats["cross_env"]["mean"]
    recovered = stats["k_shot_adapted"]["mean"] - stats["cross_env"]["mean"]
    stats["transfer_gap"] = gap
    # A ratio over a gap inside the arms' seed spread is noise, not a
    # recovery fraction: report it only once the gap clears that spread.
    noise = stats["same_env"]["std"] + stats["cross_env"]["std"]
    out_of_noise = abs(gap) > max(noise, 1e-9)
    stats["gap_recovered_frac"] = recovered / gap if out_of_noise else None
    return stats


def run_domain_shift_bench(
    quick: bool = True,
    seeds: tuple[int, ...] = (0, 1),
    workers: int = 2,
    store: "ResultsStore | None" = None,
    force: bool = False,
    k_shot: "int | None" = None,
    on_event=None,
) -> dict:
    """Sweep both directions x ``seeds`` and assemble the bench document.

    Completed cells are served from the durable store (kill the sweep,
    rerun, and only missing cells execute); the returned document has
    one entry per direction with same-env / cross-env / k-shot-adapted
    statistics across seeds.
    """
    store = store if store is not None else ResultsStore()
    mode = "quick" if quick else "full"
    specs = []
    for source, target in DIRECTIONS:
        for seed in seeds:
            overrides: dict[str, object] = {"source": source, "target": target}
            if k_shot is not None:
                overrides["k_shot"] = k_shot
            specs.append(
                make_spec(EXPERIMENT_ID, mode, seed, gen_overrides=overrides)
            )
    t0 = time.monotonic()
    records = run_batch(
        specs, store, workers=workers, force=force, on_event=on_event
    )
    elapsed = time.monotonic() - t0

    directions = {}
    for source, target in DIRECTIONS:
        cell_records = [
            r
            for r in records
            if dict(r.spec.gen_overrides).get("source") == source
        ]
        directions[f"{source}->{target}"] = _direction_summary(
            aggregate_records(cell_records), source, target
        )
    return {
        "bench": "ext_domain_shift",
        "schema": BENCH_SCHEMA,
        "mode": mode,
        "seeds": list(seeds),
        "workers": workers,
        "directions": directions,
        "cells": [record.to_payload() for record in records],
        "elapsed_s": elapsed,
    }


def main(argv: "list[str] | None" = None) -> int:
    """CLI entry point: run the sweep and write the JSON artifact."""
    import argparse
    import sys
    from pathlib import Path

    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.domain_shift",
        description="Cross-environment generalization sweep.",
    )
    parser.add_argument(
        "--quick", action="store_true", help="CI-sized workload (smaller, faster)"
    )
    parser.add_argument(
        "--seeds", type=int, default=None, help="number of seeds (default 2/3)"
    )
    parser.add_argument(
        "--workers", type=int, default=2, help="parallel worker processes"
    )
    parser.add_argument(
        "--k-shot", type=int, default=None, help="adaptation windows per class"
    )
    parser.add_argument(
        "--force", action="store_true", help="rerun cells already in the store"
    )
    parser.add_argument(
        "--store", type=Path, default=None, help="results store directory"
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=Path("BENCH_ext_domain_shift.json"),
        help="artifact path (default: BENCH_ext_domain_shift.json)",
    )
    args = parser.parse_args(argv)

    n_seeds = args.seeds if args.seeds is not None else (2 if args.quick else 3)
    out = sys.stdout.write

    def on_event(kind, spec, detail):
        tag = {"skip": "skip", "start": "run ", "done": "done", "failed": "FAIL"}
        note = f" ({detail})" if detail else ""
        out(f"[{tag[kind]}] {spec.key}{note}\n")

    doc = run_domain_shift_bench(
        quick=args.quick,
        seeds=tuple(range(n_seeds)),
        workers=args.workers,
        store=ResultsStore(args.store) if args.store else None,
        force=args.force,
        k_shot=args.k_shot,
        on_event=on_event,
    )
    atomic_write_text(args.out, json.dumps(doc, indent=2, sort_keys=False) + "\n")

    out(f"wrote {args.out}\n")
    for direction, stats in doc["directions"].items():
        out(
            f"{direction:<24} same-env {stats['same_env']['mean']:.3f}  "
            f"cross-env {stats['cross_env']['mean']:.3f}  "
            f"k-shot {stats['k_shot_adapted']['mean']:.3f}  "
            f"(gap {stats['transfer_gap'] * 100:+.0f} pts)\n"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
