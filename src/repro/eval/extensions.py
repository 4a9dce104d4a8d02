"""Extension studies beyond the paper's figures (its Section VII).

The paper closes with two deployment questions it leaves open: how the
model behaves *across* environments (it expects retraining to be
needed) and how coverage scales with antenna hubs.  The first is the
domain-shift workload (:mod:`repro.experiments.domain_shift`); the
hub-coverage driver here answers the second.  Alongside it sit an
engineering ablation the design section calls out and the runtime
studies (robustness, resilience, fleet serving), which check
behaviour, not speed — perfbench (``perfbench/run.py``) is the one
place the repo times itself.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import M2AIConfig
from repro.data.generator import GenerationConfig
from repro.data.workloads import full_training, quick_training
from repro.eval.harness import get_dataset, train_eval_m2ai
from repro.eval.reporting import ExperimentResult, ExperimentRow
from repro.eval.resilience import run_ext_resilience
from repro.eval.serving import run_ext_serving
from repro.eval.robustness import run_ext_robustness


def _training(quick: bool, seed: int) -> M2AIConfig:
    return quick_training(seed) if quick else full_training(seed)


def run_ext_hub_coverage(quick: bool = True, seed: int = 0) -> ExperimentResult:
    """Coverage scaling with antenna hubs (Section VII, second discussion)."""
    del quick, seed  # geometric study; deterministic and fast
    from repro.geometry.room import Rectangle, Room
    from repro.geometry.vec import Vec2
    from repro.hardware.antenna import UniformLinearArray
    from repro.hardware.hub import AntennaHub

    warehouse = Room(bounds=Rectangle(0.0, 0.0, 40.0, 25.0), name="warehouse")
    rng = np.random.default_rng(0)
    points = np.stack(
        [rng.uniform(0, 40.0, 4000), rng.uniform(0, 25.0, 4000)], axis=1
    )

    rows = []
    placements = {
        1: [Vec2(20.0, 0.5)],
        2: [Vec2(10.0, 0.5), Vec2(30.0, 0.5)],
        4: [Vec2(10.0, 0.5), Vec2(30.0, 0.5), Vec2(10.0, 24.5), Vec2(30.0, 24.5)],
    }
    for count, centres in placements.items():
        hub = AntennaHub(
            room=warehouse,
            arrays=tuple(UniformLinearArray(center=c) for c in centres),
        )
        coverage = float(hub.coverage_mask(points, max_range_m=12.0).mean())
        rows.append(
            ExperimentRow(f"{count} array(s)", None, coverage, unit="coverage")
        )
    return ExperimentResult(
        experiment_id="ext-hub",
        title="Area coverage with antenna hubs (Section VII)",
        rows=rows,
        notes=(
            "Paper: a single array covers ~12 m of read range; hubs with "
            "multiple arrays extend coverage.  Fractions are of a "
            "40 m x 25 m warehouse floor."
        ),
    )


def run_ext_augmentation(quick: bool = True, seed: int = 0) -> ExperimentResult:
    """Ablation: training-time augmentation on vs off."""
    from dataclasses import replace

    dataset = get_dataset(
        GenerationConfig(
            samples_per_class=8 if quick else 18,
            duration_s=6.0,
            calibration_s=20.0,
            seed=seed,
        )
    )
    base = _training(quick, seed)
    with_aug, _ = train_eval_m2ai(
        dataset, replace(base, augment=True), split_seed=seed
    )
    without_aug, _ = train_eval_m2ai(
        dataset, replace(base, augment=False), split_seed=seed
    )
    return ExperimentResult(
        experiment_id="ext-augment",
        title="Ablation: training-time augmentation",
        rows=[
            ExperimentRow("augmentation on", None, with_aug.accuracy),
            ExperimentRow("augmentation off", None, without_aug.accuracy),
        ],
        notes="Design-section ablation (DESIGN.md section 5/6).",
    )


EXTENSIONS = {
    "ext-hub": run_ext_hub_coverage,
    "ext-augment": run_ext_augmentation,
    "ext-robustness": run_ext_robustness,
    "ext-resilience": run_ext_resilience,
    "ext-serving": run_ext_serving,
}
"""Extension studies, keyed by id."""
