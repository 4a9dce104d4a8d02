"""Workload presets: quick (CI-sized) and full (paper-scale) configs.

The figure drivers in :mod:`repro.eval` (Fig. 9-17, Table I) and the
augmentation ablation build their corpus and training configs from
these presets, so each mode has exactly one definition.  The quick
presets keep a full ``scripts/run_experiments.py`` pass within minutes
on a laptop.
"""

from __future__ import annotations

from repro.core.config import M2AIConfig
from repro.data.generator import GenerationConfig
from repro.motion.scenarios import SCENARIO_LABELS


def quick_generation(seed: int = 0) -> GenerationConfig:
    """Small dataset: all 12 classes, 12 samples each, 6 s windows."""
    return GenerationConfig(
        samples_per_class=12,
        duration_s=6.0,
        calibration_s=20.0,
        seed=seed,
    )


def full_generation(seed: int = 0) -> GenerationConfig:
    """Paper-scale dataset: 12 classes x 24 samples."""
    return GenerationConfig(
        samples_per_class=24,
        duration_s=6.0,
        calibration_s=20.0,
        seed=seed,
    )


def tiny_generation(seed: int = 0) -> GenerationConfig:
    """Minimal smoke-test dataset: 4 classes, 3 samples each."""
    return GenerationConfig(
        scenario_labels=SCENARIO_LABELS[:4],
        samples_per_class=3,
        duration_s=4.0,
        calibration_s=20.0,
        seed=seed,
    )


def quick_training(seed: int = 0) -> M2AIConfig:
    """Training budget matched to the quick datasets."""
    return M2AIConfig(epochs=40, batch_size=16, seed=seed)


def full_training(seed: int = 0) -> M2AIConfig:
    """Training budget matched to the full datasets."""
    return M2AIConfig(epochs=60, batch_size=16, seed=seed)
