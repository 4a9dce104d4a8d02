"""Synthetic dataset generation: the paper's data collection, simulated.

Each sample reproduces the full experimental protocol of Section VI-A:

1. volunteers with randomised physique take positions 3-6 m from the
   reader in the chosen room;
2. a stationary *calibration bootstrap* inventory is collected (the
   paper's ~10 s; we default to one full 20 s hop cycle so every
   channel is observed — shorter bootstraps exercise the calibrator's
   linear-fit extrapolation);
3. the scripted activity is performed and inventoried;
4. the read log is calibrated and featurised into spectrum frames.

Keeping the *raw* logs around lets one simulation feed every
preprocessing ablation (Fig. 10 and Fig. 16) without re-rendering.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.dataset import ActivityDataset
from repro.dsp.calibration import PhaseCalibrator, uncalibrated
from repro.dsp.features import M2AIFeaturizer
from repro.dsp.frames import FeatureFrames
from repro.geometry.room import Room, make_hall, make_laboratory
from repro.geometry.vec import Vec2
from repro.hardware.antenna import DEFAULT_SPACING_M, UniformLinearArray
from repro.hardware.llrp import ReadLog
from repro.hardware.reader import Reader, ReaderConfig
from repro.motion.scenarios import SCENARIO_LABELS, SCENARIOS, build_instance

ENVIRONMENTS = ("laboratory", "hall")


@dataclass(frozen=True)
class GenerationConfig:
    """Knobs of one dataset generation run.

    Attributes:
        environment: ``"laboratory"`` (high multipath) or ``"hall"``.
        scenario_labels: activity classes to render.
        samples_per_class: repetitions per class.
        n_persons: people per scene (None = each scenario's default, 2).
        tags_per_person: 1-3 tags at hand/arm/shoulder.
        n_antennas: reader array size (2-4 on a real R420).
        duration_s: activity observation window.
        calibration_s: stationary bootstrap length.
        distance_m: fixed reader-person distance, or None for the
            paper's random 3-6 m placement.
        seed: master randomness seed.
    """

    environment: str = "laboratory"
    scenario_labels: tuple[str, ...] = SCENARIO_LABELS
    samples_per_class: int = 10
    n_persons: int | None = None
    tags_per_person: int = 3
    n_antennas: int = 4
    duration_s: float = 8.0
    calibration_s: float = 20.0
    distance_m: float | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.environment not in ENVIRONMENTS:
            raise ValueError(f"environment must be one of {ENVIRONMENTS}")
        unknown = [label for label in self.scenario_labels if label not in SCENARIOS]
        if unknown:
            raise ValueError(f"unknown scenario labels: {unknown}")
        if self.samples_per_class < 1:
            raise ValueError("samples_per_class must be >= 1")
        if not 2 <= self.n_antennas:
            raise ValueError("need at least 2 antennas for AoA")


@dataclass
class RawSample:
    """One simulated recording, before featurisation."""

    label: str
    log: ReadLog
    calibration_log: ReadLog
    n_frames: int
    calibrator: PhaseCalibrator | None = field(default=None, repr=False)

    def psi(self, use_calibration: bool = True) -> np.ndarray:
        """Doubled phases, calibrated (default) or raw (Fig. 10)."""
        if not use_calibration:
            return uncalibrated(self.log)
        if self.calibrator is None:
            self.calibrator = PhaseCalibrator.fit(self.calibration_log)
        return self.calibrator.calibrate(self.log)


class SyntheticDatasetGenerator:
    """Renders activity scenarios into labelled datasets."""

    def __init__(self, config: GenerationConfig | None = None) -> None:
        self.config = config or GenerationConfig()
        self._rng = np.random.default_rng(self.config.seed)

    def make_room(self) -> Room:
        """The configured environment."""
        if self.config.environment == "laboratory":
            return make_laboratory()
        return make_hall()

    def make_array(self, room: Room) -> UniformLinearArray:
        """The reader array, wall-mounted at 1.25 m like the paper."""
        centre = Vec2(room.bounds.width / 2.0, room.bounds.y0 + 0.3)
        return UniformLinearArray(
            center=centre,
            n_elements=self.config.n_antennas,
            spacing=DEFAULT_SPACING_M,
        )

    def generate_raw(self) -> list[RawSample]:
        """Simulate every (class, repetition) recording."""
        cfg = self.config
        room = self.make_room()
        array = self.make_array(room)
        samples: list[RawSample] = []
        for label in cfg.scenario_labels:
            scenario = SCENARIOS[label]
            for _rep in range(cfg.samples_per_class):
                seed = int(self._rng.integers(2**31))
                samples.append(
                    self._render_one(scenario, room, array, seed)
                )
        return samples

    def featurize(
        self,
        raw_samples: list[RawSample],
        featurizer: M2AIFeaturizer | None = None,
        use_calibration: bool = True,
    ) -> ActivityDataset:
        """Turn raw recordings into an :class:`ActivityDataset`."""
        featurizer = featurizer or M2AIFeaturizer()
        frames: list[FeatureFrames] = []
        for raw in raw_samples:
            psi = raw.psi(use_calibration)
            frames.append(
                featurizer.transform(
                    raw.log, psi, n_frames=raw.n_frames, label=raw.label
                )
            )
        return ActivityDataset(samples=frames)

    def generate(
        self, featurizer: M2AIFeaturizer | None = None, use_calibration: bool = True
    ) -> ActivityDataset:
        """Convenience: :meth:`generate_raw` then :meth:`featurize`."""
        return self.featurize(self.generate_raw(), featurizer, use_calibration)

    # ------------------------------------------------------------------

    def _render_one(self, scenario, room: Room, array, seed: int) -> RawSample:
        cfg = self.config
        reader = Reader(ReaderConfig(array=array), room, seed=seed)
        rng = np.random.default_rng(seed ^ 0x5EED)
        instance = build_instance(
            scenario,
            array,
            room,
            duration_s=cfg.duration_s,
            slot_s=reader.config.slot_s,
            rng=rng,
            n_persons=cfg.n_persons,
            tags_per_person=cfg.tags_per_person,
            distance_m=cfg.distance_m,
        )
        cal_log = reader.inventory(instance.scene.frozen(), cfg.calibration_s)
        log = reader.inventory(instance.scene, cfg.duration_s)
        n_frames = int(round(cfg.duration_s / reader.hopper.dwell_s))
        return RawSample(
            label=scenario.label,
            log=log,
            calibration_log=cal_log,
            n_frames=max(n_frames, 1),
        )


def vary(config: GenerationConfig, **overrides) -> GenerationConfig:
    """A copy of ``config`` with fields replaced (sweep helper)."""
    return replace(config, **overrides)
