"""Extension studies beyond the paper's figures (its Section VII).

The paper closes with two deployment questions it leaves open: how the
model behaves *across* environments (it expects retraining to be
needed) and how coverage scales with antenna hubs.  These drivers
quantify both on the simulator, plus two engineering ablations the
design section calls out.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.config import M2AIConfig
from repro.core.pipeline import M2AIPipeline
from repro.data.generator import GenerationConfig, vary
from repro.eval.harness import epoch_budget, get_dataset, train_eval_m2ai
from repro.eval.reporting import ExperimentResult, ExperimentRow
from repro.eval.resilience import run_ext_resilience
from repro.eval.serving import run_ext_serving
from repro.eval.robustness import run_ext_robustness


def _training(quick: bool, seed: int, floor: int = 0) -> M2AIConfig:
    return M2AIConfig(
        epochs=epoch_budget(40 if quick else 60, floor=floor), batch_size=16, seed=seed
    )


def _cfg(quick: bool, seed: int, **overrides) -> GenerationConfig:
    base = GenerationConfig(
        samples_per_class=8 if quick else 18,
        duration_s=6.0,
        calibration_s=20.0,
        seed=seed,
    )
    return vary(base, **overrides)


def run_ext_transfer(quick: bool = True, seed: int = 0) -> ExperimentResult:
    """Cross-environment transfer (Section VII, first discussion).

    Train in the laboratory, evaluate (a) in-domain, (b) zero-shot in
    the hall, (c) in the hall after a short fine-tuning pass on a
    handful of hall samples.  The paper predicts (b) << (a) — "the
    model may need to be re-trained for different settings" — and (c)
    recovering most of the gap.
    """
    lab = get_dataset(_cfg(quick, seed, environment="laboratory"))
    hall = get_dataset(_cfg(quick, seed, environment="hall"))
    # Transfer effects only show once the source model is competent;
    # this driver keeps a training floor even under the benchmark
    # suite's trimmed budget (it is only two fits).
    training = _training(quick, seed, floor=30)

    rng = np.random.default_rng(seed)
    lab_train, lab_test = lab.split(0.2, rng)
    pipeline = M2AIPipeline(training).fit(lab_train, val=lab_test)
    in_domain = pipeline.evaluate(lab_test).accuracy

    hall_adapt, hall_test = hall.split(0.5, np.random.default_rng(seed + 1))
    zero_shot = pipeline.evaluate(hall_test).accuracy
    pipeline.fine_tune(hall_adapt, epochs=15 if quick else 25)
    adapted = pipeline.evaluate(hall_test).accuracy

    return ExperimentResult(
        experiment_id="ext-transfer",
        title="Cross-environment transfer (Section VII)",
        rows=[
            ExperimentRow("lab -> lab (in-domain)", None, in_domain),
            ExperimentRow("lab -> hall (zero-shot)", None, zero_shot),
            ExperimentRow("lab -> hall (fine-tuned)", None, adapted),
        ],
        notes=(
            "Paper's expectation: the trained model is environment-"
            "specific, so zero-shot transfer degrades and a short "
            "retraining pass recovers accuracy. "
            f"Measured: {in_domain:.2f} -> {zero_shot:.2f} -> {adapted:.2f}."
        ),
    )


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

    dataset = get_dataset(_cfg(quick, seed))
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


def run_ext_realtime(quick: bool = True, seed: int = 0) -> ExperimentResult:
    """Serving latency: featurise + classify one observation window.

    The paper claims real-time identification; here we measure the
    full per-window cost on CPU — preprocessing (calibration + MUSIC +
    periodogram) and network inference — against the 6 s window it
    must keep up with.
    """
    from repro.data.generator import SyntheticDatasetGenerator
    from repro.eval.harness import get_raw_samples

    cfg = _cfg(quick, seed)
    raw = get_raw_samples(cfg)[:8]
    generator = SyntheticDatasetGenerator(cfg)
    dataset = generator.featurize(raw)
    training = M2AIConfig(epochs=10, batch_size=8, seed=seed)
    pipeline = M2AIPipeline(training).fit(dataset)

    t0 = time.perf_counter()
    for sample in raw:
        generator.featurize([sample])
    featurize_s = (time.perf_counter() - t0) / len(raw)

    single = dataset.subset(np.array([0]))
    t0 = time.perf_counter()
    for _ in range(20):
        pipeline.predict(single)
    infer_s = (time.perf_counter() - t0) / 20.0

    window = cfg.duration_s
    rows = [
        ExperimentRow("featurise one window (s)", None, featurize_s, unit="s"),
        ExperimentRow("network inference (s)", None, infer_s, unit="s"),
        ExperimentRow(
            "real-time margin (window / total)",
            None,
            window / max(featurize_s + infer_s, 1e-9),
            unit="x",
        ),
    ]
    return ExperimentResult(
        experiment_id="ext-realtime",
        title="Serving latency per observation window",
        rows=rows,
        notes=f"Window length {window:.0f} s; margin > 1 means real-time on CPU.",
    )


def run_ext_batching(quick: bool = True, seed: int = 0) -> ExperimentResult:
    """Per-dwell vs pooled calls of the same DSP kernels.

    Every dwell can go through the MUSIC and periodogram kernels on its
    own (``music_pseudospectrum`` / ``spatial_periodogram``, each a
    batch of one) or pooled with the rest of its window's dwells into
    one stacked call (``music_spectra_batch`` /
    ``spatial_periodogram_batch``), which is what featurisation runs.
    This driver runs both on identical simulated dwells, checks the
    spectra agree to ``rtol=1e-12`` (the pooling contract), and reports
    the cost and speedup of each stage.

    Raises:
        AssertionError: when a pooled spectrum deviates from its
            per-dwell call beyond ``rtol=1e-12``.
    """
    from repro.dsp.correlation import spatial_covariance_stack
    from repro.dsp.snapshots import tag_snapshot_set
    from repro.dsp.music import (
        clear_steering_cache,
        music_pseudospectrum,
        music_spectra_batch,
    )
    from repro.dsp.periodogram import (
        spatial_periodogram,
        spatial_periodogram_batch,
    )
    from repro.eval.harness import get_raw_samples

    raw = get_raw_samples(_cfg(quick, seed))[: 4 if quick else 8]
    z_rows, valid_rows, wavelengths = [], [], []
    spacing = raw[0].log.meta.spacing_m
    for sample in raw:
        psi = sample.psi()
        for snaps in tag_snapshot_set(sample.log, psi, sample.n_frames):
            for f in range(snaps.n_frames):
                if snaps.frame_valid(f):
                    z_rows.append(snaps.z[f])
                    valid_rows.append(snaps.valid[f])
                    wavelengths.append(float(snaps.wavelength_m[f]))
    z = np.stack(z_rows)
    valid = np.stack(valid_rows)
    wl = np.asarray(wavelengths)
    n_dwells = z.shape[0]
    covs = spatial_covariance_stack(z, valid)
    repeat = 3 if quick else 10

    clear_steering_cache()
    t0 = time.perf_counter()
    for _ in range(repeat):
        per_dwell_music = [
            music_pseudospectrum(covs[w], spacing, wl[w]).spectrum
            for w in range(n_dwells)
        ]
    music_per_dwell_ms = (time.perf_counter() - t0) * 1000.0 / repeat

    clear_steering_cache()
    t0 = time.perf_counter()
    for _ in range(repeat):
        pooled_music, _dims, _eigs = music_spectra_batch(covs, spacing, wl)
    music_pooled_ms = (time.perf_counter() - t0) * 1000.0 / repeat
    np.testing.assert_allclose(
        pooled_music, np.stack(per_dwell_music), rtol=1e-12,
        err_msg="pooled MUSIC deviates from the per-dwell calls",
    )

    t0 = time.perf_counter()
    for _ in range(repeat):
        per_dwell_period = np.stack(
            [spatial_periodogram(z[w], valid[w]) for w in range(n_dwells)]
        )
    period_per_dwell_ms = (time.perf_counter() - t0) * 1000.0 / repeat

    t0 = time.perf_counter()
    for _ in range(repeat):
        pooled_period = spatial_periodogram_batch(z, valid)
    period_pooled_ms = (time.perf_counter() - t0) * 1000.0 / repeat
    np.testing.assert_allclose(
        pooled_period, per_dwell_period, rtol=1e-12,
        err_msg="pooled periodogram deviates from the per-dwell calls",
    )

    rows = [
        ExperimentRow("dwells in batch", None, float(n_dwells), unit="dwells"),
        ExperimentRow("MUSIC per-dwell calls", None, music_per_dwell_ms, unit="ms"),
        ExperimentRow("MUSIC pooled", None, music_pooled_ms, unit="ms"),
        ExperimentRow(
            "MUSIC speedup",
            None,
            music_per_dwell_ms / max(music_pooled_ms, 1e-9),
            unit="x",
        ),
        ExperimentRow(
            "periodogram per-dwell calls", None, period_per_dwell_ms, unit="ms"
        ),
        ExperimentRow("periodogram pooled", None, period_pooled_ms, unit="ms"),
        ExperimentRow(
            "periodogram speedup",
            None,
            period_per_dwell_ms / max(period_pooled_ms, 1e-9),
            unit="x",
        ),
    ]
    return ExperimentResult(
        experiment_id="ext-batching",
        title="Pooled vs per-dwell DSP kernel calls",
        rows=rows,
        notes=(
            f"{n_dwells} real dwells from {len(raw)} simulated windows; "
            "pooled spectra verified bit-close (rtol 1e-12) against the "
            "per-dwell calls before timing is reported."
        ),
    )


EXTENSIONS = {
    "ext-transfer": run_ext_transfer,
    "ext-hub": run_ext_hub_coverage,
    "ext-augment": run_ext_augmentation,
    "ext-realtime": run_ext_realtime,
    "ext-robustness": run_ext_robustness,
    "ext-batching": run_ext_batching,
    "ext-resilience": run_ext_resilience,
    "ext-serving": run_ext_serving,
}
"""Extension studies, keyed by id."""
