"""Experiment drivers: one function per paper table/figure.

Every driver returns an :class:`~repro.eval.reporting.ExperimentResult`
whose rows pair the paper's reported value with ours.  ``quick=True``
(the default) sizes the dataset and the training budget for minutes of
wall-clock; ``quick=False`` runs at the scale recorded in
EXPERIMENTS.md.

Absolute accuracies are not expected to match a hardware testbed; the
claims under test are the *shapes*: who wins, by roughly what factor,
and which way each sweep trends.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import M2AIConfig
from repro.data.generator import GenerationConfig, vary
from repro.data.workloads import (
    full_generation,
    full_training,
    quick_generation,
    quick_training,
)
from repro.dsp.features import (
    FftOnlyFeaturizer,
    M2AIFeaturizer,
    MusicOnlyFeaturizer,
    PhaseFeaturizer,
    RssiFeaturizer,
)
from repro.eval.harness import (
    eval_baselines,
    get_dataset,
    get_raw_samples,
    train_eval_m2ai,
)
from repro.eval.reporting import ExperimentResult, ExperimentRow


def _gen_config(quick: bool, seed: int, **overrides) -> GenerationConfig:
    base = quick_generation(seed) if quick else full_generation(seed)
    return vary(base, **overrides)


def _train_config(quick: bool, seed: int) -> M2AIConfig:
    return quick_training(seed) if quick else full_training(seed)


def _sweep_config(quick: bool, seed: int, **overrides) -> GenerationConfig:
    """Smaller per-setting datasets for the multi-dataset sweeps."""
    base = GenerationConfig(
        samples_per_class=6 if quick else 18,
        duration_s=6.0,
        calibration_s=20.0,
        seed=seed,
    )
    return vary(base, **overrides)


# ---------------------------------------------------------------------------
# Fig. 9 / Table I / Fig. 10 — the headline comparison (shared corpus)


def run_fig09(quick: bool = True, seed: int = 0) -> ExperimentResult:
    """Fig. 9: M2AI vs ten conventional classifiers.

    The headline comparison runs on a larger corpus than the ablation
    experiments: the deep network's advantage over the high-bias
    baselines is data-dependent (the paper trained on a full hardware
    study), and at very small corpus sizes all methods converge to
    similar mediocrity.
    """
    cfg = _gen_config(quick, seed, samples_per_class=20 if quick else 24)
    dataset = get_dataset(cfg)
    m2ai, _pipe = train_eval_m2ai(dataset, _train_config(quick, seed), split_seed=seed)
    scores = eval_baselines(dataset, split_seed=seed)
    paper = {
        "M2AI": (0.97, False),
        "Linear SVM": (0.70, True),
        "RBF SVM": (0.65, True),
        "Nearest Neighbors": (0.60, True),
        "Gaussian Process": (0.55, True),
        "Random Forest": (0.55, True),
        "Adaptive Boosting": (0.50, True),
        "Decision Tree": (0.45, True),
        "Bayesian Net": (0.45, True),
        "QDA": (0.40, True),
        "HMM": (None, False),
    }
    rows = [ExperimentRow("M2AI", 0.97, m2ai.accuracy)]
    for name, score in scores.items():
        value, approx = paper.get(name, (None, False))
        rows.append(ExperimentRow(name, value, score, approx=approx))
    best_baseline = max(scores.values())
    gain = m2ai.accuracy - best_baseline
    return ExperimentResult(
        experiment_id="fig09",
        title="Overall activity identification performance",
        rows=rows,
        notes=(
            f"M2AI beats the best conventional baseline by "
            f"{gain * 100:+.0f} points (paper: +27 points over linear SVM). "
            f"Shape check: M2AI first = {m2ai.accuracy > best_baseline}."
        ),
    )


def run_table1(quick: bool = True, seed: int = 0) -> ExperimentResult:
    """Table I: per-class confusion of the trained M2AI."""
    cfg = _gen_config(quick, seed, samples_per_class=20 if quick else 24)
    dataset = get_dataset(cfg)
    result, _pipe = train_eval_m2ai(dataset, _train_config(quick, seed), split_seed=seed)
    diag = result.confusion.diagonal_accuracy()
    rows = [
        ExperimentRow("mean per-class accuracy", 0.966, float(diag.mean())),
        ExperimentRow("min per-class accuracy", 0.93, float(diag.min())),
    ]
    return ExperimentResult(
        experiment_id="table1",
        title="Confusion matrix of activity identification",
        rows=rows,
        notes="Paper: every diagonal entry is at least 93%.",
        extras={"confusion matrix": result.confusion.render()},
    )


def run_fig10(quick: bool = True, seed: int = 0) -> ExperimentResult:
    """Fig. 10: impact of phase calibration (same recordings, re-featurised).

    The "without calibration" arm feeds the reader's *raw* phase output
    (hopping offsets and pi ambiguity intact) through the identical
    decoupling + learning stack.  Runs on the Fig. 9 corpus so the
    calibrated arm is the same trained model the headline reports; note
    the paper's own no-calibration number (52%) is weak-feature level,
    not chance — RSSI and motion dynamics survive phase scrambling.
    """
    cfg = _gen_config(quick, seed, samples_per_class=20 if quick else 24)
    with_cal = get_dataset(cfg, use_calibration=True)
    without_cal = get_dataset(cfg, use_calibration=False)
    acc_cal, _ = train_eval_m2ai(with_cal, _train_config(quick, seed), split_seed=seed)
    acc_raw, _ = train_eval_m2ai(without_cal, _train_config(quick, seed), split_seed=seed)
    return ExperimentResult(
        experiment_id="fig10",
        title="Impact of phase calibration",
        rows=[
            ExperimentRow("with calibration", 0.97, acc_cal.accuracy),
            ExperimentRow("without calibration", 0.52, acc_raw.accuracy),
        ],
        notes=(
            "Measured gap "
            f"{(acc_cal.accuracy - acc_raw.accuracy) * 100:+.0f} points "
            "(paper: +45 points).  Caveat: this end-task contrast is "
            "data-scale dependent — RSSI/amplitude features survive phase "
            "scrambling, and at simulated corpus sizes they already reach "
            "the calibrated model's ceiling, so the gap the paper sees at "
            "hardware scale (97% vs 52%) compresses here.  The signal-level "
            "effect itself is unambiguous: calibration collapses hop-induced "
            "phase scatter ~10x and restores AoA (fig03, "
            "examples/phase_calibration_demo.py, tests/dsp/test_calibration)."
        ),
    )


# ---------------------------------------------------------------------------
# Fig. 11-15 — parameter sweeps


def run_fig11(quick: bool = True, seed: int = 0) -> ExperimentResult:
    """Fig. 11: one, two, three simultaneous people.

    Scenario labels whose *first* person repeats another scenario's
    primitive (A05 duplicates A01's wave, A06 duplicates A03's walk)
    are excluded: with a single person those class pairs are literally
    identical and the 1-person arm would be unwinnable by construction.
    All three arms use the same 10-class set for comparability.
    """
    from repro.motion.scenarios import SCENARIO_LABELS

    labels = tuple(l for l in SCENARIO_LABELS if l not in ("A05", "A06"))
    paper = {1: 0.97, 2: 0.90, 3: 0.80}
    rows = []
    for n_persons in (1, 2, 3):
        cfg = _sweep_config(quick, seed, n_persons=n_persons, scenario_labels=labels)
        dataset = get_dataset(cfg)
        result, _ = train_eval_m2ai(dataset, _train_config(quick, seed), split_seed=seed)
        rows.append(
            ExperimentRow(
                f"{n_persons} object(s)", paper[n_persons], result.accuracy, approx=n_persons != 3
            )
        )
    return ExperimentResult(
        experiment_id="fig11",
        title="Impact of the number of objects",
        rows=rows,
        notes=(
            "Paper: accuracy decays gracefully and stays close to 80% with "
            "three people acting simultaneously."
        ),
    )


def run_fig12(quick: bool = True, seed: int = 0) -> ExperimentResult:
    """Fig. 12: laboratory (high multipath) vs hall (low multipath)."""
    rows = []
    paper = {"laboratory": 0.97, "hall": 0.95}
    for env in ("laboratory", "hall"):
        cfg = _sweep_config(quick, seed, environment=env)
        dataset = get_dataset(cfg)
        result, _ = train_eval_m2ai(dataset, _train_config(quick, seed), split_seed=seed)
        rows.append(ExperimentRow(env, paper[env], result.accuracy))
    gap = abs(rows[0].measured - rows[1].measured)
    return ExperimentResult(
        experiment_id="fig12",
        title="Impact of the environment",
        rows=rows,
        notes=(
            f"Paper: the two environments perform within a couple of points "
            f"of each other; measured gap {gap * 100:.0f} points."
        ),
    )


def run_fig13(quick: bool = True, seed: int = 0) -> ExperimentResult:
    """Fig. 13: reader-to-person distance 1-4 m."""
    rows = []
    for distance in (1.0, 2.0, 3.0, 4.0):
        cfg = _sweep_config(quick, seed, distance_m=distance)
        dataset = get_dataset(cfg)
        result, _ = train_eval_m2ai(dataset, _train_config(quick, seed), split_seed=seed)
        rows.append(ExperimentRow(f"{distance:.0f} m", None, result.accuracy))
    values = [r.measured for r in rows]
    spread = max(values) - min(values)
    corr = float(np.corrcoef(np.arange(len(values)), values)[0, 1])
    return ExperimentResult(
        experiment_id="fig13",
        title="Impact of distance",
        rows=rows,
        notes=(
            "Paper: no clear correlation between distance and accuracy. "
            f"Measured spread {spread * 100:.0f} points, distance-accuracy "
            f"correlation {corr:+.2f}."
        ),
    )


def run_fig14(quick: bool = True, seed: int = 0) -> ExperimentResult:
    """Fig. 14: 2, 3, 4 reader antennas."""
    paper = {2: 0.60, 3: 0.80, 4: 0.97}
    rows = []
    for n_antennas in (2, 3, 4):
        cfg = _sweep_config(quick, seed, n_antennas=n_antennas)
        dataset = get_dataset(cfg)
        result, _ = train_eval_m2ai(dataset, _train_config(quick, seed), split_seed=seed)
        rows.append(
            ExperimentRow(
                f"{n_antennas} antennas",
                paper[n_antennas],
                result.accuracy,
                approx=n_antennas != 4,
            )
        )
    increasing = rows[0].measured <= rows[-1].measured
    return ExperimentResult(
        experiment_id="fig14",
        title="Impact of the number of antennas",
        rows=rows,
        notes=f"Paper: more antennas, more decoupled paths, higher accuracy. "
        f"Shape check (2 < 4 antennas): {increasing}.",
    )


def run_fig15(quick: bool = True, seed: int = 0) -> ExperimentResult:
    """Fig. 15: 1, 2, 3 tags per person."""
    paper = {1: 0.70, 2: 0.85, 3: 0.97}
    rows = []
    for tags in (1, 2, 3):
        cfg = _sweep_config(quick, seed, tags_per_person=tags)
        dataset = get_dataset(cfg)
        result, _ = train_eval_m2ai(dataset, _train_config(quick, seed), split_seed=seed)
        rows.append(
            ExperimentRow(
                f"{tags} tag(s)/person", paper[tags], result.accuracy, approx=tags != 3
            )
        )
    increasing = rows[0].measured <= rows[-1].measured
    return ExperimentResult(
        experiment_id="fig15",
        title="Impact of the number of tags per person",
        rows=rows,
        notes=f"Paper: tags are the cheapest way to add path diversity. "
        f"Shape check (1 < 3 tags): {increasing}.",
    )


# ---------------------------------------------------------------------------
# Fig. 16 / Fig. 17 — preprocessing and architecture ablations


def run_fig16(quick: bool = True, seed: int = 0) -> ExperimentResult:
    """Fig. 16: featuriser ablation over the same recordings."""
    cfg = _gen_config(quick, seed)
    raw = get_raw_samples(cfg)
    from repro.data.generator import SyntheticDatasetGenerator

    generator = SyntheticDatasetGenerator(cfg)
    featurizers = [
        ("M2AI", M2AIFeaturizer(), 0.97, False),
        ("MUSIC-based", MusicOnlyFeaturizer(), 0.85, True),
        ("FFT-based", FftOnlyFeaturizer(), 0.75, True),
        ("Phase-based", PhaseFeaturizer(), 0.65, True),
        ("RSSI-based", RssiFeaturizer(), 0.55, True),
    ]
    rows = []
    for name, featurizer, paper, approx in featurizers:
        dataset = generator.featurize(raw, featurizer=featurizer)
        result, _ = train_eval_m2ai(dataset, _train_config(quick, seed), split_seed=seed)
        rows.append(ExperimentRow(name, paper, result.accuracy, approx=approx))
    best = max(rows, key=lambda r: r.measured)
    return ExperimentResult(
        experiment_id="fig16",
        title="Impact of the preprocessing inputs",
        rows=rows,
        notes=f"Paper: the joint pseudospectrum+periodogram input wins. "
        f"Measured best: {best.name}.",
    )


def run_fig17(quick: bool = True, seed: int = 0) -> ExperimentResult:
    """Fig. 17: CNN+LSTM vs CNN-only vs LSTM-only.

    Runs on the Fig. 9 corpus: the architecture ordering is the most
    data-hungry claim in the paper — recurrent stacks need enough
    sequences before their temporal modelling pays for its parameters,
    and at very small corpus sizes temporal mean-pooling ("CNN only")
    generalises better.
    """
    cfg = _gen_config(quick, seed, samples_per_class=20 if quick else 24)
    dataset = get_dataset(cfg)
    rows = []
    paper = {"cnn_lstm": (0.97, False), "cnn": (0.67, True), "lstm": (0.72, True)}
    label = {"cnn_lstm": "M2AI (CNN+LSTM)", "cnn": "CNN only", "lstm": "LSTM only"}
    for mode in ("cnn_lstm", "cnn", "lstm"):
        result, _ = train_eval_m2ai(
            dataset, _train_config(quick, seed), mode=mode, split_seed=seed
        )
        value, approx = paper[mode]
        rows.append(ExperimentRow(label[mode], value, result.accuracy, approx=approx))
    wins = rows[0].measured >= max(r.measured for r in rows[1:])
    return ExperimentResult(
        experiment_id="fig17",
        title="Impact of the learning architecture",
        rows=rows,
        notes=(
            f"Paper: the combined architecture beats both ablations "
            f"(+30 points over CNN, +25 over LSTM). Shape check: {wins}. "
            "Caveat: this ordering is data-scale dependent — on small "
            "simulated corpora the temporal-mean-pooling ablation can "
            "match or beat the recurrent stack; the paper's gap assumes "
            "hardware-scale training data.  The underlying capability is "
            "verified directly: on order-defined classes the CNN+LSTM "
            "learns (>85%) where CNN-only cannot "
            "(tests/nn/test_m2ai_learning.py)."
        ),
    )


EXPERIMENTS = {
    "fig09": run_fig09,
    "table1": run_table1,
    "fig10": run_fig10,
    "fig11": run_fig11,
    "fig12": run_fig12,
    "fig13": run_fig13,
    "fig14": run_fig14,
    "fig15": run_fig15,
    "fig16": run_fig16,
    "fig17": run_fig17,
}
"""Learning-based experiments, keyed by paper id (fig02/fig03 live in
:mod:`repro.eval.signal_studies`)."""
