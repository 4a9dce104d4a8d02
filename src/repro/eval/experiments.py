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

from typing import Callable

import numpy as np

from repro.core.config import M2AIConfig
from repro.data.generator import GenerationConfig, vary
from repro.data.workloads import (
    full_generation,
    full_training,
    quick_generation,
    quick_training,
)
from repro.eval.harness import (
    eval_baselines,
    get_dataset,
    train_eval_m2ai,
)
from repro.eval.reporting import ExperimentResult, ExperimentRow, declares
from repro.motion.scenarios import SCENARIO_LABELS


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


def _headline(quick: bool = True, seed: int = 0) -> dict:
    """The shared Fig. 9 corpus and training budget."""
    return {
        "corpus": _gen_config(quick, seed, samples_per_class=20 if quick else 24),
        "training": _train_config(quick, seed),
    }


def _sweep(axis: str, values: tuple, **fixed) -> Callable[..., dict]:
    """The budget of a sweep driver: one corpus per ``axis`` value."""

    def budget(quick: bool = True, seed: int = 0) -> dict:
        return {
            "corpus": {v: _sweep_config(quick, seed, **fixed, **{axis: v}) for v in values},
            "training": _train_config(quick, seed),
        }

    return budget


def _ablation(quick: bool = True, seed: int = 0) -> dict:
    """The Fig. 16 corpus and training budget."""
    return {"corpus": _gen_config(quick, seed), "training": _train_config(quick, seed)}


# The Fig. 11 class set (see run_fig11).
_DISTINCT_LABELS = tuple(label for label in SCENARIO_LABELS if label not in ("A05", "A06"))
_fig11 = _sweep("n_persons", (1, 2, 3), scenario_labels=_DISTINCT_LABELS)
_fig12 = _sweep("environment", ("laboratory", "hall"))
_fig13 = _sweep("distance_m", (1.0, 2.0, 3.0, 4.0))
_fig14 = _sweep("n_antennas", (2, 3, 4))
_fig15 = _sweep("tags_per_person", (1, 2, 3))


# ---------------------------------------------------------------------------
# Fig. 9 / Table I / Fig. 10 — the headline comparison (shared corpus)


@declares(_headline)
def run_fig09(quick: bool = True, seed: int = 0) -> ExperimentResult:
    """Fig. 9: M2AI vs ten conventional classifiers.

    The headline comparison runs on a larger corpus than the ablation
    experiments: the deep network's advantage over the high-bias
    baselines is data-dependent (the paper trained on a full hardware
    study), and at very small corpus sizes all methods converge to
    similar mediocrity.
    """
    budget = _headline(quick, seed)
    m2ai, _pipe = train_eval_m2ai(budget["corpus"], budget["training"], split_seed=seed)
    scores = eval_baselines(get_dataset(budget["corpus"]), split_seed=seed)
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
        rows.append(ExperimentRow(name, value, score.test, approx=approx))
    best = max(scores, key=lambda name: scores[name].val)
    best_baseline = scores[best].test
    gain = m2ai.accuracy - best_baseline
    return ExperimentResult(
        experiment_id="fig09",
        title="Overall activity identification performance",
        rows=rows,
        notes=(
            f"M2AI {'trails' if gain < 0 else 'beats'} the best conventional "
            f"baseline ({best}, picked on val) by {abs(gain) * 100:.0f} "
            f"points on test (paper: beats linear SVM by 27 points). "
            f"Shape check: M2AI first = {m2ai.accuracy > best_baseline}."
        ),
    )


@declares(_headline)
def run_table1(quick: bool = True, seed: int = 0) -> ExperimentResult:
    """Table I: per-class confusion of the trained M2AI."""
    budget = _headline(quick, seed)
    result, _pipe = train_eval_m2ai(budget["corpus"], budget["training"], split_seed=seed)
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


@declares(_headline)
def run_fig10(quick: bool = True, seed: int = 0) -> ExperimentResult:
    """Fig. 10: impact of phase calibration (same recordings, re-featurised).

    The "without calibration" arm feeds the reader's *raw* phase output
    (hopping offsets and pi ambiguity intact) through the identical
    decoupling + learning stack.  Runs on the Fig. 9 corpus so the
    calibrated arm is the same trained model the headline reports; note
    the paper's own no-calibration number (52%) is weak-feature level,
    not chance — RSSI and motion dynamics survive phase scrambling.
    """
    budget = _headline(quick, seed)
    acc_cal, _ = train_eval_m2ai(budget["corpus"], budget["training"], split_seed=seed)
    acc_raw, _ = train_eval_m2ai(
        budget["corpus"], budget["training"], use_calibration=False, split_seed=seed
    )
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


@declares(_fig11)
def run_fig11(quick: bool = True, seed: int = 0) -> ExperimentResult:
    """Fig. 11: one, two, three simultaneous people.

    Scenario labels whose *first* person repeats another scenario's
    primitive (A05 duplicates A01's wave, A06 duplicates A03's walk)
    are excluded: with a single person those class pairs are literally
    identical and the 1-person arm would be unwinnable by construction.
    All three arms use the same 10-class set for comparability.
    """
    budget = _fig11(quick, seed)
    paper = {1: 0.97, 2: 0.90, 3: 0.80}
    rows = []
    for n_persons, cfg in budget["corpus"].items():
        result, _ = train_eval_m2ai(cfg, budget["training"], split_seed=seed)
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


@declares(_fig12)
def run_fig12(quick: bool = True, seed: int = 0) -> ExperimentResult:
    """Fig. 12: laboratory (high multipath) vs hall (low multipath)."""
    budget = _fig12(quick, seed)
    rows = []
    paper = {"laboratory": 0.97, "hall": 0.95}
    for env, cfg in budget["corpus"].items():
        result, _ = train_eval_m2ai(cfg, budget["training"], split_seed=seed)
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


@declares(_fig13)
def run_fig13(quick: bool = True, seed: int = 0) -> ExperimentResult:
    """Fig. 13: reader-to-person distance 1-4 m."""
    budget = _fig13(quick, seed)
    rows = []
    for distance, cfg in budget["corpus"].items():
        result, _ = train_eval_m2ai(cfg, budget["training"], split_seed=seed)
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


@declares(_fig14)
def run_fig14(quick: bool = True, seed: int = 0) -> ExperimentResult:
    """Fig. 14: 2, 3, 4 reader antennas."""
    budget = _fig14(quick, seed)
    paper = {2: 0.60, 3: 0.80, 4: 0.97}
    rows = []
    for n_antennas, cfg in budget["corpus"].items():
        result, _ = train_eval_m2ai(cfg, budget["training"], split_seed=seed)
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


@declares(_fig15)
def run_fig15(quick: bool = True, seed: int = 0) -> ExperimentResult:
    """Fig. 15: 1, 2, 3 tags per person."""
    budget = _fig15(quick, seed)
    paper = {1: 0.70, 2: 0.85, 3: 0.97}
    rows = []
    for tags, cfg in budget["corpus"].items():
        result, _ = train_eval_m2ai(cfg, budget["training"], split_seed=seed)
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


@declares(_ablation)
def run_fig16(quick: bool = True, seed: int = 0) -> ExperimentResult:
    """Fig. 16: featuriser ablation over the same recordings."""
    budget = _ablation(quick, seed)
    channel_sets = [
        ("M2AI", "m2ai", 0.97, False),
        ("MUSIC-based", "music", 0.85, True),
        ("FFT-based", "fft", 0.75, True),
        ("Phase-based", "phase", 0.65, True),
        ("RSSI-based", "rssi", 0.55, True),
    ]
    rows = []
    for name, channel_set, paper, approx in channel_sets:
        result, _ = train_eval_m2ai(
            budget["corpus"], budget["training"], channel_set=channel_set, split_seed=seed
        )
        rows.append(ExperimentRow(name, paper, result.accuracy, approx=approx))
    best = max(rows, key=lambda r: r.measured)
    return ExperimentResult(
        experiment_id="fig16",
        title="Impact of the preprocessing inputs",
        rows=rows,
        notes=f"Paper: the joint pseudospectrum+periodogram input wins. "
        f"Measured best: {best.name}.",
    )


@declares(_headline)
def run_fig17(quick: bool = True, seed: int = 0) -> ExperimentResult:
    """Fig. 17: CNN+LSTM vs CNN-only vs LSTM-only.

    Runs on the Fig. 9 corpus: the architecture ordering is the most
    data-hungry claim in the paper — recurrent stacks need enough
    sequences before their temporal modelling pays for its parameters,
    and at very small corpus sizes temporal mean-pooling ("CNN only")
    generalises better.
    """
    budget = _headline(quick, seed)
    rows = []
    paper = {"cnn_lstm": (0.97, False), "cnn": (0.67, True), "lstm": (0.72, True)}
    label = {"cnn_lstm": "M2AI (CNN+LSTM)", "cnn": "CNN only", "lstm": "LSTM only"}
    for mode in ("cnn_lstm", "cnn", "lstm"):
        result, _ = train_eval_m2ai(
            budget["corpus"], budget["training"], mode=mode, split_seed=seed
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
