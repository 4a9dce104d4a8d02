"""Experiment drivers reproducing every paper table and figure."""

from repro.eval.experiments import (
    EXPERIMENTS,
    run_fig09,
    run_fig10,
    run_fig11,
    run_fig12,
    run_fig13,
    run_fig14,
    run_fig15,
    run_fig16,
    run_fig17,
    run_table1,
)
from repro.eval.harness import (
    baseline_zoo,
    clear_cache,
    eval_baselines,
    get_dataset,
    get_raw_samples,
    train_eval_m2ai,
)
from repro.eval.extensions import (
    EXTENSIONS,
    run_ext_augmentation,
    run_ext_hub_coverage,
)
from repro.eval.reporting import ExperimentResult, ExperimentRow, bar_chart
from repro.eval.resilience import (
    ResilienceCell,
    resilience_sweep,
    run_ext_resilience,
    run_resilience_bench,
)
from repro.eval.robustness import (
    RobustnessCell,
    RobustnessReport,
    robustness_sweep,
    run_ext_robustness,
)
from repro.eval.serving import run_ext_serving, run_serving_bench
from repro.eval.signal_studies import run_fig02, run_fig03

ALL_EXPERIMENTS = {
    "fig02": run_fig02,
    "fig03": run_fig03,
    **EXPERIMENTS,
    **EXTENSIONS,
}
"""Every experiment driver (paper figures + Section VII extensions)."""

__all__ = [
    "ALL_EXPERIMENTS",
    "EXPERIMENTS",
    "EXTENSIONS",
    "ExperimentResult",
    "ExperimentRow",
    "ResilienceCell",
    "RobustnessCell",
    "RobustnessReport",
    "bar_chart",
    "resilience_sweep",
    "robustness_sweep",
    "run_resilience_bench",
    "run_serving_bench",
    "baseline_zoo",
    "clear_cache",
    "eval_baselines",
    "get_dataset",
    "get_raw_samples",
    "run_ext_augmentation",
    "run_ext_hub_coverage",
    "run_ext_resilience",
    "run_ext_robustness",
    "run_ext_serving",
    "run_fig02",
    "run_fig03",
    "run_fig09",
    "run_fig10",
    "run_fig11",
    "run_fig12",
    "run_fig13",
    "run_fig14",
    "run_fig15",
    "run_fig16",
    "run_fig17",
    "run_table1",
    "train_eval_m2ai",
]
