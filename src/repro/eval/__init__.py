"""Experiment drivers reproducing every paper table and figure.

Every exported name resolves on first access (PEP 562), so importing
the package runs no driver module.  ``python -m repro.eval.serving``
and ``python -m repro.eval.resilience`` therefore load their module
once, as ``__main__``, instead of a second time through this package.
"""

from __future__ import annotations

_HOMES = {
    "experiments": (
        "EXPERIMENTS",
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
    ),
    "harness": (
        "baseline_zoo",
        "carve_val",
        "clear_cache",
        "eval_baselines",
        "fit_m2ai",
        "get_dataset",
        "get_raw_samples",
        "train_eval_m2ai",
    ),
    "extensions": ("EXTENSIONS", "run_ext_augmentation", "run_ext_hub_coverage"),
    "reporting": ("ExperimentResult", "ExperimentRow", "bar_chart"),
    "resilience": (
        "ResilienceCell",
        "resilience_sweep",
        "run_ext_resilience",
        "run_resilience_bench",
    ),
    "robustness": (
        "RobustnessCell",
        "RobustnessReport",
        "robustness_sweep",
        "run_ext_robustness",
    ),
    "serving": ("run_ext_serving", "run_serving_bench"),
    "signal_studies": ("run_fig02", "run_fig03"),
}
_HOME_OF = {name: module for module, names in _HOMES.items() for name in names}


def __getattr__(name: str):
    """Import the module that defines ``name`` and cache the value here."""
    from importlib import import_module

    if name == "ALL_EXPERIMENTS":
        # Every experiment driver (paper figures + Section VII extensions).
        value = {
            "fig02": __getattr__("run_fig02"),
            "fig03": __getattr__("run_fig03"),
            **__getattr__("EXPERIMENTS"),
            **__getattr__("EXTENSIONS"),
        }
    elif name in _HOME_OF:
        value = getattr(import_module(f"{__name__}.{_HOME_OF[name]}"), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


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
    "carve_val",
    "clear_cache",
    "eval_baselines",
    "fit_m2ai",
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
