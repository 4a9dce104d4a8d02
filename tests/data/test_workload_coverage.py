"""Hygiene checks over every registered experiment driver."""

from __future__ import annotations

import inspect

from repro.eval import ALL_EXPERIMENTS


class TestDriverHygiene:
    def test_every_driver_returns_experiment_result(self):
        import repro.eval.reporting as reporting

        for name, fn in ALL_EXPERIMENTS.items():
            signature = inspect.signature(fn)
            annotation = signature.return_annotation
            assert annotation in (
                "ExperimentResult",
                reporting.ExperimentResult,
            ), name

    def test_driver_docstrings_cite_their_artifact(self):
        for name, fn in ALL_EXPERIMENTS.items():
            doc = (fn.__doc__ or "").lower()
            assert doc.strip(), f"{name} driver lacks a docstring"
