"""Extension drivers (fast ones; the learning-heavy drivers run through
``scripts/run_experiments.py``, and the resilience, serving and
domain-shift benches enforce their contracts when run as modules)."""

from __future__ import annotations

import numpy as np

from repro.eval import run_ext_hub_coverage


class TestHubCoverage:
    def test_monotone_coverage(self):
        result = run_ext_hub_coverage()
        measured = result.measured_by_name()
        assert (
            measured["4 array(s)"]
            > measured["2 array(s)"]
            > measured["1 array(s)"]
            > 0.0
        )

    def test_coverage_is_fraction(self):
        result = run_ext_hub_coverage()
        for row in result.rows:
            assert 0.0 <= row.measured <= 1.0

    def test_deterministic(self):
        a = run_ext_hub_coverage().measured_by_name()
        b = run_ext_hub_coverage().measured_by_name()
        assert a == b


class TestExperimentRegistry:
    def test_every_paper_artifact_has_a_driver(self):
        from repro.eval import ALL_EXPERIMENTS

        expected = {
            "fig02", "fig03", "fig09", "table1", "fig10", "fig11",
            "fig12", "fig13", "fig14", "fig15", "fig16", "fig17",
        }
        assert expected <= set(ALL_EXPERIMENTS)

    def test_extensions_registered(self):
        from repro.eval import EXTENSIONS

        assert {
            "ext-hub",
            "ext-augment",
            "ext-robustness",
            "ext-resilience",
            "ext-serving",
        } == set(EXTENSIONS)

    def test_drivers_are_callable_with_standard_signature(self):
        import inspect

        from repro.eval import ALL_EXPERIMENTS

        for name, fn in ALL_EXPERIMENTS.items():
            params = inspect.signature(fn).parameters
            assert "quick" in params and "seed" in params, name
