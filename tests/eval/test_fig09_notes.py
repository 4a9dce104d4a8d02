"""fig09's notes name the direction of M2AI's margin in words.

A negative margin used to print as "beats … by -4 points".  The fits
are stubbed out: only the wording of the comparison is under test.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.eval import experiments
from repro.eval.harness import BaselineScore


@pytest.fixture
def fig09_with(monkeypatch):
    def run(m2ai_accuracy: float):
        monkeypatch.setattr(experiments, "_headline", lambda quick, seed: {
            "corpus": None, "training": None,
        })
        monkeypatch.setattr(
            experiments, "train_eval_m2ai",
            lambda *a, **k: (SimpleNamespace(accuracy=m2ai_accuracy), None),
        )
        monkeypatch.setattr(experiments, "get_dataset", lambda corpus: None)
        # Picked on val (Linear SVM), reported on test (0.50); the
        # higher test score of RBF SVM must not be the reference.
        monkeypatch.setattr(experiments, "eval_baselines", lambda *a, **k: {
            "Linear SVM": BaselineScore(val=0.60, test=0.50),
            "RBF SVM": BaselineScore(val=0.40, test=0.70),
        })
        return experiments.run_fig09(quick=True, seed=0).notes

    return run


def test_positive_margin_beats(fig09_with):
    notes = fig09_with(0.62)
    assert "M2AI beats the best conventional baseline (Linear SVM" in notes
    assert "by 12 points on test" in notes
    assert "M2AI first = True" in notes


def test_negative_margin_trails(fig09_with):
    notes = fig09_with(0.46)
    assert "M2AI trails the best conventional baseline (Linear SVM" in notes
    assert "by 4 points on test" in notes
    assert "-" not in notes.split("points on test")[0]
    assert "M2AI first = False" in notes
