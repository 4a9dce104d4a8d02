"""Smoke runs of the examples that call the DSP kernels directly."""

from __future__ import annotations

import runpy
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"


@pytest.mark.parametrize(
    ("name", "expected"),
    [
        ("aoa_spectrum_demo", ["(a) Stationary tag", "peaks:", "(c) Six tags"]),
        ("tag_localization", ["open space", "laboratory", "median error:"]),
    ],
)
def test_example_runs(name, expected, capsys):
    runpy.run_path(str(EXAMPLES / f"{name}.py"), run_name="__main__")
    out = capsys.readouterr().out
    for text in expected:
        assert text in out
