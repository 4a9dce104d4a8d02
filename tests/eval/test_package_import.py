"""Importing ``repro.eval`` runs no driver module.

``python -m repro.eval.<driver>`` imports the package before it runs
the driver as ``__main__``.  A package that imported its drivers
eagerly would load the driver twice, and runpy warns about exactly
that with a ``RuntimeWarning``; here the warning is an error.
"""

from __future__ import annotations

import pathlib
import subprocess
import sys

import pytest

import repro.eval

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"


@pytest.mark.parametrize("module", ["serving", "resilience"])
def test_python_m_loads_the_driver_once(module):
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", f"repro.eval.{module}", "--help"],
        env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
        cwd=str(SRC.parent),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_exports_resolve_to_their_home_modules():
    from repro.eval import ALL_EXPERIMENTS, run_serving_bench
    from repro.eval.serving import run_serving_bench as home

    assert run_serving_bench is home
    assert ALL_EXPERIMENTS["fig02"] is repro.eval.run_fig02
    assert {"fig09", "ext-serving", "ext-resilience"} <= set(ALL_EXPERIMENTS)
    with pytest.raises(AttributeError):
        repro.eval.no_such_driver  # noqa: B018
