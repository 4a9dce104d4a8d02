"""Public-API hygiene: every exported name exists and is documented."""

from __future__ import annotations

import importlib
import inspect

import pytest

PACKAGES = [
    "repro",
    "repro.geometry",
    "repro.channel",
    "repro.hardware",
    "repro.motion",
    "repro.dsp",
    "repro.faults",
    "repro.analysis",
    "repro.nn",
    "repro.ml",
    "repro.core",
    "repro.data",
    "repro.eval",
]


@pytest.mark.parametrize("name", PACKAGES)
class TestPackageSurface:
    def test_all_names_resolve(self, name):
        module = importlib.import_module(name)
        for exported in getattr(module, "__all__", []):
            assert hasattr(module, exported), f"{name}.{exported} missing"

    def test_package_docstring(self, name):
        module = importlib.import_module(name)
        assert module.__doc__ and module.__doc__.strip(), f"{name} lacks a docstring"

    def test_exported_callables_documented(self, name):
        module = importlib.import_module(name)
        undocumented = []
        for exported in getattr(module, "__all__", []):
            obj = getattr(module, exported)
            if inspect.isfunction(obj) or inspect.isclass(obj):
                if not (obj.__doc__ and obj.__doc__.strip()):
                    undocumented.append(exported)
        assert not undocumented, f"{name}: undocumented exports {undocumented}"


def test_version_string():
    import repro

    assert repro.__version__.count(".") == 2


def test_no_circular_import_order_sensitivity():
    """Importing leaf modules directly must not require package order."""
    for leaf in (
        "repro.dsp.localization",
        "repro.core.streaming",
        "repro.hardware.trace_io",
        "repro.faults.injectors",
        "repro.eval.robustness",
    ):
        importlib.import_module(leaf)
