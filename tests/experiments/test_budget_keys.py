"""Store keys fold in each driver's declared budget."""

from __future__ import annotations

import json

import pytest

from repro.core.config import M2AIConfig
from repro.eval import experiments as paper_drivers
from repro.eval import harness
from repro.experiments import (
    ExperimentSpec,
    ResultRecord,
    ResultsStore,
    bind_configs,
    default_registry,
    make_spec,
    run_batch,
)
from tests.experiments.toyreg import run_toy


@pytest.fixture(scope="module")
def registry():
    return default_registry()


def test_every_registered_driver_declares_its_budget(registry):
    for exp_id, driver in registry.items():
        assert callable(getattr(driver, "configs", None)), exp_id
        for mode in ("quick", "full"):
            bound = bind_configs(make_spec(exp_id, mode, 0), registry)
            assert bound.configs and bound.key != make_spec(exp_id, mode, 0).key


def test_binding_is_deterministic_and_round_trips(registry):
    reverse = {"source": "hall", "target": "laboratory"}
    spec = make_spec("ext-domain-shift", "quick", 1, gen_overrides=reverse)
    bound = bind_configs(spec, registry)
    assert bind_configs(bound, registry) == bound
    forward = bind_configs(make_spec("ext-domain-shift", "quick", 1), registry)
    assert bound.configs != forward.configs
    clone = ExperimentSpec.from_payload(json.loads(json.dumps(bound.payload())))
    assert clone == bound and clone.key == bound.key


def test_changing_a_drivers_epoch_constant_changes_the_key(registry, monkeypatch):
    spec = make_spec("fig09", "quick", 0)
    before = bind_configs(spec, registry).key
    monkeypatch.setattr(
        paper_drivers,
        "quick_training",
        lambda seed=0: M2AIConfig(epochs=41, batch_size=16, seed=seed),
    )
    assert bind_configs(spec, registry).key != before

    runtime = make_spec("ext-serving", "quick", 0)
    before = bind_configs(runtime, registry).key
    monkeypatch.setattr(
        harness,
        "runtime_training",
        lambda quick, seed: M2AIConfig(epochs=26, batch_size=8, seed=seed),
    )
    assert bind_configs(runtime, registry).key != before


def test_drivers_run_with_what_they_declare(registry, monkeypatch):
    """The budget a driver declares is the one it trains with."""
    seen = []

    def fake_train(corpus, training, **kwargs):
        seen.append(training)
        raise RuntimeError("stop after the first fit")

    monkeypatch.setattr(paper_drivers, "train_eval_m2ai", fake_train)
    with pytest.raises(RuntimeError, match="first fit"):
        registry["fig11"](quick=True, seed=3)
    assert seen == [registry["fig11"].configs(quick=True, seed=3)["training"]]


def test_stale_budget_is_not_served(tmp_path):
    """A record written under an old budget is rerun, not reused."""
    calls = []

    def driver(quick: bool = True, seed: int = 0):
        calls.append(seed)
        return run_toy(quick=quick, seed=seed)

    store = ResultsStore(tmp_path)
    epochs = {"value": 10}
    driver.configs = lambda quick=True, seed=0: {"epochs": epochs["value"]}
    registry = {"toy": driver}
    spec = make_spec("toy", "quick", 0)
    run_batch([spec], store, registry=registry)
    run_batch([spec], store, registry=registry)
    assert calls == [0]
    epochs["value"] = 11
    [record] = run_batch([spec], store, registry=registry)
    assert calls == [0, 0]
    assert isinstance(record, ResultRecord) and record.spec.configs
