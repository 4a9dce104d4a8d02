"""Invariants of recorded experiment results in the ResultsStore.

The store (``.repro_cache/experiments/``, written only by
``scripts/run_experiments.py`` and the experiment harness) is the one
record EXPERIMENTS.md is rendered from.  Every record must render its
own experiment id, carry a ``measured`` column, and name a registered
experiment.  The invariants are checked on a store holding a freshly
run cheap cell, and on the local default store when it has records.
"""

from __future__ import annotations

import pytest

from repro.experiments import (
    ResultsStore,
    default_registry,
    default_store_root,
    make_spec,
    render_block,
    run_one,
)


def _assert_consistent(records):
    known = set(default_registry())
    for record in records:
        exp_id = record.spec.exp_id
        block = render_block(record)
        assert exp_id in block, f"{exp_id} block lacks its own id"
        assert "measured" in block, exp_id
        assert exp_id in known, f"unknown experiment id recorded: {exp_id}"


def test_fresh_store_records_are_consistent(tmp_path):
    store = ResultsStore(tmp_path / "store")
    store.put(run_one(make_spec("fig02", "quick", 0)))
    records = store.records()
    assert len(records) == 1
    _assert_consistent(records)


def test_local_store_records_are_consistent():
    root = default_store_root()
    records = ResultsStore(root).records() if root.is_dir() else []
    if not records:
        pytest.skip("no recorded experiments yet")
    _assert_consistent(records)
