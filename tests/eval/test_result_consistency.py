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
    # survey() is read-only: this check must never quarantine the
    # developer's records (records() renames the ones it cannot serve).
    root = default_store_root()
    if not root.is_dir():
        pytest.skip("no recorded experiments yet")
    survey = ResultsStore(root).survey()
    if not survey.records:
        pytest.skip(
            f"no servable recorded experiments ({len(survey.stale)} stale, "
            f"{len(survey.unreadable)} unreadable)"
        )
    _assert_consistent(survey.records)
