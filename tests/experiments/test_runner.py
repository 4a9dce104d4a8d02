"""run_one/run_batch: validation, determinism, resume, crash handling."""

from __future__ import annotations

import json
import os

import pytest

from repro.experiments import (
    ExperimentBatchError,
    ResultsStore,
    UnknownExperimentError,
    make_spec,
    run_batch,
    run_one,
    validate_ids,
)
from repro.experiments.runner import _core_slices
from tests.experiments import toyreg

FACTORY = "tests.experiments.toyreg:factory"
GOOD_FACTORY = "tests.experiments.toyreg:good_factory"

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


def toy_registry():
    return toyreg.factory()


class TestValidation:
    def test_unknown_id_lists_valid_ids(self):
        with pytest.raises(UnknownExperimentError) as err:
            validate_ids(["toy", "nope", "zap"], toy_registry())
        message = str(err.value)
        assert "nope" in message and "zap" in message
        assert "toy" in message  # the valid ids are listed

    def test_run_one_validates_id(self):
        with pytest.raises(UnknownExperimentError):
            run_one(make_spec("missing"), toy_registry())

    def test_run_batch_validates_before_running(self, tmp_path):
        ran = []

        def spy(quick=True, seed=0):
            ran.append(seed)
            return toyreg.run_toy(quick=quick, seed=seed)

        specs = [make_spec("toy"), make_spec("missing")]
        with pytest.raises(UnknownExperimentError):
            run_batch(specs, ResultsStore(tmp_path), registry={"toy": spy})
        assert ran == []

    def test_unsupported_override_is_a_type_error(self):
        spec = make_spec("crash", gen_overrides={"no_such_kwarg": 1})
        with pytest.raises(TypeError, match="no_such_kwarg"):
            run_one(spec, toy_registry())


class TestRunOne:
    def test_record_reflects_spec_and_driver(self):
        record = run_one(make_spec("toy", "full", 3), toy_registry())
        assert record.spec.exp_id == "toy"
        assert record.measured_by_name()["value"] == 32.0
        assert record.elapsed_s >= 0.0
        assert "toy experiment" in record.block

    def test_overrides_reach_the_driver(self):
        spec = make_spec("toy", "quick", 1, gen_overrides={"scale": 2.0})
        record = run_one(spec, toy_registry())
        assert record.measured_by_name()["value"] == 22.0


class TestInlineBatch:
    def test_resume_skips_completed_cells(self, tmp_path):
        store = ResultsStore(tmp_path)
        specs = [make_spec("toy", seed=s) for s in range(3)]
        first = run_batch(specs, store, registry=toy_registry())
        events = []
        second = run_batch(
            specs,
            store,
            registry=toy_registry(),
            on_event=lambda kind, spec, detail: events.append(kind),
        )
        assert events == ["skip"] * 3
        # Byte-identical service from the durable store.
        assert [r.to_json() for r in second] == [r.to_json() for r in first]

    def test_force_reruns(self, tmp_path):
        store = ResultsStore(tmp_path)
        spec = make_spec("toy")
        run_batch([spec], store, registry=toy_registry())
        calls = []

        def spy(quick=True, seed=0):
            calls.append(seed)
            return toyreg.run_toy(quick=quick, seed=seed)

        run_batch([spec], store, registry={"toy": spy})
        assert calls == []
        run_batch([spec], store, registry={"toy": spy}, force=True)
        assert calls == [0]

    def test_record_under_spec_schema_1_is_rerun(self, tmp_path, monkeypatch):
        """Schema 1 picked epochs and the best baseline on the test
        split; its records read as stale and rerun, never served."""
        from repro.experiments import spec as spec_module

        store = ResultsStore(tmp_path)
        spec = make_spec("toy")
        with monkeypatch.context() as old_schema:
            old_schema.setattr(spec_module, "SPEC_SCHEMA", 1)
            run_batch([spec], store, registry=toy_registry())
            old_key = spec.key
        calls, events = [], []

        def spy(quick=True, seed=0):
            calls.append(seed)
            return toyreg.run_toy(quick=quick, seed=seed)

        run_batch(
            [spec],
            store,
            registry={"toy": spy},
            on_event=lambda kind, spec, detail: events.append(kind),
        )
        assert calls == [0] and "skip" not in events
        assert old_key != spec.key
        assert store.keys() == sorted([old_key, spec.key])

    def test_duplicate_specs_run_once(self, tmp_path):
        calls = []

        def spy(quick=True, seed=0):
            calls.append(seed)
            return toyreg.run_toy(quick=quick, seed=seed)

        spec = make_spec("toy")
        records = run_batch(
            [spec, spec, spec], ResultsStore(tmp_path), registry={"toy": spy}
        )
        assert calls == [0]
        assert len(records) == 1

    def test_failures_keep_completed_cells_durable(self, tmp_path):
        store = ResultsStore(tmp_path)
        specs = [make_spec("toy"), make_spec("crash")]
        with pytest.raises(ExperimentBatchError) as err:
            run_batch(specs, store, registry=toy_registry())
        assert len(err.value.failures) == 1
        assert "injected driver failure" in str(err.value)
        assert [r.spec.exp_id for r in err.value.completed] == ["toy"]
        assert specs[0].key in store


class TestParallelBatch:
    """Spawned-worker path (the RPR011-compliant 'pool')."""

    def test_worker_count_does_not_change_records(self, tmp_path):
        specs = [
            make_spec("toy", seed=s, gen_overrides={"scale": 3.0})
            for s in range(3)
        ]
        digests = []
        for workers in (1, 3):
            store = ResultsStore(tmp_path / f"w{workers}")
            records = run_batch(
                specs, store, workers=workers, registry_factory=FACTORY
            )
            digests.append([r.content_digest() for r in records])
        assert digests[0] == digests[1]

    def test_kill_mid_sweep_then_resume(self, tmp_path):
        """Hard-killed workers lose only their own cells.

        The 'die' driver os._exit()s for odd seeds — no Python cleanup,
        the closest in-test stand-in for kill -9 mid-sweep.  Completed
        even-seed cells must be durable, and the rerun must execute
        only the missing cells, serving the rest byte-identically.
        """
        store = ResultsStore(tmp_path)
        specs = [make_spec("die", seed=s) for s in range(4)]
        with pytest.raises(ExperimentBatchError) as err:
            run_batch(specs, store, workers=2, registry_factory=FACTORY)
        assert sorted(err.value.failures) == sorted(
            s.key for s in (specs[1], specs[3])
        )
        survivors = {r.spec.seed for r in err.value.completed}
        assert survivors == {0, 2}
        before = {k: store.path_for(k).read_text() for k in store.keys()}

        events = []
        records = run_batch(
            specs,
            store,
            workers=2,
            registry_factory=GOOD_FACTORY,
            on_event=lambda kind, spec, detail: events.append((kind, spec.seed)),
        )
        assert len(records) == 4
        assert {seed for kind, seed in events if kind == "skip"} == {0, 2}
        assert {seed for kind, seed in events if kind == "done"} == {1, 3}
        after = {k: store.path_for(k).read_text() for k in store.keys()}
        for key, text in before.items():
            assert after[key] == text  # served byte-identically, not rerun

    def test_worker_crash_is_attributed(self, tmp_path):
        specs = [make_spec("toy"), make_spec("crash")]
        with pytest.raises(ExperimentBatchError) as err:
            run_batch(
                specs, ResultsStore(tmp_path), workers=2, registry_factory=FACTORY
            )
        assert list(err.value.failures) == [specs[1].key]
        assert "worker exited 1" in err.value.failures[specs[1].key]


class TestWorkerPinning:
    """Each spawned worker owns a disjoint slice of the parent's cores."""

    @pytest.mark.parametrize(
        "n_cores, workers", [(1, 1), (1, 2), (2, 2), (2, 3), (3, 2), (8, 3)]
    )
    def test_slices_partition_the_mask_capped_at_the_core_count(self, n_cores, workers):
        cores = list(range(4, 4 + n_cores))
        slices = _core_slices(cores, workers)
        assert len(slices) == min(workers, n_cores)
        assert all(slices)
        assert [c for part in slices for c in part] == cores

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no affinity API")
    def test_spawned_workers_never_share_a_core(self, tmp_path):
        parent = sorted(os.sched_getaffinity(0))
        specs = [make_spec("affinity", seed=s) for s in range(min(2, len(parent)))]
        records = run_batch(specs, ResultsStore(tmp_path), workers=2, registry_factory=FACTORY)
        masks = [json.loads(r.notes) for r in records]
        assert [r.measured_by_name()["width"] for r in records] == [len(m) for m in masks]
        cores = [c for mask in masks for c in mask]
        assert len(cores) == len(set(cores)) and set(cores) <= set(parent)
        assert sorted(os.sched_getaffinity(0)) == parent

    def test_pinned_domain_shift_matches_an_inline_run(self, tmp_path, monkeypatch):
        from repro.experiments import domain_shift as ds

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "corpora"))
        monkeypatch.setattr(ds, "_budget", toyreg.tiny_budget)
        real_run_batch = ds.run_batch

        def tiny_run_batch(*args, **kwargs):
            factory = "tests.experiments.toyreg:tiny_shift_factory"
            return real_run_batch(*args, registry_factory=factory, **kwargs)

        monkeypatch.setattr(ds, "run_batch", tiny_run_batch)
        docs = [
            ds.run_domain_shift_bench(
                quick=True, seeds=(0,), workers=workers, store=ResultsStore(tmp_path / str(workers))
            )
            for workers in (1, 2)
        ]
        assert docs[0]["directions"] == docs[1]["directions"]
        assert [c["rows"] for c in docs[0]["cells"]] == [c["rows"] for c in docs[1]["cells"]]
