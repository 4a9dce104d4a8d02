"""Seed aggregation and EXPERIMENTS.md rendering."""

from __future__ import annotations

import math
import threading

import pytest

from repro.experiments import (
    ResultRecord,
    ResultsStore,
    aggregate_records,
    make_spec,
    render_aggregate_table,
    render_block,
    render_experiments_md,
    write_experiments_md,
)
from tests.experiments.toyreg import ToyResult, ToyRow, run_toy


def record_for(exp_id, mode="quick", seed=0, value=0.5, name="acc row"):
    spec = make_spec(exp_id, mode, seed)
    result = ToyResult(
        experiment_id=exp_id,
        title=f"{exp_id} title",
        rows=[ToyRow(name, None, value)],
    )
    return ResultRecord.from_result(spec, result, elapsed_s=1.0)


class TestAggregation:
    def test_mean_std_across_seeds(self):
        records = [
            record_for("toy", seed=0, value=0.4),
            record_for("toy", seed=1, value=0.6),
        ]
        (row,) = aggregate_records(records)
        assert row.mean == pytest.approx(0.5)
        assert row.std == pytest.approx(0.1)
        assert (row.low, row.high) == (0.4, 0.6)
        assert row.seeds == (0, 1)
        assert row.n == 2

    def test_modes_do_not_mix(self):
        records = [
            record_for("toy", "quick", 0, 0.1),
            record_for("toy", "full", 0, 0.9),
        ]
        rows = aggregate_records(records)
        assert len(rows) == 2
        assert {r.mode for r in rows} == {"quick", "full"}

    def test_overrides_do_not_mix(self):
        a = make_spec("toy", gen_overrides={"source": "laboratory"})
        b = make_spec("toy", gen_overrides={"source": "hall"})
        records = [
            ResultRecord.from_result(a, run_toy(), 1.0),
            ResultRecord.from_result(b, run_toy(), 1.0),
        ]
        assert len(aggregate_records(records)) == 2

    def test_units_do_not_mix(self):
        spec = make_spec("toy")
        result = ToyResult(
            "toy", "t", rows=[ToyRow("x", None, 1.0), ToyRow("x", None, 2.0, unit="s")]
        )
        records = [ResultRecord.from_result(spec, result, 1.0)]
        assert len(aggregate_records(records)) == 2

    def test_table_renders(self):
        rows = aggregate_records([record_for("toy", seed=s) for s in range(3)])
        table = render_aggregate_table(rows)
        assert "acc row" in table and "n=3" in table
        assert render_aggregate_table([]) == "(no data)"
        assert not math.isnan(rows[0].std)


class TestExperimentsMd:
    def test_blocks_labelled_with_mode_and_seed(self):
        text = render_block(record_for("fig09", "full", 7))
        assert "mode: full, seed: 7" in text
        assert text.startswith("```text\n")

    def test_registry_order_then_mode_then_seed(self):
        records = [
            record_for("fig09", "quick", 0),
            record_for("not-registered", "quick", 0),
            record_for("fig02", "quick", 0),
            record_for("fig09", "quick", 2),
            record_for("fig09", "full", 0),
        ]
        text = render_experiments_md(records)
        fig02 = text.index("fig02 title")
        fig09_full = text.index("mode: full, seed: 0")
        fig09_q0 = text.index("mode: quick, seed: 0", text.index("fig09 title"))
        fig09_q2 = text.index("mode: quick, seed: 2")
        unknown = text.index("not-registered title")
        assert fig02 < fig09_full < fig09_q0 < fig09_q2 < unknown

    def test_quick_and_full_coexist(self):
        """The old exp_id-keyed cache silently dropped one of these."""
        records = [
            record_for("fig09", "quick", 0, 0.1),
            record_for("fig09", "full", 0, 0.9),
            record_for("fig09", "quick", 5, 0.2),
        ]
        text = render_experiments_md(records)
        assert text.count("fig09 title") == 3

    def test_deterministic_output(self):
        records = [record_for("fig09"), record_for("fig02")]
        assert render_experiments_md(records) == render_experiments_md(
            list(reversed(records))
        )

    def test_committed_file_holds_only_rendered_sections(self):
        # scripts/run_experiments.py rewrites the whole file from the
        # store, so a hand-written section would be erased on the next
        # regeneration.
        from pathlib import Path

        from repro.experiments import EXPERIMENTS_HEADER

        committed = (Path(__file__).resolve().parents[2] / "EXPERIMENTS.md").read_text()
        rendered = render_experiments_md([record_for("fig09")])

        def headings(text):
            return {line for line in text.splitlines() if line.startswith("## ")}

        assert committed.startswith(EXPERIMENTS_HEADER)
        assert headings(committed) <= headings(rendered)

    def test_write_from_store_is_atomic(self, tmp_path):
        store = ResultsStore(tmp_path / "store")
        store.put(record_for("fig09"))
        out = tmp_path / "EXPERIMENTS.md"
        write_experiments_md(out, store)
        text = out.read_text()
        assert "paper vs measured" in text
        assert "fig09 title" in text
        assert not list(tmp_path.glob("EXPERIMENTS.md.*.tmp"))

    def test_concurrent_writers_never_tear(self, tmp_path):
        store = ResultsStore(tmp_path / "store")
        for seed in range(4):
            store.put(record_for("fig09", seed=seed))
        out = tmp_path / "EXPERIMENTS.md"
        expected = render_experiments_md(store.records())

        def hammer():
            for _ in range(10):
                write_experiments_md(out, store)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert out.read_text() == expected
