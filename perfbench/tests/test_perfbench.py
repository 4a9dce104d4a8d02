"""Tests of the benchmark itself (not of the program it measures).

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
for path in (str(HERE), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _result(capsys, *argv: str) -> dict:
    assert run.main(list(argv)) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-1])


def test_metric_names_and_units_are_well_formed():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.fullmatch(metric["name"]), metric["name"]
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", metric["unit"]), metric["unit"]
        assert metric["better"] in ("higher", "lower")
    for metric in SPEC["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert [w["name"] for w in SPEC["workloads"]] == ["corpus", "train", "serve"]


@pytest.mark.parametrize("workload", ["corpus", "train", "serve"])
def test_smoke_run_prints_exactly_the_declared_metrics(capsys, workload):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        result = _result(
            capsys, "--workload", workload, "--seed", "3", "--seconds", "0.5",
            "--trace", str(trace), "--smoke",
        )
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["attempted"] >= 1 and result["failed"] == 0
        declared = {m["name"]: m["unit"] for m in SPEC[section]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
        assert all(np.isfinite(v["value"]) for v in result["metrics"].values())


def test_missing_program_exits_nonzero(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "corpus", "--seconds", "0.1"]) == 2
    assert capsys.readouterr().out == ""


def _phases(raw_samples) -> list[np.ndarray]:
    return [r.log.phase_rad for r in raw_samples]


def test_seed_reaches_every_generator():
    scale = workloads.SMOKE
    corpus = [workloads.CorpusWorkload(seed, scale) for seed in (5, 5, 6)]
    configs = [[w.config(p, s) for p in range(2) for s in range(2)] for w in corpus]
    assert configs[0] == configs[1]
    assert all(a.seed != b.seed for a, b in zip(configs[0], configs[2]))
    assert len({c.seed for c in configs[0]}) == len(configs[0])

    def render(seed: int, key: str):
        raw, _ = workloads.render_dataset(seed, ("A01",), 1, 1.2, key)
        return _phases(raw)

    for key in ("train-corpus", "serve-corpus"):
        same = render(5, key), render(5, key)
        other = render(6, key)
        assert all(np.array_equal(a, b) for a, b in zip(*same))
        assert not all(
            a.shape == b.shape and np.array_equal(a, b) for a, b in zip(same[0], other)
        )

    assert workloads.derive_seed(5, "split") != workloads.derive_seed(6, "split")
    assert workloads.derive_seed(5, "x", 12) != workloads.derive_seed(5, "x", 21)


def test_wrappers_are_removed_after_a_traced_run():
    targets = spans.layer_targets()
    before = [(owner, attr, vars(owner)[attr]) for owner, attr, _n, _m in targets]
    recorder = spans.SpanRecorder()
    with pytest.raises(RuntimeError):
        with spans.instrument(recorder, targets):
            assert len(spans.leftover_wrappers(targets)) == len(targets)
            raise RuntimeError("measurement failed")
    assert spans.leftover_wrappers(targets) == []
    assert all(vars(owner)[attr] is raw for owner, attr, raw in before)


def test_self_time_subtracts_wrapped_children():
    import time

    class Layer:
        def inner(self):
            time.sleep(0.02)

        def outer(self):
            time.sleep(0.02)
            self.inner()
            self.inner()

    recorder = spans.SpanRecorder()
    targets = [(Layer, "outer", "outer", None), (Layer, "inner", "inner", None)]
    with spans.instrument(recorder, targets):
        Layer().outer()
    totals = recorder.totals()
    outer, inner = totals["outer"], totals["inner"]
    assert inner["calls"] == 2 and outer["calls"] == 1
    assert outer["self_ms"] == pytest.approx(outer["busy_ms"] - inner["busy_ms"])
    assert 15 < outer["self_ms"] < outer["busy_ms"]
    assert set(recorder.traces) == {0}
    assert "outer" in vars(Layer) and not spans.leftover_wrappers(targets)
