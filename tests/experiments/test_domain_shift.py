"""Domain-shift workload: k-shot selection and bench assembly.

The full cell (two dataset generations + a training run) is exercised
by the CI bench step; here the cheap invariants are pinned: the k-shot
budget, input validation, and the bench document's shape — assembled
from fake records so no network trains in the unit suite.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.dataset import ActivityDataset
from repro.dsp.frames import FeatureFrames
from repro.experiments import ResultRecord, make_spec
from repro.experiments import domain_shift as ds
from tests.experiments.toyreg import ToyResult, ToyRow


def toy_dataset(per_class=5, classes=("A", "B", "C"), seed=0):
    rng = np.random.default_rng(seed)
    samples = []
    for cls in classes:
        for _ in range(per_class):
            samples.append(
                FeatureFrames(
                    channels={"pseudo": rng.normal(size=(4, 2, 8))},
                    label=cls,
                )
            )
    return ActivityDataset(samples=samples)


class TestKShotSubset:
    def test_takes_k_per_class(self):
        subset = ds.k_shot_subset(toy_dataset(per_class=5), k=2, seed=0)
        counts = {c: subset.labels.count(c) for c in subset.classes}
        assert counts == {"A": 2, "B": 2, "C": 2}

    def test_caps_at_class_size(self):
        subset = ds.k_shot_subset(toy_dataset(per_class=3), k=10, seed=0)
        assert len(subset) == 9

    def test_seeded_and_deterministic(self):
        data = toy_dataset(per_class=5)
        a = ds.k_shot_subset(data, k=2, seed=7)
        b = ds.k_shot_subset(data, k=2, seed=7)
        c = ds.k_shot_subset(data, k=2, seed=8)
        key = lambda d: [id(s) for s in d.samples]  # noqa: E731
        assert key(a) == key(b)
        assert key(a) != key(c)

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError, match="k must be"):
            ds.k_shot_subset(toy_dataset(), k=0, seed=0)


class TestRunDomainShiftValidation:
    def test_same_environment_rejected(self):
        with pytest.raises(ValueError, match="different environments"):
            ds.run_domain_shift(source="hall", target="hall")

    def test_registered_in_default_registry(self):
        from repro.experiments import default_registry

        assert ds.EXPERIMENT_ID in default_registry()


def fake_cell(source, target, seed, same, cross, adapted, mode="quick"):
    spec = make_spec(
        ds.EXPERIMENT_ID,
        mode,
        seed,
        gen_overrides={"source": source, "target": target},
    )
    result = ToyResult(
        experiment_id=ds.EXPERIMENT_ID,
        title=f"Domain shift: train {source}, test {target}",
        rows=[
            ToyRow(ds.ROW_SAME, None, same),
            ToyRow(ds.ROW_CROSS, None, cross),
            ToyRow(ds.ROW_ADAPTED, None, adapted),
            ToyRow("k (windows/class)", None, 2.0, unit="n"),
        ],
    )
    return ResultRecord.from_result(spec, result, elapsed_s=1.0)


class TestBenchAssembly:
    def fake_records(self):
        cells = []
        for source, target in ds.DIRECTIONS:
            for seed, (same, cross, adapted) in enumerate(
                [(0.9, 0.5, 0.7), (0.8, 0.4, 0.6)]
            ):
                cells.append(fake_cell(source, target, seed, same, cross, adapted))
        return cells

    def test_document_shape(self, monkeypatch):
        records = self.fake_records()
        monkeypatch.setattr(ds, "run_batch", lambda *a, **kw: records)
        doc = ds.run_domain_shift_bench(
            quick=True, seeds=(0, 1), workers=2, store=object.__new__(ds.ResultsStore)
        )
        assert doc["bench"] == "ext_domain_shift"
        assert set(doc["directions"]) == {
            "laboratory->hall",
            "hall->laboratory",
        }
        for stats in doc["directions"].values():
            assert stats["same_env"]["mean"] == pytest.approx(0.85)
            assert stats["cross_env"]["mean"] == pytest.approx(0.45)
            assert stats["k_shot_adapted"]["mean"] == pytest.approx(0.65)
            assert stats["transfer_gap"] == pytest.approx(0.4)
            assert stats["gap_recovered_frac"] == pytest.approx(0.5)
            assert stats["same_env"]["seeds"] == [0, 1]
        assert len(doc["cells"]) == 4

    def test_recovered_fraction_only_out_of_noise(self):
        # The two directions of the committed quick artifact: the
        # laboratory->hall gap (0.097) clears the arms' summed std
        # (0.069) and keeps its fraction; the hall->laboratory gap
        # (0.014) is inside it and reports None instead of -5.0.
        from repro.experiments.metrics import aggregate_records

        third = 1.0 / 3.0
        arms = {
            ("laboratory", "hall"): [
                (0.25, 1 / 6, 5 / 18),
                (third, 2 / 9, 5 / 18),
            ],
            ("hall", "laboratory"): [
                (third, third, 2 / 9),
                (5 / 12, 7 / 18, 13 / 36),
            ],
        }
        fracs = {}
        for (source, target), cells in arms.items():
            records = [
                fake_cell(source, target, seed, *values)
                for seed, values in enumerate(cells)
            ]
            stats = ds._direction_summary(
                aggregate_records(records), source, target
            )
            fracs[(source, target)] = stats["gap_recovered_frac"]
        assert fracs[("laboratory", "hall")] == pytest.approx(6 / 7)
        assert fracs[("hall", "laboratory")] is None

    def test_missing_arm_raises(self):
        record = self.fake_records()[0]
        record.rows = [r for r in record.rows if r["name"] != ds.ROW_CROSS]
        from repro.experiments.metrics import aggregate_records

        with pytest.raises(ValueError, match="cross-env"):
            ds._direction_summary(
                aggregate_records([record]), "laboratory", "hall"
            )

    def test_specs_cover_both_directions_and_seeds(self, monkeypatch):
        seen = {}

        def spy(specs, store, **kwargs):
            seen["specs"] = specs
            return self.fake_records()

        monkeypatch.setattr(ds, "run_batch", spy)
        ds.run_domain_shift_bench(
            quick=True, seeds=(0, 1), store=object.__new__(ds.ResultsStore)
        )
        combos = {
            (dict(s.gen_overrides)["source"], s.seed) for s in seen["specs"]
        }
        assert combos == {
            ("laboratory", 0),
            ("laboratory", 1),
            ("hall", 0),
            ("hall", 1),
        }
