"""``ActivityDataset.split`` picks the index sets its old loop picked."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dataset import ActivityDataset
from repro.dsp.frames import FeatureFrames
from tests.core.split_oracle import split_indices


def _dataset(labels: list[str]) -> ActivityDataset:
    feature = np.zeros((2, 1, 3))
    return ActivityDataset(
        samples=[FeatureFrames(channels={"pseudo": feature}, label=label) for label in labels]
    )


@settings(max_examples=200, deadline=None)
@given(
    labels=st.lists(st.sampled_from(["A01", "A03", "A07", "B", "C"]), min_size=1, max_size=40),
    fraction=st.floats(min_value=0.01, max_value=0.99),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_split_index_sets_match_the_old_loop(labels, fraction, seed):
    dataset = _dataset(labels)
    position = {id(sample): i for i, sample in enumerate(dataset.samples)}
    want_train, want_test = split_indices(labels, fraction, np.random.default_rng(seed))
    if want_train.size == 0:  # every class has one sample: nothing left to train on
        with pytest.raises(ValueError, match="at least one sample"):
            dataset.split(fraction, np.random.default_rng(seed))
        return
    train, test = dataset.split(fraction, np.random.default_rng(seed))
    assert [position[id(s)] for s in train.samples] == want_train.tolist()
    assert [position[id(s)] for s in test.samples] == want_test.tolist()
    assert train.labels == [labels[i] for i in want_train]


def test_default_generator_is_seed_zero():
    labels = ["A", "B"] * 7 + ["C"] * 3
    dataset = _dataset(labels)
    position = {id(sample): i for i, sample in enumerate(dataset.samples)}
    _, test = dataset.split(0.3)
    _, want_test = split_indices(labels, 0.3, np.random.default_rng(0))
    assert [position[id(s)] for s in test.samples] == want_test.tolist()
