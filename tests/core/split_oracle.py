"""The per-class split loop ``ActivityDataset.split`` ran before it
called :func:`repro.ml.model_selection.train_test_split`.

Kept as the parity oracle of ``tests/core/test_split_parity.py``.
"""

from __future__ import annotations

import numpy as np


def split_indices(
    labels: list[str], test_fraction: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """``(train_idx, test_idx)``: the old ``split`` body, on labels alone."""
    labels_arr = np.asarray(labels)
    test_idx: list[int] = []
    for cls in sorted(set(labels)):
        members = np.flatnonzero(labels_arr == cls)
        members = members[rng.permutation(len(members))]
        n_test = max(1, int(round(test_fraction * len(members))))
        test_idx.extend(members[:n_test].tolist())
    mask = np.zeros(len(labels), dtype=bool)
    mask[test_idx] = True
    return np.flatnonzero(~mask), np.flatnonzero(mask)
