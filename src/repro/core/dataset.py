"""Dataset containers for frame-sequence samples."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.dsp.frames import FeatureFrames
from repro.ml.model_selection import train_test_split
from repro.ml.preprocessing import StandardScaler


@dataclass
class ActivityDataset:
    """A labelled collection of :class:`FeatureFrames` samples.

    All samples must share channel names, frame counts, tag counts and
    feature widths (one experiment = one shape).
    """

    samples: list[FeatureFrames]
    labels: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.samples:
            raise ValueError("dataset needs at least one sample")
        if self.labels and len(self.labels) != len(self.samples):
            raise ValueError("labels must align with samples")
        if not self.labels:
            self.labels = [s.label or "?" for s in self.samples]
        ref = self.samples[0].channel_dims()
        ref_shape = (self.samples[0].n_frames, self.samples[0].n_tags)
        for s in self.samples[1:]:
            if s.channel_dims() != ref or (s.n_frames, s.n_tags) != ref_shape:
                raise ValueError("inconsistent sample shapes in dataset")

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def classes(self) -> list[str]:
        """Sorted distinct labels."""
        return sorted(set(self.labels))

    @property
    def channel_shapes(self) -> dict[str, tuple[int, int]]:
        """``{channel: (n_tags, width)}`` — what the model needs."""
        first = self.samples[0]
        return {
            name: (first.n_tags, dim)
            for name, dim in first.channel_dims().items()
        }

    def to_arrays(self) -> tuple[dict[str, np.ndarray], np.ndarray]:
        """Stack into ``{channel: (B, T, n, D)}`` plus the label array."""
        channels = {
            name: np.stack([s.channels[name] for s in self.samples])
            for name in self.samples[0].channels
        }
        return channels, np.asarray(self.labels)

    def flatten_features(self) -> np.ndarray:
        """``(B, total)`` flat features for the classical baselines."""
        return np.stack([s.flatten() for s in self.samples])

    def to_sequences(self) -> np.ndarray:
        """``(B, T, D)`` per-frame feature sequences (HMM baseline input).

        Each frame concatenates every channel's tag features.
        """
        out = []
        for s in self.samples:
            per_frame = [
                s.channels[name].reshape(s.n_frames, -1)
                for name in sorted(s.channels)
            ]
            out.append(np.concatenate(per_frame, axis=1))
        return np.stack(out)

    def subset(self, indices: np.ndarray) -> "ActivityDataset":
        """A new dataset restricted to the given sample indices."""
        idx = np.asarray(indices)
        return ActivityDataset(
            samples=[self.samples[i] for i in idx],
            labels=[self.labels[i] for i in idx],
        )

    def split(
        self, test_fraction: float = 0.2, rng: np.random.Generator | None = None
    ) -> tuple["ActivityDataset", "ActivityDataset"]:
        """Stratified train/test split (the paper's 80/20).

        The index sets are :func:`~repro.ml.model_selection.train_test_split`'s
        on ``arange(len(self))``; the default generator is seed 0.
        """
        train_idx, test_idx, _, _ = train_test_split(
            np.arange(len(self)), np.asarray(self.labels), test_fraction, rng
        )
        return self.subset(train_idx), self.subset(test_idx)


class ChannelScaler:
    """Per-channel feature standardisation fitted on training data.

    Each channel's ``(B, T, n, D)`` tensor is standardised feature-wise
    over the ``B*T*n`` rows, which puts the dB-scaled periodogram and
    the unit-scaled pseudospectrum on a common footing for the network.
    """

    def __init__(self) -> None:
        self._scalers: dict[str, StandardScaler] = {}

    def fit(self, channels: dict[str, np.ndarray]) -> "ChannelScaler":
        """Fit one scaler per channel; returns ``self``."""
        for name, arr in channels.items():
            scaler = StandardScaler()
            scaler.fit(arr.reshape(-1, arr.shape[-1]))
            self._scalers[name] = scaler
        return self

    def transform(self, channels: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        """Standardise each channel with its fitted scaler."""
        if not self._scalers:
            raise RuntimeError("scaler not fitted")
        out = {}
        for name, arr in channels.items():
            scaler = self._scalers[name]
            out[name] = scaler.transform(arr.reshape(-1, arr.shape[-1])).reshape(
                arr.shape
            )
        return out

    def fit_transform(self, channels: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        """Fit and transform in one call."""
        return self.fit(channels).transform(channels)
