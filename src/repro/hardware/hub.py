"""Antenna hubs: multiple arrays on one reader (Section VII).

The paper's coverage discussion: a single array covers ~12 m of read
range; larger areas need "Impinj antenna hubs to deploy multiple RFID
antenna arrays".  An :class:`AntennaHub` time-multiplexes whole arrays
the same way a single reader multiplexes ports — each observation
window is split across the member arrays, and the per-array logs are
featurised independently and concatenated channel-wise, giving the
learning engine several viewpoints of the same scene.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.channel.params import ChannelParams
from repro.dsp.frames import FeatureFrames
from repro.geometry.room import Room
from repro.hardware.antenna import UniformLinearArray
from repro.hardware.llrp import ReadLog
from repro.hardware.reader import Reader, ReaderConfig
from repro.hardware.scene import Scene
from repro.obs.metrics import counter
from repro.obs.tracing import span
from repro.runtime.retry import RetryPolicy


@dataclass
class AntennaHub:
    """Several reader arrays observing one scene.

    Args:
        room: shared environment.
        arrays: member arrays (each gets its own reader session).
        channel_params: propagation constants.
        seed: base session seed; member ``i`` uses ``seed + i``.
        retry_policy: per-member ingest retry policy, handed to every
            member reader (None disables retries).
        degrade_on_member_failure: when True, a member whose inventory
            still fails after retries yields ``None`` in the returned
            log list instead of failing the whole hub —
            :func:`merge_hub_features` zero-fills the lost view
            downstream.
    """

    room: Room
    arrays: tuple[UniformLinearArray, ...]
    channel_params: ChannelParams | None = None
    seed: int = 0
    retry_policy: RetryPolicy | None = None
    degrade_on_member_failure: bool = False

    def __post_init__(self) -> None:
        if not self.arrays:
            raise ValueError("a hub needs at least one array")
        self.readers = [
            Reader(
                ReaderConfig(array=array),
                self.room,
                channel_params=self.channel_params,
                seed=self.seed + i,
                retry_policy=self.retry_policy,
            )
            for i, array in enumerate(self.arrays)
        ]

    def inventory(self, scene: Scene, duration_s: float) -> list[ReadLog | None]:
        """One log per member array.

        The hub switches arrays per dwell in a real deployment; here
        each member observes the full window independently, which is
        equivalent for feature purposes (and an upper bound the
        time-shared hardware approaches with more hub ports).

        Returns:
            Logs in array order.  With ``degrade_on_member_failure``
            set, a member that failed (after any retries) contributes
            ``None``; otherwise every entry is a :class:`ReadLog`.

        Raises:
            Exception: whatever the failing member raised, when
                ``degrade_on_member_failure`` is False.
        """
        with span("hub.inventory", arrays=len(self.readers)):
            logs: list[ReadLog | None] = []
            for reader in self.readers:
                if not self.degrade_on_member_failure:
                    logs.append(reader.inventory(scene, duration_s))
                    continue
                try:
                    logs.append(reader.inventory(scene, duration_s))
                except Exception:
                    counter("runtime.ingest.member_lost_total").inc()
                    logs.append(None)
        counter("hub.reads_merged_total").inc(
            sum(log.n_reads for log in logs if log is not None)
        )
        return logs

    def calibration_inventory(self, scene: Scene, duration_s: float = 20.0) -> list[ReadLog]:
        """Stationary bootstrap per member array."""
        frozen = scene.frozen()
        return [reader.inventory(frozen, duration_s) for reader in self.readers]

    def coverage_mask(self, points: np.ndarray, max_range_m: float = 12.0) -> np.ndarray:
        """Which points fall inside at least one member's read range.

        Args:
            points: ``(P, 2)`` candidate positions.
            max_range_m: the paper's ~12 m R420 read range.

        Returns:
            ``(P,)`` boolean coverage mask.
        """
        pts = np.asarray(points, dtype=np.float64)
        covered = np.zeros(len(pts), dtype=bool)
        for array in self.arrays:
            centre = np.asarray(array.center.as_tuple())
            covered |= np.linalg.norm(pts - centre, axis=1) <= max_range_m
        return covered


def merge_hub_features(
    per_array: list[FeatureFrames | None], with_liveness: bool = False
) -> FeatureFrames:
    """Concatenate per-array features into one multi-view sample.

    Channels are suffixed with the array index (``pseudo@0``,
    ``pseudo@1``, ...), so the network grows one encoder branch per
    viewpoint.

    The merge degrades to the surviving arrays instead of failing the
    whole sample: a lost member — passed as ``None`` (reader offline)
    or disagreeing on the frame/tag shape (truncated session) — is
    zero-filled with the surviving members' channel layout, so the
    merged sample keeps the shape the model was trained on.

    Args:
        per_array: one :class:`FeatureFrames` per hub member, ``None``
            for a member whose reader produced nothing.
        with_liveness: also emit a per-member ``alive@i`` channel
            (ones for a surviving view, zeros for a zero-filled one) so
            the learner can tell a dead viewpoint from a silent room.
            Off by default — it changes the channel set, so a model
            must be trained with it on.

    Raises:
        ValueError: when the list is empty or no member survived.
    """
    if not per_array:
        raise ValueError("nothing to merge")
    reference = next((feat for feat in per_array if feat is not None), None)
    if reference is None:
        raise ValueError("no surviving hub members to merge")
    with span("hub.merge", members=len(per_array)) as merge_span:
        frames = reference.n_frames
        tags = reference.n_tags
        zero_filled = 0
        channels: dict[str, np.ndarray] = {}
        for idx, feat in enumerate(per_array):
            alive = (
                feat is not None
                and feat.n_frames == frames
                and feat.n_tags == tags
            )
            if not alive:
                zero_filled += 1
            source = feat.channels if alive else {
                name: np.zeros_like(arr) for name, arr in reference.channels.items()
            }
            for name, arr in source.items():
                channels[f"{name}@{idx}"] = arr
            if with_liveness:
                channels[f"alive@{idx}"] = np.full(
                    (frames, tags, 1), 1.0 if alive else 0.0
                )
        merge_span.set(zero_filled=zero_filled)
    counter("hub.views_merged_total").inc(len(per_array) - zero_filled)
    counter("hub.views_zero_filled_total").inc(zero_filled)
    return FeatureFrames(channels=channels, label=reference.label)
