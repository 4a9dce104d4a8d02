"""Scene description handed from the motion layer to the reader.

A scene is everything RF-relevant about one observation window: where
every tag is at every TDM slot, and where every human torso is.  The
motion package builds scenes from activity scripts; the reader renders
them into LLRP read logs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.channel.model import BodyTrack
from repro.hardware.tag import Tag


@dataclass(frozen=True)
class TagTrack:
    """One tag's trajectory over the scene window.

    Attributes:
        tag: the physical tag.
        positions: ``(T, 2)`` positions per TDM slot, or ``(2,)`` for a
            stationary tag.
        carrier: index into the scene's ``bodies`` of the person
            wearing this tag, or ``None`` for a tag pinned to the
            environment.
    """

    tag: Tag
    positions: np.ndarray
    carrier: int | None = None

    def __post_init__(self) -> None:
        arr = np.asarray(self.positions, dtype=np.float64)
        if arr.shape != (2,) and (arr.ndim != 2 or arr.shape[1] != 2):
            raise ValueError("positions must be (2,) or (T, 2)")
        object.__setattr__(self, "positions", arr)


@dataclass(frozen=True)
class Scene:
    """Tags plus bodies over a common time axis.

    Attributes:
        tag_tracks: every tag in the field of view.
        bodies: every human torso (tagged or not).
        n_slots: length of the time axis; stationary entries broadcast.
    """

    tag_tracks: tuple[TagTrack, ...]
    bodies: tuple[BodyTrack, ...] = ()

    def __post_init__(self) -> None:
        if not self.tag_tracks:
            raise ValueError("a scene needs at least one tag")
        steps = {
            t.positions.shape[0]
            for t in self.tag_tracks
            if t.positions.ndim == 2
        } | {b.steps for b in self.bodies}
        if len(steps) > 1:
            raise ValueError(f"inconsistent time axes in scene: {sorted(steps)}")
        for track in self.tag_tracks:
            if track.carrier is not None and not (
                0 <= track.carrier < len(self.bodies)
            ):
                raise ValueError(f"carrier index {track.carrier} out of range")

    @property
    def n_slots(self) -> int:
        """Trajectory length in slots (1 when everything is stationary)."""
        for track in self.tag_tracks:
            if track.positions.ndim == 2:
                return int(track.positions.shape[0])
        if self.bodies:
            return self.bodies[0].steps
        return 1

    @property
    def epcs(self) -> tuple[str, ...]:
        """EPC strings in tag-index order."""
        return tuple(t.tag.epc for t in self.tag_tracks)

    def frozen(self) -> Scene:
        """Everyone holds still at their starting pose.

        This is the stationary-tag bootstrap that phase calibration
        reads (paper Section III-A).  Tags and torsos become single
        positions, so the channel computes the scene's geometry once
        per antenna position instead of once per slot.
        """
        tracks = tuple(
            TagTrack(tag=t.tag, positions=np.atleast_2d(t.positions)[0], carrier=t.carrier)
            for t in self.tag_tracks
        )
        bodies = tuple(BodyTrack(b.positions[:1], b.radius) for b in self.bodies)
        return Scene(tag_tracks=tracks, bodies=bodies)


def stationary_scene(tags_and_positions: list[tuple[Tag, tuple[float, float]]]) -> Scene:
    """A scene of motionless tags and no bodies.

    The channel renders it with its geometry computed once per antenna
    position (see :meth:`repro.channel.model.MultipathChannel.path_components`).
    """
    tracks = tuple(
        TagTrack(tag=tag, positions=np.asarray(pos, dtype=np.float64))
        for tag, pos in tags_and_positions
    )
    return Scene(tag_tracks=tracks, bodies=())
