"""Indoor room model.

The paper evaluates in two rooms: a 13.75 m x 10.50 m laboratory full of
file cabinets and desks (high multipath) and an 8.75 m x 7.50 m empty
hall (low multipath).  A :class:`Room` is a rectangle plus a set of
static scatterers (furniture) each of which both reflects energy and
blocks line-of-sight paths that cross it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.geometry.shapes import Rectangle
from repro.geometry.vec import Vec2


@dataclass(frozen=True)
class Scatterer:
    """A static reflective object (cabinet, desk, metal shelf).

    Attributes:
        position: scatterer centre.
        radius: blockage radius in metres.
        reflectivity: amplitude reflection coefficient in ``[0, 1]``.
    """

    position: Vec2
    radius: float
    reflectivity: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.reflectivity <= 1.0:
            raise ValueError("reflectivity must be in [0, 1]")
        if self.radius <= 0.0:
            raise ValueError("radius must be positive")


@dataclass(frozen=True)
class Room:
    """A rectangular room with reflective walls and furniture scatterers.

    Attributes:
        bounds: the floor rectangle in metres.
        wall_reflectivity: amplitude reflection coefficient of the walls.
        scatterers: static furniture acting as extra reflectors/blockers.
        name: label used in reports (e.g. ``"laboratory"``).
    """

    bounds: Rectangle
    wall_reflectivity: float = 0.45
    scatterers: tuple[Scatterer, ...] = field(default_factory=tuple)
    name: str = "room"

    def __post_init__(self) -> None:
        if not 0.0 <= self.wall_reflectivity <= 1.0:
            raise ValueError("wall_reflectivity must be in [0, 1]")
        for s in self.scatterers:
            if not self.bounds.contains(s.position):
                raise ValueError(f"scatterer at {s.position} lies outside the room")

    def contains(self, p: Vec2, margin: float = 0.0) -> bool:
        """True when ``p`` is inside the floor rectangle."""
        return self.bounds.contains(p, margin)


def make_laboratory(seed: int = 7) -> Room:
    """The high-multipath room used in the paper (13.75 m x 10.50 m).

    Furniture is drawn deterministically from ``seed`` so experiments
    are reproducible while still filling the room irregularly, the way
    Fig. 7(c) shows cabinets and desks along the walls and in the middle.
    """
    rng = np.random.default_rng(seed)
    bounds = Rectangle(0.0, 0.0, 13.75, 10.50)
    scatterers = []
    for _ in range(10):
        pos = Vec2(
            float(rng.uniform(0.8, bounds.x1 - 0.8)),
            float(rng.uniform(0.8, bounds.y1 - 0.8)),
        )
        scatterers.append(
            Scatterer(
                position=pos,
                radius=float(rng.uniform(0.25, 0.55)),
                reflectivity=float(rng.uniform(0.35, 0.7)),
            )
        )
    return Room(
        bounds=bounds,
        wall_reflectivity=0.5,
        scatterers=tuple(scatterers),
        name="laboratory",
    )


def make_hall() -> Room:
    """The low-multipath empty hall (8.75 m x 7.50 m, no furniture)."""
    return Room(
        bounds=Rectangle(0.0, 0.0, 8.75, 7.50),
        wall_reflectivity=0.35,
        scatterers=(),
        name="hall",
    )


def make_open_space() -> Room:
    """A huge anechoic-like space: walls so far away reflections vanish.

    Used by unit tests that need a single-path ground truth.
    """
    return Room(
        bounds=Rectangle(-500.0, -500.0, 500.0, 500.0),
        wall_reflectivity=0.0,
        scatterers=(),
        name="open-space",
    )
