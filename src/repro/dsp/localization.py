"""Tag bearing estimation and multi-array localization.

The paper's related work (RF-IDraw, Tagoram, D-Watch) uses exactly the
measurement stack built here for *positioning*; this module closes
that loop as an extension: the dominant MUSIC peak gives a per-array
bearing, and two or more arrays (an antenna hub) triangulate a 2-D tag
position by intersecting bearing rays in a least-squares sense.

M2AI itself deliberately does not need tag locations ("tags can be
arbitrarily placed"), so nothing in the classification pipeline
depends on this module — it exists because a deployment that already
has the hub usually wants both answers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dsp.frames import tag_music_spectra
from repro.hardware.antenna import UniformLinearArray
from repro.hardware.llrp import ReadLog


@dataclass(frozen=True)
class BearingEstimate:
    """A per-array bearing to one tag.

    Attributes:
        angle_deg: estimated arrival angle from the array axis.
        power: pseudospectrum peak height (relative confidence).
        n_frames: frames that contributed.
    """

    angle_deg: float
    power: float
    n_frames: int


def estimate_bearing(
    log: ReadLog, psi: np.ndarray, tag: int, n_frames: int | None = None
) -> BearingEstimate:
    """Dominant arrival angle of one tag over a log.

    Averages the per-dwell MUSIC pseudospectra (angle-wise) and takes
    the global peak — robust against single-dwell fades.

    Raises:
        ValueError: when no frame has enough antennas observed.
    """
    results = tag_music_spectra(log, psi, tag, n_frames=n_frames)
    if not results:
        raise ValueError(f"tag {tag}: no usable frames for bearing estimation")
    accumulated = sum(r.spectrum / r.spectrum.max() for r in results)
    peak = int(np.argmax(accumulated))
    return BearingEstimate(
        angle_deg=float(results[0].angles_deg[peak]),
        power=float(accumulated[peak] / len(results)),
        n_frames=len(results),
    )


def bearing_ray(array: UniformLinearArray, angle_deg: float) -> tuple[np.ndarray, np.ndarray]:
    """Origin and unit direction of a bearing ray in room coordinates.

    The AoA angle is measured from the array axis; the returned
    direction points into the half-plane the array faces.
    """
    origin = np.asarray(array.center.as_tuple())
    theta = np.deg2rad(angle_deg)
    axis = np.asarray(array.axis_unit.as_tuple())
    normal = np.array([-axis[1], axis[0]])
    direction = np.cos(theta) * axis + np.sin(theta) * normal
    return origin, direction


def triangulate(
    arrays: list[UniformLinearArray], bearings_deg: list[float]
) -> np.ndarray:
    """Least-squares intersection of two or more bearing rays.

    Each ray contributes the constraint that the point lies on its
    line; the normal-equations solution minimises the summed squared
    perpendicular distances.

    Args:
        arrays: the observing arrays.
        bearings_deg: matching per-array AoA estimates.

    Returns:
        The ``(2,)`` estimated position.

    Raises:
        ValueError: with fewer than two rays or a degenerate geometry
            (near-parallel rays).
    """
    if len(arrays) != len(bearings_deg):
        raise ValueError("arrays and bearings must align")
    if len(arrays) < 2:
        raise ValueError("triangulation needs at least two arrays")
    a = np.zeros((2, 2))
    b = np.zeros(2)
    for array, bearing in zip(arrays, bearings_deg):
        origin, direction = bearing_ray(array, bearing)
        # Projector onto the ray's normal space.
        projector = np.eye(2) - np.outer(direction, direction)
        a += projector
        b += projector @ origin
    if abs(np.linalg.det(a)) < 1e-9:
        raise ValueError("degenerate geometry: bearing rays are parallel")
    return np.linalg.solve(a, b)


def localize_tag(
    logs: list[ReadLog],
    psis: list[np.ndarray],
    arrays: list[UniformLinearArray],
    tag: int,
) -> tuple[np.ndarray, list[BearingEstimate]]:
    """Position one tag from a hub's per-array logs.

    Args:
        logs: one read log per array.
        psis: matching calibrated doubled phases.
        arrays: the hub's arrays.
        tag: tag index (consistent across logs).

    Returns:
        ``(position, bearings)`` — the estimate and its evidence.
    """
    if not (len(logs) == len(psis) == len(arrays)):
        raise ValueError("logs, psis and arrays must align")
    bearings = [
        estimate_bearing(log, psi, tag) for log, psi in zip(logs, psis)
    ]
    position = triangulate(arrays, [b.angle_deg for b in bearings])
    return position, bearings
