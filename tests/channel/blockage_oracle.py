"""Reference per-tag, per-leg channel: the parity oracle for the batched channel.

Production renders every tag of an inventory in one pass
(:meth:`repro.channel.model.MultipathChannel.one_way_gains`): one
geometry table over all (tag, slot) rows, and one vectorised pass per
blocker over its ``(legs × rows)`` leg table.  This module keeps the
implementations those passes replaced — one :func:`crossing_mask` call
per (leg, blocker) pair on ``(T, 2)`` trajectories, one helper per path
family, and one ``np.sum`` plus one diffuse draw per tag — so the tests
compare the production path against an independent second
implementation bit for bit instead of against itself.

:func:`path_components` and :func:`one_way_gains` have the signatures of
the methods they mirror (with the channel as their first argument), so a
test can install them on :class:`MultipathChannel` with ``monkeypatch``
and render whole corpora through the oracle.
"""

from __future__ import annotations

import numpy as np

from repro.channel.model import _SCATTER_CROSS_SECTION, BodyTrack, MultipathChannel, PathComponent
from repro.channel.vectorized import as_traj, pairwise_distance
from repro.geometry.shapes import WALLS


def segment_point_distance(a: np.ndarray, b: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Distance from point trajectory ``p`` to segment ``a(t)--b(t)``.

    All three arguments broadcast between static ``(2,)`` points and
    ``(T, 2)`` trajectories.

    Returns:
        ``(T,)`` shortest distances.
    """
    steps = max(
        np.atleast_2d(np.asarray(a)).shape[0],
        np.atleast_2d(np.asarray(b)).shape[0],
        np.atleast_2d(np.asarray(p)).shape[0],
    )
    ta, tb, tp = as_traj(a, steps), as_traj(b, steps), as_traj(p, steps)
    d = tb - ta
    len_sq = np.einsum("ij,ij->i", d, d)
    diff = tp - ta
    # Parameter of the closest point, clamped to the segment.
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(len_sq > 0.0, np.einsum("ij,ij->i", diff, d) / len_sq, 0.0)
    t = np.clip(t, 0.0, 1.0)
    closest = ta + t[:, None] * d
    return np.linalg.norm(tp - closest, axis=1)


def crossing_mask(
    a: np.ndarray,
    b: np.ndarray,
    blocker: np.ndarray,
    radius: float,
    *,
    endpoint_margin: float = 1e-6,
) -> np.ndarray:
    """Boolean mask of time steps where the leg ``a--b`` crosses a disc.

    A leg whose *endpoint* sits inside the disc (e.g. the path
    terminates at the body that carries the tag) is not counted as
    blocked by that disc.

    Returns:
        ``(T,)`` boolean array, True where blocked.
    """
    steps = max(
        np.atleast_2d(np.asarray(a)).shape[0],
        np.atleast_2d(np.asarray(b)).shape[0],
        np.atleast_2d(np.asarray(blocker)).shape[0],
    )
    ta, tb, tc = as_traj(a, steps), as_traj(b, steps), as_traj(blocker, steps)
    near = segment_point_distance(ta, tb, tc) <= radius
    at_start = np.linalg.norm(ta - tc, axis=1) <= radius + endpoint_margin
    at_end = np.linalg.norm(tb - tc, axis=1) <= radius + endpoint_margin
    return near & ~at_start & ~at_end


def leg_blockage(
    channel: MultipathChannel,
    a: np.ndarray,
    b: np.ndarray,
    bodies: tuple[BodyTrack, ...],
    skip_body: int | None = None,
    skip_scatterer: int | None = None,
) -> np.ndarray:
    """Multiplicative amplitude factor for discs crossed by leg a--b."""
    steps = max(np.atleast_2d(a).shape[0], np.atleast_2d(b).shape[0])
    factor = np.ones(steps)
    for idx, body in enumerate(bodies):
        if idx == skip_body:
            continue
        mask = crossing_mask(a, b, body.positions, body.radius)
        factor = np.where(mask, factor * channel.params.body_blockage, factor)
    for idx, scat in enumerate(channel.room.scatterers):
        if idx == skip_scatterer:
            continue
        centre = np.asarray(scat.position.as_tuple())
        mask = crossing_mask(a, b, centre, scat.radius)
        factor = np.where(mask, factor * channel.params.furniture_blockage, factor)
    return factor


def _wall_component(channel, wall, ant, tag, lam, bodies) -> PathComponent:
    image = channel._mirror_traj(tag, wall)
    d = np.maximum(pairwise_distance(ant, image), 0.05)
    hit = channel._wall_hit_point(ant, image, wall)
    block = leg_blockage(channel, ant, hit, bodies) * leg_blockage(
        channel, hit, tag, bodies
    )
    amp = channel.params.reference_amplitude * channel.room.wall_reflectivity / d
    gain = amp * block * np.exp(-2j * np.pi * d / lam)
    return PathComponent(f"wall:{wall}", d, gain)


def _corner_components(channel, ant, tag, lam, bodies) -> list[PathComponent]:
    out: list[PathComponent] = []
    rho2 = channel.room.wall_reflectivity**2
    for wall_a in ("left", "right"):
        for wall_b in ("bottom", "top"):
            image = channel._mirror_traj(channel._mirror_traj(tag, wall_b), wall_a)
            d = np.maximum(pairwise_distance(ant, image), 0.05)
            hit_a = channel._wall_hit_point(ant, image, wall_a)
            single = channel._mirror_traj(tag, wall_b)
            hit_b = channel._wall_hit_point(hit_a, single, wall_b)
            block = leg_blockage(channel, ant, hit_a, bodies) * leg_blockage(
                channel, hit_b, tag, bodies
            )
            amp = channel.params.reference_amplitude * rho2 / d
            gain = amp * block * np.exp(-2j * np.pi * d / lam)
            out.append(PathComponent(f"wall2:{wall_a}+{wall_b}", d, gain))
    return out


def _scatter_component(
    channel,
    name,
    scatter_pos,
    reflectivity,
    ant,
    tag,
    lam,
    bodies,
    skip_body=None,
    skip_scatterer=None,
) -> PathComponent:
    steps = ant.shape[0]
    pos = as_traj(np.asarray(scatter_pos, dtype=np.float64), steps)
    d1 = np.maximum(pairwise_distance(ant, pos), 0.05)
    d2 = np.maximum(pairwise_distance(pos, tag), 0.05)
    d = d1 + d2
    skips = {"skip_body": skip_body, "skip_scatterer": skip_scatterer}
    block = leg_blockage(channel, ant, pos, bodies, **skips) * leg_blockage(
        channel, pos, tag, bodies, **skips
    )
    amp = (
        channel.params.reference_amplitude
        * reflectivity
        * _SCATTER_CROSS_SECTION
        / (d1 * d2)
    )
    gain = amp * block * np.exp(-2j * np.pi * d / lam)
    return PathComponent(name, d, gain)


def path_components(
    channel: MultipathChannel,
    antenna: np.ndarray,
    tag: np.ndarray,
    wavelength: np.ndarray | float,
    bodies: tuple[BodyTrack, ...] = (),
    carrier: int | None = None,
) -> list[PathComponent]:
    """Every resolved path, one :func:`crossing_mask` call per leg and blocker.

    A one-position body track (a standing torso) is tiled over the time
    axis first, so every blocker is a full ``(T, 2)`` trajectory here.
    """
    steps = channel._steps(antenna, [tag], bodies)
    bodies = tuple(
        BodyTrack(np.tile(b.positions, (steps, 1)), b.radius) if b.steps == 1 else b
        for b in bodies
    )
    ant = as_traj(np.asarray(antenna, dtype=np.float64), steps)
    tag_t = as_traj(np.asarray(tag, dtype=np.float64), steps)
    lam = np.broadcast_to(np.asarray(wavelength, dtype=np.float64), (steps,))
    amp0 = channel.params.reference_amplitude

    components: list[PathComponent] = []
    d0 = np.maximum(pairwise_distance(ant, tag_t), 0.05)
    block = leg_blockage(channel, ant, tag_t, bodies)
    gain = (amp0 / d0) * block * np.exp(-2j * np.pi * d0 / lam)
    components.append(PathComponent("direct", d0, gain))

    if channel.room.wall_reflectivity > 0.0:
        for wall in WALLS:
            components.append(_wall_component(channel, wall, ant, tag_t, lam, bodies))
        if channel.max_reflection_order >= 2:
            components.extend(_corner_components(channel, ant, tag_t, lam, bodies))

    for idx, scatterer in enumerate(channel.room.scatterers):
        components.append(
            _scatter_component(
                channel,
                f"scatterer:{idx}",
                np.asarray(scatterer.position.as_tuple()),
                scatterer.reflectivity,
                ant,
                tag_t,
                lam,
                bodies,
                skip_scatterer=idx,
            )
        )

    for idx, body in enumerate(bodies):
        if carrier is not None and idx == carrier:
            continue
        components.append(
            _scatter_component(
                channel,
                f"body:{idx}",
                body.positions,
                channel.params.body_reflectivity,
                ant,
                tag_t,
                lam,
                bodies,
                skip_body=idx,
            )
        )
    return components


def one_way_gains(
    channel: MultipathChannel,
    antenna: np.ndarray,
    tags,
    wavelength: np.ndarray | float,
    bodies: tuple[BodyTrack, ...] = (),
    carriers=None,
    include_diffuse: bool = True,
) -> np.ndarray:
    """One tag at a time: the per-tag loop the batched entry point replaced.

    Each tag sums its :func:`path_components` with ``np.sum`` and then
    draws its diffuse clutter from ``channel.rng``, in tag order.  The
    signature mirrors :meth:`MultipathChannel.one_way_gains`, so a test
    can install this function on the class with ``monkeypatch``.
    """
    carriers = [None] * len(tags) if carriers is None else carriers
    rows = []
    for tag, carrier in zip(tags, carriers, strict=True):
        comps = path_components(channel, antenna, tag, wavelength, bodies, carrier)
        total = np.sum([c.gain for c in comps], axis=0)
        if include_diffuse and channel.params.diffuse_level > 0.0:
            steps = total.shape[0]
            sigma = channel.params.diffuse_level * channel.params.reference_amplitude
            noise = channel.rng.normal(0.0, sigma, steps) + 1j * channel.rng.normal(
                0.0, sigma, steps
            )
            total = total + noise
        rows.append(total)
    return np.stack(rows)
