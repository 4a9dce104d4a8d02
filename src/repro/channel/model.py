"""Image-source multipath model of the indoor backscatter channel.

The paper's central premise (Section II, Fig. 2) is that an indoor tag
reaches the reader over several paths — the direct ray, wall
reflections, and rays scattered by furniture and *other people's
bodies* — and that moving bodies re-shape the whole angle-of-arrival
spectrum: they block some paths and create new ones.  This module
produces exactly that behaviour from first principles:

* the direct path and four first-order wall reflections come from the
  image-source method;
* every furniture disc and every human torso acts as a point scatterer
  (one extra path per scatterer) and as a blocker (crossing a disc
  attenuates a path leg);
* a diffuse complex-Gaussian term models the unresolved clutter.

A backscatter read is *round trip*: during a TDM slot the active
antenna both illuminates the tag and receives the reply, so the
measured channel is the **square of the one-way gain** computed here
(reciprocity makes the downlink and uplink gains identical).
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.channel.params import ChannelParams
from repro.channel.vectorized import as_traj, pairwise_distance
from repro.geometry.room import Room
from repro.geometry.shapes import WALLS

_SCATTER_CROSS_SECTION = 0.8
"""Effective scattering cross-section (metres) of a point scatterer."""

_ENDPOINT_MARGIN = 1e-6
"""Tolerance (metres) for a leg endpoint coinciding with a blocker disc."""

ROW_BUDGET = 640
"""Most ``(tag, slot)`` rows in one moving-scene geometry table.

:meth:`MultipathChannel.one_way_gains` stacks the tags of a moving scene
along the slot axis and cuts the stack into tables of at most this many
rows, so the ``(legs, rows)`` blockage planes keep one size however many
tags and slots an inventory has."""

_Path = tuple[str, np.ndarray, np.ndarray, np.ndarray | None]
"""``(name, distance, gain or amplitude, worn-row mask or None)`` of one path."""


@dataclass(frozen=True)
class BodyTrack:
    """A moving human torso over the simulation window.

    Attributes:
        positions: ``(T, 2)`` torso-centre trajectory.
        radius: torso disc radius in metres.
    """

    positions: np.ndarray
    radius: float = 0.18

    def __post_init__(self) -> None:
        arr = np.asarray(self.positions, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError("positions must have shape (T, 2)")
        object.__setattr__(self, "positions", arr)
        if self.radius <= 0.0:
            raise ValueError("radius must be positive")

    @property
    def steps(self) -> int:
        """Number of sampled positions in the track."""
        return self.positions.shape[0]


@dataclass(frozen=True)
class PathComponent:
    """One resolved propagation path.

    Attributes:
        name: human-readable path label (``"direct"``, ``"wall:left"``,
            ``"scatterer:3"``, ``"body:1"``).
        distance: ``(T,)`` one-way path length in metres.
        gain: ``(T,)`` complex one-way gain (amplitude and phase).
    """

    name: str
    distance: np.ndarray
    gain: np.ndarray


@dataclass
class MultipathChannel:
    """One-way indoor channel between a reader antenna and a tag.

    Args:
        room: the environment (walls + furniture).
        params: physical constants; see :class:`ChannelParams`.
        rng: random generator used only for the diffuse clutter term.
        max_reflection_order: 1 (default) models first-order wall
            bounces; 2 adds the four corner (double-bounce) images.
            Second-order rays carry the squared wall coefficient, so
            they refine rather than reshape the spectra — the default
            keeps cached corpora comparable across versions.
    """

    room: Room
    params: ChannelParams = field(default_factory=ChannelParams)
    rng: np.random.Generator = field(default_factory=lambda: np.random.default_rng(0))
    max_reflection_order: int = 1

    def __post_init__(self) -> None:
        if self.max_reflection_order not in (1, 2):
            raise ValueError("max_reflection_order must be 1 or 2")

    def one_way_gains(
        self,
        antenna: np.ndarray,
        tags: Sequence[np.ndarray],
        wavelength: np.ndarray | float,
        bodies: tuple[BodyTrack, ...] = (),
        carriers: Sequence[int | None] | None = None,
        include_diffuse: bool = True,
    ) -> np.ndarray:
        """Total complex one-way gain of every tag of one inventory.

        All tags of a TDM inventory share the antenna trajectory, the
        hop plan and the bodies, so the geometry, blockage and phase
        steps run once over all of them (:meth:`_paths`).  Each tag's
        path gains are summed in path order, and then, when
        ``include_diffuse`` is set, zero-mean complex Gaussian clutter
        is added, drawn per tag in tag order.  Row ``k`` has the bytes
        of tag ``k`` rendered on its own, with the tags rendered one by
        one in order on the same ``rng``.

        Args:
            antenna: antenna position, ``(2,)`` or per-step ``(T, 2)``.
            tags: one position per tag, each ``(2,)`` or ``(T, 2)``.
            wavelength: carrier wavelength in metres, scalar or ``(T,)``.
            bodies: moving torsos in the scene.
            carriers: per tag, the index into ``bodies`` of the torso
                wearing it, or None; all None when omitted.
            include_diffuse: add the diffuse clutter term.

        Returns:
            ``(len(tags), T)`` complex array.
        """
        tags = [np.asarray(t, dtype=np.float64) for t in tags]
        carriers = [None] * len(tags) if carriers is None else list(carriers)
        if not tags or len(carriers) != len(tags):
            raise ValueError("need at least one tag and one carrier entry per tag")
        steps = self._steps(antenna, tags, bodies)
        total = np.empty((len(tags), steps), dtype=np.complex128)
        flat = total.reshape(-1)
        for rows, paths in self._paths(antenna, tags, wavelength, bodies, carriers):
            out = flat[rows]
            if steps == 1:
                # One slot per tag: np.sum reduces the path axis pairwise,
                # which the in-place adds below would not reproduce bit
                # for bit.
                kept = [(gain, worn) for _, _, gain, worn in paths]
                for i in range(len(out)):
                    out[i] = np.sum(
                        [g[i : i + 1] for g, w in kept if w is None or not w[i]], axis=0
                    )[0]
                continue
            _, _, first, _ = next(paths)
            out[:] = first
            for _, _, gain, worn in paths:
                np.add(out, gain, out=out, where=True if worn is None else ~worn)
        if include_diffuse and self.params.diffuse_level > 0.0:
            sigma = self.params.diffuse_level * self.params.reference_amplitude
            for row in total:
                row += self.rng.normal(0.0, sigma, steps) + 1j * self.rng.normal(
                    0.0, sigma, steps
                )
        return total

    def one_way_gain(
        self,
        antenna: np.ndarray,
        tag: np.ndarray,
        wavelength: np.ndarray | float,
        bodies: tuple[BodyTrack, ...] = (),
        carrier: int | None = None,
        include_diffuse: bool = True,
    ) -> np.ndarray:
        """Total complex one-way gain of one tag over time.

        :meth:`one_way_gains` for a single tag.

        Returns:
            ``(T,)`` complex array.
        """
        return self.one_way_gains(
            antenna, [tag], wavelength, bodies, [carrier], include_diffuse
        )[0]

    def path_components(
        self,
        antenna: np.ndarray,
        tag: np.ndarray,
        wavelength: np.ndarray | float,
        bodies: tuple[BodyTrack, ...] = (),
        carrier: int | None = None,
    ) -> list[PathComponent]:
        """Enumerate every resolved path between antenna and tag.

        :meth:`_paths` for a single tag, with its row chunks joined.

        Args:
            antenna: antenna position, ``(2,)`` or per-step ``(T, 2)``.
            tag: tag position, ``(2,)`` or ``(T, 2)``.
            wavelength: carrier wavelength in metres, scalar or ``(T,)``.
            bodies: moving torsos in the scene; a one-position track is
                a standing torso and broadcasts over the time axis.
            carrier: index into ``bodies`` of the torso wearing this
                tag; that torso still blocks but does not generate a
                scattered path (the tag sits on it, so the "path" would
                be a degenerate near-field loop).

        Returns:
            A list of :class:`PathComponent`, strongest physics first
            (direct, walls, furniture, bodies).
        """
        tags = [np.asarray(tag, dtype=np.float64)]
        cuts = self._paths(antenna, tags, wavelength, bodies, [carrier])
        chunks = [list(paths) for _, paths in cuts]
        return [
            PathComponent(
                parts[0][0],
                np.concatenate([d for _, d, _, _ in parts]),
                np.concatenate([g for _, _, g, _ in parts]),
            )
            for parts in zip(*chunks)
        ]

    def _paths(
        self,
        antenna: np.ndarray,
        tags: list[np.ndarray],
        wavelength: np.ndarray | float,
        bodies: tuple[BodyTrack, ...],
        carriers: list[int | None],
    ) -> Iterator[tuple[slice, Iterator[_Path]]]:
        """Every path of every tag, over the tag-major ``(tag, slot)`` rows.

        Two steps.  The geometry step (:meth:`_geometry`) gives each
        path's length and its amplitude times blockage; both depend
        only on positions.  The phase step multiplies in
        ``exp(-2j*pi*d/lambda)`` per slot.  In a stationary scene
        (``(2,)`` tags and only one-position body tracks) the geometry
        depends on the antenna row alone, so it runs once over a table
        of (tag, distinct antenna row) rows and is indexed back to the
        slots; a TDM inventory has one row per array element.  A moving
        scene stacks the tags along the slot axis and runs the geometry
        on consecutive cuts of at most :data:`ROW_BUDGET` rows.  Every
        row gives the same bytes either way.

        Yields:
            ``(rows, paths)`` per cut: ``rows`` slices the flattened
            ``(len(tags), T)`` rows, and ``paths`` lazily yields
            ``(name, distance, gain, worn)`` per path in output order,
            with ``worn`` the mask of rows whose tag is worn by this
            body path's torso (None when no row is).  A path worn on
            every row of a cut is left out of it.
        """
        n = len(tags)
        steps = self._steps(antenna, tags, bodies)
        ant = as_traj(np.asarray(antenna, dtype=np.float64), steps)
        lam = np.broadcast_to(np.asarray(wavelength, dtype=np.float64), (steps,))
        lam = np.tile(lam, n)
        worn_by = np.array([-1 if c is None else c for c in carriers])
        if all(t.shape == (2,) for t in tags) and all(b.steps == 1 for b in bodies):
            table, inverse = np.unique(ant, axis=0, return_inverse=True)
            width = len(table)
            geometry = self._geometry(
                np.tile(table, (n, 1)),
                np.repeat(np.stack(tags), width, axis=0),
                bodies,
                np.repeat(worn_by, width),
            )
            index = (np.arange(n)[:, None] * width + inverse.ravel()).ravel()
            yield slice(0, n * steps), self._phase(geometry, lam, index)
            return
        ant = np.tile(ant, (n, 1))
        tag_t = np.concatenate([as_traj(t, steps) for t in tags])
        stacked = tuple(
            b if b.steps == 1 else BodyTrack(np.tile(b.positions, (n, 1)), b.radius)
            for b in bodies
        )
        worn_by = np.repeat(worn_by, steps)
        for start in range(0, n * steps, ROW_BUDGET):
            rows = slice(start, start + ROW_BUDGET)
            cut = tuple(
                b if b.steps == 1 else BodyTrack(b.positions[rows], b.radius) for b in stacked
            )
            geometry = self._geometry(ant[rows], tag_t[rows], cut, worn_by[rows])
            yield rows, self._phase(geometry, lam[rows])

    @staticmethod
    def _phase(
        geometry: list[_Path], lam: np.ndarray, index: np.ndarray | None = None
    ) -> Iterator[_Path]:
        """The phase step: each path's rows, gathered by ``index``, times ``exp(-2j*pi*d/lam)``."""
        for name, d, amp, worn in geometry:
            if index is not None:
                d, amp = d[index], amp[index]
                worn = None if worn is None else worn[index]
            yield name, d, amp * np.exp(-2j * np.pi * d / lam), worn

    def _geometry(
        self,
        ant: np.ndarray,
        tag_t: np.ndarray,
        bodies: tuple[BodyTrack, ...],
        worn_by: np.ndarray,
    ) -> list[_Path]:
        """``(name, distance, amplitude * blockage, worn)`` per path, ``(S,)`` each.

        ``ant`` and ``tag_t`` are ``(S, 2)`` trajectories; every body
        track has ``S`` positions or one.  ``worn_by`` gives, per row,
        the index of the torso wearing that row's tag (-1 for none); a
        body path is left out where every row is worn by its torso, and
        otherwise carries the mask of the rows that are.  Every path
        leg goes into one table first; :meth:`_blockage` then evaluates
        the whole table against each blocker in turn.
        """
        steps = ant.shape[0]
        centres = [b.positions[0] if b.steps == 1 else b.positions for b in bodies]
        amp0 = self.params.reference_amplitude
        # Every straight leg as a (start, end) pair of (S, 2) trajectories.
        legs: list[tuple[np.ndarray, np.ndarray]] = []

        def leg(start: np.ndarray, end: np.ndarray) -> int:
            legs.append((start, end))
            return len(legs) - 1

        # (name, distance, amplitude, leg rows, worn) per path, in output order.
        paths: list[tuple[str, np.ndarray, np.ndarray, tuple[int, ...], np.ndarray | None]] = []

        # Direct ray.
        d0 = np.maximum(pairwise_distance(ant, tag_t), 0.05)
        paths.append(("direct", d0, amp0 / d0, (leg(ant, tag_t),), None))

        # Wall reflections via the image-source method.
        if self.room.wall_reflectivity > 0.0:
            rho = self.room.wall_reflectivity
            for wall in WALLS:
                image = self._mirror_traj(tag_t, wall)
                d = np.maximum(pairwise_distance(ant, image), 0.05)
                hit = self._wall_hit_point(ant, image, wall)
                rows = (leg(ant, hit), leg(hit, tag_t))
                paths.append((f"wall:{wall}", d, amp0 * rho / d, rows, None))
            if self.max_reflection_order >= 2:
                # Corner images: mirroring across one horizontal and one
                # vertical wall; the ray reflects off both, so it carries
                # the coefficient squared.  Blockage is approximated on
                # the end legs (antenna->first hit, second hit->tag),
                # which dominate the in-room portion of the path; the
                # second hit comes from the single-mirrored geometry.
                rho2 = rho**2
                for wall_a in ("left", "right"):
                    for wall_b in ("bottom", "top"):
                        single = self._mirror_traj(tag_t, wall_b)
                        image = self._mirror_traj(single, wall_a)
                        d = np.maximum(pairwise_distance(ant, image), 0.05)
                        hit_a = self._wall_hit_point(ant, image, wall_a)
                        hit_b = self._wall_hit_point(hit_a, single, wall_b)
                        rows = (leg(ant, hit_a), leg(hit_b, tag_t))
                        name = f"wall2:{wall_a}+{wall_b}"
                        paths.append((name, d, amp0 * rho2 / d, rows, None))

        # Furniture scatterers, then human torsos as dynamic scatterers:
        # antenna -> scatterer -> tag.
        scatter = [
            (f"scatterer:{idx}", np.asarray(s.position.as_tuple()), s.reflectivity, None)
            for idx, s in enumerate(self.room.scatterers)
        ]
        for idx, centre in enumerate(centres):
            worn = worn_by == idx
            if not worn.all():
                reflectivity = self.params.body_reflectivity
                scatter.append((f"body:{idx}", centre, reflectivity, worn if worn.any() else None))
        for name, centre, reflectivity, worn in scatter:
            pos = as_traj(np.asarray(centre, dtype=np.float64), steps)
            d1 = np.maximum(pairwise_distance(ant, pos), 0.05)
            d2 = np.maximum(pairwise_distance(pos, tag_t), 0.05)
            amp = amp0 * reflectivity * _SCATTER_CROSS_SECTION / (d1 * d2)
            paths.append((name, d1 + d2, amp, (leg(ant, pos), leg(pos, tag_t)), worn))

        factor = self._blockage(legs, bodies, centres)
        geometry = []
        for name, d, amp, rows, worn in paths:
            block = factor[rows[0]] if len(rows) == 1 else factor[rows[0]] * factor[rows[1]]
            geometry.append((name, d, amp * block, worn))
        return geometry

    def round_trip_gain(
        self,
        antenna: np.ndarray,
        tag: np.ndarray,
        wavelength: np.ndarray | float,
        bodies: tuple[BodyTrack, ...] = (),
        carrier: int | None = None,
        include_diffuse: bool = True,
    ) -> np.ndarray:
        """Monostatic backscatter gain: the one-way gain squared.

        The same antenna transmits and receives within a TDM slot, so
        by reciprocity the measured channel is ``g ** 2``.
        """
        g = self.one_way_gain(antenna, tag, wavelength, bodies, carrier, include_diffuse)
        return g * g

    # ------------------------------------------------------------------
    # Internals

    @staticmethod
    def _steps(
        antenna: np.ndarray, tags: Sequence[np.ndarray], bodies: tuple[BodyTrack, ...]
    ) -> int:
        candidates = [np.atleast_2d(np.asarray(antenna)).shape[0]]
        candidates.extend(np.atleast_2d(np.asarray(t)).shape[0] for t in tags)
        candidates.extend(b.steps for b in bodies)
        steps = max(candidates)
        for b in bodies:
            if b.steps != steps and b.steps != 1:
                raise ValueError("all body tracks must share the time axis")
        return steps

    def _blockage(
        self,
        legs: list[tuple[np.ndarray, np.ndarray]],
        bodies: tuple[BodyTrack, ...],
        centres: list[np.ndarray],
    ) -> np.ndarray:
        """Multiplicative amplitude factor of every leg: ``(legs, T)``.

        One vectorised pass per blocker over the whole ``(legs, T)``
        table: bodies first, then furniture, so each leg multiplies its
        losses in the same order as a per-leg loop would.  A disc never
        blocks a leg with an endpoint inside it, which covers the legs
        of the disc's own scattered path (they end at its centre).
        Blockers are not broadcast together: a ``(legs, blockers, T)``
        temporary costs far more memory than the loop over blockers
        costs time.
        """
        starts, ends = zip(*legs)
        ax = np.stack([p[:, 0] for p in starts])
        ay = np.stack([p[:, 1] for p in starts])
        bx = np.stack([p[:, 0] for p in ends])
        by = np.stack([p[:, 1] for p in ends])
        dx = bx - ax
        dy = by - ay
        len_sq = dx * dx + dy * dy
        degenerate = ~(len_sq > 0.0)
        blockers = [
            (centre, body.radius, self.params.body_blockage)
            for body, centre in zip(bodies, centres)
        ] + [
            (np.asarray(s.position.as_tuple()), s.radius, self.params.furniture_blockage)
            for s in self.room.scatterers
        ]
        factor = np.ones(ax.shape)
        # Four (legs, T) scratch planes serve every blocker.  The in-place
        # ufuncs below do the same per-element operations, in the same
        # order, as the plain expressions in their comments.
        px, py, t, w = (np.empty(ax.shape) for _ in range(4))
        for centre, radius, loss in blockers:
            cx, cy = centre[..., 0], centre[..., 1]
            # p = centre - start;  t = clip(p.d / |d|^2, 0, 1), 0 when |d| = 0
            np.subtract(cx, ax, out=px)
            np.subtract(cy, ay, out=py)
            np.multiply(px, dx, out=t)
            np.multiply(py, dy, out=w)
            t += w
            with np.errstate(divide="ignore", invalid="ignore"):
                t /= len_sq
            t[degenerate] = 0.0
            np.clip(t, 0.0, 1.0, out=t)
            # near = |centre - (start + t d)| <= radius
            np.multiply(t, dy, out=w)
            w += ay
            np.subtract(cy, w, out=w)
            w *= w
            t *= dx
            t += ax
            np.subtract(cx, t, out=t)
            t *= t
            t += w
            np.sqrt(t, out=t)
            mask = t <= radius
            # Blocked only with both endpoints outside the disc:
            # mask &= ~(|p| <= reach) & ~(|centre - end| <= reach).
            reach = radius + _ENDPOINT_MARGIN
            np.subtract(cx, bx, out=w)
            np.subtract(cy, by, out=t)
            for qx, qy in ((px, py), (w, t)):
                qx *= qx
                qy *= qy
                qx += qy
                np.sqrt(qx, out=qx)
                mask &= ~(qx <= reach)
            np.multiply(factor, loss, out=factor, where=mask)
        return factor

    def _mirror_traj(self, traj: np.ndarray, wall: str) -> np.ndarray:
        b = self.room.bounds
        out = np.array(traj, dtype=np.float64, copy=True)
        if wall == "left":
            out[:, 0] = 2.0 * b.x0 - out[:, 0]
        elif wall == "right":
            out[:, 0] = 2.0 * b.x1 - out[:, 0]
        elif wall == "bottom":
            out[:, 1] = 2.0 * b.y0 - out[:, 1]
        elif wall == "top":
            out[:, 1] = 2.0 * b.y1 - out[:, 1]
        else:
            raise ValueError(f"unknown wall {wall!r}")
        return out

    def _wall_hit_point(
        self, ant: np.ndarray, image: np.ndarray, wall: str
    ) -> np.ndarray:
        """Where the antenna--image ray crosses the mirroring wall."""
        b = self.room.bounds
        d = image - ant
        if wall in ("left", "right"):
            coord = b.x0 if wall == "left" else b.x1
            axis = 0
        else:
            coord = b.y0 if wall == "bottom" else b.y1
            axis = 1
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.where(
                np.abs(d[:, axis]) > 1e-12,
                (coord - ant[:, axis]) / d[:, axis],
                0.5,
            )
        t = np.clip(t, 0.0, 1.0)
        return ant + t[:, None] * d
