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

    def path_components(
        self,
        antenna: np.ndarray,
        tag: np.ndarray,
        wavelength: np.ndarray | float,
        bodies: tuple[BodyTrack, ...] = (),
        carrier: int | None = None,
    ) -> list[PathComponent]:
        """Enumerate every resolved path between antenna and tag.

        Two steps.  The geometry step (:meth:`_geometry`) gives each
        path's length and its amplitude times blockage; both depend
        only on positions.  The phase step multiplies in
        ``exp(-2j*pi*d/lambda)`` per slot.  In a stationary scene (a
        ``(2,)`` tag and only one-position body tracks) the geometry
        depends on the antenna row alone, so it runs once per distinct
        antenna row and is indexed back to the slots; a TDM inventory
        has one row per array element.  Every other scene runs it per
        slot.  Both give the same bytes.

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
        steps = self._steps(antenna, tag, bodies)
        ant = as_traj(np.asarray(antenna, dtype=np.float64), steps)
        tag = np.asarray(tag, dtype=np.float64)
        lam = np.broadcast_to(np.asarray(wavelength, dtype=np.float64), (steps,))
        if tag.shape == (2,) and all(b.steps == 1 for b in bodies):
            rows, inverse = np.unique(ant, axis=0, return_inverse=True)
            inverse = inverse.ravel()
            geometry = [
                (name, d[inverse], amp[inverse])
                for name, d, amp in self._geometry(
                    rows, as_traj(tag, len(rows)), bodies, carrier
                )
            ]
        else:
            geometry = self._geometry(ant, as_traj(tag, steps), bodies, carrier)
        return [
            PathComponent(name, d, amp * np.exp(-2j * np.pi * d / lam))
            for name, d, amp in geometry
        ]

    def _geometry(
        self,
        ant: np.ndarray,
        tag_t: np.ndarray,
        bodies: tuple[BodyTrack, ...],
        carrier: int | None,
    ) -> list[tuple[str, np.ndarray, np.ndarray]]:
        """``(name, distance, amplitude * blockage)`` per path, ``(S,)`` each.

        ``ant`` and ``tag_t`` are ``(S, 2)`` trajectories; every body
        track has ``S`` positions or one.  Every path leg goes into one
        table first; :meth:`_blockage` then evaluates the whole table
        against each blocker in turn.
        """
        steps = ant.shape[0]
        centres = [b.positions[0] if b.steps == 1 else b.positions for b in bodies]
        amp0 = self.params.reference_amplitude
        # Every straight leg as a (start, end) pair of (S, 2) trajectories.
        legs: list[tuple[np.ndarray, np.ndarray]] = []

        def leg(start: np.ndarray, end: np.ndarray) -> int:
            legs.append((start, end))
            return len(legs) - 1

        # (name, distance, amplitude, leg rows) per path, in output order.
        paths: list[tuple[str, np.ndarray, np.ndarray, tuple[int, ...]]] = []

        # Direct ray.
        d0 = np.maximum(pairwise_distance(ant, tag_t), 0.05)
        paths.append(("direct", d0, amp0 / d0, (leg(ant, tag_t),)))

        # Wall reflections via the image-source method.
        if self.room.wall_reflectivity > 0.0:
            rho = self.room.wall_reflectivity
            for wall in WALLS:
                image = self._mirror_traj(tag_t, wall)
                d = np.maximum(pairwise_distance(ant, image), 0.05)
                hit = self._wall_hit_point(ant, image, wall)
                rows = (leg(ant, hit), leg(hit, tag_t))
                paths.append((f"wall:{wall}", d, amp0 * rho / d, rows))
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
                        paths.append((name, d, amp0 * rho2 / d, rows))

        # Furniture scatterers, then human torsos as dynamic scatterers:
        # antenna -> scatterer -> tag.
        scatter = [
            (f"scatterer:{idx}", np.asarray(s.position.as_tuple()), s.reflectivity)
            for idx, s in enumerate(self.room.scatterers)
        ] + [
            (f"body:{idx}", centre, self.params.body_reflectivity)
            for idx, centre in enumerate(centres)
            if carrier is None or idx != carrier
        ]
        for name, centre, reflectivity in scatter:
            pos = as_traj(np.asarray(centre, dtype=np.float64), steps)
            d1 = np.maximum(pairwise_distance(ant, pos), 0.05)
            d2 = np.maximum(pairwise_distance(pos, tag_t), 0.05)
            amp = amp0 * reflectivity * _SCATTER_CROSS_SECTION / (d1 * d2)
            paths.append((name, d1 + d2, amp, (leg(ant, pos), leg(pos, tag_t))))

        factor = self._blockage(legs, bodies, centres)
        geometry = []
        for name, d, amp, rows in paths:
            block = factor[rows[0]] if len(rows) == 1 else factor[rows[0]] * factor[rows[1]]
            geometry.append((name, d, amp * block))
        return geometry

    def one_way_gain(
        self,
        antenna: np.ndarray,
        tag: np.ndarray,
        wavelength: np.ndarray | float,
        bodies: tuple[BodyTrack, ...] = (),
        carrier: int | None = None,
        include_diffuse: bool = True,
    ) -> np.ndarray:
        """Total complex one-way gain over time.

        Sums :meth:`path_components` and, when ``include_diffuse`` is
        set, adds zero-mean complex Gaussian clutter.

        Returns:
            ``(T,)`` complex array.
        """
        comps = self.path_components(antenna, tag, wavelength, bodies, carrier)
        total = np.sum([c.gain for c in comps], axis=0)
        if include_diffuse and self.params.diffuse_level > 0.0:
            steps = total.shape[0]
            sigma = self.params.diffuse_level * self.params.reference_amplitude
            noise = self.rng.normal(0.0, sigma, steps) + 1j * self.rng.normal(
                0.0, sigma, steps
            )
            total = total + noise
        return total

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
        antenna: np.ndarray, tag: np.ndarray, bodies: tuple[BodyTrack, ...]
    ) -> int:
        candidates = [np.atleast_2d(np.asarray(antenna)).shape[0]]
        candidates.append(np.atleast_2d(np.asarray(tag)).shape[0])
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
