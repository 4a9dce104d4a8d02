"""Simulated Impinj Speedway R420-class RFID reader.

The reader ties the whole substrate together: it walks the TDM
inventory schedule (one antenna port active per 25 ms slot), follows
the FCC hop plan, renders every tag through the multipath channel, and
emits an LLRP-style :class:`~repro.hardware.llrp.ReadLog` with all the
measurement artifacts the paper's preprocessing has to undo:

* per-channel oscillator phase offsets, linear in frequency (Fig. 3);
* per-port cable/RF-chain phase offsets;
* per-tag antenna phase response (linear in frequency);
* the R420's pi phase ambiguity — the reported phase is the true
  phase or the true phase plus pi, stable per (tag, port, channel)
  within a session;
* phase/RSSI quantisation and Gaussian measurement noise;
* missed reads: tags that harvest too little power stay silent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.channel.link import above_noise_floor, gain_to_rssi_dbm, harvest_mask
from repro.channel.model import MultipathChannel
from repro.channel.params import ChannelParams
from repro.geometry.room import Room
from repro.hardware.antenna import UniformLinearArray
from repro.hardware.hopping import FrequencyHopper
from repro.hardware.llrp import ReaderMeta, ReadLog
from repro.hardware.scene import Scene
from repro.obs.tracing import span
from repro.runtime.retry import RetryPolicy, call_with_retry

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class ReaderConfig:
    """Behavioural knobs of the simulated reader.

    Attributes:
        array: the physical antenna array.
        slot_s: TDM inventory slot per antenna port (25 ms).
        phase_noise_std_rad: Gaussian phase measurement noise.
        rssi_noise_std_db: Gaussian RSSI measurement noise.
        phase_lsb_rad: phase quantisation step (the R420 reports
            12-bit phase, 2*pi/4096).
        rssi_lsb_db: RSSI quantisation step.
        random_miss_prob: probability a well-powered read is still
            lost (collisions, CRC failures).
        enable_hopping_offsets: include oscillator + tag + cable phase
            offsets (disable for idealised unit tests).
        enable_pi_ambiguity: include the R420 pi ambiguity.
        oscillator_slope_range: per-session oscillator phase slope is
            drawn uniformly from this range (rad/MHz).
        cable_phase_std_rad: per-port cable/RF-chain phase mismatch.
            AoA arrays are built with phase-matched coax (standard
            practice in ArrayTrack/RF-IDraw-style systems), so the
            residual mismatch is small; Eq. 1 calibration cannot remove
            a per-port offset because it maps every channel onto the
            reference channel *of the same port*.
    """

    array: UniformLinearArray
    slot_s: float = 0.025
    phase_noise_std_rad: float = 0.06
    rssi_noise_std_db: float = 0.8
    phase_lsb_rad: float = TWO_PI / 4096.0
    rssi_lsb_db: float = 0.5
    random_miss_prob: float = 0.02
    enable_hopping_offsets: bool = True
    enable_pi_ambiguity: bool = True
    oscillator_slope_range: tuple[float, float] = (0.2, 0.5)
    cable_phase_std_rad: float = 0.15


class Reader:
    """One reader session.

    Offsets and ambiguity flips are drawn once at construction and then
    frozen — like powering on a real reader — so a calibration
    inventory taken through the same ``Reader`` instance observes the
    same offsets as later activity inventories.

    Args:
        config: reader knobs.
        room: environment the reader operates in.
        channel_params: propagation constants.
        hopper: hop schedule; a default FCC 50-channel plan when None.
        seed: session seed (fixes offsets, noise, and hop order).
        retry_policy: when set, transient transport failures during
            :meth:`inventory` are retried under this policy (seeded
            full-jitter backoff; see :mod:`repro.runtime.retry`).
    """

    def __init__(
        self,
        config: ReaderConfig,
        room: Room,
        channel_params: ChannelParams | None = None,
        hopper: FrequencyHopper | None = None,
        seed: int = 0,
        retry_policy: RetryPolicy | None = None,
    ) -> None:
        self.config = config
        self.room = room
        self.params = channel_params or ChannelParams()
        self.retry_policy = retry_policy
        self._rng = np.random.default_rng(seed)
        self._seed = seed
        self.hopper = hopper or FrequencyHopper(
            rng=np.random.default_rng(self._rng.integers(2**31))
        )
        self.channel = MultipathChannel(
            room=room,
            params=self.params,
            rng=np.random.default_rng(self._rng.integers(2**31)),
        )
        n_channels = self.hopper.n_channels
        freqs_mhz = self.hopper.frequencies_hz / 1e6
        if config.enable_hopping_offsets:
            slope = self._rng.uniform(*config.oscillator_slope_range)
            jitter = self._rng.normal(0.0, 0.08, n_channels)
            self._oscillator_offsets = (
                slope * (freqs_mhz - freqs_mhz.min()) + jitter
            )
            self._cable_offsets = self._rng.normal(
                0.0, config.cable_phase_std_rad, config.array.n_elements
            )
        else:
            self._oscillator_offsets = np.zeros(n_channels)
            self._cable_offsets = np.zeros(config.array.n_elements)
        self._antenna_positions = config.array.positions()

    @property
    def meta(self) -> ReaderMeta:
        """Session metadata attached to every emitted log."""
        return ReaderMeta(
            n_antennas=self.config.array.n_elements,
            slot_s=self.config.slot_s,
            dwell_s=self.hopper.dwell_s,
            spacing_m=self.config.array.spacing,
            frequencies_hz=self.hopper.frequencies_hz,
            reference_channel=self.hopper.reference_channel,
        )

    @property
    def oscillator_offsets(self) -> np.ndarray:
        """Per-channel oscillator phase offsets (exposed for tests)."""
        return self._oscillator_offsets.copy()

    def inventory(self, scene: Scene, duration_s: float, t0: float = 0.0) -> ReadLog:
        """Run the TDM inventory over ``scene`` for ``duration_s`` seconds.

        Every tag is read once per slot through the currently active
        antenna port (an idealisation of EPC Gen2 rounds that yields
        ~40 reads/s/tag, matching real deployments).

        With a ``retry_policy`` configured, transient transport
        failures (``ConnectionError``/``TimeoutError``/``OSError``
        flavoured, per the policy's ``retry_on``) are retried with
        seeded full-jitter backoff before giving up.

        Args:
            scene: tags and bodies; trajectories must be sampled at the
                slot rate or be stationary.
            duration_s: inventory length.
            t0: timestamp of the first slot.

        Returns:
            The read log, filtered down to reads that physically
            succeed (harvest + SNR + random losses).

        Raises:
            RetryExhaustedError: when a retry policy is configured and
                every attempt failed (from
                :mod:`repro.runtime.retry`).
        """
        if self.retry_policy is None:
            return self._inventory_once(scene, duration_s, t0)
        return call_with_retry(
            self._inventory_once,
            scene,
            duration_s,
            t0,
            policy=self.retry_policy,
            stage="ingest.inventory",
        )

    def _inventory_once(
        self, scene: Scene, duration_s: float, t0: float = 0.0
    ) -> ReadLog:
        """One inventory attempt (the retry-free transport call)."""
        n_slots = int(round(duration_s / self.config.slot_s))
        if n_slots <= 0:
            raise ValueError("duration too short for a single slot")
        scene_slots = scene.n_slots
        if scene_slots not in (1, n_slots):
            raise ValueError(
                f"scene has {scene_slots} slots but inventory needs {n_slots}"
            )

        antenna_idx = np.arange(n_slots) % self.config.array.n_elements
        channels = self.hopper.channels_for_slots(n_slots, self.config.slot_s)
        wavelengths = self.hopper.wavelength(channels)
        ant_traj = self._antenna_positions[antenna_idx]
        timestamps = t0 + (np.arange(n_slots) + 0.5) * self.config.slot_s
        frequencies = self.hopper.frequencies_hz[channels]

        records: list[dict[str, np.ndarray]] = []
        with span("ingest.inventory", slots=n_slots, tags=len(scene.tag_tracks)):
            self._render_tracks(scene, records, antenna_idx, channels, wavelengths,
                                ant_traj, timestamps, frequencies, n_slots)

        def cat(name: str) -> np.ndarray:
            return np.concatenate([r[name] for r in records])

        order = np.argsort(cat("timestamp_s"), kind="stable")
        return ReadLog(
            epcs=scene.epcs,
            tag_index=cat("tag_index")[order],
            antenna=cat("antenna")[order],
            channel=cat("channel")[order],
            frequency_hz=cat("frequency_hz")[order],
            timestamp_s=cat("timestamp_s")[order],
            phase_rad=cat("phase_rad")[order],
            rssi_dbm=cat("rssi_dbm")[order],
            meta=self.meta,
        )

    def _render_tracks(
        self,
        scene: Scene,
        records: list[dict[str, np.ndarray]],
        antenna_idx: np.ndarray,
        channels: np.ndarray,
        wavelengths: np.ndarray,
        ant_traj: np.ndarray,
        timestamps: np.ndarray,
        frequencies: np.ndarray,
        n_slots: int,
    ) -> None:
        """Render every tag track through the channel into ``records``.

        Split out of :meth:`inventory` so the ``ingest.inventory`` span
        covers exactly the channel rendering: one
        :meth:`~repro.channel.model.MultipathChannel.one_way_gains` pass
        over every tag, then the per-tag read impairments.
        """
        gains = self.channel.one_way_gains(
            ant_traj,
            [track.positions for track in scene.tag_tracks],
            wavelengths,
            bodies=scene.bodies,
            carriers=[track.carrier for track in scene.tag_tracks],
        )
        for k, (track, g) in enumerate(zip(scene.tag_tracks, gains)):
            h = g * g
            phase = np.angle(h)
            if self.config.enable_hopping_offsets:
                phase = (
                    phase
                    + self._oscillator_offsets[channels]
                    + self._cable_offsets[antenna_idx]
                    + track.tag.phase_offsets(self.hopper.frequencies_hz)[channels]
                )
            if self.config.enable_pi_ambiguity:
                flips = self._flip_table(track.tag.epc)
                phase = phase + np.pi * flips[antenna_idx, channels]
            if self.config.phase_noise_std_rad > 0:
                phase = phase + self._rng.normal(
                    0.0, self.config.phase_noise_std_rad, n_slots
                )
            phase = np.mod(phase, TWO_PI)
            if self.config.phase_lsb_rad > 0:
                phase = np.round(phase / self.config.phase_lsb_rad) * self.config.phase_lsb_rad
                phase = np.mod(phase, TWO_PI)

            rssi = gain_to_rssi_dbm(h, self.params)
            if self.config.rssi_noise_std_db > 0:
                rssi = rssi + self._rng.normal(0.0, self.config.rssi_noise_std_db, n_slots)
            if self.config.rssi_lsb_db > 0:
                rssi = np.round(rssi / self.config.rssi_lsb_db) * self.config.rssi_lsb_db

            keep = harvest_mask(g, self.params) & above_noise_floor(rssi, self.params)
            if self.config.random_miss_prob > 0:
                keep &= self._rng.random(n_slots) >= self.config.random_miss_prob

            records.append(
                {
                    "tag_index": np.full(int(keep.sum()), k, dtype=np.int64),
                    "antenna": antenna_idx[keep],
                    "channel": channels[keep],
                    "frequency_hz": frequencies[keep],
                    "timestamp_s": timestamps[keep],
                    "phase_rad": phase[keep],
                    "rssi_dbm": rssi[keep],
                }
            )

    def _flip_table(self, epc: str) -> np.ndarray:
        """Stable pi-ambiguity flips for one tag, ``(N, n_channels)``.

        Deterministic in (session seed, epc): within a session the
        ambiguity does not flip read-to-read, which is what makes
        median-based calibration possible on real hardware.
        """
        from repro.hardware.tag import stable_seed

        rng = np.random.default_rng(stable_seed("pi-flip", self._seed, epc))
        return rng.integers(
            0, 2, size=(self.config.array.n_elements, self.hopper.n_channels)
        )
