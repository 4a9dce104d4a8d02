"""Phase calibration across frequency-hopping channels (Section III-A).

Hopping scrambles phases: every channel adds its own offset from the
reader oscillator, the RF chain, and the tag antenna's frequency
response.  The paper's fix (Eq. 1) collects ~10 s of reads from the tag
while stationary, takes the per-channel median phase, and maps every
runtime read onto a common reference channel:

    phi(t) = phi_j(t) - median(phi_j) + median(phi_r)

Our implementation works in the *doubled-phase* domain (see
:func:`repro.dsp.angles.fold_double`) so the R420's pi ambiguity drops
out before medians are taken, and keeps one table entry per
(tag, antenna port, channel) since real ports have distinct cable
offsets.  Channels never visited during calibration are covered by a
linear phase-vs-frequency fit — exactly the linearity the paper
demonstrates in Fig. 3.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.dsp.angles import fold_double, grouped_circular_median, wrap_2pi
from repro.hardware.llrp import ReadLog
from repro.obs.tracing import span

_MIN_CHANNELS_FOR_FIT = 4


@dataclass
class _AntennaCalibration:
    """Per-(tag, antenna) calibration state."""

    offsets: np.ndarray  # (n_channels,) doubled-phase offset or nan
    fit_intercept: float
    fit_slope_per_mhz: float
    has_fit: bool
    _resolved: np.ndarray | None = field(default=None, compare=False, repr=False)

    def offset_for(self, channel: int, frequencies_hz: np.ndarray) -> float:
        """Offset for a channel never observed during calibration.

        Fallback chain: the linear phase-vs-frequency fit when enough
        channels were observed, else the nearest *observed* channel by
        frequency (the best local estimate a sparse bootstrap allows —
        e.g. a reference channel blanked by a fade), else zero.
        """
        value = self.offsets[channel]
        if not np.isnan(value):
            return float(value)
        if self.has_fit:
            f_mhz = frequencies_hz[channel] / 1e6
            return float(self.fit_intercept + self.fit_slope_per_mhz * f_mhz)
        observed = np.flatnonzero(~np.isnan(self.offsets))
        if observed.size == 0:
            return 0.0
        nearest = observed[
            np.argmin(np.abs(frequencies_hz[observed] - frequencies_hz[channel]))
        ]
        return float(self.offsets[nearest])

    def resolved_offsets(self, frequencies_hz: np.ndarray) -> np.ndarray:
        """Every channel's offset with the fallback chain applied.

        The same chain as :meth:`offset_for` (observed, then the linear
        fit, then the nearest observed channel with the first on ties,
        then zero), as one masked expression over all channels.  The
        table is immutable after :func:`_fit_antenna`, so the result is
        cached — :meth:`PhaseCalibrator.calibrate` sits on the
        per-window serving hot path.
        """
        if self._resolved is None:
            missing = np.isnan(self.offsets)
            if self.has_fit:
                fallback = self.fit_intercept + self.fit_slope_per_mhz * (frequencies_hz / 1e6)
            elif missing.all():
                fallback = np.zeros(frequencies_hz.size)
            else:
                observed = np.flatnonzero(~missing)
                gap = np.abs(frequencies_hz[observed] - frequencies_hz[:, None])
                fallback = self.offsets[observed[np.argmin(gap, axis=1)]]
            self._resolved = np.where(missing, fallback, self.offsets)
        return self._resolved


@dataclass
class PhaseCalibrator:
    """Fitted per-(tag, antenna, channel) phase offset table.

    Build with :meth:`fit` on a stationary-scene calibration log, then
    map runtime logs with :meth:`calibrate`.

    Attributes:
        frequencies_hz: the reader's channel table.
        reference_channel: channel everything is mapped onto.
    """

    frequencies_hz: np.ndarray
    reference_channel: int
    _tables: dict[tuple[int, int], _AntennaCalibration] = field(default_factory=dict)
    _dense: np.ndarray | None = field(default=None, compare=False, repr=False)

    @classmethod
    def fit(cls, calibration_log: ReadLog) -> "PhaseCalibrator":
        """Learn offsets from a stationary-tag inventory.

        Args:
            calibration_log: reads taken while every tag holds still
                (the paper's ~10 s bootstrap).

        Returns:
            A fitted calibrator covering every tag in the log.

        Raises:
            ValueError: when the log is empty, or a read's channel is
                outside the reader's channel table.
        """
        if calibration_log.n_reads == 0:
            raise ValueError("calibration log is empty")
        meta = calibration_log.meta
        with span(
            "dsp.calibration.fit",
            reads=calibration_log.n_reads,
            tags=calibration_log.n_tags,
        ):
            freqs = np.asarray(meta.frequencies_hz, dtype=np.float64)
            calibrator = cls(
                frequencies_hz=freqs, reference_channel=meta.reference_channel
            )
            psi = fold_double(calibration_log.phase_rad)
            n_tags, n_ants, n_ch = calibration_log.n_tags, meta.n_antennas, freqs.size
            tags = calibration_log.tag_index
            ants = calibration_log.antenna
            channels = calibration_log.channel
            # Reads of tags or ports outside the table are not calibrated.
            known = (tags >= 0) & (tags < n_tags) & (ants >= 0) & (ants < n_ants)
            if np.any((channels[known] < 0) | (channels[known] >= n_ch)):
                raise ValueError("read channel outside the reader's channel table")
            keys = ((tags * n_ants + ants) * n_ch + channels)[known]
            observed, medians = grouped_circular_median(psi[known], keys)
            # (tag, port, channel) offsets; NaN where never observed.
            table = np.full(n_tags * n_ants * n_ch, np.nan)
            table[observed] = medians
            table = table.reshape(n_tags, n_ants, n_ch)
            for tag in range(n_tags):
                for ant in range(n_ants):
                    calibrator._tables[(tag, ant)] = _fit_antenna(table[tag, ant], freqs)
        return calibrator

    def calibrate(self, log: ReadLog) -> np.ndarray:
        """Calibrated doubled phases for every read in ``log``.

        Implements Eq. 1 in the doubled domain:
        ``psi_cal = psi - offset[channel] + offset[reference]``.

        Args:
            log: runtime read log from the same reader session.

        A (tag, antenna) pair that produced no calibration reads at all
        (e.g. the tag was occluded for the whole bootstrap) is passed
        through uncalibrated — the graceful degradation a streaming
        deployment needs.

        Returns:
            ``(R,)`` calibrated doubled phases in ``[0, 2*pi)``.
        """
        with span("dsp.calibration.calibrate", reads=log.n_reads):
            psi = fold_double(log.phase_rad)
            dense = self._dense_offsets()
            n_tag_rows, n_ant_rows, _n_ch = dense.shape
            # Out-of-table tags/ports clip onto the all-NaN guard row.
            tags = np.minimum(log.tag_index, n_tag_rows - 1)
            ants = np.minimum(log.antenna, n_ant_rows - 1)
            per_read = dense[tags, ants, log.channel]
            ref = dense[tags, ants, self.reference_channel]
            calibrated = wrap_2pi(psi - per_read + ref)
            # A (tag, antenna) pair with no calibration table passes
            # through uncalibrated.
            out = np.where(np.isnan(per_read), psi, calibrated)
        return out

    def _dense_offsets(self) -> np.ndarray:
        """Resolved offsets as one ``(tags+1, antennas+1, channels)`` array.

        Rows beyond the fitted table (and pairs that produced no
        calibration reads) are NaN — :meth:`calibrate` maps those reads
        straight through.  Built lazily once: the table is immutable
        after :meth:`fit`, and per-read gathers from a dense array are
        what keep ``calibrate`` off the serving hot path's profile.
        """
        if self._dense is None:
            n_ch = self.frequencies_hz.size
            max_tag = max((k[0] for k in self._tables), default=-1)
            max_ant = max((k[1] for k in self._tables), default=-1)
            dense = np.full((max_tag + 2, max_ant + 2, n_ch), np.nan)
            for (tag, ant), table in self._tables.items():
                dense[tag, ant] = table.resolved_offsets(self.frequencies_hz)
            self._dense = dense
        return self._dense

    def coverage(self, tag: int, antenna: int) -> float:
        """Fraction of channels directly observed during calibration."""
        table = self._tables[(tag, antenna)]
        return float(np.mean(~np.isnan(table.offsets)))

    def interpolated_channels(self, tag: int, antenna: int) -> np.ndarray:
        """Channels covered only by interpolation for one (tag, port).

        These are the channels with no direct bootstrap observation;
        :meth:`calibrate` serves them through the linear fit or the
        nearest observed channel.  An empty array means full coverage.
        """
        table = self._tables[(tag, antenna)]
        return np.flatnonzero(np.isnan(table.offsets))

    def interpolation_report(self) -> dict[tuple[int, int], np.ndarray]:
        """Interpolated channels for every calibrated (tag, port) pair.

        The degradation report a deployment wants in its logs: which
        parts of the calibration table are guesses rather than
        measurements (and, via
        ``log.meta.reference_channel in report[key]``, whether the
        reference channel itself had to be interpolated).
        """
        return {
            key: self.interpolated_channels(*key) for key in sorted(self._tables)
        }


def uncalibrated(log: ReadLog) -> np.ndarray:
    """The Fig. 10 "no calibration" baseline: raw reported phases.

    The paper's ablation feeds the reader API's phase output straight
    into the pipeline ("directly using the measured phase by Impinj
    R420 reader API is not accurate enough").  Raw means *everything*
    stays in: the per-channel hopping offsets **and** the per-read pi
    ambiguity — it is the calibration stage (working in the folded,
    doubled domain) that neutralises both.  Downstream processing still
    interprets these values in its doubled-phase convention, exactly
    what "skip the preprocessing" does to a pipeline built for
    calibrated inputs.
    """
    return wrap_2pi(np.asarray(log.phase_rad, dtype=np.float64))


def _fit_antenna(offsets: np.ndarray, freqs: np.ndarray) -> _AntennaCalibration:
    """Fit the linear phase-vs-frequency model over observed channels."""
    observed = np.flatnonzero(~np.isnan(offsets))
    if observed.size < _MIN_CHANNELS_FOR_FIT:
        return _AntennaCalibration(offsets, 0.0, 0.0, has_fit=False)
    f_mhz = freqs[observed] / 1e6
    order = np.argsort(f_mhz)
    f_sorted = f_mhz[order]
    psi_sorted = np.unwrap(offsets[observed][order])
    slope, intercept = np.polyfit(f_sorted, psi_sorted, 1)
    return _AntennaCalibration(
        offsets=offsets,
        fit_intercept=float(intercept),
        fit_slope_per_mhz=float(slope),
        has_fit=True,
    )
