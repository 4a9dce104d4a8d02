"""Streaming activity identification over a continuous read log.

A deployment does not see neatly cut samples: the reader emits one
endless LLRP stream while residents switch activities.  The streaming
identifier slides a fixed observation window over that stream,
featurises each window exactly like training samples, and emits a
labelled, confidence-scored decision per window — the paper's
"examines both spatial and temporal information in realtime".

No window is ever silently dropped: a window the identifier cannot (or
should not) classify yields an explicit *abstain* decision carrying a
machine-readable reason, so a supervisor process can distinguish "the
room is quiet" from "the reader is failing".
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.dataset import ActivityDataset
from repro.core.pipeline import M2AIPipeline
from repro.dsp.calibration import PhaseCalibrator, uncalibrated
from repro.dsp.features import M2AIFeaturizer
from repro.hardware.llrp import ReadLog
from repro.obs.metrics import counter
from repro.obs.tracing import span
from repro.runtime.breaker import stage_boundary

ABSTAIN = "abstain"
"""Label carried by abstain decisions."""

REASON_TOO_FEW_READS = "too_few_reads"
"""Abstain reason: the window held fewer than ``min_reads`` reads."""

REASON_DEAD_PORTS = "dead_ports"
"""Abstain reason: fewer than ``min_live_ports`` ports reported reads."""

REASON_LOW_CONFIDENCE = "low_confidence"
"""Abstain reason: top softmax probability below ``min_confidence``."""

REASON_STAGE_FAILURE = "stage_failure"
"""Abstain reason: a pipeline stage raised under supervision."""

REASON_BREAKER_OPEN = "breaker_open"
"""Abstain reason: a stage's circuit breaker rejected the window."""

REASON_DEADLINE = "deadline_exceeded"
"""Abstain reason: the window missed its wall-clock deadline."""

REASON_ADMISSION = "admission_rejected"
"""Abstain reason: the fleet rejected the stream at admission (over
capacity), so its windows are answered without being served."""


@dataclass(frozen=True)
class WindowDecision:
    """One emitted decision.

    Attributes:
        t_start_s: window start time in stream time.
        t_end_s: window end time.
        label: predicted activity class, or :data:`ABSTAIN`.
        confidence: softmax probability of the predicted class (0 for
            an abstain).
        n_reads: reads that fell inside the window.
        abstained: True when the identifier declined to classify.
        reason: machine-readable abstain reason (one of
            :data:`REASON_TOO_FEW_READS`, :data:`REASON_DEAD_PORTS`,
            :data:`REASON_LOW_CONFIDENCE`), None for a labelled
            decision.
    """

    t_start_s: float
    t_end_s: float
    label: str
    confidence: float
    n_reads: int
    abstained: bool = False
    reason: str | None = None


def abstain_decision(
    start: float, end: float, n_reads: int, reason: str
) -> WindowDecision:
    """Build (and count) one abstain decision.

    The single construction point for abstains — the identifier and
    the runtime supervisor both emit through it, so the
    ``streaming.abstain_total`` counter stays authoritative.
    """
    counter("streaming.abstain_total", reason=reason).inc()
    return WindowDecision(
        t_start_s=start,
        t_end_s=end,
        label=ABSTAIN,
        confidence=0.0,
        n_reads=n_reads,
        abstained=True,
        reason=reason,
    )


def split_windows(
    log: ReadLog, window_s: float, hop_s: float | None = None
) -> list[tuple[float, ReadLog]]:
    """Cut a continuous log into complete observation windows.

    Uses the same windowing grid as
    :meth:`StreamingIdentifier.identify` (start snapped to the dwell
    grid, a window complete once its final dwell has started), so a
    supervisor slicing windows up front sees exactly the windows the
    batched path would.

    Args:
        log: the continuous session log.
        window_s: observation window length.
        hop_s: stride between windows (defaults to ``window_s``).

    Returns:
        ``(t_start_s, window_log)`` pairs in time order; empty when
        the log cannot hold one complete window.

    Raises:
        ValueError: on a non-positive ``window_s`` or ``hop_s``.
    """
    sorted_log, starts, lo, hi = _window_grid(log, window_s, hop_s)
    return [
        (w_start, sorted_log.take(slice(int(w_lo), int(w_hi))))
        for w_start, w_lo, w_hi in zip(starts, lo, hi)
    ]


def _window_grid(
    log: ReadLog, window_s: float, hop_s: float | None
) -> tuple[ReadLog, list[float], np.ndarray, np.ndarray]:
    """The windowing grid shared by :func:`split_windows` and ``identify``.

    The log is sorted by timestamp once; windows start on the dwell
    grid at the first read and advance by ``hop_s`` (default
    ``window_s``), and a window is complete once its final dwell has
    started.  Each window is the ``searchsorted`` slice
    ``[lo, hi)`` of the sorted log.

    Returns:
        ``(sorted_log, starts, lo, hi)``; ``starts`` is empty when the
        log cannot hold one complete window.

    Raises:
        ValueError: on a non-positive ``window_s`` or ``hop_s`` (a zero
            or negative hop would never advance the window).
    """
    if window_s is None or window_s <= 0:
        raise ValueError("window_s must be positive")
    if hop_s is not None and hop_s <= 0:
        raise ValueError("hop_s must be positive")
    hop = window_s if hop_s is None else hop_s
    if log.n_reads == 0:
        return log, [], np.zeros(0, dtype=int), np.zeros(0, dtype=int)
    if np.all(log.timestamp_s[1:] >= log.timestamp_s[:-1]):
        sorted_log = log
    else:
        sorted_log = log.take(np.argsort(log.timestamp_s, kind="stable"))
    ts = sorted_log.timestamp_s
    dwell = log.meta.dwell_s
    start = np.floor(float(ts[0]) / dwell) * dwell
    t_end = float(ts[-1]) + dwell
    starts: list[float] = []
    while start + window_s <= t_end + 1e-9:
        starts.append(float(start))
        start += hop
    starts_arr = np.asarray(starts, dtype=np.float64)
    lo = np.searchsorted(ts, starts_arr, side="left")
    hi = np.searchsorted(ts, starts_arr + window_s, side="left")
    return sorted_log, starts, lo, hi


@dataclass
class StreamingIdentifier:
    """Sliding-window classifier over a continuous log.

    Args:
        pipeline: a fitted :class:`M2AIPipeline`.
        calibrator: the session's phase calibrator (None = raw doubled
            phases, only sensible in tests).
        window_s: observation window length — must match the frame
            count the pipeline was trained with.
        hop_s: stride between consecutive windows (defaults to the
            window length: back-to-back, non-overlapping decisions).
        featurizer: preprocessing used during training.
        min_reads: windows with fewer reads abstain (tag outage).
        min_live_ports: windows observing fewer antenna ports abstain
            (the spatial features need at least a 2-element aperture).
        min_confidence: classifications below this top-class
            probability become abstains; 0 (the default) disables the
            check, preserving the always-classify behaviour.
        serve_dtype: required pipeline serving precision (one of
            :data:`~repro.core.pipeline.SERVE_DTYPES`), or None (the
            default) to serve at whatever precision the pipeline is
            configured for.  When set, every predict call re-checks the
            pipeline — a pack silently invalidated by a retrain (or
            never installed) raises instead of silently serving at the
            wrong precision.
    """

    pipeline: M2AIPipeline
    calibrator: PhaseCalibrator | None = None
    window_s: float = 6.0
    hop_s: float | None = None
    featurizer: M2AIFeaturizer = field(default_factory=M2AIFeaturizer)
    min_reads: int = 32
    min_live_ports: int = 2
    min_confidence: float = 0.0
    serve_dtype: str | None = None

    def _check_serve_dtype(self) -> None:
        """Fail loudly when the pipeline's precision drifted from ours."""
        if self.serve_dtype is None:
            return
        active = getattr(self.pipeline, "serve_dtype", "float64")
        if active != self.serve_dtype:
            raise RuntimeError(
                f"identifier requires serve_dtype={self.serve_dtype!r} but "
                f"the pipeline is serving {active!r} — call "
                "pipeline.set_serve_dtype() (a refit/fine-tune drops the pack)"
            )

    def identify(self, log: ReadLog) -> list[WindowDecision]:
        """Classify every complete window of ``log``.

        Every window position yields exactly one decision — labelled
        when the window is classifiable, abstaining with a reason
        otherwise.  Only a log too short to contain a single complete
        window produces an empty list.

        The log is sorted by timestamp and calibrated once, and every
        window becomes a ``searchsorted`` slice of that order.  The
        windows then take the serving path: one :meth:`prepare_windows`
        (admission + one pooled DSP batch), one
        :meth:`predict_prepared` and :meth:`score_window` per row.

        Returns:
            Decisions in time order (possibly empty for a short log).

        Raises:
            RuntimeError: when the pipeline is not fitted.
            ValueError: on a non-positive ``window_s`` or ``hop_s``
                (a zero or negative hop would never advance the
                window).
        """
        if self.pipeline.model is None:
            raise RuntimeError("pipeline not fitted")
        sorted_log, starts, lo, hi = _window_grid(log, self.window_s, self.hop_s)
        if not starts:
            return []

        with span("streaming.identify", reads=log.n_reads) as identify_span:
            psi = (
                self.calibrator.calibrate(sorted_log)
                if self.calibrator is not None
                else uncalibrated(sorted_log)
            )
            windows = []
            for w_start, w_lo, w_hi in zip(starts, lo, hi):
                with span("streaming.window", t_start_s=w_start):
                    windows.append(
                        (
                            sorted_log.take(slice(int(w_lo), int(w_hi))),
                            w_start,
                            psi[w_lo:w_hi],
                        )
                    )
                counter("streaming.windows_total").inc()
            prepared = self.prepare_windows(windows)
            decisions = [decision for decision, _sample in prepared]
            pending = [i for i, decision in enumerate(decisions) if decision is None]
            if pending:
                probas = self.predict_prepared(
                    [prepared[i][1] for i in pending]
                )
                for i, proba in zip(pending, probas):
                    window_log, w_start, _psi = windows[i]
                    decisions[i] = self.score_window(
                        w_start, window_log.n_reads, proba
                    )
            identify_span.set(windows=len(decisions))
        return decisions

    def identify_window(
        self,
        window_log: ReadLog,
        t_start_s: float,
        psi: np.ndarray | None = None,
    ) -> WindowDecision:
        """Classify exactly one pre-sliced observation window.

        The per-window serving path used by
        :class:`~repro.runtime.supervisor.PipelineSupervisor`: windows
        are processed in isolation (one featurise + one
        ``predict_proba`` each) so a failure or breaker rejection in
        one window cannot take down a batch.  For the same reads the
        decision matches :meth:`identify`'s batched path.

        Args:
            window_log: the reads falling inside the window (e.g. from
                :func:`split_windows`).
            t_start_s: the window's nominal start in stream time.
            psi: pre-computed doubled phases aligned with
                ``window_log``; computed via the calibrator when None.

        Returns:
            Exactly one :class:`WindowDecision`.

        Raises:
            RuntimeError: when the pipeline is not fitted.
        """
        with span("streaming.window", t_start_s=t_start_s):
            decision, sample = self.prepare_window(window_log, t_start_s, psi)
            if decision is None:
                probas = self.predict_prepared([sample])
                decision = self.score_window(
                    t_start_s, window_log.n_reads, probas[0]
                )
            counter("streaming.windows_total").inc()
        return decision

    def prepare_window(
        self,
        window_log: ReadLog,
        t_start_s: float,
        psi: np.ndarray | None = None,
    ) -> tuple[WindowDecision | None, object | None]:
        """Featurise one window without running inference.

        The first phase of the split serving path — admission checks
        (read count, live ports) and featurisation — as a
        :meth:`prepare_windows` batch of one.

        Args:
            window_log: the reads falling inside the window.
            t_start_s: the window's nominal start in stream time.
            psi: pre-computed doubled phases aligned with
                ``window_log``; computed via the calibrator when None.

        Returns:
            ``(decision, None)`` when the window resolves without
            inference (an early abstain), ``(None, sample)`` with the
            featurised sample otherwise.

        Raises:
            RuntimeError: when the pipeline is not fitted.
        """
        return self.prepare_windows([(window_log, t_start_s, psi)])[0]

    def prepare_windows(
        self,
        windows: list[tuple["ReadLog", float, np.ndarray | None]],
    ) -> list[tuple["WindowDecision | None", object | None]]:
        """Featurise many windows through one pooled DSP batch.

        The one admission loop of the identifier (:meth:`identify`,
        :meth:`prepare_window` and fleet shards all come through here):
        read-count and live-port checks run per window, then every
        admissible window is featurised through the featuriser's
        ``transform_many`` (one pooled DSP batch for the lot).

        Args:
            windows: ``(window_log, t_start_s, psi)`` per window;
                ``psi`` None computes calibrated phases per window.

        Returns:
            One ``(decision, sample)`` pair per window, in order:
            ``(decision, None)`` for an early abstain, ``(None,
            sample)`` with the featurised sample otherwise.

        Raises:
            RuntimeError: when the pipeline is not fitted.
        """
        if self.pipeline.model is None:
            raise RuntimeError("pipeline not fitted")
        out: list[tuple[WindowDecision | None, object | None]] = [
            (None, None)
        ] * len(windows)
        pending: list[int] = []
        items: list[tuple[ReadLog, np.ndarray, int | None]] = []
        for i, (window_log, t_start_s, psi) in enumerate(windows):
            t_end = t_start_s + self.window_s
            n_reads = window_log.n_reads
            if n_reads < self.min_reads:
                out[i] = (
                    self._abstain(
                        t_start_s, t_end, n_reads, REASON_TOO_FEW_READS
                    ),
                    None,
                )
                continue
            if int(window_log.antenna_liveness().sum()) < self.min_live_ports:
                out[i] = (
                    self._abstain(t_start_s, t_end, n_reads, REASON_DEAD_PORTS),
                    None,
                )
                continue
            if psi is None:
                psi = (
                    self.calibrator.calibrate(window_log)
                    if self.calibrator is not None
                    else uncalibrated(window_log)
                )
            dwell = window_log.meta.dwell_s
            n_frames = max(1, int(round(self.window_s / dwell)))
            pending.append(i)
            items.append((window_log, psi, n_frames))
        if items:
            samples = self.featurizer.transform_many(items)
            for i, sample in zip(pending, samples):
                out[i] = (None, sample)
        return out

    def predict_prepared(self, samples: list) -> np.ndarray:
        """Run inference over featurised samples from :meth:`prepare_window`.

        One ``predict_proba`` call for the whole batch — the fleet's
        cross-stream batching entry point — guarded by the ``predict``
        stage boundary so supervised callers get breaker protection.

        Returns:
            Class probabilities, shape ``(len(samples), n_classes)``.

        Raises:
            RuntimeError: when the pipeline is not fitted.
            ValueError: when ``samples`` is empty or shapes disagree.
        """
        if self.pipeline.model is None:
            raise RuntimeError("pipeline not fitted")
        self._check_serve_dtype()
        dataset = ActivityDataset(
            samples=list(samples), labels=["?"] * len(samples)
        )
        with span("streaming.predict", windows=len(samples)):
            with stage_boundary("predict"):
                return np.asarray(self.pipeline.predict_proba(dataset))

    def score_window(
        self, t_start_s: float, n_reads: int, proba: np.ndarray
    ) -> WindowDecision:
        """Turn one window's class probabilities into a decision.

        The final phase of the split serving path (confidence
        thresholding included); public so shard servers can score
        batch rows back to their streams.
        """
        return self._score(t_start_s, int(n_reads), np.asarray(proba))

    def _score(
        self, start: float, n_reads: int, proba: np.ndarray
    ) -> WindowDecision:
        """Turn one window's class probabilities into a decision."""
        end = start + self.window_s
        best = int(proba.argmax())
        confidence = float(proba[best])
        if confidence < self.min_confidence:
            return self._abstain(start, end, n_reads, REASON_LOW_CONFIDENCE)
        counter("streaming.decisions_total").inc()
        return WindowDecision(
            t_start_s=start,
            t_end_s=end,
            label=str(self.pipeline.classes[best]),
            confidence=confidence,
            n_reads=n_reads,
        )

    def _abstain(
        self, start: float, end: float, n_reads: int, reason: str
    ) -> WindowDecision:
        return abstain_decision(start, end, n_reads, reason)
