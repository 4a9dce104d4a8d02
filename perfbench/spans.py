"""In-memory span recording around public callables of ``repro``.

The traced run measures layers from the outside: :func:`instrument`
temporarily replaces each target callable with a wrapper that records
one span per call (name, start, end, parent span) and, for some
targets, counts work from the call's arguments and result.  Every
original is restored when the context exits, so nothing inside
``src/`` is modified.

A span's *self* time is its duration minus the part of its interval
that its wrapped child spans cover.  Spans of one top-level call share
a trace id (the index of that outermost span).
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Iterator

import numpy as np


class SpanRecorder:
    """Collects spans and work counters in memory until :meth:`export`."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.traces: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self._stack: list[int] = []

    def __len__(self) -> int:
        return len(self.names)

    def wrap(self, fn: Callable, name: str, measure: Callable | None = None) -> Callable:
        """A wrapper recording one ``name`` span per call of ``fn``."""
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(recorder.names)
            parent = recorder._stack[-1] if recorder._stack else -1
            recorder.names.append(name)
            recorder.parents.append(parent)
            recorder.traces.append(recorder.traces[parent] if parent >= 0 else idx)
            recorder.starts.append(0.0)
            recorder.ends.append(0.0)
            recorder._stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                recorder._stack.pop()
                recorder.starts[idx] = start
                recorder.ends[idx] = end
            if measure is not None:
                measure(recorder, args, kwargs, result)
            return result

        wrapper.__perfbench_wrapped__ = fn
        return wrapper

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, ``busy_ms`` and ``self_ms``."""
        children: dict[int, list[int]] = defaultdict(list)
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                children[parent].append(idx)
        out: dict[str, dict[str, float]] = {}
        for idx, name in enumerate(self.names):
            duration = self.ends[idx] - self.starts[idx]
            covered = _covered(
                self.starts[idx],
                self.ends[idx],
                [(self.starts[c], self.ends[c]) for c in children.get(idx, ())],
            )
            row = out.setdefault(name, {"calls": 0.0, "busy_ms": 0.0, "self_ms": 0.0})
            row["calls"] += 1
            row["busy_ms"] += duration * 1e3
            row["self_ms"] += (duration - covered) * 1e3
        return out

    def export(self) -> dict:
        """Every span as JSON-ready columns (written once, at the end)."""
        origin = min(self.starts) if self.starts else 0.0
        return {
            "names": list(self.names),
            "start_ms": [(s - origin) * 1e3 for s in self.starts],
            "end_ms": [(e - origin) * 1e3 for e in self.ends],
            "parent": list(self.parents),
            "trace": list(self.traces),
        }


def _covered(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def function_sites(fn: Callable) -> list[tuple[object, str]]:
    """Every ``repro`` module attribute bound to the function ``fn``.

    ``from x import f`` copies the binding, so a module-level function
    must be replaced wherever it was imported for the wrapper to see
    the calls made through those names.
    """
    sites = []
    for mod_name, module in sorted(sys.modules.items()):
        if module is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is fn:
                sites.append((module, attr))
    return sites


@contextmanager
def instrument(recorder: SpanRecorder, targets: list[tuple]) -> Iterator[list]:
    """Wrap ``(owner, attr, span_name, measure)`` targets; restore on exit.

    ``owner`` is a class or a module.  A ``classmethod`` is unwrapped and
    re-wrapped so binding still works.  Yields the ``(owner, attr,
    original)`` undo list.
    """
    undo: list[tuple[object, str, object]] = []
    try:
        for owner, attr, name, measure in targets:
            raw = vars(owner)[attr]
            if isinstance(raw, classmethod):
                new = classmethod(recorder.wrap(raw.__func__, name, measure))
            else:
                new = recorder.wrap(raw, name, measure)
            setattr(owner, attr, new)
            undo.append((owner, attr, raw))
        yield undo
    finally:
        for owner, attr, raw in reversed(undo):
            setattr(owner, attr, raw)


def leftover_wrappers(targets: list[tuple]) -> list[str]:
    """``owner.attr`` of every target still bound to a span wrapper."""
    left = []
    for owner, attr, _name, _measure in targets:
        raw = vars(owner)[attr]
        if hasattr(getattr(raw, "__func__", raw), "__perfbench_wrapped__"):
            left.append(f"{getattr(owner, '__name__', owner)}.{attr}")
    return left


# -- what each layer counts --------------------------------------------------


def _count_slots(rec: SpanRecorder, args, kwargs, result) -> None:
    rec.counters["channel.gain.slots"] += int(np.shape(result)[0])


def _count_reads(rec: SpanRecorder, args, kwargs, result) -> None:
    reader, scene = args[0], args[1] if len(args) > 1 else kwargs["scene"]
    duration_s = args[2] if len(args) > 2 else kwargs["duration_s"]
    n_slots = int(round(duration_s / reader.config.slot_s))
    rec.counters["hardware.inventory.reads"] += result.n_reads
    rec.counters["hardware.inventory.tag_slots"] += n_slots * len(scene.tag_tracks)


def _count_conv_flops(rec: SpanRecorder, args, kwargs, result) -> None:
    # Multiply-adds of the tap matmuls, from tensor shapes: 2 * B * C_out
    # * C_in * K * L_out (bias adds excluded).
    conv = args[0]
    batch, c_out, l_out = result.shape
    rec.counters["nn.conv1d.forward.flop"] += (
        2.0 * batch * c_out * conv.in_channels * conv.kernel * l_out
    )


def _count_featurize_many(rec: SpanRecorder, args, kwargs, result) -> None:
    rec.counters["dsp.featurize_many.windows"] += len(result)


def _count_predict(rec: SpanRecorder, args, kwargs, result) -> None:
    rec.counters["core.pipeline.predict_proba.windows"] += int(np.shape(result)[0])


def _count_tick(rec: SpanRecorder, args, kwargs, result) -> None:
    rec.samples["serving.tick.windows"].append(
        float(sum(len(decisions) for decisions in result.values()))
    )


def layer_targets() -> list[tuple]:
    """``(owner, attr, span name, measure)`` for every traced callable."""
    from repro.channel.model import MultipathChannel
    from repro.core.augment import augment_batch
    from repro.core.model import M2AINet
    from repro.core.pipeline import M2AIPipeline
    from repro.core.streaming import StreamingIdentifier
    from repro.core.trainer import Trainer
    from repro.dsp.calibration import PhaseCalibrator
    from repro.dsp.features import M2AIFeaturizer
    from repro.hardware.reader import Reader
    from repro.motion.scenarios import build_instance
    from repro.nn.conv import Conv1d
    from repro.nn.layers import Dense
    from repro.nn.optim import SGD, Adam
    from repro.nn.recurrent import LSTM
    from repro.runtime.supervisor import PipelineSupervisor
    from repro.serving.fleet import FleetServer

    targets = [
        (MultipathChannel, "one_way_gain", "channel.gain", _count_slots),
        (Reader, "inventory", "hardware.inventory", _count_reads),
        (PhaseCalibrator, "fit", "dsp.calibration.fit", None),
        (PhaseCalibrator, "calibrate", "dsp.calibrate", None),
        (M2AIFeaturizer, "transform", "dsp.featurize", None),
        (M2AIFeaturizer, "transform_many", "dsp.featurize_many", _count_featurize_many),
        (Conv1d, "forward", "nn.conv1d.forward", _count_conv_flops),
        (Conv1d, "backward", "nn.conv1d.backward", None),
        (LSTM, "forward", "nn.lstm.forward", None),
        (LSTM, "backward", "nn.lstm.backward", None),
        (Dense, "forward", "nn.dense.forward", None),
        (Dense, "backward", "nn.dense.backward", None),
        (Adam, "step", "nn.optim.step", None),
        (SGD, "step", "nn.optim.step", None),
        (M2AINet, "forward", "core.model.forward", None),
        (M2AINet, "backward", "core.model.backward", None),
        (Trainer, "accuracy", "core.trainer.accuracy", None),
        (M2AIPipeline, "predict_proba", "core.pipeline.predict_proba", _count_predict),
        (StreamingIdentifier, "prepare_windows", "core.streaming.prepare_windows", None),
        (PipelineSupervisor, "finish_window", "runtime.supervisor.finish_window", None),
        (FleetServer, "tick", "serving.tick", _count_tick),
    ]
    for module, attr in function_sites(build_instance):
        targets.append((module, attr, "motion.build_instance", None))
    for module, attr in function_sites(augment_batch):
        targets.append((module, attr, "core.augment", None))
    return targets


def layer_metrics(recorder: SpanRecorder, lanes: int = 0) -> dict[str, float]:
    """The per-layer metrics derived from one traced measurement.

    Args:
        recorder: the spans of the traced measurement.
        lanes: the serving lane maximum (streams x windows per stream
            per tick), for ``serving.batch_fill``; 0 when not serving.
    """
    totals = recorder.totals()
    counters = recorder.counters

    def total(name: str, key: str) -> float:
        return float(totals.get(name, {}).get(key, 0.0))

    def ratio(num: float, den: float) -> float:
        return num / den if den > 0 else 0.0

    out: dict[str, float] = {
        "channel.gain.calls": total("channel.gain", "calls"),
        "channel.gain.busy_ms": total("channel.gain", "busy_ms"),
        "channel.gain.us_per_slot": ratio(
            total("channel.gain", "busy_ms") * 1e3, counters["channel.gain.slots"]
        ),
        "hardware.inventory.calls": total("hardware.inventory", "calls"),
        "hardware.inventory.self_ms": total("hardware.inventory", "self_ms"),
        "hardware.inventory.read_yield": ratio(
            counters["hardware.inventory.reads"],
            counters["hardware.inventory.tag_slots"],
        ),
        "motion.build_instance.busy_ms": total("motion.build_instance", "busy_ms"),
        "dsp.calibration.fit.busy_ms": total("dsp.calibration.fit", "busy_ms"),
        "dsp.calibrate.busy_ms": total("dsp.calibrate", "busy_ms"),
        "dsp.featurize.calls": total("dsp.featurize", "calls"),
        "dsp.featurize.busy_ms": total("dsp.featurize", "busy_ms"),
        "dsp.featurize_many.busy_ms": total("dsp.featurize_many", "busy_ms"),
        "dsp.featurize_many.windows_per_call": ratio(
            counters["dsp.featurize_many.windows"], total("dsp.featurize_many", "calls")
        ),
    }
    for layer in ("conv1d", "lstm", "dense"):
        for direction in ("forward", "backward"):
            name = f"nn.{layer}.{direction}"
            out[f"{name}.busy_ms"] = total(name, "busy_ms")
    out["nn.optim.step.busy_ms"] = total("nn.optim.step", "busy_ms")
    out["nn.conv1d.forward.gflop_per_s"] = ratio(
        counters["nn.conv1d.forward.flop"] / 1e9,
        total("nn.conv1d.forward", "busy_ms") / 1e3,
    )
    out.update(
        {
            "core.model.forward.busy_ms": total("core.model.forward", "busy_ms"),
            "core.model.backward.busy_ms": total("core.model.backward", "busy_ms"),
            "core.trainer.accuracy.busy_ms": total("core.trainer.accuracy", "busy_ms"),
            "core.augment.busy_ms": total("core.augment", "busy_ms"),
            "core.pipeline.predict_proba.busy_ms": total(
                "core.pipeline.predict_proba", "busy_ms"
            ),
            "core.pipeline.predict_proba.windows_per_call": ratio(
                counters["core.pipeline.predict_proba.windows"],
                total("core.pipeline.predict_proba", "calls"),
            ),
            "core.streaming.prepare_windows.self_ms": total(
                "core.streaming.prepare_windows", "self_ms"
            ),
            "runtime.supervisor.finish_window.busy_ms": total(
                "runtime.supervisor.finish_window", "busy_ms"
            ),
        }
    )
    tick_windows = recorder.samples.get("serving.tick.windows", [])
    out["serving.tick.calls"] = total("serving.tick", "calls")
    out["serving.tick.self_ms"] = total("serving.tick", "self_ms")
    out["serving.tick.windows"] = float(np.median(tick_windows)) if tick_windows else 0.0
    out["serving.batch_fill"] = (
        float(np.mean(tick_windows)) / lanes if tick_windows and lanes else 0.0
    )
    out["trace.spans"] = float(len(recorder))
    return out
