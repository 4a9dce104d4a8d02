"""``M2AIFeaturizer.transform_many`` split across the conv pool, bit for bit.

The window list is cut into contiguous parts; the caller featurises
the first part and the process-wide pool the rest, each part through
its own pooled DSP batch.  These tests pin that any core count
(``parallel.WIDTH`` patched to 1, 2 and 3) gives the bytes of one
pooled call over the whole list, that the parts tile the list in
order, that a part's error surfaces only after every part has joined,
and that a shard whose pooled prepare fails still decides every window.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro import obs
from repro.core.streaming import StreamingIdentifier
from repro.dsp import features, uncalibrated
from repro.dsp.features import CHANNEL_SETS, M2AIFeaturizer
from repro.dsp.frames import build_spectrum_frames_many
from repro.geometry import Vec2, make_hall
from repro.hardware import Reader, ReaderConfig, UniformLinearArray, make_tag, stationary_scene
from repro.nn import parallel
from repro.runtime.breaker import GuardSet, guard_scope
from repro.serving.shard import ShardServer
from tests.runtime.conftest import StubPipeline, make_log


@pytest.fixture(scope="module")
def hall_log():
    """A short three-tag inventory in the hall (few scatterers)."""
    room = make_hall()
    array = UniformLinearArray(center=Vec2(room.bounds.width / 2.0, 0.3))
    reader = Reader(ReaderConfig(array=array), room, seed=17)
    gen = np.random.default_rng(3)
    tags = [
        (make_tag(f"hall-{i}", gen), (4.0 + i * 1.1, 3.0 + 0.5 * i))
        for i in range(3)
    ]
    return reader.inventory(stationary_scene(tags), duration_s=3.2)


def _halves(log):
    t = log.timestamp_s
    mid = 0.5 * (t.min() + t.max())
    return log.select(t < mid), log.select(t >= mid)


@pytest.fixture(scope="module")
def mixed_windows(small_log, hall_log):
    """Both rooms, a dead port, a one-port window, two frame counts."""
    lab_a, lab_b = _halves(small_log)
    hall_a, hall_b = _halves(hall_log)
    dead_port = small_log.select(small_log.antenna != 2)
    one_port = hall_b.select(hall_b.antenna == 1)  # too few ports for MUSIC
    logs_frames = [
        (lab_a, 4), (hall_a, 4), (dead_port, 4), (lab_b, 4),
        (one_port, 4), (hall_b, None), (small_log, 8), (hall_log, 4),
    ]
    return [(log, uncalibrated(log), n) for log, n in logs_frames]


def _frame_bytes(frames_list):
    return [
        (
            sorted(frames.channels),
            [
                (values.dtype.str, values.shape, values.tobytes())
                for _name, values in sorted(frames.channels.items())
            ],
            frames.meta["antenna_liveness"].tobytes(),
        )
        for frames in frames_list
    ]


@pytest.fixture
def spy(monkeypatch):
    """Record the window ids and thread of every pooled call, in finish order."""
    calls: list[tuple[list[int], str]] = []

    def recording(windows, channels):
        out = build_spectrum_frames_many(windows, channels=channels)
        calls.append(([id(w) for w in windows], threading.current_thread().name))
        return out

    monkeypatch.setattr(features, "build_spectrum_frames_many", recording)
    return calls


@pytest.mark.parametrize("width", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(CHANNEL_SETS))
def test_any_width_gives_the_bytes_of_one_pooled_call(
    monkeypatch, spy, mixed_windows, name, width
):
    want = build_spectrum_frames_many(mixed_windows, channels=CHANNEL_SETS[name])
    monkeypatch.setattr(parallel, "WIDTH", width)
    got = M2AIFeaturizer(name).transform_many(mixed_windows)
    assert _frame_bytes(got) == _frame_bytes(want)
    # One call per part; the parts tile the window list, the first on
    # the caller and every other on a pool thread.
    ids = [id(w) for w in mixed_windows]
    parts = sorted(spy, key=lambda call: ids.index(call[0][0]))
    assert len(parts) == width
    assert [i for part, _thread in parts for i in part] == ids
    caller = threading.current_thread().name
    assert [thread == caller for _part, thread in parts] == [True] + [False] * (width - 1)


@pytest.mark.parametrize("n_windows", [1, 2])
@pytest.mark.parametrize("width", [1, 2, 3])
def test_small_batches(monkeypatch, spy, mixed_windows, n_windows, width):
    windows = mixed_windows[1 : 1 + n_windows]
    want = build_spectrum_frames_many(windows)
    monkeypatch.setattr(parallel, "WIDTH", width)
    got = M2AIFeaturizer().transform_many(windows)
    assert _frame_bytes(got) == _frame_bytes(want)
    assert len(spy) == min(width, n_windows)
    if n_windows == 1:
        assert spy[0][1] == threading.current_thread().name


def test_empty_batch(monkeypatch):
    monkeypatch.setattr(parallel, "WIDTH", 2)
    assert M2AIFeaturizer().transform_many([]) == []


def test_guarded_caller_featurises_in_one_call(monkeypatch, spy, mixed_windows):
    # Stage guards are installed per thread: a pool part would run its
    # DSP stages outside the caller's breakers and deadline.
    monkeypatch.setattr(parallel, "WIDTH", 2)
    with guard_scope(GuardSet({})):
        got = M2AIFeaturizer().transform_many(mixed_windows)
    assert len(spy) == 1 and spy[0][1] == threading.current_thread().name
    assert _frame_bytes(got) == _frame_bytes(build_spectrum_frames_many(mixed_windows))


@pytest.mark.parametrize("failing", [0, 1], ids=["caller-part", "pool-part"])
def test_a_part_error_surfaces_after_both_parts_join(monkeypatch, failing):
    """Whichever part raises, the other has finished when the error surfaces."""
    finished: list[int] = []

    def part_fn(windows, channels):
        index = windows[0]
        if index == failing:
            raise ValueError(f"part {index} failed")
        time.sleep(0.05)  # the other part is still running when this raises
        finished.append(index)
        return [None] * len(windows)

    monkeypatch.setattr(features, "build_spectrum_frames_many", part_fn)
    monkeypatch.setattr(parallel, "WIDTH", 2)
    with pytest.raises(ValueError, match=f"part {failing} failed"):
        M2AIFeaturizer().transform_many([0, 1])
    assert finished == [1 - failing]


def _shard_decisions(n_streams: int = 3):
    identifier = StreamingIdentifier(pipeline=StubPipeline(), window_s=2.4, min_reads=5)
    shard = ShardServer(0, lambda: identifier, windows_per_stream=4)
    for i in range(n_streams):
        shard.add_stream(f"s{i}")
        shard.submit(f"s{i}", make_log(n=1500, seed=i, duration_s=10.0))
    out = shard.tick()
    return {
        (sid, round(d.t_start_s, 6)): (d.label, d.confidence, d.abstained, d.reason)
        for sid, ds in out.items()
        for d in ds
    }


@pytest.fixture
def armed_obs():
    obs.disable()
    obs.reset()
    obs.enable()
    yield
    obs.disable()
    obs.reset()


def _batch_counters() -> dict[str, float]:
    return {
        m.name: m.value
        for m in obs.get_registry().collect()
        if m.name.startswith("serving.batch.prepare") and m.name.endswith("_total")
    }


def test_pooled_prepare_failure_falls_back_to_scalar(monkeypatch, armed_obs):
    monkeypatch.setattr(parallel, "WIDTH", 2)
    want = _shard_decisions()
    assert _batch_counters() == {"serving.batch.prepares_total": 1.0}
    obs.reset()

    caller = threading.current_thread()

    def pool_part_fails(windows, channels):
        if threading.current_thread() is not caller:
            raise RuntimeError("pool part exploded")
        return build_spectrum_frames_many(windows, channels=channels)

    monkeypatch.setattr(features, "build_spectrum_frames_many", pool_part_fails)
    got = _shard_decisions()
    assert _batch_counters() == {"serving.batch.prepare_fallback_total": 1.0}
    # The scalar path featurises one window per call on the caller, so
    # every window is decided, and decided as the pooled path would.
    assert len(got) == 3 * 4
    assert not any(abstained for _l, _c, abstained, _r in got.values())
    assert got == want
