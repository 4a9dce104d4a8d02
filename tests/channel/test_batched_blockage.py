"""The batched channel against the per-tag, per-leg oracle, byte for byte.

Production renders every tag of an inventory in one pass and every path
leg against each blocker in one vectorised pass over a ``(legs × rows)``
table; the oracle in :mod:`tests.channel.blockage_oracle` renders one tag
at a time with one ``crossing_mask`` call per (leg, blocker).  Every
comparison here is on raw bytes: the batched path must not move a single
bit of a gain, a read log or a feature frame, nor change how far the
channel's diffuse generator has advanced.
"""

from __future__ import annotations

import copy
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channel import BodyTrack, ChannelParams, MultipathChannel
from repro.channel import model as channel_model
from repro.data.generator import GenerationConfig, SyntheticDatasetGenerator
from repro.dsp.calibration import PhaseCalibrator
from repro.geometry import Rectangle, Room, Scatterer, Vec2
from repro.hardware import Scene, TagTrack, UniformLinearArray, make_tag
from repro.hardware.llrp import ReadLog
from repro.hardware.reader import Reader, ReaderConfig
from tests.channel import blockage_oracle
from tests.dsp import calibration_oracle

LOG_FIELDS = (
    "tag_index",
    "antenna",
    "channel",
    "frequency_hz",
    "timestamp_s",
    "phase_rad",
    "rssi_dbm",
)


def assert_same_components(got, want) -> None:
    assert [c.name for c in got] == [c.name for c in want]
    for g, w in zip(got, want):
        assert g.distance.tobytes() == w.distance.tobytes(), g.name
        assert g.gain.tobytes() == w.gain.tobytes(), g.name


def assert_same_log(got: ReadLog, want: ReadLog) -> None:
    assert got.epcs == want.epcs
    for name in LOG_FIELDS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def render(monkeypatch, cfg: GenerationConfig, order: int, oracle: bool):
    """``generate_raw`` + ``featurize`` with one channel and fit implementation."""
    with monkeypatch.context() as patch:
        init = Reader.__init__

        def reader_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            self.channel.max_reflection_order = order

        patch.setattr(Reader, "__init__", reader_init)
        if oracle:
            patch.setattr(MultipathChannel, "one_way_gains", blockage_oracle.one_way_gains)
            patch.setattr(PhaseCalibrator, "fit", staticmethod(calibration_oracle.fit))
        else:
            # Every production render is also checked call by call,
            # diffuse draws included.
            batched = MultipathChannel.one_way_gains

            def checked(self, *args, **kwargs):
                before = copy.deepcopy(self.rng.bit_generator.state)
                got = batched(self, *args, **kwargs)
                after = self.rng.bit_generator.state
                self.rng.bit_generator.state = before
                want = blockage_oracle.one_way_gains(self, *args, **kwargs)
                assert got.tobytes() == want.tobytes()
                assert self.rng.bit_generator.state == after
                return got

            patch.setattr(MultipathChannel, "one_way_gains", checked)
        generator = SyntheticDatasetGenerator(cfg)
        raw = generator.generate_raw()
        return raw, generator.featurize(raw)


@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("persons", [1, 2, 3])
@pytest.mark.parametrize("environment", ["laboratory", "hall"])
def test_corpus_matches_oracle(monkeypatch, environment, persons, order, seed):
    cfg = GenerationConfig(
        environment=environment,
        scenario_labels=("A01",),
        samples_per_class=1,
        n_persons=persons,
        tags_per_person=2,
        duration_s=1.6,
        calibration_s=3.0,
        seed=seed,
    )
    raw, dataset = render(monkeypatch, cfg, order, oracle=False)
    raw_ref, dataset_ref = render(monkeypatch, cfg, order, oracle=True)
    for sample, ref in zip(raw, raw_ref, strict=True):
        assert_same_log(sample.calibration_log, ref.calibration_log)
        assert_same_log(sample.log, ref.log)
    for frames, ref in zip(dataset.samples, dataset_ref.samples, strict=True):
        assert sorted(frames.channels) == sorted(ref.channels)
        for name, value in frames.channels.items():
            assert value.tobytes() == ref.channels[name].tobytes(), name


# -- random scenes ------------------------------------------------------------

ROOM = Rectangle(0.0, 0.0, 6.0, 5.0)
# A coarse grid makes exact coincidences (a disc centred on a leg
# endpoint, two discs on one spot) common rather than measure-zero.
grid_point = st.tuples(
    st.integers(min_value=1, max_value=11).map(lambda i: i * 0.5),
    st.integers(min_value=1, max_value=9).map(lambda i: i * 0.5),
)


@st.composite
def scenes(draw):
    steps = draw(st.integers(min_value=1, max_value=5))

    def trajectory(moving: bool) -> np.ndarray:
        if not moving:
            return np.array(draw(grid_point))
        return np.array([draw(grid_point) for _ in range(steps)])

    antenna = trajectory(draw(st.booleans()))
    tag = trajectory(draw(st.booleans()))
    anchors = [np.atleast_2d(antenna)[0], np.atleast_2d(tag)[0]]
    scatterers = tuple(
        Scatterer(
            Vec2(*(anchors[1] if draw(st.booleans()) else draw(grid_point))),
            draw(st.sampled_from([0.2, 0.5, 1.0])),
            0.6,
        )
        for _ in range(draw(st.integers(min_value=0, max_value=3)))
    )
    bodies = []
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        kind = draw(st.sampled_from(["moving", "static", "on_tag", "on_antenna"]))
        if kind == "moving":
            positions = np.array([draw(grid_point) for _ in range(steps)])
        elif kind == "static":
            positions = np.tile(draw(grid_point), (steps, 1))
        elif kind == "on_tag":
            positions = np.broadcast_to(tag, (steps, 2)).copy()
        else:
            positions = np.broadcast_to(antenna, (steps, 2)).copy()
        bodies.append(BodyTrack(positions, radius=draw(st.sampled_from([0.18, 0.5]))))
    carrier = draw(st.sampled_from([None, *range(len(bodies))]))
    room = Room(
        bounds=ROOM,
        wall_reflectivity=draw(st.sampled_from([0.0, 0.45])),
        scatterers=scatterers,
    )
    channel = MultipathChannel(
        room=room,
        params=ChannelParams(diffuse_level=0.0),
        max_reflection_order=draw(st.sampled_from([1, 2])),
    )
    per_slot = np.ndim(antenna) == 2 and draw(st.booleans())
    lam = np.linspace(0.32, 0.34, steps) if per_slot else 0.328
    return channel, antenna, tag, lam, tuple(bodies), carrier


@settings(max_examples=150, deadline=None)
@given(scenes())
def test_random_blockers_match_oracle(scene):
    channel, antenna, tag, lam, bodies, carrier = scene
    got = channel.path_components(antenna, tag, lam, bodies, carrier)
    want = blockage_oracle.path_components(channel, antenna, tag, lam, bodies, carrier)
    assert_same_components(got, want)
    if np.ndim(antenna) == 2 or np.ndim(tag) == 2:
        # A standing torso given as one position renders like its tiled
        # track (the oracle sees the tiled form).
        standing = tuple(
            BodyTrack(b.positions[:1], b.radius) if (b.positions == b.positions[0]).all() else b
            for b in bodies
        )
        got = channel.path_components(antenna, tag, lam, standing, carrier)
        assert_same_components(got, want)


# -- stationary scenes ----------------------------------------------------------


@st.composite
def tdm_scenes(draw):
    """A TDM inventory of a still scene: the antenna cycles through ``n`` ports."""
    n = draw(st.integers(min_value=2, max_value=4))
    steps = draw(st.integers(min_value=1, max_value=3 * n))
    ports = np.array([draw(grid_point) for _ in range(n)])
    antenna = ports[np.arange(steps) % n]
    tag = np.array(draw(grid_point))
    scatterers = tuple(
        Scatterer(
            Vec2(*(tag if draw(st.booleans()) else draw(grid_point))),
            draw(st.sampled_from([0.2, 0.5, 1.0])),
            0.6,
        )
        for _ in range(draw(st.integers(min_value=0, max_value=3)))
    )
    bodies = []
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        kind = draw(st.sampled_from(["static", "on_tag", "on_antenna"]))
        if kind == "static":
            centre = np.array(draw(grid_point))
        elif kind == "on_tag":
            centre = tag
        else:
            centre = ports[draw(st.integers(min_value=0, max_value=n - 1))]
        bodies.append(BodyTrack(centre[None, :], radius=draw(st.sampled_from([0.18, 0.5]))))
    carrier = draw(st.sampled_from([None, *range(len(bodies))]))
    room = Room(
        bounds=ROOM,
        wall_reflectivity=draw(st.sampled_from([0.0, 0.45])),
        scatterers=scatterers,
    )
    channel = MultipathChannel(
        room=room,
        params=ChannelParams(diffuse_level=0.0),
        max_reflection_order=draw(st.sampled_from([1, 2])),
    )
    lam = np.linspace(0.32, 0.34, steps)[draw(st.permutations(range(steps)))]
    return channel, antenna, tag, lam, tuple(bodies), carrier


@settings(max_examples=150, deadline=None)
@given(tdm_scenes())
def test_stationary_scenes_match_oracle(scene):
    channel, antenna, tag, lam, bodies, carrier = scene
    steps = len(antenna)
    tiled = tuple(BodyTrack(np.tile(b.positions, (steps, 1)), b.radius) for b in bodies)
    got = channel.path_components(antenna, tag, lam, bodies, carrier)
    want = blockage_oracle.path_components(channel, antenna, tag, lam, tiled, carrier)
    assert_same_components(got, want)


# -- whole inventories ------------------------------------------------------------


@st.composite
def inventories(draw):
    """Every tag of one inventory: still TDM scenes and moving ones, 1-9 tags."""
    steps = draw(st.integers(min_value=1, max_value=6))
    still = draw(st.booleans())
    n = draw(st.integers(min_value=2, max_value=4))
    ports = np.array([draw(grid_point) for _ in range(n)])
    antenna = ports[np.arange(steps) % n]
    tags = [
        np.array(draw(grid_point))
        if still or draw(st.booleans())
        else np.array([draw(grid_point) for _ in range(steps)])
        for _ in range(draw(st.integers(min_value=1, max_value=9)))
    ]
    scatterers = tuple(
        Scatterer(Vec2(*draw(grid_point)), draw(st.sampled_from([0.2, 0.5, 1.0])), 0.6)
        for _ in range(draw(st.integers(min_value=0, max_value=3)))
    )
    bodies = []
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        kinds = ["standing", "on_tag"] if still else ["standing", "walking", "on_tag"]
        kind = draw(st.sampled_from(kinds))
        if kind == "standing":
            positions = np.array([draw(grid_point)])
        elif kind == "walking":
            positions = np.array([draw(grid_point) for _ in range(steps)])
        else:
            positions = np.atleast_2d(tags[draw(st.integers(0, len(tags) - 1))])
        bodies.append(BodyTrack(positions, radius=draw(st.sampled_from([0.18, 0.5]))))
    carriers = [draw(st.sampled_from([None, *range(len(bodies))])) for _ in tags]
    room = Room(
        bounds=ROOM,
        wall_reflectivity=draw(st.sampled_from([0.0, 0.45])),
        scatterers=scatterers,
    )
    channel = MultipathChannel(
        room=room,
        params=ChannelParams(diffuse_level=draw(st.sampled_from([0.0, 0.05]))),
        rng=np.random.default_rng(draw(st.integers(0, 2**16))),
        max_reflection_order=draw(st.sampled_from([1, 2])),
    )
    lam = np.linspace(0.32, 0.34, steps) if draw(st.booleans()) else 0.328
    budget = draw(st.sampled_from([1, 2, 5, channel_model.ROW_BUDGET]))
    return channel, antenna, tags, lam, tuple(bodies), carriers, budget


@settings(max_examples=150, deadline=None)
@given(inventories())
def test_random_inventories_match_oracle(inventory):
    channel, antenna, tags, lam, bodies, carriers, budget = inventory
    twin = copy.deepcopy(channel)
    with mock.patch.object(channel_model, "ROW_BUDGET", budget):
        got = channel.one_way_gains(antenna, tags, lam, bodies, carriers)
    want = blockage_oracle.one_way_gains(twin, antenna, tags, lam, bodies, carriers)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert channel.rng.bit_generator.state == twin.rng.bit_generator.state


def leg_table_widths(monkeypatch, scene: Scene, duration_s: float) -> tuple[int, list[int]]:
    """Render ``scene`` through a four-port reader; return its slots and leg-table widths."""
    widths: list[int] = []
    blockage = MultipathChannel._blockage

    def recorded(self, *args, **kwargs):
        factor = blockage(self, *args, **kwargs)
        widths.append(factor.shape[1])
        return factor

    furniture = (Scatterer(Vec2(2.0, 3.0), 0.3, 0.6),)
    room = Room(bounds=ROOM, wall_reflectivity=0.45, scatterers=furniture)
    array = UniformLinearArray(center=Vec2(3.0, 0.3), n_elements=4)
    reader = Reader(ReaderConfig(array=array), room, seed=3)
    with monkeypatch.context() as patch:
        patch.setattr(MultipathChannel, "_blockage", recorded)
        log = reader.inventory(scene, duration_s)
    assert len(log.phase_rad) > 0
    return int(round(duration_s / reader.config.slot_s)), widths


def test_stationary_inventory_computes_geometry_per_antenna(monkeypatch):
    rng = np.random.default_rng(0)
    body = BodyTrack(np.array([[2.5, 2.0]]))
    scene = Scene(
        tag_tracks=(
            TagTrack(make_tag("worn", rng), np.array([2.7, 2.1]), carrier=0),
            TagTrack(make_tag("wall", rng), np.array([4.0, 4.0])),
        ),
        bodies=(body,),
    )
    slots, widths = leg_table_widths(monkeypatch, scene, 20.0)
    assert slots == 800
    # One pass for the whole inventory: one table of (tag, antenna) rows.
    assert len(widths) == 1 and widths[0] <= 4 * 2

    # The same people walking: the tags stacked along the slot axis and
    # cut into tables under the row budget.
    walk = np.linspace([2.5, 2.0], [3.5, 2.5], slots)
    moving = Scene(
        tag_tracks=(
            TagTrack(scene.tag_tracks[0].tag, walk + [0.2, 0.1], carrier=0),
            scene.tag_tracks[1],
        ),
        bodies=(BodyTrack(walk),),
    )
    cuts = leg_table_widths(monkeypatch, moving, 20.0)[1]
    assert max(cuts) <= channel_model.ROW_BUDGET and sum(cuts) == 2 * slots
    assert len(cuts) == -(-2 * slots // channel_model.ROW_BUDGET)
    assert leg_table_widths(monkeypatch, moving.frozen(), 20.0)[1] == widths
