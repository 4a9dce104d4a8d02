"""Physics of the multipath backscatter channel."""

from __future__ import annotations

import numpy as np
import pytest

from repro.channel import BodyTrack, ChannelParams, MultipathChannel
from repro.geometry import Rectangle, Room, Scatterer, Vec2, make_laboratory, make_open_space

ANT = np.array([0.0, 0.0])
TAG = np.array([4.0, 0.0])
LAM = 0.328


def clean_channel(room) -> MultipathChannel:
    return MultipathChannel(
        room=room,
        params=ChannelParams(diffuse_level=0.0),
        rng=np.random.default_rng(0),
    )


class TestPathEnumeration:
    def test_open_space_single_path(self):
        channel = clean_channel(make_open_space())
        comps = channel.path_components(ANT, TAG, LAM)
        assert [c.name for c in comps] == ["direct"]

    def test_room_adds_wall_paths(self):
        room = Room(bounds=Rectangle(-10, -10, 10, 10), wall_reflectivity=0.5)
        channel = clean_channel(room)
        names = [c.name for c in channel.path_components(ANT, TAG, LAM)]
        assert "direct" in names
        assert sum(1 for n in names if n.startswith("wall:")) == 4

    def test_scatterers_add_paths(self):
        room = Room(
            bounds=Rectangle(-10, -10, 10, 10),
            wall_reflectivity=0.0,
            scatterers=(Scatterer(Vec2(2.0, 3.0), 0.3, 0.6),),
        )
        channel = clean_channel(room)
        names = [c.name for c in channel.path_components(ANT, TAG, LAM)]
        assert "scatterer:0" in names

    def test_bodies_add_paths_except_carrier(self):
        channel = clean_channel(make_open_space())
        body = BodyTrack(positions=np.array([[2.0, 2.0]]), radius=0.2)
        names = [c.name for c in channel.path_components(ANT, TAG, LAM, bodies=(body,))]
        assert "body:0" in names
        names_carrier = [
            c.name
            for c in channel.path_components(ANT, TAG, LAM, bodies=(body,), carrier=0)
        ]
        assert "body:0" not in names_carrier

    def test_lab_is_multipath_rich(self):
        channel = clean_channel(make_laboratory())
        comps = channel.path_components(np.array([6.8, 0.3]), np.array([6.0, 4.0]), LAM)
        assert len(comps) >= 10


class TestPhaseAndAmplitude:
    def test_direct_phase_matches_distance(self):
        channel = clean_channel(make_open_space())
        comp = channel.path_components(ANT, TAG, LAM)[0]
        d = float(np.linalg.norm(TAG - ANT))
        expected = np.exp(-2j * np.pi * d / LAM)
        measured = comp.gain[0] / np.abs(comp.gain[0])
        assert measured == pytest.approx(expected, rel=1e-9)

    def test_amplitude_decays_with_distance(self):
        channel = clean_channel(make_open_space())
        near = np.abs(channel.one_way_gain(ANT, np.array([2.0, 0.0]), LAM, include_diffuse=False))
        far = np.abs(channel.one_way_gain(ANT, np.array([8.0, 0.0]), LAM, include_diffuse=False))
        assert near[0] > far[0] * 3.5  # ~1/d

    def test_round_trip_is_square(self):
        channel = clean_channel(make_open_space())
        g = channel.one_way_gain(ANT, TAG, LAM, include_diffuse=False)
        h = channel.round_trip_gain(ANT, TAG, LAM, include_diffuse=False)
        np.testing.assert_allclose(h, g * g)

    def test_wall_path_longer_than_direct(self):
        room = Room(bounds=Rectangle(-10, -10, 10, 10), wall_reflectivity=0.5)
        channel = clean_channel(room)
        comps = {c.name: c for c in channel.path_components(ANT, TAG, LAM)}
        for wall in ("wall:left", "wall:right", "wall:bottom", "wall:top"):
            assert comps[wall].distance[0] > comps["direct"].distance[0]


class TestBlockage:
    def test_body_attenuates_direct_path(self):
        channel = clean_channel(make_open_space())
        blocker = BodyTrack(positions=np.array([[2.0, 0.0]]), radius=0.25)
        unblocked = channel.path_components(ANT, TAG, LAM)[0]
        blocked = channel.path_components(ANT, TAG, LAM, bodies=(blocker,))[0]
        ratio = np.abs(blocked.gain[0]) / np.abs(unblocked.gain[0])
        assert ratio == pytest.approx(channel.params.body_blockage, rel=1e-6)

    def test_blockage_time_varying(self):
        channel = clean_channel(make_open_space())
        steps = 9
        y = np.linspace(-3, 3, steps)
        blocker = BodyTrack(
            positions=np.stack([np.full(steps, 2.0), y], axis=1), radius=0.25
        )
        tag_traj = np.broadcast_to(TAG, (steps, 2)).copy()
        comp = channel.path_components(
            np.broadcast_to(ANT, (steps, 2)).copy(), tag_traj, LAM, bodies=(blocker,)
        )[0]
        mags = np.abs(comp.gain)
        assert mags[steps // 2] < mags[0]  # blocked in the middle
        assert mags[0] == pytest.approx(mags[-1], rel=1e-6)

    def test_furniture_blocks_too(self):
        room = Room(
            bounds=Rectangle(-10, -10, 10, 10),
            wall_reflectivity=0.0,
            scatterers=(Scatterer(Vec2(2.0, 0.0), 0.3, 0.6),),
        )
        channel = clean_channel(room)
        direct = channel.path_components(ANT, TAG, LAM)[0]
        assert np.abs(direct.gain[0]) < 1.0 / 4.0  # attenuated below free space


class TestDiffuse:
    def test_diffuse_adds_noise(self):
        room = make_open_space()
        channel = MultipathChannel(
            room=room, params=ChannelParams(diffuse_level=0.05), rng=np.random.default_rng(1)
        )
        steps = 64
        tag = np.broadcast_to(TAG, (steps, 2)).copy()
        ant = np.broadcast_to(ANT, (steps, 2)).copy()
        g = channel.one_way_gain(ant, tag, LAM)
        assert np.std(np.abs(g)) > 0.0

    def test_diffuse_reproducible_with_seed(self):
        room = make_open_space()
        params = ChannelParams(diffuse_level=0.05)
        g1 = MultipathChannel(room, params, np.random.default_rng(5)).one_way_gain(
            ANT, TAG, LAM
        )
        g2 = MultipathChannel(room, params, np.random.default_rng(5)).one_way_gain(
            ANT, TAG, LAM
        )
        np.testing.assert_allclose(g1, g2)


class TestValidation:
    def test_body_track_shape_checked(self):
        with pytest.raises(ValueError):
            BodyTrack(positions=np.zeros(3))

    def test_mismatched_body_axes_raise(self):
        channel = clean_channel(make_open_space())
        b1 = BodyTrack(positions=np.zeros((5, 2)))
        b2 = BodyTrack(positions=np.zeros((7, 2)))
        with pytest.raises(ValueError):
            channel.path_components(ANT, TAG, LAM, bodies=(b1, b2))

    def test_one_position_body_broadcasts(self):
        # A standing torso given as a single position renders exactly
        # like the same torso tiled over the antenna's time axis.
        channel = clean_channel(make_laboratory())
        ant = np.column_stack([np.linspace(5.0, 7.0, 5), np.full(5, 2.0)])
        tag = np.array([6.0, 4.0])
        one = channel.one_way_gain(ant, tag, LAM, bodies=(BodyTrack([[3.0, 3.0]]),))
        tiled = channel.one_way_gain(
            ant, tag, LAM, bodies=(BodyTrack(np.tile([3.0, 3.0], (5, 1))),)
        )
        assert one.shape == (5,)
        assert one.tobytes() == tiled.tobytes()

    def test_channel_params_validation(self):
        with pytest.raises(ValueError):
            ChannelParams(body_blockage=1.5)
        with pytest.raises(ValueError):
            ChannelParams(reference_amplitude=0.0)
        with pytest.raises(ValueError):
            ChannelParams(diffuse_level=-0.1)


class TestSecondOrderReflections:
    def test_opt_in_adds_corner_paths(self):
        room = Room(bounds=Rectangle(-10, -10, 10, 10), wall_reflectivity=0.5)
        first = MultipathChannel(
            room=room, params=ChannelParams(diffuse_level=0.0),
            rng=np.random.default_rng(0), max_reflection_order=1,
        )
        second = MultipathChannel(
            room=room, params=ChannelParams(diffuse_level=0.0),
            rng=np.random.default_rng(0), max_reflection_order=2,
        )
        names_1 = {c.name for c in first.path_components(ANT, TAG, LAM)}
        names_2 = {c.name for c in second.path_components(ANT, TAG, LAM)}
        assert names_1 < names_2
        assert sum(1 for n in names_2 if n.startswith("wall2:")) == 4

    def test_corner_paths_longer_and_weaker_than_single_bounce(self):
        room = Room(bounds=Rectangle(-10, -10, 10, 10), wall_reflectivity=0.5)
        channel = MultipathChannel(
            room=room, params=ChannelParams(diffuse_level=0.0),
            rng=np.random.default_rng(0), max_reflection_order=2,
        )
        comps = {c.name: c for c in channel.path_components(ANT, TAG, LAM)}
        shortest_single = min(
            comps[f"wall:{w}"].distance[0] for w in ("left", "right", "bottom", "top")
        )
        for name, comp in comps.items():
            if name.startswith("wall2:"):
                assert comp.distance[0] > shortest_single
                assert np.abs(comp.gain[0]) < np.abs(comps["direct"].gain[0])

    def test_first_order_default_unchanged(self):
        channel = clean_channel(make_open_space())
        assert channel.max_reflection_order == 1

    def test_invalid_order_rejected(self):
        with pytest.raises(ValueError):
            MultipathChannel(
                room=make_open_space(),
                params=ChannelParams(),
                rng=np.random.default_rng(0),
                max_reflection_order=3,
            )
