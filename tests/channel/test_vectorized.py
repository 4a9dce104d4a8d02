"""Vectorised geometry kernels and the blockage oracle vs scalar geometry."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.channel import as_traj, pairwise_distance
from repro.geometry import Segment, Vec2
from tests.channel.blockage_oracle import crossing_mask, segment_point_distance

coord = st.floats(min_value=-50, max_value=50, allow_nan=False)


class TestAsTraj:
    def test_broadcast_point(self):
        out = as_traj(np.array([1.0, 2.0]), 5)
        assert out.shape == (5, 2)
        assert (out == [1.0, 2.0]).all()

    def test_passthrough_trajectory(self):
        traj = np.zeros((7, 2))
        assert as_traj(traj, 7) is traj

    def test_bad_shape_raises(self):
        with pytest.raises(ValueError):
            as_traj(np.zeros((3, 2)), 7)


class TestPairwiseDistance:
    def test_matches_scalar(self):
        a = np.array([[0.0, 0.0], [1.0, 1.0]])
        b = np.array([[3.0, 4.0], [1.0, 1.0]])
        np.testing.assert_allclose(pairwise_distance(a, b), [5.0, 0.0])

    def test_static_point_broadcast(self):
        traj = np.array([[0.0, 0.0], [0.0, 2.0]])
        np.testing.assert_allclose(
            pairwise_distance(traj, np.array([0.0, 1.0])), [1.0, 1.0]
        )


class TestSegmentPointDistance:
    @given(coord, coord, coord, coord, coord, coord)
    def test_matches_scalar_implementation(self, ax, ay, bx, by, px, py):
        scalar = Segment(Vec2(ax, ay), Vec2(bx, by)).distance_to_point(Vec2(px, py))
        vector = segment_point_distance(
            np.array([[ax, ay]]), np.array([[bx, by]]), np.array([[px, py]])
        )[0]
        assert vector == pytest.approx(scalar, rel=1e-9, abs=1e-9)

    def test_time_axis(self):
        a = np.zeros((3, 2))
        b = np.broadcast_to(np.array([10.0, 0.0]), (3, 2))
        p = np.array([[5.0, 1.0], [5.0, 2.0], [15.0, 0.0]])
        np.testing.assert_allclose(segment_point_distance(a, b, p), [1.0, 2.0, 5.0])


class TestCrossingMask:
    def test_blocked_in_the_middle(self):
        mask = crossing_mask(
            np.array([0.0, 0.0]), np.array([10.0, 0.0]), np.array([5.0, 0.0]), 0.5
        )
        assert mask[0]

    def test_endpoint_not_counted(self):
        # The disc sits exactly at the destination (a tag on a body).
        mask = crossing_mask(
            np.array([0.0, 0.0]), np.array([10.0, 0.0]), np.array([10.0, 0.0]), 0.5
        )
        assert not mask[0]

    def test_time_varying_blocker(self):
        steps = 5
        a = np.zeros((steps, 2))
        b = np.broadcast_to(np.array([10.0, 0.0]), (steps, 2))
        # Blocker walks across the path: only mid steps block.
        y = np.linspace(-3, 3, steps)
        blocker = np.stack([np.full(steps, 5.0), y], axis=1)
        mask = crossing_mask(a, b, blocker, 0.5)
        assert not mask[0] and not mask[-1]
        assert mask[steps // 2]

    def test_miss_is_false(self):
        mask = crossing_mask(
            np.array([0.0, 0.0]), np.array([10.0, 0.0]), np.array([5.0, 3.0]), 0.5
        )
        assert not mask[0]
