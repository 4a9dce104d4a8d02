"""Bearing estimation and hub triangulation."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.dsp import PhaseCalibrator
from repro.dsp.localization import (
    BearingEstimate,
    bearing_ray,
    estimate_bearing,
    localize_tag,
    triangulate,
)
from repro.geometry import Vec2, make_open_space
from repro.hardware import UniformLinearArray, make_tag, stationary_scene
from repro.hardware.hub import AntennaHub


class TestBearingRay:
    def test_broadside(self):
        array = UniformLinearArray(center=Vec2(0, 0))
        origin, direction = bearing_ray(array, 90.0)
        np.testing.assert_allclose(origin, [0, 0])
        np.testing.assert_allclose(direction, [0, 1], atol=1e-12)

    def test_along_axis(self):
        array = UniformLinearArray(center=Vec2(0, 0))
        _origin, direction = bearing_ray(array, 0.0)
        np.testing.assert_allclose(direction, [1, 0], atol=1e-12)


class TestTriangulate:
    def test_exact_crossing(self):
        a1 = UniformLinearArray(center=Vec2(0.0, 0.0))
        a2 = UniformLinearArray(center=Vec2(10.0, 0.0))
        target = np.array([4.0, 5.0])
        b1 = math.degrees(math.atan2(5.0, 4.0))
        b2 = math.degrees(math.atan2(5.0, -6.0))
        position = triangulate([a1, a2], [b1, b2])
        np.testing.assert_allclose(position, target, atol=1e-9)

    def test_three_rays_least_squares(self):
        arrays = [
            UniformLinearArray(center=Vec2(0.0, 0.0)),
            UniformLinearArray(center=Vec2(10.0, 0.0)),
            UniformLinearArray(center=Vec2(5.0, 10.0)),
        ]
        target = np.array([5.0, 4.0])
        bearings = []
        for array in arrays:
            rel = target - np.asarray(array.center.as_tuple())
            bearings.append(math.degrees(math.atan2(rel[1], rel[0])) % 360)
        # Angles are measured from the +x array axis, within [0, 180].
        bearings = [b if b <= 180 else 360 - b for b in bearings]
        position = triangulate(arrays, bearings)
        np.testing.assert_allclose(position, target, atol=1e-6)

    def test_parallel_rays_rejected(self):
        a1 = UniformLinearArray(center=Vec2(0.0, 0.0))
        a2 = UniformLinearArray(center=Vec2(10.0, 0.0))
        with pytest.raises(ValueError):
            triangulate([a1, a2], [90.0, 90.0])

    def test_needs_two(self):
        with pytest.raises(ValueError):
            triangulate([UniformLinearArray(center=Vec2(0, 0))], [45.0])


class TestEndToEndLocalization:
    def test_open_space_position_recovered(self):
        """Two arrays + calibrated phases must localise a tag to ~dm."""
        room = make_open_space()
        hub = AntennaHub(
            room=room,
            arrays=(
                UniformLinearArray(center=Vec2(0.0, 0.0)),
                UniformLinearArray(center=Vec2(6.0, 0.0)),
            ),
            seed=5,
        )
        rng = np.random.default_rng(1)
        true_pos = (2.5, 4.0)
        scene = stationary_scene([(make_tag("loc", rng), true_pos)])
        cal_logs = hub.calibration_inventory(scene, 20.0)
        logs = hub.inventory(scene, 4.0)
        psis = [
            PhaseCalibrator.fit(cal).calibrate(log)
            for cal, log in zip(cal_logs, logs)
        ]
        position, bearings = localize_tag(logs, psis, list(hub.arrays), tag=0)
        assert all(isinstance(b, BearingEstimate) for b in bearings)
        error = np.linalg.norm(position - np.asarray(true_pos))
        assert error < 0.8, f"position error {error:.2f} m"

    def test_bearing_close_to_truth(self, open_space_reader):
        rng = np.random.default_rng(2)
        angle = 65.0
        distance = 4.0
        pos = (
            distance * math.cos(math.radians(angle)),
            distance * math.sin(math.radians(angle)),
        )
        scene = stationary_scene([(make_tag("bear", rng), pos)])
        calibrator = PhaseCalibrator.fit(open_space_reader.inventory(scene, 20.0))
        log = open_space_reader.inventory(scene, 2.0)
        psi = calibrator.calibrate(log)
        bearing = estimate_bearing(log, psi, 0)
        assert bearing.angle_deg == pytest.approx(angle, abs=8.0)
        assert bearing.n_frames >= 3
