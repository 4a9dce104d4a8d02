"""Rooms, scatterers, and the environment presets."""

from __future__ import annotations

import pytest

from repro.geometry import (
    Rectangle,
    Room,
    Scatterer,
    Vec2,
    make_hall,
    make_laboratory,
    make_open_space,
)


class TestScatterer:
    def test_validation(self):
        with pytest.raises(ValueError):
            Scatterer(Vec2(0, 0), radius=0.3, reflectivity=1.5)
        with pytest.raises(ValueError):
            Scatterer(Vec2(0, 0), radius=-1.0, reflectivity=0.5)


class TestRoom:
    def test_scatterer_must_be_inside(self):
        bounds = Rectangle(0, 0, 5, 5)
        outside = Scatterer(Vec2(10, 10), 0.3, 0.5)
        with pytest.raises(ValueError):
            Room(bounds=bounds, scatterers=(outside,))

    def test_wall_reflectivity_bounds(self):
        with pytest.raises(ValueError):
            Room(bounds=Rectangle(0, 0, 5, 5), wall_reflectivity=2.0)


class TestPresets:
    def test_laboratory_dimensions_match_paper(self):
        lab = make_laboratory()
        assert lab.bounds.width == pytest.approx(13.75)
        assert lab.bounds.height == pytest.approx(10.50)
        assert len(lab.scatterers) > 5  # cabinets and desks

    def test_hall_dimensions_match_paper(self):
        hall = make_hall()
        assert hall.bounds.width == pytest.approx(8.75)
        assert hall.bounds.height == pytest.approx(7.50)
        assert hall.scatterers == ()

    def test_hall_has_less_multipath_than_lab(self):
        assert len(make_hall().scatterers) < len(make_laboratory().scatterers)
        assert make_hall().wall_reflectivity < make_laboratory().wall_reflectivity

    def test_laboratory_deterministic_in_seed(self):
        a, b = make_laboratory(seed=3), make_laboratory(seed=3)
        assert a.scatterers == b.scatterers
        assert make_laboratory(seed=4).scatterers != a.scatterers

    def test_open_space_has_no_reflections(self):
        space = make_open_space()
        assert space.wall_reflectivity == 0.0
        assert space.scatterers == ()
