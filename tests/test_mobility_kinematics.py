"""Unit tests for repro.mobility.kinematics."""

import random

import numpy as np
import pytest

from repro.mobility.kinematics import CITY_DRIVER, DriverProfile, SpeedController
from repro.roadmap.generators import city_grid_map
from repro.roadmap.routing import RoutePlanner

from reference.maps import nearest_intersection, straight_road_map


@pytest.fixture(scope="module")
def straight_route():
    roadmap = straight_road_map(length_m=3000.0, n_links=3, speed_limit_kmh=72.0)
    planner = RoutePlanner(roadmap)
    start, _ = nearest_intersection(roadmap, (0.0, 0.0))
    end, _ = nearest_intersection(roadmap, (3000.0, 0.0))
    return planner.shortest_route(start.id, end.id)


@pytest.fixture(scope="module")
def city_route():
    roadmap = city_grid_map(rows=6, cols=6, spacing_m=250.0, jitter_m=0.0, seed=0)
    planner = RoutePlanner(roadmap)
    return planner.random_route(min_length=3000.0, rng=random.Random(0), straight_bias=0.7)


class TestDriverProfile:
    def test_validation(self):
        with pytest.raises(ValueError):
            DriverProfile(speed_factor=0.0)
        with pytest.raises(ValueError):
            DriverProfile(max_acceleration=0.0)
        with pytest.raises(ValueError):
            DriverProfile(lateral_acceleration=0.0)
        with pytest.raises(ValueError):
            DriverProfile(stop_probability=1.5)

    def test_presets_are_valid(self):
        assert CITY_DRIVER.stop_probability > 0


class TestSpeedController:
    def test_invalid_ds(self, straight_route):
        with pytest.raises(ValueError):
            SpeedController(straight_route, DriverProfile(), ds=0.0)

    def test_speed_below_limit(self, straight_route):
        profile = DriverProfile(speed_factor=0.9, speed_noise_sigma=0.0)
        controller = SpeedController(straight_route, profile, rng=random.Random(0))
        offsets = np.linspace(0.0, straight_route.length, 100)
        for offset in offsets:
            assert controller.speed_at(offset) <= 20.0 * 0.9 * 1.001 + 1e-6

    def test_no_stops_when_probability_zero(self, straight_route):
        profile = DriverProfile(stop_probability=0.0)
        controller = SpeedController(straight_route, profile, rng=random.Random(0))
        assert controller.stops == []

    def test_stops_planned_at_intersections(self, city_route):
        profile = DriverProfile(stop_probability=1.0, stop_duration_range=(10.0, 10.0))
        controller = SpeedController(city_route, profile, rng=random.Random(1))
        assert len(controller.stops) == len(city_route.links) - 1
        for offset, duration in controller.stops:
            assert duration == 10.0
            assert 0.0 < offset < city_route.length

    def test_acceleration_limits_hold(self, city_route):
        profile = DriverProfile(
            speed_factor=0.95, max_acceleration=1.5, max_deceleration=2.0,
            stop_probability=0.0, speed_noise_sigma=0.0,
        )
        controller = SpeedController(city_route, profile, ds=5.0, rng=random.Random(2))
        offsets = np.arange(0.0, city_route.length, 5.0)
        speeds = np.array([controller.speed_at(o) for o in offsets])
        # v^2 difference over ds bounds the implied acceleration.
        dv2 = np.diff(speeds**2)
        ds = np.diff(offsets)
        accelerations = dv2 / (2.0 * ds)
        assert accelerations.max() <= profile.max_acceleration + 0.2
        assert accelerations.min() >= -profile.max_deceleration - 0.2

    def test_curves_slow_down(self, city_route):
        # At a 90-degree grid corner the curve speed must drop well below the limit.
        profile = DriverProfile(
            speed_factor=1.0, lateral_acceleration=2.0,
            stop_probability=0.0, speed_noise_sigma=0.0,
        )
        controller = SpeedController(city_route, profile, rng=random.Random(3))
        # Find a corner: consecutive links with a large direction change.
        corner_offset = None
        for i, (a, b) in enumerate(zip(city_route.links, city_route.links[1:])):
            if float(a.direction_at(a.length) @ b.direction_at(0.0)) < 0.5:
                corner_offset = city_route.link_start_offset(i + 1)
                break
        if corner_offset is None:
            pytest.skip("route has no sharp corner")
        mid_link_offset = city_route.link_start_offset(0) + city_route.links[0].length / 2.0
        assert controller.speed_at(corner_offset) < city_route.speed_limit_at(mid_link_offset)
