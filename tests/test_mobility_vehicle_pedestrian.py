"""Unit tests for repro.mobility.vehicle and repro.mobility.pedestrian."""

import random

import numpy as np
import pytest

from repro.mobility.kinematics import DriverProfile
from repro.mobility.pedestrian import PedestrianProfile, PedestrianSimulator
from repro.mobility.vehicle import VehicleSimulator
from repro.roadmap.generators import pedestrian_map
from repro.roadmap.routing import RoutePlanner

from reference.maps import nearest_intersection, straight_road_map


@pytest.fixture(scope="module")
def straight_route():
    roadmap = straight_road_map(length_m=2000.0, n_links=4, speed_limit_kmh=36.0)
    planner = RoutePlanner(roadmap)
    start, _ = nearest_intersection(roadmap, (0.0, 0.0))
    end, _ = nearest_intersection(roadmap, (2000.0, 0.0))
    return planner.shortest_route(start.id, end.id)


class TestVehicleSimulator:
    def test_invalid_interval(self, straight_route):
        with pytest.raises(ValueError):
            VehicleSimulator(straight_route, DriverProfile(), sample_interval=0.0)

    def test_journey_covers_route(self, straight_route):
        sim = VehicleSimulator(
            straight_route,
            DriverProfile(stop_probability=0.0, speed_noise_sigma=0.0),
            rng=random.Random(0),
        )
        journey = sim.run(name="test drive")
        assert journey.trace.name == "test drive"
        first, last = straight_route.links[0], straight_route.links[-1]
        np.testing.assert_allclose(journey.trace.positions[0], first.geometry.points[0])
        np.testing.assert_allclose(
            journey.trace.positions[-1], last.geometry.points[-1], atol=1e-6
        )
        assert journey.trace.path_length() == pytest.approx(straight_route.length, rel=0.01)

    def test_sampling_interval(self, straight_route):
        sim = VehicleSimulator(straight_route, DriverProfile(), sample_interval=2.0)
        journey = sim.run()
        assert journey.trace.sampling_interval == pytest.approx(2.0)

    def test_speed_respects_limit(self, straight_route):
        profile = DriverProfile(speed_factor=0.9, stop_probability=0.0, speed_noise_sigma=0.0)
        journey = VehicleSimulator(straight_route, profile, rng=random.Random(1)).run()
        assert journey.trace.speeds().max() <= 10.0 * 0.9 + 0.3

    def test_link_ids_follow_route(self, straight_route):
        journey = VehicleSimulator(
            straight_route, DriverProfile(stop_probability=0.0), rng=random.Random(2)
        ).run()
        assert len(journey.link_ids) == len(journey.trace)
        route_link_ids = [l.id for l in straight_route.links]
        # Link ids appear in route order (no jumps backwards).
        indices = [route_link_ids.index(lid) for lid in journey.link_ids]
        assert indices == sorted(indices)

    def test_stops_extend_duration(self, straight_route):
        quiet = DriverProfile(stop_probability=0.0, speed_noise_sigma=0.0)
        stoppy = DriverProfile(
            stop_probability=1.0, stop_duration_range=(20.0, 20.0), speed_noise_sigma=0.0
        )
        duration_quiet = VehicleSimulator(straight_route, quiet, rng=random.Random(3)).run()
        duration_stoppy = VehicleSimulator(straight_route, stoppy, rng=random.Random(3)).run()
        assert duration_stoppy.stop_count == len(straight_route.links) - 1
        assert (
            duration_stoppy.trace.duration
            >= duration_quiet.trace.duration + 3 * 20.0 - 2.0
        )

    def test_extra_stops_extend_duration(self, straight_route):
        quiet = DriverProfile(stop_probability=0.0, speed_noise_sigma=0.0)
        base = VehicleSimulator(straight_route, quiet, rng=random.Random(3)).run()
        dwelling = VehicleSimulator(
            straight_route, quiet, rng=random.Random(3), extra_stops=[(1000.0, 60.0)]
        ).run()
        assert dwelling.trace.duration >= base.trace.duration + 60.0 - 2.0

    def test_extra_stop_at_start_and_coincident_stops_do_not_stall_queue(
        self, straight_route
    ):
        """Regression: a stop at offset 0 (or two stops sharing an offset)
        must not block every later stop in the merged queue."""
        quiet = DriverProfile(stop_probability=0.0, speed_noise_sigma=0.0)
        base = VehicleSimulator(straight_route, quiet, rng=random.Random(3)).run()
        tricky = VehicleSimulator(
            straight_route,
            quiet,
            rng=random.Random(3),
            extra_stops=[(0.0, 30.0), (1000.0, 20.0), (1000.0, 40.0), (1500.0, 50.0)],
        ).run()
        # All four dwells are honoured: 30 at the start, 20+40 merged at
        # 1000 m, 50 at 1500 m.
        assert tricky.trace.duration >= base.trace.duration + 140.0 - 4.0
        assert tricky.stop_count == 3  # start, merged mid, late

    def test_extra_stops_validated(self, straight_route):
        with pytest.raises(ValueError):
            VehicleSimulator(straight_route, DriverProfile(), extra_stops=[(-5.0, 10.0)])
        with pytest.raises(ValueError):
            VehicleSimulator(straight_route, DriverProfile(), extra_stops=[(10.0, -1.0)])
        with pytest.raises(ValueError):
            VehicleSimulator(
                straight_route, DriverProfile(), extra_stops=[(1e9, 10.0)]
            )

    def test_max_duration_truncates(self, straight_route):
        journey = VehicleSimulator(
            straight_route, DriverProfile(), rng=random.Random(4)
        ).run(max_duration=10.0)
        assert journey.trace.duration <= 10.0


class TestPedestrianSimulator:
    @pytest.fixture(scope="class")
    def walk_route(self):
        roadmap = pedestrian_map(rows=8, cols=8, spacing_m=80.0, seed=1)
        planner = RoutePlanner(roadmap)
        return planner.random_route(min_length=800.0, rng=random.Random(0))

    def test_profile_translation(self):
        profile = PedestrianProfile(walking_speed_factor=0.8, pause_probability=0.2)
        driver = profile.as_driver_profile()
        assert driver.speed_factor == 0.8
        assert driver.stop_probability == 0.2

    def test_walk_speed_is_plausible(self, walk_route):
        sim = PedestrianSimulator(walk_route, rng=random.Random(1))
        journey = sim.run()
        avg_kmh = journey.trace.path_length() / journey.trace.duration * 3.6
        assert 2.5 <= avg_kmh <= 6.0

    def test_trace_name(self, walk_route):
        journey = PedestrianSimulator(walk_route, rng=random.Random(2)).run(name="stroll")
        assert journey.trace.name == "stroll"
