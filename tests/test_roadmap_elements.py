"""Unit tests for repro.roadmap.elements."""

import math

import numpy as np
import pytest

from repro.geo.polyline import Polyline
from repro.roadmap.elements import Intersection, Link, RoadClass


@pytest.fixture()
def l_link():
    """A link with an L-shaped geometry (100 m east then 100 m north)."""
    return Link(
        id=7,
        from_node=1,
        to_node=2,
        geometry=Polyline([(0.0, 0.0), (100.0, 0.0), (100.0, 100.0)]),
        road_class=RoadClass.RESIDENTIAL,
    )


class TestRoadClass:
    def test_default_speed_limits_are_positive(self):
        for cls in RoadClass:
            assert cls.default_speed_limit > 0

    def test_motorway_fastest(self):
        assert RoadClass.MOTORWAY.default_speed_limit == max(
            cls.default_speed_limit for cls in RoadClass
        )

    def test_priority_ordering(self):
        assert RoadClass.MOTORWAY.priority > RoadClass.PRIMARY.priority
        assert RoadClass.RESIDENTIAL.priority > RoadClass.FOOTPATH.priority


class TestIntersection:
    def test_position_coerced(self):
        node = Intersection(id=3, position=(1.0, 2.0))
        assert isinstance(node.position, np.ndarray)


class TestLink:
    def test_length(self, l_link):
        assert l_link.length == pytest.approx(200.0)

    def test_default_speed_limit_from_class(self, l_link):
        assert l_link.speed_limit == pytest.approx(RoadClass.RESIDENTIAL.default_speed_limit)

    def test_explicit_speed_limit(self):
        link = Link(
            id=1,
            from_node=0,
            to_node=1,
            geometry=Polyline([(0, 0), (10, 0)]),
            speed_limit=10.0,
        )
        assert link.speed_limit == 10.0

    def test_invalid_speed_limit(self):
        with pytest.raises(ValueError):
            Link(
                id=1,
                from_node=0,
                to_node=1,
                geometry=Polyline([(0, 0), (10, 0)]),
                speed_limit=-1.0,
            )

    def test_endpoints(self, l_link):
        assert l_link.geometry.points[0].tolist() == [0.0, 0.0]
        assert l_link.geometry.points[-1].tolist() == [100.0, 100.0]

    def test_entry_exit_bearings(self, l_link):
        assert l_link.geometry.bearing_at(0.0) == pytest.approx(math.pi / 2)
        assert l_link.geometry.bearing_at(l_link.length) == pytest.approx(0.0)

    def test_point_and_direction(self, l_link):
        assert l_link.point_at(150.0).tolist() == [100.0, 50.0]
        assert l_link.direction_at(150.0).tolist() == [0.0, 1.0]

    def test_projection(self, l_link):
        matched, offset, dist = l_link.project((40.0, 10.0))
        assert matched.tolist() == [40.0, 0.0]
        assert offset == pytest.approx(40.0)
        assert dist == pytest.approx(10.0)

    def test_shape_points(self, l_link):
        shape = l_link.shape_points()
        assert shape.shape == (1, 2)
        assert shape[0].tolist() == [100.0, 0.0]

    def test_bounds(self, l_link):
        assert l_link.bounds().as_tuple() == (0.0, 0.0, 100.0, 100.0)

    def test_travel_time(self, l_link):
        assert l_link.travel_time(speed=10.0) == pytest.approx(20.0)
        assert l_link.travel_time() == pytest.approx(200.0 / l_link.speed_limit)

    def test_travel_time_invalid_speed(self, l_link):
        with pytest.raises(ValueError):
            l_link.travel_time(speed=0.0)
