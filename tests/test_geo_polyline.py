"""Unit tests for repro.geo.polyline."""

import math

import numpy as np
import pytest

from repro.geo.polyline import Polyline


@pytest.fixture()
def l_shape():
    """An L-shaped polyline: 100 m east, then 100 m north."""
    return Polyline([(0.0, 0.0), (100.0, 0.0), (100.0, 100.0)])


@pytest.fixture()
def horizontal():
    """A single straight segment: 100 m east from the origin."""
    return Polyline([(0.0, 0.0), (100.0, 0.0)])


class TestConstruction:
    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            Polyline([(0.0, 0.0)])

    def test_length(self, l_shape):
        assert l_shape.length == pytest.approx(200.0)

    def test_start_end(self, l_shape):
        assert l_shape.points[0].tolist() == [0.0, 0.0]
        assert l_shape.points[-1].tolist() == [100.0, 100.0]

    def test_len_returns_vertex_count(self, l_shape):
        assert len(l_shape) == 3

    def test_points_are_read_only(self, l_shape):
        with pytest.raises(ValueError):
            l_shape.points[0][0] = 99.0

    def test_bounds(self, l_shape):
        assert l_shape.bounds() == (0.0, 0.0, 100.0, 100.0)


class TestPointAt:
    def test_start(self, l_shape):
        assert l_shape.point_at(0.0).tolist() == [0.0, 0.0]

    def test_corner(self, l_shape):
        assert l_shape.point_at(100.0).tolist() == [100.0, 0.0]

    def test_second_leg(self, l_shape):
        assert l_shape.point_at(150.0).tolist() == [100.0, 50.0]

    def test_clamped(self, l_shape):
        assert l_shape.point_at(-5.0).tolist() == [0.0, 0.0]
        assert l_shape.point_at(500.0).tolist() == [100.0, 100.0]

    def test_direction_at(self, l_shape):
        assert l_shape.direction_at(50.0).tolist() == [1.0, 0.0]
        assert l_shape.direction_at(150.0).tolist() == [0.0, 1.0]

    def test_bearing_at(self, l_shape):
        assert l_shape.bearing_at(50.0) == pytest.approx(math.pi / 2)
        assert l_shape.bearing_at(150.0) == pytest.approx(0.0)

    @pytest.mark.parametrize(
        "points",
        [
            [(0.0, 0.0), (100.0, 0.0), (100.0, 100.0)],
            [(0.0, 0.0), (0.0, 0.0), (30.0, 40.0)],  # zero-length first segment
            [(0.0, 0.0), (30.0, 40.0), (30.0, 40.0)],  # zero-length last segment
            [(0.0, 0.0), (3.0, 0.0), (3.0, 0.0), (3.0, 0.1), (7.0, 7.0)],
            [(5.0, 5.0), (5.0, 5.0)],  # a zero-length polyline
        ],
    )
    def test_points_at_equals_point_at_bitwise(self, points):
        line = Polyline.from_array(np.array(points))
        length = line.length
        offsets = np.concatenate((
            [-1.0, -0.0, 0.0, length, np.nextafter(length, np.inf), length + 7.0],
            line._cumulative,
            np.linspace(-3.0, length + 3.0, 41),
        ))
        many = line.points_at(offsets)
        assert many.shape == (len(offsets), 2)
        for offset, row in zip(offsets.tolist(), many):
            assert row.tobytes() == line.point_at(offset).tobytes(), offset


class TestProjection:
    def test_project_onto_first_leg(self, l_shape):
        point, offset, dist = l_shape.project((40.0, 10.0))
        assert point.tolist() == [40.0, 0.0]
        assert offset == pytest.approx(40.0)
        assert dist == pytest.approx(10.0)

    def test_project_onto_second_leg(self, l_shape):
        point, offset, dist = l_shape.project((90.0, 60.0))
        assert point.tolist() == [100.0, 60.0]
        assert offset == pytest.approx(160.0)
        assert dist == pytest.approx(10.0)

    def test_project_point_on_line_zero_distance(self, l_shape):
        _, offset, dist = l_shape.project((100.0, 30.0))
        assert dist == pytest.approx(0.0)
        assert offset == pytest.approx(130.0)

    def test_offset_consistent_with_point_at(self, l_shape):
        for query in [(10.0, 5.0), (99.0, 3.0), (120.0, 90.0), (-20.0, -20.0)]:
            point, offset, _ = l_shape.project(query)
            np.testing.assert_allclose(l_shape.point_at(offset), point, atol=1e-9)

    def test_distance_to(self, l_shape):
        assert l_shape.distance_to((50.0, -30.0)) == pytest.approx(30.0)


class TestTransformations:

    def test_concat(self, l_shape):
        other = Polyline([(100.0, 100.0), (200.0, 100.0)])
        joined = l_shape.concat(other)
        assert joined.length == pytest.approx(300.0)
        assert len(joined) == 4  # duplicate junction point removed


class TestSingleSegment:
    """A two-point polyline is the straight segment of a map link."""

    def test_length(self, horizontal):
        assert horizontal.length == pytest.approx(100.0)

    def test_direction(self, horizontal):
        assert horizontal.direction_at(0.0).tolist() == [1.0, 0.0]
        assert horizontal.direction_at(100.0).tolist() == [1.0, 0.0]

    def test_bearing_east(self, horizontal):
        assert horizontal.bearing_at(50.0) == pytest.approx(math.pi / 2)

    def test_midpoint(self, horizontal):
        assert horizontal.point_at(50.0).tolist() == [50.0, 0.0]

    def test_reversed(self, horizontal):
        rev = Polyline(horizontal.points[::-1])
        assert rev.points[0].tolist() == [100.0, 0.0]
        assert rev.points[-1].tolist() == [0.0, 0.0]
        assert rev.length == pytest.approx(horizontal.length)
        assert rev.bearing_at(50.0) == pytest.approx(3 * math.pi / 2)

    def test_degenerate_segment_direction_is_zero(self):
        seg = Polyline([(5.0, 5.0), (5.0, 5.0)])
        assert seg.length == 0.0
        assert seg.direction_at(0.0).tolist() == [0.0, 0.0]

    def test_bounds(self):
        seg = Polyline([(3.0, 8.0), (-2.0, 1.0)])
        assert seg.bounds() == (-2.0, 1.0, 3.0, 8.0)


class TestSingleSegmentPointAt:
    def test_start_and_end(self, horizontal):
        assert horizontal.point_at(0.0).tolist() == [0.0, 0.0]
        assert horizontal.point_at(100.0).tolist() == [100.0, 0.0]

    def test_interior(self, horizontal):
        assert horizontal.point_at(25.0).tolist() == [25.0, 0.0]

    def test_clamped_below(self, horizontal):
        assert horizontal.point_at(-10.0).tolist() == [0.0, 0.0]

    def test_clamped_above(self, horizontal):
        assert horizontal.point_at(150.0).tolist() == [100.0, 0.0]


class TestSingleSegmentProjection:
    def test_projects_perpendicularly(self, horizontal):
        point, offset, dist = horizontal.project((30.0, 40.0))
        assert point.tolist() == [30.0, 0.0]
        assert offset == pytest.approx(30.0)
        assert dist == pytest.approx(40.0)

    def test_projection_clamped_to_start(self, horizontal):
        point, offset, _ = horizontal.project((-50.0, 10.0))
        assert point.tolist() == [0.0, 0.0]
        assert offset == 0.0

    def test_projection_clamped_to_end(self, horizontal):
        point, offset, _ = horizontal.project((200.0, 10.0))
        assert point.tolist() == [100.0, 0.0]
        assert offset == pytest.approx(100.0)

    def test_distance_to_point_on_segment_is_zero(self, horizontal):
        assert horizontal.distance_to((42.0, 0.0)) == pytest.approx(0.0)

    def test_distance_perpendicular(self, horizontal):
        assert horizontal.distance_to((50.0, 30.0)) == pytest.approx(30.0)

    def test_distance_beyond_end_uses_endpoint(self, horizontal):
        assert horizontal.distance_to((103.0, 4.0)) == pytest.approx(5.0)

    def test_project_offset(self, horizontal):
        assert horizontal.project((64.0, 10.0))[1] == pytest.approx(64.0)

    def test_project_parameter_degenerate(self):
        seg = Polyline([(1.0, 1.0), (1.0, 1.0)])
        point, offset, dist = seg.project((5.0, 5.0))
        assert point.tolist() == [1.0, 1.0]
        assert offset == 0.0
        assert dist == pytest.approx(math.sqrt(32.0))
        assert seg.distance_to((4.0, 5.0)) == pytest.approx(5.0)
