"""Unit tests for repro.geo.polyline."""

import math

import numpy as np
import pytest

from repro.geo.polyline import Polyline
from repro.geo.segment import Segment


@pytest.fixture()
def l_shape():
    """An L-shaped polyline: 100 m east, then 100 m north."""
    return Polyline([(0.0, 0.0), (100.0, 0.0), (100.0, 100.0)])


class TestConstruction:
    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            Polyline([(0.0, 0.0)])

    def test_length(self, l_shape):
        assert l_shape.length == pytest.approx(200.0)

    def test_start_end(self, l_shape):
        assert l_shape.start.tolist() == [0.0, 0.0]
        assert l_shape.end.tolist() == [100.0, 100.0]

    def test_len_returns_vertex_count(self, l_shape):
        assert len(l_shape) == 3

    def test_from_segments(self):
        segs = [Segment((0, 0), (10, 0)), Segment((10, 0), (10, 10))]
        poly = Polyline.from_segments(segs)
        assert poly.length == pytest.approx(20.0)
        assert len(poly) == 3

    def test_from_segments_empty_raises(self):
        with pytest.raises(ValueError):
            Polyline.from_segments([])

    def test_points_are_read_only(self, l_shape):
        with pytest.raises(ValueError):
            l_shape.points[0][0] = 99.0

    def test_segments_roundtrip(self, l_shape):
        segs = l_shape.segments()
        assert len(segs) == 2
        assert segs[0].length == pytest.approx(100.0)

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
    def test_reversed_geometry(self, l_shape):
        rev = l_shape.reversed()
        assert rev.start.tolist() == [100.0, 100.0]
        assert rev.length == pytest.approx(l_shape.length)

    def test_resample_spacing(self, l_shape):
        dense = l_shape.resample(10.0)
        assert dense.length == pytest.approx(l_shape.length, rel=1e-6)
        assert len(dense) >= 20

    def test_resample_preserves_endpoints(self, l_shape):
        dense = l_shape.resample(7.0)
        np.testing.assert_allclose(dense.start, l_shape.start)
        np.testing.assert_allclose(dense.end, l_shape.end)

    def test_resample_invalid_spacing(self, l_shape):
        with pytest.raises(ValueError):
            l_shape.resample(0.0)

    def test_subpolyline(self, l_shape):
        sub = l_shape.subpolyline(50.0, 150.0)
        assert sub.length == pytest.approx(100.0)
        np.testing.assert_allclose(sub.start, [50.0, 0.0])
        np.testing.assert_allclose(sub.end, [100.0, 50.0])

    def test_subpolyline_invalid_range(self, l_shape):
        with pytest.raises(ValueError):
            l_shape.subpolyline(120.0, 80.0)

    def test_concat(self, l_shape):
        other = Polyline([(100.0, 100.0), (200.0, 100.0)])
        joined = l_shape.concat(other)
        assert joined.length == pytest.approx(300.0)
        assert len(joined) == 4  # duplicate junction point removed
