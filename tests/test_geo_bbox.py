"""Unit tests for repro.geo.bbox."""

import pytest

from repro.geo.bbox import BoundingBox


class TestConstruction:
    def test_invalid_box_raises(self):
        with pytest.raises(ValueError):
            BoundingBox(10.0, 0.0, 0.0, 5.0)

    def test_from_points(self):
        box = BoundingBox.from_points([(0, 1), (5, -2), (3, 7)])
        assert box.as_tuple() == (0.0, -2.0, 5.0, 7.0)

    def test_from_points_empty_raises(self):
        with pytest.raises(ValueError):
            BoundingBox.from_points([])

    def test_around(self):
        box = BoundingBox.around((10.0, 20.0), 5.0)
        assert box.as_tuple() == (5.0, 15.0, 15.0, 25.0)

    def test_properties(self):
        box = BoundingBox(0.0, 0.0, 4.0, 3.0)
        assert box.width == 4.0
        assert box.height == 3.0


class TestPredicates:
    def test_contains_point(self):
        box = BoundingBox(0, 0, 10, 10)
        assert box.contains_point((5, 5))
        assert box.contains_point((0, 10))  # boundary counts
        assert not box.contains_point((11, 5))

    def test_intersects_overlapping(self):
        a = BoundingBox(0, 0, 10, 10)
        b = BoundingBox(5, 5, 15, 15)
        assert a.intersects(b)
        assert b.intersects(a)

    def test_intersects_touching(self):
        a = BoundingBox(0, 0, 10, 10)
        b = BoundingBox(10, 0, 20, 10)
        assert a.intersects(b)

    def test_intersects_disjoint(self):
        a = BoundingBox(0, 0, 10, 10)
        b = BoundingBox(20, 20, 30, 30)
        assert not a.intersects(b)


class TestOperations:
    def test_union(self):
        a = BoundingBox(0, 0, 5, 5)
        b = BoundingBox(3, -2, 10, 4)
        assert a.union(b).as_tuple() == (0.0, -2.0, 10.0, 5.0)

    def test_expanded(self):
        box = BoundingBox(0, 0, 10, 10).expanded(2.0)
        assert box.as_tuple() == (-2.0, -2.0, 12.0, 12.0)
