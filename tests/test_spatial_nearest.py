"""Regression tests for GridIndex.nearest's expansion and fallback logic."""

import numpy as np
import pytest

from repro.geo.bbox import BoundingBox
from repro.geo.vec import as_vec, distance
from repro.spatial.grid import GridIndex
from repro.spatial.index import IndexedItem, brute_force_nearest


def _point_item(key, x, y):
    p = np.array([x, y])
    return IndexedItem(
        key=key,
        bounds=BoundingBox(x, y, x, y),
        distance=lambda q, _p=p: distance(as_vec(q), _p),
    )


def _index(items):
    return GridIndex(cell_size=100.0, items=items)


class TestNearestExpansion:
    def test_far_item_found_without_limit(self):
        """A single item far beyond the initial radius must still be found."""
        items = [_point_item("far", 250_000.0, 0.0)]
        index = _index(items)
        result = index.nearest((0.0, 0.0))
        assert result is not None
        assert result[0].key == "far"
        assert result[1] == pytest.approx(250_000.0)

    def test_exhaustive_fallback_beyond_growth_cap(self):
        """Items farther than the 1e9 growth cap are found by the full scan."""
        items = [_point_item("absurd", 5e9, 0.0)]
        index = _index(items)
        result = index.nearest((0.0, 0.0))
        assert result is not None
        assert result[0].key == "absurd"

    def test_closer_item_outside_first_box_wins(self):
        """The expansion may not stop at the first hit if a closer item
        could still lie outside the searched box."""
        items = [_point_item("near", 60.0, 0.0), _point_item("nearer", 0.0, 55.0)]
        index = _index(items)
        result = index.nearest((0.0, 0.0))
        assert result is not None
        assert result[0].key == "nearer"

    def test_matches_brute_force_on_random_points(self):
        rng = np.random.default_rng(3)
        pts = rng.uniform(-5000.0, 5000.0, size=(60, 2))
        items = [_point_item(i, x, y) for i, (x, y) in enumerate(pts)]
        queries = rng.uniform(-6000.0, 6000.0, size=(20, 2))
        index = _index(items)
        for q in queries:
            expected = brute_force_nearest(items, q)
            got = index.nearest(q)
            assert got is not None and expected is not None
            assert got[1] == pytest.approx(expected[1])


class TestNearestLimits:
    def test_max_distance_excludes_everything(self):
        items = [_point_item("far", 1000.0, 0.0)]
        index = _index(items)
        assert index.nearest((0.0, 0.0), max_distance=10.0) is None

    def test_max_distance_includes_item(self):
        items = [_point_item("a", 30.0, 0.0), _point_item("b", 90.0, 0.0)]
        index = _index(items)
        result = index.nearest((0.0, 0.0), max_distance=50.0)
        assert result is not None
        assert result[0].key == "a"

    def test_nonpositive_max_distance(self):
        items = [_point_item("a", 0.0, 0.0)]
        index = _index(items)
        assert index.nearest((0.0, 0.0), max_distance=0.0) is None

    def test_empty_index(self):
        index = _index([])
        assert index.nearest((0.0, 0.0)) is None


class TestItems:
    def test_items_returns_everything(self):
        items = [_point_item(i, float(i), 0.0) for i in range(5)]
        index = _index(items)
        assert sorted(item.key for item in index.items()) == list(range(5))
        assert len(index) == 5

    def test_brute_force_respects_limit(self):
        items = [_point_item("a", 100.0, 0.0)]
        assert brute_force_nearest(items, (0.0, 0.0), limit=50.0) is None
        hit = brute_force_nearest(items, (0.0, 0.0), limit=150.0)
        assert hit is not None and hit[0].key == "a"
