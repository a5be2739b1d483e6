"""Unit tests for repro.spatial.grid.

Keyed removal, bulk rebuild and k-nearest search belong to the oracle's
moving-object index (:class:`reference.scalar_query_engine.MovingObjectIndex`,
a :class:`GridIndex` subclass); they are tested here against the production
index and brute-force scans.
"""

import random

import pytest

from repro.geo.bbox import BoundingBox
from repro.spatial.grid import GridIndex
from repro.spatial.index import IndexedItem, brute_force_nearest

from reference.scalar_query_engine import MovingObjectIndex
from reference.segments import segment_item


@pytest.fixture()
def populated_index():
    index = GridIndex(cell_size=100.0)
    # A grid of horizontal segments spaced 200 m apart vertically.
    for i in range(10):
        index.insert(segment_item(i, (0.0, i * 200.0), (1000.0, i * 200.0)))
    return index


class TestConstruction:
    def test_invalid_cell_size(self):
        with pytest.raises(ValueError):
            GridIndex(cell_size=0.0)

    def test_negative_cell_size(self):
        with pytest.raises(ValueError):
            GridIndex(cell_size=-100.0)

    def test_len(self, populated_index):
        assert len(populated_index) == 10

    def test_constructor_accepts_items(self):
        items = [segment_item(0, (0, 0), (10, 0))]
        assert len(GridIndex(cell_size=50.0, items=items)) == 1


class TestQueries:
    def test_query_bbox_finds_intersecting(self, populated_index):
        hits = populated_index.query_bbox(BoundingBox(400.0, -10.0, 600.0, 210.0))
        assert sorted(item.key for item in hits) == [0, 1]

    def test_query_bbox_no_hits(self, populated_index):
        assert populated_index.query_bbox(BoundingBox(0.0, 2500.0, 10.0, 2600.0)) == []

    def test_query_bbox_does_not_duplicate(self, populated_index):
        hits = populated_index.query_bbox(BoundingBox(-50.0, -50.0, 1050.0, 50.0))
        keys = [item.key for item in hits]
        assert len(keys) == len(set(keys))

    def test_query_radius_exact(self, populated_index):
        hits = populated_index.query_radius((500.0, 90.0), 95.0)
        assert [item.key for item in hits] == [0]

    def test_query_radius_multiple(self, populated_index):
        hits = populated_index.query_radius((500.0, 100.0), 150.0)
        assert sorted(item.key for item in hits) == [0, 1]

    def test_nearest(self, populated_index):
        found = populated_index.nearest((500.0, 260.0))
        assert found is not None
        item, dist = found
        assert item.key == 1
        assert dist == pytest.approx(60.0)

    def test_nearest_respects_max_distance(self, populated_index):
        assert populated_index.nearest((500.0, 260.0), max_distance=10.0) is None

    def test_nearest_on_empty_index(self):
        assert GridIndex().nearest((0.0, 0.0)) is None

    def test_nearest_zero_max_distance(self, populated_index):
        assert populated_index.nearest((500.0, 0.0), max_distance=0.0) is None

    def test_k_nearest_ordering(self, populated_index):
        index = MovingObjectIndex(cell_size=100.0, items=populated_index.items())
        results = index.k_nearest((500.0, 250.0), k=3)
        keys = [item.key for item, _ in results]
        assert keys == [1, 2, 0]
        dists = [d for _, d in results]
        assert dists == sorted(dists)

    def test_k_nearest_k_zero(self, populated_index):
        index = MovingObjectIndex(cell_size=100.0, items=populated_index.items())
        assert index.k_nearest((0.0, 0.0), k=0) == []

    def test_nearest_far_query_still_finds(self, populated_index):
        found = populated_index.nearest((50000.0, 50000.0))
        assert found is not None

    def test_late_insert_far_away_is_found(self, populated_index):
        """An insert outside the occupied extent widens it for later queries."""
        populated_index.insert(
            segment_item("far", (100_000.0, 100_000.0), (100_010.0, 100_000.0))
        )
        found = populated_index.nearest((100_005.0, 100_004.0))
        assert found is not None
        assert found[0].key == "far"
        assert found[1] == pytest.approx(4.0)
        box = BoundingBox(99_000.0, 99_000.0, 101_000.0, 101_000.0)
        assert [item.key for item in populated_index.query_bbox(box)] == ["far"]


def random_items(n, seed=0, extent=5000.0):
    rng = random.Random(seed)
    items = []
    for i in range(n):
        x, y = rng.uniform(0, extent), rng.uniform(0, extent)
        dx, dy = rng.uniform(-300, 300), rng.uniform(-300, 300)
        items.append(segment_item(i, (x, y), (x + dx, y + dy)))
    return items


class TestRandomSegments:
    """Queries over scattered random segments agree with linear scans."""

    def test_empty_index_answers_every_query_empty(self):
        index = GridIndex(cell_size=400.0, items=[])
        assert len(index) == 0
        assert index.query_bbox(BoundingBox(0, 0, 1, 1)) == []
        assert index.query_radius((0.0, 0.0), 1000.0) == []
        assert index.nearest((0.0, 0.0)) is None
        assert MovingObjectIndex(cell_size=400.0).k_nearest((0.0, 0.0), k=3) == []

    def test_single_item_found_by_enclosing_bbox(self):
        index = GridIndex(cell_size=400.0, items=random_items(1))
        hits = index.query_bbox(BoundingBox(-1e6, -1e6, 1e6, 1e6))
        assert [item.key for item in hits] == [0]

    def test_query_bbox_matches_linear_scan(self):
        items = random_items(200, seed=1)
        index = GridIndex(cell_size=250.0, items=items)
        box = BoundingBox(1000.0, 1000.0, 2500.0, 2500.0)
        expected = {item.key for item in items if item.bounds.intersects(box)}
        assert {item.key for item in index.query_bbox(box)} == expected

    def test_nearest_matches_brute_force(self):
        items = random_items(150, seed=2)
        index = GridIndex(cell_size=250.0, items=items)
        for query in [(0.0, 0.0), (2500.0, 2500.0), (4999.0, 10.0), (-500.0, 6000.0)]:
            expected = brute_force_nearest(items, query)
            got = index.nearest(query)
            assert got is not None and expected is not None
            assert got[1] == pytest.approx(expected[1])

    def test_nearest_does_not_depend_on_cell_size(self):
        items = random_items(300, seed=3)
        fine = GridIndex(cell_size=100.0, items=items)
        coarse = GridIndex(cell_size=2000.0, items=items)
        rng = random.Random(7)
        for _ in range(25):
            q = (rng.uniform(-500, 5500), rng.uniform(-500, 5500))
            f = fine.nearest(q)
            c = coarse.nearest(q)
            assert f is not None and c is not None
            assert f[1] == pytest.approx(c[1], abs=1e-9)

    def test_query_radius_matches_linear_scan(self):
        items = random_items(100, seed=5)
        index = GridIndex(cell_size=250.0, items=items)
        hits = index.query_radius((2500.0, 2500.0), 800.0)
        for item in hits:
            assert item.distance((2500.0, 2500.0)) <= 800.0
        expected = {i.key for i in items if i.distance((2500.0, 2500.0)) <= 800.0}
        assert {i.key for i in hits} == expected

    def test_k_nearest_matches_brute_force_ranking(self):
        items = random_items(120, seed=6)
        index = MovingObjectIndex(cell_size=250.0, items=items)
        query = (1800.0, 3200.0)
        got = index.k_nearest(query, k=7)
        expected = sorted(item.distance(query) for item in items)[:7]
        assert [d for _item, d in got] == pytest.approx(expected)

    def test_insert_after_construction_is_found(self):
        items = random_items(50, seed=4)
        index = GridIndex(cell_size=250.0, items=items)
        before = index.nearest((2500.0, 2500.0))
        assert before is not None and before[1] > 0.0
        index.insert(segment_item("extra", (2499.0, 2500.0), (2501.0, 2500.0)))
        assert len(index) == 51
        found = index.nearest((2500.0, 2500.0))
        assert found is not None
        assert found[0].key == "extra"
        assert found[1] == pytest.approx(0.0)


def point_item(key, x, y, cell_size=100.0):
    import math

    cx, cy = math.floor(x / cell_size), math.floor(y / cell_size)
    return IndexedItem(
        key=key,
        bounds=BoundingBox(
            cx * cell_size, cy * cell_size, (cx + 1) * cell_size, (cy + 1) * cell_size
        ),
        distance=None,
    )


class TestRebuild:
    """``rebuild(items)`` is one bulk pass equivalent to N ``insert`` calls."""

    def _items(self):
        items = [segment_item(i, (0.0, i * 200.0), (1000.0, i * 200.0)) for i in range(10)]
        # A few point-like (single-cell) items, the moving-object shape.
        items += [point_item(100 + i, 37.0 + 310.0 * i, 411.0 - 90.0 * i) for i in range(5)]
        return items

    def _assert_equivalent(self, bulk, incremental):
        assert len(bulk) == len(incremental)
        assert bulk._occupied == incremental._occupied
        assert sorted(bulk._cells) == sorted(incremental._cells)
        for cell, bucket in incremental._cells.items():
            assert [item.key for item in bulk._cells[cell]] == [
                item.key for item in bucket
            ]
        probes = [
            BoundingBox(-50.0, -50.0, 1050.0, 2050.0),
            BoundingBox(0.0, 300.0, 400.0, 500.0),
            BoundingBox(900.0, 900.0, 901.0, 901.0),
        ]
        for box in probes:
            assert [i.key for i in bulk.query_bbox(box)] == [
                i.key for i in incremental.query_bbox(box)
            ]

    def test_rebuild_matches_incremental_insertion(self):
        items = self._items()
        # The production index's insert and the oracle's bulk pass agree.
        incremental = GridIndex(cell_size=100.0)
        for item in items:
            incremental.insert(item)
        bulk = MovingObjectIndex(cell_size=100.0)
        bulk.rebuild(items)
        self._assert_equivalent(bulk, incremental)

    def test_rebuild_replaces_previous_content(self):
        index = MovingObjectIndex(cell_size=100.0)
        index.insert(segment_item("old", (0, 0), (10, 0)))
        items = self._items()
        index.rebuild(items)
        fresh = MovingObjectIndex(cell_size=100.0)
        fresh.rebuild(items)
        self._assert_equivalent(index, fresh)
        assert all(item.key != "old" for item in index.query_bbox(BoundingBox(-1, -1, 11, 1)))

    def test_rebuild_empty_clears(self):
        index = MovingObjectIndex(cell_size=100.0)
        index.insert(segment_item(0, (0, 0), (10, 0)))
        index.rebuild([])
        assert len(index) == 0
        assert index.query_bbox(BoundingBox(-100, -100, 100, 100)) == []
        assert index.nearest((0.0, 0.0)) is None

    def test_remove_after_rebuild(self):
        items = self._items()
        bulk = MovingObjectIndex(cell_size=100.0)
        bulk.rebuild(items)
        incremental = MovingObjectIndex(cell_size=100.0)
        for item in items:
            incremental.insert(item)
        assert bulk.remove(3) == incremental.remove(3) == 1
        assert bulk.remove(102) == incremental.remove(102) == 1
        self._assert_equivalent(bulk, incremental)

    def test_insert_after_rebuild_continues_serials(self):
        items = self._items()
        bulk = MovingObjectIndex(cell_size=100.0)
        bulk.rebuild(items)
        incremental = MovingObjectIndex(cell_size=100.0)
        for item in items:
            incremental.insert(item)
        extra = point_item("late", 512.0, 512.0)
        bulk.insert(extra)
        incremental.insert(extra)
        self._assert_equivalent(bulk, incremental)
