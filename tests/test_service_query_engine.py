"""Tests for the columnar query kernels (and the oracle index's keyed removal).

The columnar engine is also compared with the scalar oracle engine in
:mod:`reference.scalar_query_engine`, whose own bulk-sync path is checked
against its incremental one here.
"""

import numpy as np
import pytest

from repro.geo.bbox import BoundingBox
from repro.geo.vec import distance
from repro.service.query_engine import QueryEngine
from repro.spatial.index import IndexedItem

import reference.scalar_query_engine as scalar_oracle
from reference.scalar_query_engine import MovingObjectIndex, ScalarQueryEngine


def _point_item(key, x, y):
    p = np.array([x, y], dtype=float)
    return IndexedItem(key=key, bounds=BoundingBox(x, y, x, y), distance=lambda q: distance(p, q))


def _sync(engine, positions, time):
    """Sync *engine* to an ``{object_id: position}`` mapping."""
    ids = list(positions)
    stacked = np.array([positions[oid] for oid in ids], dtype=float).reshape(-1, 2)
    return engine.sync(np.array(ids, dtype=str), stacked, time)


def _range(engine, box):
    """Sorted ids inside *box* (the facade sorts the per-shard union)."""
    return sorted(engine.ids_in_box(box))


def _positions(rng, n, extent=10_000.0):
    pts = rng.uniform(0.0, extent, size=(n, 2))
    return {f"obj-{i:04d}": pts[i] for i in range(n)}


class TestGridIndexRemove:
    def test_remove_returns_count_and_shrinks(self):
        index = MovingObjectIndex(cell_size=100.0)
        index.insert(_point_item("a", 10.0, 10.0))
        index.insert(_point_item("b", 20.0, 20.0))
        assert len(index) == 2
        assert index.remove("a") == 1
        assert len(index) == 1
        assert [item.key for item in index.items()] == ["b"]

    def test_remove_unknown_key_is_noop(self):
        index = MovingObjectIndex(cell_size=100.0)
        index.insert(_point_item("a", 10.0, 10.0))
        assert index.remove("zz") == 0
        assert len(index) == 1

    def test_removed_item_leaves_queries(self):
        index = MovingObjectIndex(cell_size=100.0)
        index.insert(_point_item("a", 10.0, 10.0))
        index.insert(_point_item("b", 500.0, 500.0))
        box = BoundingBox(0.0, 0.0, 50.0, 50.0)
        assert [item.key for item in index.query_bbox(box)] == ["a"]
        index.remove("a")
        assert index.query_bbox(box) == []
        nearest = index.nearest((0.0, 0.0))
        assert nearest is not None and nearest[0].key == "b"

    def test_remove_duplicate_keys_removes_all(self):
        index = MovingObjectIndex(cell_size=100.0)
        index.insert(_point_item("dup", 10.0, 10.0))
        index.insert(_point_item("dup", 900.0, 900.0))
        assert index.remove("dup") == 2
        assert len(index) == 0

    def test_reinsert_after_remove(self):
        index = MovingObjectIndex(cell_size=100.0)
        index.insert(_point_item("a", 10.0, 10.0))
        index.remove("a")
        index.insert(_point_item("a", 700.0, 700.0))
        nearest = index.nearest((710.0, 710.0))
        assert nearest[0].key == "a"
        assert nearest[1] == pytest.approx(distance((700.0, 700.0), (710.0, 710.0)))


class TestQueryEngineSync:
    def test_first_sync_registers_everything(self):
        engine = QueryEngine()
        rng = np.random.default_rng(0)
        positions = _positions(rng, 50)
        _sync(engine, positions, time=0.0)
        assert len(engine) == 50

    def test_resync_refreshes_positions(self):
        engine = QueryEngine()
        _sync(engine, {"a": np.array([100.0, 100.0])}, time=0.0)
        _sync(engine, {"a": np.array([300.0, 300.0])}, time=1.0)
        assert _range(engine, BoundingBox(250.0, 250.0, 350.0, 350.0)) == ["a"]

    def test_far_move_leaves_old_area(self):
        engine = QueryEngine()
        _sync(engine, {"a": np.array([100.0, 100.0])}, time=0.0)
        _sync(engine, {"a": np.array([600.0, 100.0])}, time=1.0)
        assert _range(engine, BoundingBox(550.0, 50.0, 650.0, 150.0)) == ["a"]
        assert _range(engine, BoundingBox(50.0, 50.0, 150.0, 150.0)) == []

    def test_vanished_objects_are_dropped(self):
        engine = QueryEngine()
        _sync(engine, {"a": np.array([1.0, 1.0]), "b": np.array([2.0, 2.0])}, time=0.0)
        _sync(engine, {"b": np.array([2.0, 2.0])}, time=1.0)
        assert len(engine) == 1
        assert engine.k_nearest((0.0, 0.0), k=5) == [("b", distance((2.0, 2.0), (0.0, 0.0)))]


class TestQueryEngineQueries:
    @pytest.fixture()
    def engine_and_positions(self):
        engine = QueryEngine()
        rng = np.random.default_rng(7)
        positions = _positions(rng, 200)
        _sync(engine, positions, time=0.0)
        return engine, positions

    def test_range_matches_brute_force(self, engine_and_positions):
        engine, positions = engine_and_positions
        rng = np.random.default_rng(1)
        for _ in range(20):
            lo = rng.uniform(0.0, 8000.0, size=2)
            extent = rng.uniform(100.0, 3000.0, size=2)
            box = BoundingBox(lo[0], lo[1], lo[0] + extent[0], lo[1] + extent[1])
            expected = sorted(
                oid for oid, p in positions.items() if box.contains_point(p)
            )
            assert _range(engine, box) == expected

    def test_k_nearest_matches_brute_force(self, engine_and_positions):
        engine, positions = engine_and_positions
        rng = np.random.default_rng(2)
        for k in (1, 3, 10, 250):
            q = rng.uniform(0.0, 10_000.0, size=2)
            expected = sorted(
                ((oid, distance(p, q)) for oid, p in positions.items()),
                key=lambda pair: (pair[1], pair[0]),
            )[:k]
            assert engine.k_nearest(q, k=k) == expected

    def test_within_radius_matches_brute_force(self, engine_and_positions):
        engine, positions = engine_and_positions
        rng = np.random.default_rng(3)
        for radius in (50.0, 500.0, 2500.0):
            q = rng.uniform(0.0, 10_000.0, size=2)
            expected = sorted(
                (
                    (oid, distance(p, q))
                    for oid, p in positions.items()
                    if distance(p, q) <= radius
                ),
                key=lambda pair: (pair[1], pair[0]),
            )
            assert engine.within_radius(q, radius) == expected

    def test_k_zero_and_negative_radius(self, engine_and_positions):
        engine, _ = engine_and_positions
        assert engine.k_nearest((0.0, 0.0), k=0) == []
        assert engine.within_radius((0.0, 0.0), -1.0) == []

    def test_empty_engine_queries(self):
        engine = QueryEngine()
        assert engine.ids_in_box(BoundingBox(0.0, 0.0, 1.0, 1.0)) == []
        assert engine.k_nearest((0.0, 0.0), k=3) == []
        assert engine.within_radius((0.0, 0.0), 100.0) == []

    def test_tie_break_is_insertion_order_independent(self):
        """Equidistant objects at the k-th place sort by id, not by index luck."""
        # Four objects on a circle around the query point, all at distance 100.
        offsets = [(100.0, 0.0), (-100.0, 0.0), (0.0, 100.0), (0.0, -100.0)]
        names = ["d", "b", "a", "c"]
        for order in ([0, 1, 2, 3], [3, 2, 1, 0], [2, 0, 3, 1]):
            engine = QueryEngine()
            positions = {
                names[i]: np.array([500.0 + offsets[i][0], 500.0 + offsets[i][1]])
                for i in order
            }
            _sync(engine, positions, time=0.0)
            result = engine.k_nearest((500.0, 500.0), k=2)
            assert [oid for oid, _ in result] == ["a", "b"]
            assert all(d == pytest.approx(100.0) for _, d in result)


class TestScalarBulkSync:
    """The scalar engine's cold-start bulk sync equals its incremental loop."""

    def _engines(self, n=300, seed=11):
        rng = np.random.default_rng(seed)
        positions = _positions(rng, n)
        assert n >= scalar_oracle._BULK_SYNC_THRESHOLD
        bulk = ScalarQueryEngine(cell_size=500.0)
        moved_bulk = _sync(bulk, positions, time=0.0)
        incremental = ScalarQueryEngine(cell_size=500.0)
        threshold = scalar_oracle._BULK_SYNC_THRESHOLD
        try:
            scalar_oracle._BULK_SYNC_THRESHOLD = n + 1
            moved_inc = _sync(incremental, positions, time=0.0)
        finally:
            scalar_oracle._BULK_SYNC_THRESHOLD = threshold
        assert moved_bulk == moved_inc == n
        return bulk, incremental, positions

    def test_bulk_cold_start_matches_incremental(self):
        bulk, incremental, positions = self._engines()
        assert bulk.object_ids() == incremental.object_ids()
        assert bulk._cells == incremental._cells
        probes = [
            BoundingBox(0.0, 0.0, 3000.0, 3000.0),
            BoundingBox(4000.0, 2000.0, 8000.0, 9000.0),
        ]
        for box in probes:
            assert _range(bulk, box) == _range(incremental, box)
        for point in ((5000.0, 5000.0), (137.0, 9900.0)):
            assert bulk.k_nearest(point, 7) == incremental.k_nearest(point, 7)
            assert bulk.within_radius(point, 1500.0) == incremental.within_radius(point, 1500.0)

    def test_incremental_updates_after_bulk_start(self):
        bulk, incremental, positions = self._engines()
        moved_positions = dict(positions)
        ids = list(positions)
        for oid in ids[:20]:
            moved_positions[oid] = positions[oid] + np.array([1300.0, -700.0])
        del moved_positions[ids[-1]]
        assert _sync(bulk, moved_positions, 1.0) == _sync(incremental, moved_positions, 1.0)
        assert bulk.object_ids() == incremental.object_ids()
        box = BoundingBox(0.0, 0.0, 10_000.0, 10_000.0)
        assert _range(bulk, box) == _range(incremental, box)

    def test_small_cold_start_stays_incremental(self):
        rng = np.random.default_rng(3)
        positions = _positions(rng, scalar_oracle._BULK_SYNC_THRESHOLD - 1)
        engine = ScalarQueryEngine(cell_size=500.0)
        _sync(engine, positions, time=0.0)
        assert len(engine) == len(positions)


class TestColumnarScalarEquivalence:
    """The columnar kernels are bit-identical to the scalar reference engine."""

    def _pair(self, cell_size=400.0):
        return QueryEngine(), ScalarQueryEngine(cell_size=cell_size)

    def _assert_identical(self, columnar, scalar, rng, queries=15):
        assert len(columnar) == len(scalar)
        for _ in range(queries):
            lo = rng.uniform(-1000.0, 9000.0, size=2)
            extent = rng.uniform(100.0, 3000.0, size=2)
            box = BoundingBox(lo[0], lo[1], lo[0] + extent[0], lo[1] + extent[1])
            assert _range(columnar, box) == _range(scalar, box)
            q = rng.uniform(0.0, 10_000.0, size=2)
            k = int(rng.integers(1, 12))
            assert columnar.k_nearest(q, k) == scalar.k_nearest(q, k)
            radius = float(rng.uniform(50.0, 2500.0))
            assert columnar.within_radius(q, radius) == scalar.within_radius(q, radius)

    def test_random_fleet_answers_match(self):
        columnar, scalar = self._pair()
        rng = np.random.default_rng(23)
        positions = _positions(rng, 300)
        _sync(columnar, positions, 0.0)
        _sync(scalar, positions, 0.0)
        self._assert_identical(columnar, scalar, np.random.default_rng(5))

    def test_incremental_drift_drops_and_adds_match(self):
        columnar, scalar = self._pair()
        rng = np.random.default_rng(29)
        positions = _positions(rng, 250)
        _sync(columnar, positions, 0.0)
        _sync(scalar, positions, 0.0)
        ids = list(positions)
        for step in range(1, 5):
            # Drift everything a little, push some objects across cells,
            # drop a few and add a few fresh ones each step.
            positions = {
                oid: p + rng.normal(0.0, 120.0, size=2) for oid, p in positions.items()
            }
            for oid in rng.choice(ids, size=10, replace=False):
                positions.pop(str(oid), None)
            for j in range(3):
                positions[f"new-{step}-{j}"] = rng.uniform(0.0, 10_000.0, size=2)
            ids = list(positions)
            _sync(columnar, positions, float(step))
            _sync(scalar, positions, float(step))
            self._assert_identical(columnar, scalar, np.random.default_rng(100 + step))


class TestSyncDropScanSkip:
    """Unchanged membership skips the drop scan without changing semantics."""

    @pytest.mark.parametrize("engine_cls", [QueryEngine, ScalarQueryEngine])
    def test_steady_state_never_drops(self, engine_cls):
        engine = engine_cls()
        rng = np.random.default_rng(17)
        positions = _positions(rng, 60)
        _sync(engine, positions, 0.0)
        for step in range(1, 6):
            positions = {
                oid: p + rng.normal(0.0, 40.0, size=2) for oid, p in positions.items()
            }
            _sync(engine, positions, float(step))
        assert len(engine) == 60

    @pytest.mark.parametrize("engine_cls", [QueryEngine, ScalarQueryEngine])
    def test_equal_length_different_keys_still_drops(self, engine_cls):
        """Same count but a swapped id must not fool the skip check."""
        engine = engine_cls()
        _sync(engine, {"a": np.array([1.0, 1.0]), "b": np.array([2.0, 2.0])}, 0.0)
        _sync(engine, {"a": np.array([1.0, 1.0]), "c": np.array([3.0, 3.0])}, 1.0)
        assert _range(engine, BoundingBox(0.0, 0.0, 10.0, 10.0)) == ["a", "c"]
