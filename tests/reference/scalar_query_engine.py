"""The incremental grid-index query engine, kept as a test oracle.

:class:`ScalarQueryEngine` answers the same queries as the columnar
:class:`~repro.service.query_engine.QueryEngine` with per-object dict state
and an incremental :class:`MovingObjectIndex`, refining cell-level
candidates item by item.  :class:`MovingObjectIndex` is the production
:class:`~repro.spatial.grid.GridIndex` (a static index over map links)
plus the keyed removal, bulk rebuild and k-nearest search that only a
moving-object index needs.  The columnar engine is asserted
bit-identical to it (answers) across the scenario library, and ``benchmarks/bench_query_engine.py`` measures the columnar
speedup against it.

Tests that compare engines build a :class:`~repro.service.facade.LocationService`
and hand it to :func:`use_scalar_engines` before the first ingest.
"""

from __future__ import annotations

import logging
from collections import defaultdict
from typing import Dict, Hashable, Iterable, List, Mapping, Optional, Tuple, TypeVar

import numpy as np

from repro.geo.bbox import BoundingBox
from repro.geo.vec import Vec2, as_vec, distance
from repro.spatial.grid import GridIndex
from repro.spatial.index import IndexedItem

#: Below this many objects the incremental per-object registration is
#: cheaper than staging a bulk rebuild (array round-trips have a fixed
#: cost); above it the first sync of a cold :class:`ScalarQueryEngine`
#: goes through :meth:`MovingObjectIndex.rebuild` in one pass.
_BULK_SYNC_THRESHOLD = 256

_logger = logging.getLogger(__name__)

T = TypeVar("T", bound=Hashable)


class MovingObjectIndex(GridIndex[T]):
    """:class:`GridIndex` with keyed removal, bulk rebuild and k-nearest.

    Items live in an insertion-ordered dict keyed by a serial, and every
    item remembers the cells it covers, so :meth:`remove` is
    O(covered cells) instead of O(n) list surgery.
    """

    def __init__(
        self, cell_size: float = 250.0, items: Optional[Iterable[IndexedItem[T]]] = None
    ):
        super().__init__(cell_size)
        self._items: Dict[int, IndexedItem[T]] = {}
        self._serial = 0
        self._by_key: Dict[T, List[int]] = defaultdict(list)
        self._item_cells: Dict[int, List[Tuple[int, int]]] = {}
        if items is not None:
            for item in items:
                self.insert(item)

    def insert(self, item: IndexedItem[T]) -> None:
        """Register *item* with every grid cell its bounding box overlaps."""
        serial = self._serial
        self._serial += 1
        self._items[serial] = item
        self._by_key[item.key].append(serial)
        min_cx, min_cy = self._cell_of(item.bounds.min_x, item.bounds.min_y)
        max_cx, max_cy = self._cell_of(item.bounds.max_x, item.bounds.max_y)
        if self._occupied is None:
            self._occupied = (min_cx, min_cy, max_cx, max_cy)
        else:
            o = self._occupied
            self._occupied = (
                min(o[0], min_cx), min(o[1], min_cy), max(o[2], max_cx), max(o[3], max_cy)
            )
        covered = [
            (cx, cy) for cx in range(min_cx, max_cx + 1) for cy in range(min_cy, max_cy + 1)
        ]
        self._item_cells[serial] = covered
        for cell in covered:
            self._cells[cell].append(item)

    def rebuild(self, items: Iterable[IndexedItem[T]]) -> None:
        """Replace the whole index content with *items* in one bulk pass.

        Equivalent to clearing the index and calling :meth:`insert` once per
        item (same serials, same per-cell insertion order, so queries return
        identical results), but the occupied-cell extent is computed once
        over all items instead of being widened item by item, and the
        per-item work is reduced to cell assignment.  This is the path the
        query engine's first big sync uses: at 100k objects the N×
        ``insert`` bookkeeping dominates index build time.
        """
        self._cells = defaultdict(list)
        self._items = {}
        self._serial = 0
        self._by_key = defaultdict(list)
        self._item_cells = {}
        self._occupied = None
        items = list(items)
        if not items:
            return
        size = self.cell_size
        bounds = np.array(
            [
                (item.bounds.min_x, item.bounds.min_y, item.bounds.max_x, item.bounds.max_y)
                for item in items
            ],
            dtype=float,
        )
        cells = np.floor(bounds / size).astype(np.int64)
        self._occupied = (
            int(cells[:, 0].min()),
            int(cells[:, 1].min()),
            int(cells[:, 2].max()),
            int(cells[:, 3].max()),
        )
        grid_cells = self._cells
        by_key = self._by_key
        item_cells = self._item_cells
        store = self._items
        cell_rows = cells.tolist()
        for serial, (item, (min_cx, min_cy, max_cx, max_cy)) in enumerate(
            zip(items, cell_rows)
        ):
            store[serial] = item
            by_key[item.key].append(serial)
            if min_cx == max_cx and min_cy == max_cy:
                # Point-like items (the moving-object index) cover one cell.
                cell = (min_cx, min_cy)
                item_cells[serial] = [cell]
                grid_cells[cell].append(item)
            else:
                covered = [
                    (cx, cy)
                    for cx in range(min_cx, max_cx + 1)
                    for cy in range(min_cy, max_cy + 1)
                ]
                item_cells[serial] = covered
                for cell in covered:
                    grid_cells[cell].append(item)
        self._serial = len(items)

    def remove(self, key: T) -> int:
        """Remove every item stored under *key*; returns the number removed.

        Incremental indexes over moving objects relocate items this way.
        The occupied-cell extent is left untouched (it remains a valid,
        merely conservative clamp for the query-cell enumeration), so
        removal never has to rescan the surviving items.
        """
        serials = self._by_key.pop(key, None)
        if not serials:
            return 0
        for serial in serials:
            item = self._items.pop(serial)
            for cell in self._item_cells.pop(serial):
                bucket = self._cells.get(cell)
                if bucket is None:
                    continue
                bucket[:] = [other for other in bucket if other is not item]
                if not bucket:
                    del self._cells[cell]
        return len(serials)

    def k_nearest(
        self, point: Vec2, k: int, max_distance: Optional[float] = None
    ) -> List[Tuple[IndexedItem[T], float]]:
        """The *k* items closest to *point*, sorted by distance."""
        p = as_vec(point)
        if k <= 0 or len(self) == 0:
            return []
        radius = self.cell_size if max_distance is None else max_distance
        limit = max_distance if max_distance is not None else float("inf")
        while True:
            candidates = self.query_bbox(self._search_box(p, radius))
            scored = sorted(
                ((item, item.distance(p)) for item in candidates), key=lambda x: x[1]
            )
            scored = [(it, d) for it, d in scored if d <= limit]
            if len(scored) >= k and scored[k - 1][1] <= radius:
                return scored[:k]
            if radius >= limit or len(candidates) == len(self):
                return scored[:k]
            radius *= 4.0

    def items(self) -> List[IndexedItem[T]]:
        """Every stored item, in insertion order."""
        return list(self._items.values())


class ScalarQueryEngine:
    """Incremental :class:`MovingObjectIndex` query engine, kept as the reference.

    Maintains per-object dict state and answers queries by refining
    cell-level candidates item by item.  :class:`QueryEngine` (columnar) is
    asserted bit-identical to this engine across the scenario library; the
    benchmark suite measures the columnar speedup against it.

    The engine is *incremental*: each :meth:`sync` diffs the new predicted
    positions against the previous snapshot and only re-registers objects
    whose position moved into a different index cell.  Items are stored
    with their covering cell as bounding box (always current by
    construction) and a distance callback that reads the object's *exact*
    current position, so every query refines its cell-level candidates to
    exact answers.
    """

    def __init__(self, cell_size: float = 500.0):
        if cell_size <= 0:
            raise ValueError("cell_size must be positive")
        self.cell_size = float(cell_size)
        self._index: MovingObjectIndex[str] = MovingObjectIndex(cell_size=cell_size)
        self._positions: Dict[str, np.ndarray] = {}
        self._cells: Dict[str, Tuple[int, int]] = {}

    def __len__(self) -> int:
        return len(self._positions)

    def object_ids(self) -> List[str]:
        """Ids currently held by the engine (insertion order)."""
        return list(self._positions)

    # ------------------------------------------------------------------ #
    # incremental maintenance
    # ------------------------------------------------------------------ #
    def sync(self, object_ids: np.ndarray, positions: np.ndarray, time: float) -> int:
        """Bring the index up to date with *object_ids* at *positions* at *time*.

        The same call as :meth:`QueryEngine.sync` (ids as a ``'<U'`` array or
        a list; they are kept as Python strings).  Objects absent from
        *object_ids* are dropped; objects whose position moved into a
        different cell are re-registered; objects that stayed in their cell
        only get their exact position refreshed (their index entry — cell
        bounds plus position-reading distance callback — is still valid).
        Returns the number of re-registered objects.
        """
        ids = np.asarray(object_ids, dtype=str).tolist()
        positions = dict(zip(ids, np.asarray(positions, dtype=float).reshape(-1, 2)))
        moved = 0
        if not self._cells and len(positions) >= _BULK_SYNC_THRESHOLD:
            return self._bulk_sync(positions, time)
        # Skip the drop pass when the membership is unchanged — the common
        # steady state.  Keys-view equality runs the length check plus the
        # set comparison in C, cheaper than building the drop list.
        same_membership = positions.keys() == self._cells.keys()
        if not same_membership:
            for object_id in [oid for oid in self._cells if oid not in positions]:
                self._index.remove(object_id)
                del self._cells[object_id]
                del self._positions[object_id]
        for object_id, position in positions.items():
            self._positions[object_id] = position
            cell = self._cell_of(position)
            if self._cells.get(object_id) == cell:
                continue
            if object_id in self._cells:
                self._index.remove(object_id)
            self._index.insert(
                IndexedItem(
                    key=object_id,
                    bounds=self._cell_box(cell),
                    distance=self._distance_to(object_id),
                )
            )
            self._cells[object_id] = cell
            moved += 1
        return moved

    def _bulk_sync(self, positions: Mapping[str, np.ndarray], time: float) -> int:
        """First big sync: register every object through one index rebuild.

        Equivalent to the incremental loop above for an empty engine (same
        registration order, hence the same index serials and query answers,
        asserted by the test-suite), but it computes every object's cell in
        one vectorised pass and hands the whole item list to
        :meth:`MovingObjectIndex.rebuild` instead of paying the
        per-item ``insert`` bookkeeping N times — the difference between a
        sub-second and a multi-second cold start at mega-fleet sizes.
        """
        object_ids = list(positions)
        stacked = np.array([positions[oid] for oid in object_ids], dtype=float)
        cell_rows = np.floor(stacked / self.cell_size).astype(np.int64).tolist()
        items = []
        for object_id, (cx, cy) in zip(object_ids, cell_rows):
            cell = (cx, cy)
            self._positions[object_id] = positions[object_id]
            self._cells[object_id] = cell
            items.append(
                IndexedItem(
                    key=object_id,
                    bounds=self._cell_box(cell),
                    distance=self._distance_to(object_id),
                )
            )
        self._index.rebuild(items)
        moved = len(items)
        _logger.debug(
            "bulk sync: rebuilt index with %d objects at t=%g", moved, time
        )
        return moved

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def ids_in_box(self, box: BoundingBox) -> List[str]:
        """Ids whose exact position lies inside *box* (unsorted)."""
        positions = self._positions
        return [
            item.key
            for item in self._index.query_bbox(box)
            if box.contains_point(positions[item.key])
        ]

    def k_nearest(self, point: Vec2, k: int) -> List[Tuple[str, float]]:
        """The *k* objects closest to *point*, tie-broken by ``(d, id)``.

        The underlying index resolves ties arbitrarily at the k-th place, so
        when the candidate list is full the engine re-fetches everything
        within the k-th distance and re-sorts — the answer is independent of
        insertion order.
        """
        if k <= 0 or not self._positions:
            return []
        p = as_vec(point)
        top = self._index.k_nearest(p, k)
        if len(top) == k:
            boundary = top[-1][1]
            items = self._index.query_radius(p, boundary)
        else:
            items = [item for item, _ in top]
        scored = sorted(
            ((item.key, distance(self._positions[item.key], p)) for item in items),
            key=lambda pair: (pair[1], pair[0]),
        )
        return scored[:k]

    def within_radius(self, point: Vec2, radius: float) -> List[Tuple[str, float]]:
        """Objects within *radius* of *point* (geofence), sorted by ``(d, id)``."""
        if radius < 0 or not self._positions:
            return []
        p = as_vec(point)
        positions = self._positions
        scored = []
        for item in self._index.query_bbox(BoundingBox.around(p, radius)):
            d = distance(positions[item.key], p)
            if d <= radius:
                scored.append((item.key, d))
        scored.sort(key=lambda pair: (pair[1], pair[0]))
        return scored

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _cell_of(self, position: np.ndarray) -> Tuple[int, int]:
        size = self.cell_size
        return (int(np.floor(position[0] / size)), int(np.floor(position[1] / size)))

    def _cell_box(self, cell: Tuple[int, int]) -> BoundingBox:
        size = self.cell_size
        return BoundingBox(
            cell[0] * size, cell[1] * size, (cell[0] + 1) * size, (cell[1] + 1) * size
        )

    def _distance_to(self, object_id: str):
        positions = self._positions
        return lambda q, _oid=object_id: distance(positions[_oid], q)


def use_scalar_engines(service):
    """Replace *service*'s shard engines with scalar oracle engines.

    Call it right after constructing the service, before the first ingest:
    the new engines start empty and fill on the next sync.  Returns the
    service.
    """
    service.engines = [ScalarQueryEngine() for _ in service.engines]
    return service
