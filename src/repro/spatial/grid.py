"""Uniform-grid spatial hash.

Road-network geometry is spread roughly uniformly over the covered area, so
a fixed-cell-size grid gives excellent query performance with trivial code.
This is the index :class:`repro.roadmap.graph.RoadMap` uses for its links.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Dict, Generic, Hashable, Iterable, List, Optional, Set, Tuple, TypeVar

from repro.geo.bbox import BoundingBox
from repro.geo.vec import Vec2, as_vec
from repro.spatial.index import IndexedItem, brute_force_nearest

T = TypeVar("T", bound=Hashable)

#: Radius beyond which :meth:`GridIndex.nearest` stops growing its query
#: box and falls back to one exhaustive scan of all items.
_EXHAUSTIVE_SCAN_RADIUS = 1e9


class GridIndex(Generic[T]):
    """Spatial hash with square cells of a configurable size.

    Parameters
    ----------
    cell_size:
        Edge length of a grid cell in metres.  A good choice is slightly
        larger than the typical item extent; for road links the default of
        250 m works well across all the paper's scenarios.
    items:
        Optional initial items.
    """

    def __init__(
        self, cell_size: float = 250.0, items: Optional[Iterable[IndexedItem[T]]] = None
    ):
        if cell_size <= 0:
            raise ValueError("cell_size must be positive")
        self.cell_size = float(cell_size)
        self._cells: Dict[Tuple[int, int], List[IndexedItem[T]]] = defaultdict(list)
        self._items: List[IndexedItem[T]] = []
        self._occupied: Optional[Tuple[int, int, int, int]] = None
        if items is not None:
            for item in items:
                self.insert(item)

    # ------------------------------------------------------------------ #
    # maintenance
    # ------------------------------------------------------------------ #
    def insert(self, item: IndexedItem[T]) -> None:
        """Register *item* with every grid cell its bounding box overlaps."""
        self._items.append(item)
        min_cx, min_cy = self._cell_of(item.bounds.min_x, item.bounds.min_y)
        max_cx, max_cy = self._cell_of(item.bounds.max_x, item.bounds.max_y)
        if self._occupied is None:
            self._occupied = (min_cx, min_cy, max_cx, max_cy)
        else:
            o = self._occupied
            self._occupied = (
                min(o[0], min_cx), min(o[1], min_cy), max(o[2], max_cx), max(o[3], max_cy)
            )
        for cx in range(min_cx, max_cx + 1):
            for cy in range(min_cy, max_cy + 1):
                self._cells[(cx, cy)].append(item)

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def query_bbox(self, box: BoundingBox) -> list[IndexedItem[T]]:
        """All items whose bounding boxes intersect *box*."""
        seen: Set[int] = set()
        out: List[IndexedItem[T]] = []
        for cell in self._query_cells(box):
            for item in self._cells.get(cell, ()):
                marker = id(item)
                if marker in seen:
                    continue
                seen.add(marker)
                if item.bounds.intersects(box):
                    out.append(item)
        return out

    def _query_cells(self, box: BoundingBox) -> Iterable[Tuple[int, int]]:
        """Cells to visit for *box*, in lexicographic (cx, cy) order.

        Large boxes over a sparse index (the expanding nearest-neighbour
        searches of a map with large empty stretches) would enumerate far
        more empty cells than occupied ones; in that regime the occupied
        cells are filtered directly instead.  Both paths visit the same
        non-empty cells in the same order, so results are identical.
        """
        if self._occupied is None:
            return ()
        min_cx, min_cy = self._cell_of(box.min_x, box.min_y)
        max_cx, max_cy = self._cell_of(box.max_x, box.max_y)
        occ_min_cx, occ_min_cy, occ_max_cx, occ_max_cy = self._occupied
        min_cx, min_cy = max(min_cx, occ_min_cx), max(min_cy, occ_min_cy)
        max_cx, max_cy = min(max_cx, occ_max_cx), min(max_cy, occ_max_cy)
        if min_cx > max_cx or min_cy > max_cy:
            return ()
        n_cells = (max_cx - min_cx + 1) * (max_cy - min_cy + 1)
        if n_cells > len(self._cells):
            return sorted(
                cell
                for cell in self._cells
                if min_cx <= cell[0] <= max_cx and min_cy <= cell[1] <= max_cy
            )
        return (
            (cx, cy)
            for cx in range(min_cx, max_cx + 1)
            for cy in range(min_cy, max_cy + 1)
        )

    def query_radius(self, point: Vec2, radius: float) -> list[IndexedItem[T]]:
        """Items whose exact geometry lies within *radius* metres of *point*.

        Candidates are produced by a bounding-box query and then refined with
        the items' distance callbacks, so the result is exact — "within" is
        decided solely by ``item.distance(p) <= radius``.  The candidate box
        is inflated by a float-rounding margin: an item whose true distance
        exceeds the radius by less than the distance callback's rounding
        error must still be *refined* (where the callback will round it to
        exactly ``radius`` and admit it), not silently pruned by the exact
        bbox test — otherwise the answer would disagree with a brute-force
        scan using the same callback at the boundary.
        """
        p = as_vec(point)
        out = []
        for item in self.query_bbox(self._search_box(p, radius)):
            if item.distance(p) <= radius:
                out.append(item)
        return out

    def nearest(
        self, point: Vec2, max_distance: Optional[float] = None
    ) -> Optional[tuple[IndexedItem[T], float]]:
        """The item closest to *point*, optionally within *max_distance*.

        Returns ``(item, distance)`` or ``None`` if no item qualifies.  The
        search expands the query radius geometrically starting from one
        cell edge, which gives near-O(1) behaviour for the localised
        queries the map matcher issues.  Each search box carries the same
        float-rounding margin as :meth:`query_radius`, so an item whose
        distance rounds to exactly *max_distance* is found, as a
        brute-force scan would find it.
        """
        p = as_vec(point)
        if len(self) == 0:
            return None
        if max_distance is not None and max_distance <= 0:
            return None
        limit = float(max_distance) if max_distance is not None else float("inf")
        radius = min(self.cell_size, limit)
        best: Optional[tuple[IndexedItem[T], float]] = None
        while True:
            candidates = self.query_bbox(self._search_box(p, radius))
            for item in candidates:
                d = item.distance(p)
                if d <= limit and (best is None or d < best[1]):
                    best = (item, d)
            if best is not None and best[1] <= radius:
                # Nothing outside the searched box can be closer.
                return best
            if radius >= limit or len(candidates) == len(self):
                # The whole allowed region (or the whole index) was examined.
                return best
            if radius >= _EXHAUSTIVE_SCAN_RADIUS:
                # Pathological geometry (items astronomically far away):
                # give up on box growth and scan every item exactly once.
                return brute_force_nearest(self.items(), p, limit=limit)
            radius = min(radius * 4.0, limit)

    def items(self) -> List[IndexedItem[T]]:
        """Every stored item, in insertion order."""
        return list(self._items)

    def __len__(self) -> int:
        return len(self._items)

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _cell_of(self, x: float, y: float) -> Tuple[int, int]:
        return (int(math.floor(x / self.cell_size)), int(math.floor(y / self.cell_size)))

    @staticmethod
    def _search_box(p: Vec2, radius: float) -> BoundingBox:
        """The candidate box of a *radius* search around *p*.

        Inflated by a float-rounding margin (see :meth:`query_radius`): the
        exact bbox test must never prune an item that the distance callback
        rounds to within *radius*.
        """
        return BoundingBox.around(p, radius + 1e-9 + 1e-12 * radius)
