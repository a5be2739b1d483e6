"""Common interface for spatial indexes.

An index stores *items*: arbitrary payload objects together with a bounding
box and a distance callback.  For road maps the payload is a link identifier,
the bounding box is the link geometry's bounds and the distance callback is
the polyline point-to-line distance.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable, Generic, Hashable, Optional, Sequence, TypeVar

from repro.geo.bbox import BoundingBox
from repro.geo.vec import Vec2, as_vec

T = TypeVar("T", bound=Hashable)

#: Radius beyond which :meth:`SpatialIndex.nearest` stops growing its query
#: box and falls back to one exhaustive scan of all items.
_EXHAUSTIVE_SCAN_RADIUS = 1e9


@dataclass(frozen=True)
class IndexedItem(Generic[T]):
    """A payload registered with a spatial index.

    Parameters
    ----------
    key:
        Identifier of the item (e.g. a link id).  Must be hashable.
    bounds:
        Axis-aligned bounding box of the item's geometry.
    distance:
        Callable returning the exact distance from a query point to the
        item's geometry; used to refine candidate sets produced from the
        bounding boxes.
    """

    key: T
    bounds: BoundingBox
    distance: Callable[[Vec2], float]


class SpatialIndex(abc.ABC, Generic[T]):
    """Abstract interface shared by :class:`GridIndex` and :class:`STRtree`."""

    @abc.abstractmethod
    def insert(self, item: IndexedItem[T]) -> None:
        """Add an item to the index (not all indexes support late insertion)."""

    @abc.abstractmethod
    def query_bbox(self, box: BoundingBox) -> list[IndexedItem[T]]:
        """All items whose bounding boxes intersect *box*."""

    def remove(self, key: T) -> int:
        """Remove every item stored under *key*; returns the number removed.

        Removal is optional: static indexes (the STR-packed R-tree) do not
        support it.  :class:`~repro.spatial.grid.GridIndex` implements it so
        that incremental indexes over moving objects (the location service's
        query engine) can relocate items cheaply.
        """
        raise NotImplementedError(f"{type(self).__name__} does not support removal")

    @abc.abstractmethod
    def items(self) -> list[IndexedItem[T]]:
        """Every stored item (used by exhaustive fallback scans)."""

    @abc.abstractmethod
    def __len__(self) -> int:
        """Number of items stored."""

    # ------------------------------------------------------------------ #
    # generic algorithms built on top of query_bbox
    # ------------------------------------------------------------------ #
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
        for item in self.query_bbox(_search_box(p, radius)):
            if item.distance(p) <= radius:
                out.append(item)
        return out

    def nearest(
        self, point: Vec2, max_distance: Optional[float] = None
    ) -> Optional[tuple[IndexedItem[T], float]]:
        """The item closest to *point*, optionally within *max_distance*.

        Returns ``(item, distance)`` or ``None`` if no item qualifies.  The
        search expands the query radius geometrically starting from a small
        initial guess, which gives near-O(1) behaviour for the localised
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
        radius = min(self._initial_radius(), limit)
        best: Optional[tuple[IndexedItem[T], float]] = None
        while True:
            candidates = self.query_bbox(_search_box(p, radius))
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

    def k_nearest(
        self, point: Vec2, k: int, max_distance: Optional[float] = None
    ) -> list[tuple[IndexedItem[T], float]]:
        """The *k* items closest to *point*, sorted by distance."""
        p = as_vec(point)
        if k <= 0 or len(self) == 0:
            return []
        radius = self._initial_radius() if max_distance is None else max_distance
        limit = max_distance if max_distance is not None else float("inf")
        while True:
            candidates = self.query_bbox(_search_box(p, radius))
            scored = sorted(
                ((item, item.distance(p)) for item in candidates), key=lambda x: x[1]
            )
            scored = [(it, d) for it, d in scored if d <= limit]
            if len(scored) >= k and scored[k - 1][1] <= radius:
                return scored[:k]
            if radius >= limit or len(candidates) == len(self):
                return scored[:k]
            radius *= 4.0

    def _initial_radius(self) -> float:
        """Starting radius for expanding nearest-neighbour searches."""
        return 50.0


def _search_box(p, radius: float) -> BoundingBox:
    """The candidate box of a *radius* search around *p*.

    Inflated by a float-rounding margin (see :meth:`SpatialIndex.query_radius`):
    the exact bbox test must never prune an item that the distance
    callback rounds to within *radius*.
    """
    return BoundingBox.around(p, radius + 1e-9 + 1e-12 * radius)


def brute_force_nearest(
    items: Sequence[IndexedItem[T]], point: Vec2, limit: float = float("inf")
) -> Optional[tuple[IndexedItem[T], float]]:
    """Reference O(n) nearest-item search (tests, exhaustive fallbacks).

    Items farther than *limit* are ignored entirely, matching the
    ``max_distance`` contract of :meth:`SpatialIndex.nearest`.
    """
    p = as_vec(point)
    best: Optional[tuple[IndexedItem[T], float]] = None
    for item in items:
        d = item.distance(p)
        if d <= limit and (best is None or d < best[1]):
            best = (item, d)
    return best
