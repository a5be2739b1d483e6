"""Items stored in the spatial index, and the brute-force reference search.

An index stores *items*: arbitrary payload objects together with a bounding
box and a distance callback.  For road maps the payload is a link identifier,
the bounding box is the link geometry's bounds and the distance callback is
the polyline point-to-line distance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generic, Hashable, Optional, Sequence, TypeVar

from repro.geo.bbox import BoundingBox
from repro.geo.vec import Vec2, as_vec

T = TypeVar("T", bound=Hashable)


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


def brute_force_nearest(
    items: Sequence[IndexedItem[T]], point: Vec2, limit: float = float("inf")
) -> Optional[tuple[IndexedItem[T], float]]:
    """Reference O(n) nearest-item search (tests, exhaustive fallbacks).

    Items farther than *limit* are ignored entirely, matching the
    ``max_distance`` contract of :meth:`~repro.spatial.grid.GridIndex.nearest`.
    """
    p = as_vec(point)
    best: Optional[tuple[IndexedItem[T], float]] = None
    for item in items:
        d = item.distance(p)
        if d <= limit and (best is None or d < best[1]):
            best = (item, d)
    return best
