"""Straight segments as spatial-index items, with a scalar distance oracle.

``src/`` indexes map links (polylines); the index and projection tests use
plain two-point segments, and the point-to-segment formula below is the
independent check of :meth:`~repro.geo.polyline.Polyline.project`.
"""

from __future__ import annotations

import math

from repro.geo.bbox import BoundingBox
from repro.spatial.index import IndexedItem


def segment_distance(a, b, q) -> float:
    """Distance from point *q* to the segment ``a``–``b`` (scalar arithmetic)."""
    ax, ay = float(a[0]), float(a[1])
    dx, dy = float(b[0]) - ax, float(b[1]) - ay
    qx, qy = float(q[0]), float(q[1])
    denom = dx * dx + dy * dy
    t = 0.0 if denom == 0.0 else min(1.0, max(0.0, ((qx - ax) * dx + (qy - ay) * dy) / denom))
    return math.hypot(qx - (ax + t * dx), qy - (ay + t * dy))


def segment_item(key, a, b) -> IndexedItem:
    """An index item for the segment ``a``–``b``."""
    bounds = BoundingBox(
        min(a[0], b[0]), min(a[1], b[1]), max(a[0], b[0]), max(a[1], b[1])
    )
    return IndexedItem(key=key, bounds=bounds, distance=lambda q: segment_distance(a, b, q))
