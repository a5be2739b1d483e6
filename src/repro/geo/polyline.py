"""Polyline with arc-length parameterisation.

A road link in the paper's map model is an intersection-to-intersection
connection whose exact geometry is refined by *shape points* (Fig. 4).  The
natural representation is a polyline; the map-based prediction function then
simply advances an arc-length offset along the polyline at the reported
speed, and the map matcher projects sensed positions onto it.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from repro.geo.vec import Vec2, as_vec, distance
from repro.geo.angles import bearing


class Polyline:
    """An ordered sequence of planar points interpreted as a connected path.

    The class pre-computes cumulative arc lengths so that the frequently used
    operations (``point_at``, ``project``) run in O(number of vertices) with
    small constants, which keeps the 1 Hz simulation loops cheap even for
    long traces.
    """

    __slots__ = ("_points", "_cumulative", "_length", "_proj")

    def __init__(self, points: Iterable[Vec2]):
        pts = [as_vec(p) for p in points]
        if len(pts) < 2:
            raise ValueError("a polyline needs at least two points")
        self._points = np.array(pts, dtype=float)
        deltas = np.diff(self._points, axis=0)
        seg_lengths = np.hypot(deltas[:, 0], deltas[:, 1])
        self._cumulative = np.concatenate(([0.0], np.cumsum(seg_lengths)))
        self._length = float(self._cumulative[-1])
        self._proj: tuple | None = None

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def from_array(cls, points: np.ndarray) -> "Polyline":
        """Trusted constructor from an ``(n, 2)`` float array.

        Skips the per-point coercion and finiteness checks of ``__init__``
        — for callers whose geometry is already validated, such as the
        compiled-map cache loading a document this process wrote.  The
        resulting polyline is bit-identical to one built the slow way from
        the same coordinates.
        """
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
            raise ValueError("a polyline needs an (n >= 2, 2) point array")
        self = cls.__new__(cls)
        self._points = pts
        deltas = np.diff(pts, axis=0)
        seg_lengths = np.hypot(deltas[:, 0], deltas[:, 1])
        self._cumulative = np.concatenate(([0.0], np.cumsum(seg_lengths)))
        self._length = float(self._cumulative[-1])
        self._proj = None
        return self

    # ------------------------------------------------------------------ #
    # basic properties
    # ------------------------------------------------------------------ #
    @property
    def points(self) -> np.ndarray:
        """The vertices as an ``(n, 2)`` array (read-only view)."""
        view = self._points.view()
        view.flags.writeable = False
        return view

    @property
    def length(self) -> float:
        """Total arc length in metres."""
        return self._length

    def __len__(self) -> int:
        return len(self._points)

    def bounds(self) -> tuple[float, float, float, float]:
        """Axis-aligned bounds ``(min_x, min_y, max_x, max_y)``."""
        mins = self._points.min(axis=0)
        maxs = self._points.max(axis=0)
        return (float(mins[0]), float(mins[1]), float(maxs[0]), float(maxs[1]))

    # ------------------------------------------------------------------ #
    # arc-length parameterisation
    # ------------------------------------------------------------------ #
    def _locate(self, offset: float) -> tuple[int, float]:
        """Return ``(segment_index, local_offset)`` for an arc-length offset."""
        if offset <= 0.0:
            return 0, 0.0
        if offset >= self._length:
            last = len(self._points) - 2
            return last, self._cumulative[last + 1] - self._cumulative[last]
        idx = int(np.searchsorted(self._cumulative, offset, side="right") - 1)
        idx = min(idx, len(self._points) - 2)
        return idx, offset - float(self._cumulative[idx])

    def point_at(self, offset: float) -> np.ndarray:
        """Point at arc-length *offset* metres from the start (clamped)."""
        idx, local = self._locate(offset)
        a = self._points[idx]
        b = self._points[idx + 1]
        seg_len = float(self._cumulative[idx + 1] - self._cumulative[idx])
        if seg_len == 0.0:
            return a.copy()
        t = local / seg_len
        return a + (b - a) * t

    def points_at(self, offsets: np.ndarray) -> np.ndarray:
        """:meth:`point_at` at every offset of *offsets*, as an ``(n, 2)`` array.

        The same clamps, segment search, zero-length-segment rule and IEEE
        operations as :meth:`point_at`, so every row is bit-identical to it.
        """
        offsets = np.asarray(offsets, dtype=float)
        cumulative = self._cumulative
        last = len(self._points) - 2
        idx = np.minimum(np.searchsorted(cumulative, offsets, side="right") - 1, last)
        local = np.where(
            offsets >= self._length,
            cumulative[last + 1] - cumulative[last],
            offsets - cumulative[idx],
        )
        low = offsets <= 0.0
        idx = np.where(low, 0, idx)
        local = np.where(low, 0.0, local)
        a = self._points[idx]
        seg_len = cumulative[idx + 1] - cumulative[idx]
        zero = seg_len == 0.0
        t = local / np.where(zero, 1.0, seg_len)
        return np.where(zero[:, None], a, a + (self._points[idx + 1] - a) * t[:, None])

    def direction_at(self, offset: float) -> np.ndarray:
        """Unit tangent direction at arc-length *offset* (direction of travel)."""
        idx, _ = self._locate(offset)
        a = self._points[idx]
        b = self._points[idx + 1]
        d = b - a
        n = math.hypot(d[0], d[1])
        if n == 0.0:
            return np.zeros(2)
        return d / n

    def bearing_at(self, offset: float) -> float:
        """Compass bearing of travel at arc-length *offset*."""
        idx, _ = self._locate(offset)
        return bearing(self._points[idx], self._points[idx + 1])

    # ------------------------------------------------------------------ #
    # projection
    # ------------------------------------------------------------------ #
    def project(self, point: Vec2) -> tuple[np.ndarray, float, float]:
        """Project *point* onto the polyline.

        Returns
        -------
        (projected_point, offset, dist):
            The closest point on the polyline, its arc-length offset from the
            start and the distance from *point* to that closest point.
        """
        p = as_vec(point)
        if self._proj is None:
            # Per-segment arrays are invariants of the geometry; computing
            # them once matters because the map matcher projects every
            # sensor sighting of a simulation run.
            a = self._points[:-1]
            d = self._points[1:] - a
            denom = (d * d).sum(axis=1)
            degenerate = denom == 0.0
            denom_safe = np.where(degenerate, 1.0, denom)
            self._proj = (a, d, denom, denom_safe, degenerate)
        a, d, denom, denom_safe, degenerate = self._proj
        t = ((p - a) * d).sum(axis=1) / denom_safe
        t = np.minimum(np.maximum(np.where(degenerate, 0.0, t), 0.0), 1.0)
        proj = a + d * t[:, None]
        delta = proj - p
        dist = np.hypot(delta[:, 0], delta[:, 1])
        i = int(np.argmin(dist))
        offset = float(self._cumulative[i]) + float(t[i]) * math.sqrt(float(denom[i]))
        return proj[i].copy(), offset, float(dist[i])

    def distance_to(self, point: Vec2) -> float:
        """Shortest distance from *point* to the polyline."""
        return self.project(point)[2]

    # ------------------------------------------------------------------ #
    # geometry editing helpers
    # ------------------------------------------------------------------ #
    def concat(self, other: "Polyline") -> "Polyline":
        """Concatenate two polylines (the junction point is de-duplicated)."""
        pts = list(self._points)
        other_pts = list(other._points)
        if distance(pts[-1], other_pts[0]) < 1e-9:
            other_pts = other_pts[1:]
        return Polyline(pts + other_pts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Polyline({len(self._points)} points, length={self._length:.1f} m)"
