"""Axis-aligned bounding boxes.

Bounding boxes are the unit of storage of the spatial indexes in
:mod:`repro.spatial` and are also used by the location server's range
queries ("address all users that are currently inside a department of a
store", paper Sec. 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.geo.vec import Vec2, as_vec


@dataclass(frozen=True)
class BoundingBox:
    """A rectangle aligned with the coordinate axes, in metres."""

    min_x: float
    min_y: float
    max_x: float
    max_y: float

    def __post_init__(self) -> None:
        if self.min_x > self.max_x or self.min_y > self.max_y:
            raise ValueError(
                "invalid bounding box: "
                f"({self.min_x}, {self.min_y}, {self.max_x}, {self.max_y})"
            )

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_points(cls, points: Iterable[Vec2]) -> "BoundingBox":
        """Smallest box containing all *points*."""
        pts = np.array([as_vec(p) for p in points], dtype=float)
        if len(pts) == 0:
            raise ValueError("cannot build a bounding box from zero points")
        mins = pts.min(axis=0)
        maxs = pts.max(axis=0)
        return cls(float(mins[0]), float(mins[1]), float(maxs[0]), float(maxs[1]))

    @classmethod
    def around(cls, center: Vec2, radius: float) -> "BoundingBox":
        """Square box of half-width *radius* centred at *center*."""
        c = as_vec(center)
        r = abs(float(radius))
        return cls(c[0] - r, c[1] - r, c[0] + r, c[1] + r)

    # ------------------------------------------------------------------ #
    # properties
    # ------------------------------------------------------------------ #
    @property
    def width(self) -> float:
        """Extent along the x axis."""
        return self.max_x - self.min_x

    @property
    def height(self) -> float:
        """Extent along the y axis."""
        return self.max_y - self.min_y

    def as_tuple(self) -> tuple[float, float, float, float]:
        """``(min_x, min_y, max_x, max_y)``."""
        return (self.min_x, self.min_y, self.max_x, self.max_y)

    # ------------------------------------------------------------------ #
    # predicates and set operations
    # ------------------------------------------------------------------ #
    def contains_point(self, point: Vec2) -> bool:
        """Whether *point* lies inside or on the boundary of the box."""
        p = as_vec(point)
        return (
            self.min_x <= p[0] <= self.max_x and self.min_y <= p[1] <= self.max_y
        )

    def intersects(self, other: "BoundingBox") -> bool:
        """Whether the two boxes overlap (boundaries touching counts)."""
        return not (
            other.min_x > self.max_x
            or other.max_x < self.min_x
            or other.min_y > self.max_y
            or other.max_y < self.min_y
        )

    def union(self, other: "BoundingBox") -> "BoundingBox":
        """Smallest box containing both boxes."""
        return BoundingBox(
            min(self.min_x, other.min_x),
            min(self.min_y, other.min_y),
            max(self.max_x, other.max_x),
            max(self.max_y, other.max_y),
        )

    def expanded(self, margin: float) -> "BoundingBox":
        """The box grown by *margin* metres on every side."""
        return BoundingBox(
            self.min_x - margin,
            self.min_y - margin,
            self.max_x + margin,
            self.max_y + margin,
        )
