"""Road-map elements: intersections, links and road classes.

These classes mirror the map information the paper's protocol requires
(Sec. 3): intersections with a unique identifier and exact location, links
identified by a unique identifier and refined by shape points, plus the
optional attributes (road class, speed limit) the paper lists as further
information that can be extracted from a navigation map.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.geo.polyline import Polyline
from repro.geo.vec import Vec2, as_vec
from repro.geo.bbox import BoundingBox


class RoadClass(enum.Enum):
    """Coarse functional classification of a road link.

    The map-based protocol can use the class to prefer "main roads" when
    choosing an outgoing link at an intersection and to derive default speed
    limits, exactly the kind of additional map information the paper says can
    be extracted from a car-navigation map.
    """

    MOTORWAY = "motorway"
    PRIMARY = "primary"
    SECONDARY = "secondary"
    RESIDENTIAL = "residential"
    FOOTPATH = "footpath"

    @property
    def default_speed_limit(self) -> float:
        """Default legal speed for the class, in metres per second."""
        return _DEFAULT_SPEED_LIMITS[self]

    @property
    def priority(self) -> int:
        """Relative importance (higher = more major road)."""
        return _CLASS_PRIORITY[self]


_DEFAULT_SPEED_LIMITS = {
    RoadClass.MOTORWAY: 130.0 / 3.6,
    RoadClass.PRIMARY: 100.0 / 3.6,
    RoadClass.SECONDARY: 70.0 / 3.6,
    RoadClass.RESIDENTIAL: 50.0 / 3.6,
    RoadClass.FOOTPATH: 6.0 / 3.6,
}

_CLASS_PRIORITY = {
    RoadClass.MOTORWAY: 5,
    RoadClass.PRIMARY: 4,
    RoadClass.SECONDARY: 3,
    RoadClass.RESIDENTIAL: 2,
    RoadClass.FOOTPATH: 1,
}


@dataclass(frozen=True)
class Intersection:
    """A node of the road network.

    Parameters
    ----------
    id:
        Unique identifier.
    position:
        Exact geographical location in local planar metres.
    """

    id: int
    position: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "position", as_vec(self.position))


@dataclass(frozen=True)
class Link:
    """A directed link between two intersections.

    The link geometry runs from the position of ``from_node`` to the position
    of ``to_node`` and may be refined by intermediate shape points; the full
    geometry is exposed as :attr:`geometry`, a :class:`~repro.geo.Polyline`.

    Parameters
    ----------
    id:
        Unique identifier of the link.
    from_node, to_node:
        Identifiers of the start and end intersections.
    geometry:
        Polyline from the start to the end intersection (including the
        intersection positions themselves as first/last vertices).
    road_class:
        Functional classification, used by turn policies and the mobility
        simulator.
    speed_limit:
        Speed limit in metres per second; defaults to the class default.
    name:
        Optional human-readable name (useful in examples and reports).
    """

    id: int
    from_node: int
    to_node: int
    geometry: Polyline
    road_class: RoadClass = RoadClass.SECONDARY
    speed_limit: Optional[float] = None
    name: str = ""

    def __post_init__(self) -> None:
        if self.speed_limit is None:
            object.__setattr__(self, "speed_limit", self.road_class.default_speed_limit)
        if self.speed_limit <= 0:
            raise ValueError("speed_limit must be positive")

    # ------------------------------------------------------------------ #
    # geometry shortcuts
    # ------------------------------------------------------------------ #
    @property
    def length(self) -> float:
        """Arc length of the link geometry in metres."""
        return self.geometry.length

    def bounds(self) -> BoundingBox:
        """Bounding box of the link geometry."""
        return BoundingBox(*self.geometry.bounds())

    def point_at(self, offset: float) -> np.ndarray:
        """Point at arc-length *offset* metres from the start intersection."""
        return self.geometry.point_at(offset)

    def direction_at(self, offset: float) -> np.ndarray:
        """Unit direction of travel at arc-length *offset*."""
        return self.geometry.direction_at(offset)

    def bearing_at(self, offset: float) -> float:
        """Compass bearing of travel at arc-length *offset*."""
        return self.geometry.bearing_at(offset)

    def project(self, point: Vec2) -> tuple[np.ndarray, float, float]:
        """Project *point* onto the link: ``(matched_point, offset, distance)``."""
        return self.geometry.project(point)

    def distance_to(self, point: Vec2) -> float:
        """Shortest distance from *point* to the link geometry."""
        return self.geometry.distance_to(point)

    def shape_points(self) -> np.ndarray:
        """Intermediate shape points (vertices excluding the two endpoints)."""
        return self.geometry.points[1:-1]

    def travel_time(self, speed: Optional[float] = None) -> float:
        """Time to traverse the link at *speed* (defaults to the speed limit)."""
        v = self.speed_limit if speed is None else speed
        if v <= 0:
            raise ValueError("speed must be positive")
        return self.length / v

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Link(id={self.id}, {self.from_node}->{self.to_node}, "
            f"{self.length:.0f} m, {self.road_class.value})"
        )
