"""Incremental construction of road maps.

:class:`RoadMapBuilder` provides the mutable API used by the synthetic map
generators, the JSON loader and the history-based map learner; the result is
an immutable :class:`~repro.roadmap.graph.RoadMap`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.geo.polyline import Polyline
from repro.geo.vec import Vec2, as_vec, distance
from repro.roadmap.elements import Intersection, Link, RoadClass
from repro.roadmap.graph import RoadMap


class RoadMapBuilder:
    """Accumulates intersections and links and assembles a :class:`RoadMap`.

    The builder assigns identifiers automatically (monotonically increasing
    integers) unless explicit ids are supplied, and offers convenience
    helpers for the common "two-way road" case.
    """

    def __init__(self, index_cell_size: float = 250.0):
        self._intersections: Dict[int, Intersection] = {}
        self._links: Dict[int, Link] = {}
        self._next_node_id = 0
        self._next_link_id = 0
        self._index_cell_size = index_cell_size

    # ------------------------------------------------------------------ #
    # intersections
    # ------------------------------------------------------------------ #
    def add_intersection(
        self, position: Vec2, node_id: Optional[int] = None
    ) -> Intersection:
        """Add an intersection at *position* and return it."""
        if node_id is None:
            node_id = self._next_node_id
        if node_id in self._intersections:
            raise ValueError(f"intersection id {node_id} already used")
        node = Intersection(id=node_id, position=as_vec(position))
        self._intersections[node_id] = node
        self._next_node_id = max(self._next_node_id, node_id + 1)
        return node

    def get_or_create_intersection(
        self, position: Vec2, merge_tolerance: float = 1.0
    ) -> Intersection:
        """Return an existing intersection within *merge_tolerance* metres or create one.

        Used by the history-based map learner, where observed positions never
        repeat exactly.
        """
        p = as_vec(position)
        for node in self._intersections.values():
            if distance(node.position, p) <= merge_tolerance:
                return node
        return self.add_intersection(p)

    # ------------------------------------------------------------------ #
    # links
    # ------------------------------------------------------------------ #
    def add_link(
        self,
        from_node: int,
        to_node: int,
        shape_points: Optional[Sequence[Vec2]] = None,
        road_class: RoadClass = RoadClass.SECONDARY,
        speed_limit: Optional[float] = None,
        name: str = "",
        link_id: Optional[int] = None,
    ) -> Link:
        """Add a directed link between two existing intersections.

        *shape_points* are the intermediate geometry vertices; the start and
        end intersection positions are added automatically.
        """
        if from_node not in self._intersections:
            raise ValueError(f"unknown from_node {from_node}")
        if to_node not in self._intersections:
            raise ValueError(f"unknown to_node {to_node}")
        if link_id is None:
            link_id = self._next_link_id
        if link_id in self._links:
            raise ValueError(f"link id {link_id} already used")

        points: List[np.ndarray] = [self._intersections[from_node].position]
        if shape_points:
            points.extend(as_vec(p) for p in shape_points)
        points.append(self._intersections[to_node].position)
        # Collapse consecutive duplicates, which would create zero-length
        # sub-links and confuse arc-length parameterisation.
        cleaned: List[np.ndarray] = [points[0]]
        for p in points[1:]:
            if distance(p, cleaned[-1]) > 1e-9:
                cleaned.append(p)
        if len(cleaned) < 2:
            raise ValueError("link start and end coincide; cannot build geometry")

        link = Link(
            id=link_id,
            from_node=from_node,
            to_node=to_node,
            geometry=Polyline(cleaned),
            road_class=road_class,
            speed_limit=speed_limit,
            name=name,
        )
        self._links[link_id] = link
        self._next_link_id = max(self._next_link_id, link_id + 1)
        return link

    def add_two_way_link(
        self,
        node_a: int,
        node_b: int,
        shape_points: Optional[Sequence[Vec2]] = None,
        road_class: RoadClass = RoadClass.SECONDARY,
        speed_limit: Optional[float] = None,
        name: str = "",
    ) -> Tuple[Link, Link]:
        """Add a pair of opposite links representing a two-way road."""
        forward = self.add_link(
            node_a, node_b, shape_points, road_class, speed_limit, name
        )
        reverse_shape = list(reversed([as_vec(p) for p in shape_points])) if shape_points else None
        backward = self.add_link(
            node_b, node_a, reverse_shape, road_class, speed_limit, name
        )
        return forward, backward

    # ------------------------------------------------------------------ #
    # assembly
    # ------------------------------------------------------------------ #

    def build(self, metadata: Optional[Dict] = None) -> RoadMap:
        """Assemble the immutable :class:`RoadMap`.

        *metadata* records the map's provenance (source extract, geodesic
        origin, ingest report) and survives save/load round-trips.
        """
        return RoadMap(
            self._intersections.values(),
            self._links.values(),
            index_cell_size=self._index_cell_size,
            metadata=metadata,
        )
