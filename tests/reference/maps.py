"""Tiny road maps and graph views of a :class:`~repro.roadmap.graph.RoadMap`.

Test fixtures only: ``src/`` builds its maps with the generators of
:mod:`repro.roadmap.generators` and routes over its own contraction
hierarchy, so nothing there needs a two-link road, a networkx graph or a
node lookup by position.
"""

from __future__ import annotations

from typing import Tuple

import networkx as nx
import numpy as np

from repro.geo.vec import Vec2, as_vec, distance
from repro.roadmap.builder import RoadMapBuilder
from repro.roadmap.elements import Intersection, RoadClass
from repro.roadmap.graph import RoadMap


def straight_road_map(
    length_m: float = 2000.0, n_links: int = 4, speed_limit_kmh: float = 50.0
) -> RoadMap:
    """A single straight two-way road split into *n_links* links."""
    builder = RoadMapBuilder()
    xs = np.linspace(0.0, length_m, n_links + 1)
    nodes = [builder.add_intersection((x, 0.0)).id for x in xs]
    for a, b in zip(nodes[:-1], nodes[1:]):
        builder.add_two_way_link(
            a, b, road_class=RoadClass.RESIDENTIAL, speed_limit=speed_limit_kmh / 3.6
        )
    return builder.build()


def t_junction_map(arm_length_m: float = 500.0) -> RoadMap:
    """A T junction: three arms meeting at a central node."""
    builder = RoadMapBuilder()
    center = builder.add_intersection((0.0, 0.0)).id
    west = builder.add_intersection((-arm_length_m, 0.0)).id
    east = builder.add_intersection((arm_length_m, 0.0)).id
    north = builder.add_intersection((0.0, arm_length_m)).id
    for other in (west, east, north):
        builder.add_two_way_link(center, other, road_class=RoadClass.RESIDENTIAL)
    return builder.build()


def nearest_intersection(roadmap: RoadMap, point: Vec2) -> Tuple[Intersection, float]:
    """The intersection closest to *point* and its distance (linear scan)."""
    p = as_vec(point)
    nodes = list(roadmap.intersections.values())
    if not nodes:
        raise ValueError("the road map has no intersections")
    distances = [distance(node.position, p) for node in nodes]
    best = int(np.argmin(distances))
    return nodes[best], distances[best]


def to_networkx(roadmap: RoadMap) -> nx.DiGraph:
    """The map's topology as a ``networkx.DiGraph``.

    Nodes are intersection ids with a ``position`` attribute; edges carry
    ``link_id``, ``length``, ``travel_time`` and ``road_class``.
    """
    graph = nx.DiGraph()
    for node in roadmap.intersections.values():
        graph.add_node(node.id, position=tuple(node.position))
    for link in roadmap.links.values():
        graph.add_edge(
            link.from_node,
            link.to_node,
            link_id=link.id,
            length=link.length,
            travel_time=link.travel_time(),
            road_class=link.road_class.value,
        )
    return graph
