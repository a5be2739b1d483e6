"""The :class:`RoadMap` container.

A road map is a directed multigraph of intersections and links plus a
spatial index over the link geometries.  The map-based protocol needs three
queries from it:

* outgoing links of an intersection (forward-tracking at link ends),
* incoming links of an intersection (backward-tracking after a wrong match),
* the nearest link(s) to an arbitrary position (initial matching and
  re-acquisition after the object left the mapped network).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.geo.bbox import BoundingBox
from repro.geo.vec import Vec2, as_vec
from repro.roadmap.elements import Intersection, Link
from repro.spatial.grid import GridIndex
from repro.spatial.index import IndexedItem


class RoadMap:
    """An immutable road network with spatial lookup.

    Instances are normally created through
    :class:`repro.roadmap.builder.RoadMapBuilder` or one of the generators in
    :mod:`repro.roadmap.generators`.

    Parameters
    ----------
    intersections:
        The nodes of the network.
    links:
        The directed links.  Every link must reference existing
        intersections.  Two-way roads are represented by two links, one per
        direction, exactly like commercial navigation maps do.
    index_cell_size:
        Cell size of the spatial index built over link geometry.
    metadata:
        Optional provenance of the map (imported maps record their source
        extract, geodesic origin and ingest report here).  Round-tripped by
        :mod:`repro.roadmap.io`.
    """

    def __init__(
        self,
        intersections: Iterable[Intersection],
        links: Iterable[Link],
        index_cell_size: float = 250.0,
        metadata: Optional[Dict] = None,
    ):
        self._metadata: Dict = dict(metadata) if metadata else {}
        self._intersections: Dict[int, Intersection] = {}
        for node in intersections:
            if node.id in self._intersections:
                raise ValueError(f"duplicate intersection id {node.id}")
            self._intersections[node.id] = node

        self._links: Dict[int, Link] = {}
        self._outgoing: Dict[int, List[int]] = {nid: [] for nid in self._intersections}
        for link in links:
            if link.id in self._links:
                raise ValueError(f"duplicate link id {link.id}")
            if link.from_node not in self._intersections:
                raise ValueError(f"link {link.id}: unknown from_node {link.from_node}")
            if link.to_node not in self._intersections:
                raise ValueError(f"link {link.id}: unknown to_node {link.to_node}")
            self._links[link.id] = link
            self._outgoing[link.from_node].append(link.id)

        # The spatial index is built lazily on the first spatial query:
        # loading a compiled map from cache (and route planning generally)
        # never touches it, and eager construction dominated cache-load
        # time on large maps.
        self._index_cell_size = index_cell_size
        self._lazy_index: Optional[GridIndex[int]] = None

    # ------------------------------------------------------------------ #
    # element access
    # ------------------------------------------------------------------ #
    @property
    def intersections(self) -> Dict[int, Intersection]:
        """Mapping of intersection id to :class:`Intersection`."""
        return dict(self._intersections)

    @property
    def links(self) -> Dict[int, Link]:
        """Mapping of link id to :class:`Link`."""
        return dict(self._links)

    @property
    def metadata(self) -> Dict:
        """Provenance metadata (empty for synthetic maps)."""
        return self._metadata

    def intersection(self, node_id: int) -> Intersection:
        """Look up an intersection by id."""
        return self._intersections[node_id]

    def link(self, link_id: int) -> Link:
        """Look up a link by id."""
        return self._links[link_id]

    def has_link(self, link_id: int) -> bool:
        """Whether a link with the given id exists."""
        return link_id in self._links

    def num_intersections(self) -> int:
        """Number of intersections."""
        return len(self._intersections)

    def num_links(self) -> int:
        """Number of directed links."""
        return len(self._links)

    def total_length(self) -> float:
        """Sum of all link lengths in metres (counting each direction)."""
        return sum(l.length for l in self._links.values())

    def bounds(self) -> BoundingBox:
        """Bounding box of the whole network."""
        boxes = [link.bounds() for link in self._links.values()]
        if not boxes:
            positions = [n.position for n in self._intersections.values()]
            return BoundingBox.from_points(positions)
        box = boxes[0]
        for b in boxes[1:]:
            box = box.union(b)
        return box

    # ------------------------------------------------------------------ #
    # topology queries
    # ------------------------------------------------------------------ #
    def outgoing_links(self, node_id: int) -> List[Link]:
        """Links leaving intersection *node_id*."""
        return [self._links[lid] for lid in self._outgoing.get(node_id, ())]

    def successors(self, link: Link) -> List[Link]:
        """Links that can be followed after traversing *link*.

        The reverse of *link* (an immediate U-turn) is excluded, matching the
        behaviour expected of the prediction function: a vehicle passing an
        intersection does not normally turn back on itself.
        """
        out = []
        for candidate in self.outgoing_links(link.to_node):
            if candidate.to_node == link.from_node and candidate.from_node == link.to_node:
                continue
            out.append(candidate)
        return out

    def reverse_link(self, link: Link) -> Optional[Link]:
        """The opposite-direction twin of *link*, if the road is two-way."""
        for candidate in self.outgoing_links(link.to_node):
            if candidate.to_node == link.from_node:
                return candidate
        return None

    def degree(self, node_id: int) -> int:
        """Number of outgoing links of an intersection."""
        return len(self._outgoing.get(node_id, ()))

    # ------------------------------------------------------------------ #
    # spatial queries
    # ------------------------------------------------------------------ #
    @property
    def _index(self) -> GridIndex[int]:
        """The spatial index over link geometry, built on first use."""
        index = self._lazy_index
        if index is None:
            index = GridIndex(cell_size=self._index_cell_size)
            for link in self._links.values():
                index.insert(
                    IndexedItem(
                        key=link.id, bounds=link.bounds(), distance=link.distance_to
                    )
                )
            self._lazy_index = index
        return index

    def nearest_link(
        self, point: Vec2, max_distance: Optional[float] = None
    ) -> Optional[Tuple[Link, float]]:
        """The link closest to *point*, optionally within *max_distance* metres.

        This is the "spatial index for the map information" query the paper's
        matcher performs on initialisation and when re-acquiring the map.
        """
        result = self._index.nearest(point, max_distance=max_distance)
        if result is None:
            return None
        item, dist = result
        return self._links[item.key], dist

    def links_near(self, point: Vec2, radius: float) -> List[Tuple[Link, float]]:
        """All links within *radius* metres of *point*, sorted by distance."""
        items = self._index.query_radius(point, radius)
        p = as_vec(point)
        scored = [(self._links[item.key], item.distance(p)) for item in items]
        scored.sort(key=lambda pair: pair[1])
        return scored

    def links_in_box(self, box: BoundingBox) -> List[Link]:
        """Links whose bounding boxes intersect *box*."""
        return [self._links[item.key] for item in self._index.query_bbox(box)]

    # ------------------------------------------------------------------ #
    # summaries
    # ------------------------------------------------------------------ #
    def statistics(self) -> dict:
        """Summary statistics used in reports and examples."""
        lengths = [l.length for l in self._links.values()]
        degrees = [self.degree(nid) for nid in self._intersections]
        return {
            "intersections": self.num_intersections(),
            "links": self.num_links(),
            "total_length_km": self.total_length() / 1000.0,
            "mean_link_length_m": float(np.mean(lengths)) if lengths else 0.0,
            "mean_out_degree": float(np.mean(degrees)) if degrees else 0.0,
            "bounds": self.bounds().as_tuple(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RoadMap({self.num_intersections()} intersections, "
            f"{self.num_links()} links, {self.total_length() / 1000.0:.1f} km)"
        )
