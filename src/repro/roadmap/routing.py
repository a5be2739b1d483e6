"""Routes over a road map and a shortest-path route planner.

The mobility simulator drives objects along :class:`Route` objects, and the
*dead-reckoning with known route* protocol (paper Sec. 2, citing Wolfson et
al.) predicts positions along one.  The planner owns two interchangeable
engines over the same compact :class:`~repro.roadmap.hierarchy.RoutingGraph`:
a tie-broken reference Dijkstra (``algo="dijkstra"``) and a contraction
hierarchy (``algo="ch"``) whose offline preprocessing makes queries on
metro-scale maps answer in well under a millisecond.  Both produce the
identical canonical route: equal-cost ties are broken deterministically by
an integer tie key derived from link endpoint node ids, compared
lexicographically as ``(cost, key)``, so the optimum is unique.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence, Tuple

import networkx as nx
import numpy as np

from repro.geo.polyline import Polyline
from repro.geo.vec import Vec2
from repro.roadmap.elements import Link
from repro.roadmap.graph import RoadMap
from repro.roadmap.hierarchy import (
    ContractionHierarchy,
    PlannedPath,
    RoutingGraph,
    dijkstra_path,
)


class Route:
    """A connected sequence of links over a road map.

    The route exposes an arc-length parameterisation over the concatenated
    link geometry, plus the mapping from route offsets to the underlying link
    and link offset, which both the mobility simulator and the known-route
    protocol rely on.
    """

    def __init__(self, roadmap: RoadMap, links: Sequence[Link]):
        if not links:
            raise ValueError("a route needs at least one link")
        for a, b in zip(links, links[1:]):
            if a.to_node != b.from_node:
                raise ValueError(
                    f"links {a.id} and {b.id} are not connected "
                    f"({a.to_node} != {b.from_node})"
                )
        self.roadmap = roadmap
        self.links: Tuple[Link, ...] = tuple(links)
        self._link_lengths = np.array([l.length for l in links], dtype=float)
        self._link_start_offsets = np.concatenate(([0.0], np.cumsum(self._link_lengths)))
        geometry = links[0].geometry
        for link in links[1:]:
            geometry = geometry.concat(link.geometry)
        self.geometry: Polyline = geometry

    # ------------------------------------------------------------------ #
    # basic properties
    # ------------------------------------------------------------------ #
    @property
    def length(self) -> float:
        """Total route length in metres."""
        return float(self._link_start_offsets[-1])

    def __len__(self) -> int:
        return len(self.links)

    def __iter__(self) -> Iterator[Link]:
        return iter(self.links)

    # ------------------------------------------------------------------ #
    # arc-length parameterisation
    # ------------------------------------------------------------------ #
    def link_index_at(self, offset: float) -> int:
        """Index into :attr:`links` of the link containing route offset *offset*."""
        if offset <= 0.0:
            return 0
        if offset >= self.length:
            return len(self.links) - 1
        idx = int(np.searchsorted(self._link_start_offsets, offset, side="right") - 1)
        return min(idx, len(self.links) - 1)

    def link_at(self, offset: float) -> Tuple[Link, float]:
        """The link at route offset *offset* and the offset within that link."""
        idx = self.link_index_at(offset)
        local = offset - float(self._link_start_offsets[idx])
        local = min(max(local, 0.0), self.links[idx].length)
        return self.links[idx], local

    def link_start_offset(self, index: int) -> float:
        """Route offset at which link number *index* starts."""
        return float(self._link_start_offsets[index])

    def point_at(self, offset: float) -> np.ndarray:
        """Position at route offset *offset* (clamped to the route)."""
        link, local = self.link_at(offset)
        return link.point_at(local)

    def points_at(self, offsets: np.ndarray) -> np.ndarray:
        """:meth:`point_at` at every offset of *offsets*, as an ``(n, 2)`` array.

        The same link search, clamps and per-link
        :meth:`~repro.geo.polyline.Polyline.points_at`, so every row is
        bit-identical to :meth:`point_at`.
        """
        offsets = np.asarray(offsets, dtype=float)
        last = len(self.links) - 1
        starts = self._link_start_offsets
        idx = np.minimum(np.searchsorted(starts, offsets, side="right") - 1, last)
        idx = np.where(offsets <= 0.0, 0, np.where(offsets >= self.length, last, idx))
        local = np.minimum(np.maximum(offsets - starts[idx], 0.0), self._link_lengths[idx])
        out = np.empty((len(offsets), 2))
        for k in np.unique(idx).tolist():
            rows = idx == k
            out[rows] = self.links[k].geometry.points_at(local[rows])
        return out

    def bearing_at(self, offset: float) -> float:
        """Compass bearing of travel at route offset *offset*."""
        link, local = self.link_at(offset)
        return link.bearing_at(local)

    def speed_limit_at(self, offset: float) -> float:
        """Speed limit (m/s) of the link at route offset *offset*."""
        link, _ = self.link_at(offset)
        return float(link.speed_limit)

    def project(self, point: Vec2) -> Tuple[np.ndarray, float, float]:
        """Project *point* onto the route geometry: ``(point, offset, distance)``."""
        return self.geometry.project(point)

    def project_near(
        self,
        point: Vec2,
        near_offset: float,
        forward_window: float = 300.0,
        backward_window: float = 100.0,
    ) -> Tuple[np.ndarray, float, float]:
        """Project *point* onto the route close to a known route offset.

        Routes generated from real trips frequently self-intersect (a city
        drive crosses its own earlier path); a global projection could then
        snap to the wrong pass.  Restricting the search to the links between
        ``near_offset - backward_window`` and ``near_offset + forward_window``
        keeps the progress along the route monotone, which is what the
        known-route protocol needs.  The windows are measured in arc length
        along the route; the forward window only needs to exceed the distance
        the object can cover between two sightings.
        """
        start_idx = self.link_index_at(max(0.0, near_offset - backward_window))
        end_idx = self.link_index_at(min(self.length, near_offset + forward_window))
        best: Optional[Tuple[np.ndarray, float, float]] = None
        for idx in range(start_idx, end_idx + 1):
            matched, local_offset, dist = self.links[idx].project(point)
            global_offset = float(self._link_start_offsets[idx]) + local_offset
            if best is None or dist < best[2]:
                best = (matched, global_offset, dist)
        assert best is not None  # the window always contains at least one link
        return best

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Route({len(self.links)} links, {self.length / 1000.0:.1f} km)"


@dataclass
class RoutePlanner:
    """Shortest-path routing and random route generation over a road map.

    Parameters
    ----------
    roadmap:
        The network to plan over.
    weight:
        Either ``"length"`` (shortest distance) or ``"travel_time"``
        (fastest, using link speed limits).
    algo:
        ``"dijkstra"`` answers each query with one tie-broken Dijkstra
        run; ``"ch"`` preprocesses the map into a contraction hierarchy on
        first use (or reuses an injected/cached one) and then answers each
        query with a sub-millisecond bidirectional upward search.  Both
        return the identical canonical route.
    hierarchy:
        Optionally, a prebuilt :class:`ContractionHierarchy` for this map
        and weight (e.g. loaded from the compiled-map cache).  Only
        consulted when ``algo="ch"``.
    cache_entry:
        Path of the compiled-map cache entry this map was loaded from
        (``CompiledMap.cache_path``).  When set, the lazily built
        hierarchy is persisted as a sidecar next to that entry through
        :func:`repro.ingest.cache.load_or_build_hierarchy`, so the
        preprocessing cost is paid once per content hash.
    """

    roadmap: RoadMap
    weight: str = "length"
    algo: str = "dijkstra"
    hierarchy: Optional[ContractionHierarchy] = None
    cache_entry: str = ""
    _graph: RoutingGraph = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.weight not in ("length", "travel_time"):
            raise ValueError("weight must be 'length' or 'travel_time'")
        if self.algo not in ("dijkstra", "ch"):
            raise ValueError("algo must be 'dijkstra' or 'ch'")
        self._graph = RoutingGraph.from_roadmap(self.roadmap, self.weight)
        if self.hierarchy is not None:
            if self.hierarchy.graph.weight != self.weight:
                raise ValueError(
                    f"hierarchy was built for weight "
                    f"{self.hierarchy.graph.weight!r}, not {self.weight!r}"
                )
            if self.hierarchy.graph.node_ids != self._graph.node_ids:
                raise ValueError("hierarchy does not match this road map")
            # Requery through the planner's own graph so link lookups and
            # cost re-accumulation share one link_info table.
            self.hierarchy.graph = self._graph

    # ------------------------------------------------------------------ #
    # deterministic planning
    # ------------------------------------------------------------------ #
    def build_hierarchy(self) -> ContractionHierarchy:
        """The planner's contraction hierarchy, building it on first use."""
        if self.hierarchy is None:
            if self.cache_entry:
                # Imported lazily: the cache module depends on the ingest
                # pipeline, which this module must not import eagerly.
                from repro.ingest.cache import load_or_build_hierarchy

                self.hierarchy, _ = load_or_build_hierarchy(
                    self._graph, self.cache_entry
                )
            else:
                self.hierarchy = ContractionHierarchy.build(self._graph)
            # Pre-expand the top-of-hierarchy shortcuts so the first long
            # queries don't pay the one-off unpacking cost.
            self.hierarchy.warm_expansions()
        return self.hierarchy

    def plan(self, from_node: int, to_node: int) -> PlannedPath:
        """The canonical shortest path as ids, without building a Route.

        Raises
        ------
        networkx.NodeNotFound
            If either endpoint is not an intersection of the map.
        networkx.NetworkXNoPath
            If the destination is unreachable.
        """
        for node in (from_node, to_node):
            if node not in self._graph.index_of and node not in self.roadmap.intersections:
                raise nx.NodeNotFound(f"node {node} is not in the road map")
        if from_node == to_node:
            return PlannedPath(0.0, 0, [])
        if self.algo == "ch":
            path = self.build_hierarchy().query(from_node, to_node)
        else:
            path = dijkstra_path(self._graph, from_node, to_node)
        if path is None:
            raise nx.NetworkXNoPath(
                f"no route from node {from_node} to node {to_node}"
            )
        return path

    def shortest_route(self, from_node: int, to_node: int) -> Route:
        """Shortest route between two intersections.

        Raises
        ------
        networkx.NetworkXNoPath
            If the destination is unreachable.
        """
        path = self.plan(from_node, to_node)
        if not path.links:
            raise ValueError("a route needs at least two nodes")
        return self.route_from_links(path.links)

    def route_from_links(self, link_ids: Sequence[int]) -> Route:
        """Build a route from an explicit sequence of link ids."""
        return Route(self.roadmap, [self.roadmap.link(lid) for lid in link_ids])

    # ------------------------------------------------------------------ #
    # random routes (used by the scenario generators)
    # ------------------------------------------------------------------ #
    def random_route(
        self,
        min_length: float,
        rng: Optional[random.Random] = None,
        max_attempts: int = 200,
        u_turn_penalty: bool = True,
        straight_bias: float = 0.0,
    ) -> Route:
        """A random route of at least *min_length* metres.

        The route is built as a random walk over successor links that avoids
        immediate U-turns where possible; this mimics the "previously unknown
        route" assumption of the paper better than repeated shortest paths
        between random node pairs, because it visits intersections the way a
        real trip does.

        Parameters
        ----------
        straight_bias:
            Probability of continuing onto the successor with the smallest
            turn angle at each intersection (real trips mostly go straight
            and turn occasionally); the remaining probability mass is spread
            uniformly over the other successors.  0 means a uniform choice.
        """
        if not (0.0 <= straight_bias <= 1.0):
            raise ValueError("straight_bias must be in [0, 1]")
        rng = rng or random.Random()
        link_ids = list(self.roadmap.links.keys())
        if not link_ids:
            raise ValueError("the road map has no links")
        from repro.geo.angles import angle_between  # local import avoids a cycle

        for _ in range(max_attempts):
            current = self.roadmap.link(rng.choice(link_ids))
            links = [current]
            total = current.length
            visited_pairs = {(current.from_node, current.to_node)}
            while total < min_length:
                successors = self.roadmap.successors(current)
                if u_turn_penalty:
                    fresh = [
                        l
                        for l in successors
                        if (l.from_node, l.to_node) not in visited_pairs
                    ]
                    if fresh:
                        successors = fresh
                if not successors:
                    break
                if straight_bias > 0.0 and len(successors) > 1:
                    exit_dir = current.direction_at(current.length)
                    straightest = min(
                        successors,
                        key=lambda link: (angle_between(exit_dir, link.direction_at(0.0)), link.id),
                    )
                    if rng.random() < straight_bias:
                        current = straightest
                    else:
                        others = [l for l in successors if l.id != straightest.id]
                        current = rng.choice(others)
                else:
                    current = rng.choice(successors)
                links.append(current)
                visited_pairs.add((current.from_node, current.to_node))
                total += current.length
            if total >= min_length:
                return Route(self.roadmap, links)
        raise RuntimeError(
            f"could not generate a random route of length >= {min_length:.0f} m; "
            "the map may be too small or poorly connected"
        )
