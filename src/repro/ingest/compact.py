"""Graph conditioning: clip, connect, prune and contract an imported network.

An OSM extract is not a simulation-ready road network.  This module turns
the projected node/way soup into a clean
:class:`~repro.roadmap.graph.RoadMap` in four deterministic passes over a
flat list of :class:`Segment` (one per consecutive node pair of a way):

1. **clip** — drop segments outside a geodesic bounding box (regional imports),
2. **largest component** — drop disconnected fragments (ferry islands,
   clipped-off suburbs) that no route could ever reach,
3. **stub pruning** — iteratively remove dead-end chains shorter than a
   threshold (driveway stumps left over from clipping),
4. **degree-2 contraction** — merge chains of degree-2 nodes with identical
   attributes into single polyline segments, so the graph the router, the
   map matcher and the prediction function traverse has a node only where a
   real decision can be made.  The merged geometry keeps every original
   vertex as a shape point: contraction changes the *graph*, never the
   *road geometry*.

Contraction is what makes imported maps fast: OSM models a road as a bead
chain of short segments, and every bead is a graph node that shortest-path
search must pop and the incremental matcher must forward-track through.
``benchmarks/bench_ingest.py`` measures the effect and asserts that the
protocol metrics on the contracted graph are bit-identical to the raw one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.ingest.osm import ProjectedNetwork
from repro.roadmap.builder import RoadMapBuilder
from repro.roadmap.elements import RoadClass
from repro.roadmap.graph import RoadMap


@dataclass
class Segment:
    """One undirected-ish piece of road between two graph nodes.

    ``points`` runs from node ``a`` to node ``b`` (endpoints included).
    ``oneway`` means travel is only possible ``a → b``; otherwise the
    segment stands for both directed links.
    """

    a: int
    b: int
    points: np.ndarray
    road_class: RoadClass
    speed_limit: Optional[float]
    oneway: bool
    name: str = ""

    @property
    def length(self) -> float:
        """Arc length in metres."""
        deltas = np.diff(self.points, axis=0)
        return float(np.sum(np.hypot(deltas[:, 0], deltas[:, 1])))

    def attrs(self) -> Tuple:
        """The attribute tuple that must match for two segments to merge."""
        return (self.road_class, self.speed_limit, self.oneway, self.name)

    def reversed(self) -> "Segment":
        """The same road traversed ``b → a`` (two-way segments only)."""
        return Segment(
            a=self.b,
            b=self.a,
            points=self.points[::-1].copy(),
            road_class=self.road_class,
            speed_limit=self.speed_limit,
            oneway=self.oneway,
            name=self.name,
        )


@dataclass
class ConditioningReport:
    """What each conditioning pass did, for logs and the compiled-map cache."""

    input_nodes: int = 0
    input_segments: int = 0
    clipped_segments: int = 0
    components_dropped: int = 0
    component_segments_dropped: int = 0
    stub_segments_pruned: int = 0
    nodes_contracted: int = 0
    output_intersections: int = 0
    output_links: int = 0
    total_length_km: float = 0.0
    contracted: bool = True

    def as_dict(self) -> Dict[str, object]:
        return dict(self.__dict__)


@dataclass
class CompiledMap:
    """The result of the full pipeline: the map plus its provenance."""

    roadmap: RoadMap
    report: ConditioningReport
    origin: Tuple[float, float]
    parse_stats: Dict[str, int] = field(default_factory=dict)
    cached: bool = False
    timings: Dict[str, float] = field(default_factory=dict)
    cache_path: str = ""


# --------------------------------------------------------------------------- #
# segment extraction
# --------------------------------------------------------------------------- #
def network_segments(projected: ProjectedNetwork) -> List[Segment]:
    """Split every way into per-node-pair segments (the rawest graph).

    Every OSM node becomes a graph node here; contraction later removes the
    pass-through ones.  Keeping this stage maximally fine-grained makes the
    conditioning passes trivially correct: they never have to split
    geometry, only drop or merge whole segments.
    """
    positions = projected.positions
    segments: List[Segment] = []
    for way in projected.network.ways:
        for a, b in zip(way.nodes, way.nodes[1:]):
            pa, pb = positions[a], positions[b]
            if float(np.hypot(*(pb - pa))) <= 1e-9:
                continue
            segments.append(
                Segment(
                    a=a,
                    b=b,
                    points=np.vstack((pa, pb)),
                    road_class=way.road_class,
                    speed_limit=way.speed_limit,
                    oneway=way.oneway == "forward",
                    name=way.name,
                )
            )
    return segments


# --------------------------------------------------------------------------- #
# pass 1: bounding-box clip
# --------------------------------------------------------------------------- #
def clip_segments(
    segments: Sequence[Segment],
    projected: ProjectedNetwork,
    bbox: Tuple[float, float, float, float],
) -> Tuple[List[Segment], int]:
    """Keep segments whose both endpoints lie inside the geodesic bbox.

    ``bbox`` is ``(min_lat, min_lon, max_lat, max_lon)``.  Clipping at
    segment granularity (before contraction) means partially covered ways
    survive up to the boundary instead of vanishing wholesale.
    """
    min_lat, min_lon, max_lat, max_lon = bbox
    if min_lat > max_lat or min_lon > max_lon:
        raise ValueError("bbox must be (min_lat, min_lon, max_lat, max_lon)")
    nodes = projected.network.nodes

    def inside(node_id: int) -> bool:
        node = nodes[node_id]
        return min_lat <= node.lat <= max_lat and min_lon <= node.lon <= max_lon

    kept = [s for s in segments if inside(s.a) and inside(s.b)]
    return kept, len(segments) - len(kept)


# --------------------------------------------------------------------------- #
# pass 2: largest connected component
# --------------------------------------------------------------------------- #
def _adjacency(segments: Sequence[Segment]) -> Dict[int, List[int]]:
    """Node id -> indices of incident segments (undirected view)."""
    adjacency: Dict[int, List[int]] = {}
    for idx, segment in enumerate(segments):
        adjacency.setdefault(segment.a, []).append(idx)
        adjacency.setdefault(segment.b, []).append(idx)
    return adjacency


def largest_component(
    segments: Sequence[Segment],
) -> Tuple[List[Segment], int, int]:
    """Keep the connected component with the greatest total length.

    Connectivity is undirected — a one-way loop is one component even
    though it is not strongly connected.  Returns ``(kept, components
    dropped, segments dropped)``.
    """
    if not segments:
        return [], 0, 0
    adjacency = _adjacency(segments)
    segment_component = [-1] * len(segments)
    component_lengths: List[float] = []
    for start in range(len(segments)):
        if segment_component[start] != -1:
            continue
        component = len(component_lengths)
        stack = [start]
        segment_component[start] = component
        total = 0.0
        while stack:
            idx = stack.pop()
            total += segments[idx].length
            for node in (segments[idx].a, segments[idx].b):
                for neighbour in adjacency[node]:
                    if segment_component[neighbour] == -1:
                        segment_component[neighbour] = component
                        stack.append(neighbour)
        component_lengths.append(total)
    best = int(np.argmax(component_lengths))
    kept = [s for s, c in zip(segments, segment_component) if c == best]
    return kept, len(component_lengths) - 1, len(segments) - len(kept)


# --------------------------------------------------------------------------- #
# pass 3: stub pruning
# --------------------------------------------------------------------------- #
def prune_stubs(
    segments: Sequence[Segment], min_length_m: float = 40.0
) -> Tuple[List[Segment], int]:
    """Iteratively remove dead-end chains shorter than *min_length_m*.

    A stub is a chain of segments hanging off the network at a degree-1
    node; clipping and sliced extracts produce thousands of them.  Genuine
    cul-de-sacs longer than the threshold survive.  Runs to a fixpoint, so
    a stub of several short segments disappears entirely.
    """
    if min_length_m <= 0:
        return list(segments), 0
    alive: List[Segment] = list(segments)
    pruned = 0
    while True:
        adjacency = _adjacency(alive)
        dead: Set[int] = set()
        for node, incident in adjacency.items():
            if len(incident) != 1:
                continue
            # Walk inward from the dead end through degree-2 nodes.
            chain: List[int] = []
            length = 0.0
            current_node = node
            current_idx = incident[0]
            while True:
                if current_idx in dead:
                    break
                chain.append(current_idx)
                length += alive[current_idx].length
                segment = alive[current_idx]
                next_node = segment.b if segment.a == current_node else segment.a
                next_incident = [i for i in adjacency[next_node] if i != current_idx]
                if len(next_incident) != 1 or length >= min_length_m:
                    break
                current_node = next_node
                current_idx = next_incident[0]
            if length < min_length_m:
                dead.update(chain)
        if not dead:
            return alive, pruned
        pruned += len(dead)
        alive = [s for i, s in enumerate(alive) if i not in dead]


# --------------------------------------------------------------------------- #
# pass 4: degree-2 contraction
# --------------------------------------------------------------------------- #
def _merge_points(chain: List[Segment]) -> np.ndarray:
    """Concatenate oriented segment geometries, dropping duplicated joints."""
    parts = [chain[0].points]
    for segment in chain[1:]:
        parts.append(segment.points[1:])
    return np.vstack(parts)


def _oriented(segment: Segment, from_node: int) -> Segment:
    """The segment oriented to start at *from_node* (flips two-way only)."""
    if segment.a == from_node:
        return segment
    assert not segment.oneway, "one-way segments are never flipped"
    return segment.reversed()


def contract_chains(segments: Sequence[Segment]) -> Tuple[List[Segment], int]:
    """Merge chains of pass-through nodes into single polyline segments.

    A node is contracted away when exactly two segments meet there with
    identical attributes (class, speed limit, one-way-ness, name) and —
    for one-way roads — a consistent direction of travel through the node.
    Everything else (junctions, attribute changes, direction flips,
    self-loops) stays a graph node.  Returns ``(merged segments, nodes
    contracted)``.
    """
    segments = list(segments)
    adjacency = _adjacency(segments)

    def contractible(node: int) -> bool:
        incident = adjacency[node]
        if len(incident) != 2 or incident[0] == incident[1]:
            return False  # junction, dead end, or a self-loop counted twice
        s, t = segments[incident[0]], segments[incident[1]]
        if s.attrs() != t.attrs():
            return False
        other_s = s.b if s.a == node else s.a
        other_t = t.b if t.a == node else t.a
        if other_s == other_t or other_s == node or other_t == node:
            return False  # contraction would create a self-loop
        if s.oneway:
            # Flow must pass straight through: one segment ends here, the
            # other starts here.
            return (s.b == node and t.a == node) or (t.b == node and s.a == node)
        return True

    pass_through = {node for node in adjacency if contractible(node)}
    visited: Set[int] = set()
    merged: List[Segment] = []

    def walk(start_node: int, first_idx: int) -> Segment:
        """Collect the maximal chain leaving *start_node* via *first_idx*."""
        chain: List[Segment] = []
        node, idx = start_node, first_idx
        while True:
            visited.add(idx)
            segment = segments[idx]
            if segment.oneway and segment.b == node:
                # The whole chain flows against our walk; walk it as-is and
                # flip once at the end (one-way geometry is never reversed
                # piecemeal).
                chain.append(segment)
                next_node = segment.a
            else:
                oriented = _oriented(segment, node)
                chain.append(oriented)
                next_node = oriented.b
            if next_node not in pass_through or next_node == start_node:
                break
            other = [i for i in adjacency[next_node] if i != idx]
            node, idx = next_node, other[0]
        if chain[0].oneway and chain[0].b == start_node:
            # The chain flows against the walk; reverse the walk order so
            # the merged one-way segment runs along its direction of travel
            # (one-way geometry is never flipped, so the pieces are already
            # oriented along the flow).
            chain = list(reversed(chain))
        if len(chain) == 1:
            return chain[0]
        first = chain[0]
        return Segment(
            a=first.a,
            b=chain[-1].b,
            points=_merge_points(chain),
            road_class=first.road_class,
            speed_limit=first.speed_limit,
            oneway=first.oneway,
            name=first.name,
        )

    # Deterministic order: start every chain from its smallest junction
    # node, walking each incident segment once.
    for node in sorted(adjacency):
        if node in pass_through:
            continue
        for idx in adjacency[node]:
            if idx not in visited:
                merged.append(walk(node, idx))
    # Pure cycles (every node pass-through) have no junction to start from;
    # break each at its smallest node, producing one closed segment.
    for idx in range(len(segments)):
        if idx not in visited:
            cycle_nodes = []
            probe, node = idx, segments[idx].a
            while True:
                segment = segments[probe]
                cycle_nodes.append(node)
                node = segment.b if segment.a == node else segment.a
                nxt = [i for i in adjacency[node] if i != probe]
                probe = nxt[0]
                if node == segments[idx].a:
                    break
            anchor = min(cycle_nodes)
            start_idx = [i for i in adjacency[anchor] if i not in visited][0]
            merged.append(walk(anchor, start_idx))
    surviving = {s.a for s in merged} | {s.b for s in merged}
    return merged, len(adjacency) - len(surviving)


# --------------------------------------------------------------------------- #
# assembly
# --------------------------------------------------------------------------- #
def segments_to_roadmap(
    segments: Sequence[Segment],
    metadata: Optional[Dict[str, object]] = None,
    index_cell_size: float = 250.0,
) -> RoadMap:
    """Build the immutable :class:`RoadMap` from conditioned segments.

    Intersection ids are the surviving OSM node ids; link ids are assigned
    in segment order (deterministic for a given extract and options).
    Two-way segments emit one link per direction, reverse geometry shared.
    """
    builder = RoadMapBuilder(index_cell_size=index_cell_size)
    seen: Set[int] = set()
    for segment in segments:
        for node, position in ((segment.a, segment.points[0]), (segment.b, segment.points[-1])):
            if node not in seen:
                builder.add_intersection(position, node_id=node)
                seen.add(node)
    for segment in segments:
        shape = [p for p in segment.points[1:-1]]
        builder.add_link(
            segment.a,
            segment.b,
            shape_points=shape,
            road_class=segment.road_class,
            speed_limit=segment.speed_limit,
            name=segment.name,
        )
        if not segment.oneway:
            builder.add_link(
                segment.b,
                segment.a,
                shape_points=list(reversed(shape)),
                road_class=segment.road_class,
                speed_limit=segment.speed_limit,
                name=segment.name,
            )
    return builder.build(metadata=metadata)


def compile_roadmap(
    projected: ProjectedNetwork,
    bbox: Optional[Tuple[float, float, float, float]] = None,
    contract: bool = True,
    min_stub_m: float = 40.0,
    index_cell_size: float = 250.0,
    source: str = "",
) -> CompiledMap:
    """Run the full conditioning pipeline and assemble the road map.

    ``contract=False`` skips the degree-2 contraction — only useful for the
    benchmark and the property tests that compare the two graphs.
    """
    report = ConditioningReport(contracted=contract)
    segments = network_segments(projected)
    report.input_nodes = len(projected.network.nodes)
    report.input_segments = len(segments)
    if bbox is not None:
        segments, report.clipped_segments = clip_segments(segments, projected, bbox)
    segments, report.components_dropped, report.component_segments_dropped = (
        largest_component(segments)
    )
    segments, report.stub_segments_pruned = prune_stubs(segments, min_stub_m)
    if contract:
        segments, report.nodes_contracted = contract_chains(segments)
    if not segments:
        raise ValueError(
            "conditioning removed the entire network; check the bbox and the "
            "extract's highway coverage"
        )
    origin = projected.origin
    metadata = {
        "source": source,
        "origin": {"lat": origin[0], "lon": origin[1]},
        "ingest": {
            "parse": projected.network.stats.as_dict(),
            "conditioning": report.as_dict(),
        },
    }
    roadmap = segments_to_roadmap(segments, metadata, index_cell_size)
    report.output_intersections = roadmap.num_intersections()
    report.output_links = roadmap.num_links()
    report.total_length_km = roadmap.total_length() / 1000.0
    # The metadata dict is shared with the road map; refresh the report copy.
    metadata["ingest"]["conditioning"] = report.as_dict()
    return CompiledMap(
        roadmap=roadmap,
        report=report,
        origin=origin,
        parse_stats=projected.network.stats.as_dict(),
    )
