"""History-based map learning.

The paper's *history-based dead-reckoning* variant (Sec. 2) generates a map
from traces of past movements when no navigation map is available: "If the
movements are observed over a long time, the result is a map, which can be
used as in the map-based protocols."

:class:`HistoryMapLearner` implements a grid-occupancy learner: observed
positions are quantised into cells, consecutive observations connect the
cells, and the resulting cell graph is condensed into intersections (cells
whose degree differs from two) and links (chains of degree-two cells whose
centres become shape points).  The learned :class:`~repro.roadmap.graph.RoadMap`
plugs directly into the map-based protocol, and a
:class:`~repro.roadmap.probability.TurnProbabilityTable` can be learned from
the same data, yielding the user-specific or user-independent variants.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.geo.vec import Vec2, as_vec, distance
from repro.roadmap.builder import RoadMapBuilder
from repro.roadmap.elements import RoadClass
from repro.roadmap.graph import RoadMap

Cell = Tuple[int, int]


class HistoryMapLearner:
    """Learns a road map from observed position sequences.

    Parameters
    ----------
    cell_size:
        Quantisation cell size in metres.  Should comfortably exceed the
        positioning noise (the paper's DGPS is 2-5 m) but stay below the
        distance between parallel roads; 25 m is a sensible default.
    min_cell_visits:
        Cells observed fewer times than this are discarded as noise before
        the map is extracted.
    road_class:
        Road class assigned to every learned link.
    speed_limit:
        Speed limit assigned to learned links, in m/s.  When omitted it is
        estimated from the maximum speed observed while traversing the data.
    """

    def __init__(
        self,
        cell_size: float = 25.0,
        min_cell_visits: int = 1,
        road_class: RoadClass = RoadClass.SECONDARY,
        speed_limit: Optional[float] = None,
    ):
        if cell_size <= 0:
            raise ValueError("cell_size must be positive")
        self.cell_size = float(cell_size)
        self.min_cell_visits = int(min_cell_visits)
        self.road_class = road_class
        self.speed_limit = speed_limit
        self._visits: Dict[Cell, int] = defaultdict(int)
        self._position_sum: Dict[Cell, np.ndarray] = defaultdict(lambda: np.zeros(2))
        self._edges: Dict[Cell, Set[Cell]] = defaultdict(set)
        self._observed_max_speed = 0.0

    # ------------------------------------------------------------------ #
    # data ingestion
    # ------------------------------------------------------------------ #
    def _cell_of(self, point: Vec2) -> Cell:
        p = as_vec(point)
        return (
            int(math.floor(p[0] / self.cell_size)),
            int(math.floor(p[1] / self.cell_size)),
        )

    def add_positions(
        self, positions: Iterable[Vec2], timestamps: Optional[Sequence[float]] = None
    ) -> None:
        """Feed one movement observation sequence (a trace) to the learner.

        ``timestamps`` (seconds, parallel to the positions) are only used to
        estimate an observed speed for the learned speed limit.
        """
        previous_cell: Optional[Cell] = None
        previous_point: Optional[np.ndarray] = None
        previous_time: Optional[float] = None
        for i, raw in enumerate(positions):
            point = as_vec(raw)
            cell = self._cell_of(point)
            self._visits[cell] += 1
            self._position_sum[cell] += point
            if previous_cell is not None and cell != previous_cell:
                self._edges[previous_cell].add(cell)
                self._edges[cell].add(previous_cell)
            if timestamps is not None and previous_time is not None and previous_point is not None:
                dt = float(timestamps[i]) - previous_time
                if dt > 0:
                    self._observed_max_speed = max(
                        self._observed_max_speed, distance(point, previous_point) / dt
                    )
            previous_cell = cell
            previous_point = point
            previous_time = float(timestamps[i]) if timestamps is not None else None

    def add_trace(self, trace) -> None:
        """Feed a :class:`repro.traces.Trace` (duck-typed) to the learner."""
        self.add_positions(trace.positions, trace.times)

    # ------------------------------------------------------------------ #
    # map extraction
    # ------------------------------------------------------------------ #
    def _cell_center(self, cell: Cell) -> np.ndarray:
        """Mean of the observed positions in the cell (not the geometric centre)."""
        return self._position_sum[cell] / self._visits[cell]

    def _kept_cells(self) -> Set[Cell]:
        return {c for c, v in self._visits.items() if v >= self.min_cell_visits}

    def build_map(self) -> RoadMap:
        """Extract the learned road map.

        Cells with degree other than two (junctions, dead ends) become
        intersections; maximal chains of degree-two cells between them become
        links whose shape points are the chain cells' mean positions.
        """
        kept = self._kept_cells()
        if not kept:
            raise ValueError("no observations recorded; cannot build a map")
        adjacency: Dict[Cell, List[Cell]] = {
            c: sorted(n for n in self._edges.get(c, ()) if n in kept) for c in kept
        }
        speed_limit = self.speed_limit
        if speed_limit is None:
            speed_limit = max(self._observed_max_speed, 1.0)

        def is_node(cell: Cell) -> bool:
            return len(adjacency[cell]) != 2

        node_cells = {c for c in kept if is_node(c)}
        if not node_cells:
            # The data forms one or more pure loops; promote an arbitrary but
            # deterministic cell per loop to a node so links can be anchored.
            node_cells = {min(kept)}

        builder = RoadMapBuilder()
        cell_to_node: Dict[Cell, int] = {}
        for cell in sorted(node_cells):
            cell_to_node[cell] = builder.add_intersection(self._cell_center(cell)).id

        visited_arcs: Set[Tuple[Cell, Cell]] = set()
        for start_cell in sorted(node_cells):
            for neighbour in adjacency[start_cell]:
                if (start_cell, neighbour) in visited_arcs:
                    continue
                chain = [start_cell, neighbour]
                visited_arcs.add((start_cell, neighbour))
                previous, current = start_cell, neighbour
                while current not in node_cells:
                    next_cells = [c for c in adjacency[current] if c != previous]
                    if not next_cells:
                        break
                    nxt = next_cells[0]
                    visited_arcs.add((current, nxt))
                    chain.append(nxt)
                    previous, current = current, nxt
                end_cell = chain[-1]
                if end_cell not in node_cells:
                    # A dangling chain that never reached a node (its tail was
                    # pruned by min_cell_visits); promote its end to a node.
                    cell_to_node[end_cell] = builder.add_intersection(
                        self._cell_center(end_cell)
                    ).id
                    node_cells.add(end_cell)
                visited_arcs.add((end_cell, chain[-2]))
                start_node = cell_to_node[start_cell]
                end_node = cell_to_node[end_cell]
                if start_node == end_node and len(chain) < 3:
                    continue
                shape = [self._cell_center(c) for c in chain[1:-1]]
                builder.add_two_way_link(
                    start_node,
                    end_node,
                    shape_points=shape,
                    road_class=self.road_class,
                    speed_limit=speed_limit,
                    name="learned",
                )
        return builder.build()
