"""The big-map region fixture: tile store layout, streaming, graph identity.

Two contracts matter here:

1. **Tiling is invisible to the graph** — a routing graph streamed from a
   tile store (`routing_links`) is element-for-element identical to the
   one built from the merged :class:`RoadMap`, and the contraction
   hierarchy on the streamed graph answers bit-identically to Dijkstra.
2. **The region generator is deterministic** — the same arguments write
   byte-identical tiles.
"""

import random

import numpy as np
import pytest

from repro.ingest.compact import Segment, segments_to_roadmap
from repro.ingest.tiles import TileStore, TileWriter, write_region_tiles
from repro.roadmap.elements import RoadClass
from repro.roadmap.hierarchy import ContractionHierarchy, RoutingGraph, dijkstra_path


def _mixed_store(root):
    """A hand-built store with one-way links, shape points and no speed limit.

    The region fixture is two-way, two-point and speed-limited everywhere;
    these segments reach the other branches of ``routing_links``.
    """
    writer = TileWriter(root, tile_size_m=150.0, buffer_segments=2)
    positions = {1: (0.0, 0.0), 2: (130.0, 10.0), 3: (260.0, -5.0), 4: (140.0, 170.0)}

    def segment(a, b, oneway, speed=None, shape=()):
        points = np.array([positions[a], *shape, positions[b]], dtype=float)
        return Segment(a, b, points, RoadClass.SECONDARY, speed, oneway)

    for seg in (
        segment(1, 2, oneway=False, speed=14.0),
        segment(2, 3, oneway=True),
        segment(3, 4, oneway=False, shape=[(230.0, 90.0), (190.0, 150.0)]),
        segment(4, 1, oneway=True, speed=9.0, shape=[(60.0, 120.0)]),
        segment(4, 2, oneway=False),
    ):
        writer.add(seg)
    writer.close(kind="mixed", nodes=len(positions))
    return TileStore(root)


class TestStreamedGraph:
    @pytest.mark.parametrize("weight", ["length", "travel_time"])
    @pytest.mark.parametrize("fixture", ["region", "mixed"])
    def test_streamed_graph_identical_to_merged_roadmap(self, tmp_path, fixture, weight):
        if fixture == "region":
            store = write_region_tiles(tmp_path / "r", 12, 14, tile_nodes=4)
        else:
            store = _mixed_store(tmp_path / "m")
        assert len(store.tile_keys()) > 1  # the store spans several tiles
        streamed = RoutingGraph.from_links(weight, list(store.routing_links(weight)))
        merged = RoutingGraph.from_roadmap(
            segments_to_roadmap(list(store.iter_segments())), weight
        )
        assert streamed.node_ids == merged.node_ids
        assert streamed.num_edges() == merged.num_edges()
        for u in range(merged.num_nodes()):
            assert streamed.out_edges[u] == merged.out_edges[u]

    def test_segments_survive_round_trip(self, tmp_path):
        store = _mixed_store(tmp_path / "m")
        segments = list(store.iter_segments())
        assert len(segments) == store.index["segments"] == 5
        assert store.index["nodes"] == 4
        assert sorted(s.oneway for s in segments) == [False, False, False, True, True]

    def test_unknown_weight_rejected(self, tmp_path):
        store = _mixed_store(tmp_path / "m")
        with pytest.raises(ValueError):
            list(store.routing_links("fuel"))


class TestSyntheticRegion:
    def test_region_is_deterministic(self, tmp_path):
        first = write_region_tiles(tmp_path / "a", 20, 24, tile_nodes=8)
        second = write_region_tiles(tmp_path / "b", 20, 24, tile_nodes=8)
        assert first.index["tiles"].keys() == second.index["tiles"].keys()
        assert first.index["segments"] == second.index["segments"]
        for tx, ty in first.tile_keys():
            name = first.index["tiles"][f"{tx},{ty}"]["file"]
            assert (first.root / name).read_bytes() == (second.root / name).read_bytes()

    def test_region_shape(self, tmp_path):
        store = write_region_tiles(tmp_path / "r", 20, 24, tile_nodes=8)
        assert store.index["kind"] == "synthetic-region"
        assert store.index["nodes"] == 20 * 24
        # Two-way grid: one segment per adjacent pair.
        assert store.index["segments"] == 19 * 24 + 20 * 23
        assert store.index["region"]["nrows"] == 20

    def test_region_graph_routes_correctly(self, tmp_path):
        store = write_region_tiles(tmp_path / "r", 16, 16, tile_nodes=8)
        graph = RoutingGraph.from_links(
            "travel_time", list(store.routing_links("travel_time"))
        )
        hierarchy = ContractionHierarchy.build(graph)
        rng = random.Random(23)
        ids = graph.node_ids
        for _ in range(60):
            source, target = rng.choice(ids), rng.choice(ids)
            reference = dijkstra_path(graph, source, target)
            candidate = hierarchy.query(source, target)
            assert reference is not None  # the grid is connected
            assert candidate.cost == reference.cost
            assert candidate.links == reference.links

    def test_tiny_region_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_region_tiles(tmp_path / "r", 1, 5)

    def test_store_rejects_other_format_version(self, tmp_path):
        store = write_region_tiles(tmp_path / "r", 4, 4)
        index_path = store.root / "index.json"
        text = index_path.read_text(encoding="utf-8")
        index_path.write_text(text.replace('"version": 2', '"version": 1'), encoding="utf-8")
        with pytest.raises(ValueError):
            TileStore(store.root)
