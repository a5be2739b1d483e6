"""Unit tests for repro.roadmap.builder and repro.roadmap.graph."""

import numpy as np
import pytest

from repro.geo.bbox import BoundingBox
from repro.roadmap.builder import RoadMapBuilder
from repro.roadmap.graph import RoadMap

from reference.maps import nearest_intersection, to_networkx


class TestBuilder:
    def test_auto_ids_increase(self):
        builder = RoadMapBuilder()
        a = builder.add_intersection((0, 0))
        b = builder.add_intersection((10, 0))
        assert b.id == a.id + 1

    def test_duplicate_node_id_rejected(self):
        builder = RoadMapBuilder()
        builder.add_intersection((0, 0), node_id=5)
        with pytest.raises(ValueError):
            builder.add_intersection((1, 1), node_id=5)

    def test_link_requires_existing_nodes(self):
        builder = RoadMapBuilder()
        builder.add_intersection((0, 0))
        with pytest.raises(ValueError):
            builder.add_link(0, 99)

    def test_link_requires_an_existing_start_node(self):
        builder = RoadMapBuilder()
        builder.add_intersection((0, 0))
        with pytest.raises(ValueError, match="from_node"):
            builder.add_link(99, 0)

    def test_duplicate_link_id_rejected_by_builder(self):
        builder = RoadMapBuilder()
        a = builder.add_intersection((0, 0))
        b = builder.add_intersection((10, 0))
        builder.add_link(a.id, b.id, link_id=3)
        with pytest.raises(ValueError, match="already used"):
            builder.add_link(b.id, a.id, link_id=3)

    def test_link_geometry_includes_endpoints_and_shape(self):
        builder = RoadMapBuilder()
        a = builder.add_intersection((0, 0)).id
        b = builder.add_intersection((100, 0)).id
        link = builder.add_link(a, b, shape_points=[(50.0, 10.0)])
        assert len(link.geometry) == 3
        assert link.length > 100.0

    def test_link_with_coincident_endpoints_raises(self):
        builder = RoadMapBuilder()
        a = builder.add_intersection((0, 0)).id
        b = builder.add_intersection((0, 0)).id
        with pytest.raises(ValueError):
            builder.add_link(a, b)

    def test_duplicate_shape_points_collapsed(self):
        builder = RoadMapBuilder()
        a = builder.add_intersection((0, 0)).id
        b = builder.add_intersection((100, 0)).id
        link = builder.add_link(a, b, shape_points=[(50.0, 0.0), (50.0, 0.0)])
        assert len(link.geometry) == 3

    def test_two_way_link_creates_twins(self):
        builder = RoadMapBuilder()
        a = builder.add_intersection((0, 0)).id
        b = builder.add_intersection((100, 0)).id
        forward, backward = builder.add_two_way_link(a, b, shape_points=[(40.0, 5.0)])
        assert forward.from_node == a and forward.to_node == b
        assert backward.from_node == b and backward.to_node == a
        assert forward.length == pytest.approx(backward.length)

    def test_get_or_create_intersection_merges(self):
        builder = RoadMapBuilder()
        a = builder.add_intersection((0, 0))
        same = builder.get_or_create_intersection((0.5, 0.5), merge_tolerance=1.0)
        assert same.id == a.id
        other = builder.get_or_create_intersection((10.0, 0.0), merge_tolerance=1.0)
        assert other.id != a.id

    def test_counts(self):
        builder = RoadMapBuilder()
        a = builder.add_intersection((0, 0)).id
        b = builder.add_intersection((50, 0)).id
        builder.add_two_way_link(a, b)
        roadmap = builder.build()
        assert roadmap.num_intersections() == 2
        assert roadmap.num_links() == 2


class TestRoadMap:
    def test_duplicate_link_id_rejected(self, straight_map):
        links = list(straight_map.links.values())
        with pytest.raises(ValueError):
            RoadMap(straight_map.intersections.values(), links + [links[0]])

    def test_unknown_node_reference_rejected(self, straight_map):
        links = list(straight_map.links.values())
        nodes = [n for n in straight_map.intersections.values() if n.id != links[0].from_node]
        with pytest.raises(ValueError):
            RoadMap(nodes, links)

    def test_counts(self, straight_map):
        assert straight_map.num_intersections() == 5
        assert straight_map.num_links() == 8
        assert straight_map.total_length() == pytest.approx(4000.0)

    def test_outgoing_incoming(self, straight_map):
        # An interior node of the two-way straight road has 2 outgoing and 2 incoming.
        interior = 1
        assert len(straight_map.outgoing_links(interior)) == 2
        incoming = [l for l in straight_map.links.values() if l.to_node == interior]
        assert len(incoming) == 2

    def test_successors_exclude_reverse(self, straight_map):
        # Take a forward link in the middle of the road.
        link = next(
            l for l in straight_map.links.values() if l.from_node == 1 and l.to_node == 2
        )
        successors = straight_map.successors(link)
        assert all(s.from_node == 2 for s in successors)
        assert all(not (s.to_node == 1) for s in successors)

    def test_reverse_link(self, straight_map):
        link = next(iter(straight_map.links.values()))
        twin = straight_map.reverse_link(link)
        assert twin is not None
        assert twin.from_node == link.to_node
        assert twin.to_node == link.from_node

    def test_duplicate_intersection_id_rejected(self, straight_map):
        nodes = list(straight_map.intersections.values())
        with pytest.raises(ValueError, match="duplicate intersection"):
            RoadMap(nodes + [nodes[0]], [])

    def test_unknown_to_node_rejected(self, straight_map):
        links = list(straight_map.links.values())
        nodes = [n for n in straight_map.intersections.values() if n.id != links[0].to_node]
        with pytest.raises(ValueError, match="unknown to_node"):
            RoadMap(nodes, [links[0]])

    def test_bounds_without_links_span_the_intersections(self, straight_map):
        nodes_only = RoadMap(straight_map.intersections.values(), [])
        assert nodes_only.bounds().as_tuple() == (0.0, 0.0, 2000.0, 0.0)
        assert nodes_only.bounds().as_tuple() == straight_map.bounds().as_tuple()

    def test_one_way_link_has_no_reverse(self):
        builder = RoadMapBuilder()
        a = builder.add_intersection((0.0, 0.0))
        b = builder.add_intersection((100.0, 0.0))
        link = builder.add_link(a.id, b.id)
        assert builder.build().reverse_link(link) is None

    def test_degree(self, t_map):
        # Centre of the T junction has three outgoing links.
        center, _ = nearest_intersection(t_map, (0.0, 0.0))
        assert t_map.degree(center.id) == 3

    def test_nearest_link(self, straight_map):
        found = straight_map.nearest_link((250.0, 30.0))
        assert found is not None
        link, dist = found
        assert dist == pytest.approx(30.0)

    def test_nearest_link_max_distance(self, straight_map):
        assert straight_map.nearest_link((250.0, 500.0), max_distance=100.0) is None

    def test_links_near(self, straight_map):
        hits = straight_map.links_near((250.0, 10.0), radius=20.0)
        assert len(hits) >= 2  # both directions of the road
        assert hits[0][1] <= hits[-1][1]

    def test_links_in_box(self, straight_map):
        links = straight_map.links_in_box(BoundingBox(0.0, -10.0, 400.0, 10.0))
        assert len(links) >= 2

    def test_nearest_intersection(self, straight_map):
        node, dist = nearest_intersection(straight_map, (510.0, 5.0))
        assert dist == pytest.approx(float(np.hypot(10.0, 5.0)))

    def test_to_networkx(self, straight_map):
        graph = to_networkx(straight_map)
        assert graph.number_of_nodes() == straight_map.num_intersections()
        assert graph.number_of_edges() == straight_map.num_links()
        for _, _, data in graph.edges(data=True):
            assert data["length"] > 0
            assert data["travel_time"] > 0

    def test_statistics(self, straight_map):
        stats = straight_map.statistics()
        assert stats["intersections"] == 5
        assert stats["links"] == 8
        assert stats["total_length_km"] == pytest.approx(4.0)
        assert stats["mean_out_degree"] > 0
