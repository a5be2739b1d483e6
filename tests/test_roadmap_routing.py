"""Unit tests for repro.roadmap.routing."""

import random

import networkx as nx
import numpy as np
import pytest

from repro.roadmap.builder import RoadMapBuilder
from repro.roadmap.generators import city_grid_map
from repro.roadmap.graph import RoadMap
from repro.roadmap.routing import Route, RoutePlanner

from reference.maps import nearest_intersection


@pytest.fixture(scope="module")
def city():
    return city_grid_map(rows=6, cols=6, spacing_m=200.0, jitter_m=0.0, seed=0)


@pytest.fixture(scope="module")
def planner(city):
    return RoutePlanner(city)


class TestRoute:
    def test_route_requires_links(self, city):
        with pytest.raises(ValueError):
            Route(city, [])

    def test_route_requires_connected_links(self, city, planner):
        route = planner.random_route(min_length=1000.0, rng=random.Random(0))
        links = [route.links[0], route.links[-1]]
        if links[0].to_node != links[1].from_node:
            with pytest.raises(ValueError):
                Route(city, links)

    def test_length_is_sum_of_links(self, planner):
        route = planner.random_route(min_length=1500.0, rng=random.Random(1))
        assert route.length == pytest.approx(sum(l.length for l in route.links))

    def test_point_at_endpoints(self, planner):
        route = planner.random_route(min_length=1500.0, rng=random.Random(2))
        first, last = route.links[0], route.links[-1]
        np.testing.assert_allclose(route.point_at(0.0), first.geometry.points[0])
        np.testing.assert_allclose(route.point_at(route.length), last.geometry.points[-1])

    def test_node_sequence_consistent(self, planner):
        route = planner.random_route(min_length=1500.0, rng=random.Random(5))
        for link, following in zip(route.links, route.links[1:]):
            assert link.to_node == following.from_node
            np.testing.assert_allclose(link.geometry.points[-1], following.geometry.points[0])

    def test_len_and_iteration_follow_the_links(self, planner):
        route = planner.random_route(min_length=1500.0, rng=random.Random(7))
        assert len(route) == len(route.links)
        assert [link.id for link in route] == [link.id for link in route.links]

    def test_link_at_boundaries(self, planner):
        route = planner.random_route(min_length=1500.0, rng=random.Random(3))
        first_link, offset = route.link_at(0.0)
        assert first_link.id == route.links[0].id
        assert offset == 0.0
        last_link, offset = route.link_at(route.length)
        assert last_link.id == route.links[-1].id
        assert offset == pytest.approx(last_link.length)

    def test_link_index_monotone(self, planner):
        route = planner.random_route(min_length=2000.0, rng=random.Random(4))
        offsets = np.linspace(0.0, route.length, 50)
        indices = [route.link_index_at(o) for o in offsets]
        assert indices == sorted(indices)

    def test_speed_limit_at(self, planner):
        route = planner.random_route(min_length=1000.0, rng=random.Random(7))
        assert route.speed_limit_at(0.0) > 0

    def test_project_roundtrip(self, planner):
        route = planner.random_route(min_length=1500.0, rng=random.Random(8))
        target = route.point_at(route.length / 3.0)
        projected, offset, dist = route.project(target)
        assert dist < 1e-6
        np.testing.assert_allclose(route.point_at(offset), target, atol=1e-6)


class TestRoutePlanner:
    def test_invalid_weight(self, city):
        with pytest.raises(ValueError):
            RoutePlanner(city, weight="bananas")

    def test_shortest_route_grid_distance(self, city, planner):
        # Corner to corner on a 6x6 grid with 200 m spacing: 5+5 edges = 2000 m.
        corner_a, _ = nearest_intersection(city, (0.0, 0.0))
        corner_b, _ = nearest_intersection(city, (1000.0, 1000.0))
        route = planner.shortest_route(corner_a.id, corner_b.id)
        assert route.length == pytest.approx(2000.0, rel=1e-6)
        assert route.links[0].from_node == corner_a.id
        assert route.links[-1].to_node == corner_b.id

    def test_route_from_links(self, city, planner):
        route = planner.random_route(min_length=800.0, rng=random.Random(9))
        rebuilt = planner.route_from_links([l.id for l in route.links])
        assert rebuilt.length == pytest.approx(route.length)

    def test_random_route_min_length(self, planner):
        route = planner.random_route(min_length=3000.0, rng=random.Random(10))
        assert route.length >= 3000.0

    def test_random_route_is_connected(self, planner):
        route = planner.random_route(min_length=2500.0, rng=random.Random(11))
        for a, b in zip(route.links, route.links[1:]):
            assert a.to_node == b.from_node

    def test_random_route_straight_bias_reduces_turns(self, city):
        planner = RoutePlanner(city)

        def count_turns(route):
            turns = 0
            for a, b in zip(route.links, route.links[1:]):
                da = a.direction_at(a.length)
                db = b.direction_at(0.0)
                if float(da @ db) < 0.9:
                    turns += 1
            return turns / max(1, len(route.links) - 1)

        wiggly = planner.random_route(min_length=4000.0, rng=random.Random(12), straight_bias=0.0)
        straight = planner.random_route(
            min_length=4000.0, rng=random.Random(12), straight_bias=0.9
        )
        assert count_turns(straight) < count_turns(wiggly)

    def test_random_route_invalid_bias(self, planner):
        with pytest.raises(ValueError):
            planner.random_route(min_length=100.0, straight_bias=1.5)

    def test_invalid_algo(self, city):
        with pytest.raises(ValueError):
            RoutePlanner(city, algo="astar")

    def test_hierarchy_for_another_weight_rejected(self, city):
        hierarchy = RoutePlanner(city, weight="length", algo="ch").build_hierarchy()
        with pytest.raises(ValueError, match="weight"):
            RoutePlanner(city, weight="travel_time", algo="ch", hierarchy=hierarchy)

    def test_injected_hierarchy_answers_like_a_fresh_one(self, city, planner):
        hierarchy = RoutePlanner(city, algo="ch").build_hierarchy()
        reused = RoutePlanner(city, algo="ch", hierarchy=hierarchy)
        assert reused.build_hierarchy() is hierarchy
        expected = planner.shortest_route(0, 35)
        assert [l.id for l in reused.shortest_route(0, 35).links] == [
            l.id for l in expected.links
        ]

    def test_plan_to_the_start_node_is_empty(self, planner):
        path = planner.plan(3, 3)
        assert path.cost == 0.0
        assert path.links == []

    def test_shortest_route_to_the_start_node_rejected(self, planner):
        with pytest.raises(ValueError):
            planner.shortest_route(3, 3)

    @pytest.mark.parametrize("algo", ["dijkstra", "ch"])
    def test_disconnected_destination_raises_no_path(self, algo):
        builder = RoadMapBuilder()
        a = builder.add_intersection((0.0, 0.0))
        b = builder.add_intersection((100.0, 0.0))
        c = builder.add_intersection((500.0, 0.0))
        d = builder.add_intersection((600.0, 0.0))
        builder.add_two_way_link(a.id, b.id)
        builder.add_two_way_link(c.id, d.id)
        with pytest.raises(nx.NetworkXNoPath):
            RoutePlanner(builder.build(), algo=algo).plan(a.id, d.id)

    def test_random_route_on_a_map_without_links(self, city):
        empty = RoadMap(city.intersections.values(), [])
        with pytest.raises(ValueError, match="no links"):
            RoutePlanner(empty).random_route(min_length=100.0)

    def test_random_route_longer_than_the_map_allows(self):
        builder = RoadMapBuilder()
        a = builder.add_intersection((0.0, 0.0))
        b = builder.add_intersection((100.0, 0.0))
        builder.add_link(a.id, b.id)
        planner = RoutePlanner(builder.build())
        with pytest.raises(RuntimeError):
            planner.random_route(min_length=1_000.0, rng=random.Random(0), max_attempts=5)

    def test_unreachable_raises(self, city, planner):
        corner_a, _ = nearest_intersection(city, (0.0, 0.0))
        with pytest.raises(nx.NetworkXException):
            planner.shortest_route(corner_a.id, 10_000)


class TestDeterministicTieBreak:
    """Equal-cost shortest paths must resolve identically on every engine.

    The jitter-free city grid is maximally tie-rich: every monotone
    staircase between two corners has the same length.  The canonical path
    (lexicographically smallest under the per-link tie keys) is pinned
    literally — any change to the tie-breaking scheme, in either engine,
    shows up here before it can break CH==Dijkstra path identity.
    """

    def _nodes(self, route):
        return [route.links[0].from_node] + [link.to_node for link in route.links]

    def test_corner_to_corner_path_pinned(self, city, planner):
        route = planner.shortest_route(0, 35)
        assert self._nodes(route) == [0, 1, 2, 3, 4, 10, 16, 22, 28, 34, 35]

    def test_interior_path_pinned(self, city, planner):
        route = planner.shortest_route(2, 33)
        assert self._nodes(route) == [2, 8, 14, 20, 26, 27, 33]

    def test_replanning_is_stable(self, city):
        first = RoutePlanner(city).shortest_route(0, 35)
        second = RoutePlanner(city).shortest_route(0, 35)
        assert [l.id for l in first.links] == [l.id for l in second.links]

    def test_ch_returns_the_same_canonical_path(self, city, planner):
        ch_planner = RoutePlanner(city, algo="ch")
        for source, target in ((0, 35), (2, 33), (30, 5), (0, 7)):
            expected = planner.shortest_route(source, target)
            actual = ch_planner.shortest_route(source, target)
            assert [l.id for l in actual.links] == [l.id for l in expected.links]
