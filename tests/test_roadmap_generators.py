"""Unit tests for repro.roadmap.generators."""

import random

import networkx as nx
import numpy as np
import pytest

from repro.roadmap.elements import RoadClass
from repro.roadmap.generators import (
    city_grid_map,
    curved_path,
    freeway_map,
    corridor_city_map,
    interurban_map,
    pedestrian_map,
    radial_ring_map,
)

from reference.maps import nearest_intersection, straight_road_map, t_junction_map, to_networkx


class TestCurvedPath:
    def test_length_approximation(self):
        path = curved_path(length=5000.0, step=50.0, rng=random.Random(0))
        deltas = np.diff(path, axis=0)
        total = np.hypot(deltas[:, 0], deltas[:, 1]).sum()
        assert total == pytest.approx(5000.0, rel=0.05)

    def test_starts_at_start(self):
        path = curved_path(length=1000.0, start=(5.0, 7.0), rng=random.Random(1))
        assert path[0].tolist() == [5.0, 7.0]

    def test_deterministic_for_seeded_rng(self):
        a = curved_path(length=2000.0, rng=random.Random(42))
        b = curved_path(length=2000.0, rng=random.Random(42))
        np.testing.assert_allclose(a, b)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            curved_path(length=0.0)
        with pytest.raises(ValueError):
            curved_path(length=100.0, step=0.0)


class TestFreewayMap:
    @pytest.fixture(scope="class")
    def freeway(self):
        return freeway_map(length_km=40.0, interchange_spacing_km=4.0, seed=0)

    def test_total_length_scale(self, freeway):
        # Two carriageways plus ramps: at least twice the corridor length.
        assert freeway.total_length() >= 2 * 40_000.0 * 0.9

    def test_contains_motorway_links(self, freeway):
        classes = {l.road_class for l in freeway.links.values()}
        assert RoadClass.MOTORWAY in classes
        assert RoadClass.SECONDARY in classes  # the exit ramps

    def test_has_interchanges_with_choices(self, freeway):
        # At least one intersection must have more than 2 outgoing links
        # (continue, reverse and a ramp) so that the prediction has a choice.
        assert any(freeway.degree(nid) >= 3 for nid in freeway.intersections)

    def test_connected(self, freeway):
        graph = to_networkx(freeway).to_undirected()
        assert nx.is_connected(graph)

    def test_deterministic(self):
        a = freeway_map(length_km=25.0, seed=7)
        b = freeway_map(length_km=25.0, seed=7)
        assert a.num_links() == b.num_links()
        assert a.total_length() == pytest.approx(b.total_length())


class TestInterurbanMap:
    @pytest.fixture(scope="class")
    def interurban(self):
        return interurban_map(n_towns=4, town_spacing_km=10.0, seed=1)

    def test_primary_corridor_exists(self, interurban):
        primaries = [l for l in interurban.links.values() if l.road_class == RoadClass.PRIMARY]
        assert sum(l.length for l in primaries) >= 2 * 3 * 10_000.0 * 0.8

    def test_connected(self, interurban):
        graph = to_networkx(interurban).to_undirected()
        assert nx.is_connected(graph)

    def test_has_side_roads(self, interurban):
        classes = {l.road_class for l in interurban.links.values()}
        assert RoadClass.SECONDARY in classes


class TestCityGridMap:
    @pytest.fixture(scope="class")
    def city(self):
        return city_grid_map(rows=6, cols=5, spacing_m=200.0, seed=2)

    def test_node_count(self, city):
        assert city.num_intersections() == 30

    def test_link_count(self, city):
        # Two-way links: rows*(cols-1) horizontal + cols*(rows-1) vertical, times 2.
        expected = 2 * (6 * 4 + 5 * 5)
        assert city.num_links() == expected

    def test_interior_degree(self, city):
        degrees = [city.degree(nid) for nid in city.intersections]
        assert max(degrees) == 4

    def test_contains_arterials(self, city):
        classes = {l.road_class for l in city.links.values()}
        assert RoadClass.SECONDARY in classes
        assert RoadClass.RESIDENTIAL in classes

    def test_connected(self, city):
        assert nx.is_connected(to_networkx(city).to_undirected())

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            city_grid_map(rows=1, cols=5)


class TestInvalidGeneratorArguments:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: radial_ring_map(n_arms=2),
            lambda: radial_ring_map(n_rings=0),
            lambda: corridor_city_map(rows=1),
            lambda: corridor_city_map(cols=1),
            lambda: corridor_city_map(corridor_km=0.0),
        ],
        ids=["radial_two_arms", "radial_no_rings", "corridor_one_row", "corridor_one_col",
             "corridor_zero_km"],
    )
    def test_rejected(self, build):
        with pytest.raises(ValueError):
            build()


class TestPedestrianMap:
    @pytest.fixture(scope="class")
    def walkways(self):
        return pedestrian_map(rows=8, cols=8, spacing_m=80.0, diagonal_probability=0.5, seed=3)

    def test_all_footpaths(self, walkways):
        assert all(l.road_class == RoadClass.FOOTPATH for l in walkways.links.values())

    def test_has_diagonals(self, walkways):
        # A diagonal link is longer than the grid spacing.
        assert any(l.length > 100.0 for l in walkways.links.values())

    def test_connected(self, walkways):
        assert nx.is_connected(to_networkx(walkways).to_undirected())


class TestFixtures:
    def test_straight_road_map(self):
        roadmap = straight_road_map(length_m=1000.0, n_links=2)
        assert roadmap.num_intersections() == 3
        assert roadmap.num_links() == 4

    def test_t_junction_map(self):
        roadmap = t_junction_map(arm_length_m=300.0)
        assert roadmap.num_intersections() == 4
        assert roadmap.num_links() == 6
        center, _ = nearest_intersection(roadmap, (0.0, 0.0))
        assert roadmap.degree(center.id) == 3
