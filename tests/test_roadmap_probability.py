"""Unit tests for repro.roadmap.probability."""

import random

import pytest

from repro.roadmap.probability import TurnProbabilityTable
from repro.roadmap.routing import RoutePlanner

from reference.maps import nearest_intersection, t_junction_map


def _count(table, from_link_id, to_link_id):
    """The raw observation count of one transition."""
    return table._counts.get(from_link_id, {}).get(to_link_id, 0.0)


@pytest.fixture()
def t_map_with_links():
    roadmap = t_junction_map(arm_length_m=500.0)
    center, _ = nearest_intersection(roadmap, (0.0, 0.0))
    west, _ = nearest_intersection(roadmap, (-500.0, 0.0))
    east, _ = nearest_intersection(roadmap, (500.0, 0.0))
    north, _ = nearest_intersection(roadmap, (0.0, 500.0))

    def link_between(a, b):
        return next(
            l for l in roadmap.outgoing_links(a) if l.to_node == b
        )

    return {
        "map": roadmap,
        "west_in": link_between(west.id, center.id),
        "to_east": link_between(center.id, east.id),
        "to_north": link_between(center.id, north.id),
    }


class TestRecording:
    def test_unknown_link_rejected(self, t_map_with_links):
        table = TurnProbabilityTable(t_map_with_links["map"])
        with pytest.raises(KeyError):
            table.record_transition(9999, t_map_with_links["to_east"].id)

    def test_unknown_successor_link_rejected(self, t_map_with_links):
        table = TurnProbabilityTable(t_map_with_links["map"])
        with pytest.raises(KeyError):
            table.record_transition(t_map_with_links["west_in"].id, 9999)

    def test_record_link_sequence_skips_unmatched_gaps(self, t_map_with_links):
        table = TurnProbabilityTable(t_map_with_links["map"])
        west_in = t_map_with_links["west_in"].id
        to_east = t_map_with_links["to_east"].id
        to_north = t_map_with_links["to_north"].id
        # ``None`` marks a sighting the matcher could not place on a link.
        table.record_link_sequence([west_in, to_east, None, to_north], weight=2.0)
        assert _count(table, west_in, to_east) == 2.0
        assert _count(table, to_east, to_north) == 0.0
        assert sum(sum(row.values()) for row in table._counts.values()) == 2.0

    def test_record_and_count(self, t_map_with_links):
        table = TurnProbabilityTable(t_map_with_links["map"])
        table.record_transition(t_map_with_links["west_in"].id, t_map_with_links["to_east"].id)
        assert _count(
            table, t_map_with_links["west_in"].id, t_map_with_links["to_east"].id
        ) == 1.0

    def test_negative_smoothing_rejected(self, t_map_with_links):
        with pytest.raises(ValueError):
            TurnProbabilityTable(t_map_with_links["map"], laplace_smoothing=-1.0)

    def test_record_route(self):
        roadmap = t_junction_map()
        planner = RoutePlanner(roadmap)
        route = planner.random_route(min_length=900.0, rng=random.Random(0))
        table = TurnProbabilityTable(roadmap)
        table.record_route(route)
        assert sum(len(row) for row in table._counts.values()) == len(route.links) - 1


class TestProbabilities:
    def test_uniform_when_no_observations(self, t_map_with_links):
        table = TurnProbabilityTable(t_map_with_links["map"])
        probs = table.transition_probabilities(t_map_with_links["west_in"])
        assert len(probs) == 2  # east and north (no U-turn)
        assert sum(probs.values()) == pytest.approx(1.0)
        assert all(p == pytest.approx(0.5) for p in probs.values())

    def test_probabilities_follow_counts(self, t_map_with_links):
        table = TurnProbabilityTable(t_map_with_links["map"])
        west_in = t_map_with_links["west_in"]
        table.record_transition(west_in.id, t_map_with_links["to_east"].id, 3.0)
        table.record_transition(west_in.id, t_map_with_links["to_north"].id, 1.0)
        probs = table.transition_probabilities(west_in)
        assert probs[t_map_with_links["to_east"].id] == pytest.approx(0.75)
        assert probs[t_map_with_links["to_north"].id] == pytest.approx(0.25)

    def test_most_probable_successor(self, t_map_with_links):
        table = TurnProbabilityTable(t_map_with_links["map"])
        west_in = t_map_with_links["west_in"]
        table.record_transition(west_in.id, t_map_with_links["to_north"].id, 5.0)
        best = table.most_probable_successor(west_in)
        assert best is not None
        assert best.id == t_map_with_links["to_north"].id

    def test_most_probable_dead_end_returns_none(self, t_map_with_links):
        roadmap = t_map_with_links["map"]
        table = TurnProbabilityTable(roadmap)
        # A link towards a dead-end arm: the only outgoing link at the arm tip
        # is the U-turn, which successors() excludes.
        dead_end_link = t_map_with_links["to_east"]
        assert table.most_probable_successor(dead_end_link) is None

    def test_smoothing_keeps_unseen_turns_possible(self, t_map_with_links):
        table = TurnProbabilityTable(t_map_with_links["map"], laplace_smoothing=1.0)
        west_in = t_map_with_links["west_in"]
        table.record_transition(west_in.id, t_map_with_links["to_east"].id, 8.0)
        probs = table.transition_probabilities(west_in)
        assert probs[t_map_with_links["to_north"].id] > 0.0
