"""Unit tests for repro.roadmap.history (history-based map learning)."""

import numpy as np
import pytest

from repro.roadmap.history import HistoryMapLearner
from repro.traces.trace import Trace

from reference.maps import nearest_intersection


def straight_positions(length=1000.0, step=10.0, y=0.0):
    xs = np.arange(0.0, length + step, step)
    return np.column_stack((xs, np.full_like(xs, y)))


class TestIngestion:
    def test_invalid_cell_size(self):
        with pytest.raises(ValueError):
            HistoryMapLearner(cell_size=0.0)

    def test_empty_learner_cannot_build(self):
        with pytest.raises(ValueError):
            HistoryMapLearner().build_map()

    def test_add_trace_interface(self):
        times = np.arange(0.0, 50.0)
        positions = np.column_stack((times * 15.0, np.zeros_like(times)))
        trace = Trace(times, positions)
        learner = HistoryMapLearner(cell_size=40.0)
        learner.add_trace(trace)
        assert sum(learner._visits.values()) == 50


class TestMapExtraction:
    def test_straight_trace_produces_thin_map(self):
        learner = HistoryMapLearner(cell_size=50.0)
        learner.add_positions(straight_positions(length=2000.0))
        roadmap = learner.build_map()
        # The learned map should follow the driven line: its total (one-way)
        # length is close to the trace length.
        assert roadmap.total_length() / 2.0 == pytest.approx(2000.0, rel=0.2)
        # And every learned link lies close to the y=0 line.
        for link in roadmap.links.values():
            assert np.all(np.abs(link.geometry.points[:, 1]) < 60.0)

    def test_learned_map_matches_trace_positions(self):
        learner = HistoryMapLearner(cell_size=40.0)
        learner.add_positions(straight_positions(length=1500.0))
        roadmap = learner.build_map()
        for x in (100.0, 700.0, 1400.0):
            found = roadmap.nearest_link((x, 0.0))
            assert found is not None
            _, dist = found
            assert dist < 40.0

    def test_junction_becomes_intersection(self):
        # Two traces that share a segment and then split create a junction.
        learner = HistoryMapLearner(cell_size=50.0)
        shared = straight_positions(length=500.0)
        east = np.column_stack((np.arange(500.0, 1000.0, 10.0), np.zeros(50)))
        north = np.column_stack((np.full(50, 500.0), np.arange(0.0, 500.0, 10.0)))
        learner.add_positions(np.vstack((shared, east)))
        learner.add_positions(np.vstack((shared, north)))
        roadmap = learner.build_map()
        # A node should exist near the split point (500, 0).
        node, dist = nearest_intersection(roadmap, (500.0, 0.0))
        assert dist < 80.0
        assert roadmap.degree(node.id) >= 3

    def test_min_cell_visits_filters_noise(self):
        learner = HistoryMapLearner(cell_size=50.0, min_cell_visits=2)
        # The main road is traversed twice, a noise blip only once.
        road = straight_positions(length=1000.0)
        learner.add_positions(road)
        learner.add_positions(road)
        learner.add_positions(np.array([[5000.0, 5000.0], [5050.0, 5000.0]]))
        roadmap = learner.build_map()
        found = roadmap.nearest_link((5000.0, 5000.0), max_distance=500.0)
        assert found is None

    def test_speed_limit_estimated_from_observations(self):
        learner = HistoryMapLearner(cell_size=50.0)
        positions = straight_positions(length=1000.0, step=20.0)
        times = np.arange(len(positions), dtype=float)  # 20 m/s
        learner.add_positions(positions, timestamps=times)
        roadmap = learner.build_map()
        speeds = {l.speed_limit for l in roadmap.links.values()}
        assert all(abs(s - 20.0) < 1.0 for s in speeds)

    def test_explicit_speed_limit_used(self):
        learner = HistoryMapLearner(cell_size=50.0, speed_limit=13.0)
        learner.add_positions(straight_positions())
        roadmap = learner.build_map()
        assert all(l.speed_limit == 13.0 for l in roadmap.links.values())

    def test_loop_trace_still_builds(self):
        learner = HistoryMapLearner(cell_size=60.0)
        angles = np.linspace(0.0, 2 * np.pi, 200)
        loop = np.column_stack((500.0 * np.cos(angles), 500.0 * np.sin(angles)))
        learner.add_positions(loop)
        roadmap = learner.build_map()
        assert roadmap.num_links() >= 2
        assert roadmap.num_intersections() >= 1
