"""Unit tests for repro.mapmatching.offline."""

import numpy as np
import pytest

from repro.mapmatching.matcher import IncrementalMapMatcher, MatcherConfig
from repro.mapmatching.offline import (
    MatchedTracePoint,
    match_trace,
    matched_link_sequence,
    matching_accuracy,
)
from repro.sim.runner import ScenarioSpec
from repro.traces.trace import Trace

from reference.streaming import StateEstimator


def _per_sample_match_trace(trace, roadmap, config=None):
    """The per-sample loop ``match_trace`` ran before the batch stream (oracle)."""
    matcher = IncrementalMapMatcher(roadmap, config)
    estimator = StateEstimator(window=4)
    results = []
    for sample in trace:
        velocity, speed = estimator.update(sample.time, sample.position)
        heading = velocity if speed > 1.0 else None
        match = matcher.update(sample.position, heading=heading)
        matched = match.is_matched
        results.append(
            MatchedTracePoint(
                time=sample.time,
                position=sample.position,
                link_id=match.link_id if matched else None,
                matched_position=match.position if matched else None,
                distance=match.distance if matched else None,
            )
        )
    return results


def _point_key(point):
    matched = point.matched_position
    return (
        point.time,
        point.position.tobytes(),
        point.link_id,
        None if matched is None else matched.tobytes(),
        point.distance,
    )


class TestMatchTrace:
    def test_matches_straight_drive(self, straight_map, straight_trace):
        points = match_trace(straight_trace, straight_map, MatcherConfig(tolerance=30.0))
        assert len(points) == len(straight_trace)
        matched = [p for p in points if p.link_id is not None]
        assert len(matched) >= len(points) - 2
        for point in matched:
            assert point.distance is not None and point.distance <= 30.0
            assert point.matched_position is not None

    def test_off_map_trace(self, straight_map):
        times = np.arange(0.0, 10.0)
        positions = np.column_stack((times * 10.0, np.full_like(times, 5000.0)))
        points = match_trace(Trace(times, positions), straight_map)
        assert all(p.link_id is None for p in points)

    def test_matched_positions_lie_on_links(self, straight_map, straight_trace):
        points = match_trace(straight_trace, straight_map)
        for point in points:
            if point.matched_position is not None:
                assert abs(point.matched_position[1]) < 1e-6


class TestBatchEquivalence:
    @pytest.mark.parametrize("name", ["city", "walking", "urban_canyon_walk"])
    def test_equals_per_sample_loop_on_library_scenario(self, name):
        scenario = ScenarioSpec(name=name, scale=0.15).build()
        config = MatcherConfig(tolerance=scenario.matching_tolerance)
        for trace in (scenario.sensor_trace, scenario.true_trace):
            batch = match_trace(trace, scenario.roadmap, config)
            oracle = _per_sample_match_trace(trace, scenario.roadmap, config)
            assert [_point_key(p) for p in batch] == [_point_key(p) for p in oracle]
            assert all(type(p.link_id) in (int, type(None)) for p in batch)
            assert all(type(p.distance) in (float, type(None)) for p in batch)
        if name == "urban_canyon_walk":
            # The canyon's sensor trace strays off the map and comes back.
            sensed = [
                p.link_id
                for p in match_trace(scenario.sensor_trace, scenario.roadmap, config)
            ]
            first_off = sensed.index(None)
            assert any(link_id is not None for link_id in sensed[first_off:])


class TestLinkSequence:
    def test_sequence_collapses_duplicates(self, straight_map, straight_trace):
        points = match_trace(straight_trace, straight_map)
        sequence = matched_link_sequence(points)
        assert len(sequence) < len(points)
        for a, b in zip(sequence, sequence[1:]):
            assert a != b

    def test_sequence_skips_off_map(self, straight_map):
        times = np.arange(0.0, 20.0)
        xs = times * 30.0
        ys = np.where(times < 10, 0.0, 5000.0)  # second half is off the map
        points = match_trace(Trace(times, np.column_stack((xs, ys))), straight_map)
        sequence = matched_link_sequence(points)
        assert len(sequence) >= 1


class TestMatchingAccuracy:
    def test_perfect_accuracy_on_clean_trace(self, tiny_freeway_scenario):
        scenario = tiny_freeway_scenario
        points = match_trace(
            scenario.true_trace,
            scenario.roadmap,
            MatcherConfig(tolerance=scenario.matching_tolerance),
        )
        accuracy = matching_accuracy(points, scenario.journey.link_ids, scenario.roadmap)
        assert accuracy > 0.95

    def test_noisy_trace_still_accurate(self, tiny_freeway_scenario):
        scenario = tiny_freeway_scenario
        points = match_trace(
            scenario.sensor_trace,
            scenario.roadmap,
            MatcherConfig(tolerance=scenario.matching_tolerance),
        )
        accuracy = matching_accuracy(points, scenario.journey.link_ids, scenario.roadmap)
        assert accuracy > 0.9

    def test_length_mismatch_raises(self, straight_map, straight_trace):
        points = match_trace(straight_trace, straight_map)
        with pytest.raises(ValueError):
            matching_accuracy(points, [1, 2, 3], straight_map)

    def test_reverse_twin_counts_and_unmatched_does_not(self, straight_map):
        forward = next(l for l in straight_map.links.values() if l.from_node == 1)
        twin = straight_map.reverse_link(forward)
        position = np.zeros(2)

        def point(link_id):
            return MatchedTracePoint(0.0, position, link_id, None, None)

        points = [point(forward.id), point(twin.id), point(None), point(None)]
        truth = [forward.id] * 4
        assert matching_accuracy(points, truth, straight_map) == 0.5

    def test_empty_points(self, straight_map):
        assert matching_accuracy([], [], straight_map) == 0.0
