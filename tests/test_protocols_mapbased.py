"""Unit tests for the map-based dead-reckoning protocol and its variants."""

import numpy as np
import pytest

from repro.protocols.base import UpdateReason
from repro.protocols.known_route import KnownRouteProtocol
from repro.protocols.linear import LinearPredictionProtocol
from repro.protocols.mapbased import MapBasedConfig, MapBasedProtocol
from repro.protocols.probabilistic import ProbabilisticMapBasedProtocol
from repro.roadmap.probability import TurnProbabilityTable
from repro.sim.fleet import run_simulation
from repro.traces.trace import Trace


def feed(protocol, trace):
    messages = []
    for sample in trace:
        message = protocol.observe(sample.time, sample.position)
        if message is not None:
            messages.append(message)
    return messages


class TestMapBasedConfig:
    def test_matcher_config_propagation(self):
        config = MapBasedConfig(matching_tolerance=17.0, backtrack_depth=3)
        matcher_config = config.matcher_config()
        assert matcher_config.tolerance == 17.0
        assert matcher_config.backtrack_depth == 3


class TestMapBasedProtocol:
    def test_initial_update_contains_link(self, straight_map, straight_trace):
        protocol = MapBasedProtocol(accuracy=100.0, roadmap=straight_map, estimation_window=2)
        messages = feed(protocol, straight_trace)
        assert messages[0].reason is UpdateReason.INITIAL
        assert messages[0].state.link_id is not None
        assert messages[0].state.link_offset is not None

    def test_updates_carry_corrected_position(self, straight_map):
        # Drive along the road with a constant 8 m lateral offset: the
        # transmitted positions must be the projections onto the road.
        times = np.arange(0.0, 61.0)
        positions = np.column_stack((times * 20.0, np.full_like(times, 8.0)))
        trace = Trace(times, positions)
        protocol = MapBasedProtocol(
            accuracy=30.0, roadmap=straight_map, estimation_window=2,
            config=MapBasedConfig(matching_tolerance=30.0),
        )
        messages = feed(protocol, trace)
        for message in messages:
            if message.state.link_id is not None:
                assert message.state.position[1] == pytest.approx(0.0, abs=1e-6)

    def test_raw_position_when_configured(self, straight_map):
        times = np.arange(0.0, 31.0)
        positions = np.column_stack((times * 20.0, np.full_like(times, 8.0)))
        trace = Trace(times, positions)
        protocol = MapBasedProtocol(
            accuracy=30.0, roadmap=straight_map, estimation_window=2,
            config=MapBasedConfig(use_corrected_position=False),
        )
        messages = feed(protocol, trace)
        assert messages[0].state.position[1] == pytest.approx(8.0)

    def test_no_updates_on_straight_road_constant_speed(self, straight_map, straight_trace):
        protocol = MapBasedProtocol(accuracy=50.0, roadmap=straight_map, estimation_window=2)
        messages = feed(protocol, straight_trace)
        assert len(messages) <= 2

    def test_fewer_updates_than_linear_on_curved_road(self, curved_map):
        # Drive around the 90-degree bend of the curved map at constant speed.
        times = np.arange(0.0, 101.0)
        xs = np.where(times <= 50.0, times * 20.0, 1000.0)
        ys = np.where(times <= 50.0, 0.0, (times - 50.0) * 20.0)
        trace = Trace(times, np.column_stack((xs, ys)))
        linear = feed(LinearPredictionProtocol(accuracy=60.0, estimation_window=2), trace)
        map_based = feed(
            MapBasedProtocol(accuracy=60.0, roadmap=curved_map, estimation_window=2), trace
        )
        assert len(map_based) < len(linear)

    def test_off_map_update_with_empty_link(self, straight_map):
        # Drive along the road, then leave it perpendicularly.
        times = np.arange(0.0, 61.0)
        xs = np.where(times <= 30.0, times * 20.0, 600.0)
        ys = np.where(times <= 30.0, 0.0, (times - 30.0) * 20.0)
        trace = Trace(times, np.column_stack((xs, ys)))
        protocol = MapBasedProtocol(
            accuracy=500.0, roadmap=straight_map, estimation_window=2,
            config=MapBasedConfig(matching_tolerance=30.0),
        )
        messages = feed(protocol, trace)
        reasons = [m.reason for m in messages]
        assert UpdateReason.OFF_MAP in reasons
        off_map_message = messages[reasons.index(UpdateReason.OFF_MAP)]
        assert off_map_message.state.link_id is None

    def test_off_map_update_can_be_disabled(self, straight_map):
        times = np.arange(0.0, 61.0)
        xs = np.where(times <= 30.0, times * 20.0, 600.0)
        ys = np.where(times <= 30.0, 0.0, (times - 30.0) * 20.0)
        trace = Trace(times, np.column_stack((xs, ys)))
        protocol = MapBasedProtocol(
            accuracy=10_000.0, roadmap=straight_map, estimation_window=2,
            config=MapBasedConfig(update_on_off_map=False),
        )
        messages = feed(protocol, trace)
        assert all(m.reason is not UpdateReason.OFF_MAP for m in messages)

    def test_reacquire_update_when_enabled(self, straight_map):
        # Leave the road and come back to it.
        times = np.arange(0.0, 91.0)
        xs = np.where(times <= 30.0, times * 20.0, 600.0)
        ys = np.concatenate(
            [np.zeros(31), (np.arange(1, 31)) * 20.0, 600.0 - np.arange(1, 31) * 20.0]
        )
        trace = Trace(times, np.column_stack((xs, ys)))
        protocol = MapBasedProtocol(
            accuracy=10_000.0, roadmap=straight_map, estimation_window=2,
            config=MapBasedConfig(update_on_reacquire=True, reacquire_interval=1),
        )
        messages = feed(protocol, trace)
        assert any(m.reason is UpdateReason.REACQUIRED for m in messages)

    def test_server_error_bounded(self, curved_map):
        times = np.arange(0.0, 101.0)
        xs = np.where(times <= 50.0, times * 20.0, 1000.0)
        ys = np.where(times <= 50.0, 0.0, (times - 50.0) * 20.0)
        trace = Trace(times, np.column_stack((xs, ys)))
        protocol = MapBasedProtocol(accuracy=60.0, roadmap=curved_map, estimation_window=2)
        result = run_simulation(protocol, trace)
        assert result.metrics.max_error <= 60.0 + 20.0 + 1e-6

    def test_matching_statistics_exposed(self, straight_map, straight_trace):
        protocol = MapBasedProtocol(accuracy=100.0, roadmap=straight_map)
        feed(protocol, straight_trace)
        stats = protocol.matching_statistics()
        assert "forward_tracks" in stats

    def test_reset(self, straight_map, straight_trace):
        protocol = MapBasedProtocol(accuracy=100.0, roadmap=straight_map)
        feed(protocol, straight_trace)
        protocol.reset()
        assert protocol.updates_sent == 0
        assert protocol.last_match is None
        assert protocol.matcher.current_link is None


class TestProbabilisticMapBased:
    def test_requires_matching_roadmap(self, straight_map, t_map):
        table = TurnProbabilityTable(t_map)
        with pytest.raises(ValueError):
            ProbabilisticMapBasedProtocol(
                accuracy=100.0, roadmap=straight_map, turn_probabilities=table
            )

    def test_runs_and_matches(self, straight_map, straight_trace):
        table = TurnProbabilityTable(straight_map)
        protocol = ProbabilisticMapBasedProtocol(
            accuracy=100.0, roadmap=straight_map, turn_probabilities=table,
            estimation_window=2,
        )
        messages = feed(protocol, straight_trace)
        assert messages[0].state.link_id is not None

    def test_learned_turns_beat_geometry_on_a_turning_route(self, tiny_city_scenario):
        scenario = tiny_city_scenario
        table = TurnProbabilityTable(scenario.roadmap)
        table.record_route(scenario.route)
        geometric = MapBasedProtocol(
            accuracy=100.0, roadmap=scenario.roadmap,
            sensor_uncertainty=scenario.sensor_sigma,
            estimation_window=scenario.estimation_window,
            config=MapBasedConfig(matching_tolerance=scenario.matching_tolerance),
        )
        probabilistic = ProbabilisticMapBasedProtocol(
            accuracy=100.0, roadmap=scenario.roadmap, turn_probabilities=table,
            sensor_uncertainty=scenario.sensor_sigma,
            estimation_window=scenario.estimation_window,
            config=MapBasedConfig(matching_tolerance=scenario.matching_tolerance),
        )
        geometric_result = run_simulation(geometric, scenario.sensor_trace, scenario.true_trace)
        probabilistic_result = run_simulation(
            probabilistic, scenario.sensor_trace, scenario.true_trace
        )
        assert probabilistic_result.updates <= geometric_result.updates


class TestKnownRouteProtocol:
    def test_no_updates_when_following_route_at_constant_speed(self, tiny_freeway_scenario):
        scenario = tiny_freeway_scenario
        protocol = KnownRouteProtocol(
            accuracy=200.0, route=scenario.route,
            sensor_uncertainty=scenario.sensor_sigma,
            estimation_window=scenario.estimation_window,
        )
        result = run_simulation(protocol, scenario.sensor_trace, scenario.true_trace)
        # With the route known, only speed changes can trigger updates: far
        # fewer than the map-based protocol needs on the same trace.
        assert result.updates_per_hour < 200.0

    def test_known_route_not_worse_than_map_based(self, tiny_city_scenario):
        scenario = tiny_city_scenario
        known = KnownRouteProtocol(
            accuracy=150.0, route=scenario.route,
            sensor_uncertainty=scenario.sensor_sigma,
            estimation_window=scenario.estimation_window,
        )
        mapped = MapBasedProtocol(
            accuracy=150.0, roadmap=scenario.roadmap,
            sensor_uncertainty=scenario.sensor_sigma,
            estimation_window=scenario.estimation_window,
            config=MapBasedConfig(matching_tolerance=scenario.matching_tolerance),
        )
        known_result = run_simulation(known, scenario.sensor_trace, scenario.true_trace)
        mapped_result = run_simulation(mapped, scenario.sensor_trace, scenario.true_trace)
        assert known_result.updates <= mapped_result.updates
