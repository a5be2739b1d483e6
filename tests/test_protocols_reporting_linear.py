"""Unit tests for the non-DR reporting protocols and linear-prediction DR."""

import numpy as np
import pytest

from repro.protocols.base import UpdateReason
from repro.protocols.linear import LinearPredictionProtocol
from repro.protocols.higher_order import HigherOrderPredictionProtocol
from repro.protocols.reporting import (
    DistanceBasedReporting,
    MovementBasedReporting,
    TimeBasedReporting,
)
from repro.sim.fleet import run_simulation
from repro.traces.trace import Trace


def feed(protocol, trace):
    """Run a protocol over a trace and return the emitted messages."""
    messages = []
    for sample in trace:
        message = protocol.observe(sample.time, sample.position)
        if message is not None:
            messages.append(message)
    return messages


class TestDistanceBasedReporting:
    def test_update_count_matches_threshold(self, straight_trace):
        # 1200 m at 20 m/s with a 100 m threshold: one update per 100 m
        # (plus the initial one); the exact count allows the sampling grid.
        protocol = DistanceBasedReporting(accuracy=100.0)
        messages = feed(protocol, straight_trace)
        assert 10 <= len(messages) <= 13

    def test_no_update_when_stationary(self):
        times = np.arange(0.0, 50.0)
        trace = Trace(times, np.zeros((50, 2)))
        protocol = DistanceBasedReporting(accuracy=50.0)
        messages = feed(protocol, trace)
        assert len(messages) == 1  # only the initial update

    def test_threshold_scales_update_count(self, straight_trace):
        few = len(feed(DistanceBasedReporting(accuracy=400.0), straight_trace))
        many = len(feed(DistanceBasedReporting(accuracy=50.0), straight_trace))
        assert many > few

    def test_sensor_uncertainty_tightens_threshold(self, straight_trace):
        plain = len(feed(DistanceBasedReporting(accuracy=100.0), straight_trace))
        cautious = len(
            feed(DistanceBasedReporting(accuracy=100.0, sensor_uncertainty=50.0), straight_trace)
        )
        assert cautious >= plain

    def test_server_error_bounded(self, straight_trace):
        result = run_simulation(DistanceBasedReporting(accuracy=100.0), straight_trace)
        assert result.metrics.max_error <= 100.0 + 1e-6


class TestTimeBasedReporting:
    def test_interval_validation(self):
        with pytest.raises(ValueError):
            TimeBasedReporting(accuracy=100.0, interval=0.0)

    def test_updates_every_interval(self, straight_trace):
        protocol = TimeBasedReporting(accuracy=100.0, interval=10.0)
        messages = feed(protocol, straight_trace)
        assert len(messages) == 7  # initial + one every 10 s over 60 s
        assert messages[1].reason is UpdateReason.TIMER

    def test_for_speed_constructor(self, straight_trace):
        protocol = TimeBasedReporting.for_speed(accuracy=100.0, expected_speed=20.0)
        assert protocol.interval == pytest.approx(5.0)
        result = run_simulation(protocol, straight_trace)
        assert result.metrics.max_error <= 100.0 + 1e-6

    def test_for_speed_invalid(self):
        with pytest.raises(ValueError):
            TimeBasedReporting.for_speed(accuracy=100.0, expected_speed=0.0)


class TestMovementBasedReporting:
    def test_updates_on_travelled_distance(self, l_shaped_trace):
        protocol = MovementBasedReporting(accuracy=200.0)
        messages = feed(protocol, l_shaped_trace)
        # 2000 m of travel, one update per 200 m travelled.
        assert 10 <= len(messages) <= 12

    def test_movement_counts_path_not_displacement(self):
        # Back-and-forth motion: displacement stays small but path grows.
        times = np.arange(0.0, 41.0)
        xs = 50.0 * np.abs(np.sin(times * np.pi / 10.0))
        trace = Trace(times, np.column_stack((xs, np.zeros_like(xs))))
        moved = feed(MovementBasedReporting(accuracy=100.0), trace)
        displaced = feed(DistanceBasedReporting(accuracy=100.0), trace)
        assert len(moved) > len(displaced)

    def test_reset_clears_travelled_distance(self, straight_trace):
        protocol = MovementBasedReporting(accuracy=100.0)
        feed(protocol, straight_trace)
        protocol.reset()
        assert protocol.updates_sent == 0
        messages = feed(protocol, straight_trace)
        assert messages[0].reason is UpdateReason.INITIAL


class TestLinearPredictionProtocol:
    def test_no_updates_for_constant_velocity(self, straight_trace):
        protocol = LinearPredictionProtocol(accuracy=50.0, estimation_window=2)
        messages = feed(protocol, straight_trace)
        # Perfectly linear motion: after the initial update and one settling
        # update (the first state has speed 0), the prediction is exact.
        assert len(messages) <= 2

    def test_turn_triggers_update(self, l_shaped_trace):
        protocol = LinearPredictionProtocol(accuracy=50.0, estimation_window=2)
        messages = feed(protocol, l_shaped_trace)
        threshold_updates = [m for m in messages if m.reason is UpdateReason.THRESHOLD]
        assert len(threshold_updates) >= 1
        # The turn happens at t=50 and must force at least one update after it
        # (plus possibly one settling update right after the start, while the
        # speed estimate is still warming up).
        assert any(m.state.time > 50.0 for m in threshold_updates)
        assert all(m.state.time <= 5.0 or m.state.time > 50.0 for m in threshold_updates)

    def test_fewer_updates_than_distance_based(self, l_shaped_trace):
        linear = feed(LinearPredictionProtocol(accuracy=100.0, estimation_window=2), l_shaped_trace)
        distance = feed(DistanceBasedReporting(accuracy=100.0), l_shaped_trace)
        assert len(linear) < len(distance)

    def test_server_error_bounded_by_accuracy(self, l_shaped_trace):
        protocol = LinearPredictionProtocol(accuracy=80.0, estimation_window=2)
        result = run_simulation(protocol, l_shaped_trace)
        # One sample interval of slack: the deviation is checked at 1 Hz.
        assert result.metrics.max_error <= 80.0 + 20.0 + 1e-6


class TestHigherOrderProtocol:
    def test_acceleration_window_validation(self):
        with pytest.raises(ValueError):
            HigherOrderPredictionProtocol(accuracy=100.0, acceleration_window=1)

    def test_acceleration_helps_during_speedup(self):
        # A steadily accelerating object: quadratic prediction needs fewer updates.
        times = np.arange(0.0, 120.0)
        xs = 0.5 * 0.8 * times**2
        trace = Trace(times, np.column_stack((xs, np.zeros_like(xs))))
        linear = feed(LinearPredictionProtocol(accuracy=100.0, estimation_window=2), trace)
        quadratic = feed(
            HigherOrderPredictionProtocol(accuracy=100.0, estimation_window=2), trace
        )
        assert len(quadratic) <= len(linear)

    def test_state_carries_acceleration(self):
        protocol = HigherOrderPredictionProtocol(accuracy=10.0, estimation_window=2)
        protocol.observe(0.0, (0.0, 0.0))
        protocol.observe(1.0, (5.0, 0.0))
        message = protocol.observe(2.0, (30.0, 0.0))
        if message is not None:
            assert message.state.acceleration is not None

    def test_reset(self):
        protocol = HigherOrderPredictionProtocol(accuracy=10.0)
        protocol.observe(0.0, (0.0, 0.0))
        protocol.reset()
        assert protocol.updates_sent == 0
