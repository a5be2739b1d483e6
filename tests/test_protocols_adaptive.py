"""Unit tests for the Wolfson-style adaptive protocols (sdr, adr, dtdr)."""

import numpy as np
import pytest

from repro.protocols.adaptive import (
    AdaptiveDeadReckoning,
    DisconnectionDetectionDeadReckoning,
    SpeedDeadReckoning,
)
from repro.protocols.linear import LinearPredictionProtocol
from repro.traces.trace import Trace

from reference.streaming import stream_observe


def threshold_at(protocol, time):
    """The deviation threshold *protocol* applies at *time*."""
    return float(np.ravel(protocol._thresholds(np.array([float(time)])))[0])


def feed(protocol, trace):
    """Run a protocol over a trace, sighting by sighting; return its messages."""
    messages = stream_observe(protocol, trace.times, trace.positions)
    return [m for m in messages if m is not None]


@pytest.fixture()
def zigzag_trace():
    """A trace alternating heading every 30 s (forces periodic updates)."""
    times = np.arange(0.0, 301.0)
    xs = np.cumsum(np.where((times // 30) % 2 == 0, 15.0, 10.0))
    ys = np.cumsum(np.where((times // 30) % 2 == 0, 0.0, 10.0))
    return Trace(times, np.column_stack((xs, ys)))


class TestSpeedDeadReckoning:
    def test_equivalent_to_linear_with_same_threshold(self, l_shaped_trace):
        sdr = feed(SpeedDeadReckoning(threshold=80.0, estimation_window=2), l_shaped_trace)
        linear = feed(LinearPredictionProtocol(accuracy=80.0, estimation_window=2), l_shaped_trace)
        assert len(sdr) == len(linear)

    def test_name(self):
        assert "sdr" in SpeedDeadReckoning(threshold=50.0).name


class TestAdaptiveDeadReckoning:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            AdaptiveDeadReckoning(initial_threshold=100.0, update_cost=0.0)
        with pytest.raises(ValueError):
            AdaptiveDeadReckoning(initial_threshold=100.0, deviation_cost=0.0)
        with pytest.raises(ValueError):
            AdaptiveDeadReckoning(initial_threshold=100.0, min_threshold=0.0)
        with pytest.raises(ValueError):
            AdaptiveDeadReckoning(
                initial_threshold=100.0, min_threshold=50.0, max_threshold=10.0
            )

    def test_threshold_adapts(self, zigzag_trace):
        protocol = AdaptiveDeadReckoning(
            initial_threshold=100.0, update_cost=1.0, deviation_cost=0.001,
            estimation_window=2,
        )
        initial = threshold_at(protocol, 0.0)
        feed(protocol, zigzag_trace)
        assert threshold_at(protocol, zigzag_trace.duration) != initial

    def test_threshold_respects_bounds(self, zigzag_trace):
        protocol = AdaptiveDeadReckoning(
            initial_threshold=100.0, update_cost=1.0, deviation_cost=0.001,
            min_threshold=40.0, max_threshold=150.0, estimation_window=2,
        )
        feed(protocol, zigzag_trace)
        assert 40.0 <= threshold_at(protocol, zigzag_trace.duration) <= 150.0

    def test_higher_update_cost_means_fewer_updates(self, zigzag_trace):
        cheap_updates = feed(
            AdaptiveDeadReckoning(
                initial_threshold=100.0, update_cost=0.2, deviation_cost=0.01,
                estimation_window=2,
            ),
            zigzag_trace,
        )
        expensive_updates = feed(
            AdaptiveDeadReckoning(
                initial_threshold=100.0, update_cost=50.0, deviation_cost=0.01,
                estimation_window=2,
            ),
            zigzag_trace,
        )
        assert len(expensive_updates) <= len(cheap_updates)

    def test_reset_restores_initial_threshold(self, zigzag_trace):
        protocol = AdaptiveDeadReckoning(initial_threshold=123.0, estimation_window=2)
        feed(protocol, zigzag_trace)
        protocol.reset()
        assert threshold_at(protocol, 0.0) == 123.0


class TestDisconnectionDetection:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            DisconnectionDetectionDeadReckoning(initial_threshold=100.0, decay_time=0.0)
        with pytest.raises(ValueError):
            DisconnectionDetectionDeadReckoning(initial_threshold=100.0, floor_fraction=0.0)
        with pytest.raises(ValueError):
            DisconnectionDetectionDeadReckoning(initial_threshold=100.0, disconnect_timeout=0.0)

    def test_threshold_decays_with_silence(self):
        protocol = DisconnectionDetectionDeadReckoning(
            initial_threshold=100.0, decay_time=100.0, floor_fraction=0.2,
            estimation_window=2,
        )
        stream_observe(protocol, [0.0], [(0.0, 0.0)])
        assert threshold_at(protocol, 0.0) == pytest.approx(100.0)
        assert threshold_at(protocol, 50.0) == pytest.approx(50.0)
        assert threshold_at(protocol, 1000.0) == pytest.approx(20.0)

    def test_threshold_without_reports_is_initial(self):
        protocol = DisconnectionDetectionDeadReckoning(initial_threshold=80.0)
        assert threshold_at(protocol, 500.0) == 80.0

    def test_more_updates_than_fixed_threshold(self, zigzag_trace):
        fixed = feed(SpeedDeadReckoning(threshold=100.0, estimation_window=2), zigzag_trace)
        decaying = feed(
            DisconnectionDetectionDeadReckoning(
                initial_threshold=100.0, decay_time=120.0, floor_fraction=0.2,
                estimation_window=2,
            ),
            zigzag_trace,
        )
        assert len(decaying) >= len(fixed)
