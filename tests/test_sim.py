"""Unit tests for the simulation engine, metrics, config and sweep."""

import numpy as np
import pytest

from repro.protocols.linear import LinearPredictionProtocol
from repro.protocols.mapbased import MapBasedProtocol
from repro.protocols.reporting import DistanceBasedReporting
from repro.service.channel import MessageChannel
from repro.sim.config import PROTOCOL_IDS, SimulationConfig
from repro.sim.fleet import run_simulation
from repro.sim.metrics import AccuracyMetrics, SimulationResult
from repro.sim.runner import SweepRunner
from repro.traces.trace import Trace


class TestAccuracyMetrics:
    def test_empty_metrics(self):
        metrics = AccuracyMetrics()
        assert metrics.count == 0
        assert metrics.mean_error == 0.0
        assert metrics.rms_error == 0.0
        assert metrics.max_error == 0.0
        assert metrics.percentile(95) == 0.0
        assert metrics.violation_fraction == 0.0

    def test_statistics(self):
        metrics = AccuracyMetrics()
        for error in (1.0, 2.0, 3.0, 4.0):
            metrics.record(error)
        assert metrics.count == 4
        assert metrics.mean_error == pytest.approx(2.5)
        assert metrics.rms_error == pytest.approx(np.sqrt(30.0 / 4.0))
        assert metrics.max_error == 4.0
        assert metrics.percentile(50) == pytest.approx(2.5)

    def test_violations(self):
        metrics = AccuracyMetrics()
        metrics.set_bound(2.5)
        for error in (1.0, 2.0, 3.0, 4.0):
            metrics.record(error)
        assert metrics.violation_fraction == pytest.approx(0.5)

    def test_as_dict_keys(self):
        metrics = AccuracyMetrics()
        metrics.record(1.0)
        d = metrics.as_dict()
        assert {"samples", "mean_error_m", "rms_error_m", "p95_error_m", "max_error_m"} <= set(d)


class TestSimulationResult:
    def test_updates_per_hour(self):
        result = SimulationResult(
            protocol_name="x", accuracy=100.0, duration_h=2.0, updates=50,
            bytes_sent=1000, metrics=AccuracyMetrics(),
        )
        assert result.updates_per_hour == 25.0
        assert result.bytes_per_hour == 500.0

    def test_zero_duration(self):
        result = SimulationResult(
            protocol_name="x", accuracy=100.0, duration_h=0.0, updates=5,
            bytes_sent=10, metrics=AccuracyMetrics(),
        )
        assert result.updates_per_hour == 0.0
        assert result.bytes_per_hour == 0.0

    def test_as_dict(self):
        result = SimulationResult(
            protocol_name="x", accuracy=100.0, duration_h=1.0, updates=5,
            bytes_sent=10, metrics=AccuracyMetrics(),
        )
        d = result.as_dict()
        assert d["protocol"] == "x"
        assert d["updates"] == 5


class TestRunSimulation:
    def test_mismatched_lengths_rejected(self, straight_trace):
        other = Trace(straight_trace.times[:-1], straight_trace.positions[:-1])
        with pytest.raises(ValueError):
            run_simulation(LinearPredictionProtocol(accuracy=100.0), straight_trace, other)

    def test_mismatched_times_rejected(self, straight_trace):
        other = straight_trace.shifted(time_offset=10.0)
        with pytest.raises(ValueError):
            run_simulation(LinearPredictionProtocol(accuracy=100.0), straight_trace, other)

    def test_counts_and_reasons(self, l_shaped_trace):
        result = run_simulation(
            DistanceBasedReporting(accuracy=100.0), l_shaped_trace
        )
        assert result.updates == sum(result.update_reasons.values())
        assert result.duration_h == pytest.approx(100.0 / 3600.0)
        assert result.metrics.count == len(l_shaped_trace)

    def test_initial_update_can_be_excluded(self, straight_trace):
        counted = run_simulation(
            DistanceBasedReporting(accuracy=100.0), straight_trace, count_initial_update=True
        )
        excluded = run_simulation(
            DistanceBasedReporting(accuracy=100.0), straight_trace, count_initial_update=False
        )
        assert counted.updates == excluded.updates + 1

    def test_truth_trace_used_for_error(self, straight_trace):
        # Sensor reports a constant 30 m offset; the error against the truth
        # includes that offset even though the protocol never sees it.
        sensor = straight_trace.shifted(position_offset=(0.0, 30.0))
        result = run_simulation(
            DistanceBasedReporting(accuracy=100.0), sensor, truth_trace=straight_trace
        )
        assert result.metrics.mean_error >= 25.0

    def test_channel_latency_increases_error(self, l_shaped_trace):
        instant = run_simulation(
            LinearPredictionProtocol(accuracy=50.0, estimation_window=2), l_shaped_trace
        )
        delayed = run_simulation(
            LinearPredictionProtocol(accuracy=50.0, estimation_window=2),
            l_shaped_trace,
            channel=MessageChannel(latency=5.0),
        )
        assert delayed.metrics.max_error >= instant.metrics.max_error

    def test_matcher_stats_for_map_protocol(self, straight_map, straight_trace):
        result = run_simulation(
            MapBasedProtocol(accuracy=100.0, roadmap=straight_map), straight_trace
        )
        assert "forward_tracks" in result.matcher_stats


class TestSimulationConfig:
    def test_unknown_protocol_rejected(self):
        with pytest.raises(ValueError):
            SimulationConfig(protocol_id="teleportation", accuracy=100.0)

    def test_invalid_accuracy(self):
        with pytest.raises(ValueError):
            SimulationConfig(protocol_id="linear", accuracy=0.0)

    def test_roundtrip(self):
        config = SimulationConfig(protocol_id="map", accuracy=150.0, matching_tolerance=25.0)
        rebuilt = SimulationConfig.from_dict(config.to_dict())
        assert rebuilt == config

    def test_build_all_protocols(self, tiny_freeway_scenario):
        from repro.roadmap.probability import TurnProbabilityTable

        table = TurnProbabilityTable(tiny_freeway_scenario.roadmap)
        table.record_route(tiny_freeway_scenario.route)
        for protocol_id in PROTOCOL_IDS:
            config = SimulationConfig(protocol_id=protocol_id, accuracy=100.0)
            protocol = config.build_protocol(
                tiny_freeway_scenario, turn_probabilities=table
            )
            assert protocol.accuracy == 100.0

    def test_map_probabilistic_requires_table(self, tiny_freeway_scenario):
        config = SimulationConfig(protocol_id="map_probabilistic", accuracy=100.0)
        with pytest.raises(ValueError):
            config.build_protocol(tiny_freeway_scenario)

    def test_scenario_defaults_used(self, tiny_freeway_scenario):
        config = SimulationConfig(protocol_id="linear", accuracy=100.0)
        protocol = config.build_protocol(tiny_freeway_scenario)
        assert protocol.estimator.window == tiny_freeway_scenario.estimation_window
        assert protocol.sensor_uncertainty == tiny_freeway_scenario.sensor_sigma

    def test_time_protocol_extra_interval(self, tiny_freeway_scenario):
        config = SimulationConfig(
            protocol_id="time", accuracy=100.0, extra={"interval": 7.0}
        )
        protocol = config.build_protocol(tiny_freeway_scenario)
        assert protocol.interval == 7.0


class TestSweep:
    def test_sweep_uses_scenario_accuracies(self, tiny_freeway_scenario):
        points = SweepRunner().run_factory_sweep(
            tiny_freeway_scenario,
            lambda us: DistanceBasedReporting(accuracy=us),
            accuracies=[50.0, 100.0, 200.0],
        )
        assert [p.accuracy for p in points] == [50.0, 100.0, 200.0]
        # Update counts decrease (weakly) with growing accuracy threshold.
        rates = [p.updates_per_hour for p in points]
        assert rates[0] >= rates[1] >= rates[2]

    def test_config_sweep(self, tiny_freeway_scenario):
        points = SweepRunner().run_config_sweep(
            tiny_freeway_scenario, "linear", accuracies=[100.0, 300.0]
        )
        assert len(points) == 2
        assert points[0].result.protocol_name.startswith("linear")
