"""Tests for the fleet simulation core (engine → fleet equivalence)."""

import numpy as np
import pytest

from repro.protocols.linear import LinearPredictionProtocol
from repro.service.channel import ChannelStats, MessageChannel
from repro.service.server import LocationServer
from repro.sim.config import SimulationConfig
from repro.sim.fleet import FleetLane, FleetResult, FleetSimulation, run_simulation
from repro.traces.trace import Trace

from reference.streaming import PolledQueue


def _single_run(protocol, scenario, object_id="object-0", channel=None):
    return run_simulation(
        protocol,
        scenario.sensor_trace,
        scenario.true_trace,
        channel,
        object_id=object_id,
    )


def _assert_results_identical(fleet_result, single_result):
    assert fleet_result.updates == single_result.updates
    assert fleet_result.bytes_sent == single_result.bytes_sent
    assert fleet_result.update_reasons == single_result.update_reasons
    assert fleet_result.duration_h == single_result.duration_h
    assert np.array_equal(fleet_result.metrics.errors, single_result.metrics.errors)
    assert fleet_result.metrics.mean_error == single_result.metrics.mean_error
    assert fleet_result.metrics.max_error == single_result.metrics.max_error


def _build(protocol_id, accuracy, scenario):
    return SimulationConfig(protocol_id=protocol_id, accuracy=accuracy).build_protocol(scenario)


class TestFleetValidation:
    def test_needs_lanes(self):
        with pytest.raises(ValueError):
            FleetSimulation([])

    def test_there_is_no_kernel_choice(self, tiny_freeway_scenario):
        lane = FleetLane("car", _build("linear", 100.0, tiny_freeway_scenario),
                         tiny_freeway_scenario.sensor_trace)
        with pytest.raises(TypeError, match="kernel"):
            FleetSimulation([lane], kernel="tick")

    def test_unique_object_ids(self, tiny_freeway_scenario):
        lanes = [
            FleetLane("car", _build("linear", 100.0, tiny_freeway_scenario),
                      tiny_freeway_scenario.sensor_trace),
            FleetLane("car", _build("linear", 200.0, tiny_freeway_scenario),
                      tiny_freeway_scenario.sensor_trace),
        ]
        with pytest.raises(ValueError):
            FleetSimulation(lanes)

    def test_protocols_not_shared(self, tiny_freeway_scenario):
        protocol = _build("linear", 100.0, tiny_freeway_scenario)
        lanes = [
            FleetLane("a", protocol, tiny_freeway_scenario.sensor_trace),
            FleetLane("b", protocol, tiny_freeway_scenario.sensor_trace),
        ]
        with pytest.raises(ValueError):
            FleetSimulation(lanes)

    def test_clone_for_lanes_are_independent(self, tiny_freeway_scenario):
        """clone_for() detaches per-run state, so clone lanes are fleet-safe."""
        scenario = tiny_freeway_scenario
        prototype = _build("map", 100.0, scenario)
        lanes = [
            FleetLane(f"obj-{n}", prototype.clone_for(us),
                      scenario.sensor_trace, scenario.true_trace)
            for n, us in enumerate((50.0, 100.0, 200.0))
        ]
        fleet = FleetSimulation(lanes).run()
        for n, us in enumerate((50.0, 100.0, 200.0)):
            single = _single_run(_build("map", us, scenario), scenario)
            _assert_results_identical(fleet.results[f"obj-{n}"], single)

    def test_clone_for_leaves_prototype_untouched(self, tiny_freeway_scenario):
        scenario = tiny_freeway_scenario
        prototype = _build("map", 100.0, scenario)
        before = _single_run(prototype, scenario)
        stats_before = dict(prototype.matching_statistics())
        clone = prototype.clone_for(200.0)
        assert prototype.matching_statistics() == stats_before
        assert prototype.updates_sent == before.updates
        assert clone.updates_sent == 0
        assert clone.match_stream is None
        assert clone._match_streams is prototype._match_streams

    def test_mismatched_traces_rejected(self, straight_trace, l_shaped_trace):
        lane = FleetLane(
            "a", LinearPredictionProtocol(accuracy=100.0), straight_trace, l_shaped_trace
        )
        with pytest.raises(ValueError):
            FleetSimulation([lane]).run()

    def test_truth_shifted_in_time_rejected(self):
        """Sensor and truth timestamps must be equal, not merely close: at
        Unix-epoch times a relative tolerance lets a truth trace 30 s off
        run silently."""
        times = 1.6e9 + np.arange(120, dtype=float)
        positions = np.column_stack([10.0 * np.arange(120.0), np.zeros(120)])
        lane = FleetLane(
            "a", LinearPredictionProtocol(accuracy=100.0),
            Trace(times, positions), Trace(times + 30.0, positions),
        )
        with pytest.raises(ValueError, match="share their timestamps"):
            FleetSimulation([lane]).run()

    def test_run_is_one_shot(self, straight_trace):
        sim = FleetSimulation(
            [FleetLane("a", LinearPredictionProtocol(accuracy=100.0), straight_trace)]
        )
        sim.run()
        with pytest.raises(ValueError, match="one-shot"):
            sim.run()

    def test_failed_validation_leaves_server_untouched(
        self, straight_trace, l_shaped_trace
    ):
        """A bad lane must not leave earlier lanes registered on the server."""
        server = LocationServer()
        lanes = [
            FleetLane("good", LinearPredictionProtocol(accuracy=100.0), straight_trace),
            FleetLane(
                "bad", LinearPredictionProtocol(accuracy=100.0),
                straight_trace, l_shaped_trace,
            ),
        ]
        with pytest.raises(ValueError):
            FleetSimulation(lanes, server=server).run()
        assert server.object_ids() == []
        # The corrected fleet runs fine against the same server.
        retry = [
            FleetLane("good", LinearPredictionProtocol(accuracy=100.0), straight_trace),
        ]
        FleetSimulation(retry, server=server).run()
        assert server.object_ids() == ["good"]


class TestFleetEquivalence:
    """N-lane fleet runs must equal N independent single-object runs."""

    def test_mixed_protocols_match_single_runs(self, tiny_freeway_scenario):
        scenario = tiny_freeway_scenario
        configs = [
            ("distance", 50.0), ("distance", 200.0),
            ("linear", 50.0), ("linear", 200.0),
            ("map", 100.0),
        ]
        lanes = [
            FleetLane(
                object_id=f"obj-{n}",
                protocol=_build(pid, us, scenario),
                sensor_trace=scenario.sensor_trace,
                truth_trace=scenario.true_trace,
            )
            for n, (pid, us) in enumerate(configs)
        ]
        fleet = FleetSimulation(lanes).run()
        assert isinstance(fleet, FleetResult)
        assert list(fleet.results) == [f"obj-{n}" for n in range(len(configs))]
        for n, (pid, us) in enumerate(configs):
            single = _single_run(_build(pid, us, scenario), scenario)
            _assert_results_identical(fleet.results[f"obj-{n}"], single)

    def test_per_lane_latency_channels_match_single_runs(self, tiny_freeway_scenario):
        scenario = tiny_freeway_scenario
        lanes = [
            FleetLane(
                object_id=f"obj-{n}",
                protocol=_build("linear", us, scenario),
                sensor_trace=scenario.sensor_trace,
                truth_trace=scenario.true_trace,
                channel=MessageChannel(latency=5.0),
            )
            for n, us in enumerate((50.0, 150.0))
        ]
        fleet = FleetSimulation(lanes).run()
        for n, us in enumerate((50.0, 150.0)):
            single = _single_run(
                _build("linear", us, scenario), scenario, channel=MessageChannel(latency=5.0)
            )
            _assert_results_identical(fleet.results[f"obj-{n}"], single)

    def test_hundred_object_city_fleet_matches_single_runs(self, tiny_city_scenario):
        """Acceptance: >= 100 objects on the city scenario, exact per-object match."""
        scenario = tiny_city_scenario
        n_objects = 100
        accuracies = [20.0 + 5.0 * (n % 20) for n in range(n_objects)]
        lanes = [
            FleetLane(
                object_id=f"taxi-{n:03d}",
                protocol=_build("linear", accuracies[n], scenario),
                sensor_trace=scenario.sensor_trace,
                truth_trace=scenario.true_trace,
            )
            for n in range(n_objects)
        ]
        fleet = FleetSimulation(lanes).run()
        assert len(fleet.results) == n_objects
        for n in range(n_objects):
            single = _single_run(_build("linear", accuracies[n], scenario), scenario)
            _assert_results_identical(fleet.results[f"taxi-{n:03d}"], single)
        # Aggregates are consistent with the per-object results.
        assert fleet.total_updates == sum(r.updates for r in fleet.results.values())
        assert fleet.object_hours == pytest.approx(
            n_objects * scenario.sensor_trace.duration / 3600.0
        )
        pooled = fleet.aggregate_metrics()
        assert pooled.count == sum(r.metrics.count for r in fleet.results.values())
        # Pooled violations carry each lane's own accuracy bound: with tight
        # 20-115 m bounds some lanes must violate, and the pooled fraction is
        # the sample-weighted mean of the per-lane fractions.
        total_violations = sum(
            r.metrics.violation_count for r in fleet.results.values()
        )
        assert total_violations > 0
        assert pooled.violation_count == total_violations
        assert pooled.violation_fraction == pytest.approx(total_violations / pooled.count)

    def test_shared_server_tracks_all_objects(self, tiny_freeway_scenario):
        scenario = tiny_freeway_scenario
        server = LocationServer()
        lanes = [
            FleetLane(f"obj-{n}", _build("linear", 100.0 + n, scenario),
                      scenario.sensor_trace, scenario.true_trace)
            for n in range(3)
        ]
        result = FleetSimulation(lanes, server=server).run()
        assert sorted(server.object_ids()) == sorted(result.results)
        t_end = float(scenario.sensor_trace.times[-1])
        positions = server.all_positions(t_end)
        assert set(positions) == set(result.results)


class TestChannelReuse:
    """Satellite fix: a reused channel must not leak state between runs."""

    def test_channel_reset_zeroes_the_counters(self):
        from repro.protocols.base import ObjectState, UpdateMessage, UpdateReason

        channel = MessageChannel(latency=100.0)
        state = ObjectState(time=0.0, position=(0.0, 0.0), velocity=(0.0, 0.0), speed=0.0)
        queue = PolledQueue(channel)
        queue.send("x", UpdateMessage(0, state, UpdateReason.INITIAL), 0.0)
        queue.deliver_due(150.0)
        assert channel.stats.messages_sent == channel.stats.messages_delivered == 1
        assert channel.stats.max_queue_delay == 50.0
        channel.reset()
        assert channel.stats == ChannelStats()

    def test_reused_channel_gives_identical_runs(self, tiny_freeway_scenario):
        """Back-to-back runs over one high-latency channel must agree."""
        scenario = tiny_freeway_scenario
        channel = MessageChannel(latency=30.0)
        first = _single_run(_build("linear", 50.0, scenario), scenario, channel=channel)
        # The first run leaves messages in flight (latency exceeds the tail
        # of the trace); without the run-start reset they would be delivered
        # at the very first sample of the second run.
        second = _single_run(_build("linear", 50.0, scenario), scenario, channel=channel)
        assert first.updates == second.updates
        assert np.array_equal(first.metrics.errors, second.metrics.errors)

    def test_fleet_resets_shared_channel(self, tiny_freeway_scenario):
        scenario = tiny_freeway_scenario
        channel = MessageChannel(latency=30.0)
        lanes = lambda: [  # noqa: E731 - tiny local factory
            FleetLane("obj-0", _build("linear", 50.0, scenario),
                      scenario.sensor_trace, scenario.true_trace)
        ]
        first = FleetSimulation(lanes(), channel=channel).run().results["obj-0"]
        second = FleetSimulation(lanes(), channel=channel).run().results["obj-0"]
        assert first.updates == second.updates
        assert np.array_equal(first.metrics.errors, second.metrics.errors)


class TestAutoRegionSize:
    def test_mixed_truth_fleet_gets_its_full_extent(self):
        """A lane without a truth trace contributes its sensor trace."""
        from repro.sim.fleet import auto_region_size, fleet_extent
        from repro.traces.trace import Trace

        times = np.arange(3.0)
        near = Trace(times, np.array([[0.0, 0.0], [100.0, 0.0], [200.0, 200.0]]))
        far = Trace(times, np.array([[0.0, 0.0], [3000.0, 1000.0], [6000.0, 2000.0]]))
        lanes = [
            FleetLane("truth", LinearPredictionProtocol(50.0), near, truth_trace=near),
            FleetLane("sensor-only", LinearPredictionProtocol(50.0), far),
        ]
        extent = fleet_extent(lanes)
        assert (extent.min_x, extent.min_y, extent.max_x, extent.max_y) == (
            0.0, 0.0, 6000.0, 2000.0,
        )
        assert auto_region_size(extent, 2) == np.sqrt(6000.0 * 2000.0 / 16.0)
        assert auto_region_size(fleet_extent(lanes[:1]), 2) == 100.0


class TestMapPredictionCalls:
    def test_map_lane_makes_no_per_sighting_prediction(
        self, tiny_city_scenario, monkeypatch
    ):
        """A map lane's sends come from the first-crossing search and its
        errors from the measurement of its delivered stream, both over
        ``predict_many``: not one ``predict`` call per sighting or sample."""
        from repro.protocols.prediction import MapPrediction

        calls = []
        original = MapPrediction.predict

        def counting(self, state, time):
            calls.append(time)
            return original(self, state, time)

        monkeypatch.setattr(MapPrediction, "predict", counting)
        scenario = tiny_city_scenario
        result = _single_run(_build("map", 100.0, scenario), scenario)
        assert result.updates > 1
        assert calls == []


class _SendLog(MessageChannel):
    """A channel that logs every transmitted update as ``(time, sequence)``."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.sent = []

    def transmit(self, object_id, message, time):
        self.sent.append((time, message.sequence))
        return super().transmit(object_id, message, time)


class TestLaneUpdates:
    """``lane_updates`` is the one per-lane send schedule."""

    @staticmethod
    def _stream(protocol, trace):
        from repro.sim.fleet import _LaneState, lane_updates

        _LaneState(FleetLane("x", protocol, trace), MessageChannel())
        return lane_updates(protocol)

    def test_fleet_transmits_exactly_the_lane_stream(self, straight_trace):
        """Every update the stream lists goes through the lane's channel at
        its send time, lost ones included, and nothing else does."""
        from repro.protocols.reporting import TimeBasedReporting

        stream, fires = self._stream(
            TimeBasedReporting(accuracy=100.0, interval=7.5), straight_trace
        )
        channel = _SendLog(latency=0.7, loss_probability=0.3, seed=3)
        lane = FleetLane(
            "x", TimeBasedReporting(accuracy=100.0, interval=7.5), straight_trace,
            channel=channel,
        )
        result = FleetSimulation([lane]).run()
        assert channel.sent == [(t, m.sequence) for t, m in stream]
        # Reports go out at 7.5 k for k = 1..8; the sighting goes first at
        # an equal instant, so only the four off-grid deadlines fire a timer.
        assert [t for t, _ in stream] == [7.5 * k for k in range(9)]
        assert fires == 4
        assert result.results["x"].updates == len(stream)
        assert 0 < channel.stats.messages_lost < len(stream)

    def test_untimed_protocol_sends_only_at_sightings(self, straight_trace):
        stream, fires = self._stream(LinearPredictionProtocol(accuracy=5.0), straight_trace)
        sightings = set(straight_trace.times.tolist())
        assert fires == 0
        assert len(stream) >= 1
        assert all(t in sightings for t, _ in stream)

    def test_fire_count_includes_declined_timers(self):
        """The second value counts timer fires, also those that send
        nothing; a declined deadline that moves fires again, one that stays
        put is spent."""
        calls = []

        class DeclinesEveryFire(LinearPredictionProtocol):
            def next_deadline(self):
                if self.last_reported is None:
                    return None
                # Moves on after each fire, and stays put after the sixth.
                return self.last_reported.time + 2.5 * min(len(calls) + 1, 6)

            def _on_deadline(self, time):
                calls.append(time)
                return None

        times = np.arange(0.0, 21.0)  # 400 m: the threshold never trips
        trace = Trace(times, np.column_stack((times * 20.0, np.zeros_like(times))))
        stream, fires = self._stream(DeclinesEveryFire(1000.0), trace)
        assert fires == len(calls) == 6
        assert calls == [2.5 * k for k in range(1, 7)]
        assert len(stream) == 1  # just the initial report
