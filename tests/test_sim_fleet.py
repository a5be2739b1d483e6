"""Tests for the fleet simulation core (engine → fleet equivalence)."""

import numpy as np
import pytest

from repro.protocols.linear import LinearPredictionProtocol
from repro.service.channel import MessageChannel
from repro.service.server import LocationServer
from repro.sim.config import SimulationConfig
from repro.sim.fleet import FleetLane, FleetResult, FleetSimulation, run_simulation


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
        assert clone.matcher is not prototype.matcher

    def test_mismatched_traces_rejected(self, straight_trace, l_shaped_trace):
        lane = FleetLane(
            "a", LinearPredictionProtocol(accuracy=100.0), straight_trace, l_shaped_trace
        )
        with pytest.raises(ValueError):
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
        assert fleet.object_ids == [f"obj-{n}" for n in range(len(configs))]
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
        assert sorted(server.object_ids()) == sorted(result.object_ids)
        t_end = float(scenario.sensor_trace.times[-1])
        positions = server.all_positions(t_end)
        assert set(positions) == set(result.object_ids)


class TestChannelReuse:
    """Satellite fix: a reused channel must not leak in-flight messages."""

    def test_channel_reset_drains_in_flight(self):
        from repro.protocols.base import ObjectState, UpdateMessage, UpdateReason

        channel = MessageChannel(latency=100.0)
        state = ObjectState(time=0.0, position=(0.0, 0.0), velocity=(0.0, 0.0), speed=0.0)
        channel.send("x", UpdateMessage(0, state, UpdateReason.INITIAL), 0.0)
        assert channel.in_flight == 1
        assert channel.stats.messages_sent == 1
        channel.reset()
        assert channel.in_flight == 0
        assert channel.stats.messages_sent == 0
        assert channel.deliver_due(1e9) == []

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
