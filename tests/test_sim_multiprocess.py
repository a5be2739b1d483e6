"""Sharded multi-process fleet execution: bit-identity with one process.

``FleetSimulation(processes=N)`` partitions the lanes into spatial shards
and runs one fleet loop per shard.  These tests assert the promise the
mode makes: the merged outcome — per-object results, every error sample,
channel counters, service statistics — is **bitwise identical** to the
single-process run (and, on the degenerate schedule, to the tick-loop
oracle), on every library scenario, and independent of the order the
workers happen to finish in.
"""

import numpy as np
import pytest

import repro.sim.fleet as fleet_mod
from repro.protocols.linear import LinearPredictionProtocol
from repro.service.channel import MessageChannel
from repro.service.facade import LocationService
from repro.sim.fleet import FleetLane, FleetSimulation
from repro.traces.trace import Trace

from reference.tick_loop import TickLoopFleet

_SCENARIO_FIXTURES = [
    "tiny_freeway_scenario",
    "tiny_city_scenario",
    "tiny_interurban_scenario",
    "tiny_walking_scenario",
]

#: Per-lane translation spreading the fleet over distinct sharding cells.
_LANE_SPREAD_M = 4000.0


def _spread_lanes(scenario, n_lanes=6, protocol_cls=LinearPredictionProtocol,
                  accuracy=100.0, channel=None, jitter_times=False):
    """Fresh lanes on spatially translated copies of one scenario trip.

    The translation pushes the lanes into different ``GridHashPolicy``
    cells so ``processes > 1`` actually produces several shard tasks.
    ``jitter_times`` shifts every lane onto its own sampling grid (the
    mixed-grid shape a per-timestep loop cannot partition).
    """
    lanes = []
    for k in range(n_lanes):
        offset = np.array([(k % 3) * _LANE_SPREAD_M, (k // 3) * _LANE_SPREAD_M])
        times = scenario.sensor_trace.times
        if jitter_times:
            times = times + k * 0.25
        lanes.append(
            FleetLane(
                object_id=f"mp/{k}",
                protocol=protocol_cls(accuracy),
                sensor_trace=Trace(times, scenario.sensor_trace.positions + offset),
                truth_trace=Trace(times, scenario.true_trace.positions + offset),
                channel=channel,
            )
        )
    return lanes


def _stats_tuple(stats):
    return (
        stats.messages_sent,
        stats.messages_delivered,
        stats.messages_lost,
        stats.bytes_sent,
        stats.bytes_delivered,
        stats.max_queue_delay,
    )


def _assert_identical(result_a, result_b):
    rows_a = {oid: r.as_dict() for oid, r in result_a.results.items()}
    rows_b = {oid: r.as_dict() for oid, r in result_b.results.items()}
    assert list(rows_a) == list(rows_b)
    assert rows_a == rows_b
    for oid in rows_a:
        assert np.array_equal(
            result_a.results[oid].metrics.errors,
            result_b.results[oid].metrics.errors,
        ), f"error samples diverged for {oid}"
    assert result_a.service_stats == result_b.service_stats


class TestBitIdentity:
    @pytest.mark.parametrize("fixture", _SCENARIO_FIXTURES)
    @pytest.mark.parametrize("kernel", ["tick", "event"])
    def test_processes_4_equals_1_on_library_scenarios(self, request, fixture, kernel):
        """``processes=4`` against one process — the fleet loop itself,
        or the tick-loop oracle (``kernel="tick"``)."""
        scenario = request.getfixturevalue(fixture)
        single_cls = TickLoopFleet if kernel == "tick" else FleetSimulation
        single = single_cls(_spread_lanes(scenario))
        sharded = FleetSimulation(_spread_lanes(scenario), processes=4)
        _assert_identical(single.run(), sharded.run())
        assert _stats_tuple(single.shared_channel.stats) == _stats_tuple(
            sharded.shared_channel.stats
        )

    def test_seeded_lossy_latent_channel(self, tiny_city_scenario):
        def build(processes):
            channel = MessageChannel(latency=7.0, loss_probability=0.15, seed=99)
            return FleetSimulation(
                _spread_lanes(tiny_city_scenario, channel=channel),
                processes=processes,
            )

        single, sharded = build(1), build(4)
        _assert_identical(single.run(), sharded.run())
        lane_channel = single.lanes[0].channel
        assert lane_channel.stats.messages_lost > 0, "loss did not engage"
        assert _stats_tuple(lane_channel.stats) == _stats_tuple(
            sharded.lanes[0].channel.stats
        )

    def test_sharded_service_with_handoffs(self, tiny_city_scenario):
        def build(processes):
            return FleetSimulation(
                _spread_lanes(tiny_city_scenario, n_lanes=8),
                server=LocationService(n_shards=4),
                processes=processes,
            )

        result_1 = build(1).run()
        result_4 = build(4).run()
        _assert_identical(result_1, result_4)
        assert result_1.service_stats is not None
        assert result_1.service_stats == result_4.service_stats
        # Handoffs happen on ingest; the merge reconstructs them exactly.
        assert result_1.service_stats["handoffs"] > 0

    def test_mixed_sampling_grids_on_event_kernel(self, tiny_freeway_scenario):
        def build(processes):
            channel = MessageChannel(latency=3.0, seed=1)
            return FleetSimulation(
                _spread_lanes(tiny_freeway_scenario, jitter_times=True, channel=channel),
                processes=processes,
            )

        _assert_identical(build(1).run(), build(4).run())

    def test_more_processes_than_shards(self, tiny_walking_scenario):
        # Every lane in one sharding cell: a single shard task still merges
        # back bit-identically.
        single = FleetSimulation(
            _spread_lanes(tiny_walking_scenario, n_lanes=3)
        )
        lanes = _spread_lanes(tiny_walking_scenario, n_lanes=3)
        sharded = FleetSimulation(lanes, processes=16)
        _assert_identical(single.run(), sharded.run())


class TestSchedulingIndependence:
    @pytest.mark.parametrize(
        "permute", [lambda t: t[::-1], lambda t: t[1:] + t[:1]], ids=["reversed", "rotated"]
    )
    def test_merge_is_independent_of_worker_order(
        self, tiny_city_scenario, monkeypatch, permute
    ):
        """Permuting shard-task completion order changes nothing observable."""
        original = fleet_mod._execute_shard_tasks

        def shuffled(tasks, processes):
            return original(permute(list(tasks)), processes)

        single = FleetSimulation(
            _spread_lanes(tiny_city_scenario, n_lanes=8),
            server=LocationService(n_shards=4),
        )
        result_1 = single.run()
        monkeypatch.setattr(fleet_mod, "_execute_shard_tasks", shuffled)
        sharded = FleetSimulation(
            _spread_lanes(tiny_city_scenario, n_lanes=8),
            server=LocationService(n_shards=4),
            processes=4,
        )
        _assert_identical(result_1, sharded.run())


class TestValidation:
    def test_processes_below_one_rejected(self, tiny_city_scenario):
        with pytest.raises(ValueError, match="at least 1"):
            FleetSimulation(_spread_lanes(tiny_city_scenario), processes=0)

    def test_unseeded_lossy_channel_rejected(self, tiny_city_scenario):
        with pytest.raises(ValueError, match="unseeded lossy"):
            FleetSimulation(
                _spread_lanes(
                    tiny_city_scenario,
                    channel=MessageChannel(loss_probability=0.1),
                ),
                processes=2,
            )

    def test_latency_on_shared_grid_matches_tick_oracle(self, tiny_city_scenario):
        def lanes():
            return _spread_lanes(tiny_city_scenario, channel=MessageChannel(latency=5.0))

        sharded = FleetSimulation(lanes(), processes=2).run()
        _assert_identical(TickLoopFleet(lanes()).run(), sharded)
        _assert_identical(FleetSimulation(lanes()).run(), sharded)

    def test_prepopulated_server_rejected(self, tiny_city_scenario):
        server = LocationService(n_shards=2)
        server.register_object("squatter")
        fleet = FleetSimulation(
            _spread_lanes(tiny_city_scenario),
            server=server,
            processes=2,
        )
        with pytest.raises(ValueError, match="empty"):
            fleet.run()
