"""Per-object independence of the fleet loop on spatially spread fleets.

In the paper each object runs its own update protocol against its own
server record; :class:`~repro.sim.fleet.FleetSimulation` merges many such
lanes into one loop.  These tests spread the lanes of a fleet over distinct
sharding cells (translated copies of one scenario trip) and assert that the
merge adds nothing observable:

* the fleet equals the tick-loop oracle — on a plain server, a sharded
  service whose objects hand off between shards, and a seeded lossy channel
  with tick-aligned latency;
* every lane's outcome — its result row, every error sample, its channel
  traffic — equals the same lane run alone, also when the lanes share a
  lossy latent channel or sample on grids of their own;
* permuting the lanes changes no per-object result, no error sample, no
  channel counter and no service statistic.
"""

import numpy as np
import pytest

from repro.protocols.linear import LinearPredictionProtocol
from repro.protocols.reporting import DistanceBasedReporting
from repro.service.channel import MessageChannel
from repro.service.facade import LocationService
from repro.sim.fleet import FleetLane, FleetSimulation, auto_region_size, fleet_extent
from repro.traces.trace import Trace

from reference.tick_loop import TickLoopFleet

SCENARIO_FIXTURES = [
    "tiny_freeway_scenario",
    "tiny_city_scenario",
    "tiny_interurban_scenario",
    "tiny_walking_scenario",
]

PROTOCOLS = {"distance": DistanceBasedReporting, "linear": LinearPredictionProtocol}

#: Per-lane translation spreading the fleet over distinct sharding cells.
LANE_SPREAD_M = 4000.0

#: Service statistics that time the host rather than count the run.
TIMING_KEYS = ("query_seconds", "mean_query_seconds")


def spread_lanes(scenario, n_lanes=6, protocol_cls=LinearPredictionProtocol,
                 accuracy=100.0, channel=None, jitter_times=False):
    """Fresh lanes on spatially translated copies of one scenario trip.

    Lane ``k`` is shifted by ``LANE_SPREAD_M`` metres on a 3-wide grid, so
    a sharded service homes the lanes on different shards.  ``jitter_times``
    moves lane ``k`` onto its own sampling grid (offset ``k / 4`` s).
    """
    lanes = []
    for k in range(n_lanes):
        offset = np.array([(k % 3) * LANE_SPREAD_M, (k // 3) * LANE_SPREAD_M])
        times = scenario.sensor_trace.times
        if jitter_times:
            times = times + k * 0.25
        lanes.append(
            FleetLane(
                object_id=f"spread/{k}",
                protocol=protocol_cls(accuracy),
                sensor_trace=Trace(times, scenario.sensor_trace.positions + offset),
                truth_trace=Trace(times, scenario.true_trace.positions + offset),
                channel=channel,
            )
        )
    return lanes


def sharded_service(lanes, n_shards=4):
    return LocationService(
        n_shards=n_shards, region_size=auto_region_size(fleet_extent(lanes), n_shards)
    )


def counted_stats(result):
    """The run's service statistics without the host-timing entries."""
    return {k: v for k, v in result.service_stats.items() if k not in TIMING_KEYS}


def channel_counts(stats):
    return (
        stats.messages_sent,
        stats.messages_delivered,
        stats.messages_lost,
        stats.bytes_sent,
        stats.bytes_delivered,
        stats.max_queue_delay,
    )


def assert_same_objects(result_a, result_b):
    """Same objects, same result rows, bit-identical error samples."""
    assert sorted(result_a.results) == sorted(result_b.results)
    for oid, row in result_a.results.items():
        other = result_b.results[oid]
        assert row.as_dict() == other.as_dict(), oid
        assert np.array_equal(row.metrics.errors, other.metrics.errors), oid


# --------------------------------------------------------------------------- #
# spread fleets against the tick-loop oracle
# --------------------------------------------------------------------------- #
class TestSpreadFleetMatchesOracle:
    @pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
    @pytest.mark.parametrize("fixture", SCENARIO_FIXTURES)
    def test_plain_server(self, request, fixture, protocol):
        scenario = request.getfixturevalue(fixture)

        def lanes():
            return spread_lanes(scenario, protocol_cls=PROTOCOLS[protocol])

        tick = TickLoopFleet(lanes())
        fleet = FleetSimulation(lanes())
        assert_same_objects(tick.run(), fleet.run())
        assert channel_counts(tick.shared_channel.stats) == channel_counts(
            fleet.shared_channel.stats
        )
        assert fleet.shared_channel.stats.messages_sent > len(fleet.lanes)

    @pytest.mark.parametrize("fixture", SCENARIO_FIXTURES)
    def test_sharded_service(self, request, fixture):
        scenario = request.getfixturevalue(fixture)
        results = {}
        for name, cls in (("tick", TickLoopFleet), ("fleet", FleetSimulation)):
            lanes = spread_lanes(scenario, n_lanes=8)
            results[name] = cls(lanes, server=sharded_service(lanes)).run()
        assert_same_objects(results["tick"], results["fleet"])
        assert counted_stats(results["tick"]) == counted_stats(results["fleet"])
        # The spread homes the fleet on more than one shard.
        shards = {r.service_stats["shard"] for r in results["fleet"].results.values()}
        assert len(shards) > 1

    def test_sharded_service_hands_objects_off(self, tiny_city_scenario):
        """Objects crossing shard regions hand off identically on both loops."""
        results = {}
        for name, cls in (("tick", TickLoopFleet), ("fleet", FleetSimulation)):
            lanes = spread_lanes(tiny_city_scenario, n_lanes=8)
            results[name] = cls(lanes, server=LocationService(n_shards=4)).run()
        assert counted_stats(results["tick"]) == counted_stats(results["fleet"])
        assert results["fleet"].service_stats["handoffs"] > 0

    @pytest.mark.parametrize("fixture", SCENARIO_FIXTURES)
    def test_seeded_lossy_latent_channel(self, request, fixture):
        scenario = request.getfixturevalue(fixture)
        runs = {}
        for name, cls in (("tick", TickLoopFleet), ("fleet", FleetSimulation)):
            channel = MessageChannel(latency=7.0, loss_probability=0.15, seed=99)
            runs[name] = (cls(spread_lanes(scenario, channel=channel)).run(), channel)
        assert_same_objects(runs["tick"][0], runs["fleet"][0])
        assert channel_counts(runs["tick"][1].stats) == channel_counts(runs["fleet"][1].stats)
        assert runs["fleet"][1].stats.messages_lost > 0, "loss did not engage"
        assert runs["fleet"][1].stats.max_queue_delay == 0.0


# --------------------------------------------------------------------------- #
# a lane in a fleet behaves as the same lane alone
# --------------------------------------------------------------------------- #
class TestLaneIndependence:
    @pytest.mark.parametrize("fixture", SCENARIO_FIXTURES)
    def test_shared_lossy_latent_channel(self, request, fixture):
        """Keyed loss and per-lane delivery: sharing a channel changes no lane."""
        scenario = request.getfixturevalue(fixture)

        def channel():
            return MessageChannel(latency=7.0, loss_probability=0.15, seed=99)

        shared = channel()
        fleet = FleetSimulation(spread_lanes(scenario, channel=shared)).run()
        alone_stats = []
        for lane in spread_lanes(scenario):
            own = channel()
            lane.channel = own
            row = FleetSimulation([lane]).run().results[lane.object_id]
            assert row.as_dict() == fleet.results[lane.object_id].as_dict()
            assert np.array_equal(
                row.metrics.errors, fleet.results[lane.object_id].metrics.errors
            )
            alone_stats.append(own.stats)
        for field in ("messages_sent", "messages_delivered", "messages_lost",
                      "bytes_sent", "bytes_delivered"):
            assert getattr(shared.stats, field) == sum(
                getattr(stats, field) for stats in alone_stats
            ), field
        assert shared.stats.messages_lost > 0

    @pytest.mark.parametrize("fixture", SCENARIO_FIXTURES)
    def test_mixed_sampling_grids(self, request, fixture):
        """Lanes on grids of their own, exact delivery: each lane as alone."""
        scenario = request.getfixturevalue(fixture)

        def lanes():
            return spread_lanes(scenario, jitter_times=True)

        fleet = FleetSimulation(lanes(), channel=MessageChannel(latency=3.0, seed=1)).run()
        for lane in lanes():
            alone = FleetSimulation([lane], channel=MessageChannel(latency=3.0, seed=1)).run()
            row = alone.results[lane.object_id]
            assert row.as_dict() == fleet.results[lane.object_id].as_dict()
            assert np.array_equal(
                row.metrics.errors, fleet.results[lane.object_id].metrics.errors
            )


# --------------------------------------------------------------------------- #
# lane order is not observable
# --------------------------------------------------------------------------- #
PERMUTATIONS = {
    "reversed": lambda lanes: lanes[::-1],
    "rotated": lambda lanes: lanes[1:] + lanes[:1],
}


class TestLaneOrder:
    @pytest.mark.parametrize("permutation", sorted(PERMUTATIONS))
    @pytest.mark.parametrize("fixture", SCENARIO_FIXTURES)
    def test_permuted_lanes_change_nothing(self, request, fixture, permutation):
        scenario = request.getfixturevalue(fixture)
        runs = []
        for order in (lambda lanes: lanes, PERMUTATIONS[permutation]):
            channel = MessageChannel(latency=5.0, loss_probability=0.1, seed=3)
            lanes = spread_lanes(scenario, n_lanes=8, channel=channel)
            service = sharded_service(lanes)
            runs.append((FleetSimulation(order(lanes), server=service).run(), channel))
        (first, first_channel), (second, second_channel) = runs
        assert_same_objects(first, second)
        assert counted_stats(first) == counted_stats(second)
        assert channel_counts(first_channel.stats) == channel_counts(second_channel.stats)
