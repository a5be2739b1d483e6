"""The first-crossing search and the fleet's error measurement.

:func:`repro.sim.fleet.lane_updates` finds every protocol's sends with an
array search for the first sample where the protocol's trigger fires;
the per-sighting loop with its timer agenda
(``tests/reference/per_sighting.py``) is its oracle.  The fleet measures
every lane on arrays from the lane's own delivered stream, whatever its
prediction and whatever the backend; the tick-loop oracle
(``tests/reference/tick_loop.py``) and the per-sample walk over the
backend's predictions (``tests/reference/walk.py``) still measure sample by
sample.  Both must agree with their oracles bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.geo.polyline import Polyline
from repro.obs import Observability
from repro.protocols.base import UpdateReason
from repro.protocols.linear import LinearPredictionProtocol
from repro.protocols.mapbased import MapBasedConfig, MapBasedProtocol
from repro.protocols.prediction import (
    MapPrediction,
    ProbabilisticTurnPolicy,
    QuadraticPrediction,
)
from repro.protocols.reporting import DistanceBasedReporting, TimeBasedReporting
from repro.roadmap.elements import Intersection, Link
from repro.roadmap.graph import RoadMap
from repro.roadmap.probability import TurnProbabilityTable
from repro.service.channel import MessageChannel
from repro.service.facade import LocationService
from repro.service.server import LocationServer
from repro.sim import fleet
from repro.sim.config import SimulationConfig
from repro.sim.fleet import (
    FleetLane,
    FleetSimulation,
    auto_region_size,
    fleet_extent,
    lane_updates,
)
from repro.traces.estimation import estimate_trace
from repro.traces.trace import Trace

from reference.maps import straight_road_map, t_junction_map
from reference.per_sighting import sighting_updates
from reference.tick_loop import TickLoopFleet
from reference.walk import WalkedFleet
from test_stream_observe import BUILDERS
from test_sim_kernel import LIBRARY_NAMES, _protocol, _scenario

PROTOCOLS = {"distance": DistanceBasedReporting, "linear": LinearPredictionProtocol}
SEARCHED = {**PROTOCOLS, "map": MapBasedProtocol}


def _estimates(protocol, times, positions):
    """The arrays the fleet feeds a lane's schedule, the protocol prepared."""
    velocities, speeds = estimate_trace(times, positions, protocol.estimation_window)
    protocol.prepare_trace(times, positions, velocities, speeds)
    return times, positions, velocities, speeds


def _state_key(state):
    return (
        state.time,
        state.position.tobytes(),
        state.velocity.tobytes(),
        state.speed,
        state.uncertainty,
        state.link_id,
        state.link_offset,
    )


def _stream_key(stream):
    return [
        (t, message.sequence, message.reason, _state_key(message.state), message.size_bytes)
        for t, message in stream
    ]


def _protocol_key(protocol):
    last = protocol.last_reported
    return (
        protocol.updates_sent,
        protocol.bytes_sent,
        protocol._sequence,
        None if last is None else _state_key(last),
        # adr's adapted threshold and dtdr's declarations.
        getattr(protocol, "_threshold", None),
        getattr(protocol, "disconnection_times", None),
    )


def _compare(kernel, oracle, times, positions):
    """Run both paths on one trace; assert equal streams, fires and end states."""
    _estimates(kernel, times, positions)
    _estimates(oracle, times, positions)
    stream, fires = lane_updates(kernel)
    expected, expected_fires = sighting_updates(oracle)
    assert _stream_key(stream) == _stream_key(expected)
    assert fires == expected_fires
    assert _protocol_key(kernel) == _protocol_key(oracle)
    return stream


def _stationary(n, jump_at=None):
    times = np.arange(float(n))
    positions = np.zeros((n, 2))
    if jump_at is not None:
        positions[jump_at:] = (500.0, 0.0)
    return times, positions


class TestKernelMatchesScalar:
    @pytest.mark.parametrize("protocol_id", sorted(SEARCHED))
    @pytest.mark.parametrize("name", LIBRARY_NAMES)
    def test_library_accuracy_sweep(self, name, protocol_id):
        """Every library scenario x its accuracy sweep: the same messages."""
        scenario = _scenario(name)
        trace = scenario.sensor_trace
        for us in scenario.us_values:
            config = SimulationConfig(protocol_id=protocol_id, accuracy=float(us))
            _compare(
                config.build_protocol(scenario),
                config.build_protocol(scenario),
                trace.times,
                trace.positions,
            )

    @pytest.mark.parametrize("cls", PROTOCOLS.values())
    def test_one_sample_trace(self, cls):
        stream = _compare(cls(100.0), cls(100.0), *_stationary(1))
        assert [m.reason for _t, m in stream] == [UpdateReason.INITIAL]

    @pytest.mark.parametrize("cls", PROTOCOLS.values())
    def test_trigger_on_the_last_sample(self, cls):
        times, positions = _stationary(40, jump_at=39)
        stream = _compare(cls(100.0), cls(100.0), times, positions)
        assert [(t, m.reason) for t, m in stream] == [
            (0.0, UpdateReason.INITIAL), (39.0, UpdateReason.THRESHOLD),
        ]

    @pytest.mark.parametrize("cls", PROTOCOLS.values())
    def test_stationary_lane_longer_than_the_largest_window(self, cls):
        n = 3 * fleet._MAX_WINDOW + 7
        quiet = _compare(cls(100.0), cls(100.0), *_stationary(n))
        assert len(quiet) == 1
        times, positions = _stationary(n, jump_at=n - 3)
        moved = _compare(cls(100.0), cls(100.0), times, positions)
        assert [t for t, _m in moved][:2] == [0.0, float(n - 3)]

    @pytest.mark.parametrize("protocol_id", sorted(SEARCHED))
    def test_protocol_already_holding_a_report(self, protocol_id):
        """A second trace continues from the first one's last report."""
        scenario = _scenario("city")
        config = SimulationConfig(protocol_id=protocol_id, accuracy=100.0)
        kernel, oracle = config.build_protocol(scenario), config.build_protocol(scenario)
        times, positions = scenario.sensor_trace.times, scenario.sensor_trace.positions
        half = len(times) // 2
        _compare(kernel, oracle, times[:half], positions[:half])
        assert kernel.last_reported is not None
        stream = _compare(kernel, oracle, times[half:], positions[half:])
        assert stream and all(m.reason is UpdateReason.THRESHOLD for _t, m in stream)

    def test_subclass_and_swapped_prediction(self):
        """A subclass and a swapped prediction (the default ``predict_many``)
        take the same search."""

        class Sub(LinearPredictionProtocol):
            pass

        swapped = LinearPredictionProtocol(100.0)
        swapped._prediction = QuadraticPrediction()
        oracle = LinearPredictionProtocol(100.0)
        oracle._prediction = QuadraticPrediction()
        scenario = _scenario("city")
        trace = scenario.sensor_trace
        _compare(Sub(100.0), Sub(100.0), trace.times, trace.positions)
        _compare(swapped, oracle, trace.times, trace.positions)


def _along_x(speed, n, x0=0.0, stop_at=None):
    """A 1 Hz trace along +x at *speed* m/s, halted at *stop_at* if given."""
    times = np.arange(float(n))
    xs = x0 + speed * times
    if stop_at is not None:
        xs = np.minimum(xs, stop_at)
    return times, np.column_stack((xs, np.zeros(n)))


def _compare_map(roadmap, times, positions, accuracy=50.0, **kwargs):
    """The map search against the per-sighting oracle; the search's stream."""
    return _compare(
        MapBasedProtocol(accuracy, roadmap, **kwargs),
        MapBasedProtocol(accuracy, roadmap, **kwargs),
        times,
        positions,
    )


def _dead_end_with_zero_length_segments():
    """One 600 m two-way road whose polylines repeat their far vertex."""
    a = Intersection(id=0, position=np.array([0.0, 0.0]))
    b = Intersection(id=1, position=np.array([600.0, 0.0]))
    ahead = Polyline([(0.0, 0.0), (300.0, 0.0), (600.0, 0.0), (600.0, 0.0)])
    back = Polyline([(600.0, 0.0), (600.0, 0.0), (300.0, 0.0), (0.0, 0.0)])
    return RoadMap([a, b], [Link(0, 0, 1, ahead), Link(1, 1, 0, back)])


class TestMapSearch:
    """Map-based DR on the search: its triggers and the walk's corner cases."""

    @staticmethod
    def _off_and_back():
        times, positions = _along_x(10.0, 120, x0=100.0)
        positions[40:60, 1] = 300.0  # 300 m off the road: no link within um
        return straight_road_map(2000.0, n_links=4), times, positions

    def test_off_map_send(self):
        roadmap, times, positions = self._off_and_back()
        stream = _compare_map(roadmap, times, positions)
        reasons = [(t, m.reason) for t, m in stream]
        assert (40.0, UpdateReason.OFF_MAP) in reasons
        assert UpdateReason.REACQUIRED not in {r for _t, r in reasons}

    def test_reacquired_send(self):
        roadmap, times, positions = self._off_and_back()
        config = MapBasedConfig(update_on_reacquire=True)
        stream = _compare_map(roadmap, times, positions, config=config)
        reasons = [(t, m.reason) for t, m in stream]
        assert (40.0, UpdateReason.OFF_MAP) in reasons
        back = [t for t, r in reasons if r is UpdateReason.REACQUIRED]
        assert back and back[0] >= 60.0

    def test_dead_end(self):
        """Past the T junction's east end the prediction stops, as the object does."""
        roadmap = t_junction_map(arm_length_m=500.0)
        times, positions = _along_x(20.0, 90, x0=-450.0, stop_at=500.0)
        stream = _compare_map(roadmap, times, positions)
        assert stream[-1][0] < 48.0
        last = stream[-1][1].state
        end = MapPrediction(roadmap).predict(last, 1e4)
        assert end.tolist() == [500.0, 0.0]

    def test_window_crossing_several_links(self):
        """100 m links at 30 m/s: one 32-sample window spans ~10 links."""
        roadmap = straight_road_map(3000.0, n_links=30)
        times, positions = _along_x(30.0, 95, x0=10.0)
        stream = _compare_map(roadmap, times, positions)
        assert stream[-1][0] < 10.0
        links = {m.state.link_id for _t, m in stream}
        assert len(links) <= 2

    def test_max_links_ahead_exhaustion(self):
        """On 10 m links the walk stops after 64 links: the sends repeat."""
        roadmap = straight_road_map(2000.0, n_links=200)
        times, positions = _along_x(10.0, 190, x0=5.0)
        stream = _compare_map(roadmap, times, positions)
        thresholds = [t for t, m in stream if m.reason is UpdateReason.THRESHOLD]
        assert len(thresholds) >= 2
        # A report 64 links (640 m) from the walk's cap is off by the
        # distance travelled since: the next send follows within us / v.
        assert np.diff(thresholds).max() <= 64 + 50.0 / 10.0 + 1

    def test_zero_length_segment(self):
        """The dead end lands on a zero-length last segment: its start vertex.

        The object stops 60 m short of it, so the send that follows is
        decided against that vertex."""
        roadmap = _dead_end_with_zero_length_segments()
        times, positions = _along_x(20.0, 60, stop_at=540.0)
        stream = _compare_map(roadmap, times, positions)
        assert [t for t, _m in stream if t > 27.0] == [30.0]
        assert MapPrediction(roadmap).predict(stream[1][1].state, 30.0).tolist() == [600.0, 0.0]

    def test_other_map_protocols(self):
        """A subclass, a speed-limit walk and a turn-probability policy."""

        class Sub(MapBasedProtocol):
            pass

        scenario = _scenario("city")
        roadmap = scenario.roadmap
        trace = scenario.sensor_trace
        variants = [
            lambda: Sub(100.0, roadmap),
            lambda: MapBasedProtocol(
                100.0, roadmap, config=MapBasedConfig(speed_limit_factor=0.8)
            ),
            lambda: MapBasedProtocol(
                100.0, roadmap, turn_policy=ProbabilisticTurnPolicy(TurnProbabilityTable(roadmap))
            ),
        ]
        for make in variants:
            _compare(make(), make(), trace.times, trace.positions)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # estimation over the bad sighting
class TestNonFiniteGuard:
    @pytest.mark.parametrize("where", [0, 17, -1])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("cls", PROTOCOLS.values())
    def test_same_value_error_as_the_scalar_path(self, cls, bad, where):
        """The search checks the sightings it skips: a non-finite one raises
        ``as_vec``'s error, after the same sends, as the per-sighting path."""
        scenario = _scenario("walking")
        times = scenario.sensor_trace.times[:60]
        positions = scenario.sensor_trace.positions[:60].copy()
        positions[where, 1] = bad
        kernel, oracle = cls(20.0), cls(20.0)
        _estimates(kernel, times, positions)
        _estimates(oracle, times, positions)
        with pytest.raises(ValueError, match="finite") as raised:
            lane_updates(kernel)
        with pytest.raises(ValueError, match="finite") as expected:
            sighting_updates(oracle)
        assert str(raised.value) == str(expected.value)
        assert _protocol_key(kernel) == _protocol_key(oracle)
        if where == -1:
            assert kernel.updates_sent > 1

    @pytest.mark.parametrize("protocol_id", ["map", "known_route"])
    @pytest.mark.parametrize("where", [0, 17, -1])
    def test_projected_sighting(self, where, protocol_id):
        """Matching (or projecting onto the route) rejects a non-finite
        sighting when the trace is prepared, before any send."""
        scenario = _scenario("walking")
        times = scenario.sensor_trace.times[:60]
        positions = scenario.sensor_trace.positions[:60].copy()
        positions[where, 1] = np.nan
        protocol = _protocol(scenario, protocol_id, 20.0)
        with pytest.raises(ValueError, match="finite"):
            _estimates(protocol, times, positions)
        assert protocol.updates_sent == 0


def _record_key(record):
    return (_state_key(record.state), record.updates_received, record.last_update_time)


class TestClosedFormMeasurement:
    @staticmethod
    def _lanes():
        city = _scenario("city")
        walking = _scenario("walking")
        return [
            FleetLane("city/distance", _protocol(city, "distance"),
                      city.sensor_trace, city.true_trace),
            FleetLane("city/linear", _protocol(city, "linear"),
                      city.sensor_trace, city.true_trace),
            FleetLane("walking/linear", _protocol(walking, "linear", 50.0),
                      walking.sensor_trace, walking.true_trace),
            FleetLane("city/map", _protocol(city, "map"),
                      city.sensor_trace, city.true_trace),
            FleetLane("walking/map", _protocol(walking, "map", 50.0),
                      walking.sensor_trace, walking.true_trace),
            FleetLane("city/map-speed-limit",
                      MapBasedProtocol(100.0, city.roadmap,
                                       config=MapBasedConfig(speed_limit_factor=0.8)),
                      city.sensor_trace, city.true_trace),
            FleetLane("city/time", TimeBasedReporting(150.0, interval=6.0),
                      city.sensor_trace, city.true_trace),
        ]

    def _run(self, cls, server):
        channel = MessageChannel(latency=2.0, loss_probability=0.2, seed=5)
        obs = Observability()
        result = cls(self._lanes(), channel=channel, server=server, obs=obs).run()
        snapshot = obs.registry.snapshot()
        counters = {
            kind: snapshot.get(f"kernel.events.{kind}", {"value": 0})["value"]
            for kind in ("sample", "timer", "delivery")
        }
        records = {oid: _record_key(server.tracked_object(oid)) for oid in result.results}
        return result, channel.stats, records, counters

    def test_identical_to_the_tick_loop_and_the_walk(self):
        closed = self._run(FleetSimulation, LocationServer())
        tick = self._run(TickLoopFleet, LocationServer())
        walked = self._run(WalkedFleet, LocationServer())

        result, stats, records, counters = closed
        assert stats.messages_lost > 0
        for other, _stats, other_records, _counters in (tick, walked):
            assert {oid: r.as_dict() for oid, r in result.results.items()} == {
                oid: r.as_dict() for oid, r in other.results.items()
            }
            for oid, r in result.results.items():
                errors = np.asarray(r.metrics.errors)
                assert errors.tobytes() == np.asarray(other.results[oid].metrics.errors).tobytes()
            assert records == other_records
        assert stats == tick[1] == walked[1]
        # The tick loop keeps no event counters: the full walk's are the oracle.
        assert counters == walked[3]
        assert counters["sample"] == sum(len(lane.sensor_trace) for lane in self._lanes())
        assert counters["delivery"] == stats.messages_delivered
        # Every deadline falls on a sighting, which reports first.
        assert counters["timer"] == 0

    def test_off_grid_timers_match_the_walk(self):
        """Timer-fired reports between sightings: the fleet == the walk."""
        city = _scenario("city")

        def lanes():
            return [
                FleetLane("time", TimeBasedReporting(150.0, interval=6.5),
                          city.sensor_trace, city.true_trace),
                FleetLane("linear", _protocol(city, "linear"),
                          city.sensor_trace, city.true_trace),
            ]

        outcomes = []
        for cls in (FleetSimulation, WalkedFleet):
            server = LocationServer()
            channel = MessageChannel(latency=0.7, loss_probability=0.2, seed=5)
            obs = Observability()
            result = cls(lanes(), channel=channel, server=server, obs=obs).run()
            outcomes.append((
                {oid: r.as_dict() for oid, r in result.results.items()},
                {oid: np.asarray(r.metrics.errors).tobytes() for oid, r in result.results.items()},
                {oid: _record_key(server.tracked_object(oid)) for oid in result.results},
                channel.stats,
                obs.registry.snapshot(deterministic_only=True),
            ))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][4]["kernel.events.timer"]["value"] > 0

    @pytest.mark.parametrize("shards", [None, 3])
    @pytest.mark.parametrize("variant", sorted(BUILDERS))
    def test_every_protocol_variant_matches_the_walk(self, variant, shards):
        """Every prediction (static, linear, quadratic, route, map), off-grid
        latency, keyed loss, a plain server or a 3-shard service: the fleet's
        measurement from each delivered stream == the per-sample walk."""
        scenarios = [_scenario("city"), _scenario("freeway")]

        def lanes():
            return [
                FleetLane(f"{s.name}/{variant}", BUILDERS[variant](s, 100.0),
                          s.sensor_trace, s.true_trace)
                for s in scenarios
            ]

        outcomes = []
        for cls in (FleetSimulation, WalkedFleet):
            if shards is None:
                server = LocationServer()
            else:
                region = auto_region_size(fleet_extent(lanes()), shards)
                server = LocationService(n_shards=shards, region_size=region)
            channel = MessageChannel(latency=0.7, loss_probability=0.2, seed=5)
            result = cls(lanes(), channel=channel, server=server).run()
            service_stats = {
                key: value for key, value in result.service_stats.items()
                if key not in ("query_seconds", "mean_query_seconds")
            }
            outcomes.append((
                {oid: r.metrics.errors.tobytes() for oid, r in result.results.items()},
                {oid: _record_key(server.tracked_object(oid)) for oid in result.results},
                {oid: r.as_dict() for oid, r in result.results.items()},
                channel.stats,
                service_stats,
            ))
        assert outcomes[0] == outcomes[1]
        assert all(outcomes[0][0].values()), "every lane is measured"
        assert outcomes[0][3].messages_lost > 0
        if shards is not None:
            assert outcomes[0][4]["updates_ingested"] == outcomes[0][3].messages_delivered

    def test_lane_without_a_delivery_records_no_error(self):
        """A lane whose only message lands past the horizon is never measured."""
        lane = FleetLane("x", DistanceBasedReporting(100.0), Trace(*_stationary(30)),
                         channel=MessageChannel(latency=1000.0))
        server = LocationServer()
        result = FleetSimulation([lane], server=server).run().results["x"]
        assert result.updates == 1
        assert len(result.metrics.errors) == 0
        assert server.tracked_object("x").state is None
