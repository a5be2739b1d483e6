"""Oracle tests for the batch match stream.

``IncrementalMapMatcher.match_stream`` matches a whole trace at once and the
map-based protocol reads its rows instead of calling
``IncrementalMapMatcher.update``.  Per-sighting ``update`` stays the oracle:
the stream must equal it bit for bit, and the fleet must send the same
update messages as a protocol whose rows are built from ``update`` results
(estimates from the streaming estimator) and fed one sighting at a time.
"""

import numpy as np
import pytest

from repro.experiments.library import scenario_names
from repro.mapmatching.matcher import IncrementalMapMatcher, MatcherConfig, MatchStream
from repro.protocols.mapbased import MapBasedConfig, MapBasedProtocol
from repro.service.channel import MessageChannel
from repro.sim.fleet import FleetLane, _LaneState, lane_updates
from repro.sim.runner import ScenarioSpec
from repro.traces.estimation import estimate_trace
from repro.traces.trace import Trace

from reference.streaming import StateEstimator

#: The kernel-equivalence suite's scales, so the per-process scenario cache
#: is shared between the modules.
SCALES = {"freeway": 0.05, "interurban": 0.08, "city": 0.07, "walking": 0.15}
DEFAULT_SCALE = 0.15

#: Every library scenario carries a road map (``Scenario.roadmap`` is required).
MAP_SCENARIOS = scenario_names()


def _scenario(name):
    return ScenarioSpec(name=name, scale=SCALES.get(name, DEFAULT_SCALE)).build()


def _map_protocol(scenario, advance_at_link_end):
    return MapBasedProtocol(
        100.0,
        scenario.roadmap,
        sensor_uncertainty=scenario.sensor_sigma,
        estimation_window=scenario.estimation_window,
        config=MapBasedConfig(
            matching_tolerance=scenario.matching_tolerance,
            advance_at_link_end=advance_at_link_end,
        ),
    )


def _per_sighting(matcher, positions, velocities, speeds):
    """The oracle: ``update`` once per sighting, headings as the protocol sets them."""
    results = []
    for i in range(len(positions)):
        speed = float(speeds[i])
        heading = velocities[i] if speed > 1.0 else None
        results.append(matcher.update(positions[i], heading=heading))
    return results


def _stream_of(results, statistics):
    """The rows of per-sighting ``update`` *results*, as a :class:`MatchStream`."""
    return MatchStream(
        matched=np.array([r.is_matched for r in results], dtype=bool),
        link_ids=np.array(
            [r.link_id if r.is_matched else -1 for r in results], dtype=np.int64
        ),
        offsets=np.array([r.offset if r.is_matched else np.nan for r in results]),
        positions=np.array([r.position for r in results]).reshape(-1, 2),
        distances=np.array([r.distance for r in results]),
        statistics=statistics,
    )


def _assert_stream_equals(stream, results, statistics):
    assert len(stream) == len(results)
    oracle = _stream_of(results, statistics)
    assert np.array_equal(stream.matched, oracle.matched)
    assert np.array_equal(stream.link_ids, oracle.link_ids)
    # Bit for bit, NaN (off-map offset) included.
    assert stream.offsets.tobytes() == oracle.offsets.tobytes()
    assert stream.positions.tobytes() == oracle.positions.tobytes()
    assert stream.distances.tobytes() == oracle.distances.tobytes()
    assert stream.statistics == statistics


def _message_key(message):
    state = message.state
    return (
        message.sequence,
        message.reason,
        state.time,
        state.position.tobytes(),
        state.velocity.tobytes(),
        state.speed,
        state.link_id,
        state.link_offset,
        state.uncertainty,
        None if state.acceleration is None else state.acceleration.tobytes(),
    )


def _fleet_messages(state):
    """The fleet's update stream for one prepared lane, as message keys."""
    stream, _timer_fires = lane_updates(state.lane.protocol)
    return [_message_key(m) for _t, m in stream]


def _update_messages(protocol, trace):
    """The oracle's messages, as keys, and its matcher's statistics.

    Speed and heading come from the streaming estimator, the match of each
    sighting from one ``IncrementalMapMatcher.update`` call; the protocol
    reads those rows, one ``observe_precomputed`` call per sighting.
    """
    times, positions = trace.times, trace.positions
    estimator = StateEstimator(protocol.estimation_window)
    estimates = [estimator.update(t, positions[i]) for i, t in enumerate(times.tolist())]
    velocities = np.array([v for v, _ in estimates])
    speeds = np.array([s for _, s in estimates])
    matcher = IncrementalMapMatcher(protocol.roadmap, protocol.config.matcher_config())
    results = _per_sighting(matcher, positions, velocities, speeds)
    protocol.prepare_trace(times, positions, velocities, speeds)
    # Replace the batch stream prepare_trace matched with the update-built rows.
    protocol._stream = _stream_of(results, matcher.statistics())
    messages = [
        protocol.observe_precomputed(t, positions[i], velocities[i], speeds[i])
        for i, t in enumerate(times.tolist())
    ]
    keys = [_message_key(m) for m in messages if m is not None]
    return keys, matcher.statistics()


@pytest.mark.parametrize("advance", [False, True], ids=["clamped", "advance"])
@pytest.mark.parametrize("name", MAP_SCENARIOS)
class TestLibraryScenarios:
    def test_stream_equals_per_sighting_update(self, name, advance):
        scenario = _scenario(name)
        trace = scenario.sensor_trace
        config = MatcherConfig(
            tolerance=scenario.matching_tolerance, advance_at_link_end=advance
        )
        velocities, speeds = estimate_trace(
            trace.times, trace.positions, scenario.estimation_window
        )
        stream = IncrementalMapMatcher(scenario.roadmap, config).match_stream(
            trace.positions, velocities, speeds
        )
        oracle = IncrementalMapMatcher(scenario.roadmap, config)
        results = _per_sighting(oracle, trace.positions, velocities, speeds)
        _assert_stream_equals(stream, results, oracle.statistics())
        assert stream.matched.any()

    def test_precomputed_path_sends_streaming_messages(self, name, advance):
        scenario = _scenario(name)
        trace = scenario.sensor_trace
        fleet_protocol = _map_protocol(scenario, advance)
        lane = FleetLane("obj", fleet_protocol, trace)
        fleet_messages = _fleet_messages(_LaneState(lane, MessageChannel()))
        assert fleet_protocol.match_stream is not None

        oracle_messages, oracle_statistics = _update_messages(
            _map_protocol(scenario, advance), trace
        )
        assert fleet_messages == oracle_messages
        assert fleet_protocol.matching_statistics() == oracle_statistics


class TestLeavingTheMap:
    """A trace that leaves the map and comes back exercises re-acquisition."""

    @staticmethod
    def _trace():
        times = np.arange(0.0, 80.0)
        xs = times * 20.0
        ys = np.where((times >= 20.0) & (times < 47.0), 3000.0, 0.0)
        return Trace(times, np.column_stack((xs, ys)))

    @pytest.mark.parametrize("interval", [1, 3, 5])
    def test_stream_equals_per_sighting_update(self, straight_map, interval):
        trace = self._trace()
        config = MatcherConfig(reacquire_interval=interval)
        velocities, speeds = estimate_trace(trace.times, trace.positions, 4)
        stream = IncrementalMapMatcher(straight_map, config).match_stream(
            trace.positions, velocities, speeds
        )
        oracle = IncrementalMapMatcher(straight_map, config)
        results = _per_sighting(oracle, trace.positions, velocities, speeds)
        _assert_stream_equals(stream, results, oracle.statistics())
        # On, off and back on the map.
        assert stream.matched[0] and not stream.matched[30] and stream.matched[-1]
        assert stream.link_ids[30] == -1 and np.isnan(stream.offsets[30])
        assert stream.statistics["reacquisitions"] >= 2

    def test_precomputed_path_sends_streaming_messages(self, straight_map):
        trace = self._trace()
        config = MapBasedConfig(reacquire_interval=3, update_on_reacquire=True)
        fleet_protocol = MapBasedProtocol(100.0, straight_map, config=config)
        fleet_messages = _fleet_messages(
            _LaneState(FleetLane("obj", fleet_protocol, trace), MessageChannel())
        )
        oracle_messages, _ = _update_messages(
            MapBasedProtocol(100.0, straight_map, config=config), trace
        )
        assert fleet_messages == oracle_messages
        reasons = {key[1].value for key in fleet_messages}
        assert {"off_map", "reacquired"} <= reasons


class TestPreparedStreamGuards:
    def test_observe_precomputed_needs_a_prepared_trace(self, straight_map):
        protocol = MapBasedProtocol(100.0, straight_map)
        with pytest.raises(RuntimeError):
            protocol.observe_precomputed(0.0, (0.0, 0.0), np.zeros(2), 0.0)

    def test_sighting_out_of_step_with_the_stream_raises(
        self, straight_map, straight_trace
    ):
        protocol = MapBasedProtocol(100.0, straight_map)
        times, positions = straight_trace.times, straight_trace.positions
        velocities, speeds = estimate_trace(times, positions, 4)
        protocol.prepare_trace(times, positions, velocities, speeds)
        protocol.observe_precomputed(times[0], positions[0], velocities[0], speeds[0])
        with pytest.raises(ValueError):
            # Row 1 is next; feeding row 2 skips a sighting.
            protocol.observe_precomputed(
                times[2], positions[2], velocities[2], speeds[2]
            )

    def test_reading_past_the_end_raises(self, straight_map, straight_trace):
        protocol = MapBasedProtocol(100.0, straight_map)
        times, positions = straight_trace.times, straight_trace.positions
        velocities, speeds = estimate_trace(times, positions, 4)
        protocol.prepare_trace(times[:1], positions[:1], velocities[:1], speeds[:1])
        protocol.observe_precomputed(times[0], positions[0], velocities[0], speeds[0])
        with pytest.raises(ValueError):
            protocol.observe_precomputed(times[1], positions[1], velocities[1], speeds[1])

    def test_reset_forgets_the_prepared_trace(self, straight_map, straight_trace):
        protocol = MapBasedProtocol(100.0, straight_map)
        times, positions = straight_trace.times, straight_trace.positions
        velocities, speeds = estimate_trace(times, positions, 4)
        protocol.prepare_trace(times, positions, velocities, speeds)
        protocol.reset()
        assert protocol.match_stream is None
        with pytest.raises(RuntimeError):
            protocol.observe_precomputed(times[0], positions[0], velocities[0], speeds[0])
