"""The first-crossing search and the closed-form error measurement.

:func:`repro.sim.fleet.lane_updates` finds the sends of distance-based
reporting and linear DR with an array search for the first sample where the
paper's trigger fires; the per-sighting loop
(``tests/reference/per_sighting.py``) is its oracle.  A plain
:class:`~repro.service.server.LocationServer` fleet measures every lane with
a static or linear prediction in closed form from the lane's delivered
stream; the tick-loop oracle (``tests/reference/tick_loop.py``) still walks
every sample.  Both must agree with their oracles bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.obs import Observability
from repro.protocols.base import UpdateReason
from repro.protocols.linear import LinearPredictionProtocol
from repro.protocols.prediction import QuadraticPrediction
from repro.protocols.reporting import DistanceBasedReporting, TimeBasedReporting
from repro.service.channel import MessageChannel
from repro.service.server import LocationServer
from repro.sim import fleet
from repro.sim.config import SimulationConfig
from repro.sim.fleet import FleetLane, FleetSimulation, lane_updates
from repro.traces.estimation import estimate_trace
from repro.traces.trace import Trace

from reference.per_sighting import sighting_updates
from reference.tick_loop import TickLoopFleet
from test_sim_kernel import LIBRARY_NAMES, _protocol, _scenario

PROTOCOLS = {"distance": DistanceBasedReporting, "linear": LinearPredictionProtocol}


def _estimates(protocol, times, positions):
    """The arrays the fleet feeds a lane's schedule, the protocol prepared."""
    velocities, speeds = estimate_trace(times, positions, protocol.estimator.window)
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
    )


def _compare(kernel, oracle, times, positions):
    """Run both paths on one trace; assert equal streams and end states."""
    arrays = _estimates(kernel, times, positions)
    _estimates(oracle, times, positions)
    stream, fires = lane_updates(kernel, *arrays)
    expected = sighting_updates(oracle, *arrays)
    assert fires == 0
    assert _stream_key(stream) == _stream_key(expected)
    assert _protocol_key(kernel) == _protocol_key(oracle)
    return stream


@pytest.fixture
def searches(monkeypatch):
    """Count the lanes that take the first-crossing search."""
    calls = []
    search = fleet._first_crossings

    def counting(protocol, *args):
        calls.append(type(protocol))
        return search(protocol, *args)

    monkeypatch.setattr(fleet, "_first_crossings", counting)
    return calls


def _stationary(n, jump_at=None):
    times = np.arange(float(n))
    positions = np.zeros((n, 2))
    if jump_at is not None:
        positions[jump_at:] = (500.0, 0.0)
    return times, positions


class TestKernelMatchesScalar:
    @pytest.mark.parametrize("protocol_id", sorted(PROTOCOLS))
    @pytest.mark.parametrize("name", LIBRARY_NAMES)
    def test_library_accuracy_sweep(self, name, protocol_id, searches):
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
        assert searches == [PROTOCOLS[protocol_id]] * len(scenario.us_values)

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

    @pytest.mark.parametrize("protocol_id", sorted(PROTOCOLS))
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

    def test_subclass_and_swapped_prediction_stay_on_the_scalar_loop(self, searches):
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
        assert searches == []
        _compare(LinearPredictionProtocol(100.0), LinearPredictionProtocol(100.0),
                 trace.times, trace.positions)
        assert searches == [LinearPredictionProtocol]


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
        arrays = _estimates(kernel, times, positions)
        _estimates(oracle, times, positions)
        with pytest.raises(ValueError, match="finite") as raised:
            lane_updates(kernel, *arrays)
        with pytest.raises(ValueError, match="finite") as expected:
            sighting_updates(oracle, *arrays)
        assert str(raised.value) == str(expected.value)
        assert _protocol_key(kernel) == _protocol_key(oracle)
        if where == -1:
            assert kernel.updates_sent > 1


class _WalkedServer(LocationServer):
    """A plain server the fleet does not recognise: every lane is walked."""


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

    def test_identical_to_the_tick_loop_and_the_walk(self, monkeypatch):
        measured = []
        measure = fleet._LaneState.measure_closed_form

        def counting(state, *args):
            measured.append(state.lane.object_id)
            return measure(state, *args)

        monkeypatch.setattr(fleet._LaneState, "measure_closed_form", counting)
        closed = self._run(FleetSimulation, LocationServer())
        assert measured == ["city/distance", "city/linear", "walking/linear", "city/time"]
        tick = self._run(TickLoopFleet, LocationServer())
        walked = self._run(FleetSimulation, _WalkedServer())
        assert len(measured) == 4  # both oracle runs measure every sample on the walk

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
        """Timer-fired reports between sightings: closed form == walk."""
        city = _scenario("city")

        def lanes():
            return [
                FleetLane("time", TimeBasedReporting(150.0, interval=6.5),
                          city.sensor_trace, city.true_trace),
                FleetLane("linear", _protocol(city, "linear"),
                          city.sensor_trace, city.true_trace),
            ]

        outcomes = []
        for server in (LocationServer(), _WalkedServer()):
            channel = MessageChannel(latency=0.7, loss_probability=0.2, seed=5)
            obs = Observability()
            result = FleetSimulation(lanes(), channel=channel, server=server, obs=obs).run()
            outcomes.append((
                {oid: r.as_dict() for oid, r in result.results.items()},
                {oid: np.asarray(r.metrics.errors).tobytes() for oid, r in result.results.items()},
                {oid: _record_key(server.tracked_object(oid)) for oid in result.results},
                channel.stats,
                obs.registry.snapshot(deterministic_only=True),
            ))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][4]["kernel.events.timer"]["value"] > 0

    def test_lane_without_a_delivery_records_no_error(self):
        """A lane whose only message lands past the horizon is never measured."""
        lane = FleetLane("x", DistanceBasedReporting(100.0), Trace(*_stationary(30)),
                         channel=MessageChannel(latency=1000.0))
        server = LocationServer()
        result = FleetSimulation([lane], server=server).run().results["x"]
        assert result.updates == 1
        assert len(result.metrics.errors) == 0
        assert server.tracked_object("x").state is None
