"""The fleet's one decision path against the per-sighting oracle.

``repro.sim.fleet.lane_updates`` decides every protocol's sends with one
array search over the protocol's window trigger, deadlines included.
``reference.per_sighting`` keeps the per-sighting rules and the heap timer
agenda.  For every protocol class both must send the same messages at the
same instants, fire the same timers and declare the same dtdr
disconnections, bit for bit, on every library scenario.

For protocols without deadlines, ``reference.streaming.stream_observe`` —
speed and heading estimated sighting by sighting (``StateEstimator``), one
stepper call per sighting — must also send what
``repro.sim.fleet.trace_updates`` sends from the batch estimates.
"""

import pytest

from repro.experiments.library import scenario_names
from repro.protocols.adaptive import (
    AdaptiveDeadReckoning,
    DisconnectionDetectionDeadReckoning,
    SpeedDeadReckoning,
)
from repro.protocols.mapbased import MapBasedConfig, MapBasedProtocol
from repro.protocols.probabilistic import ProbabilisticMapBasedProtocol
from repro.protocols.reporting import TimeBasedReporting
from repro.roadmap.probability import TurnProbabilityTable
from repro.sim.config import SimulationConfig
from repro.sim.fleet import lane_updates, trace_updates
from repro.sim.runner import ScenarioSpec
from repro.traces.estimation import estimate_trace

from reference.per_sighting import sighting_updates
from reference.streaming import stream_observe
from test_mapmatching_stream import DEFAULT_SCALE, SCALES, _message_key


def _configured(protocol_id):
    def build(scenario, accuracy):
        return SimulationConfig(protocol_id=protocol_id, accuracy=accuracy).build_protocol(
            scenario
        )

    return build


def _map_config(scenario, **kwargs):
    return MapBasedConfig(matching_tolerance=scenario.matching_tolerance, **kwargs)


def _learned_turns(scenario):
    table = TurnProbabilityTable(scenario.roadmap)
    table.record_route(scenario.route)
    return table


#: One builder per protocol class (and per deadline flavour), each taking
#: the scenario's sensor uncertainty, estimation window and ``um``.
BUILDERS = {
    "distance": _configured("distance"),
    "movement": _configured("movement"),
    "time_for_speed": _configured("time"),
    "time_fixed": lambda s, us: TimeBasedReporting(
        us, 6.0, s.sensor_sigma, s.estimation_window
    ),
    "linear": _configured("linear"),
    "sdr": lambda s, us: SpeedDeadReckoning(us, s.sensor_sigma, s.estimation_window),
    "adr": lambda s, us: AdaptiveDeadReckoning(
        us, sensor_uncertainty=s.sensor_sigma, estimation_window=s.estimation_window
    ),
    "dtdr": lambda s, us: DisconnectionDetectionDeadReckoning(
        us, sensor_uncertainty=s.sensor_sigma, estimation_window=s.estimation_window
    ),
    "dtdr_timeout": lambda s, us: DisconnectionDetectionDeadReckoning(
        us, disconnect_timeout=20.0, sensor_uncertainty=s.sensor_sigma,
        estimation_window=s.estimation_window,
    ),
    "higher_order": _configured("higher_order"),
    "known_route": _configured("known_route"),
    "map": _configured("map"),
    "map_probabilistic": lambda s, us: ProbabilisticMapBasedProtocol(
        us, s.roadmap, _learned_turns(s), s.sensor_sigma, s.estimation_window,
        config=_map_config(s),
    ),
    "map_speed_limit": lambda s, us: MapBasedProtocol(
        us, s.roadmap, s.sensor_sigma, s.estimation_window,
        config=_map_config(s, speed_limit_factor=0.8),
    ),
}

#: The builders whose protocols have no deadline.
UNTIMED = sorted(set(BUILDERS) - {"time_for_speed", "time_fixed", "dtdr_timeout"})

ACCURACIES = (50.0, 200.0)


def _scenario(name):
    return ScenarioSpec(name=name, scale=SCALES.get(name, DEFAULT_SCALE)).build()


def _prepared(protocol, trace):
    times, positions = trace.times, trace.positions
    velocities, speeds = estimate_trace(times, positions, protocol.estimation_window)
    protocol.prepare_trace(times, positions, velocities, speeds)
    return protocol


def _keys(stream):
    return [(t, _message_key(m)) for t, m in stream]


@pytest.mark.parametrize("variant", sorted(BUILDERS))
@pytest.mark.parametrize("name", scenario_names())
class TestOneDecisionPath:
    def test_lane_updates_equal_the_per_sighting_agenda(self, name, variant):
        scenario = _scenario(name)
        build = BUILDERS[variant]
        for accuracy in ACCURACIES:
            searched = _prepared(build(scenario, accuracy), scenario.sensor_trace)
            stepped = _prepared(build(scenario, accuracy), scenario.sensor_trace)
            stream, fires = lane_updates(searched)
            expected, expected_fires = sighting_updates(stepped)
            assert _keys(stream) == _keys(expected), (name, variant, accuracy)
            assert fires == expected_fires, (name, variant, accuracy)
            assert getattr(searched, "disconnection_times", None) == getattr(
                stepped, "disconnection_times", None
            )
            assert len(stream) > 1


@pytest.mark.parametrize("variant", UNTIMED)
@pytest.mark.parametrize("name", scenario_names())
class TestStreamObserveParity:
    def test_stream_observe_sends_the_fleet_messages(self, name, variant):
        scenario = _scenario(name)
        trace = scenario.sensor_trace
        build = BUILDERS[variant]
        for accuracy in ACCURACIES:
            fleet = _keys(trace_updates(build(scenario, accuracy), trace))
            streamed = stream_observe(build(scenario, accuracy), trace.times, trace.positions)
            oracle = [
                (t, _message_key(m))
                for t, m in zip(trace.times.tolist(), streamed)
                if m is not None
            ]
            assert fleet == oracle, (name, variant, accuracy)
            assert len(fleet) > 1
