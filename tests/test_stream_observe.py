"""The streaming source oracle against the fleet's sighting path.

``reference.streaming.stream_observe`` estimates speed and heading sighting
by sighting (``StateEstimator``) and makes one ``observe_precomputed`` call
per sighting.  ``repro.sim.fleet.trace_updates`` estimates the whole trace
at once and runs ``lane_updates``, which takes the first-crossing search for
distance-based reporting, linear DR and map-based DR.  For a protocol
without timers both must send the same messages at the same sightings, bit
for bit, on every library scenario.
"""

import pytest

from repro.experiments.library import scenario_names
from repro.sim.config import SimulationConfig
from repro.sim.fleet import trace_updates
from repro.sim.runner import ScenarioSpec

from reference.streaming import stream_observe
from test_mapmatching_stream import DEFAULT_SCALE, SCALES, _message_key

#: Every timer-free protocol the experiments build.
PROTOCOL_IDS = ["distance", "linear", "map", "movement", "higher_order", "known_route"]


@pytest.mark.parametrize("protocol_id", PROTOCOL_IDS)
@pytest.mark.parametrize("name", scenario_names())
class TestStreamObserveParity:
    def test_stream_observe_sends_the_fleet_messages(self, name, protocol_id):
        scenario = ScenarioSpec(name=name, scale=SCALES.get(name, DEFAULT_SCALE)).build()
        trace = scenario.sensor_trace
        for accuracy in (50.0, 200.0):
            config = SimulationConfig(protocol_id=protocol_id, accuracy=accuracy)
            fleet = [
                (t, _message_key(m))
                for t, m in trace_updates(config.build_protocol(scenario), trace)
            ]
            streamed = stream_observe(
                config.build_protocol(scenario), trace.times, trace.positions
            )
            oracle = [
                (t, _message_key(m))
                for t, m in zip(trace.times.tolist(), streamed)
                if m is not None
            ]
            assert fleet == oracle, (name, protocol_id, accuracy)
            assert len(fleet) > 1
