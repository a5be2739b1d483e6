"""The protocol simulation loop.

:class:`ProtocolSimulation` replays a sensor trace through a source running
an update protocol, transmits the resulting updates over a message channel
to a location server, and measures the error between the server's predicted
position and the ground truth at every sample — the paper's experimental
setup (Sec. 4).

Since the fleet refactor this is a thin single-lane façade over
:class:`~repro.sim.fleet.FleetSimulation`: one object, one protocol, one
trace, same semantics as before, same engine underneath as every other
entry point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.protocols.base import UpdateProtocol
from repro.service.channel import MessageChannel
from repro.sim.fleet import FleetLane, FleetSimulation
from repro.sim.metrics import SimulationResult
from repro.traces.trace import Trace


@dataclass
class ProtocolSimulation:
    """One object, one protocol, one trace.

    Parameters
    ----------
    protocol:
        The (source-side) update protocol under test.
    sensor_trace:
        What the positioning sensor reports (noisy positions).
    truth_trace:
        Ground-truth positions used to measure the accuracy actually
        delivered at the server.  Must be sampled at the same timestamps as
        the sensor trace.  When omitted, the sensor trace doubles as truth.
    channel:
        Source-to-server channel; defaults to loss-free and instantaneous.
    object_id:
        Identifier under which the object is registered at the server.
    count_initial_update:
        Whether the very first update (the one that bootstraps the server)
        is included in the update count.  The paper counts transmitted
        messages, so the default is ``True``; the effect on updates/hour is
        negligible for hour-long traces.
    """

    protocol: UpdateProtocol
    sensor_trace: Trace
    truth_trace: Optional[Trace] = None
    channel: Optional[MessageChannel] = None
    object_id: str = "object-0"
    count_initial_update: bool = True

    def run(self) -> SimulationResult:
        """Execute the simulation and return the collected metrics."""
        fleet = FleetSimulation(
            [
                FleetLane(
                    object_id=self.object_id,
                    protocol=self.protocol,
                    sensor_trace=self.sensor_trace,
                    truth_trace=self.truth_trace,
                    channel=self.channel,
                )
            ],
            count_initial_update=self.count_initial_update,
        )
        return fleet.run().results[self.object_id]


def run_simulation(
    protocol: UpdateProtocol,
    sensor_trace: Trace,
    truth_trace: Optional[Trace] = None,
    channel: Optional[MessageChannel] = None,
) -> SimulationResult:
    """Convenience wrapper around :class:`ProtocolSimulation`."""
    return ProtocolSimulation(
        protocol=protocol,
        sensor_trace=sensor_trace,
        truth_trace=truth_trace,
        channel=channel,
    ).run()
