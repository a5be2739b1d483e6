"""The source side of the location service.

A :class:`LocationSource` couples one mobile object's sensor stream with an
update protocol and a message channel: every sensor sighting is handed to
the protocol, and any update the protocol emits is sent over the channel's
polled queue towards the server.  It is the per-sighting driver of the
examples and benchmarks that feed sightings one at a time; the fleet
simulation computes each lane's whole update stream at once instead
(:func:`repro.sim.fleet.lane_updates`).
"""

from __future__ import annotations

from typing import List, Optional

from repro.geo.vec import Vec2
from repro.protocols.base import UpdateMessage, UpdateProtocol
from repro.service.channel import MessageChannel


class LocationSource:
    """Sensor-side driver of an update protocol.

    Parameters
    ----------
    object_id:
        Identifier of the mobile object at the server.
    protocol:
        The update protocol instance making the send decisions.
    channel:
        The channel used to transmit updates; when omitted a loss-free,
        zero-latency channel is created.
    """

    def __init__(
        self,
        object_id: str,
        protocol: UpdateProtocol,
        channel: Optional[MessageChannel] = None,
    ):
        self.object_id = object_id
        self.protocol = protocol
        self.channel = channel or MessageChannel()
        self._sent_messages: List[UpdateMessage] = []

    def process_sighting(self, time: float, position: Vec2) -> Optional[UpdateMessage]:
        """Feed one sensor sighting; transmit and return the update, if any."""
        message = self.protocol.observe(time, position)
        if message is not None:
            self.channel.send(self.object_id, message, time)
            self._sent_messages.append(message)
        return message

    @property
    def sent_messages(self) -> List[UpdateMessage]:
        """Every update transmitted so far (in order)."""
        return list(self._sent_messages)

    @property
    def updates_sent(self) -> int:
        """Number of updates transmitted so far."""
        return len(self._sent_messages)
