"""The per-sighting send loop, kept as the first-crossing search's oracle.

:func:`sighting_updates` feeds a prepared protocol every sighting of a
trace through :meth:`~repro.protocols.base.UpdateProtocol.observe_precomputed`,
one Python call each, and collects what it sends.  For a protocol without
timers this is :func:`repro.sim.fleet.lane_updates`' definition; the
array search it runs for distance-based reporting and linear DR must send
exactly the same messages.
"""

from __future__ import annotations


def sighting_updates(protocol, times, positions, velocities, speeds):
    """Every ``(send_time, update)`` of a timer-free protocol, sighting by sighting."""
    updates = []
    for i, (t, speed) in enumerate(zip(times.tolist(), speeds.tolist())):
        message = protocol.observe_precomputed(t, positions[i], velocities[i], speed)
        if message is not None:
            updates.append((t, message))
    return updates
