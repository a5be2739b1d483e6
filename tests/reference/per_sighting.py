"""The per-sighting source loop and its timer agenda, kept as the search's oracle.

``src/`` decides a protocol's sends with one array search
(:func:`repro.sim.fleet.lane_updates`) over each protocol's window
trigger.  This module keeps the shape the protocols had before: one call
per sighting, a pre-decision hook holding each protocol's running state,
a scalar ``should_update`` rule, and a heap of timer deadlines.  The rules
are written out per protocol with scalar ``predict`` and
:func:`~repro.geo.vec.distance`, independent of the triggers they check;
only the update itself is built by the protocol
(``protocol._emit_update``).

* :class:`SightingStepper` — one prepared protocol fed sighting by
  sighting; :meth:`SightingStepper.on_timer` acts on a deadline.
* :func:`sighting_updates` — a whole prepared trace through a stepper and
  the heap agenda: the sends and timer fires ``lane_updates`` must equal.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import List, Optional, Tuple

import numpy as np

from repro.geo.vec import as_vec, distance
from repro.protocols.adaptive import (
    DisconnectionDetectionDeadReckoning,
    _LinearPredictionThresholdProtocol,
)
from repro.protocols.base import UpdateMessage, UpdateProtocol, UpdateReason
from repro.protocols.higher_order import HigherOrderPredictionProtocol
from repro.protocols.known_route import KnownRouteProtocol
from repro.protocols.mapbased import MapBasedProtocol
from repro.protocols.reporting import MovementBasedReporting, TimeBasedReporting


class SightingStepper:
    """One prepared protocol's source loop, one sighting per call.

    The protocol must be prepared for the trace whose rows are fed
    (:meth:`~repro.protocols.base.UpdateProtocol.prepare_trace`): an
    update reports its row of that trace.  Deadlines are polled on every
    sighting; :meth:`on_timer` acts on them at their exact instant for a
    caller that keeps an agenda.
    """

    def __init__(self, protocol: UpdateProtocol):
        self.protocol = protocol
        self.last_seen: Optional[int] = None
        self.travelled = 0.0
        self.last_position: Optional[np.ndarray] = None
        window = getattr(protocol, "acceleration_window", 2)
        self.velocities: deque = deque(maxlen=window)
        self.route_offset: Optional[float] = None

    def observe(
        self, row: int, time: float, position, velocity: np.ndarray, speed: float
    ) -> Optional[UpdateMessage]:
        """Process sighting *row* at *time*; return its update, if any."""
        protocol = self.protocol
        p = as_vec(position)
        self._pre_decision_hook(row, time, p, velocity)
        if protocol.last_reported is None:
            reason: Optional[UpdateReason] = UpdateReason.INITIAL
        else:
            reason = self._should_update(row, time, p)
        if reason is None:
            return None
        return self._emit(time, row, reason)

    def _pre_decision_hook(self, row, time, p, velocity) -> None:
        protocol = self.protocol
        self.last_seen = row
        if isinstance(protocol, MovementBasedReporting):
            if self.last_position is not None:
                self.travelled += distance(p, self.last_position)
            self.last_position = p.copy()
        elif isinstance(protocol, HigherOrderPredictionProtocol):
            self.velocities.append((time, velocity.copy()))
        elif isinstance(protocol, KnownRouteProtocol):
            if self.route_offset is None:
                self.route_offset = protocol.route.project(p)[1]
            else:
                self.route_offset = protocol.route.project_near(p, self.route_offset)[1]
        elif isinstance(protocol, DisconnectionDetectionDeadReckoning):
            # Polled detection: declared at the first sighting past the
            # timeout rather than at the exact instant.
            deadline = protocol.next_deadline()
            if deadline is not None and time >= deadline:
                protocol._on_deadline(time)

    def _threshold_exceeded(self, time, p, threshold) -> bool:
        protocol = self.protocol
        predicted = protocol.prediction_function().predict(protocol.last_reported, time)
        return distance(p, predicted) + protocol.sensor_uncertainty > threshold

    def _should_update(self, row, time, p) -> Optional[UpdateReason]:
        protocol = self.protocol
        last = protocol.last_reported
        if isinstance(protocol, TimeBasedReporting):
            if time - last.time >= protocol.interval:
                return UpdateReason.TIMER
            return None
        if isinstance(protocol, MovementBasedReporting):
            if self.travelled + protocol.sensor_uncertainty > protocol.accuracy:
                return UpdateReason.THRESHOLD
            return None
        if isinstance(protocol, MapBasedProtocol):
            matched = bool(protocol.match_stream.matched[row])
            config = protocol.config
            if config.update_on_off_map and not matched and last.link_id is not None:
                return UpdateReason.OFF_MAP
            if config.update_on_reacquire and matched and last.link_id is None:
                return UpdateReason.REACQUIRED
        threshold = protocol.accuracy
        if isinstance(protocol, _LinearPredictionThresholdProtocol):
            threshold = self._current_threshold(time)
        if self._threshold_exceeded(time, p, threshold):
            return UpdateReason.THRESHOLD
        return None

    def _current_threshold(self, time: float) -> float:
        protocol = self.protocol
        if isinstance(protocol, DisconnectionDetectionDeadReckoning):
            if protocol.last_reported is None:
                return protocol.accuracy
            elapsed = max(0.0, time - protocol.last_reported.time)
            fraction = max(protocol.floor_fraction, 1.0 - elapsed / protocol.decay_time)
            return protocol.accuracy * fraction
        # adr keeps its adapted threshold; sdr's is the accuracy.
        return getattr(protocol, "_threshold", protocol.accuracy)

    def _emit(self, time: float, row: int, reason: UpdateReason) -> UpdateMessage:
        message = self.protocol._emit_update(time, row, reason)
        state = message.state
        if isinstance(self.protocol, MovementBasedReporting):
            self.travelled = 0.0
        elif isinstance(self.protocol, HigherOrderPredictionProtocol):
            expected = self._current_acceleration()
            assert _bytes(state.acceleration) == _bytes(expected), (row, expected)
        elif isinstance(self.protocol, KnownRouteProtocol):
            assert state.link_offset == self.route_offset, (row, state.link_offset)
        return message

    def _current_acceleration(self) -> Optional[np.ndarray]:
        if len(self.velocities) < 2:
            return None
        (t0, v0), (t1, v1) = self.velocities[0], self.velocities[-1]
        dt = t1 - t0
        if dt <= 0:
            return None
        return (v1 - v0) / dt

    def on_timer(self, time: float) -> Optional[UpdateMessage]:
        """Act on the deadline at exactly *time* (stale fires are ignored)."""
        protocol = self.protocol
        deadline = protocol.next_deadline()
        if deadline is None or self.last_seen is None or time < deadline:
            return None
        reason = protocol._on_deadline(time)
        if reason is None:
            return None
        return self._emit(time, self.last_seen, reason)


def _bytes(vector: Optional[np.ndarray]) -> Optional[bytes]:
    return None if vector is None else vector.tobytes()


def sighting_updates(protocol: UpdateProtocol) -> Tuple[List[Tuple[float, UpdateMessage]], int]:
    """Every ``(send_time, update)`` of a prepared protocol, and its timer fires.

    Sighting by sighting through a :class:`SightingStepper`, with the
    timer agenda: at each sample instant the timers
    due before it fire first, then the sighting goes, then the timers due
    at that instant.  A popped timer fires only if its deadline is still
    current, and a deadline declined without moving is not re-armed (the
    progress guard: re-arming would spin forever at one instant).
    Deadlines past the lane's last sighting are never armed.  The second
    value counts :meth:`SightingStepper.on_timer` calls.
    """
    stepper = SightingStepper(protocol)
    times = protocol._times
    positions = protocol._positions
    velocities = protocol._velocities
    speeds = protocol._speeds
    lane_end = float(times[-1])
    updates: List[Tuple[float, UpdateMessage]] = []
    fires = 0
    # Scheduled deadlines; superseded ones stay and are skipped when popped.
    agenda: List[float] = []
    armed: Optional[float] = None

    def arm() -> None:
        nonlocal armed
        deadline = protocol.next_deadline()
        if deadline is None or deadline == armed or deadline > lane_end:
            return
        heapq.heappush(agenda, deadline)
        armed = deadline

    def fire_timers(until: float, inclusive: bool) -> None:
        nonlocal armed, fires
        while agenda and (agenda[0] < until or inclusive and agenda[0] == until):
            deadline = heapq.heappop(agenda)
            if armed == deadline:
                armed = None
            if protocol.next_deadline() == deadline:
                fires += 1
                message = stepper.on_timer(deadline)
                if message is not None:
                    updates.append((deadline, message))
                if protocol.next_deadline() == deadline:
                    armed = deadline  # declined: spent until it moves
                    continue
            arm()

    for i, (t, speed) in enumerate(zip(times.tolist(), speeds.tolist())):
        fire_timers(t, inclusive=False)
        message = stepper.observe(i, t, positions[i], velocities[i], speed)
        if message is not None:
            updates.append((t, message))
        arm()
        fire_timers(t, inclusive=True)
    return updates, fires
