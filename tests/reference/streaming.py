"""The streaming source, sighting by sighting, kept as a test oracle.

``src/`` feeds a protocol one whole trace at a time: the batch estimates of
:func:`~repro.traces.estimation.estimate_trace`, then
:meth:`~repro.protocols.base.UpdateProtocol.prepare_trace`, then
:func:`~repro.sim.fleet.lane_updates`, and the fleet delivers every message
at exactly its instant.  This module keeps the per-sighting shape of the
paper's source loop (Fig. 1) for the tests and for the seed-loop baseline
of ``benchmarks/bench_sweep_runner.py``:

* :func:`estimate_velocity` — the least-squares estimate over one window
  of sightings, and :class:`StateEstimator`, which slides it over a trace
  one sighting at a time; the oracle of ``estimate_trace`` /
  ``estimate_traces`` / ``estimate_at``.
* :func:`stream_observe` — a protocol fed one sighting at a time, its
  estimates from a :class:`StateEstimator`, through the per-sighting
  rules of :class:`reference.per_sighting.SightingStepper`.  Protocol
  timers are never consulted: a timed protocol polls its deadline on
  every sighting.
* :class:`PolledQueue` — an in-flight queue over
  :meth:`~repro.service.channel.MessageChannel.transmit`, delivering each
  message at the first poll at or after its delivery instant and recording
  the gap in ``ChannelStats.max_queue_delay``; the tick-loop oracle's
  delivery path.
* :class:`LocationSource` — one object's protocol sending over a polled
  queue, sighting by sighting.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Tuple

import numpy as np

from repro.geo.vec import Vec2, as_vec
from repro.protocols.base import UpdateMessage, UpdateProtocol
from repro.service.channel import MessageChannel

from reference.per_sighting import SightingStepper


def estimate_velocity(
    times: np.ndarray, positions: np.ndarray
) -> Tuple[np.ndarray, float]:
    """Least-squares velocity estimate from a window of sightings.

    Fits ``position(t) = p0 + v * t`` independently per axis over the given
    window and returns ``(velocity_vector, speed)``.  With exactly two
    samples this degenerates to the finite difference the paper uses for the
    freeway case; larger windows average out sensor noise at the cost of lag,
    matching the trade-off described in the paper.
    """
    times = np.asarray(times, dtype=float)
    positions = np.asarray(positions, dtype=float)
    if len(times) < 2:
        return np.zeros(2), 0.0
    t = times - times[-1]
    # Least squares slope per axis: cov(t, x) / var(t).  The sums are written
    # as elementwise products reduced with ``sum`` so that the batched
    # implementation in :func:`~repro.traces.estimation.estimate_traces` performs bitwise-identical
    # arithmetic row by row.
    t_mean = t.mean()
    t_centered = t - t_mean
    denom = float((t_centered * t_centered).sum())
    if denom == 0.0:
        return np.zeros(2), 0.0
    vx = float((t_centered * (positions[:, 0] - positions[:, 0].mean())).sum()) / denom
    vy = float((t_centered * (positions[:, 1] - positions[:, 1].mean())).sum()) / denom
    velocity = np.array([vx, vy])
    speed = float(np.hypot(vx, vy))
    return velocity, speed


class StateEstimator:
    """Sliding-window speed/heading estimator fed one sighting at a time.

    ``window`` is the number of most recent sightings used for the estimate
    (the paper's *n*); ``window = 2`` is a simple finite difference.
    """

    def __init__(self, window: int = 4):
        if window < 2:
            raise ValueError("window must be at least 2")
        self.window = int(window)
        self._times: Deque[float] = deque(maxlen=window)
        self._positions: Deque[np.ndarray] = deque(maxlen=window)

    def reset(self) -> None:
        """Forget all past sightings."""
        self._times.clear()
        self._positions.clear()

    def update(self, time: float, position: Vec2) -> Tuple[np.ndarray, float]:
        """Add a sighting and return the current ``(velocity, speed)`` estimate.

        Until two sightings have been seen the estimate is zero velocity.
        """
        self._times.append(float(time))
        self._positions.append(as_vec(position))
        if len(self._times) < 2:
            return np.zeros(2), 0.0
        return estimate_velocity(np.array(self._times), np.array(self._positions))

    @property
    def n_samples(self) -> int:
        """Number of sightings currently inside the window."""
        return len(self._times)

    def current_direction(self) -> np.ndarray:
        """Unit direction of the current velocity estimate (zero if unknown)."""
        if len(self._times) < 2:
            return np.zeros(2)
        velocity, speed = estimate_velocity(np.array(self._times), np.array(self._positions))
        if speed == 0.0:
            return np.zeros(2)
        return velocity / speed


def stream_observe(
    protocol: UpdateProtocol, times, positions
) -> List[Optional[UpdateMessage]]:
    """Feed *protocol* a trace sighting by sighting; one entry per sighting.

    Estimates speed and heading with a :class:`StateEstimator` of the
    protocol's window, sighting by sighting, hands the trace to
    :meth:`~repro.protocols.base.UpdateProtocol.prepare_trace`, then makes
    one :meth:`reference.per_sighting.SightingStepper.observe` call per
    sighting.  Entry *i* is the update sent at sighting *i*, or ``None``.
    """
    times = np.asarray(times, dtype=float)
    positions = np.asarray(positions, dtype=float)
    estimator = StateEstimator(protocol.estimation_window)
    velocities = np.zeros((len(times), 2))
    speeds = np.zeros(len(times))
    for i, t in enumerate(times.tolist()):
        velocities[i], speeds[i] = estimator.update(t, positions[i])
    protocol.prepare_trace(times, positions, velocities, speeds)
    stepper = SightingStepper(protocol)
    return [
        stepper.observe(i, t, positions[i], velocities[i], float(speeds[i]))
        for i, t in enumerate(times.tolist())
    ]


def delivery_order(entry: Tuple[float, str, UpdateMessage]) -> Tuple[float, str, int]:
    """Sort key for a batch of ``(deliver_at, object_id, message)``.

    Two messages can share ``(deliver_at, object_id)`` — a zero-latency
    channel carrying a sighting-triggered and a timer-triggered send from
    the same instant, for example — and :class:`UpdateMessage` has no
    ordering, so the message's sequence number (send order per object) is
    the tie-break, as in the fleet's delivery order.
    """
    deliver_at, object_id, message = entry
    return (deliver_at, object_id, message.sequence)


class PolledQueue:
    """A channel's in-flight messages, delivered when a poll reaches them."""

    def __init__(self, channel: MessageChannel):
        self.channel = channel
        self._in_flight: List[Tuple[float, str, UpdateMessage]] = []

    def send(self, object_id: str, message: UpdateMessage, time: float) -> None:
        """Transmit *message* over the channel; queue it unless it was lost."""
        deliver_at = self.channel.transmit(object_id, message, time)
        if deliver_at is not None:
            self._in_flight.append((deliver_at, object_id, message))

    def deliver_due(self, time: float) -> List[Tuple[str, UpdateMessage]]:
        """Pop every message whose delivery instant is at or before *time*.

        The worst gap between a popped message's delivery instant and
        *time* is recorded on the channel's ``stats.max_queue_delay``.
        """
        due = [entry for entry in self._in_flight if entry[0] <= time]
        if not due:
            return []
        self._in_flight = [entry for entry in self._in_flight if entry[0] > time]
        self.channel.record_delivered([m for _, _, m in due])
        stats = self.channel.stats
        stats.max_queue_delay = max(
            stats.max_queue_delay, max(time - deliver_at for deliver_at, _, _ in due)
        )
        due.sort(key=delivery_order)
        return [(object_id, message) for _, object_id, message in due]

    @property
    def in_flight(self) -> int:
        """Number of messages sent and not yet delivered."""
        return len(self._in_flight)


class LocationSource:
    """One object's protocol, sending over a polled queue sighting by sighting.

    *channel* defaults to a loss-free, zero-latency one.
    """

    def __init__(
        self,
        object_id: str,
        protocol: UpdateProtocol,
        channel: Optional[MessageChannel] = None,
    ):
        self.object_id = object_id
        self.protocol = protocol
        self.queue = PolledQueue(channel or MessageChannel())
        self.sent_messages: List[UpdateMessage] = []

    @property
    def channel(self) -> MessageChannel:
        return self.queue.channel

    @property
    def updates_sent(self) -> int:
        return len(self.sent_messages)

    def sightings(self, times, positions):
        """Yield each sighting's time once its update, if any, is sent."""
        messages = stream_observe(self.protocol, times, positions)
        for t, message in zip(np.asarray(times, dtype=float).tolist(), messages):
            if message is not None:
                self.queue.send(self.object_id, message, t)
                self.sent_messages.append(message)
            yield t
