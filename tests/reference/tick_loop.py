"""The classic time-stepped fleet loop, kept as a test oracle.

:class:`TickLoopFleet` is a :class:`~repro.sim.fleet.FleetSimulation` whose
loop hook replaces the fleet's send schedule with the per-timestep loop the
simulator used before it became event-driven: the union of every lane's
sample instants is the tick grid, and at each tick

1. every lane sampled at that tick processes its sighting (lanes in lane
   order) and sends any update over its channel's polled queue
   (:meth:`reference.streaming.PolledQueue.send`),
2. every channel those lanes use has its queue polled with
   :meth:`reference.streaming.PolledQueue.deliver_due` and the due
   messages are ingested as one batch,
3. the server's predictions for the sampled lanes are measured against
   ground truth.

Each lane's protocol runs the per-sighting rules of
:class:`reference.per_sighting.SightingStepper`.  Protocol timers are
never consulted: time-triggered protocols poll their deadlines on every
sighting, and a message is delivered at the first tick
at or after ``send_time + latency``.  When every lane shares one sampling
grid, latency is a multiple of it and no timer deadline falls off it, the
fleet's schedule (:func:`~repro.sim.fleet.lane_updates` pushed through
each channel, each lane measured from its own delivered stream, then the
deliveries ingested in time order) must reproduce this loop bit for bit;
the equivalence tests assert exactly that.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.geo.vec import distance
from repro.service.channel import MessageChannel
from repro.sim.fleet import FleetSimulation
from repro.traces.estimation import estimate_trace

from reference.per_sighting import SightingStepper
from reference.streaming import PolledQueue


class TickLoopFleet(FleetSimulation):
    """A fleet simulation stepped tick by tick (test oracle only)."""

    def _run_loop(self, states: List, channels: List[MessageChannel]) -> None:
        server = self.server
        times_all = np.concatenate([state.times for state in states])
        lane_ix = np.concatenate(
            [np.full(len(state.times), n, dtype=np.intp) for n, state in enumerate(states)]
        )
        sample_ix = np.concatenate(
            [np.arange(len(state.times), dtype=np.intp) for state in states]
        )
        order = np.lexsort((lane_ix, times_all))
        t_sorted = times_all[order]
        lane_sorted = lane_ix[order].tolist()
        sample_sorted = sample_ix[order].tolist()
        t_list = t_sorted.tolist()
        # Boundaries of runs of identical timestamps.
        starts = np.flatnonzero(np.r_[True, t_sorted[1:] != t_sorted[:-1]]).tolist()
        starts.append(len(t_list))

        ingest = getattr(server, "ingest_batch", None)
        queues: Dict[int, PolledQueue] = {}
        steppers = {}
        sightings = {}
        errors: Dict[int, List[float]] = {id(state): [] for state in states}
        for state in states:
            queues.setdefault(id(state.channel), PolledQueue(state.channel))
            steppers[id(state)] = SightingStepper(state.lane.protocol)
            # The oracle's own speed/heading estimates of every sighting.
            trace = state.lane.sensor_trace
            window = state.lane.protocol.estimation_window
            sightings[id(state)] = (
                trace.positions, *estimate_trace(trace.times, trace.positions, window)
            )
        for g in range(len(starts) - 1):
            lo, hi = starts[g], starts[g + 1]
            t = t_list[lo]
            batch = [(states[lane_sorted[e]], sample_sorted[e]) for e in range(lo, hi)]
            seen: List[PolledQueue] = []
            for state, i in batch:
                queue = queues[id(state.channel)]
                _sighting(state, steppers[id(state)], sightings[id(state)], queue, i, t)
                if queue not in seen:
                    seen.append(queue)
            delivered: List = []
            for queue in seen:
                delivered.extend(queue.deliver_due(t))
            if delivered:
                if ingest is not None:
                    ingest(delivered, t)
                else:
                    for obj_id, message in delivered:
                        server.receive_update(obj_id, message, t)
            predicted = server.predict_positions(
                [state.lane.object_id for state, _ in batch], t
            )
            for (state, i), position in zip(batch, predicted):
                if position is not None:
                    errors[id(state)].append(distance(position, state.truth_positions[i]))
        for state in states:
            state.errors = np.array(errors[id(state)], dtype=float)


def _sighting(
    state, stepper: SightingStepper, sightings, queue: PolledQueue, i: int, t: float
) -> None:
    """Feed sample *i* to the lane's protocol; send any update it emits.

    *sightings* is the lane's ``(positions, velocities, speeds)``.
    """
    positions, velocities, speeds = sightings
    message = stepper.observe(i, t, positions[i], velocities[i], float(speeds[i]))
    if message is not None:
        queue.send(state.lane.object_id, message, t)
        state.count_update(message)
