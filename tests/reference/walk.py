"""The per-sample measurement walk, kept as the fleet's measurement oracle.

``src/`` measures every lane from its own delivered stream on arrays
(:meth:`repro.sim.fleet._LaneState.measure`).  :class:`WalkedFleet` is a
:class:`~repro.sim.fleet.FleetSimulation` that measures the way the fleet
did before: every lane's :func:`~repro.sim.fleet.lane_updates` stream is
pushed through its channel, then the merged sample stream — every lane's
sightings in time order, simultaneous ones in lane order — is walked beside
the delivery instants, sorted by ``(deliver_at, channel order, object id,
sequence)``.  At each instant the delivered updates are ingested as one
batch, then the backend's ``predict_position`` / ``predict_positions`` is
asked for each sampled lane and its error taken with scalar
:func:`~repro.geo.vec.distance`.

It covers what the tick-loop oracle (``reference.tick_loop``) cannot
reproduce: timers and latency off the sampling grid, and any backend
(a sharded :class:`~repro.service.facade.LocationService` included).
"""

from __future__ import annotations

import math
from typing import List

import numpy as np

from repro.geo.vec import distance
from repro.obs.trace import DELIVERY, KIND_NAMES, SAMPLE, TIMER
from repro.service.channel import MessageChannel
from repro.sim.fleet import FleetSimulation, lane_updates


class WalkedFleet(FleetSimulation):
    """A fleet simulation measured sample by sample (test oracle only)."""

    def _run_loop(self, states: List, channels: List[MessageChannel]) -> None:
        server = self.server
        ingest = getattr(server, "ingest_batch", None)
        end_time = max(float(state.times[-1]) for state in states)
        channel_index = {channel: n for n, channel in enumerate(channels)}
        timer_fires = 0
        deliveries = []
        for state in states:
            object_id = state.lane.object_id
            channel = state.channel
            stream, fires = lane_updates(state.lane.protocol)
            timer_fires += fires
            delivered = []
            for t, message in stream:
                state.count_update(message)
                deliver_at = channel.transmit(object_id, message, t)
                if deliver_at is not None and deliver_at <= end_time:
                    deliveries.append(
                        (deliver_at, channel_index[channel], object_id, message.sequence, message)
                    )
                    delivered.append(message)
            channel.record_delivered(delivered)
        deliveries.sort()
        inf = math.inf
        deliver_times = [entry[0] for entry in deliveries] + [inf]

        times = np.concatenate([state.times for state in states])
        lane_of = np.repeat(np.arange(len(states)), [len(state.times) for state in states])
        index_of = np.concatenate([np.arange(len(state.times)) for state in states])
        order = np.lexsort((lane_of, times))
        sample_times = times[order].tolist() + [inf]
        sample_lanes = lane_of[order].tolist()
        sample_index = index_of[order].tolist()
        object_ids = [state.lane.object_id for state in states]
        errors: List[List[float]] = [[] for _ in states]

        def record(n: int, i: int, predicted) -> None:
            if predicted is not None:
                errors[n].append(distance(predicted, states[n].truth_positions[i]))

        k = 0
        d = 0
        while True:
            t = sample_times[k]
            if deliver_times[d] < t:
                t = deliver_times[d]
            elif t == inf:
                break
            if deliver_times[d] == t:
                first_delivery = d
                while deliver_times[d] == t:
                    d += 1
                batch = [(entry[2], entry[4]) for entry in deliveries[first_delivery:d]]
                if ingest is not None:
                    ingest(batch, t)
                else:
                    for oid, message in batch:
                        server.receive_update(oid, message, t)
            first = k
            while sample_times[k] == t:
                k += 1
            if k - first == 1:
                n = sample_lanes[first]
                record(n, sample_index[first], server.predict_position(object_ids[n], t))
            elif k > first:
                predicted = server.predict_positions(
                    [object_ids[sample_lanes[j]] for j in range(first, k)], t
                )
                for j, position in zip(range(first, k), predicted):
                    record(sample_lanes[j], sample_index[j], position)
        for state, lane_errors in zip(states, errors):
            state.errors = np.array(lane_errors, dtype=float)
        counts = {SAMPLE: len(times), TIMER: timer_fires, DELIVERY: len(deliveries)}
        for kind, name in KIND_NAMES.items():
            if counts[kind]:
                self.obs.counter(f"kernel.events.{name}").inc(counts[kind])
