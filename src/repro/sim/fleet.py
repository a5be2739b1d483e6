"""Fleet-scale simulation: many objects through one time-ordered loop.

:class:`FleetSimulation` is the simulation core every experiment entry point
ultimately runs on.  It steps any number of *lanes* — one (object, protocol,
trace) combination each — through a single merged, time-ordered event loop
against one shared :class:`~repro.service.server.LocationServer` and one (or
several) :class:`~repro.service.channel.MessageChannel`\\ s, and collects one
:class:`~repro.sim.metrics.SimulationResult` per object plus aggregates.

Design properties the rest of the stack relies on:

* **Equivalence** — because objects only interact through their own channel
  and server record, a fleet run of N lanes produces exactly the same
  per-object updates and error samples as N independent single-object runs
  (for deterministic channels; a *shared* lossy channel draws its losses
  from one RNG stream and therefore differs from N per-run RNGs).
  :func:`run_simulation`, the single-object entry point, is a one-lane
  fleet, so the equivalence is structural, not coincidental.
* **Vectorised hot path** — speed/heading estimates for each sensor trace
  are precomputed in one batched pass
  (:func:`repro.traces.estimation.estimate_trace`, bitwise identical to the
  streaming estimator), server queries go through the batch
  :meth:`~repro.service.server.LocationServer.predict_positions` API once
  per timestep, and error samples are accumulated into
  :class:`~repro.sim.metrics.AccuracyMetrics` as one array per lane.
* **One event-driven kernel** — the fleet runs on the discrete-event
  schedule of :mod:`repro.sim.kernel`: protocol timers fire at their exact
  deadlines, channel messages arrive at exactly ``send_time + latency``,
  workload queries may arrive as a Poisson process, and sharded backends
  can get periodic handoff maintenance.  Sightings are the one event kind
  known in advance, so they are not pushed through the agenda one by one:
  every lane's sample times are merged once into a time-ordered stream
  (ties in lane order) that the loop walks beside the agenda.  When every
  lane shares one sampling grid, channel latency is a multiple of it and
  no protocol timer falls off it, the schedule degenerates to the classic
  per-timestep loop, and the results are bit-identical to it (the
  test-suite keeps that loop as an oracle and asserts the identity over
  the whole scenario library).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.geo.bbox import BoundingBox
from repro.geo.vec import distance
from repro.obs import Observability
from repro.obs.metrics import publish_service_stats
from repro.protocols.base import UpdateProtocol
from repro.service.channel import ChannelStats, MessageChannel, delivery_order
from repro.service.facade import LocationService
from repro.service.server import LocationServer
from repro.service.sharding import GridHashPolicy
from repro.service.source import LocationSource
from repro.sim.kernel import (
    DELIVERY,
    HANDOFF,
    KIND_NAMES,
    QUERY,
    SAMPLE,
    TIMER,
    EventKernel,
)
from repro.sim.metrics import AccuracyMetrics, SimulationResult
from repro.sim.workload import QueryWorkload, WorkloadExecutor, WorkloadReport
from repro.traces.estimation import estimate_trace
from repro.traces.trace import Trace


@dataclass(slots=True)
class FleetLane:
    """One (object, protocol, trace) combination stepped by the fleet loop.

    Parameters
    ----------
    object_id:
        Identifier under which the object is registered at the server.
    protocol:
        The source-side update protocol; every lane needs its own instance
        (protocols are stateful).
    sensor_trace:
        What the positioning sensor reports (noisy positions).
    truth_trace:
        Ground truth for the error measurement; the sensor trace doubles as
        truth when omitted.  Must share the sensor trace's timestamps.
    channel:
        Source-to-server channel for this lane; lanes without one share the
        fleet's default channel.
    """

    object_id: str
    protocol: UpdateProtocol
    sensor_trace: Trace
    truth_trace: Optional[Trace] = None
    channel: Optional[MessageChannel] = None


@dataclass
class FleetResult:
    """Outcome of one fleet run: per-object results plus aggregates.

    ``service_stats`` carries the serving tier's per-shard load and query
    counters when the fleet ran against a
    :class:`~repro.service.facade.LocationService` backend (empty for the
    plain single server); ``workload`` is the replayed query workload's
    report, when one was attached.
    """

    results: Dict[str, SimulationResult]
    service_stats: Dict[str, object] = field(default_factory=dict)
    workload: Optional[WorkloadReport] = None

    @property
    def object_ids(self) -> List[str]:
        """Tracked object ids, in lane order."""
        return list(self.results)

    @property
    def total_updates(self) -> int:
        """Update messages summed over the whole fleet."""
        return sum(r.updates for r in self.results.values())

    @property
    def total_bytes_sent(self) -> int:
        """Update payload bytes summed over the whole fleet."""
        return sum(r.bytes_sent for r in self.results.values())

    @property
    def object_hours(self) -> float:
        """Total simulated object-hours (sum of lane durations)."""
        return sum(r.duration_h for r in self.results.values())

    @property
    def updates_per_object_hour(self) -> float:
        """Fleet-level headline metric: updates per simulated object-hour."""
        hours = self.object_hours
        return self.total_updates / hours if hours > 0 else 0.0

    def aggregate_metrics(self) -> AccuracyMetrics:
        """Error metrics pooled over every object of the fleet."""
        pooled = AccuracyMetrics()
        for result in self.results.values():
            pooled.merge(result.metrics)
        return pooled

    def as_rows(self) -> List[Dict[str, object]]:
        """One flat dictionary per object (report / artifact form)."""
        return [
            {"object": object_id, **result.as_dict()}
            for object_id, result in self.results.items()
        ]


class _LaneState:
    """Run-time state of one lane inside the fleet loop."""

    __slots__ = (
        "lane", "channel", "source", "metrics", "reasons", "times",
        "sensor_positions", "truth_positions", "velocities", "speeds",
        "errors",
    )

    def __init__(self, lane: FleetLane, channel: MessageChannel):
        truth = lane.truth_trace if lane.truth_trace is not None else lane.sensor_trace
        if len(truth) != len(lane.sensor_trace):
            raise ValueError("sensor and truth traces must have the same length")
        if not np.allclose(truth.times, lane.sensor_trace.times):
            raise ValueError("sensor and truth traces must share their timestamps")
        self.lane = lane
        self.channel = channel
        self.source = LocationSource(lane.object_id, lane.protocol, channel)
        self.metrics = AccuracyMetrics()
        self.metrics.set_bound(lane.protocol.accuracy)
        self.reasons: Dict[str, int] = {}
        self.times = lane.sensor_trace.times
        self.sensor_positions = lane.sensor_trace.positions
        self.truth_positions = truth.positions
        self.velocities, self.speeds = estimate_trace(
            self.times, self.sensor_positions, lane.protocol.estimator.window
        )
        self.errors: List[float] = []

    def process_sighting(self, i: int, t: float) -> None:
        """Feed sample *i* to the protocol; transmit any resulting update."""
        message = self.source.process_estimated(
            t, self.sensor_positions[i], self.velocities[i], float(self.speeds[i])
        )
        if message is not None:
            key = message.reason.value
            self.reasons[key] = self.reasons.get(key, 0) + 1

    def process_timer(self, t: float) -> None:
        """Fire the protocol's timer at *t*; transmit any resulting update.

        The timer counterpart of :meth:`process_sighting`, sharing its
        per-update bookkeeping.
        """
        message = self.source.process_timer(t)
        if message is not None:
            key = message.reason.value
            self.reasons[key] = self.reasons.get(key, 0) + 1

    def record_error(self, i: int, predicted: Optional[np.ndarray]) -> None:
        """Measure the server's error against ground truth at sample *i*."""
        if predicted is not None:
            self.errors.append(distance(predicted, self.truth_positions[i]))

    def finish(self, count_initial_update: bool) -> SimulationResult:
        """Materialise this lane's :class:`SimulationResult`."""
        self.metrics.record_batch(self.errors)
        protocol = self.lane.protocol
        updates = self.source.updates_sent
        if not count_initial_update and updates > 0:
            updates -= 1
        matcher_stats = {}
        matching_statistics = getattr(protocol, "matching_statistics", None)
        if callable(matching_statistics):
            matcher_stats = matching_statistics()
        return SimulationResult(
            protocol_name=protocol.name,
            accuracy=protocol.accuracy,
            duration_h=self.lane.sensor_trace.duration / 3600.0,
            updates=updates,
            bytes_sent=protocol.bytes_sent,
            metrics=self.metrics,
            update_reasons=self.reasons,
            matcher_stats=matcher_stats,
        )


class FleetSimulation:
    """Step many (object, protocol, trace) lanes through one merged loop.

    Parameters
    ----------
    lanes:
        The fleet's lanes.  Object ids must be unique and protocol instances
        must not be shared between lanes.
    channel:
        Default channel shared by every lane that does not bring its own;
        loss-free and instantaneous when omitted.
    server:
        The service backend — a plain
        :class:`~repro.service.server.LocationServer` (fresh one when
        omitted) or a sharded
        :class:`~repro.service.facade.LocationService`.  Backends exposing
        ``ingest_batch`` receive each instant's delivered updates as one batch;
        with one shard the results are bit-identical to the single server.
    count_initial_update:
        Whether each object's bootstrap update counts towards its update
        total (the paper counts transmitted messages, so the default is
        ``True``).
    query_workload:
        Optional :class:`~repro.sim.workload.QueryWorkload` replayed against
        the backend's query surface at every sample instant (or, with an
        ``arrival_rate_per_s``, at Poisson arrival instants); its report
        lands on :attr:`FleetResult.workload`.  The backend must be a
        :class:`~repro.service.facade.LocationService`.
        Queries are read-only, so attaching a workload never changes the
        simulation results.
    record_query_answers:
        Keep every workload query's answer on
        ``self.workload_executor.answers`` (tests / benchmarks only).
    handoff_interval:
        Schedule a shard-boundary maintenance event every this many
        simulated seconds (the backend must be a
        :class:`~repro.service.facade.LocationService`), so drifting
        objects are handed between shards even while no query forces a
        prepare pass.  ``None`` (default) schedules no handoff events.
    processes:
        Number of worker processes.  With ``processes > 1`` the fleet is
        partitioned into spatial shards (a :class:`GridHashPolicy` over the
        lanes' starting positions) and each shard runs its own event
        kernel in a worker process against a replica of the (empty) server
        backend and channels; the parent merges the per-object results,
        channel counters and service statistics commutatively.  Because
        objects interact only through their own channel messages and server
        record — and seeded lossy channels draw each message's loss from
        ``(seed, object_id, sequence)``, not from a stream consumed in send
        order — the merged outcome is **bit-identical** to the
        single-process run: same updates, error samples, channel stats and
        service stats (asserted by the test-suite over the scenario
        library).  Multi-process runs reject the fleet shapes whose results
        genuinely depend on cross-object interleaving: unseeded lossy
        channels and query workloads (one global RNG stream).
    obs:
        Optional :class:`~repro.obs.Observability` bundle.  When attached,
        the run records per-event-kind counts, agenda depth, phase spans
        and per-lane work into it (workers of a multi-process run record
        into their own bundle; the parent merges the registries back
        commutatively).  The instruments only watch: results, goldens and
        bit-identity are unchanged whether ``obs`` is attached or not.
    """

    def __init__(
        self,
        lanes: Sequence[FleetLane],
        channel: Optional[MessageChannel] = None,
        server: Optional[LocationServer] = None,
        count_initial_update: bool = True,
        query_workload: Optional[QueryWorkload] = None,
        record_query_answers: bool = False,
        handoff_interval: Optional[float] = None,
        processes: int = 1,
        obs: Optional[Observability] = None,
    ):
        lanes = list(lanes)
        if not lanes:
            raise ValueError("a fleet needs at least one lane")
        ids = [lane.object_id for lane in lanes]
        if len(set(ids)) != len(ids):
            raise ValueError("lane object ids must be unique")
        protocols = {id(lane.protocol) for lane in lanes}
        if len(protocols) != len(lanes):
            raise ValueError("each lane needs its own protocol instance")
        self.lanes = lanes
        self.server = server if server is not None else LocationServer()
        self.shared_channel = channel if channel is not None else MessageChannel()
        self.count_initial_update = bool(count_initial_update)
        self.query_workload = query_workload
        self.record_query_answers = bool(record_query_answers)
        if handoff_interval is not None and handoff_interval <= 0:
            raise ValueError("handoff_interval must be positive")
        if (query_workload is not None or handoff_interval is not None) and not isinstance(
            self.server, LocationService
        ):
            raise ValueError(
                "query workloads and handoff events need a LocationService backend "
                "(its query surface and rebalance())"
            )
        self.handoff_interval = handoff_interval
        self.processes = int(processes)
        if self.processes < 1:
            raise ValueError("processes must be at least 1")
        if self.processes > 1:
            self._validate_multiprocess()
        self.obs = obs
        # Set by _ShardTask: worker runs record lane/kernel metrics into
        # their own registry but must not publish their *partial* service
        # stats — only the parent publishes, after the proven stats merge.
        self._obs_worker = False
        # Worker-shard clock overrides: a shard task runs a lane *subset*,
        # but handoff instants and the delivery horizon must be computed
        # from the whole fleet's clock for the merge to be bit-identical.
        self._clock_start: Optional[float] = None
        self._horizon: Optional[float] = None
        #: The executor of the last run's query workload (``None`` without one).
        self.workload_executor: Optional[WorkloadExecutor] = None

    def _validate_multiprocess(self) -> None:
        """Reject fleet shapes whose results depend on cross-object order."""
        if self.query_workload is not None:
            raise ValueError(
                "query workloads draw from one global RNG stream; "
                "processes > 1 cannot reproduce it — run the workload "
                "single-process"
            )
        channels: List[MessageChannel] = []
        for lane in self.lanes:
            ch = lane.channel if lane.channel is not None else self.shared_channel
            if ch not in channels:
                channels.append(ch)
        for ch in channels:
            if ch.loss_probability > 0.0 and ch._seed is None:
                raise ValueError(
                    "unseeded lossy channels draw losses from a shared RNG "
                    "stream in send order; seed the channel for "
                    "reproducible multi-process runs"
                )

    def run(self) -> FleetResult:
        """Execute the fleet simulation and return per-object results.

        ``run()`` is one-shot: it registers every lane's object with the
        server, so calling it again (or running a second fleet against the
        same long-lived server with overlapping ids) is rejected here,
        before any state is mutated.
        """
        if self.processes > 1:
            return self._run_multiprocess()
        server = self.server
        already = [lane.object_id for lane in self.lanes if server.is_registered(lane.object_id)]
        if already:
            raise ValueError(
                f"object ids already registered at the server: {already}; "
                "FleetSimulation.run() is one-shot — build a new fleet (and "
                "use unique ids) for another run"
            )
        # Build every lane state first: _LaneState validates the traces, so
        # a bad lane raises before any lane has been registered or any
        # channel drained.
        states: List[_LaneState] = []
        channels: List[MessageChannel] = []
        for lane in self.lanes:
            channel = lane.channel if lane.channel is not None else self.shared_channel
            states.append(_LaneState(lane, channel))
            if channel not in channels:
                channels.append(channel)
        for state in states:
            server.register_object(
                state.lane.object_id,
                prediction=state.lane.protocol.prediction_function(),
                accuracy=state.lane.protocol.accuracy,
            )
        # A caller-supplied channel may still carry undelivered messages
        # from a previous run; drain everything before the clock starts.
        for channel in channels:
            channel.reset()

        executor: Optional[WorkloadExecutor] = None
        if self.query_workload is not None:
            executor = WorkloadExecutor(
                self.query_workload,
                server,
                self._fleet_area(states),
                record_answers=self.record_query_answers,
            )
        self.workload_executor = executor

        obs = self.obs
        if obs is not None and getattr(server, "obs", False) is None:
            # Backends with an obs seam (the sharded facade) inherit the
            # fleet's bundle unless the caller attached their own.
            server.obs = obs
        loop_span = None if obs is None else obs.span(
            "fleet.event_loop", cat="sim", args={"lanes": len(states)}
        )
        try:
            self._run_loop(states, channels, executor)
        finally:
            if loop_span is not None:
                loop_span.close()

        results = {
            state.lane.object_id: state.finish(self.count_initial_update)
            for state in states
        }
        home_shard = getattr(server, "home_shard", None)
        if callable(home_shard):
            for object_id, result in results.items():
                result.service_stats = {"shard": home_shard(object_id)}
        service_stats = getattr(server, "service_stats", None)
        stats = service_stats() if callable(service_stats) else {}
        if obs is not None:
            self._record_lane_metrics(obs, states)
            if stats and not self._obs_worker:
                publish_service_stats(obs.registry, stats)
        return FleetResult(
            results=results,
            service_stats=stats,
            workload=executor.report if executor is not None else None,
        )

    @staticmethod
    def _record_lane_metrics(obs: Observability, states: List["_LaneState"]) -> None:
        """Record per-run lane aggregates — all partition-invariant.

        Samples, updates, bytes and error samples are per-lane sums, so a
        worker partition records exactly its share and the merged registry
        matches the single-process run bit for bit (the counters stay
        integers, exact under addition).
        """
        registry = obs.registry
        registry.counter("sim.lanes").inc(len(states))
        registry.counter("sim.samples").inc(sum(len(s.times) for s in states))
        registry.counter("sim.updates_sent").inc(
            sum(s.source.updates_sent for s in states)
        )
        registry.counter("sim.bytes_sent").inc(
            sum(s.lane.protocol.bytes_sent for s in states)
        )
        registry.counter("sim.error_samples").inc(sum(len(s.errors) for s in states))
        reasons: Dict[str, int] = {}
        for state in states:
            for reason, count in state.reasons.items():
                reasons[reason] = reasons.get(reason, 0) + count
        for reason in sorted(reasons):
            registry.counter(f"sim.update_reason.{reason}").inc(reasons[reason])

    @staticmethod
    def _fleet_area(states: List["_LaneState"]) -> BoundingBox:
        """Bounding box of every lane's truth trace (query-centre domain)."""
        mins = np.min([state.truth_positions.min(axis=0) for state in states], axis=0)
        maxs = np.max([state.truth_positions.max(axis=0) for state in states], axis=0)
        return BoundingBox(float(mins[0]), float(mins[1]), float(maxs[0]), float(maxs[1]))

    # ------------------------------------------------------------------ #
    # the event loop
    # ------------------------------------------------------------------ #
    def _run_loop(
        self,
        states: List[_LaneState],
        channels: List[MessageChannel],
        executor: Optional[WorkloadExecutor] = None,
    ) -> None:
        """Run the discrete-event schedule over the lane states.

        Every happening is an event: lane sightings (``SAMPLE``), protocol
        deadline expiries (``TIMER``), exact-instant channel deliveries
        (``DELIVERY``), periodic shard maintenance (``HANDOFF``) and
        workload query arrivals (``QUERY``).  Sightings come from the
        lanes' merged sample stream, every other event from the
        :class:`EventKernel` agenda.  All events at one instant are applied
        together in kind order — sightings, then timers, then one delivery
        batch (per channel, sorted like
        :meth:`~repro.service.channel.MessageChannel.deliver_due`), then
        handoff maintenance, the batched error measurement and finally
        queries — which is what makes the degenerate schedule bit-identical
        to a per-timestep loop.
        """
        server = self.server
        ingest = getattr(server, "ingest_batch", None)
        obs = self.obs
        if obs is None:
            kern = EventKernel()
            depth_hist = None
            event_counts = None
        else:
            # One list-index increment + one ring append per event; the
            # counts land in the registry after the loop.  SAMPLE/TIMER/
            # DELIVERY events are per lane (partition-invariant, hence
            # deterministic); HANDOFF/QUERY are per kernel instance.
            event_counts = [0] * len(KIND_NAMES)
            flight_note = obs.flight.note

            def _on_pop(t, prio, seq, _counts=event_counts, _note=flight_note):
                _counts[prio] += 1
                _note(t, prio, seq)

            kern = EventKernel(on_pop=_on_pop)
            depth_hist = obs.histogram(
                "kernel.agenda_depth",
                bounds=(1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096, 16384),
            )
        agenda = kern.agenda
        # The merged sample stream: every lane's sightings in time order,
        # simultaneous ones in lane order, closed by an infinite sentinel.
        times = np.concatenate([s.times for s in states])
        lane_of = np.repeat(np.arange(len(states)), [len(s.times) for s in states])
        index_of = np.concatenate([np.arange(len(s.times)) for s in states])
        order = np.lexsort((lane_of, times))
        inf = math.inf
        sample_times = times[order].tolist()
        sample_times.append(inf)
        sample_lanes = lane_of[order].tolist()
        sample_index = index_of[order].tolist()
        lane_end = [float(state.times[-1]) for state in states]
        end_time = max(lane_end) if self._horizon is None else self._horizon
        sight = [state.process_sighting for state in states]
        record = [state.record_error for state in states]
        object_ids = [state.lane.object_id for state in states]
        # Lanes whose protocol never announces deadlines (the base-class
        # hook) skip timer arming entirely — it is pure overhead on the
        # per-sample hot path of threshold-style protocols.
        uses_timer = [
            type(state.lane.protocol).next_deadline is not UpdateProtocol.next_deadline
            for state in states
        ]
        channel_index = {channel: n for n, channel in enumerate(channels)}
        #: Deadline currently scheduled per lane; superseded entries stay on
        #: the agenda and are ignored as stale when they pop.
        armed: List[Optional[float]] = [None] * len(states)

        def arm_timer(n: int) -> None:
            deadline = states[n].lane.protocol.next_deadline()
            if deadline is None or deadline == armed[n] or deadline > lane_end[n]:
                return
            kern.schedule(deadline, TIMER, (n, deadline))
            armed[n] = deadline

        def delivery_scheduler(channel):
            # The simulation clock stops at the last sighting: a message due
            # past the horizon stays undelivered rather than extending the
            # run.
            def schedule(deliver_at, oid, msg, _ch=channel):
                if deliver_at <= end_time:
                    kern.schedule(deliver_at, DELIVERY, (_ch, oid, msg))
            return schedule

        # Bind inside the try: if any bind raises, the finally below still
        # unbinds whatever was bound so far (unbinding an unbound channel is
        # a no-op), leaving every channel usable for another run.
        try:
            for channel in channels:
                channel.bind_scheduler(delivery_scheduler(channel))
            start_time = sample_times[0] if self._clock_start is None else self._clock_start
            poisson = executor is not None and executor.poisson_rate is not None
            if poisson:
                first = executor.next_arrival(start_time)
                if first <= end_time:
                    kern.schedule(first, QUERY, None)
            if self.handoff_interval is not None:
                first = start_time + self.handoff_interval
                if first <= end_time:
                    kern.schedule(first, HANDOFF, None)
            n_instants = 0
            k = 0
            while True:
                t = sample_times[k]
                if agenda and agenda[0][0] < t:
                    t = agenda[0][0]
                elif t == inf:
                    break
                if depth_hist is not None:
                    depth_hist.observe(len(agenda))
                    n_instants += 1
                first = k
                while sample_times[k] == t:
                    n = sample_lanes[k]
                    sight[n](sample_index[k], t)
                    if uses_timer[n]:
                        arm_timer(n)
                    k += 1
                if event_counts is not None and k > first:
                    event_counts[SAMPLE] += k - first
                    for j in range(first, k):
                        flight_note(t, SAMPLE, j)
                n_queries = 0
                if agenda and agenda[0][0] == t:
                    deliveries: Dict[MessageChannel, List] = {}
                    run_handoff = False
                    for _t, prio, _seq, payload in kern.drain_instant():
                        if prio == TIMER:
                            n, deadline = payload
                            protocol = states[n].lane.protocol
                            if armed[n] == deadline:
                                armed[n] = None
                            # Fire only if the deadline is still current; a
                            # sighting at this same instant may already have
                            # serviced it (degenerate-schedule case).
                            if protocol.next_deadline() == deadline:
                                states[n].process_timer(t)
                                if protocol.next_deadline() == deadline:
                                    # Progress guard: the protocol declined
                                    # the fire and left its deadline
                                    # unchanged — re-arming it at this same
                                    # instant would spin forever.  Mark it
                                    # armed-but-spent; arming resumes the
                                    # moment the protocol moves its deadline.
                                    armed[n] = deadline
                                    continue
                            arm_timer(n)
                        elif prio == DELIVERY:
                            ch, oid, msg = payload
                            deliveries.setdefault(ch, []).append((t, oid, msg))
                        elif prio == HANDOFF:
                            run_handoff = True
                        else:
                            n_queries += 1
                    if deliveries:
                        delivered: List = []
                        # Only the channels that actually delivered, in the
                        # fleet's canonical channel order.
                        ordered = (
                            sorted(deliveries, key=channel_index.__getitem__)
                            if len(deliveries) > 1
                            else deliveries
                        )
                        for channel in ordered:
                            entries = deliveries[channel]
                            entries.sort(key=delivery_order)
                            batch = [(oid, msg) for _, oid, msg in entries]
                            channel.record_scheduled_delivery(batch)
                            delivered.extend(batch)
                        if ingest is not None:
                            ingest(delivered, t)
                        else:
                            for oid, msg in delivered:
                                server.receive_update(oid, msg, t)
                    if run_handoff:
                        server.rebalance(t)
                        nxt = t + self.handoff_interval
                        if nxt <= end_time:
                            kern.schedule(nxt, HANDOFF, None)
                if k > first:
                    if k - first == 1:
                        # Sparse fleets mostly see one sighting per instant;
                        # skip the batch plumbing for that case.
                        n = sample_lanes[first]
                        record[n](sample_index[first], server.predict_position(object_ids[n], t))
                    else:
                        predicted = server.predict_positions(
                            [object_ids[sample_lanes[j]] for j in range(first, k)], t
                        )
                        for j, position in zip(range(first, k), predicted):
                            record[sample_lanes[j]](sample_index[j], position)
                    if executor is not None:
                        if poisson:
                            executor.note_tick()
                        else:
                            executor.on_tick(t)
                while n_queries:
                    n_queries -= 1
                    executor.run_query(t)
                    nxt = executor.next_arrival(t)
                    if nxt <= end_time:
                        kern.schedule(nxt, QUERY, None)
            if obs is not None:
                for kind, name in KIND_NAMES.items():
                    if event_counts[kind]:
                        obs.counter(
                            f"kernel.events.{name}",
                            deterministic=kind in (SAMPLE, TIMER, DELIVERY),
                        ).inc(event_counts[kind])
                obs.counter("kernel.instants", deterministic=False).inc(n_instants)
        except BaseException:
            # The flight recorder earns its keep here: the last events the
            # loop handled, in order, right before the failure.
            if obs is not None:
                obs.dump_flight(reason="fleet event loop died")
            raise
        finally:
            for channel in channels:
                channel.unbind_scheduler()

    # ------------------------------------------------------------------ #
    # multi-process execution
    # ------------------------------------------------------------------ #
    def _run_multiprocess(self) -> FleetResult:
        """Partition the fleet into spatial shards and run them in workers.

        Each worker receives one pickled :class:`_ShardTask`: its lane
        subset, a replica of the shared channel and of the (empty) server
        backend, and the whole fleet's clock bounds.  Within one task
        payload the pickle memo preserves object identity (lanes sharing a
        channel keep sharing its replica), while separate tasks get
        independent replicas — which is exactly the isolation the merge
        assumes.  Results are merged commutatively: per-lane results in
        lane order, channel counters summed into the parent's channel
        objects, and service statistics reconstructed (the one global
        counter, ``batches_ingested``, is the cardinality of the union of
        the workers' non-empty ingest instants).
        """
        server = self.server
        if server.object_ids():
            raise ValueError(
                "processes > 1 replicates the server backend into workers, "
                "which requires an empty (freshly constructed) backend; "
                f"this one already tracks {len(server.object_ids())} objects"
            )
        # Canonical channel slots: 0 is the fleet's shared channel, further
        # slots are per-lane channels in first-use order.
        channel_order: List[MessageChannel] = [self.shared_channel]
        lane_slots: List[int] = []
        for lane in self.lanes:
            if lane.channel is None or lane.channel is self.shared_channel:
                lane_slots.append(0)
                continue
            if lane.channel not in channel_order:
                channel_order.append(lane.channel)
            lane_slots.append(channel_order.index(lane.channel))
        from repro.sim.runner import auto_region_size

        obs = self.obs
        partition_span = None if obs is None else obs.span(
            "fleet.partition", cat="sim", args={"processes": self.processes}
        )
        policy = GridHashPolicy(
            self.processes, region_size=auto_region_size(self.lanes, self.processes)
        )
        groups: Dict[int, List[int]] = {}
        for n, lane in enumerate(self.lanes):
            shard = policy.shard_for_point(lane.sensor_trace.positions[0])
            groups.setdefault(shard, []).append(n)
        clock_start = min(float(lane.sensor_trace.times[0]) for lane in self.lanes)
        horizon = max(float(lane.sensor_trace.times[-1]) for lane in self.lanes)
        tasks = [
            _ShardTask(
                lanes=[self.lanes[i] for i in groups[shard]],
                lane_slots=[lane_slots[i] for i in groups[shard]],
                shared_channel=self.shared_channel,
                server=server,
                count_initial_update=self.count_initial_update,
                handoff_interval=self.handoff_interval,
                clock_start=clock_start,
                horizon=horizon,
                obs_enabled=obs is not None,
            )
            for shard in sorted(groups)
        ]
        if partition_span is not None:
            partition_span.args["tasks"] = len(tasks)
            partition_span.close()
        execute_span = None if obs is None else obs.span(
            "fleet.execute_shards", cat="sim", args={"tasks": len(tasks)}
        )
        outcomes = _execute_shard_tasks(tasks, self.processes)
        if execute_span is not None:
            execute_span.close()
        merge_span = None if obs is None else obs.span("fleet.merge", cat="sim")

        # Per-lane results, in lane order (the single-process dict order).
        by_object: Dict[str, SimulationResult] = {}
        for outcome in outcomes:
            by_object.update(outcome["results"])
        results = {lane.object_id: by_object[lane.object_id] for lane in self.lanes}

        # Channel counters: reset the parent channels the single-process
        # run would have reset, then write the summed worker counters back.
        used_channels: List[MessageChannel] = []
        for lane in self.lanes:
            ch = lane.channel if lane.channel is not None else self.shared_channel
            if ch not in used_channels:
                used_channels.append(ch)
        for ch in used_channels:
            ch.reset()
        merged: Dict[int, ChannelStats] = {}
        for outcome in outcomes:
            for slot, stats in outcome["channel_stats"].items():
                agg = merged.setdefault(slot, ChannelStats())
                agg.messages_sent += stats.messages_sent
                agg.messages_delivered += stats.messages_delivered
                agg.messages_lost += stats.messages_lost
                agg.bytes_sent += stats.bytes_sent
                agg.bytes_delivered += stats.bytes_delivered
                agg.max_queue_delay = max(agg.max_queue_delay, stats.max_queue_delay)
        for slot, agg in merged.items():
            channel_order[slot].stats = agg

        service_stats = self._merge_service_stats(outcomes)

        if obs is not None:
            # Fold every worker's registry back (commutative, so worker
            # completion order cannot matter) and adopt its spans under a
            # per-shard pid for the Perfetto view.  The merged service
            # stats are published here — and only here — so the counters
            # match a single-process run of the same fleet exactly.
            for k, outcome in enumerate(outcomes):
                worker_registry = outcome.get("obs_registry")
                if worker_registry is not None:
                    obs.registry.merge(worker_registry)
                worker_events = outcome.get("obs_trace")
                if worker_events:
                    obs.tracer.adopt(worker_events, pid=k + 1, name=f"shard-{k}")
            if service_stats:
                publish_service_stats(obs.registry, service_stats)
            if merge_span is not None:
                merge_span.close()

        # Register the lanes with the parent backend so the one-shot
        # protection (and any later lookups) behave as after a local run.
        for lane in self.lanes:
            server.register_object(
                lane.object_id,
                prediction=lane.protocol.prediction_function(),
                accuracy=lane.protocol.accuracy,
            )
        self.workload_executor = None
        return FleetResult(results=results, service_stats=service_stats)

    @staticmethod
    def _merge_service_stats(outcomes: List[Dict[str, object]]) -> Dict[str, object]:
        """Reconstruct the sharded service's statistics from worker stats.

        Every service counter is either per-object (so the worker values
        sum), derived (recomputed from the sums), or a per-instant global
        — ``batches_ingested`` counts instants at which *any* update batch
        arrived, reconstructed as the union of the workers' non-empty
        ingest instants.  Query counters are identically zero: workloads
        are rejected for multi-process runs.
        """
        partials = [o["service_stats"] for o in outcomes if o["service_stats"]]
        if not partials:
            return {}
        row_keys = (
            "objects", "updates", "handoffs_in", "handoffs_out",
            "engine_queries", "engine_syncs", "engine_moves",
        )
        n_shards = int(partials[0]["shards"])
        rows: List[Dict[str, object]] = [
            {"shard": s, **{k: 0 for k in row_keys}} for s in range(n_shards)
        ]
        for partial in partials:
            for row in partial["per_shard"]:
                target = rows[int(row["shard"])]
                for key in row_keys:
                    target[key] += row[key]
        instants: set = set()
        for outcome in outcomes:
            instants.update(outcome["ingest_instants"])
        objects = [int(row["objects"]) for row in rows]
        mean_objects = sum(objects) / len(objects) if objects else 0.0
        return {
            "shards": n_shards,
            "objects": sum(int(p["objects"]) for p in partials),
            "updates_ingested": sum(int(p["updates_ingested"]) for p in partials),
            "batches_ingested": len(instants),
            "handoffs": sum(int(p["handoffs"]) for p in partials),
            "prepare_passes": sum(int(p["prepare_passes"]) for p in partials),
            "range_queries": 0,
            "nearest_queries": 0,
            "geofence_queries": 0,
            "queries": 0,
            "query_seconds": 0.0,
            "mean_query_seconds": 0.0,
            "load_imbalance": (max(objects) / mean_objects) if mean_objects else 0.0,
            "per_shard": rows,
        }


@dataclass
class _ShardTask:
    """One worker's share of a multi-process fleet run (picklable)."""

    lanes: List[FleetLane]
    lane_slots: List[int]
    shared_channel: MessageChannel
    server: LocationServer
    count_initial_update: bool
    handoff_interval: Optional[float]
    clock_start: float
    horizon: float
    obs_enabled: bool = False

    def run(self) -> Dict[str, object]:
        """Run this shard's lanes and package the mergeable outcome."""
        # A worker builds its own fresh bundle (never the parent's pickled
        # copy, which would duplicate whatever the parent already counted)
        # and ships the registry + spans back in the outcome.
        obs = Observability() if self.obs_enabled else None
        fleet = FleetSimulation(
            self.lanes,
            channel=self.shared_channel,
            server=self.server,
            count_initial_update=self.count_initial_update,
            handoff_interval=self.handoff_interval,
            obs=obs,
        )
        fleet._obs_worker = True
        fleet._clock_start = self.clock_start
        fleet._horizon = self.horizon
        # Record the instants at which this worker's backend ingested a
        # non-empty batch: the parent reconstructs the global
        # ``batches_ingested`` counter as the union across workers.
        instants: List[float] = []
        ingest = getattr(fleet.server, "ingest_batch", None)
        if ingest is not None:
            def recording(messages, time, _ingest=ingest):
                if messages:
                    instants.append(float(time))
                _ingest(messages, time)

            fleet.server.ingest_batch = recording
        outcome = fleet.run()
        channel_stats: Dict[int, ChannelStats] = {}
        reported: List[MessageChannel] = []
        for lane, slot in zip(self.lanes, self.lane_slots):
            ch = lane.channel if lane.channel is not None else self.shared_channel
            if ch in reported:
                continue
            reported.append(ch)
            channel_stats[slot] = ch.stats
        return {
            "results": outcome.results,
            "channel_stats": channel_stats,
            "ingest_instants": instants,
            "service_stats": outcome.service_stats or None,
            "obs_registry": obs.registry if obs is not None else None,
            "obs_trace": obs.tracer.events() if obs is not None else None,
        }


def _run_shard_task(task: _ShardTask) -> Dict[str, object]:
    """Module-level trampoline so shard tasks can cross process boundaries."""
    return task.run()


def _execute_shard_tasks(
    tasks: List[_ShardTask], processes: int
) -> List[Dict[str, object]]:
    """Run shard tasks and return their outcomes in task order.

    The merge is commutative and keyed by task order, so worker scheduling
    cannot influence the result (asserted by the test-suite, which also
    monkeypatches this seam to permute completion order).  A single task
    runs inline — the partition put every lane in one spatial shard, and a
    worker round-trip would only add pickling cost.
    """
    if len(tasks) == 1 or processes <= 1:
        # Inline execution still round-trips each task through pickle: the
        # run must mutate worker *replicas*, never the parent's lanes,
        # channels or server template — same isolation as a real worker.
        import pickle

        return [_run_shard_task(pickle.loads(pickle.dumps(task))) for task in tasks]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=min(processes, len(tasks))) as pool:
        futures = [pool.submit(_run_shard_task, task) for task in tasks]
        return [future.result() for future in futures]


def run_simulation(
    protocol: UpdateProtocol,
    sensor_trace: Trace,
    truth_trace: Optional[Trace] = None,
    channel: Optional[MessageChannel] = None,
    *,
    object_id: str = "object-0",
    count_initial_update: bool = True,
) -> SimulationResult:
    """One object, one protocol, one trace: a one-lane :class:`FleetSimulation`.

    The paper's experimental setup (Sec. 4): *sensor_trace* is what the
    positioning sensor reports, *truth_trace* (defaulting to the sensor
    trace) the ground truth the server-side error is measured against,
    *channel* the source-to-server channel (loss-free and instantaneous when
    omitted).  *count_initial_update* says whether the bootstrap update
    counts towards the update total — the paper counts transmitted
    messages, so it does by default.
    """
    lane = FleetLane(
        object_id=object_id,
        protocol=protocol,
        sensor_trace=sensor_trace,
        truth_trace=truth_trace,
        channel=channel,
    )
    fleet = FleetSimulation([lane], count_initial_update=count_initial_update)
    return fleet.run().results[object_id]
