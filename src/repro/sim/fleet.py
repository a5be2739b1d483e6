"""Fleet-scale simulation: many objects through one time-ordered loop.

:class:`FleetSimulation` is the simulation core every experiment entry point
ultimately runs on.  It steps any number of *lanes* — one (object, protocol,
trace) combination each — against one shared
:class:`~repro.service.server.LocationServer` and one (or several)
:class:`~repro.service.channel.MessageChannel`\\ s, and collects one
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
  streaming estimator) and handed with the trace to the protocol's
  :meth:`~repro.protocols.base.UpdateProtocol.prepare_trace` (the map-based
  protocol matches the whole trace there).  Distance-based reporting and
  linear DR find their sends with a first-crossing search over arrays of
  deviations instead of one protocol call per sighting (see
  :func:`lane_updates`).  Against a plain
  :class:`~repro.service.server.LocationServer`, every lane whose record
  predicts in closed form (static or linear prediction: distance, linear,
  time-based, …) is measured from its own delivered stream in one
  vectorised pass and leaves the walk; the walk measures the rest (map,
  route, quadratic lanes, and every lane of any other backend) through
  the batch :meth:`~repro.service.server.LocationServer.predict_positions`
  API once per timestep.  Error samples are accumulated into
  :class:`~repro.sim.metrics.AccuracyMetrics` as one array per lane.
* **One send schedule** — a source decides every update from its own
  sightings and timers and never hears back from the channel or the
  server, so a lane's update stream depends only on its protocol and
  trace.  :func:`lane_updates` computes it, protocol timers firing at their
  exact deadlines; the fleet pushes each lane's stream through its channel
  (which counts the send, draws the keyed loss and returns the delivery
  instant ``send_time + latency``), then walks the merged sample stream
  beside the delivery instants: at each instant one ingest batch, then the
  error measurement of the lanes sampled there (a sharded backend hands
  objects between shards as their updates arrive).  The replay plan
  (:func:`repro.service.loadgen.build_replay_plan`) calls the same
  function, so it serves exactly what the fleet delivers over a loss-free,
  zero-latency channel.  When
  every lane shares one sampling grid, channel latency is a multiple of it
  and no protocol timer falls off it, the schedule degenerates to the
  classic per-timestep loop, and the results are bit-identical to it (the
  test-suite keeps that loop as an oracle and asserts the identity over
  the whole scenario library).

Application queries never change a :class:`~repro.sim.metrics.SimulationResult`,
so they are not part of the simulation: the query side replays a
materialised :class:`~repro.service.loadgen.ReplayPlan` against the
service instead (:meth:`repro.sim.runner.SweepRunner.run_query_bench`,
the ``load-test`` command).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.geo.bbox import BoundingBox
from repro.geo.vec import as_vec, distance
from repro.obs import NO_OBS, Observability
from repro.obs.metrics import publish_service_stats
from repro.obs.trace import DELIVERY, KIND_NAMES, SAMPLE, TIMER
from repro.protocols.base import UpdateMessage, UpdateProtocol, UpdateReason
from repro.protocols.linear import LinearPredictionProtocol
from repro.protocols.prediction import LinearPrediction, StaticPrediction
from repro.protocols.reporting import DistanceBasedReporting
from repro.service.channel import ChannelStats, MessageChannel
from repro.service.facade import LocationService
from repro.service.server import LocationServer
from repro.service.sharding import GridHashPolicy
from repro.sim.metrics import AccuracyMetrics, SimulationResult
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

    ``service_stats`` carries the serving tier's per-shard load counters
    when the fleet ran against a
    :class:`~repro.service.facade.LocationService` backend (empty for the
    plain single server).
    """

    results: Dict[str, SimulationResult]
    service_stats: Dict[str, object] = field(default_factory=dict)

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
        "lane", "channel", "metrics", "reasons", "updates", "times",
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
        self.metrics = AccuracyMetrics()
        self.metrics.set_bound(lane.protocol.accuracy)
        self.reasons: Dict[str, int] = {}
        self.updates = 0
        self.times = lane.sensor_trace.times
        self.sensor_positions = lane.sensor_trace.positions
        self.truth_positions = truth.positions
        self.velocities, self.speeds = estimate_trace(
            self.times, self.sensor_positions, lane.protocol.estimator.window
        )
        lane.protocol.prepare_trace(
            self.times, self.sensor_positions, self.velocities, self.speeds
        )
        #: A list the walk appends to, or one array measured in closed form.
        self.errors: Union[List[float], np.ndarray] = []

    def count_update(self, message: UpdateMessage) -> None:
        """Count one transmitted update and its reason."""
        self.updates += 1
        key = message.reason.value
        self.reasons[key] = self.reasons.get(key, 0) + 1

    def record_error(self, i: int, predicted: Optional[np.ndarray]) -> None:
        """Measure the server's error against ground truth at sample *i*."""
        if predicted is not None:
            self.errors.append(distance(predicted, self.truth_positions[i]))

    def measure_closed_form(
        self, arrivals: List[float], messages: List[UpdateMessage], linear: bool
    ) -> None:
        """Measure every sample at once against the lane's delivered stream.

        The walk's measurement of a record with a static or linear
        prediction, on arrays: at sample *i* the record holds the last
        message delivered at or before ``times[i]`` (``side="right"``: an
        instant's deliveries are ingested before its samples are
        measured), and samples before the first delivery are not measured.
        The same IEEE operations in the same order as the walk's
        ``predict`` and :func:`~repro.geo.vec.distance` keep every error
        sample bit-identical.
        """
        if not messages:
            return
        # Stream order is sequence order, so a stable sort by delivery
        # instant is the walk's (deliver_at, sequence) order.
        order = np.argsort(arrivals, kind="stable")
        held = np.searchsorted(np.asarray(arrivals)[order], self.times, side="right") - 1
        first = int(np.searchsorted(held, 0))
        held = order[held[first:]]
        states = [message.state for message in messages]
        predicted = np.array([state.position for state in states])[held]
        if linear:
            dt = self.times[first:] - np.array([state.time for state in states])[held]
            velocity = np.array([state.velocity for state in states])[held]
            predicted = predicted + velocity * dt[:, None]
        d = predicted - self.truth_positions[first:]
        self.errors = np.sqrt(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1])

    def finish(self) -> SimulationResult:
        """Materialise this lane's :class:`SimulationResult`."""
        self.metrics.record_batch(self.errors)
        protocol = self.lane.protocol
        matcher_stats = {}
        matching_statistics = getattr(protocol, "matching_statistics", None)
        if callable(matching_statistics):
            matcher_stats = matching_statistics()
        return SimulationResult(
            protocol_name=protocol.name,
            accuracy=protocol.accuracy,
            duration_h=self.lane.sensor_trace.duration / 3600.0,
            updates=self.updates,
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
        Every object's update total counts its bootstrap update (the paper
        counts transmitted messages).
    processes:
        Number of worker processes.  With ``processes > 1`` the fleet is
        partitioned into spatial shards (a :class:`GridHashPolicy` over the
        lanes' starting positions) and each shard runs its own fleet
        loop in a worker process against a replica of the (empty) server
        backend and channels; the parent merges the per-object results,
        channel counters and service statistics commutatively.  Because
        objects interact only through their own channel messages and server
        record — and seeded lossy channels draw each message's loss from
        ``(seed, object_id, sequence)``, not from a stream consumed in send
        order — the merged outcome is **bit-identical** to the
        single-process run: same updates, error samples, channel stats and
        service stats (asserted by the test-suite over the scenario
        library).  Multi-process runs reject the one fleet shape whose
        results genuinely depend on cross-object interleaving: unseeded
        lossy channels (one global RNG stream).
    obs:
        The :class:`~repro.obs.Observability` bundle the run records
        per-event-kind counts, phase spans and per-lane work
        into (workers of a multi-process run record into their own fresh
        bundle; the parent merges the registries back commutatively).  A
        :class:`~repro.service.facade.LocationService` backend without an
        enabled bundle of its own records into this one too.  The default,
        the disabled :data:`~repro.obs.NO_OBS`, records nothing.  The
        instruments only watch: results, goldens and bit-identity are the
        same whichever bundle is attached.
    """

    def __init__(
        self,
        lanes: Sequence[FleetLane],
        channel: Optional[MessageChannel] = None,
        server: Optional[LocationServer] = None,
        processes: int = 1,
        obs: Observability = NO_OBS,
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
        self.processes = int(processes)
        if self.processes < 1:
            raise ValueError("processes must be at least 1")
        if self.processes > 1:
            self._validate_multiprocess()
        self.obs = obs
        # Set by _ShardTask: worker runs record lane/event metrics into
        # their own registry but must not publish their *partial* service
        # stats — only the parent publishes, after the proven stats merge.
        self._obs_worker = False
        # Worker-shard clock override: a shard task runs a lane *subset*,
        # but the delivery horizon must be the whole fleet's for the merge
        # to be bit-identical.
        self._horizon: Optional[float] = None

    def _validate_multiprocess(self) -> None:
        """Reject fleet shapes whose results depend on cross-object order."""
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

        obs = self.obs
        if isinstance(server, LocationService) and not server.obs.enabled:
            # A facade without a bundle of its own records into the fleet's.
            server.obs = obs
        with obs.span("fleet.event_loop", cat="sim", args={"lanes": len(states)}):
            self._run_loop(states, channels)

        results = {state.lane.object_id: state.finish() for state in states}
        home_shard = getattr(server, "home_shard", None)
        if callable(home_shard):
            for object_id, result in results.items():
                result.service_stats = {"shard": home_shard(object_id)}
        service_stats = getattr(server, "service_stats", None)
        stats = service_stats() if callable(service_stats) else {}
        self._record_lane_metrics(obs, states)
        if stats and not self._obs_worker:
            publish_service_stats(obs.registry, stats)
        return FleetResult(results=results, service_stats=stats)

    @staticmethod
    def _record_lane_metrics(obs: Observability, states: List["_LaneState"]) -> None:
        """Record per-run lane aggregates — all partition-invariant.

        Samples, updates, bytes and error samples are per-lane sums, so a
        worker partition records exactly its share and the merged registry
        matches the single-process run bit for bit (the counters stay
        integers, exact under addition).
        """
        obs.counter("sim.lanes").inc(len(states))
        obs.counter("sim.samples").inc(sum(len(s.times) for s in states))
        obs.counter("sim.updates_sent").inc(sum(s.updates for s in states))
        obs.counter("sim.bytes_sent").inc(sum(s.lane.protocol.bytes_sent for s in states))
        obs.counter("sim.error_samples").inc(sum(len(s.errors) for s in states))
        reasons: Dict[str, int] = {}
        for state in states:
            for reason, count in state.reasons.items():
                reasons[reason] = reasons.get(reason, 0) + count
        for reason in sorted(reasons):
            obs.counter(f"sim.update_reason.{reason}").inc(reasons[reason])

    # ------------------------------------------------------------------ #
    # the fleet loop
    # ------------------------------------------------------------------ #
    def _run_loop(self, states: List[_LaneState], channels: List[MessageChannel]) -> None:
        """Push every lane's update stream through its channel, then walk time.

        1. Each lane's :func:`lane_updates` stream goes through its
           channel's :meth:`~repro.service.channel.MessageChannel.transmit`,
           which counts the send, draws the keyed loss and returns the
           delivery instant.  The simulation clock stops at the last
           sighting: a message due past it stays undelivered rather than
           extending the run.
        2. The merged sample stream — every lane's sightings in time order,
           simultaneous ones in lane order — is walked beside the delivery
           instants, sorted by ``(deliver_at, channel order, object id,
           sequence)``.  At each instant the delivered updates are ingested
           as one batch, then the lanes sampled there are measured: the
           per-timestep order, which is what makes the degenerate schedule
           bit-identical to a per-timestep loop.

        On a plain :class:`~repro.service.server.LocationServer`, a lane
        whose record has a static or linear prediction is measured in
        closed form from its own delivered stream
        (:meth:`_LaneState.measure_closed_form`, the same samples in the
        same order) and its samples leave the walk; the walk still ingests
        every delivery, so the server's records end as before.  The
        ``kernel.events.sample`` counter counts every lane's sightings,
        but the flight recorder notes SAMPLE events of walked lanes only.
        """
        server = self.server
        ingest = getattr(server, "ingest_batch", None)
        obs = self.obs
        # Read once: the disabled loop skips the flight-recorder notes.
        enabled = obs.enabled
        flight_note = obs.flight.note
        end_time = (
            max(float(state.times[-1]) for state in states)
            if self._horizon is None
            else self._horizon
        )
        channel_index = {channel: n for n, channel in enumerate(channels)}
        # A plain server's static and linear records are measured in
        # closed form; any other backend is measured by the walk.
        closed_form = type(server) is LocationServer
        timer_fires = 0
        samples = 0
        try:
            deliveries: List[Tuple[float, int, str, int, UpdateMessage]] = []
            walked: List[_LaneState] = []
            for state in states:
                object_id = state.lane.object_id
                channel = state.channel
                slot = channel_index[channel]
                stream, fires = lane_updates(
                    state.lane.protocol,
                    state.times,
                    state.sensor_positions,
                    state.velocities,
                    state.speeds,
                )
                timer_fires += fires
                samples += len(state.times)
                delivered: List[UpdateMessage] = []
                arrivals: List[float] = []
                for t, message in stream:
                    state.count_update(message)
                    deliver_at = channel.transmit(object_id, message, t)
                    if deliver_at is not None and deliver_at <= end_time:
                        deliveries.append(
                            (deliver_at, slot, object_id, message.sequence, message)
                        )
                        delivered.append(message)
                        arrivals.append(deliver_at)
                channel.record_delivered(delivered)
                prediction = (
                    type(server.tracked_object(object_id).prediction) if closed_form else None
                )
                if prediction is StaticPrediction or prediction is LinearPrediction:
                    state.measure_closed_form(
                        arrivals, delivered, prediction is LinearPrediction
                    )
                else:
                    walked.append(state)
            # Sequence numbers are unique per object, so the comparison
            # never reaches the (unordered) message itself.
            deliveries.sort()
            inf = math.inf
            deliver_times = [entry[0] for entry in deliveries]
            deliver_times.append(inf)

            times = np.concatenate([s.times for s in walked] or [np.empty(0)])
            lane_of = np.repeat(np.arange(len(walked)), [len(s.times) for s in walked])
            index_of = np.concatenate(
                [np.arange(len(s.times)) for s in walked] or [np.empty(0, dtype=np.intp)]
            )
            order = np.lexsort((lane_of, times))
            sample_times = times[order].tolist()
            sample_times.append(inf)
            sample_lanes = lane_of[order].tolist()
            sample_index = index_of[order].tolist()
            record = [state.record_error for state in walked]
            object_ids = [state.lane.object_id for state in walked]

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
                    if enabled:
                        for j in range(first_delivery, d):
                            flight_note(t, DELIVERY, j)
                    batch = [(entry[2], entry[4]) for entry in deliveries[first_delivery:d]]
                    if ingest is not None:
                        ingest(batch, t)
                    else:
                        for oid, msg in batch:
                            server.receive_update(oid, msg, t)
                first = k
                while sample_times[k] == t:
                    k += 1
                if k == first:
                    continue
                if enabled:
                    for j in range(first, k):
                        flight_note(t, SAMPLE, j)
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
            counts = {
                SAMPLE: samples,
                TIMER: timer_fires,
                DELIVERY: len(deliveries),
            }
            for kind, name in KIND_NAMES.items():
                if counts[kind]:
                    obs.counter(f"kernel.events.{name}").inc(counts[kind])
        except BaseException:
            # The flight recorder earns its keep here: the last events the
            # loop handled, in order, right before the failure.
            obs.dump_flight(reason="fleet loop died")
            raise

    # ------------------------------------------------------------------ #
    # multi-process execution
    # ------------------------------------------------------------------ #
    def _run_multiprocess(self) -> FleetResult:
        """Partition the fleet into spatial shards and run them in workers.

        Each worker receives one pickled :class:`_ShardTask`: its lane
        subset, a replica of the shared channel and of the (empty) server
        backend, and the whole fleet's delivery horizon.  Within one task
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
        obs = self.obs
        partition_span = obs.span(
            "fleet.partition", cat="sim", args={"processes": self.processes}
        )
        policy = GridHashPolicy(
            self.processes,
            region_size=auto_region_size(fleet_extent(self.lanes), self.processes),
        )
        groups: Dict[int, List[int]] = {}
        for n, lane in enumerate(self.lanes):
            shard = policy.shard_for_point(lane.sensor_trace.positions[0])
            groups.setdefault(shard, []).append(n)
        horizon = max(float(lane.sensor_trace.times[-1]) for lane in self.lanes)
        tasks = [
            _ShardTask(
                lanes=[self.lanes[i] for i in groups[shard]],
                lane_slots=[lane_slots[i] for i in groups[shard]],
                shared_channel=self.shared_channel,
                server=server,
                horizon=horizon,
                obs=obs.fresh(),
            )
            for shard in sorted(groups)
        ]
        partition_span.args["tasks"] = len(tasks)
        partition_span.close()
        with obs.span("fleet.execute_shards", cat="sim", args={"tasks": len(tasks)}):
            outcomes = _execute_shard_tasks(tasks, self.processes)
        merge_span = obs.span("fleet.merge", cat="sim")

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

        # Fold every worker's registry back (commutative, so worker
        # completion order cannot matter) and adopt its spans under a
        # per-shard pid for the Perfetto view.  The merged service stats
        # are published here — and only here — so the counters match a
        # single-process run of the same fleet exactly.
        for k, outcome in enumerate(outcomes):
            worker = outcome["obs"]
            obs.registry.merge(worker.registry)
            obs.tracer.adopt(worker.tracer.events(), pid=k + 1, name=f"shard-{k}")
        if service_stats:
            publish_service_stats(obs.registry, service_stats)
        merge_span.close()

        # Register the lanes with the parent backend so the one-shot
        # protection (and any later lookups) behave as after a local run.
        for lane in self.lanes:
            server.register_object(
                lane.object_id,
                prediction=lane.protocol.prediction_function(),
                accuracy=lane.protocol.accuracy,
            )
        return FleetResult(results=results, service_stats=service_stats)

    @staticmethod
    def _merge_service_stats(outcomes: List[Dict[str, object]]) -> Dict[str, object]:
        """Reconstruct the sharded service's statistics from worker stats.

        Every service counter is either per-object (so the worker values
        sum), derived (recomputed from the sums), or a per-instant global
        — ``batches_ingested`` counts instants at which *any* update batch
        arrived, reconstructed as the union of the workers' non-empty
        ingest instants.  Query counters are identically zero: the fleet
        issues no queries.
        """
        partials = [o["service_stats"] for o in outcomes if o["service_stats"]]
        if not partials:
            return {}
        row_keys = ("objects", "updates", "handoffs_in", "handoffs_out", "engine_queries")
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
    horizon: float
    #: A fresh bundle of the parent's kind (never the parent's own, which
    #: would duplicate whatever it already counted); it travels back in
    #: the outcome for the parent to merge.
    obs: Observability

    def run(self) -> Dict[str, object]:
        """Run this shard's lanes and package the mergeable outcome."""
        fleet = FleetSimulation(
            self.lanes,
            channel=self.shared_channel,
            server=self.server,
            obs=self.obs,
        )
        fleet._obs_worker = True
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
            "obs": self.obs,
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


def lane_updates(
    protocol: UpdateProtocol,
    times: np.ndarray,
    positions: np.ndarray,
    velocities: np.ndarray,
    speeds: np.ndarray,
) -> Tuple[List[Tuple[float, UpdateMessage]], int]:
    """Every ``(send_time, update)`` one lane transmits, and its timer fires.

    The one per-lane send schedule: the fleet pushes it through the lane's
    channel and the replay plan batches it.  *protocol* must already be
    prepared for the trace
    (:meth:`~repro.protocols.base.UpdateProtocol.prepare_trace`) with these
    estimates.  At each sample instant the sighting goes first, then the
    timers due at that instant; a timer due between two sightings fires at
    its exact deadline.  A popped timer fires only if its deadline is still
    current, and a protocol that declines a fire without moving its
    deadline is not re-armed at that deadline (the progress guard:
    re-arming would spin forever at one instant).  Deadlines past the
    lane's last sighting are never armed, and protocols without deadlines
    skip the timer bookkeeping entirely.  The second value counts the
    :meth:`~repro.protocols.base.UpdateProtocol.on_timer` calls.

    Distance-based reporting and linear DR (exactly
    :class:`~repro.protocols.reporting.DistanceBasedReporting` and
    :class:`~repro.protocols.linear.LinearPredictionProtocol`, with their
    own static or linear prediction) send when the paper's trigger first
    fires against a closed-form prediction from the last send, and take
    the first-crossing search (:func:`_first_crossings`) instead of one
    :meth:`~repro.protocols.base.UpdateProtocol.observe_precomputed` call
    per sighting.  Subclasses and every other protocol stay on the
    per-sighting loop, which is the search's oracle.
    """
    prediction = _CROSSING_PREDICTIONS.get(type(protocol))
    if prediction is not None and type(protocol.prediction_function()) is prediction:
        linear = prediction is LinearPrediction
        return _first_crossings(protocol, times, positions, velocities, speeds, linear), 0
    observe = protocol.observe_precomputed
    timed = type(protocol).next_deadline is not UpdateProtocol.next_deadline
    lane_end = float(times[-1])
    updates: List[Tuple[float, UpdateMessage]] = []
    fires = 0
    # The lane's timer agenda: scheduled deadlines, superseded ones left in
    # place and skipped as stale when they pop.
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
                message = protocol.on_timer(deadline)
                if message is not None:
                    updates.append((deadline, message))
                if protocol.next_deadline() == deadline:
                    armed = deadline  # declined: spent until it moves
                    continue
            arm()

    for i, (t, speed) in enumerate(zip(times.tolist(), speeds.tolist())):
        if timed:
            fire_timers(t, inclusive=False)
        message = observe(t, positions[i], velocities[i], speed)
        if message is not None:
            updates.append((t, message))
        if timed:
            arm()
            fire_timers(t, inclusive=True)
    return updates, fires


#: The threshold protocols :func:`lane_updates` runs on arrays, each with
#: the prediction it must use for the search to apply.
_CROSSING_PREDICTIONS = {
    DistanceBasedReporting: StaticPrediction,
    LinearPredictionProtocol: LinearPrediction,
}

#: The first-crossing search's window in samples: it starts at
#: ``_FIRST_WINDOW`` after each send and doubles on every window without a
#: crossing, up to ``_MAX_WINDOW``.
_FIRST_WINDOW = 32
_MAX_WINDOW = 1024


def _first_crossings(
    protocol: UpdateProtocol,
    times: np.ndarray,
    positions: np.ndarray,
    velocities: np.ndarray,
    speeds: np.ndarray,
    linear: bool,
) -> List[Tuple[float, UpdateMessage]]:
    """The sends of a static or linear threshold protocol, found on arrays.

    From the protocol's last report (or an ``INITIAL`` send at the first
    sample) the next send is the first later sample where
    ``sqrt(dx*dx + dy*dy) + up > us``, with ``(dx, dy)`` the deviation from
    the report's position, moved along its velocity for linear DR.  Growing
    windows of samples are searched with one ``argmax`` over the trigger
    mask each.  The same IEEE operations in the same order as the
    prediction's ``predict`` and :func:`~repro.geo.vec.distance` make every
    decision bit-identical to the per-sighting path, and messages are built
    only at send indices through the protocol's own ``_emit_update``, so
    its sequence, counters and last report end as that path leaves them.
    A non-finite sighting raises :func:`~repro.geo.vec.as_vec`'s
    ``ValueError`` after the sends before it, as the per-sighting path does.
    """
    finite = np.isfinite(positions).all(axis=1)
    stop = len(times) if finite.all() else int(finite.argmin())
    xs = positions[:stop, 0]
    ys = positions[:stop, 1]
    time_list = times.tolist()
    speed_list = speeds.tolist()
    up = protocol.sensor_uncertainty
    us = protocol.accuracy
    updates: List[Tuple[float, UpdateMessage]] = []

    def send(j: int, reason: UpdateReason) -> None:
        t = time_list[j]
        message = protocol._emit_update(t, positions[j], velocities[j], speed_list[j], reason)
        updates.append((t, message))

    i = 0
    if protocol.last_reported is None and stop:
        send(0, UpdateReason.INITIAL)
        i = 1
    window = _FIRST_WINDOW
    while i < stop:
        state = protocol.last_reported
        px, py = state.position.tolist()
        end = min(i + window, stop)
        if linear:
            vx, vy = state.velocity.tolist()
            dt = times[i:end] - state.time
            dx = xs[i:end] - (px + vx * dt)
            dy = ys[i:end] - (py + vy * dt)
        else:
            dx = xs[i:end] - px
            dy = ys[i:end] - py
        crossed = np.sqrt(dx * dx + dy * dy) + up > us
        j = int(crossed.argmax())
        if crossed[j]:
            send(i + j, UpdateReason.THRESHOLD)
            i += j + 1
            window = _FIRST_WINDOW
        else:
            i = end
            window = min(2 * window, _MAX_WINDOW)
    if stop < len(times):
        as_vec(positions[stop])  # raises the per-sighting path's ValueError
    return updates


def trace_updates(protocol: UpdateProtocol, trace: Trace) -> List[Tuple[float, UpdateMessage]]:
    """Every ``(send_time, update)`` *protocol* transmits over *trace*.

    The fleet's sighting path for one trace, without channel or server:
    the trace's speed/heading estimates
    (:func:`~repro.traces.estimation.estimate_trace`), the protocol's
    :meth:`~repro.protocols.base.UpdateProtocol.prepare_trace`, then
    :func:`lane_updates`.
    """
    times = trace.times
    positions = trace.positions
    velocities, speeds = estimate_trace(times, positions, protocol.estimator.window)
    protocol.prepare_trace(times, positions, velocities, speeds)
    return lane_updates(protocol, times, positions, velocities, speeds)[0]


def fleet_extent(lanes: Sequence[FleetLane]) -> BoundingBox:
    """Bounding box of every lane's truth trace (its sensor trace if none)."""
    mins = []
    maxs = []
    for lane in lanes:
        truth = lane.truth_trace if lane.truth_trace is not None else lane.sensor_trace
        mins.append(truth.positions.min(axis=0))
        maxs.append(truth.positions.max(axis=0))
    lo = np.min(mins, axis=0)
    hi = np.max(maxs, axis=0)
    return BoundingBox(float(lo[0]), float(lo[1]), float(hi[0]), float(hi[1]))


def auto_region_size(extent: BoundingBox, shards: int) -> float:
    """Routing cell size targeting ~8 grid-hash cells per shard.

    Sized from the fleet's spatial *extent* (:func:`fleet_extent`) so that
    shard routing stays meaningful at any scenario scale (a fixed metre
    value degenerates to a single cell on small-scale test runs).
    """
    width = max(extent.width, 1.0)
    height = max(extent.height, 1.0)
    return max(100.0, math.sqrt(width * height / (8.0 * max(1, shards))))


def run_simulation(
    protocol: UpdateProtocol,
    sensor_trace: Trace,
    truth_trace: Optional[Trace] = None,
    channel: Optional[MessageChannel] = None,
    *,
    object_id: str = "object-0",
) -> SimulationResult:
    """One object, one protocol, one trace: a one-lane :class:`FleetSimulation`.

    The paper's experimental setup (Sec. 4): *sensor_trace* is what the
    positioning sensor reports, *truth_trace* (defaulting to the sensor
    trace) the ground truth the server-side error is measured against,
    *channel* the source-to-server channel (loss-free and instantaneous when
    omitted).  The bootstrap update counts towards the update total: the
    paper counts transmitted messages.
    """
    lane = FleetLane(
        object_id=object_id,
        protocol=protocol,
        sensor_trace=sensor_trace,
        truth_trace=truth_trace,
        channel=channel,
    )
    return FleetSimulation([lane]).run().results[object_id]
