"""Fleet-scale simulation: many objects through one time-ordered loop.

:class:`FleetSimulation` is the simulation core every experiment entry point
ultimately runs on.  It steps any number of *lanes* — one (object, protocol,
trace) combination each — against one shared backend (a plain
:class:`~repro.service.server.LocationServer` or a sharded
:class:`~repro.service.facade.LocationService`) and one (or several)
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
* **One send schedule** — speed/heading estimates for each sensor trace
  are precomputed in one batched pass
  (:func:`repro.traces.estimation.estimate_trace`, bitwise identical to
  estimating sighting by sighting) and handed with the trace to the
  protocol's :meth:`~repro.protocols.base.UpdateProtocol.prepare_trace`
  (the map-based protocol matches the whole trace there).  A source
  decides every update from its own sightings and timers and never hears
  back from the channel or the server, so a lane's update stream depends
  only on its protocol and trace.  Every protocol states its send rule
  once, as a window trigger over the prepared rows, and
  :func:`lane_updates` finds the sends with one first-crossing search over
  it, protocol deadlines acting at their exact instants.  The replay plan
  (:func:`repro.service.loadgen.build_replay_plan`) calls the same
  function, so it serves exactly what the fleet delivers over a loss-free,
  zero-latency channel.
* **One measurement** — the fleet pushes each lane's stream through its
  channel (which counts the send, draws the keyed loss and returns the
  delivery instant ``send_time + latency``) and measures the lane from its
  own delivered stream: the error at a sample is the distance from ground
  truth of the registered prediction of the last message delivered by
  then, gathered on arrays for static and linear predictions and asked
  once per held message for the others.  Error samples are accumulated
  into :class:`~repro.sim.metrics.AccuracyMetrics` as one array per lane.
  The deliveries are then ingested in time order, one batch per instant,
  so the backend — a plain server or a sharded service, which hands
  objects between shards as their updates arrive — ends as a
  per-timestep loop leaves it.  When every lane shares one sampling grid,
  channel latency is a multiple of it and no protocol deadline falls off
  it, the results are bit-identical to the classic per-timestep loop (the
  test-suite keeps that loop, a per-sample walk over the backend's
  predictions and the per-sighting protocol rules as oracles and asserts
  the identities over the whole scenario library).
* **One loop** — a run is this loop in the calling process; no fleet is
  split across workers.  A sweep spreads its points over a worker pool
  (:class:`~repro.sim.runner.SweepRunner`).  The columnar engine
  (:class:`~repro.sim.columnar.ColumnarFleetEngine`) is a separate,
  bit-identical engine for the homogeneous fleets it accepts; callers
  choose it (the ``fleet`` command does), the fleet never does.

Application queries never change a :class:`~repro.sim.metrics.SimulationResult`,
so they are not part of the simulation: the query side replays a
materialised :class:`~repro.service.loadgen.ReplayPlan` against the
service instead (:meth:`repro.sim.runner.SweepRunner.run_query_bench`,
the ``load-test`` command).
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.geo.bbox import BoundingBox
from repro.geo.vec import as_vec
from repro.obs import NO_OBS, Observability
from repro.obs.metrics import publish_service_stats
from repro.obs.trace import DELIVERY, KIND_NAMES, SAMPLE, TIMER
from repro.protocols.base import UpdateMessage, UpdateProtocol, UpdateReason
from repro.protocols.prediction import LinearPrediction, PredictionFunction, StaticPrediction
from repro.service.channel import MessageChannel
from repro.service.facade import LocationService
from repro.service.server import LocationServer
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
        "lane", "channel", "prediction", "metrics", "reasons", "updates", "times",
        "truth_positions", "errors",
    )

    def __init__(self, lane: FleetLane, channel: MessageChannel):
        truth = lane.truth_trace if lane.truth_trace is not None else lane.sensor_trace
        if len(truth) != len(lane.sensor_trace):
            raise ValueError("sensor and truth traces must have the same length")
        if not np.array_equal(truth.times, lane.sensor_trace.times):
            raise ValueError("sensor and truth traces must share their timestamps")
        self.lane = lane
        self.channel = channel
        #: The prediction the lane's server record is registered with.
        self.prediction: PredictionFunction = lane.protocol.prediction_function()
        self.metrics = AccuracyMetrics()
        self.metrics.set_bound(lane.protocol.accuracy)
        self.reasons: Dict[str, int] = {}
        self.updates = 0
        self.times = lane.sensor_trace.times
        self.truth_positions = truth.positions
        _prepare(lane.protocol, lane.sensor_trace)
        #: One error per measured sample (:meth:`measure`).
        self.errors = np.empty(0)

    def count_update(self, message: UpdateMessage) -> None:
        """Count one transmitted update and its reason."""
        self.updates += 1
        key = message.reason.value
        self.reasons[key] = self.reasons.get(key, 0) + 1

    def measure(self, arrivals: List[float], messages: List[UpdateMessage]) -> None:
        """Measure every sample at once against the lane's delivered stream.

        At sample *i* the server's record holds the last message delivered
        at or before ``times[i]`` (``side="right"``: a message counts from
        its own delivery instant on, the per-timestep ingest-then-measure
        order), and samples before the first delivery are not measured.  Static and
        linear predictions are gathered for all samples at once; any other
        prediction is asked once per run of samples that hold the same
        message (:meth:`~repro.protocols.prediction.PredictionFunction.predict_many`,
        row for row bit-identical to ``predict``).  The error is
        :func:`~repro.geo.vec.distance`'s arithmetic on arrays, so every
        sample is bit for bit the error of the record's own prediction
        asked at that sample.
        """
        if not messages:
            return
        # Stream order is sequence order, so a stable sort by delivery
        # instant is the server's (deliver_at, sequence) ingest order.
        order = np.argsort(arrivals, kind="stable")
        held = np.searchsorted(np.asarray(arrivals)[order], self.times, side="right") - 1
        first = int(np.searchsorted(held, 0))
        held = order[held[first:]]
        times = self.times[first:]
        states = [message.state for message in messages]
        prediction = self.prediction
        if type(prediction) in (StaticPrediction, LinearPrediction):
            predicted = np.array([state.position for state in states])[held]
            if type(prediction) is LinearPrediction:
                dt = times - np.array([state.time for state in states])[held]
                velocity = np.array([state.velocity for state in states])[held]
                predicted = predicted + velocity * dt[:, None]
        else:
            predicted = np.empty((len(held), 2))
            if len(held):
                runs = (np.flatnonzero(held[1:] != held[:-1]) + 1).tolist()
                for a, b in zip([0, *runs], [*runs, len(held)]):
                    predicted[a:b] = prediction.predict_many(states[held[a]], times[a:b])
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
    """Run many (object, protocol, trace) lanes against one backend.

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
        :class:`~repro.service.facade.LocationService`.  The fleet registers
        every lane's object there and ingests every delivered update (one
        ``ingest_batch`` per delivery instant where the backend has it);
        it measures errors from each lane's own delivered stream, so the
        backend never changes an error sample.  Every object's update
        total counts its bootstrap update (the paper counts transmitted
        messages).
    obs:
        The :class:`~repro.obs.Observability` bundle the run records
        per-event-kind counts, phase spans and per-lane work into.  A
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
        self.obs = obs

    def run(self) -> FleetResult:
        """Execute the fleet simulation and return per-object results.

        ``run()`` is one-shot: it registers every lane's object with the
        server, so calling it again (or running a second fleet against the
        same long-lived server with overlapping ids) is rejected here,
        before any state is mutated.
        """
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
                prediction=state.prediction,
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
        if stats:
            publish_service_stats(obs.registry, stats)
        return FleetResult(results=results, service_stats=stats)

    @staticmethod
    def _record_lane_metrics(obs: Observability, states: List["_LaneState"]) -> None:
        """Record per-run lane aggregates: samples, updates, bytes, errors."""
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
        """Push every lane's update stream through its channel, measure, ingest.

        1. Each lane's :func:`lane_updates` stream goes through its
           channel's :meth:`~repro.service.channel.MessageChannel.transmit`,
           which counts the send, draws the keyed loss and returns the
           delivery instant.  The simulation clock stops at the last
           sighting: a message due past it stays undelivered rather than
           extending the run.
        2. The lane is measured from its own delivered stream
           (:meth:`_LaneState.measure`): its error at a sample depends on
           nothing but the messages delivered to its record by then.
        3. Every delivery, sorted by ``(deliver_at, channel order, object
           id, sequence)``, is ingested, one batch per delivery instant, so
           the backend's records (and a sharded service's homes, handoffs
           and counters) end as a per-timestep loop leaves them.

        The ``kernel.events.sample`` counter counts every lane's sightings;
        the flight recorder notes DELIVERY events.
        """
        server = self.server
        ingest = getattr(server, "ingest_batch", None)
        obs = self.obs
        # Read once: the disabled loop skips the flight-recorder notes.
        enabled = obs.enabled
        flight_note = obs.flight.note
        end_time = max(float(state.times[-1]) for state in states)
        channel_index = {channel: n for n, channel in enumerate(channels)}
        timer_fires = 0
        try:
            deliveries: List[Tuple[float, int, str, int, UpdateMessage]] = []
            for state in states:
                object_id = state.lane.object_id
                channel = state.channel
                slot = channel_index[channel]
                stream, fires = lane_updates(state.lane.protocol)
                timer_fires += fires
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
                state.measure(arrivals, delivered)
            # Sequence numbers are unique per object, so the comparison
            # never reaches the (unordered) message itself.
            deliveries.sort()
            d = 0
            while d < len(deliveries):
                t = deliveries[d][0]
                first = d
                while d < len(deliveries) and deliveries[d][0] == t:
                    d += 1
                if enabled:
                    for j in range(first, d):
                        flight_note(t, DELIVERY, j)
                batch = [(entry[2], entry[4]) for entry in deliveries[first:d]]
                if ingest is not None:
                    ingest(batch, t)
                else:
                    for oid, msg in batch:
                        server.receive_update(oid, msg, t)
            counts = {
                SAMPLE: sum(len(state.times) for state in states),
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


#: The first-crossing search's window in samples: it starts at
#: ``_FIRST_WINDOW`` after each send and doubles on every window without a
#: crossing, up to ``_MAX_WINDOW``.
_FIRST_WINDOW = 32
_MAX_WINDOW = 1024


def lane_updates(protocol: UpdateProtocol) -> Tuple[List[Tuple[float, UpdateMessage]], int]:
    """Every ``(send_time, update)`` one lane transmits, and its timer fires.

    The one per-lane send schedule, and the one search for every protocol:
    the fleet pushes it through the lane's channel and the replay plan
    batches it.  *protocol* must already be prepared for the lane's trace
    (:meth:`~repro.protocols.base.UpdateProtocol.prepare_trace`); the
    search decides every row and then drops the trace.

    From the protocol's last report (or an ``INITIAL`` send at the first
    row) the next send is the first later row where the protocol's
    trigger (:meth:`~repro.protocols.base.UpdateProtocol._trigger`) fires,
    for the first reason whose mask holds there.  Growing windows of rows
    are judged at once and searched with one ``argmax`` each.  The
    triggers do the per-sighting arithmetic on arrays with the same IEEE
    operations in the same order, and messages are built only at send
    rows through the protocol's own ``_emit_update``, so sequence,
    counters and last report end as a sighting-by-sighting run leaves
    them.

    A protocol with a :meth:`~repro.protocols.base.UpdateProtocol.next_deadline`
    acts on it at its exact instant ``d``, interleaved with the rows:

    * a deadline before row ``j``'s time fires (a timer) before row ``j``
      is decided, its update carrying row ``j - 1``;
    * a deadline at row ``j``'s time fires after row ``j`` is decided,
      carrying row ``j``, unless that row sent; with
      ``deadline_before_decision`` row ``j`` meets it first instead, as
      no timer fire;
    * a deadline past the lane's last row never fires, and one that
      fired and stayed put is spent.

    The second value counts the timer fires.  A non-finite sighting raises
    :func:`~repro.geo.vec.as_vec`'s ``ValueError`` after the sends before
    it.
    """
    times = protocol._times
    positions = protocol._positions
    finite = np.isfinite(positions).all(axis=1)
    stop = len(times) if finite.all() else int(finite.argmin())
    time_list = times.tolist()
    lane_end = time_list[-1] if time_list else -math.inf
    trigger = protocol._trigger
    timed = type(protocol).next_deadline is not UpdateProtocol.next_deadline
    updates: List[Tuple[float, UpdateMessage]] = []
    fires = 0
    spent = None

    def send(t: float, row: int, reason: Optional[UpdateReason]) -> None:
        if reason is not None:
            updates.append((t, protocol._emit_update(t, row, reason)))

    i = protocol._row
    if protocol.last_reported is None and i < stop:
        send(time_list[i], i, UpdateReason.INITIAL)
        i += 1
    window = _FIRST_WINDOW
    while i < stop:
        end = min(i + window, stop)
        triggers = trigger(i, end)
        crossed = triggers[0][0]
        for n in range(1, len(triggers)):
            crossed = crossed | triggers[n][0]
        j = int(crossed.argmax())
        sends = bool(crossed[j])
        deadline = protocol.next_deadline() if timed else None
        if deadline is not None and deadline != spent and deadline <= lane_end:
            # The first undecided row at or past the deadline, and the
            # last row this window decides.
            k = bisect.bisect_left(time_list, deadline, i)
            last = i + j if sends else end - 1
            met = k <= last
            if met and k > 0 and time_list[k] > deadline:
                # A timer between rows k - 1 and k.
                fires += 1
                send(deadline, k - 1, protocol._on_deadline(deadline))
                i = k
            elif met and protocol.deadline_before_decision:
                # Row k meets the deadline before its own decision.
                send(time_list[k], k, protocol._on_deadline(time_list[k]))
                i = k
            elif met and (k < last or not sends):
                # A timer right after row k, which sent nothing.
                fires += 1
                send(deadline, k, protocol._on_deadline(deadline))
                i = k + 1
            else:
                met = False  # not due yet, or row k's own update supersedes it
            if met:
                spent = deadline
                window = _FIRST_WINDOW
                continue
        if sends:
            for mask, reason in triggers:
                if mask[j]:
                    break
            send(time_list[i + j], i + j, reason)
            i += j + 1
            window = _FIRST_WINDOW
        else:
            i = end
            window = min(2 * window, _MAX_WINDOW)
    protocol._forget_trace()
    if stop < len(times):
        as_vec(positions[stop])  # raises the ValueError of the bad sighting
    return updates, fires


def trace_updates(protocol: UpdateProtocol, trace: Trace) -> List[Tuple[float, UpdateMessage]]:
    """Every ``(send_time, update)`` *protocol* transmits over *trace*.

    The fleet's sighting path for one trace, without channel or server:
    the trace's speed/heading estimates
    (:func:`~repro.traces.estimation.estimate_trace`), the protocol's
    :meth:`~repro.protocols.base.UpdateProtocol.prepare_trace`, then
    :func:`lane_updates`.
    """
    _prepare(protocol, trace)
    return lane_updates(protocol)[0]


def _prepare(protocol: UpdateProtocol, trace: Trace) -> None:
    """Hand *protocol* the sensor *trace* with its speed/heading estimates."""
    velocities, speeds = estimate_trace(
        trace.times, trace.positions, protocol.estimation_window
    )
    protocol.prepare_trace(trace.times, trace.positions, velocities, speeds)


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
