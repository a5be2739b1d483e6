"""Replay scenario traffic against a live location server.

The load generator closes the loop the rest of the repository leaves open:
the simulators *measure* the protocols, this module *serves* them.  A
:class:`ReplayPlan` is the one query driver of the repository:

1. it extracts the **update stream** a fleet of lanes would transmit over a
   loss-free, zero-latency channel — each lane's
   :func:`~repro.sim.fleet.lane_updates`, the same send schedule the fleet
   pushes through its channels — and groups the updates into time-ordered
   batches;
2. it draws the **query stream** from the workload's seeded stream
   (:func:`repro.sim.workload.query_stream`), per tick or Poisson, so the
   calls fall at the simulated instants the fleet's ticks define;
3. :func:`replay_in_process` replays both against an in-process
   :class:`~repro.service.facade.LocationService` (the query bench), and
   :func:`run_load_test` replays them against a
   :class:`~repro.service.live.server.LiveLocationServer` as closed-loop
   clients, recording per-request wall-clock latency
   (:class:`~repro.obs.metrics.LatencyRecorder`) and the
   **schedule** the server actually executed: the sequence number every
   batch was accepted at and the ``at_seq`` every query was answered at.

The recorded schedule is what makes the correctness claim exact instead of
statistical: :func:`reference_answers` replays the same batches in the same
sequence order against a plain in-process facade, pausing at every query's
``at_seq``, and the live answers must be **bit-identical** to the
reference's — whatever interleaving the network produced.
"""

from __future__ import annotations

import asyncio
import time as _time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.geo.bbox import BoundingBox
from repro.obs import NO_OBS, Observability
from repro.obs.metrics import LatencyRecorder
from repro.protocols.base import UpdateMessage
from repro.service.facade import LocationService
from repro.service.live.client import LiveClient
from repro.service.live.server import service_for_registrations
from repro.sim.fleet import FleetLane, auto_region_size, fleet_extent, trace_updates
from repro.sim.workload import (
    QueryCall,
    QueryWorkload,
    WorkloadReport,
    execute_call,
    query_stream,
)

#: One ingest batch: every update delivered at one simulated instant.
Batch = Tuple[float, List[Tuple[str, UpdateMessage]]]


@dataclass
class ReplayPlan:
    """Everything needed to drive (and verify) one load-test run.

    ``registrations`` holds ``(object_id, prediction, accuracy)`` triples
    shared verbatim between the live server's facade and the reference
    facade — prediction functions are deterministic and stateless at query
    time, so sharing the instances keeps both sides bit-identical.
    ``ticks`` are the sample instants up to ``end`` (the union of every
    lane's sample times) the per-tick query stream was drawn over.
    """

    registrations: List[Tuple[str, object, float]]
    batches: List[Batch]
    calls: List[QueryCall]
    area: BoundingBox
    workload: QueryWorkload
    start: float
    end: float
    ticks: List[float]

    @property
    def total_updates(self) -> int:
        """Update messages summed over every batch."""
        return sum(len(batch) for _, batch in self.batches)


def build_replay_plan(
    lanes: Sequence[FleetLane],
    workload: QueryWorkload,
    max_batches: Optional[int] = None,
    max_queries: Optional[int] = None,
) -> ReplayPlan:
    """Extract a fleet's update stream and draw its query stream.

    The lanes' protocols are *consumed* (they process every sighting), so
    callers must pass freshly built lanes.  Every lane's stream is
    :func:`~repro.sim.fleet.lane_updates`, as over a loss-free zero-latency
    channel, timer-fired updates included.  Updates are grouped per
    simulated instant in lane order — per instant the same updates
    :class:`~repro.sim.fleet.FleetSimulation` hands to
    :meth:`~repro.service.facade.LocationService.ingest_batch`.  The query
    stream is drawn over the union of the lanes' sample instants, per tick
    or Poisson as *workload* says, inside the lanes'
    :func:`~repro.sim.fleet.fleet_extent`.
    """
    if not lanes:
        raise ValueError("need at least one lane")
    registrations = [
        (lane.object_id, lane.protocol.prediction_function(), lane.protocol.accuracy)
        for lane in lanes
    ]
    events: List[Tuple[float, int, str, UpdateMessage]] = []
    ticks: set = set()
    for lane_index, lane in enumerate(lanes):
        ticks.update(lane.sensor_trace.times.tolist())
        for t, message in trace_updates(lane.protocol, lane.sensor_trace):
            events.append((t, lane_index, lane.object_id, message))
    # Group updates sharing an instant into one batch, lanes in lane order
    # within the instant (the sort is stable: a lane's own updates keep
    # their send order).
    events.sort(key=lambda e: (e[0], e[1]))
    batches: List[Batch] = []
    for t, _lane_index, object_id, message in events:
        if batches and batches[-1][0] == t:
            batches[-1][1].append((object_id, message))
        else:
            batches.append((t, [(object_id, message)]))
    tick_list = sorted(ticks)
    start, end = tick_list[0], tick_list[-1]
    if max_batches is not None:
        batches = batches[:max_batches]
        if batches:
            end = min(end, batches[-1][0])
            tick_list = [t for t in tick_list if t <= end]
    area = fleet_extent(lanes)
    calls = query_stream(workload, area, tick_list, end)
    if max_queries is not None:
        calls = calls[:max_queries]
    return ReplayPlan(
        registrations=registrations,
        batches=batches,
        calls=calls,
        area=area,
        workload=workload,
        start=start,
        end=end,
        ticks=tick_list,
    )


def lockstep_order(plan: "ReplayPlan") -> List[Tuple[bool, int]]:
    """The canonical replay order of *plan*: ``(is_query, index)`` pairs.

    Batches and calls merged by simulated time; at an equal instant every
    batch comes before every call (the fleet applies an instant's
    deliveries before anything reads them), and each kind keeps plan order.
    """
    merged = [(t, 0, i) for i, (t, _batch) in enumerate(plan.batches)]
    merged.extend((call.time, 1, i) for i, call in enumerate(plan.calls))
    merged.sort()
    return [(kind == 1, index) for _t, kind, index in merged]


def replay_in_process(
    plan: "ReplayPlan", service: LocationService
) -> Tuple[WorkloadReport, List[object]]:
    """Replay *plan* against an in-process *service* in :func:`lockstep_order`.

    Batches go through ``ingest_batch``, calls through
    :func:`~repro.sim.workload.execute_call`, each query timed on the wall
    clock.  Returns the workload report (``ticks`` is the plan's sample
    instant count) and every call's answer, in call order.
    """
    report = WorkloadReport(ticks=len(plan.ticks))
    answers: List[object] = [None] * len(plan.calls)
    for is_query, index in lockstep_order(plan):
        if is_query:
            call = plan.calls[index]
            started = _time.perf_counter()
            answer = execute_call(service, plan.workload, call)
            report.query_seconds += _time.perf_counter() - started
            report.record(call.kind, answer)
            answers[index] = answer
        else:
            t, batch = plan.batches[index]
            service.ingest_batch(batch, t)
    return report, answers


def service_for_plan(plan: ReplayPlan, n_shards: int = 1) -> LocationService:
    """A fresh facade with the plan's registrations applied."""
    return service_for_registrations(
        plan.registrations,
        n_shards=n_shards,
        region_size=auto_region_size(plan.area, n_shards),
    )


# --------------------------------------------------------------------------- #
# the load test itself
# --------------------------------------------------------------------------- #
@dataclass
class LoadTestReport:
    """Latencies, throughput and the recorded schedule of one run."""

    mode: str
    clients: int
    ingest_latency: LatencyRecorder = field(default_factory=LatencyRecorder)
    query_latency: LatencyRecorder = field(default_factory=LatencyRecorder)
    #: ``batch_seqs[i]`` is the server sequence number batch ``i`` was
    #: accepted at, or ``None`` when backpressure rejected it.
    batch_seqs: List[Optional[int]] = field(default_factory=list)
    #: One ``(call_index, at_seq, answer)`` triple per answered query.
    query_records: List[Tuple[int, int, object]] = field(default_factory=list)
    rejected_batches: int = 0
    wall_seconds: float = 0.0

    @property
    def accepted_batches(self) -> int:
        """Batches the server acknowledged with a sequence number."""
        return sum(1 for seq in self.batch_seqs if seq is not None)

    @property
    def requests(self) -> int:
        """Completed requests (accepted ingests + answered queries)."""
        return self.accepted_batches + len(self.query_records)

    @property
    def throughput_rps(self) -> float:
        """Saturation throughput: completed requests per wall-clock second."""
        return self.requests / self.wall_seconds if self.wall_seconds > 0 else 0.0

    def as_dict(self) -> Dict[str, object]:
        """Flat summary for reports, the CLI and the benchmark artifact."""
        return {
            "mode": self.mode,
            "clients": self.clients,
            "batches": len(self.batch_seqs),
            "accepted_batches": self.accepted_batches,
            "rejected_batches": self.rejected_batches,
            "queries": len(self.query_records),
            "wall_seconds": round(self.wall_seconds, 6),
            "throughput_rps": round(self.throughput_rps, 1),
            "ingest": self.ingest_latency.summary(),
            "query": self.query_latency.summary(),
        }


async def run_load_test(
    plan: ReplayPlan,
    host: str,
    port: int,
    clients: int = 2,
    mode: str = "concurrent",
    wait: bool = True,
    obs: Observability = NO_OBS,
) -> LoadTestReport:
    """Drive a running server with *plan*'s traffic, closed-loop.

    ``mode="concurrent"`` deals the batches round-robin over *clients*
    ingest connections (each sends its share in plan order, as fast as the
    server acknowledges) while one query connection issues every call in
    arrival order — the saturation measurement.  ``mode="lockstep"`` runs
    one connection that alternates strictly: each query carries
    ``min_seq`` equal to the last acknowledged batch, so answers are
    deterministic in plan order (the configuration the bit-identity test
    pins end to end).

    With ``wait=False`` ingest requests are submitted in shed-load form:
    a full queue rejects the batch instead of delaying the client.

    The :class:`~repro.obs.Observability` bundle *obs* gets a span over
    the whole drive plus the client-side latency distributions
    (``live.load.ingest`` / ``live.load.query``) merged into its registry;
    the default, the disabled :data:`~repro.obs.NO_OBS`, records nothing.
    """
    if mode not in ("concurrent", "lockstep"):
        raise ValueError(f"unknown mode {mode!r}")
    if clients < 1:
        raise ValueError("need at least one client")
    report = LoadTestReport(mode=mode, clients=clients)
    report.batch_seqs = [None] * len(plan.batches)
    started = _time.perf_counter()
    with obs.span(
        f"loadgen.{mode}",
        cat="live",
        args={"clients": clients, "batches": len(plan.batches), "calls": len(plan.calls)},
    ):
        if mode == "lockstep":
            await _run_lockstep(plan, host, port, report)
        else:
            await _run_concurrent(plan, host, port, clients, wait, report)
    report.wall_seconds = _time.perf_counter() - started
    obs.latency("live.load.ingest").merge(report.ingest_latency)
    obs.latency("live.load.query").merge(report.query_latency)
    if report.rejected_batches:
        obs.counter("live.load.rejected", deterministic=False).inc(report.rejected_batches)
    return report


async def _ingest_one(
    client: LiveClient,
    plan: ReplayPlan,
    index: int,
    wait: bool,
    report: LoadTestReport,
) -> Optional[int]:
    """Send batch *index*; record its latency and sequence number."""
    t, batch = plan.batches[index]
    started = _time.perf_counter()
    response = await client.ingest(t, batch, wait=wait, check=False)
    report.ingest_latency.record(_time.perf_counter() - started)
    if response.get("ok", False):
        seq = int(response["seq"])
        report.batch_seqs[index] = seq
        return seq
    if response.get("rejected", False):
        report.rejected_batches += 1
        return None
    raise RuntimeError(f"ingest failed: {response.get('error')}")


async def _query_one(
    client: LiveClient,
    plan: ReplayPlan,
    index: int,
    min_seq: int,
    report: LoadTestReport,
) -> None:
    """Issue call *index*; record its latency, ``at_seq`` and answer."""
    call = plan.calls[index]
    started = _time.perf_counter()
    answer, at_seq = await client.query_call(plan.workload, call, min_seq=min_seq)
    report.query_latency.record(_time.perf_counter() - started)
    report.query_records.append((index, at_seq, answer))


async def _run_lockstep(
    plan: ReplayPlan, host: str, port: int, report: LoadTestReport
) -> None:
    """One connection, :func:`lockstep_order`, read-your-writes watermarks."""
    async with await LiveClient.connect(host, port) as client:
        last_seq = 0
        for is_query, index in lockstep_order(plan):
            if is_query:
                await _query_one(client, plan, index, last_seq, report)
            else:
                seq = await _ingest_one(client, plan, index, True, report)
                if seq is not None:
                    last_seq = seq


async def _run_concurrent(
    plan: ReplayPlan,
    host: str,
    port: int,
    clients: int,
    wait: bool,
    report: LoadTestReport,
) -> None:
    """Round-robin ingest connections racing one query connection."""

    async def ingest_worker(worker: int) -> None:
        async with await LiveClient.connect(host, port) as client:
            for index in range(worker, len(plan.batches), clients):
                await _ingest_one(client, plan, index, wait, report)

    async def query_worker() -> None:
        async with await LiveClient.connect(host, port) as client:
            for index in range(len(plan.calls)):
                await _query_one(client, plan, index, 0, report)

    await asyncio.gather(
        *(ingest_worker(w) for w in range(clients)),
        query_worker(),
    )


# --------------------------------------------------------------------------- #
# the reference side of the bit-identity assertion
# --------------------------------------------------------------------------- #
def reference_answers(
    plan: ReplayPlan, report: LoadTestReport, n_shards: int = 1
) -> List[Tuple[int, object]]:
    """Recompute every recorded query on a plain in-process facade.

    Replays the *recorded* schedule: batches are applied in the sequence
    order the live server assigned, and each query is answered once the
    facade has applied exactly the batches with ``seq <= at_seq``.  Returns
    ``(call_index, answer)`` pairs aligned with ``report.query_records`` —
    the live answers must equal these bit-for-bit.
    """
    service = service_for_plan(plan, n_shards=n_shards)
    applied = sorted(
        (seq, index)
        for index, seq in enumerate(report.batch_seqs)
        if seq is not None
    )
    queries = sorted(
        range(len(report.query_records)),
        key=lambda i: report.query_records[i][1],
    )
    answers: List[Tuple[int, object]] = [(0, None)] * len(report.query_records)
    cursor = 0
    for record_index in queries:
        call_index, at_seq, _live_answer = report.query_records[record_index]
        while cursor < len(applied) and applied[cursor][0] <= at_seq:
            _seq, batch_index = applied[cursor]
            t, batch = plan.batches[batch_index]
            service.ingest_batch(batch, t)
            cursor += 1
        answers[record_index] = (
            call_index,
            execute_call(service, plan.workload, plan.calls[call_index]),
        )
    return answers


def mismatched_answers(
    plan: ReplayPlan, report: LoadTestReport, n_shards: int = 1
) -> List[Tuple[int, object, object]]:
    """All queries whose live answer differs from the reference replay.

    Empty means the server was bit-identical to direct facade calls for
    the entire run.  Each mismatch is ``(call_index, live, reference)``.
    """
    reference = reference_answers(plan, report, n_shards=n_shards)
    mismatches: List[Tuple[int, object, object]] = []
    for (call_index, _at_seq, live), (_ci, ref) in zip(
        report.query_records, reference
    ):
        if live != ref:
            mismatches.append((call_index, live, ref))
    return mismatches
