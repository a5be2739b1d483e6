"""The live location server: an asyncio TCP front over one facade.

Design
------
One :class:`~repro.service.facade.LocationService` instance serves every
connection.  The two request classes meet it differently:

* **Ingestion is single-writer.**  ``ingest`` requests do not touch the
  facade from their connection handler; they enqueue the decoded batch on
  a **bounded** :class:`asyncio.Queue` and one writer task applies batches
  in queue order via :meth:`LocationService.ingest_batch`.  The bound is
  the backpressure mechanism: when the queue is full, a default request
  *waits* for a slot (the client's send loop slows down to the service's
  ingest rate instead of growing an unbounded backlog), and a request with
  ``"wait": false`` is *rejected* immediately with ``"rejected": true`` so
  open-loop clients can shed load.  Either way memory stays bounded.
* **Queries are read-only** and answered in coalesced batches on the event
  loop.  A query request parks on a future and schedules one flush
  callback; every query that arrived in the same loop iteration (e.g. a
  burst from many client connections) is answered inside that single
  synchronous callback against one ``applied_seq`` watermark — so a burst
  of queries at the same timestamp pays one facade ``prepare`` and the
  per-shard work runs as one vectorised pass per query instead of
  interleaving with ingest.  Because the flush never awaits and
  :meth:`ingest_batch` never awaits, a query can never observe a
  half-applied batch.

With a :class:`~repro.service.sharding.RebalancePolicy` attached the
writer additionally checks the per-shard skew after each applied batch and
re-homes hot routing cells when the threshold trips — load-adaptive
sharding under live traffic, with placement changes that provably never
alter query answers.

Every accepted ingest batch gets a monotonically increasing **sequence
number** which the writer publishes as ``applied_seq`` once the batch is
in the facade.  A query may carry ``min_seq``: the server defers the
answer until ``applied_seq >= min_seq`` (read-your-writes for a client
that just ingested), and every query response reports the ``at_seq`` it
was answered at — which is what lets the load generator replay the exact
same batch/query interleaving against a plain in-process facade and
assert the answers bit-identical.

The wire protocol is length-prefixed JSON
(:mod:`repro.service.live.protocol`).  Requests are JSON objects with an
``"op"`` key: ``ping``, ``register``, ``ingest``, ``range``, ``nearest``,
``geofence``, ``stats``, ``metrics``, ``shutdown``.  Responses carry
``"ok"`` plus op-specific fields, or ``"ok": false`` with an ``"error"``
message (the connection survives request errors; framing errors — an
oversize length prefix, a frame cut short, a body that is not a JSON
object — close it and are counted as ``frame_errors``).  An ``ingest``
with a non-finite ``t`` is refused at accept time.  An accepted batch that
still raises inside the facade is logged and counted as
``ingest_errors`` (updates applied before the raise stay applied), its
sequence number is published as applied all the same, and the writer
keeps draining — so later batches, ``min_seq`` queries and
:meth:`LiveLocationServer.stop` never wait on a dead writer.

Observability
-------------
With an :class:`~repro.obs.Observability` bundle attached the server
records a per-op latency distribution, the ingest queue depth at each
accepted batch, the shed count, the malformed-frame count
(``live.frame_errors``) and the watermark lag
(``enqueued_seq - at_seq``) observed by queries.  The ``metrics`` op
exposes the registry over the wire — as a JSON snapshot *and* as
Prometheus text exposition — and works without a bundle too (server
counters only, published as gauges at request time).  Shed-load
rejections additionally log a warning through the module logger.
"""

from __future__ import annotations

import asyncio
import logging
import math
import time as _time
from typing import Dict, List, Optional, Tuple

from repro.geo.bbox import BoundingBox
from repro.obs import Observability
from repro.obs.metrics import MetricsRegistry
from repro.protocols.prediction import LinearPrediction, StaticPrediction
from repro.service.facade import LocationService
from repro.service.sharding import RebalancePolicy
from repro.service.live.protocol import (
    FrameError,
    decode_message,
    encode_answer,
    read_frame,
    write_frame,
)

_logger = logging.getLogger(__name__)

#: Prediction functions a client may register over the wire.  Scenario
#: fleets with richer predictions (map-based, known-route) are registered
#: server-side at startup from the same lane specs the simulation uses —
#: those functions are not wire-serialisable.
WIRE_PREDICTIONS = {
    "static": StaticPrediction,
    "linear": LinearPrediction,
}

#: The ops :meth:`LiveLocationServer._dispatch` answers.
KNOWN_OPS = frozenset(
    ("ping", "register", "ingest", "range", "nearest", "geofence", "stats",
     "metrics", "shutdown")
)
#: The one counter / latency key every other op string is recorded under.
UNKNOWN_OP = "unknown"

_STOP = object()


class LiveLocationServer:
    """Serve one :class:`LocationService` over TCP.

    Parameters
    ----------
    service:
        The facade to serve.  Objects may be pre-registered (the ``serve``
        CLI registers a whole scenario fleet before listening) and clients
        may register more via the ``register`` op.
    host / port:
        Listen address; port ``0`` picks a free port (tests, in-process
        load tests).
    ingest_queue_size:
        Bound of the ingest queue, in batches.  This is the backpressure
        knob: small values make waiting/rejection observable under load,
        large values absorb bigger bursts.
    obs:
        Optional :class:`~repro.obs.Observability` bundle.  When attached
        the server records per-op latencies, queue depth, shed counts and
        watermark lag (see the module docstring); when ``None`` the only
        instrumentation cost is one attribute check per request.
    rebalance:
        Optional :class:`~repro.service.sharding.RebalancePolicy`.  When
        attached, the writer checks the per-shard skew after every applied
        ingest batch and re-homes hot routing cells past the threshold.
    """

    def __init__(
        self,
        service: Optional[LocationService] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        ingest_queue_size: int = 64,
        obs: Optional[Observability] = None,
        rebalance: Optional[RebalancePolicy] = None,
    ):
        if ingest_queue_size < 1:
            raise ValueError("ingest_queue_size must be at least 1")
        self.service = service if service is not None else LocationService()
        self.host = host
        self.port = port
        self.obs = obs
        if obs is not None and getattr(self.service, "obs", False) is None:
            # Share the bundle with the facade so its ingest/query
            # instruments land in the same registry the metrics op serves.
            self.service.obs = obs
        self.ingest_queue_size = int(ingest_queue_size)
        self.rebalance_policy = rebalance
        #: Rebalance passes the writer actually ran (threshold trips).
        self.rebalance_passes = 0
        self._queue: Optional[asyncio.Queue] = None
        self._query_batch: List[Tuple[str, Dict[str, object], asyncio.Future]] = []
        self._flush_scheduled = False
        self._applied_cond: Optional[asyncio.Condition] = None
        self._writer_task: Optional[asyncio.Task] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._conn_tasks: set = set()
        self._stopping = False
        #: Sequence number of the last *accepted* (enqueued) ingest batch.
        self.enqueued_seq = 0
        #: Sequence number of the last batch the writer applied to the facade.
        self.applied_seq = 0
        #: ``ingest`` requests turned away because the queue was full.
        self.rejected_batches = 0
        #: Per-op request counters (monitoring / tests).  Ops the server
        #: does not know share the :data:`UNKNOWN_OP` key, so a client
        #: cannot grow this dict (or the metric names) without bound.
        self.op_counts: Dict[str, int] = {}
        #: Connections closed because a frame was oversize, truncated or
        #: not a JSON object.
        self.frame_errors = 0
        #: Accepted ingest batches that raised inside the facade.
        self.ingest_errors = 0
        #: Set by the ``shutdown`` op; :meth:`run_until_shutdown` awaits it.
        self.shutdown_requested = asyncio.Event()

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    async def start(self) -> Tuple[str, int]:
        """Bind the listener and start the writer; returns ``(host, port)``."""
        if self._server is not None:
            raise RuntimeError("server is already started")
        self._queue = asyncio.Queue(maxsize=self.ingest_queue_size)
        self._applied_cond = asyncio.Condition()
        self._stopping = False
        self._writer_task = asyncio.create_task(self._drain_ingest_queue())
        self._server = await asyncio.start_server(self._on_connection, self.host, self.port)
        sockname = self._server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]
        _logger.info(
            "live server listening on %s:%d (ingest queue %d batches)",
            self.host,
            self.port,
            self.ingest_queue_size,
        )
        return self.host, self.port

    async def stop(self, grace: float = 5.0) -> None:
        """Shut down cleanly: stop accepting, finish in-flight work, drain.

        The listener closes first, so no new connections arrive.  Open
        connections get *grace* seconds to finish their in-flight requests
        and disconnect (a well-behaved client closes after its last
        response); stragglers are cancelled.  Every batch accepted before
        the connections ended is then applied — the writer drains the
        queue to its stop marker — so an acknowledged ingest is never
        lost by a clean shutdown.
        """
        if self._server is None:
            return
        self._stopping = True
        self._server.close()
        await self._server.wait_closed()
        if self._conn_tasks:
            _done, pending = await asyncio.wait(set(self._conn_tasks), timeout=grace)
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
        await self._queue.put(_STOP)
        await self._writer_task
        self._server = None
        self._writer_task = None
        _logger.info(
            "live server stopped (applied %d batches, rejected %d)",
            self.applied_seq,
            self.rejected_batches,
        )

    async def run_until_shutdown(self) -> None:
        """Serve until a client sends the ``shutdown`` op, then stop."""
        if self._server is None:
            await self.start()
        await self.shutdown_requested.wait()
        await self.stop()

    @property
    def ingest_queue_depth(self) -> int:
        """Batches currently queued for the writer."""
        return self._queue.qsize() if self._queue is not None else 0

    # ------------------------------------------------------------------ #
    # single writer
    # ------------------------------------------------------------------ #
    async def _drain_ingest_queue(self) -> None:
        """The only code path that mutates the facade's records."""
        while True:
            item = await self._queue.get()
            if item is _STOP:
                self._queue.task_done()
                return
            seq, time, batch = item
            try:
                self.service.ingest_batch(batch, time)
                if self.rebalance_policy is not None:
                    self._maybe_rebalance(time)
            except Exception:  # noqa: BLE001 — one bad batch must not end the writer
                self.ingest_errors += 1
                _logger.exception(
                    "ingest batch %d (%d updates at t=%g) failed; writer keeps draining",
                    seq,
                    len(batch),
                    time,
                )
            finally:
                self._queue.task_done()
                async with self._applied_cond:
                    self.applied_seq = seq
                    self._applied_cond.notify_all()

    def _maybe_rebalance(self, time: float) -> None:
        """Writer-side skew check (never awaits; placement only)."""
        report = self.rebalance_policy.maybe_rebalance(self.service, time)
        if report is None:
            return
        self.rebalance_passes += 1
        _logger.info(
            "rebalanced shard %d at t=%g: skew %.3f -> %.3f "
            "(%d cells, %d objects re-homed)",
            report.hot_shard,
            report.time,
            report.skew_before,
            report.skew_after,
            len(report.moves),
            report.handoffs,
        )
        if self.obs is not None:
            self.obs.counter("live.rebalance.passes", deterministic=False).inc()
            self.obs.counter("live.rebalance.cells", deterministic=False).inc(
                len(report.moves)
            )
            self.obs.counter("live.rebalance.objects", deterministic=False).inc(
                report.handoffs
            )
            self.obs.gauge("live.rebalance.skew_after", deterministic=False).set(
                report.skew_after
            )

    # ------------------------------------------------------------------ #
    # connections
    # ------------------------------------------------------------------ #
    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        try:
            while True:
                try:
                    request = await read_frame(reader)
                except FrameError as exc:
                    self.frame_errors += 1
                    if self.obs is not None:
                        self.obs.counter("live.frame_errors", deterministic=False).inc()
                    _logger.warning("closing connection on a malformed frame: %s", exc)
                    break
                if request is None:
                    break
                op = str(request.get("op", ""))
                key = op if op in KNOWN_OPS else UNKNOWN_OP
                self.op_counts[key] = self.op_counts.get(key, 0) + 1
                started = _time.perf_counter() if self.obs is not None else 0.0
                try:
                    response = await self._dispatch(op, request)
                except asyncio.CancelledError:
                    raise
                except Exception as exc:  # noqa: BLE001 — survive request errors
                    response = {"ok": False, "op": op, "error": f"{type(exc).__name__}: {exc}"}
                if self.obs is not None:
                    # Latency includes any watermark wait — that is the
                    # client-observed service time, which is the point.
                    self.obs.latency(f"live.op.{key}").record(
                        _time.perf_counter() - started
                    )
                await write_frame(writer, response)
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            self._conn_tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    # ------------------------------------------------------------------ #
    # request dispatch
    # ------------------------------------------------------------------ #
    async def _dispatch(self, op: str, request: Dict[str, object]) -> Dict[str, object]:
        # Keep in step with KNOWN_OPS.
        if op == "ping":
            return {"ok": True, "op": "ping", "applied_seq": self.applied_seq}
        if op == "register":
            return self._handle_register(request)
        if op == "ingest":
            return await self._handle_ingest(request)
        if op in ("range", "nearest", "geofence"):
            return await self._handle_query(op, request)
        if op == "stats":
            return self._handle_stats()
        if op == "metrics":
            return self._handle_metrics()
        if op == "shutdown":
            self.shutdown_requested.set()
            return {"ok": True, "op": "shutdown"}
        return {"ok": False, "op": op, "error": f"unknown op {op!r}"}

    def _handle_register(self, request: Dict[str, object]) -> Dict[str, object]:
        objects = request.get("objects", [])
        if not isinstance(objects, list):
            return {"ok": False, "op": "register", "error": "objects must be a list"}
        for spec in objects:
            kind = str(spec.get("prediction", "static"))
            if kind not in WIRE_PREDICTIONS:
                return {
                    "ok": False,
                    "op": "register",
                    "error": (
                        f"prediction {kind!r} is not wire-registrable; "
                        f"choose one of {sorted(WIRE_PREDICTIONS)} or register "
                        "the fleet server-side at startup"
                    ),
                }
        registered = []
        for spec in objects:
            object_id = str(spec["id"])
            self.service.register_object(
                object_id,
                prediction=WIRE_PREDICTIONS[str(spec.get("prediction", "static"))](),
                accuracy=float(spec.get("accuracy", float("inf"))),
            )
            registered.append(object_id)
        return {"ok": True, "op": "register", "registered": registered}

    async def _handle_ingest(self, request: Dict[str, object]) -> Dict[str, object]:
        time = float(request["t"])
        if not math.isfinite(time):
            return {"ok": False, "op": "ingest", "error": f"t must be finite, got {time!r}"}
        batch = [decode_message(entry) for entry in request.get("updates", [])]
        for object_id, _message in batch:
            if not self.service.is_registered(object_id):
                return {
                    "ok": False,
                    "op": "ingest",
                    "error": f"object {object_id!r} is not registered",
                }
        if self._stopping:
            return {"ok": False, "op": "ingest", "error": "server is shutting down"}
        wait = bool(request.get("wait", True))
        if not wait and self._queue.full():
            self.rejected_batches += 1
            _logger.warning(
                "shed ingest batch of %d updates at t=%g: queue full "
                "(%d/%d batches, %d rejected so far)",
                len(batch),
                time,
                self._queue.qsize(),
                self.ingest_queue_size,
                self.rejected_batches,
            )
            if self.obs is not None:
                self.obs.counter("live.ingest.rejected", deterministic=False).inc()
            return {
                "ok": False,
                "op": "ingest",
                "rejected": True,
                "error": "ingest queue full",
                "queue_depth": self._queue.qsize(),
            }
        # Sequence assignment and enqueueing happen without an intervening
        # await (asyncio.Queue wakes blocked putters FIFO), so queue order
        # always equals sequence order.
        self.enqueued_seq += 1
        seq = self.enqueued_seq
        await self._queue.put((seq, time, batch))
        if self.obs is not None:
            self.obs.counter("live.ingest.accepted", deterministic=False).inc()
            self.obs.histogram(
                "live.ingest.queue_depth", bounds=(0, 1, 2, 4, 8, 16, 32, 64, 128)
            ).observe(self._queue.qsize())
        return {
            "ok": True,
            "op": "ingest",
            "seq": seq,
            "accepted": len(batch),
            "queue_depth": self._queue.qsize(),
        }

    async def _handle_query(self, op: str, request: Dict[str, object]) -> Dict[str, object]:
        float(request["t"])  # validate before parking on the batch
        min_seq = int(request.get("min_seq", 0))
        if min_seq > self.enqueued_seq:
            return {
                "ok": False,
                "op": op,
                "error": (
                    f"min_seq {min_seq} is ahead of the last accepted ingest "
                    f"batch ({self.enqueued_seq}); the watermark can never be reached"
                ),
            }
        if self.applied_seq < min_seq:
            async with self._applied_cond:
                await self._applied_cond.wait_for(lambda: self.applied_seq >= min_seq)
        # Park on the coalescing batch: every query that reaches this point
        # in the same loop iteration is answered by one flush callback.
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._query_batch.append((op, request, future))
        if not self._flush_scheduled:
            self._flush_scheduled = True
            asyncio.get_running_loop().call_soon(self._flush_query_batch)
        return await future

    def _flush_query_batch(self) -> None:
        """Answer every parked query in one synchronous vectorised pass.

        The callback never awaits, so the single ``applied_seq`` read below
        is exactly the ingestion state *every* answer in the batch was
        computed against (the writer cannot run mid-flush).  Queries are
        answered grouped by timestamp so a same-instant burst pays one
        facade ``prepare`` for the whole group.
        """
        batch, self._query_batch = self._query_batch, []
        self._flush_scheduled = False
        if not batch:
            return
        at_seq = self.applied_seq
        if self.obs is not None:
            self.obs.histogram(
                "live.query.batch_size", bounds=(1, 2, 4, 8, 16, 32, 64, 128)
            ).observe(len(batch))
            # How far the writer trails the accept path, as seen by queries.
            lag = self.enqueued_seq - at_seq
            lag_hist = self.obs.histogram(
                "live.query.watermark_lag", bounds=(0, 1, 2, 4, 8, 16, 32, 64, 128)
            )
            for _ in batch:
                lag_hist.observe(lag)
        order = sorted(range(len(batch)), key=lambda i: (float(batch[i][1]["t"]), i))
        for i in order:
            op, request, future = batch[i]
            if future.done():
                continue  # connection was cancelled while parked
            try:
                response = self._answer_query(op, request, at_seq)
            except Exception as exc:  # noqa: BLE001 — survive request errors
                response = {"ok": False, "op": op, "error": f"{type(exc).__name__}: {exc}"}
            future.set_result(response)

    def _answer_query(
        self, op: str, request: Dict[str, object], at_seq: int
    ) -> Dict[str, object]:
        time = float(request["t"])
        if op == "range":
            box = [float(v) for v in request["box"]]
            answer = self.service.range_query(
                BoundingBox(box[0], box[1], box[2], box[3]),
                time,
                margin=float(request.get("margin", 0.0)),
            )
        elif op == "nearest":
            x, y = (float(v) for v in request["point"])
            answer = self.service.nearest_objects((x, y), time, k=int(request.get("k", 1)))
        else:
            x, y = (float(v) for v in request["point"])
            answer = self.service.geofence_query((x, y), float(request["radius"]), time)
        return {"ok": True, "op": op, "answer": encode_answer(op, answer), "at_seq": at_seq}

    def _handle_stats(self) -> Dict[str, object]:
        stats = self.service.service_stats()
        return {
            "ok": True,
            "op": "stats",
            "service": stats,
            "server": {
                "enqueued_seq": self.enqueued_seq,
                "applied_seq": self.applied_seq,
                "ingest_queue_depth": self.ingest_queue_depth,
                "ingest_queue_size": self.ingest_queue_size,
                "rejected_batches": self.rejected_batches,
                "op_counts": dict(self.op_counts),
                "frame_errors": self.frame_errors,
                "ingest_errors": self.ingest_errors,
                "connections": len(self._conn_tasks),
                "rebalance_passes": self.rebalance_passes,
                "rebalance": (
                    self.rebalance_policy.last_report.as_dict()
                    if self.rebalance_policy is not None
                    and self.rebalance_policy.last_report is not None
                    else None
                ),
            },
        }

    def _handle_metrics(self) -> Dict[str, object]:
        """Expose the metrics registry over the wire.

        With an observability bundle attached this returns everything the
        server has recorded (latencies, queue depths, shed counts, plus
        whatever the facade contributed); without one it still answers
        usefully from a fresh registry.  Server counters are published as
        gauges at request time either way — seqs and op counts are
        monotone, so ``max``-mode gauges track their current value, and
        ``queue_depth``/``connections`` read as high watermarks.
        """
        registry = self.obs.registry if self.obs is not None else MetricsRegistry()
        registry.gauge("live.server.enqueued_seq").set(self.enqueued_seq)
        registry.gauge("live.server.applied_seq").set(self.applied_seq)
        registry.gauge("live.server.ingest_queue_depth").set(self.ingest_queue_depth)
        registry.gauge("live.server.ingest_queue_size").set(self.ingest_queue_size)
        registry.gauge("live.server.rejected_batches").set(self.rejected_batches)
        registry.gauge("live.server.frame_errors").set(self.frame_errors)
        registry.gauge("live.server.ingest_errors").set(self.ingest_errors)
        registry.gauge("live.server.connections").set(len(self._conn_tasks))
        for op, count in sorted(self.op_counts.items()):
            registry.gauge(f"live.server.op_count.{op}").set(count)
        return {
            "ok": True,
            "op": "metrics",
            "enabled": self.obs is not None,
            "metrics": registry.snapshot(),
            "prometheus": registry.to_prometheus(),
        }


def registrations_for_lanes(lanes) -> List[Tuple[str, object, float]]:
    """Capture ``(object_id, prediction, accuracy)`` for a lane list.

    Exactly what :class:`~repro.sim.fleet.FleetSimulation` registers before
    a run; captured *before* the lanes' protocols process any sighting so
    the server and any replay reference share identical registrations.
    """
    return [
        (
            lane.object_id,
            lane.protocol.prediction_function(),
            lane.protocol.accuracy,
        )
        for lane in lanes
    ]


def service_for_registrations(
    registrations: List[Tuple[str, object, float]],
    n_shards: int = 1,
    region_size: float = 2000.0,
) -> LocationService:
    """A fresh facade with *registrations* applied (server or reference side)."""
    service = LocationService(n_shards=n_shards, region_size=region_size)
    for object_id, prediction, accuracy in registrations:
        service.register_object(object_id, prediction=prediction, accuracy=accuracy)
    return service
