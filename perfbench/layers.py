"""Per-layer metrics: the wrappers that measure them and the table that names them.

:data:`LAYER_METRICS` is the single list of per-layer metrics.  Each row
names the workload whose time the layer dominates and the end-to-end
metric (or, where none is specific enough, the workload's detail figure) a
change to that layer should move; ``BENCHMARK.json`` lists the
same names (the self-test checks the two agree).

:func:`installed` patches every wrapped entry point at once, whatever the
workload, so a layer that a workload does not exercise reports a measured
zero rather than a missing value.
"""

from __future__ import annotations

import contextlib
import contextvars
import json
from typing import Dict, Iterator, List, Optional, Tuple

from perfbench.stats import percentile
from perfbench.tracer import Tracer, _now

#: ``(name, unit, workload, should_move, measured_around)``
LAYER_METRICS: Tuple[Tuple[str, str, str, str, str], ...] = (
    ("ingest.parse_s", "s", "map_to_route", "setup_s",
     "load_osm + project_network, per import"),
    ("ingest.compile_s", "s", "map_to_route", "setup_s",
     "compile_roadmap, per import"),
    ("roadmap.ch_build_s", "s", "map_to_route", "setup_s",
     "ContractionHierarchy.build + warm_expansions, per build"),
    ("roadmap.ch_shortcuts_per_edge", "ratio", "map_to_route", "setup_s",
     "shortcuts / original edges of the built hierarchy"),
    ("roadmap.ch_query_ms_p50", "ms", "map_to_route", "ops_per_s (details: route_p50_ms)",
     "ContractionHierarchy.query"),
    ("roadmap.plan_self_ms_p50", "ms", "map_to_route", "ops_per_s (details: route_p50_ms)",
     "RoutePlanner.plan minus query"),
    ("mobility.scenario_build_s", "s", "paper_sweep", "setup_s",
     "ScenarioSpec.build, per set-up of the four scenarios"),
    ("protocols.map.us_per_sighting", "us", "paper_sweep", "ops_per_s",
     "MapBasedProtocol.observe_precomputed self time per call"),
    ("protocols.linear.us_per_sighting", "us", "paper_sweep", "ops_per_s",
     "LinearPredictionProtocol.observe_precomputed self time per call"),
    ("protocols.distance.us_per_sighting", "us", "paper_sweep", "ops_per_s",
     "DistanceBasedReporting.observe_precomputed self time per call"),
    ("protocols.updates_per_sighting", "ratio", "paper_sweep", "details: msgs_per_obj_h",
     "updates returned / observe_precomputed calls"),
    ("mapmatching.us_per_sighting", "us", "paper_sweep", "ops_per_s",
     "IncrementalMapMatcher.update per call"),
    ("mapmatching.reacquire_ratio", "ratio", "paper_sweep", "ops_per_s",
     "RoadMap.links_near + nearest_link calls / matcher updates"),
    ("traces.estimate_s", "s", "paper_sweep", "ops_per_s",
     "estimate_trace, per sweep pass"),
    ("service.server.predict_s", "s", "paper_sweep", "ops_per_s",
     "LocationServer.predict_position(s), per sweep pass"),
    ("sim.fleet.self_s", "s", "paper_sweep", "ops_per_s",
     "SweepTask.run minus wrapped children, per sweep pass"),
    ("sim.columnar.eligibility_s", "s", "city_fleet", "setup_s",
     "ColumnarFleetEngine.ineligibility inside from_lanes, per call"),
    ("sim.columnar.estimate_s", "s", "city_fleet", "ops_per_s",
     "estimate_traces, per run"),
    ("sim.columnar.loop_s", "s", "city_fleet", "ops_per_s",
     "ColumnarFleetEngine.run minus estimate_traces, per run"),
    ("sim.columnar.traced_peak_mb", "MB", "city_fleet", "peak_rss_mb",
     "tracemalloc peak during ColumnarFleetEngine.run (its own untimed run)"),
    ("service.facade.prepare_ms_p50", "ms", "serve_mix",
     "ops_per_s (details: query_p50_ms)",
     "LocationService.prepare calls that rebuilt the indexes"),
    ("service.facade.prepare_per_query", "ratio", "serve_mix",
     "ops_per_s (details: query_p50_ms)",
     "index rebuilds by prepare / queries (1.0 = no coalescing)"),
    ("service.server.all_positions_ms_p50", "ms", "serve_mix",
     "ops_per_s (details: query_p50_ms)",
     "LocationServer.all_positions (child of prepare)"),
    ("service.query_engine.sync_ms_p50", "ms", "serve_mix",
     "ops_per_s (details: query_p50_ms)",
     "QueryEngine.sync (child of prepare)"),
    ("service.facade.kernel_ms_p50", "ms", "serve_mix",
     "ops_per_s (details: query_p50_ms)",
     "range_query / nearest_objects / geofence_query minus prepare"),
    ("service.facade.ingest_batch_ms_p50", "ms", "serve_mix",
     "ops_per_s (details: ingest_p50_ms)",
     "LocationService.ingest_batch"),
    ("service.sharding.skew", "ratio", "serve_mix",
     "ops_per_s (details: query_p50_ms)",
     "shard_skew of the shard object counts at the end of the run"),
    ("service.live.codec_us_per_request", "us", "serve_mix", "ops_per_s",
     "server-side frame decode + write_frame + decode_message + encode_answer"),
    ("service.live.query_wait_ms_p50", "ms", "serve_mix",
     "ops_per_s (details: query_p50_ms)",
     "server read_frame return -> first facade call, queries"),
    ("service.live.ingest_wait_ms_p50", "ms", "serve_mix",
     "ops_per_s (details: ingest_p50_ms)",
     "server read_frame return -> first facade call, ingest batches"),
    ("service.live.query_unattributed_ms_p50", "ms", "serve_mix",
     "ops_per_s (details: query_p50_ms)",
     "client latency minus every span of the same request, queries"),
    ("service.live.ingest_unattributed_ms_p50", "ms", "serve_mix",
     "ops_per_s (details: ingest_p50_ms)",
     "client latency minus every span of the same request, ingest batches"),
    ("obs.trace_overhead_pct", "%", "all", "-",
     "traced vs untraced throughput of the same workload"),
)

_PROTOCOL_KEYS = {
    "MapBasedProtocol": "map",
    "LinearPredictionProtocol": "linear",
    "DistanceBasedReporting": "distance",
}

#: True inside the live server's connection-handler task (set by the
#: wrapped ``read_frame``); the client shares the codec module but not the
#: task, so its frames are never counted as server codec time.
_SERVER_SIDE = contextvars.ContextVar("perfbench_server_side", default=False)


class LiveRequests:
    """Per-request bookkeeping of the lockstep live run.

    Lockstep keeps one request in flight, so the n-th request the client
    sends is the n-th frame the server reads; both sides number their
    requests and the numbers are joined.
    """

    def __init__(self) -> None:
        #: client id -> ``(kind, start, duration)``
        self.client: Dict[int, Tuple[str, float, float]] = {}
        #: server id -> ``(op, read_return)``
        self.server: Dict[int, Tuple[str, float]] = {}
        #: server id -> start of the first facade call made for it
        self.first_facade: Dict[int, float] = {}
        #: server id -> covered intervals ``(start, end)``
        self.cover: Dict[int, List[Tuple[float, float]]] = {}
        self.codec_seconds = 0.0
        #: server-side decode intervals of the frame being read (its id is
        #: only known once ``read_frame`` returns)
        self.pending: List[Tuple[float, float]] = []
        #: ``"query"`` / ``"ingest"`` -> server id -> facade calls made for it
        self.facade_calls: Dict[str, Dict[int, int]] = {}

    def add_cover(self, rid: Optional[int], start: float, end: float) -> None:
        if rid is not None:
            self.cover.setdefault(rid, []).append((start, end))


class _TimedJson:
    """Stands in for the codec module's ``json``: times server-side decodes."""

    JSONDecodeError = json.JSONDecodeError
    dumps = staticmethod(json.dumps)

    def __init__(self, live: LiveRequests):
        self._live = live

    def loads(self, data):
        if not _SERVER_SIDE.get():
            return json.loads(data)
        start = _now()
        try:
            return json.loads(data)
        finally:
            duration = _now() - start
            self._live.codec_seconds += duration
            self._live.pending.append((start, start + duration))


class Captured:
    """Values read off program objects by the wrappers (not timings)."""

    def __init__(self) -> None:
        self.protocol_updates: Dict[str, int] = {}
        self.ch_shortcuts_per_edge = 0.0
        self.columnar_peak_mb = 0.0
        self.service = None
        self.prepare_passes: List[float] = []


def _install(tracer: LayerTracer) -> None:
    # Imported here: the benchmark puts the program's sources on the path
    # before it installs anything.
    from repro.ingest import cache as ingest_cache
    from repro.mapmatching.matcher import IncrementalMapMatcher
    from repro.protocols.base import UpdateProtocol
    from repro.roadmap.graph import RoadMap
    from repro.roadmap.hierarchy import ContractionHierarchy
    from repro.roadmap.routing import RoutePlanner
    from repro.service.facade import LocationService
    from repro.service.live import server as live_server
    from repro.service.live import protocol as live_protocol
    from repro.service.live.client import LiveClient
    from repro.service.query_engine import QueryEngine
    from repro.service.server import LocationServer
    from repro.sim import columnar, fleet
    from repro.sim.runner import ScenarioSpec, SweepTask

    captured: Captured = tracer.captured
    live: LiveRequests = tracer.live

    # -- map ingest and routing (map_to_route) -----------------------------
    tracer.wrap(ingest_cache, "load_osm", "ingest.load_osm", span=True)
    tracer.wrap(ingest_cache, "project_network", "ingest.project_network", span=True)
    tracer.wrap(ingest_cache, "compile_roadmap", "ingest.compile_roadmap", span=True)

    def on_ch_built(_args, ch, _start, _duration):
        edges = ch.graph.num_edges()
        captured.ch_shortcuts_per_edge = ch.num_shortcuts / edges if edges else 0.0

    tracer.wrap(ContractionHierarchy, "build", "roadmap.ch_build", span=True,
                on_exit=on_ch_built)
    tracer.wrap(ContractionHierarchy, "warm_expansions", "roadmap.ch_warm", span=True)
    tracer.wrap(ContractionHierarchy, "query", "roadmap.ch_query", keep_samples=True)
    tracer.wrap(RoutePlanner, "plan", "roadmap.plan", keep_samples=True)

    # -- scenarios, protocols, matcher, estimator, fleet loop (paper_sweep)
    tracer.wrap(ScenarioSpec, "build", "mobility.scenario_build", span=True)
    tracer.wrap(SweepTask, "run", "sim.fleet.point", span=True)
    tracer.wrap(fleet, "estimate_trace", "traces.estimate_trace", span=True)
    tracer.wrap(LocationServer, "predict_position", "service.server.predict")
    tracer.wrap(LocationServer, "predict_positions", "service.server.predict")
    tracer.wrap(IncrementalMapMatcher, "update", "mapmatching.update")
    tracer.wrap(RoadMap, "links_near", "roadmap.index_lookup")
    tracer.wrap(RoadMap, "nearest_link", "roadmap.index_lookup")

    def wrap_observe(fn):
        timed = {}

        def observe(self, *args, **kwargs):
            key = _PROTOCOL_KEYS.get(type(self).__name__, type(self).__name__)
            wrapper = timed.get(key)
            if wrapper is None:
                wrapper = timed[key] = tracer.timed(fn, f"protocols.observe.{key}")
            message = wrapper(self, *args, **kwargs)
            if message is not None:
                captured.protocol_updates[key] = captured.protocol_updates.get(key, 0) + 1
            return message

        return observe

    tracer.patch(UpdateProtocol, "observe_precomputed", wrap_observe)

    # -- columnar fleet engine (city_fleet) --------------------------------
    tracer.wrap(columnar.ColumnarFleetEngine, "ineligibility",
                "sim.columnar.ineligibility")
    tracer.wrap(columnar.ColumnarFleetEngine, "from_lanes", "sim.columnar.from_lanes",
                span=True)
    tracer.wrap(columnar, "estimate_traces", "sim.columnar.estimate_traces", span=True)
    tracer.wrap(columnar.ColumnarFleetEngine, "run", "sim.columnar.run", span=True)

    # -- sharded facade (serve_mix) ----------------------------------------
    def facade_entry(kind):
        def on_exit(args, _result, start, duration):
            captured.service = args[0]
            rid = tracer.request_id
            if rid is None:
                return
            if rid not in live.first_facade:
                live.first_facade[rid] = start
                returned = live.server[rid][1]
                tracer.record_span("service.live.wait", returned, start - returned, rid)
            calls = live.facade_calls.setdefault(kind, {})
            calls[rid] = calls.get(rid, 0) + 1
            if len(tracer.stack) == 0:
                live.add_cover(rid, start, start + duration)

        return on_exit

    for name in ("range_query", "nearest_objects", "geofence_query"):
        tracer.wrap(LocationService, name, "service.facade.query", span=True,
                    keep_samples=True, on_exit=facade_entry("query"))
    tracer.wrap(LocationService, "ingest_batch", "service.facade.ingest_batch", span=True,
                keep_samples=True, on_exit=facade_entry("ingest"))

    def wrap_prepare(fn):
        timed = tracer.timed(fn, "service.facade.prepare", span=True)

        def prepare(self, time):
            before = self.counters.syncs
            start = _now()
            timed(self, time)
            if self.counters.syncs != before:
                captured.prepare_passes.append(_now() - start)

        return prepare

    tracer.patch(LocationService, "prepare", wrap_prepare)
    tracer.wrap(LocationServer, "all_positions", "service.server.all_positions",
                span=True, keep_samples=True)
    tracer.wrap(QueryEngine, "sync", "service.query_engine.sync", span=True,
                keep_samples=True)

    # -- live tier: request ids, codec, client latency (serve_mix) ---------
    def wrap_read_frame(fn):
        async def read_frame(reader):
            _SERVER_SIDE.set(True)
            payload = await fn(reader)
            if payload is not None:
                returned = _now()
                rid = len(live.server)
                live.server[rid] = (str(payload.get("op", "")), returned)
                tracer.request_id = rid
                for start, end in live.pending:
                    live.add_cover(rid, start, end)
            live.pending.clear()
            return payload

        return read_frame

    def wrap_write_frame(fn):
        async def write_frame(writer, payload):
            start = _now()
            try:
                await fn(writer, payload)
            finally:
                end = _now()
                live.codec_seconds += end - start
                live.add_cover(tracer.request_id, start, end)

        return write_frame

    def codec_call(_args, _result, start, duration):
        live.codec_seconds += duration
        live.add_cover(tracer.request_id, start, start + duration)

    tracer.patch(live_server, "read_frame", wrap_read_frame)
    tracer.patch(live_server, "write_frame", wrap_write_frame)
    tracer.wrap(live_server, "decode_message", "service.live.decode_message",
                on_exit=codec_call)
    tracer.wrap(live_server, "encode_answer", "service.live.encode_answer",
                on_exit=codec_call)
    tracer.patch(live_protocol, "json", lambda _json: _TimedJson(live))

    def wrap_client(kind):
        def make(fn):
            async def request(self, *args, **kwargs):
                start = _now()
                try:
                    return await fn(self, *args, **kwargs)
                finally:
                    rid = len(live.client)
                    live.client[rid] = (kind, start, _now() - start)
                    tracer.record_span(f"live.client.{kind}", start, live.client[rid][2], rid)

            return request

        return make

    tracer.patch(LiveClient, "ingest", wrap_client("ingest"))
    tracer.patch(LiveClient, "query_call", wrap_client("query"))


@contextlib.contextmanager
def installed(tracer: Optional[LayerTracer]) -> Iterator[None]:
    """Install every wrapper into *tracer* for the block (no-op for ``None``)."""
    if tracer is None:
        yield
        return
    _install(tracer)
    try:
        yield
    finally:
        tracer.restore()


class LayerTracer(Tracer):
    """A tracer with the live-request and captured-value stores the
    wrappers of :func:`installed` write to."""

    def __init__(self, origin: Optional[float] = None):
        super().__init__(origin)
        self.live = LiveRequests()
        self.captured = Captured()


# --------------------------------------------------------------------------- #
# extraction
# --------------------------------------------------------------------------- #
def _union_length(intervals: List[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of *intervals*, clipped to ``[lo, hi]``."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def live_breakdown(live: LiveRequests) -> Dict[str, object]:
    """Join client and server request ids; waits and unattributed time per kind."""
    waits: Dict[str, List[float]] = {"query": [], "ingest": []}
    unattributed: Dict[str, List[float]] = {"query": [], "ingest": []}
    mismatched = 0
    for rid, (kind, c_start, c_duration) in live.client.items():
        server = live.server.get(rid)
        op = server[0] if server else ""
        if server is None or (op == "ingest") != (kind == "ingest"):
            mismatched += 1
            continue
        intervals = list(live.cover.get(rid, ()))
        first = live.first_facade.get(rid)
        if first is not None:
            waits[kind].append(first - server[1])
            intervals.append((server[1], first))
        c_end = c_start + c_duration
        unattributed[kind].append(
            c_duration - _union_length(intervals, c_start, c_end)
        )
    ingest_calls = live.facade_calls.get("ingest", {})
    ingest_requests = [rid for rid, (op, _t) in live.server.items() if op == "ingest"]
    misattributed = sum(1 for rid in ingest_requests if ingest_calls.get(rid, 0) != 1)
    return {
        "requests": len(live.server),
        "waits": waits,
        "unattributed": unattributed,
        "mismatched_ids": mismatched,
        "misattributed_ingests": misattributed,
    }


def extract(setup: LayerTracer, run: LayerTracer, setups: int, passes: int,
            overhead_pct: float) -> Dict[str, float]:
    """Every per-layer metric of :data:`LAYER_METRICS` from one traced run.

    *setup* traced the set-up repetitions (*setups* of them), *run* the
    timed passes (*passes* of them).  A layer the workload never called
    reports ``0.0``.
    """

    def agg(tracer: Tracer, key: str):
        return tracer.aggregates.get(key)

    def total(tracer: Tracer, key: str) -> float:
        a = agg(tracer, key)
        return a.total if a else 0.0

    def calls(tracer: Tracer, key: str) -> int:
        a = agg(tracer, key)
        return a.calls if a else 0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def p50_ms(samples) -> float:
        return percentile(samples, 50.0) * 1e3 if samples else 0.0

    def samples(tracer: Tracer, key: str, own: bool = False) -> List[float]:
        a = agg(tracer, key)
        if a is None or a.samples is None:
            return []
        return a.self_samples if own else a.samples

    values: Dict[str, float] = {}
    values["ingest.parse_s"] = ratio(
        total(setup, "ingest.load_osm") + total(setup, "ingest.project_network"), setups)
    values["ingest.compile_s"] = ratio(total(setup, "ingest.compile_roadmap"), setups)
    values["roadmap.ch_build_s"] = ratio(
        total(setup, "roadmap.ch_build") + total(setup, "roadmap.ch_warm"), setups)
    values["roadmap.ch_shortcuts_per_edge"] = max(
        setup.captured.ch_shortcuts_per_edge, run.captured.ch_shortcuts_per_edge)
    values["roadmap.ch_query_ms_p50"] = p50_ms(samples(run, "roadmap.ch_query"))
    values["roadmap.plan_self_ms_p50"] = p50_ms(samples(run, "roadmap.plan", own=True))
    values["mobility.scenario_build_s"] = ratio(
        total(setup, "mobility.scenario_build"), setups)

    for key in ("map", "linear", "distance"):
        a = agg(run, f"protocols.observe.{key}")
        values[f"protocols.{key}.us_per_sighting"] = (
            ratio(a.self_time, a.calls) * 1e6 if a else 0.0)
    observed = sum(a.calls for key, a in run.aggregates.items()
                   if key.startswith("protocols.observe."))
    updates = sum(run.captured.protocol_updates.values())
    values["protocols.updates_per_sighting"] = ratio(updates, observed)
    values["mapmatching.us_per_sighting"] = ratio(
        total(run, "mapmatching.update"), calls(run, "mapmatching.update")) * 1e6
    values["mapmatching.reacquire_ratio"] = ratio(
        calls(run, "roadmap.index_lookup"), calls(run, "mapmatching.update"))
    values["traces.estimate_s"] = ratio(total(run, "traces.estimate_trace"), passes)
    values["service.server.predict_s"] = ratio(total(run, "service.server.predict"), passes)
    point = agg(run, "sim.fleet.point")
    values["sim.fleet.self_s"] = ratio(point.self_time if point else 0.0, passes)

    values["sim.columnar.eligibility_s"] = ratio(
        total(setup, "sim.columnar.ineligibility"), calls(setup, "sim.columnar.ineligibility"))
    estimate = total(run, "sim.columnar.estimate_traces")
    values["sim.columnar.estimate_s"] = ratio(estimate, passes)
    values["sim.columnar.loop_s"] = ratio(total(run, "sim.columnar.run") - estimate, passes)
    values["sim.columnar.traced_peak_mb"] = run.captured.columnar_peak_mb

    queries = calls(run, "service.facade.query")
    passes_done = run.captured.prepare_passes
    values["service.facade.prepare_ms_p50"] = p50_ms(passes_done)
    values["service.facade.prepare_per_query"] = ratio(len(passes_done), queries)
    values["service.server.all_positions_ms_p50"] = p50_ms(
        samples(run, "service.server.all_positions"))
    values["service.query_engine.sync_ms_p50"] = p50_ms(
        samples(run, "service.query_engine.sync"))
    values["service.facade.kernel_ms_p50"] = p50_ms(
        samples(run, "service.facade.query", own=True))
    values["service.facade.ingest_batch_ms_p50"] = p50_ms(
        samples(run, "service.facade.ingest_batch"))
    service = run.captured.service
    skew = 0.0
    if service is not None:
        from repro.service.sharding import shard_skew

        skew = shard_skew([int(row["objects"]) for row in service.shard_rows()])
    values["service.sharding.skew"] = skew

    live = live_breakdown(run.live)
    values["service.live.codec_us_per_request"] = ratio(
        run.live.codec_seconds, live["requests"]) * 1e6
    for kind in ("query", "ingest"):
        values[f"service.live.{kind}_wait_ms_p50"] = p50_ms(live["waits"][kind])
        values[f"service.live.{kind}_unattributed_ms_p50"] = p50_ms(
            live["unattributed"][kind])
    values["obs.trace_overhead_pct"] = overhead_pct
    missing = {row[0] for row in LAYER_METRICS} ^ set(values)
    if missing:
        raise RuntimeError(f"per-layer table and extraction disagree on {sorted(missing)}")
    return values


def layer_table() -> List[Dict[str, str]]:
    """The per-layer table as records (for the printed report)."""
    return [
        {"metric": name, "unit": unit, "workload": workload,
         "should_move": should_move, "measured_around": around}
        for name, unit, workload, should_move, around in LAYER_METRICS
    ]


