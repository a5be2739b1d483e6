"""Query workloads replayed against the location service mid-simulation.

The paper evaluates the *update* side of the location service; this module
exercises the *query* side: a :class:`QueryWorkload` describes a
deterministic stream of application queries (a range / k-nearest / geofence
mix), and :class:`WorkloadExecutor` replays it against a sharded
:class:`~repro.service.facade.LocationService` at every sample instant (a
simulation tick) or at Poisson arrival instants — the way a live service
answers "find the nearest taxi" requests while updates keep streaming in.

The workload is read-only with respect to the simulation: queries never
change server records, so a fleet run with a workload attached produces
bit-identical :class:`~repro.sim.metrics.SimulationResult`\\ s to the same
run without one (asserted by the test-suite).  The executor calls only the
service's query surface (``range_query`` / ``nearest_objects`` /
``geofence_query``); the test-suite replays the identical query stream
against the linear-scan oracle in ``tests/reference/linear_queries.py``
through that same surface, which is what makes the equivalence checks and
the query benchmark fair.
"""

from __future__ import annotations

import random
import time as _time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from repro.geo.bbox import BoundingBox

#: The query kinds a workload can mix.
QUERY_KINDS = ("range", "nearest", "geofence")


@dataclass(frozen=True)
class QueryCall:
    """One fully drawn application query: arrival instant, kind and centre.

    The workload's remaining parameters (box extent, ``k``, geofence
    radius, margin) are properties of the :class:`QueryWorkload`, so a
    ``(workload, call)`` pair determines the query completely —
    :func:`execute_call` turns it into a backend answer.  Materialising
    calls (instead of drawing them inside an executor) is what lets the
    live-serving load generator and the event kernel issue bit-identical
    query streams.
    """

    time: float
    kind: str
    cx: float
    cy: float


def _draw_call(rng: random.Random, weights: List[float], area: BoundingBox,
               time: float) -> QueryCall:
    """Draw one query's kind and centre (the canonical draw order).

    Every consumer of a workload's RNG stream — the per-tick executor, the
    kernel's Poisson arrivals, :func:`poisson_query_stream` — draws through
    this helper, so the streams stay aligned by construction.
    """
    kind = rng.choices(QUERY_KINDS, weights=weights)[0]
    cx = rng.uniform(area.min_x, area.max_x)
    cy = rng.uniform(area.min_y, area.max_y)
    return QueryCall(time=time, kind=kind, cx=cx, cy=cy)


def execute_call(backend, workload: "QueryWorkload", call: QueryCall):
    """Answer *call* through *backend*'s query surface.

    *backend* is a :class:`~repro.service.facade.LocationService` or
    anything exposing its ``range_query`` / ``nearest_objects`` /
    ``geofence_query`` methods.  Returns the query's answer unchanged, so
    equality of answers is equality of backend behaviour.
    """
    if call.kind == "range":
        half = workload.range_extent_m / 2.0
        box = BoundingBox(call.cx - half, call.cy - half, call.cx + half, call.cy + half)
        return backend.range_query(box, call.time, margin=workload.margin)
    if call.kind == "nearest":
        return backend.nearest_objects((call.cx, call.cy), call.time, k=workload.k)
    return backend.geofence_query(
        (call.cx, call.cy), workload.geofence_radius_m, call.time
    )


def poisson_query_stream(
    workload: "QueryWorkload", area: BoundingBox, start: float, end: float
) -> List[QueryCall]:
    """Materialise the workload's seeded Poisson query stream over [start, end].

    Reproduces the event kernel's draw order exactly — one exponential
    arrival gap, then the query's kind/centre draws, repeated until the
    next arrival falls past *end* — so replaying the returned calls against
    a backend issues the same queries, in the same order, at the same
    simulated instants as :class:`~repro.sim.fleet.FleetSimulation` with
    this workload attached.  This is the serving tier's arrival process: the
    load generator replays these calls against the live server on the wall
    clock.
    """
    rate = workload.arrival_rate_per_s
    if rate is None:
        raise ValueError("workload has no Poisson arrival rate configured")
    rng = random.Random(workload.seed)
    weights = [float(workload.mix.get(kind, 0.0)) for kind in QUERY_KINDS]
    calls: List[QueryCall] = []
    t = start + rng.expovariate(rate)
    while t <= end:
        calls.append(_draw_call(rng, weights, area, t))
        t += rng.expovariate(rate)
    return calls


@dataclass(frozen=True)
class QueryWorkload:
    """A deterministic application-query stream.

    Parameters
    ----------
    queries_per_tick:
        Mean number of queries issued per simulation tick; fractional rates
        are honoured exactly over time via an accumulator (e.g. ``0.25``
        issues one query every fourth tick).
    mix:
        Relative weights of the query kinds (``range`` / ``nearest`` /
        ``geofence``).  Weights need not sum to one.
    k:
        Result size for k-nearest queries.
    range_extent_m:
        Edge length of range-query boxes in metres.
    geofence_radius_m:
        Radius of geofence queries in metres.
    margin:
        Accuracy margin forwarded to range queries.
    seed:
        Seed of the query stream (centres, kinds, interleaving).
    arrival_rate_per_s:
        When set, queries arrive as a **Poisson process** at this mean rate
        (queries per simulated second) instead of per tick — the natural
        model for independent application requests hitting a live service.
        Poisson arrivals are scheduled as exact-instant events
        (``queries_per_tick`` is ignored then).
    """

    queries_per_tick: float = 1.0
    mix: Mapping[str, float] = field(
        default_factory=lambda: {"range": 1.0, "nearest": 1.0, "geofence": 1.0}
    )
    k: int = 3
    range_extent_m: float = 1000.0
    geofence_radius_m: float = 500.0
    margin: float = 0.0
    seed: int = 0
    arrival_rate_per_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.queries_per_tick < 0:
            raise ValueError("queries_per_tick must be non-negative")
        if self.arrival_rate_per_s is not None and self.arrival_rate_per_s <= 0:
            raise ValueError("arrival_rate_per_s must be positive")
        unknown = set(self.mix) - set(QUERY_KINDS)
        if unknown:
            raise ValueError(f"unknown query kinds in mix: {sorted(unknown)}")
        weights = [float(self.mix.get(kind, 0.0)) for kind in QUERY_KINDS]
        if any(w < 0 for w in weights):
            raise ValueError("mix weights must be non-negative")
        if sum(weights) <= 0:
            raise ValueError("mix needs at least one positive weight")
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if self.range_extent_m <= 0 or self.geofence_radius_m <= 0:
            raise ValueError("query extents must be positive")

    @classmethod
    def parse_mix(cls, text: str) -> Dict[str, float]:
        """Parse the CLI mix format ``range=2,nearest=1,geofence=0.5``."""
        mix: Dict[str, float] = {}
        for part in text.split(","):
            part = part.strip()
            if not part:
                continue
            if "=" not in part:
                raise ValueError(f"expected kind=weight, got {part!r}")
            kind, _, weight = part.partition("=")
            mix[kind.strip()] = float(weight)
        if not mix:
            raise ValueError("empty query mix")
        return mix


@dataclass
class WorkloadReport:
    """Outcome of replaying a query workload over one simulation."""

    ticks: int = 0
    queries: int = 0
    hits: int = 0
    by_kind: Dict[str, int] = field(default_factory=dict)
    hits_by_kind: Dict[str, int] = field(default_factory=dict)
    query_seconds: float = 0.0

    @property
    def queries_per_second(self) -> float:
        """Observed query throughput (wall-clock)."""
        return self.queries / self.query_seconds if self.query_seconds > 0 else 0.0

    @property
    def mean_query_seconds(self) -> float:
        """Mean wall-clock latency of one query."""
        return self.query_seconds / self.queries if self.queries else 0.0

    def as_dict(self) -> Dict[str, object]:
        """Flat dictionary for reports and artifacts."""
        out: Dict[str, object] = {
            "ticks": self.ticks,
            "queries": self.queries,
            "hits": self.hits,
            "query_seconds": round(self.query_seconds, 6),
            "mean_query_us": round(self.mean_query_seconds * 1e6, 3),
            "queries_per_second": round(self.queries_per_second, 1),
        }
        for kind in QUERY_KINDS:
            out[f"{kind}_queries"] = self.by_kind.get(kind, 0)
        return out


class WorkloadExecutor:
    """Replays a :class:`QueryWorkload` against one server backend.

    Parameters
    ----------
    workload:
        The query stream description.
    backend:
        A :class:`~repro.service.facade.LocationService`, or anything
        exposing its query surface (see :func:`execute_call`).
    area:
        Bounding box the query centres are drawn from — typically the
        bounding box of the fleet's traces.
    record_answers:
        When set, every query's answer is kept on :attr:`answers` (used by
        equivalence tests and the benchmark; off by default to stay O(1) in
        memory).
    """

    def __init__(
        self,
        workload: QueryWorkload,
        backend,
        area: BoundingBox,
        record_answers: bool = False,
    ):
        self.workload = workload
        self.backend = backend
        self.area = area
        self.report = WorkloadReport()
        self.record_answers = record_answers
        self.answers: List[Tuple[float, str, object]] = []
        self._rng = random.Random(workload.seed)
        self._credit = 0.0
        self._weights = [float(workload.mix.get(kind, 0.0)) for kind in QUERY_KINDS]

    def on_tick(self, time: float) -> None:
        """Issue this tick's queries at simulation time *time*."""
        self.report.ticks += 1
        self._credit += self.workload.queries_per_tick
        n = int(self._credit)
        if n <= 0:
            return
        self._credit -= n
        for _ in range(n):
            self._one_query(time)

    # ------------------------------------------------------------------ #
    # Poisson arrivals (event kernel)
    # ------------------------------------------------------------------ #
    @property
    def poisson_rate(self) -> Optional[float]:
        """Arrival rate in queries per simulated second (``None`` = per-tick)."""
        return self.workload.arrival_rate_per_s

    def next_arrival(self, after: float) -> float:
        """The next Poisson arrival instant strictly after *after*.

        Inter-arrival gaps are exponential draws from the workload's seeded
        stream, so the arrival pattern is deterministic per seed.
        """
        rate = self.workload.arrival_rate_per_s
        if rate is None:
            raise ValueError("workload has no Poisson arrival rate configured")
        return after + self._rng.expovariate(rate)

    def note_tick(self) -> None:
        """Record a simulated sample instant without issuing queries.

        The Poisson-arrival path's counterpart of :meth:`on_tick`: queries
        arrive independently of the sampling grid there, but the report's
        ``ticks`` counter should still say how many instants the simulation
        stepped through rather than a misleading ``0``.
        """
        self.report.ticks += 1

    def run_query(self, time: float) -> None:
        """Issue one query at exactly *time* (a kernel query-arrival event)."""
        self._one_query(time)

    def issue_wave(self, time: float, n: int) -> None:
        """Issue *n* queries at one instant as a coalesced wave.

        The workload model of the live server's query batching: every query
        in the wave shares the same timestamp (one facade ``prepare`` for
        the whole group) and is answered back to back, with one wall-clock
        measurement spanning the wave instead of a timer pair per query.
        Calls are drawn up front in the canonical order, so the answers are
        identical to *n* sequential :meth:`run_query` calls at *time*.
        """
        if n <= 0:
            return
        calls = [_draw_call(self._rng, self._weights, self.area, time) for _ in range(n)]
        started = _time.perf_counter()
        answers = [execute_call(self.backend, self.workload, call) for call in calls]
        self.report.query_seconds += _time.perf_counter() - started
        for call, answer in zip(calls, answers):
            self._record(time, call, answer)

    def _one_query(self, time: float) -> None:
        call = _draw_call(self._rng, self._weights, self.area, time)
        started = _time.perf_counter()
        answer = execute_call(self.backend, self.workload, call)
        self.report.query_seconds += _time.perf_counter() - started
        self._record(time, call, answer)

    def _record(self, time: float, call: QueryCall, answer) -> None:
        self.report.queries += 1
        self.report.hits += len(answer)
        self.report.by_kind[call.kind] = self.report.by_kind.get(call.kind, 0) + 1
        self.report.hits_by_kind[call.kind] = (
            self.report.hits_by_kind.get(call.kind, 0) + len(answer)
        )
        if self.record_answers:
            self.answers.append((time, call.kind, answer))


def default_query_mix(scenario_name: Optional[str]) -> Dict[str, float]:
    """A plausible query mix for a library scenario.

    Pedestrian scenarios skew towards geofences ("address all users inside
    the store"), dense city driving towards nearest-taxi queries, corridor /
    freeway scenarios towards range queries over road stretches.  Unknown
    names get the balanced default.
    """
    from repro.experiments.library import get_entry  # runtime: library sits above sim

    balanced = {"range": 1.0, "nearest": 1.0, "geofence": 1.0}
    if scenario_name is None:
        return balanced
    try:
        entry = get_entry(scenario_name)
    except ValueError:
        return balanced
    if entry.query_mix:
        return dict(entry.query_mix)
    knobs = dict(entry.knobs)
    topology = str(knobs.get("topology", ""))
    if topology == "footpath":
        return {"range": 0.5, "nearest": 1.0, "geofence": 2.5}
    if topology in ("grid", "radial"):
        return {"range": 1.0, "nearest": 2.5, "geofence": 0.5}
    if topology in ("corridor", "interurban", "mixed"):
        return {"range": 2.5, "nearest": 1.0, "geofence": 0.5}
    return balanced


def default_query_rate(scenario_name: Optional[str]) -> Optional[float]:
    """The scenario's default Poisson query-arrival rate, if it has one.

    Library entries can declare ``query_rate_per_s`` (e.g. the
    ``poisson_queries_freeway`` scenario); everything else returns ``None``
    and keeps the per-tick workload model.
    """
    from repro.experiments.library import get_entry  # runtime: library sits above sim

    if scenario_name is None:
        return None
    try:
        entry = get_entry(scenario_name)
    except ValueError:
        return None
    return entry.query_rate_per_s
