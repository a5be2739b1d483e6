"""Query workloads: the application queries replayed against the service.

The paper evaluates the *update* side of the location service; this module
describes the *query* side: a :class:`QueryWorkload` is a deterministic
stream of application queries (a range / k-nearest / geofence mix) issued
at every sample instant (a simulation tick) or at Poisson arrival
instants — the way a live service answers "find the nearest taxi" requests
while updates keep streaming in.

:func:`query_stream` materialises the stream as :class:`QueryCall`\\ s (it
is the only consumer of the workload's RNG), and :func:`execute_call`
answers one call through a backend's query surface (``range_query`` /
``nearest_objects`` / ``geofence_query``).  Queries only read what the
updates wrote, so they are not part of the simulation: a
:class:`~repro.service.loadgen.ReplayPlan` carries the calls beside the
fleet's update batches, and every query driver — the query bench, the live
load test, the test-suite's linear-scan oracle in
``tests/reference/linear_queries.py`` — replays that one plan.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

from repro.geo.bbox import BoundingBox

#: The query kinds a workload can mix.
QUERY_KINDS = ("range", "nearest", "geofence")


@dataclass(frozen=True)
class QueryCall:
    """One fully drawn application query: arrival instant, kind and centre.

    The workload's remaining parameters (box extent, ``k``, geofence
    radius, margin) are properties of the :class:`QueryWorkload`, so a
    ``(workload, call)`` pair determines the query completely —
    :func:`execute_call` turns it into a backend answer.  Materialised
    calls are what lets every query driver issue the bit-identical stream.
    """

    time: float
    kind: str
    cx: float
    cy: float


def _draw_call(rng: random.Random, weights: List[float], area: BoundingBox,
               time: float) -> QueryCall:
    """Draw one query's kind and centre (the canonical draw order)."""
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


def query_stream(
    workload: "QueryWorkload", area: BoundingBox, ticks: Sequence[float], end: float
) -> List[QueryCall]:
    """Materialise the workload's seeded query stream over ``[ticks[0], end]``.

    *ticks* are the simulation's sample instants in increasing order (the
    union of every lane's sample times).  With an ``arrival_rate_per_s``
    queries arrive as a Poisson process: an exponential gap from
    ``ticks[0]``, the query's kind/centre draws, repeated until the next
    arrival falls past *end*.  Otherwise every tick up to *end* adds
    ``queries_per_tick`` to a credit, and each whole unit of credit issues
    one query at that tick — so ``0.25`` issues one query every fourth
    tick, exactly over time.  Query centres are drawn from *area*.
    """
    rng = random.Random(workload.seed)
    weights = [float(workload.mix.get(kind, 0.0)) for kind in QUERY_KINDS]
    calls: List[QueryCall] = []
    rate = workload.arrival_rate_per_s
    if rate is not None:
        t = float(ticks[0]) + rng.expovariate(rate)
        while t <= end:
            calls.append(_draw_call(rng, weights, area, t))
            t += rng.expovariate(rate)
        return calls
    credit = 0.0
    for t in ticks:
        if t > end:
            break
        credit += workload.queries_per_tick
        n = int(credit)
        if n > 0:
            credit -= n
            calls.extend(_draw_call(rng, weights, area, t) for _ in range(n))
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
        Poisson arrivals fall at exact instants between ticks
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
    """Outcome of replaying a query workload over one simulation.

    ``ticks`` counts the simulation's sample instants, whichever arrival
    model issued the queries.
    """

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

    def record(self, kind: str, answer) -> None:
        """Count one answered query of *kind* and its hits."""
        self.queries += 1
        self.hits += len(answer)
        self.by_kind[kind] = self.by_kind.get(kind, 0) + 1
        self.hits_by_kind[kind] = self.hits_by_kind.get(kind, 0) + len(answer)


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
